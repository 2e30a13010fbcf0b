"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from tracing import EXACT_COUNTS, LAYERS, PER_LAYER_UNITS, Tracer, layer_metrics

SF = run.load_sympflow()

TINY = {
    "train_sf_hh": lambda seed: W.TrainSfHh(SF, seed, batch=8, epochs=2, probes=1),
    "eval_hh": lambda seed: W.EvalHh(SF, seed, n_ics=1, ks=(1, 2), path_horizon=2.0, solve_horizon=1.0),
    "supervised_mlp_sho": lambda seed: W.SupervisedMlpSho(SF, seed, n_trajectories=2, m_samples=2, epochs=3, batch=2),
}

USES = {
    "train_sf_hh": {"_jet", "potential", "model", "extraction", "train", "systems"},
    "eval_hh": {"_jet", "potential", "model", "systems", "integrate", "evaluate"},
    "supervised_mlp_sho": {"_jet", "mlp", "train", "systems", "integrate"},
}


def traced(wl, blocks=1):
    tracer = Tracer()
    wl.unobserved = tracer.paused
    units = 0
    with tracer:
        for i in range(blocks):
            b = wl.block(i)
            assert b.failed == 0, wl.failures
            units += b.units
    return tracer, layer_metrics(tracer, units)


def test_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(W.WORKLOAD_CLASSES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_has_a_span_for_every_layer_it_uses(name):
    tracer, metrics = traced(TINY[name](0))
    assert USES[name] <= tracer.layers_seen()
    for layer in USES[name]:
        assert metrics[f"{layer.lstrip('_')}.self_ms"] > 0
    for layer in set(LAYERS) - USES[name]:
        assert metrics[f"{layer.lstrip('_')}.self_ms"] == 0


def test_jet_sweeps_per_epoch_at_the_seed_configuration():
    # L=3, h=10, regularized, exact derivatives: 145 forward sweeps and 145
    # pullbacks per epoch, whatever the batch size.
    _, metrics = traced(TINY["train_sf_hh"](0))
    assert metrics["jet.sweeps"] == 145
    assert metrics["jet.pullbacks"] == 145


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat(name):
    _, first = traced(TINY[name](3), blocks=2)
    _, second = traced(TINY[name](3), blocks=2)
    for count in EXACT_COUNTS:
        assert first[count] == second[count]


def test_eval_counts_are_taken_at_the_boundaries():
    _, m = traced(TINY["eval_hh"](1))
    assert m["integrate.steps"] > 0
    assert m["integrate.accept_ratio"] == pytest.approx(1.0, abs=0.2)
    assert 5 <= m["integrate.fevals_per_step"] <= 8
    assert m["evaluate.window_maps"] > 0
    assert m["systems.rows_per_call"] >= 1


def test_tracer_restores_every_name():
    jet = sys.modules["sympflow._jet"]
    pot = sys.modules["sympflow.potential"]
    model = sys.modules["sympflow.model"]
    integ = sys.modules["sympflow.integrate"]
    before = (pot.chain_forward, model.pot, integ.integrate, SF.systems.HamiltonianSystem.vector_field)
    with Tracer():
        assert pot.chain_forward is not jet.chain_forward
        assert model.pot is not pot
    after = (pot.chain_forward, model.pot, integ.integrate, SF.systems.HamiltonianSystem.vector_field)
    assert before == after
    assert pot.chain_forward is jet.chain_forward


def test_failed_check_counts_and_the_run_carries_on(monkeypatch):
    wl = TINY["train_sf_hh"](0)
    monkeypatch.setattr(W, "SYMPLECTIC_TOL", 0.0)
    first, second = wl.block(0), wl.block(1)
    assert (first.failed, second.failed) == (1, 1)
    assert first.attempted == second.attempted == 2


def test_exception_counts_as_failed_operation(monkeypatch):
    wl = TINY["supervised_mlp_sho"](0)

    def broken(*args, **kwargs):
        raise SF.integrate.IntegrationError("step size underflow")

    monkeypatch.setattr(SF.integrate, "generate_dataset", broken)
    b = wl.block(0)
    assert (b.attempted, b.failed) == (1, 1)
    assert "IntegrationError" in wl.failures[0]


def test_exits_nonzero_without_the_program(tmp_path):
    root = Path(run.ROOT)
    shutil.copytree(root / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "eval_hh", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
