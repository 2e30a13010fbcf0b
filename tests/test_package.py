"""Package-level checks: submodules stay reachable as attributes of ``sympflow``,
and the two model kinds share one kernel protocol."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sympflow
from sympflow import mlp, model
from sympflow import potential as pot
from sympflow.errors import DimensionError, UnsupportedSystemError

from _oracles import init_law, weight_arrays


def test_submodules_not_shadowed_by_reexports():
    names = [info.name for info in pkgutil.iter_modules(sympflow.__path__)]
    assert "train" in names and "integrate" in names
    shadowed = []
    for name in names:
        importlib.import_module("sympflow." + name)
        if getattr(sympflow, name) is not sys.modules["sympflow." + name]:
            shadowed.append(name)
    assert shadowed == [], f"package attributes shadow submodules: {shadowed}"


def _loaded_by_import(top: str) -> str:
    """The modules under ``top`` that importing every sympflow module loads, in a fresh process."""
    code = (
        "import pkgutil, sys, importlib, sympflow\n"
        "for info in pkgutil.iter_modules(sympflow.__path__):\n"
        "    importlib.import_module('sympflow.' + info.name)\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sympflow.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # SciPy serves the tests as an oracle only; the package must not need it.
    assert _loaded_by_import("scipy") == "[]"


@pytest.mark.parametrize("top", ["multiprocessing", "mmap"])
def test_import_loads_no_worker_modules(top):
    # train() imports them when it forks its second-term worker; importing
    # multiprocessing costs about 17 ms that no import of the package pays.
    assert _loaded_by_import(top) == "[]"


# The single-point potential API, derivative mode ``fd`` and the second metric path, all removed.
REMOVED = (
    "QuantityKind", "value", "time_partial", "grad_input", "mixed_time_input_gradient",
    "hessian_vector_product", "param_grad", "value_b", "grad_time_b", "hvp_b", "mixed_b", "value_vjp",
    "avg_relative_error", "avg_energy_variation", "loss_residual", "loss_ham_match", "loss_energy_reg",
)


def test_every_exported_name_resolves_and_removed_names_are_gone():
    for info in pkgutil.iter_modules(sympflow.__path__):
        mod = importlib.import_module("sympflow." + info.name)
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == [], info.name
    for mod in (sympflow, sympflow.potential, sympflow.evaluate, sympflow.train):
        assert [n for n in REMOVED if hasattr(mod, n)] == [], mod.__name__
    assert not hasattr(sympflow.train, "FD_STEP") and not hasattr(sympflow.validation, "_central")


def test_train_and_integrate_functions_reached_through_their_modules():
    from sympflow import estimators, evaluate

    assert sympflow.train.train is estimators.run_training
    assert sympflow.integrate.integrate is evaluate.integrate


# ---------------------------------------------------------------------------
# The model protocol: both kinds expose the same module-level kernels.
# ---------------------------------------------------------------------------

PROTOCOL = (
    "_forward_b",
    "_taped",
    "_pullback",
    "params_to_vector",
    "model_with_params",
    "_model_over",
    "param_count",
)

MODELS = {
    "sympflow": lambda: model.random_sympflow(1, 2, np.random.default_rng(0), h=3),
    "mlp": lambda: mlp.random_mlp_flow(1, 2, np.random.default_rng(0), hidden=3),
}


def _unannotated(fn):
    sig = inspect.signature(fn)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return sig.replace(parameters=params, return_annotation=inspect.Signature.empty)


@pytest.mark.parametrize("name", PROTOCOL)
def test_model_kinds_share_one_protocol(name):
    assert _unannotated(getattr(model, name)) == _unannotated(getattr(mlp, name))


def test_model_kind_attributes():
    assert model.SympFlowModel.kind == MODELS["sympflow"]().kind == "sympflow"
    assert mlp.MlpFlowModel.kind == MODELS["mlp"]().kind == "mlp"


KERNELS = {"sympflow": model, "mlp": mlp}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_with_params_shares_no_memory_with_the_vector(kind):
    k, m = KERNELS[kind], MODELS[kind]()
    vec = 0.5 * k.params_to_vector(m)
    want = vec.copy()
    rebuilt = k.model_with_params(m, vec)
    assert not any(np.shares_memory(a, vec) for a in weight_arrays(rebuilt))
    vec[:] = np.nan
    assert np.array_equal(k.params_to_vector(rebuilt), want)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_over_reads_its_buffer_in_place(kind):
    k, m = KERNELS[kind], MODELS[kind]()
    buf = k.params_to_vector(m)
    working = k._model_over(m, buf)
    new = 0.5 * buf
    buf[:] = new
    x = np.array([[0.3, -0.2], [0.1, 0.4]])
    want = k._forward_b(k.model_with_params(m, new), 0.7, x)
    assert np.array_equal(k._forward_b(working, 0.7, x), want)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("fn", ["forward", "time_derivative"])
@pytest.mark.parametrize("t", [float("nan"), np.array([0.1, np.inf, 0.3]), np.zeros(2)])
def test_bad_time_raises_dimension_error(kind, fn, t):
    kernels = {"sympflow": model, "mlp": mlp}[kind]
    x = np.zeros((3, 2))
    with pytest.raises(DimensionError):
        getattr(kernels, fn)(MODELS[kind](), t, x)


# Counts, window numbers and step sizes checked through the shared validation helpers.
BAD_ARGUMENTS = {
    "evaluate_model-ks": lambda m, s: sympflow.evaluate_model(m, s, (-1, 1), 0.5, n_samples=2, ks=(1.5,)),
    "evaluate_model-n_samples": lambda m, s: sympflow.evaluate_model(m, s, (-1, 1), 0.5, n_samples=2.5, ks=(1,)),
    "sample_collocation-n": lambda m, s: sympflow.train.sample_collocation((-1, 1), 0.5, 2.5, 0),
    "sample_collocation-nan-delta_t": lambda m, s: sympflow.train.sample_collocation((-1, 1), np.nan, 4, 0),
    "sample_collocation-inf-delta_t": lambda m, s: sympflow.train.sample_collocation((-1, 1), np.inf, 4, 0),
    "generate_dataset-n_trajectories": lambda m, s: sympflow.generate_dataset(s, (-1, 1), 2.5, 2, 0.5),
    "piecewise_hamiltonian-inf-delta_t": lambda m, s: sympflow.piecewise_hamiltonian(m, np.inf, 0.3, np.zeros(2)),
    "pair_hamiltonian-bool-index": lambda m, s: sympflow.pair_hamiltonian(m, True, 0.3, np.zeros(2)),
    "tail_inverse-bool-index": lambda m, s: sympflow.tail_inverse(m, True, 0.3, np.zeros(2)),
}


SEEDED = {
    "generate_dataset": lambda s, seed: sympflow.generate_dataset(s, (-1, 1), 2, 2, 0.5, seed=seed),
    "evaluate_model": lambda s, seed: sympflow.evaluate_model(None, s, (-1, 1), 0.5, n_samples=2, ks=(1,), seed=seed),
    "sample_collocation": lambda s, seed: sympflow.train.sample_collocation((-1, 1), 0.5, 4, seed),
}


@pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_seed_must_be_a_nonnegative_integer(call, seed):
    with pytest.raises(DimensionError, match="seed"):
        call(sympflow.Sho(), seed)


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_counts_and_steps_raise_dimension_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning on the way fails the test
        with pytest.raises(DimensionError):
            call(MODELS["sympflow"](), sympflow.Sho())


@pytest.mark.parametrize("d, L, h, seed", [(1, 1, 1, 0), (1, 3, 10, 1), (2, 2, 5, 7), (3, 4, 2, 2024)])
def test_both_kinds_draw_the_init_law(d, L, h, seed):
    sf = model.random_sympflow(d, L, np.random.default_rng(seed), h=h)
    baseline = mlp.random_mlp_flow(d, L, np.random.default_rng(seed), hidden=h)
    rng = np.random.default_rng(seed)
    want = [pair for _ in range(2 * L) for pair in init_law((d + 1, h, h, 1), rng)]
    want += init_law([2 * d + 1] + [h] * (L - 1) + [2 * d], np.random.default_rng(seed))
    got = [pair for layer in sf.layers for net in layer for pair in net.weights] + list(baseline.weights)
    assert len(got) == len(want)
    for (A, b), (want_A, want_b) in zip(got, want):
        assert np.array_equal(A, want_A) and np.array_equal(b, want_b)


def _narrow(A):
    return A[:, :-1]


def _with_nan(A):
    A = A.copy()
    A[0, 0] = np.nan
    return A


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_narrow, r"affine map 1 expects A \(4, 4\) / b \(4,\), got \(4, 3\) / \(4,\)"),
        (_with_nan, "affine map 1 contains non-finite entries"),
    ],
    ids=["shape", "nan"],
)
def test_a_net_checks_the_shape_and_finiteness_of_each_map(kind, corrupt, match):
    rng = np.random.default_rng(3)
    if kind == "sympflow":
        net = pot.random_potential_net(1, rng, h=4)
    else:
        net = mlp.random_mlp_flow(1, 3, rng, hidden=4)
    (A0, b0), (A1, b1), last = net.weights
    with pytest.raises(DimensionError, match=match):
        dataclasses.replace(net, weights=((A0, b0), (corrupt(A1), b1), last))


# Each entry that takes a system, given a callable in its place.
ONE_POINT = (np.zeros(1), np.ones((1, 2)))
NOT_A_SYSTEM = {
    "generate_dataset": lambda m, f: sympflow.generate_dataset(f, (-1, 1), 2, 2, 0.5),
    "evaluate_model": lambda m, f: sympflow.evaluate_model(m, f, (-1, 1), 0.5, n_samples=2, ks=(1,)),
    "energy_drift_series": lambda m, f: sympflow.energy_drift_series(m, f, [0.5, 0.0], 1.0, 0.5, 0.5),
    "train": lambda m, f: sympflow.train.train(
        m, sympflow.TrainConfig(regime="residual_only", epochs=1, batch_collocation=4), sys=f
    ),
    "total_loss": lambda m, f: sympflow.total_loss(m, "residual_only", sys=f, residual_batch=ONE_POINT),
    "loss_and_grad": lambda m, f: sympflow.train.loss_and_grad(m, "residual_only", sys=f, residual_batch=ONE_POINT),
}


@pytest.mark.parametrize("call", NOT_A_SYSTEM.values(), ids=NOT_A_SYSTEM.keys())
def test_a_callable_is_not_a_system_at_any_entry(call):
    with pytest.raises(UnsupportedSystemError, match="HamiltonianSystem"):
        call(MODELS["sympflow"](), lambda t, y: -y)
