"""Package-level checks: submodules stay reachable as attributes of ``sympflow``,
and the two model kinds share one kernel protocol."""

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
from sympflow.errors import DimensionError

from _oracles import weight_arrays


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
    "avg_relative_error", "avg_energy_variation",
)


def test_every_exported_name_resolves_and_removed_names_are_gone():
    for info in pkgutil.iter_modules(sympflow.__path__):
        mod = importlib.import_module("sympflow." + info.name)
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == [], info.name
    for mod in (sympflow, sympflow.potential, sympflow.evaluate):
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
