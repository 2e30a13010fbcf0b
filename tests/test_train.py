"""Losses, their gradients against finite differences, Adam, and the loop."""

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from sympflow import mlp
from sympflow import model as sfm
from sympflow import potential as pot
from sympflow import train as tr
from sympflow.errors import ConfigError, DimensionError, TrainingDivergedError
from sympflow.integrate import TrajectoryDataset, generate_dataset
from sympflow.systems import HenonHeiles, Sho

from _oracles import assert_close, train_rebuilding, weight_arrays


def tiny_sympflow(seed=0, d=1):
    return sfm.random_sympflow(d, 1, np.random.default_rng(seed), h=3)


def tiny_mlp(seed=0, d=1):
    return mlp.random_mlp_flow(d, 2, np.random.default_rng(seed), hidden=4)


def residual_loss(model_obj, batch, sys):
    return tr.total_loss(model_obj, "residual_only", sys=sys, residual_batch=batch)


def regularized_parts(model_obj, batch, sys):
    """The parts of the regularized loss, with the matching batch the residual batch."""
    return tr.loss_and_grad(model_obj, "regularized", sys=sys, residual_batch=batch)[2]


def make_dataset(n=4, m=3, seed=2):
    rng = np.random.default_rng(seed)
    ics = rng.uniform(-1, 1, size=(n, 2))
    traj = np.repeat(np.arange(n), m)
    t = rng.uniform(0, 1, size=n * m)
    y = rng.uniform(-1, 1, size=(n * m, 2))
    return TrajectoryDataset(ics, traj, t, y, delta_t=1.0)


# ---------------------------------------------------------------------------
# Loss values.
# ---------------------------------------------------------------------------


def test_supervised_loss_zero_when_interpolating():
    model = sfm.zero_sympflow(1, 1)
    ics = np.array([[0.3, -0.4], [0.1, 0.9]])
    ds = TrajectoryDataset(
        ics, np.array([0, 1]), np.array([0.2, 0.7]), ics.copy(), delta_t=1.0
    )
    assert tr.loss_supervised(model, ds) == 0.0  # identity model, targets = x0


def test_supervised_loss_single_residual():
    # one sample with residual (0.3, -0.4): loss = 0.09 + 0.16 = 0.25
    model = sfm.zero_sympflow(1, 1)
    x0 = np.array([[0.5, 0.5]])
    y = x0 - np.array([[0.3, -0.4]])
    ds = TrajectoryDataset(x0, np.array([0]), np.array([0.4]), y, delta_t=1.0)
    assert tr.loss_supervised(model, ds) == pytest.approx(0.25, rel=1e-15)


def test_supervised_loss_matches_resummation():
    model = tiny_sympflow(3)
    ds = make_dataset()
    total = 0.0
    for i in range(ds.n_samples):
        pred = sfm.forward(model, ds.sample_t[i], ds.x0_per_sample[i])
        total += np.sum((pred - ds.sample_y[i]) ** 2)
    assert tr.loss_supervised(model, ds) == pytest.approx(total / ds.n_samples, rel=1e-13)


def test_supervised_loss_empty_dataset_rejected():
    with pytest.raises(DimensionError, match="needs a trajectory and a sample, got 1 and 0"):
        TrajectoryDataset(np.zeros((1, 2)), np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 2)), 1.0)
    with pytest.raises(DimensionError, match="empty supervised batch"):
        tr.loss_supervised(tiny_sympflow(), _dataset_of(np.zeros(0), np.zeros((0, 2))))


def test_residual_loss_zero_weight_model_on_sho():
    # identity model with zero velocity: per-point residual is |J grad H|^2
    model = sfm.zero_sympflow(1, 1)
    batch = (np.array([0.3]), np.array([[1.0, 0.0]]))
    assert residual_loss(model, batch, Sho()) == pytest.approx(1.0, rel=1e-14)


def test_residual_loss_zero_for_trivial_system():
    class ZeroField(Sho):
        def _vector_field(self, x):
            return np.zeros_like(x)

        def _vf_jacobian(self, x):
            return np.zeros((x.shape[0], 2, 2))

    model = sfm.zero_sympflow(1, 2)
    batch = (np.array([0.5, 0.8]), np.array([[0.4, 0.1], [0.2, 0.2]]))
    assert residual_loss(model, batch, ZeroField()) == 0.0


def test_residual_loss_empty_batch_rejected():
    with pytest.raises(DimensionError):
        residual_loss(tiny_sympflow(), (np.zeros(0), np.zeros((0, 2))), Sho())


def test_ham_match_zero_weight_on_sho():
    model = sfm.zero_sympflow(1, 2)
    batch = (np.array([0.3]), np.array([[1.0, 0.0]]))
    assert regularized_parts(model, batch, Sho())["matching"] == pytest.approx(0.25, rel=1e-14)


def test_energy_reg_zero_at_t0():
    model = tiny_mlp(5)
    batch = (np.zeros(3), np.random.default_rng(0).uniform(-1, 1, (3, 2)))
    assert regularized_parts(model, batch, Sho())["energy_reg"] == 0.0


def test_total_loss_dispatch():
    model = tiny_sympflow(7)
    batch_r = (np.array([0.2, 0.6]), np.array([[0.4, 0.1], [0.3, -0.2]]))
    batch_m = (np.array([0.5]), np.array([[0.7, 0.2]]))
    s = Sho()
    kwargs = dict(sys=s, residual_batch=batch_r, matching_batch=batch_m)
    for model_obj, second in ((model, "matching"), (tiny_mlp(8), "energy_reg")):
        value, _, parts = tr.loss_and_grad(model_obj, "regularized", **kwargs)
        assert set(parts) == {"residual", second}
        assert tr.total_loss(model_obj, "regularized", **kwargs) == value == parts["residual"] + parts[second]
        assert residual_loss(model_obj, batch_r, s) == parts["residual"]
    ds = make_dataset()
    assert tr.total_loss(model, "supervised", dataset=ds) == tr.loss_supervised(model, ds)


@pytest.mark.parametrize("factory", [tiny_sympflow, tiny_mlp])
@pytest.mark.parametrize("fn", [tr.total_loss, tr.loss_and_grad])
@pytest.mark.parametrize(
    "bad",
    [
        {"regime": "bogus"},
        {"regime": "supervised", "dataset": None},
        {"sys": None},
        {"residual_batch": None},
    ],
    ids=["regime", "no-dataset", "no-system", "no-batch"],
)
def test_bad_loss_arguments_raise_config_error(factory, fn, bad):
    batch = (np.array([0.2, 0.6]), np.array([[0.4, 0.1], [0.3, -0.2]]))
    kwargs = {"regime": "regularized", "sys": Sho(), "residual_batch": batch, **bad}
    with pytest.raises(ConfigError):
        fn(factory(), **kwargs)


GOOD_BATCH = (np.array([0.2, 0.6]), np.array([[0.4, 0.1], [0.3, -0.2]]))
BAD_BATCHES = {
    "nonfinite-time": ((np.array([0.2, np.nan]), GOOD_BATCH[1]), "t must be finite"),
    "nonfinite-state": ((GOOD_BATCH[0], np.array([[0.4, np.inf], [0.3, -0.2]])), "non-finite"),
    "wrong-width": ((GOOD_BATCH[0], np.ones((2, 4))), r"shape \(2,\) or \(B, 2\)"),
    "t-shape": ((np.zeros(3), GOOD_BATCH[1]), r"t must be scalar or shape \(2,\)"),
    "empty": ((np.zeros(0), np.zeros((0, 2))), "empty {what} batch"),
}


def _dataset_of(t, x):
    """A dataset whose samples are ``(t, x, x)``, its fields set past the constructor's checks."""
    ds = make_dataset()
    ds.ics, ds.sample_traj, ds.sample_t, ds.sample_y = x, np.arange(len(x)), t, x
    return ds


# Each public loss entry, given a bad batch in one of the places it takes one.
LOSS_ENTRIES = {
    f"{fn.__name__}-{where}": (call, what)
    for fn in (tr.loss_and_grad, tr.total_loss)
    for where, what, call in (
        ("residual", "collocation", lambda b, fn=fn: fn(tiny_sympflow(), "residual_only", sys=Sho(), residual_batch=b)),
        (
            "matching",
            "matching",
            lambda b, fn=fn: fn(tiny_mlp(), "regularized", sys=Sho(), residual_batch=GOOD_BATCH, matching_batch=b),
        ),
        ("dataset", "supervised", lambda b, fn=fn: fn(tiny_sympflow(), "supervised", dataset=_dataset_of(*b))),
    )
}
LOSS_ENTRIES["loss_supervised"] = (lambda b: tr.loss_supervised(tiny_mlp(), _dataset_of(*b)), "supervised")


@pytest.mark.parametrize("bad", sorted(BAD_BATCHES))
@pytest.mark.parametrize("entry", sorted(LOSS_ENTRIES))
def test_loss_entries_reject_a_bad_batch_with_dimension_error(entry, bad):
    call, what = LOSS_ENTRIES[entry]
    batch, match = BAD_BATCHES[bad]
    with pytest.raises(DimensionError, match=match.format(what=what)):
        call(batch)


def test_unknown_derivative_mode_raises_config_error():
    assert tr.TrainConfig(derivative_mode="exact").derivative_mode == "exact"
    for mode in ("fd", "central"):
        with pytest.raises(ConfigError, match="mode 'fd' was removed"):
            tr.TrainConfig(derivative_mode=mode)


# ---------------------------------------------------------------------------
# Gradients against central finite differences (tiny models).
# ---------------------------------------------------------------------------


def _fd_param_grad(model_obj, loss_fn, step=1e-6):
    kernels = {"sympflow": sfm, "mlp": mlp}[model_obj.kind]
    theta = kernels.params_to_vector(model_obj)

    def rebuild(v):
        return kernels.model_with_params(model_obj, v)

    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        g[i] = (loss_fn(rebuild(theta + e)) - loss_fn(rebuild(theta - e))) / (2 * step)
    return g


def _batches(seed=4, d=1, n=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 1.0, size=n), rng.uniform(-1, 1, size=(n, 2 * d))


def test_residual_grad_sympflow_fd():
    model = tiny_sympflow(11)
    t, x = _batches()
    s = Sho()
    _, got, _ = tr.loss_and_grad(model, "residual_only", sys=s, residual_batch=(t, x))
    want = _fd_param_grad(model, lambda m: residual_loss(m, (t, x), s))
    assert_close(got, want, rtol=1e-3, floor=1e-7, label="residual grad")


def test_residual_grad_sympflow_two_layers_d2():
    model = sfm.random_sympflow(2, 2, np.random.default_rng(13), h=3)
    t, x = _batches(seed=6, d=2)
    s = HenonHeiles()
    _, got, _ = tr.loss_and_grad(model, "residual_only", sys=s, residual_batch=(t, x))
    want = _fd_param_grad(model, lambda m: residual_loss(m, (t, x), s))
    assert_close(got, want, rtol=1e-3, floor=1e-7, label="residual grad d=2")


def test_residual_grad_mlp_fd():
    model = tiny_mlp(12)
    t, x = _batches(seed=5)
    s = Sho()
    _, got, _ = tr.loss_and_grad(model, "residual_only", sys=s, residual_batch=(t, x))
    want = _fd_param_grad(model, lambda m: residual_loss(m, (t, x), s))
    assert_close(got, want, rtol=1e-3, floor=1e-7, label="mlp residual grad")


def test_ham_match_grad_fd():
    model = tiny_sympflow(14)
    t, x = _batches(seed=7)
    s = Sho()
    _, got, _ = tr.loss_and_grad(
        model, "regularized", sys=s, residual_batch=(t, x), matching_batch=(t, x)
    )
    want = _fd_param_grad(model, lambda m: tr.total_loss(m, "regularized", sys=s, residual_batch=(t, x)))
    assert_close(got, want, rtol=1e-3, floor=1e-7, label="regularized grad")


def test_energy_reg_grad_fd():
    model = tiny_mlp(15)
    t, x = _batches(seed=8)
    s = Sho()
    _, got, _ = tr.loss_and_grad(
        model, "regularized", sys=s, residual_batch=(t, x), matching_batch=(t, x)
    )
    want = _fd_param_grad(model, lambda m: tr.total_loss(m, "regularized", sys=s, residual_batch=(t, x)))
    assert_close(got, want, rtol=1e-3, floor=1e-7, label="mlp regularized grad")


@pytest.mark.parametrize("factory", [tiny_sympflow, tiny_mlp])
def test_supervised_grad_fd(factory):
    model = factory(16)
    ds = make_dataset(seed=9)
    _, got, _ = tr.loss_and_grad(model, "supervised", dataset=ds)
    want = _fd_param_grad(model, lambda m: tr.loss_supervised(m, ds))
    assert_close(got, want, rtol=1e-3, floor=1e-7, label="supervised grad")


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    new, state = tr.adam_step(params, np.zeros(2), tr.AdamState.zeros(2), lr=0.1)
    assert np.array_equal(new, params)
    # nonzero moments decay geometrically under further zero gradients
    state = tr.AdamState(m=np.array([0.5, 0.5]), v=np.array([0.2, 0.2]), step=3)
    _, state2 = tr.adam_step(params, np.zeros(2), state, lr=0.1)
    assert np.all(state2.m < state.m) and np.all(state2.v < state.v)


def test_adam_first_step_is_lr():
    params = np.array([0.0])
    new, _ = tr.adam_step(params, np.array([1.0]), tr.AdamState.zeros(1), lr=0.05)
    assert new[0] == pytest.approx(-0.05, rel=1e-7)


def test_adam_rejects_mismatched_shapes():
    with pytest.raises(DimensionError, match="matching shapes"):
        tr.adam_step(np.zeros(2), np.zeros(3), tr.AdamState.zeros(2))


def test_adam_converges_on_quadratic():
    theta = np.array([1.0])
    state = tr.AdamState.zeros(1)
    for _ in range(100):
        theta, state = tr.adam_step(theta, 2.0 * theta, state, lr=0.1)
    assert abs(theta[0]) < 0.05


# ---------------------------------------------------------------------------
# Collocation sampling.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_collocation": 0},
        {"batch_matching": 0},
        {"omega": (1.0, -1.0)},
        {"omega": [(-1.0, 1.0), (0.5, 0.5)]},
        {"omega": (0.0, float("nan"))},
        {"omega": (0.0, 1.0, 2.0)},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"delta_t": float("nan")},
        {"delta_t": float("inf")},
        {"epochs": 2.5},
        {"epochs": True},
        {"fine_tune_epochs": -1},
        {"batch_collocation": 8.5},
        {"batch_matching": 8.0},
        {"layers": 2.5},
        {"hidden": "10"},
        {"checkpoint_every": -3},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": True},
        {"model_kind": "bogus"},
        {"regime": "bogus"},
    ],
)
def test_config_rejects_bad_batches_and_box(kwargs):
    with pytest.raises(ConfigError):
        tr.TrainConfig(**kwargs)


def test_collocation_deterministic():
    a = tr.sample_collocation([-1.2, 1.2], 1.0, 64, seed=5)
    b = tr.sample_collocation([-1.2, 1.2], 1.0, 64, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_collocation_bounds_and_mean():
    t, x = tr.sample_collocation([[-1.0, 2.0], [0.0, 4.0]], 0.5, 10_000, seed=6)
    assert np.all((t >= 0) & (t <= 0.5))
    assert np.all((x[:, 0] >= -1.0) & (x[:, 0] <= 2.0))
    assert np.all((x[:, 1] >= 0.0) & (x[:, 1] <= 4.0))
    # empirical mean within 3 sigma of the box centre
    for col, (lo, hi) in zip(x.T, [(-1.0, 2.0), (0.0, 4.0)]):
        sigma = (hi - lo) / np.sqrt(12 * len(col))
        assert abs(col.mean() - (lo + hi) / 2) < 3 * sigma


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------


def test_train_zero_epochs_returns_unchanged():
    model = tiny_sympflow(20)
    cfg = tr.TrainConfig(regime="residual_only", epochs=0, batch_collocation=4)
    trained, report = tr.train(model, cfg, sys=Sho())
    assert np.array_equal(sfm.params_to_vector(trained), sfm.params_to_vector(model))
    assert report.epochs_run == 0
    assert report.loss_history == {}


@pytest.mark.parametrize(
    "model, kind",
    [(tiny_mlp(21), "sympflow"), (tiny_sympflow(21), "mlp")],
    ids=["mlp-as-sympflow", "sympflow-as-mlp"],
)
def test_train_rejects_a_model_of_another_kind(model, kind):
    cfg = tr.TrainConfig(model_kind=kind, regime="residual_only", epochs=2, batch_collocation=4)
    with pytest.raises(ConfigError, match="model_kind"):
        tr.train(model, cfg, sys=Sho())


class _FixedStep:
    """A model of a kind the package does not have."""

    kind = "fixed_step"
    d = 1


def _train_fixed_step():
    cfg = tr.TrainConfig(regime="residual_only", epochs=1, batch_collocation=4)
    cfg.model_kind = "fixed_step"  # past the config's own check, so that the model's kind is looked up
    tr.train(_FixedStep(), cfg, sys=Sho())


UNKNOWN_KIND_ENTRIES = {
    "_kind": lambda: tr._kind("fixed_step"),
    "loss_and_grad": lambda: tr.loss_and_grad(
        _FixedStep(), "residual_only", sys=Sho(), residual_batch=(np.zeros(2), np.zeros((2, 2)))
    ),
    "total_loss": lambda: tr.total_loss(_FixedStep(), "supervised", dataset=make_dataset()),
    "train": _train_fixed_step,
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_KIND_ENTRIES))
def test_an_unknown_model_kind_raises_config_error_naming_the_kinds(entry):
    with pytest.raises(ConfigError, match=r"model kind must be one of \('sympflow', 'mlp'\), got 'fixed_step'"):
        UNKNOWN_KIND_ENTRIES[entry]()


@pytest.mark.parametrize("regime, match", [("supervised", "needs a dataset"), ("residual_only", "needs a system")])
def test_train_rejects_a_run_without_its_data(regime, match):
    cfg = tr.TrainConfig(regime=regime, epochs=2, batch_collocation=4)
    with pytest.raises(ConfigError, match=match):
        tr.train(tiny_sympflow(22), cfg)


def test_train_deterministic_under_seed():
    cfg = tr.TrainConfig(
        regime="regularized", epochs=5, batch_collocation=8, batch_matching=8, seed=33,
        layers=1, hidden=3,
    )
    outs = []
    for _ in range(2):
        model = tr.build_model(cfg, d=1)
        trained, _ = tr.train(model, cfg, sys=Sho())
        outs.append(sfm.params_to_vector(trained))
    assert np.array_equal(outs[0], outs[1])


def test_train_supervised_desk_scale_converges():
    sys = Sho()
    ds = generate_dataset(sys, [-1.2, 1.2], 20, 10, 1.0, noise_std=0.0, seed=1)
    cfg = tr.TrainConfig(
        model_kind="sympflow",
        regime="supervised",
        epochs=2000,
        learning_rate=3e-3,
        batch_collocation=200,
        seed=2,
        layers=2,
    )
    model = tr.build_model(cfg, d=1)
    trained, report = tr.train(model, cfg, sys=sys, dataset=ds)
    assert report.final_loss < 1e-3
    assert len(report.loss_history["total"]) == 2000


def test_train_mixed_regime_phases():
    cfg = tr.TrainConfig(
        regime="mixed", epochs=3, fine_tune_epochs=2, batch_collocation=4,
        batch_matching=4, layers=1, hidden=3, seed=1,
    )
    model = tr.build_model(cfg, d=1)
    _, report = tr.train(model, cfg, sys=Sho())
    assert report.epochs_run == 5
    assert len(report.loss_history["matching"]) == 3  # matching only in phase one
    assert len(report.loss_history["residual"]) == 5


# ---------------------------------------------------------------------------
# The loop over one parameter buffer: same numbers as a rebuild per epoch,
# divergence caught on the parameter vector, no working model escapes.
# ---------------------------------------------------------------------------

KERNELS = {"sympflow": sfm, "mlp": mlp}

LOOP_CASES = {
    "supervised-full-batch": dict(regime="supervised", batch_collocation=16),
    "supervised-minibatch": dict(regime="supervised", batch_collocation=5),
    "regularized": dict(regime="regularized", batch_collocation=6, batch_matching=5),
    "mixed-fine-tune": dict(
        regime="mixed", epochs=3, fine_tune_epochs=2, batch_collocation=6, batch_matching=5
    ),
    "residual-only": dict(regime="residual_only", batch_collocation=6),
    # supervised_mlp_sho's shape: 64-row minibatches of a 20 x 8 SHO dataset.
    "supervised-benchmark-shape": dict(regime="supervised", layers=3, hidden=10, batch_collocation=64, epochs=200),
}


def _loop_config(kind, **kwargs):
    base = dict(model_kind=kind, epochs=4, learning_rate=1e-2, layers=2, hidden=3, seed=7)
    return tr.TrainConfig(**{**base, **kwargs})


def _loop_data(case):
    """The keyword arguments of :func:`train` that give a loop case its system or dataset."""
    if case == "supervised-benchmark-shape":
        return dict(dataset=generate_dataset(Sho(), [-1.2, 1.2], 20, 8, 1.0, seed=1))
    return dict(dataset=make_dataset()) if LOOP_CASES[case]["regime"] == "supervised" else dict(sys=Sho())


TWO_TERM_CASES = ("regularized", "mixed-fine-tune")

# The second term runs in a forked worker wherever this process may fork one.
FORKS = tr._can_fork_worker()
needs_worker = pytest.mark.skipif(not FORKS, reason="this process may not fork a worker (see train._can_fork_worker)")


@pytest.fixture
def worker_starts(monkeypatch):
    """The arguments of every second-term worker started during the test."""
    starts = []

    class Spied(tr._Worker):
        def __init__(self, *args):
            starts.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tr, "_Worker", Spied)
    return starts


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_train_matches_the_rebuilding_loop_bitwise(kind, case, worker_starts):
    cfg = _loop_config(kind, **LOOP_CASES[case])
    model = tr.build_model(cfg, d=1)
    data = _loop_data(case)
    want_params, want_history = train_rebuilding(model, cfg, **data)
    trained, report = tr.train(model, cfg, **data)
    assert report.loss_history == want_history
    assert np.array_equal(KERNELS[kind].params_to_vector(trained), want_params)
    assert not np.array_equal(want_params, KERNELS[kind].params_to_vector(model))
    in_worker = FORKS and case in TWO_TERM_CASES
    assert len(worker_starts) == in_worker
    assert report.second_term_worker == in_worker
    assert (report.second_term_wait_s > 0) == in_worker
    assert (report.second_term_busy_s > 0) == in_worker


@pytest.mark.parametrize("case", TWO_TERM_CASES)
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_a_one_epoch_two_term_phase_runs_in_process(kind, case, worker_starts):
    # A worker costs more than one epoch saves, so a 1-epoch phase keeps
    # the second term here, with the same bits.
    cfg = _loop_config(kind, **{**LOOP_CASES[case], "epochs": 1})
    model = tr.build_model(cfg, d=1)
    want_params, want_history = train_rebuilding(model, cfg, sys=Sho())
    trained, report = tr.train(model, cfg, sys=Sho())
    assert worker_starts == []
    assert not report.second_term_worker and report.second_term_wait_s == 0.0
    assert report.second_term_busy_s == 0.0
    assert report.loss_history == want_history
    assert np.array_equal(KERNELS[kind].params_to_vector(trained), want_params)


def test_worker_selection_rule(monkeypatch):
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tr.threading, "active_count", lambda: 1)
    import multiprocessing

    has_fork = "fork" in multiprocessing.get_all_start_methods() and sys.platform != "darwin"
    assert tr._can_fork_worker() == has_fork
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not tr._can_fork_worker()
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tr.threading, "active_count", lambda: 2)
    assert not tr._can_fork_worker()


@needs_worker
@pytest.mark.parametrize("why", ["one-cpu", "second-thread"])
@pytest.mark.parametrize("case", TWO_TERM_CASES)
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_the_in_process_path_gives_the_worker_bits(kind, case, why, worker_starts, monkeypatch):
    cfg = _loop_config(kind, **LOOP_CASES[case])
    model = tr.build_model(cfg, d=1)
    forked, forked_report = tr.train(model, cfg, sys=Sho())
    assert len(worker_starts) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    if why == "one-cpu":
        monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(tr.os, "cpu_count", lambda: 1)
    else:
        other.start()
    try:
        local, local_report = tr.train(model, cfg, sys=Sho())
    finally:
        release.set()
        if other.is_alive():
            other.join(10.0)
    assert not other.is_alive()
    assert len(worker_starts) == 1
    assert not local_report.second_term_worker and local_report.second_term_wait_s == 0.0
    assert local_report.second_term_busy_s == 0.0
    assert local_report.loss_history == forked_report.loss_history
    k = KERNELS[kind]
    assert np.array_equal(k.params_to_vector(local), k.params_to_vector(forked))


BENCHMARK_SHAPE = dict(layers=3, hidden=10, omega=((-0.5, 0.5),) * 4, batch_collocation=24, batch_matching=16)


@needs_worker
@pytest.mark.parametrize(
    "case", [dict(regime="regularized"), dict(regime="mixed", epochs=3, fine_tune_epochs=2)], ids=["regularized", "mixed"]
)
def test_the_worker_gives_the_in_process_bits_at_the_benchmark_shape(case, worker_starts, monkeypatch):
    # Hénon-Heiles at the benchmark's d = 2, L = 3, h = 10; every shear of the
    # residual's pullback but the first one pulled back hands its time-0
    # sweep to the worker, in the fine-tune too.
    cfg = _loop_config("sympflow", **BENCHMARK_SHAPE, **case)
    model = tr.build_model(cfg, d=2)
    sweeps = []
    sweep = tr._Worker.sweep
    monkeypatch.setattr(tr._Worker, "sweep", lambda self, *args: sweeps.append(1) or sweep(self, *args))
    forked, forked_report = tr.train(model, cfg, sys=HenonHeiles())
    assert len(worker_starts) == 1 and len(sweeps) == 5 * forked_report.epochs_run
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(tr.os, "cpu_count", lambda: 1)
    local, local_report = tr.train(model, cfg, sys=HenonHeiles())
    assert len(worker_starts) == 1 and len(sweeps) == 5 * forked_report.epochs_run
    assert local_report.loss_history == forked_report.loss_history
    assert np.array_equal(sfm.params_to_vector(local), sfm.params_to_vector(forked))


def _in_worker_only(effect):
    """A second term that runs ``effect`` in a forked worker and fails the test in this process."""
    parent = os.getpid()

    def term(*args):
        if os.getpid() == parent:
            raise AssertionError("the second term ran in the training process")
        effect()

    return term


@needs_worker
@pytest.mark.parametrize("kind, term", [("sympflow", "_matching"), ("mlp", "_energy_reg")])
def test_an_exception_in_the_worker_reaches_the_caller_with_its_type(kind, term, monkeypatch):
    def bad_batch():
        raise DimensionError("bad matching batch")

    monkeypatch.setattr(tr, term, _in_worker_only(bad_batch))
    cfg = _loop_config(kind, **LOOP_CASES["regularized"])
    with pytest.raises(DimensionError, match="bad matching batch"):
        tr.train(tr.build_model(cfg, d=1), cfg, sys=Sho())


@needs_worker
def test_a_dead_worker_raises_runtime_error_at_once(monkeypatch):
    monkeypatch.setattr(tr, "_matching", _in_worker_only(lambda: os._exit(3)))
    cfg = _loop_config("sympflow", **LOOP_CASES["regularized"])
    model = tr.build_model(cfg, d=1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="exit code 3") as info:
        tr.train(model, cfg, sys=Sho())
    assert time.perf_counter() - start < 1.0
    assert type(info.value) is RuntimeError


def _time0_sweep_in_worker_only(effect):
    """``pot.jet_vjp`` that runs ``effect`` first on a residual's time-0 sweep in a forked worker.

    The matching term's pullback sweeps at time 0 too, but without a
    cotangent on the tangent term (``b``); the residual's carries one.
    """
    parent, jet_vjp = os.getpid(), pot.jet_vjp

    def sweep(net, t, y, a=None, b=None, c=None):
        if os.getpid() != parent and np.ndim(t) == 0 and t == 0.0 and b[0] is not None:
            effect()
        return jet_vjp(net, t, y, a, b, c)

    return sweep


@needs_worker
def test_an_exception_in_a_time0_sweep_reaches_the_caller_with_its_type(monkeypatch):
    def bad_sweep():
        raise DimensionError("bad time-0 sweep")

    monkeypatch.setattr(pot, "jet_vjp", _time0_sweep_in_worker_only(bad_sweep))
    cfg = _loop_config("sympflow", **LOOP_CASES["regularized"])
    with pytest.raises(DimensionError, match="bad time-0 sweep"):
        tr.train(tr.build_model(cfg, d=1), cfg, sys=Sho())


@needs_worker
def test_a_worker_that_dies_in_a_time0_sweep_raises_runtime_error_at_once(monkeypatch):
    monkeypatch.setattr(pot, "jet_vjp", _time0_sweep_in_worker_only(lambda: os._exit(5)))
    cfg = _loop_config("sympflow", **LOOP_CASES["regularized"])
    model = tr.build_model(cfg, d=1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="exit code 5") as info:
        tr.train(model, cfg, sys=Sho())
    assert time.perf_counter() - start < 1.0
    assert type(info.value) is RuntimeError


@needs_worker
def test_a_worker_that_dies_with_a_job_unread_raises_runtime_error(monkeypatch):
    # The term outlasts the residual's forward pass, so a time-0 sweep is
    # queued unread when the worker exits; the pipe is then reset, not closed.
    monkeypatch.setattr(tr, "_matching", _in_worker_only(lambda: time.sleep(0.2) or os._exit(4)))
    cfg = _loop_config("sympflow", **LOOP_CASES["regularized"])
    with pytest.raises(RuntimeError, match="exit code 4") as info:
        tr.train(tr.build_model(cfg, d=1), cfg, sys=Sho())
    assert type(info.value) is RuntimeError


@needs_worker
def test_the_worker_and_its_mapping_go_when_train_returns(monkeypatch):
    # No reference cycle: both go without a garbage collection.
    refs = []

    class Watched(tr._Worker):
        def __init__(self, *args):
            super().__init__(*args)
            refs.extend([weakref.ref(self), weakref.ref(self.params)])

    monkeypatch.setattr(tr, "_Worker", Watched)
    cfg = _loop_config("sympflow", **LOOP_CASES["mixed-fine-tune"])
    gc.disable()
    try:
        tr.train(tr.build_model(cfg, d=1), cfg, sys=Sho())
        assert len(refs) == 2 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_overflowing_adam_step_raises_training_diverged(kind):
    ds = generate_dataset(Sho(), [-1.2, 1.2], 4, 3, 1.0, seed=1)
    cfg = _loop_config(
        kind, regime="supervised", epochs=5, learning_rate=1e308, batch_collocation=64
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as info:
            tr.train(tr.build_model(cfg, d=1), cfg, dataset=ds)
    report = info.value.report
    assert 0 < report.epochs_run < 5
    assert len(report.loss_history["total"]) == report.epochs_run


def _diverge_at_epoch_2(kind, regime, monkeypatch):
    """The report of a run whose third Adam step writes a NaN."""
    step = tr.adam_step

    def poisoned(params, grads, state, **kwargs):
        new, state = step(params, grads, state, **kwargs)
        if state.step == 3:
            new[-1] = np.nan
        return new, state

    monkeypatch.setattr(tr, "adam_step", poisoned)
    cfg = _loop_config(kind, regime=regime, epochs=5, batch_collocation=4, batch_matching=4)
    with pytest.raises(TrainingDivergedError, match="non-finite parameters at epoch 2") as info:
        tr.train(tr.build_model(cfg, d=1), cfg, sys=Sho())
    report = info.value.report
    assert report.epochs_run == 2
    assert len(report.loss_history["total"]) == 2
    assert report.wall_clock_s > 0
    return report


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_nonfinite_parameters_raise_training_diverged_with_the_partial_report(kind, monkeypatch):
    report = _diverge_at_epoch_2(kind, "residual_only", monkeypatch)
    assert not report.second_term_worker


@needs_worker
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_training_diverged_in_the_worker_path_carries_the_partial_report(kind, monkeypatch):
    report = _diverge_at_epoch_2(kind, "regularized", monkeypatch)
    assert report.second_term_worker and report.second_term_wait_s > 0
    assert len(report.loss_history[{"sympflow": "matching", "mlp": "energy_reg"}[kind]]) == 2


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_train_calls_adam_step_through_the_module_once_per_epoch(kind, monkeypatch):
    # The benchmark tracer times Adam by wrapping ``train.adam_step``.
    calls = []
    step = tr.adam_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(tr, "adam_step", counted)
    cfg = _loop_config(kind, **LOOP_CASES["mixed-fine-tune"])
    _, report = tr.train(tr.build_model(cfg, d=1), cfg, sys=Sho())
    assert len(calls) == report.epochs_run == 5


@pytest.mark.parametrize("case", ["supervised-minibatch", "supervised-full-batch", "residual-only"])
def test_train_checks_its_inputs_once_per_call_not_per_epoch(case, monkeypatch):
    calls = []
    for name in ("as_phase_points", "check_time"):
        check = getattr(tr, name)
        monkeypatch.setattr(tr, name, lambda *a, _check=check, _name=name, **k: calls.append(_name) or _check(*a, **k))
    counts = []
    for epochs in (1, 40):
        calls.clear()
        cfg = _loop_config("mlp", **{**LOOP_CASES[case], "epochs": epochs})
        _, report = tr.train(tr.build_model(cfg, d=1), cfg, **_loop_data(case))
        assert report.epochs_run == epochs
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    # The dataset is checked; a collocation batch is drawn from the checked box.
    assert counts[0] == (["as_phase_points", "check_time"] if case.startswith("supervised") else [])


@pytest.mark.parametrize("batch", [5, 64], ids=["minibatch", "full-batch"])
def test_supervised_train_rejects_a_dataset_of_another_width_before_its_first_epoch(batch, monkeypatch):
    steps = []
    monkeypatch.setattr(tr, "adam_step", lambda *args, **kwargs: steps.append(1))
    cfg = _loop_config("mlp", regime="supervised", batch_collocation=batch)
    with pytest.raises(DimensionError, match=r"\(B, 4\)"):
        tr.train(tr.build_model(cfg, d=2), cfg, dataset=make_dataset())
    assert steps == []


BAD_TARGETS = {
    "width-3": (np.zeros((12, 3)), r"sample_y must have the shape \(12, 2\) of its states, got \(12, 3\)"),
    "nan": (np.full((12, 2), np.nan), "sample_y contains non-finite entries"),
}
SUPERVISED_ENTRIES = {
    "loss_supervised": lambda ds: tr.loss_supervised(tiny_mlp(), ds),
    "loss_and_grad": lambda ds: tr.loss_and_grad(tiny_sympflow(), "supervised", dataset=ds),
    "train": lambda ds: tr.train(
        tr.build_model(_loop_config("mlp", regime="supervised", batch_collocation=5), d=1),
        _loop_config("mlp", regime="supervised", batch_collocation=5),
        dataset=ds,
    ),
}


@pytest.mark.parametrize("bad", sorted(BAD_TARGETS))
@pytest.mark.parametrize("entry", sorted(SUPERVISED_ENTRIES))
def test_supervised_entries_check_targets_set_after_the_dataset_was_built(entry, bad, monkeypatch):
    # The dataset checks its fields when it is built; the entries check the
    # targets again, so a reassigned sample_y is named, not broadcast.
    steps = []
    monkeypatch.setattr(tr, "adam_step", lambda *args, **kwargs: steps.append(1))
    ds = make_dataset()
    ds.sample_y, match = BAD_TARGETS[bad]
    with pytest.raises(DimensionError, match=match):
        SUPERVISED_ENTRIES[entry](ds)
    assert steps == []


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_checkpoints_keep_their_parameters_and_share_no_memory(kind):
    k = KERNELS[kind]
    cfg = _loop_config(kind, checkpoint_every=1, **LOOP_CASES["regularized"])
    model = tr.build_model(cfg, d=1)
    initial = k.params_to_vector(model)
    seen = []

    def checkpoint(epoch, m):
        seen.append((m, k.params_to_vector(m)))

    trained, _ = tr.train(model, cfg, sys=Sho(), checkpoint_fn=checkpoint)
    assert len(seen) == cfg.epochs
    for m, at_call in seen:
        assert np.array_equal(k.params_to_vector(m), at_call)
    assert not np.array_equal(seen[0][1], seen[1][1])
    assert np.array_equal(seen[-1][1], k.params_to_vector(trained))
    assert np.array_equal(k.params_to_vector(model), initial)
    models = [model, trained] + [m for m, _ in seen]
    for i, a in enumerate(models):
        for b in models[i + 1 :]:
            pairs = ((x, y) for x in weight_arrays(a) for y in weight_arrays(b))
            assert not any(np.shares_memory(x, y) for x, y in pairs)


def test_exact_residual_loss_runs_the_shear_chain_once(monkeypatch):
    from sympflow import potential as pot

    model = sfm.random_sympflow(2, 3, np.random.default_rng(4), h=5)
    rng = np.random.default_rng(5)
    t, x = rng.uniform(0, 1, 16), rng.uniform(-0.5, 0.5, (16, 4))
    sys = HenonHeiles()
    x_out, v, _ = sfm._taped(model, t, x, velocity=True)
    resid = v - sys.vector_field(x_out)
    want = float(np.mean(np.sum(resid**2, axis=1)))
    sweeps = []
    chain_forward = pot.chain_forward

    def counted(*args, **kwargs):
        sweeps.append(1)
        return chain_forward(*args, **kwargs)

    monkeypatch.setattr(pot, "chain_forward", counted)
    got = residual_loss(model, (t, x), sys)
    # one sweep over [t; 0] per potential net: 2 nets per layer, 3 layers
    assert len(sweeps) == 6
    assert got == pytest.approx(want, rel=1e-12)
