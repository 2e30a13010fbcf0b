"""Losses, their exact parameter gradients, Adam, and the training regimes.

Four loss terms: ``supervised``, the mean squared error of the flow map
against observed samples; ``residual``, of d/dt psi = J grad H(psi) at
collocation points; ``matching``, the SympFlow model's extracted Hamiltonian
against the energy; and ``energy_reg``, the MLP's drift of the energy along
the map.  The regimes are ``residual_only``, ``regularized`` (the residual
plus the kind's second term: matching for SympFlow, energy_reg for the MLP),
``mixed`` (a regularized phase, then a residual fine-tune) and
``supervised``.

Each term is one function on the kernels that :mod:`sympflow.model` and
:mod:`sympflow.mlp` share: ``_forward_b(m, t, x)``; ``_taped(m, t, x,
velocity)``, which returns ``(x_out, v, tape)``; and ``_pullback(m, t, tape,
wx, wv)``, which returns ``(gx, gtheta)``.  A term pulls its exact parameter
gradient, when asked for it, back through the tape of its own forward pass.
:func:`_kind` is the one place that reads the model kind, and :func:`_loss`
the one path behind :func:`loss_and_grad`, :func:`total_loss` and the
``loss_*`` functions.  Every derivative is exact, and every gradient is
checked against finite differences in the tests.

In a two-term phase (``regularized``, and ``mixed`` before its fine-tune)
:func:`train` computes the second term in one forked worker process while
this process computes the residual, wherever the machine has a CPU to spare
and the process may fork safely; the results are bitwise those of computing
both terms here.  See :func:`train`.
"""

from __future__ import annotations

import os
import pickle
import sys as _sys
import threading
import time as _time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import extraction, mlp, model as sfm
from .errors import ConfigError, DimensionError, TrainingDivergedError
from .integrate import TrajectoryDataset
from .systems import HamiltonianSystem
from .validation import as_box, as_phase_points, check_positive, check_positive_int, check_time

__all__ = [
    "TrainConfig",
    "TrainReport",
    "AdamState",
    "adam_step",
    "sample_collocation",
    "loss_supervised",
    "loss_residual",
    "loss_ham_match",
    "loss_energy_reg",
    "total_loss",
    "train",
    "build_model",
]

REGIMES = ("residual_only", "regularized", "mixed", "supervised")
MODEL_KINDS = ("sympflow", "mlp")


@dataclass
class TrainConfig:
    model_kind: str = "sympflow"
    regime: str = "regularized"
    epochs: int = 5000
    fine_tune_epochs: int = 0
    learning_rate: float = 1e-3
    batch_collocation: int = 1024
    batch_matching: int = 1024
    delta_t: float = 1.0
    omega: tuple = (-1.2, 1.2)
    seed: int = 0
    derivative_mode: str = "exact"  # the only mode; the key stays so configs may name it
    layers: int = 3
    hidden: int = 10
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model_kind must be one of {MODEL_KINDS}")
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}")
        if self.derivative_mode != "exact":
            raise ConfigError(
                f"derivative_mode must be 'exact' (mode 'fd' was removed), got {self.derivative_mode!r}"
            )
        try:
            for name in ("epochs", "fine_tune_epochs", "checkpoint_every", "seed"):
                check_positive_int(getattr(self, name), name, minimum=0)
            for name in ("batch_collocation", "batch_matching", "layers", "hidden"):
                check_positive_int(getattr(self, name), name)
            check_positive(self.learning_rate, "learning_rate")
            check_positive(self.delta_t, "delta_t")
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        try:
            box = np.asarray(self.omega, dtype=float)
            as_box(box, box.shape[0] if box.ndim == 2 else 1)
        except ValueError as exc:
            raise ConfigError(f"omega: {exc}") from exc


@dataclass
class TrainReport:
    loss_history: dict = field(default_factory=dict)
    epochs_run: int = 0
    wall_clock_s: float = 0.0
    seed: int = 0
    final_loss: float = float("nan")
    second_term_worker: bool = False  # the regime's second term ran in a forked worker
    second_term_wait_s: float = 0.0  # time the loop spent waiting for the worker's results

    def record(self, **components):
        for key, val in components.items():
            self.loss_history.setdefault(key, []).append(float(val))


def build_model(config: TrainConfig, d: int):
    """Seeded model construction matching the configured kind and size."""
    rng = np.random.default_rng(config.seed)
    if config.model_kind == "sympflow":
        return sfm.random_sympflow(d, config.layers, rng, h=config.hidden)
    return mlp.random_mlp_flow(d, config.layers, rng, hidden=config.hidden)


# ---------------------------------------------------------------------------
# Collocation sampling.
# ---------------------------------------------------------------------------


def _draw_collocation(rng, box, delta_t, n):
    t = rng.uniform(0.0, delta_t, size=n)
    x = rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))
    return t, x


def sample_collocation(omega, delta_t: float, n: int, seed: int, dim: int | None = None):
    """Uniform i.i.d. (t, x) pairs in [0, delta_t] x box, reproducible from seed."""
    n = check_positive_int(n, "n")
    delta_t = check_positive(delta_t, "delta_t")
    omega = np.asarray(omega, dtype=float)
    if dim is None:
        dim = omega.shape[0] if omega.ndim == 2 else 2
    box = as_box(omega, dim)
    return _draw_collocation(np.random.default_rng(seed), box, delta_t, n)


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Textbook Adam update with bias correction; returns (params, state)."""
    if params.shape != grads.shape:
        raise DimensionError("params and grads must have matching shapes")
    t = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m, v, t)


# ---------------------------------------------------------------------------
# Loss terms: each returns (value, flat parameter gradient or None).
# ---------------------------------------------------------------------------


def _kind(model_obj):
    """(kernel module, second term's name, second term), looked up per call."""
    return {
        "sympflow": (sfm, "matching", _matching),
        "mlp": (mlp, "energy_reg", _energy_reg),
    }[model_obj.kind]


def _batch(model_obj, points, what):
    t, x = points
    x, _ = as_phase_points(x, 2 * model_obj.d)
    if x.shape[0] == 0:
        raise DimensionError(f"empty {what} batch")
    return check_time(t, x.shape[0]), x


def _supervised(model_obj, samples, need_grad):
    t, x0 = _batch(model_obj, samples[:2], "supervised")
    k = _kind(model_obj)[0]
    pred, _, tape = k._taped(model_obj, t, x0)
    resid = pred - samples[2]
    value = float(np.mean(np.sum(resid**2, axis=1)))
    if not need_grad:
        return value, None
    return value, k._pullback(model_obj, t, tape, (2.0 / len(x0)) * resid)[1]


def _residual(model_obj, points, sys, need_grad):
    t, x = _batch(model_obj, points, "collocation")
    k = _kind(model_obj)[0]
    x_out, v, tape = k._taped(model_obj, t, x, velocity=True)
    resid = v - sys.vector_field(x_out)
    value = float(np.mean(np.sum(resid**2, axis=1)))
    if not need_grad:
        return value, None
    wv = (2.0 / len(x)) * resid
    # x_out enters through -J grad H(x_out)
    wx = -np.einsum("bij,bi->bj", sys.vector_field_jacobian(x_out), wv)
    return value, k._pullback(model_obj, t, tape, wx, wv)[1]


def _matching(model_obj, points, sys, need_grad):
    t, x = _batch(model_obj, points, "matching")
    vals, tape = extraction._extract_tape(model_obj, t, x)
    err = vals - sys.hamiltonian(x)
    value = float(np.mean(err**2))
    if not need_grad:
        return value, None
    return value, extraction._extract_pullback(model_obj, t, tape, (2.0 / len(x)) * err)[1]


def _energy_reg(model_obj, points, sys, need_grad):
    t, x = _batch(model_obj, points, "matching")
    k = _kind(model_obj)[0]
    pred, _, tape = k._taped(model_obj, t, x)
    err = sys.hamiltonian(pred) - sys.hamiltonian(x)
    value = float(np.mean(err**2))
    if not need_grad:
        return value, None
    w = (2.0 / len(x)) * err[:, None] * sys.gradient(pred)
    return value, k._pullback(model_obj, t, tape, w)[1]


def _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, need_grad, worker=None):
    """``(value, flat gradient or None, parts)`` of a regime; samples are ``(t, x0, y)``.

    With a :class:`_Worker` the second term of a two-term regime runs there,
    on its batch handed over before the residual and collected after it; the
    sum is the same, in the same order.
    """
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {regime!r}")
    if regime == "supervised":
        if samples is None:
            raise ConfigError("the supervised loss needs a dataset")
        value, g = _supervised(model_obj, samples, need_grad)
        return value, g, {"supervised": value}
    if sys is None or residual_batch is None:
        raise ConfigError(f"the {regime} loss needs a system and a residual batch")
    two_term = regime in ("regularized", "mixed")
    if two_term:
        _, name, term = _kind(model_obj)
        batch = residual_batch if matching_batch is None else matching_batch
        if worker is not None:
            worker.submit(batch)
    value, g = _residual(model_obj, residual_batch, sys, need_grad)
    parts = {"residual": value}
    if two_term:
        parts[name], g2 = term(model_obj, batch, sys, need_grad) if worker is None else worker.result()
        value += parts[name]
        if need_grad:
            g = g + g2
    return value, g, parts


def _samples(dataset):
    return None if dataset is None else (dataset.sample_t, dataset.x0_per_sample, dataset.sample_y)


def loss_and_grad(
    model_obj,
    regime: str,
    sys: HamiltonianSystem | None = None,
    dataset: TrajectoryDataset | None = None,
    residual_batch=None,
    matching_batch=None,
):
    """Total loss with its exact parameter gradient; returns (value, grad, parts).

    An unknown regime, or a missing dataset, system or batch, raises
    :class:`ConfigError`.  The matching batch defaults to the residual batch.
    """
    samples = _samples(dataset)
    return _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, True)


def total_loss(
    model_obj,
    regime: str,
    sys: HamiltonianSystem | None = None,
    dataset: TrajectoryDataset | None = None,
    residual_batch=None,
    matching_batch=None,
) -> float:
    """The value of :func:`loss_and_grad`, without the gradient."""
    samples = _samples(dataset)
    return _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, False)[0]


def loss_supervised(model_obj, dataset: TrajectoryDataset) -> float:
    """Mean squared error of the flow map against the observed samples."""
    return total_loss(model_obj, "supervised", dataset=dataset)


def loss_residual(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared residual of d/dt psi - J grad H(psi) over (t_i, x_i)."""
    return total_loss(model_obj, "residual_only", sys=sys, residual_batch=points)


def loss_ham_match(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared mismatch between the extracted Hamiltonian and H."""
    if _kind(model_obj)[1] != "matching":
        raise ConfigError("Hamiltonian matching is defined only for sympflow models")
    return _matching(model_obj, points, sys, False)[0]


def loss_energy_reg(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared drift of the target energy along the map (MLP term)."""
    return _energy_reg(model_obj, points, sys, False)[0]


# ---------------------------------------------------------------------------
# The second term in a forked worker.
# ---------------------------------------------------------------------------

_GO = b"\x01"  # the one byte each way per epoch: "start on the batch", "done"
_JOIN_S = 1.0  # how long a closing or dead worker is waited for before it is killed


def _can_fork_worker() -> bool:
    """At least 2 usable CPUs, this process's only thread, and the ``fork`` start method off macOS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # A fork can deadlock with a second thread, and macOS's system libraries start threads.
    if cpus < 2 or threading.active_count() > 1 or _sys.platform == "darwin":
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _pickled(exc) -> bytes:
    """``exc`` with the worker's traceback as a note, or a RuntimeError naming it if it does not unpickle."""
    if hasattr(exc, "add_note"):
        exc.add_note("raised in the second-term worker:\n" + traceback.format_exc())
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


class _Worker:
    """One forked process that computes a two-term regime's second term, epoch by epoch.

    The parameter vector (:attr:`params`), the term's batch of ``rows``
    points and the result slot lie in one anonymous shared mapping made
    before the fork, so the worker's model, whose weights are views of
    :attr:`params`, sees every in-place write the parent makes, and the
    pipe carries one byte each way per epoch.  The mapping is unmapped when
    its last view goes; closing it sooner would raise ``BufferError``.
    """

    def __init__(self, model_obj, sys, rows: int):
        import mmap
        import multiprocessing
        from multiprocessing.connection import wait

        k, _, term = _kind(model_obj)
        n, width = k.param_count(model_obj), 2 * model_obj.d
        # params | t | x | value | gradient
        buf = np.frombuffer(mmap.mmap(-1, 8 * (2 * n + 1 + rows * (1 + width))), dtype=float)
        self.params, self._t, x, self._value, self._grad = np.split(
            buf, np.cumsum([n, rows, rows * width, 1])
        )
        self._x = x.reshape(rows, width)
        self.params[:] = k.params_to_vector(model_obj)
        self.wait_s = 0.0
        self._wait = wait
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        args = (child, term, k._model_over(model_obj, self.params), sys)
        self._proc = ctx.Process(target=self._serve, args=args, daemon=True)
        self._proc.start()
        child.close()

    def _serve(self, conn, term, model_obj, sys):
        """The worker's loop: on each byte, ``term`` at the shared batch into the result slot."""
        self._conn.close()  # the parent's end: left open here, closing it there would not end the loop
        try:
            while conn.recv_bytes() == _GO:
                try:
                    self._value[0], self._grad[:] = term(model_obj, (self._t, self._x), sys, True)
                    reply = _GO
                except Exception as exc:  # the parent raises it again
                    reply = _pickled(exc)
                conn.send_bytes(reply)
        except (EOFError, BrokenPipeError):
            pass  # the parent closed its end

    def submit(self, batch):
        """Hand the worker the batch ``(t, x)``; it starts on it at once."""
        self._t[:], self._x[:] = batch
        try:
            self._conn.send_bytes(_GO)
        except BrokenPipeError:
            raise self._died() from None

    def result(self):
        """``(value, gradient)`` of the batch submitted last; the gradient is a view of the slot."""
        start = _time.perf_counter()
        self._wait([self._conn, self._proc.sentinel])
        try:
            reply = self._conn.recv_bytes() if self._conn.poll() else b""
        except EOFError:
            reply = b""
        self.wait_s += _time.perf_counter() - start
        if reply == _GO:
            return float(self._value[0]), self._grad
        if not reply:
            raise self._died()
        raise pickle.loads(reply)  # pickled by _serve in this call's own worker

    def _died(self):
        self._proc.join(_JOIN_S)
        return RuntimeError(f"the second-term worker died with exit code {self._proc.exitcode}")

    def close(self):
        """End the worker: it exits on the closed pipe, or is terminated, then killed."""
        self._conn.close()
        self._proc.join(_JOIN_S)
        if self._proc.exitcode is None:
            self._proc.terminate()
            self._proc.join(_JOIN_S)
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()
        self._proc.close()


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------


def train(
    model_obj,
    config: TrainConfig,
    sys: HamiltonianSystem | None = None,
    dataset: TrajectoryDataset | None = None,
    checkpoint_fn=None,
):
    """Run the configured regime; returns (trained model, report).

    Unsupervised regimes draw fresh collocation batches every epoch from the
    configured box; the supervised regime draws uniform minibatches of size
    ``batch_collocation`` (full batch when the dataset is smaller).  The
    mixed regime runs ``epochs`` with the matching term, then
    ``fine_tune_epochs`` with the residual term alone.  Deterministic under
    the config seed.  Raises :class:`ConfigError` when the model's kind is
    not ``config.model_kind``, and :class:`TrainingDivergedError`, carrying
    the report of the epochs completed, on a non-finite loss, gradient or
    updated parameter vector.

    The parameters live in one flat buffer owned by this call.  The working
    model is built once, with weights that are views of the buffer (the
    kind's ``_model_over``), and each :func:`adam_step` is written into the
    buffer, so no model is rebuilt or revalidated per epoch; the check of
    the updated vector stands in for the finiteness checks a rebuild made.
    The working model never leaves this function: ``checkpoint_fn(epoch,
    model)`` and the return value each get a fresh ``model_with_params``
    copy, which later epochs leave untouched.

    In a two-term phase the second term (``matching`` for SympFlow,
    ``energy_reg`` for the MLP) runs in one worker process forked at the
    start of the call, while this process computes the residual.  The worker
    is used when the phase runs at least 2 epochs, since a worker costs
    about 13 ms per call, more than one epoch saves (at the benchmark's
    sizes a 1-epoch call took 28.3 ms with it and 23.8 ms without, a 2-epoch
    call 57.0 and 63.6 ms); and when the process has at least 2 CPUs in its
    affinity mask (``os.cpu_count()`` where there is none), runs no Python
    thread but this one, since forking a threaded process can deadlock, has
    the ``fork`` start method and is not on macOS.  Otherwise, and in every
    other regime, the term runs in this process.  The parameter buffer, the
    term's batch and its result slot share one anonymous mapping made before
    the fork, so the worker's model sees each Adam write in place, and the
    pipe carries one byte each way per epoch.  The worker evaluates the same
    function on the same bits as this process would, and :func:`_loss` adds
    its value and gradient in the same order, so the loss history and the
    parameters are bitwise those of the in-process path.  An exception in
    the worker is raised here with its own type; a worker that dies raises
    ``RuntimeError`` with its exit code.  The worker is joined, and
    terminated if it does not exit within a second, before this call returns
    or raises.  The report records whether the worker ran
    (``second_term_worker``) and how long this process waited for its
    results (``second_term_wait_s``).
    """
    if model_obj.kind != config.model_kind:
        raise ConfigError(
            f"config.model_kind is {config.model_kind!r} but the model is a {model_obj.kind} model"
        )
    if config.regime == "supervised":
        if dataset is None:
            raise ConfigError("supervised training needs a dataset")
    elif sys is None:
        raise ConfigError("unsupervised training needs a system")

    k = _kind(model_obj)[0]
    rng = np.random.default_rng(config.seed)
    report = TrainReport(seed=config.seed)
    start = _time.perf_counter()
    worker = None
    if config.regime in ("regularized", "mixed") and config.epochs >= 2 and _can_fork_worker():
        worker = _Worker(model_obj, sys, config.batch_matching)
    report.second_term_worker = worker is not None
    params = k.params_to_vector(model_obj) if worker is None else worker.params
    current = k._model_over(model_obj, params)
    state = AdamState.zeros(params.size)
    box = as_box(config.omega, 2 * model_obj.d) if sys is not None else None
    samples = _samples(dataset)
    stacked = None
    if config.regime == "supervised" and config.batch_collocation < len(samples[0]):
        # Rows [t, x0, y]: one fancy index per epoch gathers a minibatch.
        stacked = np.column_stack(samples)
        cut = 1 + samples[1].shape[1]

    def diverged(what):
        report.wall_clock_s = _time.perf_counter() - start
        return TrainingDivergedError(f"non-finite {what} at epoch {report.epochs_run}", report)

    phases = [(config.regime, config.epochs)]
    if config.regime == "mixed":
        phases.append(("residual_only", config.fine_tune_epochs))

    try:
        for phase_regime, n_epochs in phases:
            for _ in range(n_epochs):
                batch = residual_batch = matching_batch = None
                if phase_regime == "supervised":
                    batch = samples
                    if stacked is not None:
                        rows = stacked[rng.integers(0, len(stacked), size=config.batch_collocation)]
                        batch = (rows[:, 0], rows[:, 1:cut], rows[:, cut:])
                else:
                    residual_batch = _draw_collocation(
                        rng, box, config.delta_t, config.batch_collocation
                    )
                    if phase_regime in ("regularized", "mixed"):
                        matching_batch = _draw_collocation(
                            rng, box, config.delta_t, config.batch_matching
                        )
                value, grad, parts = _loss(
                    current,
                    phase_regime,
                    sys,
                    batch,
                    residual_batch,
                    matching_batch,
                    True,
                    worker,
                )
                if not np.isfinite(value) or not np.all(np.isfinite(grad)):
                    raise diverged("loss")
                new_params, state = adam_step(params, grad, state, lr=config.learning_rate)
                if not np.all(np.isfinite(new_params)):
                    raise diverged("parameters")
                params[:] = new_params
                report.record(total=value, **parts)
                report.epochs_run += 1
                if (
                    checkpoint_fn is not None
                    and config.checkpoint_every > 0
                    and report.epochs_run % config.checkpoint_every == 0
                ):
                    checkpoint_fn(report.epochs_run, k.model_with_params(model_obj, params))
    finally:
        if worker is not None:
            worker.close()
            report.second_term_wait_s = worker.wait_s

    report.wall_clock_s = _time.perf_counter() - start
    if report.loss_history.get("total"):
        report.final_loss = report.loss_history["total"][-1]
    return k.model_with_params(model_obj, params), report
