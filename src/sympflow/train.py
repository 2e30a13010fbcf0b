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
gradient, when asked for it, back through the tape of its own forward pass;
the MLP's supervised term does so on the value-only program of
:func:`sympflow.mlp._bind` (``_bound_taped``, ``_bound_pullback``), which
:func:`train` binds once per call.
:func:`_kind` is the one place that reads the model kind, and :func:`_loss`
the one path behind :func:`loss_and_grad`, :func:`total_loss` and
:func:`loss_supervised`.  Every derivative is exact, and every gradient is
checked against finite differences in the tests.

The entries check their inputs once per call and the terms take checked
arrays.  :func:`loss_and_grad` and :func:`total_loss` pass the regime, the
system and each batch they read through :func:`_checked`; :func:`train`
checks its system, or its dataset, once before its first epoch, and draws
every collocation batch from a box it has checked.  Nothing below the
entries, the forked worker's term included, checks a batch again.

In a two-term phase (``regularized``, and ``mixed`` before its fine-tune)
:func:`train` starts one forked worker process, wherever the machine has a
CPU to spare and the process may fork safely.  Each epoch the worker
computes the second term, then the time-0 sweeps of the residual's
pullback, while this process computes the residual and the sweeps at t;
the fine-tune keeps the worker for the sweeps.  The results are bitwise
those of computing everything here.  See :func:`train`.
"""

from __future__ import annotations

import functools
import math
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
from .validation import as_box, as_float_array, as_phase_points, check_positive, check_positive_int, check_time

__all__ = [
    "TrainConfig",
    "TrainReport",
    "AdamState",
    "adam_step",
    "sample_collocation",
    "loss_supervised",
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
    """One run's record; the CLI writes every field but ``loss_history``, in this order, to train_report.json."""

    loss_history: dict = field(default_factory=dict)
    epochs_run: int = 0
    final_loss: float = float("nan")
    wall_clock_s: float = 0.0
    seed: int = 0
    second_term_worker: bool = False  # the regime's second term ran in a forked worker
    second_term_wait_s: float = 0.0  # time the loop spent waiting for the worker's results
    second_term_busy_s: float = 0.0  # time the worker spent computing its jobs

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
    seed = check_positive_int(seed, "seed", minimum=0)
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


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and its denominator's floor


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float = 1e-3):
    """Textbook Adam update with bias correction; returns (params, state)."""
    if params.shape != grads.shape:
        raise DimensionError("params and grads must have matching shapes")
    t = state.step + 1
    m = _BETA1 * state.m + (1.0 - _BETA1) * grads
    v = _BETA2 * state.v + (1.0 - _BETA2) * grads * grads
    m_hat = m / (1.0 - _BETA1**t)
    v_hat = v / (1.0 - _BETA2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + _EPS)
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
    """``points`` as ``(t, x, *y)``: x non-empty phase points, t a finite time, y finite targets of x's shape."""
    t, x, *y = points
    x, _ = as_phase_points(x, 2 * model_obj.d)
    if x.shape[0] == 0:
        raise DimensionError(f"empty {what} batch")
    y = [as_float_array(v, "sample_y") for v in y]
    if any(v.shape != x.shape for v in y):
        raise DimensionError(f"sample_y must have the shape {x.shape} of its states, got {y[0].shape}")
    return (check_time(t, x.shape[0]), x, *y)


def _mean_square(err):
    """``np.mean(np.sum(err**2, axis=1))``, or ``np.mean(err**2)`` of a vector: NumPy's arithmetic, not its wrappers."""
    sq = err**2 if err.ndim == 1 else np.add.reduce(err**2, axis=1)
    return float(np.add.reduce(sq) / len(sq))


def _supervised(model_obj, samples, need_grad, prog=None):
    """The term on the kind's kernels; a kind with ``_bind`` runs it on ``prog``, or on one bound here."""
    t, x0, y = samples
    k = _kind(model_obj)[0]
    m, taped, pullback = model_obj, k._taped, k._pullback
    if hasattr(k, "_bind"):
        m = k._bind(model_obj, len(x0)) if prog is None else prog
        taped, pullback = k._bound_taped, k._bound_pullback
    pred, _, tape = taped(m, t, x0)
    resid = pred - y
    value = _mean_square(resid)
    if not need_grad:
        return value, None
    return value, pullback(m, t, tape, (2.0 / len(x0)) * resid)[1]


def _residual(model_obj, points, sys, need_grad, job=None):
    t, x = points
    k = _kind(model_obj)[0]
    x_out, v, tape = k._taped(model_obj, t, x, velocity=True)
    resid = v - sys.vector_field(x_out)
    value = _mean_square(resid)
    if not need_grad:
        return value, None
    wv = (2.0 / len(x)) * resid
    # x_out enters through -J grad H(x_out)
    wx = -np.einsum("bij,bi->bj", sys.vector_field_jacobian(x_out), wv)
    return value, k._pullback(model_obj, t, tape, wx, wv, job)[1]


def _matching(model_obj, points, sys, need_grad):
    t, x = points
    vals, tape = extraction._extract_tape(model_obj, t, x)
    err = vals - sys.hamiltonian(x)
    value = _mean_square(err)
    if not need_grad:
        return value, None
    return value, extraction._extract_pullback(model_obj, t, tape, (2.0 / len(x)) * err)[1]


def _energy_reg(model_obj, points, sys, need_grad):
    t, x = points
    k = _kind(model_obj)[0]
    pred, _, tape = k._taped(model_obj, t, x)
    err = sys.hamiltonian(pred) - sys.hamiltonian(x)
    value = _mean_square(err)
    if not need_grad:
        return value, None
    w = (2.0 / len(x)) * err[:, None] * sys.gradient(pred)
    return value, k._pullback(model_obj, t, tape, w)[1]


def _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, need_grad, worker=None, prog=None):
    """``(value, flat gradient or None, parts)`` of a regime; samples are ``(t, x0, y)``.

    The inputs are those :func:`_checked` returns, or batches drawn from a
    checked box; nothing here checks them again.  ``prog`` is the MLP's
    value-only program for the supervised term (see :func:`train`); without
    one, the term binds its own for this call.  With a :class:`_Worker`
    the second term of a two-term regime runs there, on its batch handed
    over before the residual and collected after it, and so do the time-0
    sweeps of the residual's pullback that :func:`sympflow.model._pullback`
    hands to it; the sum is the same, in the same order.
    """
    if regime == "supervised":
        value, g = _supervised(model_obj, samples, need_grad, prog)
        return value, g, {"supervised": value}
    two_term = regime in ("regularized", "mixed")
    if two_term:
        _, name, term = _kind(model_obj)
        batch = residual_batch if matching_batch is None else matching_batch
        if worker is not None:
            worker.submit(batch)
    value, g = _residual(
        model_obj, residual_batch, sys, need_grad, None if worker is None else worker.sweep
    )
    parts = {"residual": value}
    if two_term:
        parts[name], g2 = term(model_obj, batch, sys, need_grad) if worker is None else worker.result()
        value += parts[name]
        if need_grad:
            g = g + g2
    return value, g, parts


def _samples(dataset):
    return None if dataset is None else (dataset.sample_t, dataset.x0_per_sample, dataset.sample_y)


def _checked(model_obj, regime, sys, dataset, residual_batch, matching_batch):
    """``(samples, residual batch, matching batch)`` for :func:`_loss`, each batch the regime reads checked once.

    Raises ConfigError for an unknown regime or a missing input, then
    UnsupportedSystemError for a system of another type, then DimensionError.
    """
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {regime!r}")
    if regime == "supervised":
        if dataset is None:
            raise ConfigError("the supervised loss needs a dataset")
        return _batch(model_obj, _samples(dataset), "supervised"), None, None
    if sys is None or residual_batch is None:
        raise ConfigError(f"the {regime} loss needs a system and a residual batch")
    HamiltonianSystem.check(sys)
    residual_batch = _batch(model_obj, residual_batch, "collocation")
    if regime != "residual_only" and matching_batch is not None:
        matching_batch = _batch(model_obj, matching_batch, "matching")
    return None, residual_batch, matching_batch


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
    :class:`ConfigError`, and a system that is not a
    :class:`HamiltonianSystem` :class:`UnsupportedSystemError`.  The
    matching batch defaults to the residual batch.
    """
    inputs = _checked(model_obj, regime, sys, dataset, residual_batch, matching_batch)
    return _loss(model_obj, regime, sys, *inputs, True)


def total_loss(
    model_obj,
    regime: str,
    sys: HamiltonianSystem | None = None,
    dataset: TrajectoryDataset | None = None,
    residual_batch=None,
    matching_batch=None,
) -> float:
    """The value of :func:`loss_and_grad`, without the gradient."""
    inputs = _checked(model_obj, regime, sys, dataset, residual_batch, matching_batch)
    return _loss(model_obj, regime, sys, *inputs, False)[0]


def loss_supervised(model_obj, dataset: TrajectoryDataset) -> float:
    """Mean squared error of the flow map against the observed samples."""
    return total_loss(model_obj, "supervised", dataset=dataset)


# ---------------------------------------------------------------------------
# The second term in a forked worker.
# ---------------------------------------------------------------------------

_TERM = b"t"  # job: the second term at the shared batch
_SWEEP = b"s"  # job: a time-0 sweep; 3 bytes for the heads present and the net's index follow
_GO = b"\x01"  # the reply of a job done
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
    """One forked process that runs an ordered queue of jobs for the training loop.

    Each epoch of a two-term phase queues the second term (:meth:`submit`),
    then the time-0 sweeps of the residual's pullback, one at a time
    (:meth:`sweep`); the worker runs them in that order and answers each
    with one message, which this process reads in the same order.  The
    parameter vector (:attr:`params`), the term's batch of ``rows`` points,
    a sweep's inputs of ``sweep_rows`` rows, the results and the worker's
    busy time lie in one anonymous shared mapping made before the fork, so
    the worker's model, whose weights are views of :attr:`params`, sees
    every in-place write the parent makes, and the pipe carries a few bytes
    per job.  The mapping is unmapped when its last view goes; closing it
    sooner would raise ``BufferError``.  Nothing the worker holds refers
    back to it, so it goes when :func:`train` returns.
    """

    def __init__(self, model_obj, sys, rows: int, sweep_rows: int):
        import mmap
        import multiprocessing
        from multiprocessing.connection import wait

        k, _, term = _kind(model_obj)
        n, d = k.param_count(model_obj), model_obj.d
        # params | busy | t | x | value | gradient | y, vy, wv, w | gy, gv, gtheta of a sweep
        sizes = [n, 1, rows, rows * 2 * d, 1, n] + [sweep_rows * d] * 4
        sizes += [sweep_rows * (d + 1)] * 2 + [n]
        buf = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=float)
        parts = np.split(buf, np.cumsum(sizes)[:-1])
        self.params, self._busy, self._t, x, self._value, self._grad = parts[:6]
        self._x = x.reshape(rows, 2 * d)
        self._in0 = [p.reshape(sweep_rows, d) for p in parts[6:10]]
        self._out0 = [p.reshape(sweep_rows, d + 1) for p in parts[10:12]] + [parts[12]]
        self.params[:] = k.params_to_vector(model_obj)
        self.wait_s = 0.0
        self._term_due = False  # the term's reply is unread
        self._wait = wait
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        args = (child, term, k._model_over(model_obj, self.params), sys)
        self._proc = ctx.Process(target=self._serve, args=args, daemon=True)
        self._proc.start()
        child.close()

    def _serve(self, conn, term, model_obj, sys):
        """The worker's loop: each job into its result slot, then one reply."""
        self._conn.close()  # the parent's end: left open here, closing it there would not end the loop
        try:
            while job := conn.recv_bytes():
                start = _time.perf_counter()
                try:
                    if job == _TERM:
                        batch = (self._t, self._x)
                        self._value[0], self._grad[:] = term(model_obj, batch, sys, True)
                    else:
                        self._sweep_here(model_obj, job[1:4], int.from_bytes(job[4:], "little"))
                    reply = _GO
                except Exception as exc:  # the parent raises it again
                    reply = _pickled(exc)
                self._busy[0] += _time.perf_counter() - start
                conn.send_bytes(reply)
        except (EOFError, ConnectionError):
            pass  # the parent closed its end

    def _sweep_here(self, model_obj, present, k):
        y, *heads = self._in0
        net = model_obj.layers[k // 2][k % 2]
        dirs = [(h if p else None, None) for h, p in zip(heads, present)]
        gy, gv, gth = sfm.pot.jet_vjp(net, 0.0, y, *dirs)
        self._out0[0][:] = gy
        if gv is not None:
            self._out0[1][:] = gv
        self._out0[2][: gth.size] = gth

    def _send(self, job: bytes):
        try:
            self._conn.send_bytes(job)
        except ConnectionError:
            raise self._died() from None

    def _next_reply(self):
        """Read the oldest unanswered job's reply; raise its exception, or RuntimeError on death."""
        start = _time.perf_counter()
        try:
            self._wait([self._conn, self._proc.sentinel])
            reply = self._conn.recv_bytes() if self._conn.poll() else b""
        except (EOFError, ConnectionError):  # a worker that dies with a job unread resets the pipe
            reply = b""
        self.wait_s += _time.perf_counter() - start
        if not reply:
            raise self._died()
        if reply != _GO:
            raise pickle.loads(reply)  # pickled by _serve in this call's own worker

    def _collect_term(self):
        if self._term_due:
            self._term_due = False
            self._next_reply()

    def submit(self, batch):
        """Queue the second term at the batch ``(t, x)``; the worker starts on it at once."""
        self._t[:], self._x[:] = batch
        self._send(_TERM)
        self._term_due = True

    def result(self):
        """``(value, gradient)`` of the batch submitted last; the gradient is a view of the slot."""
        self._collect_term()
        return float(self._value[0]), self._grad

    def sweep(self, k, net, y, *dirs):
        """Queue ``pot.jet_vjp(net, 0.0, y, *dirs)`` for the k-th net in canonical order.

        ``dirs`` are the three directions ``(head, None)`` of a time-0
        sweep.  Returns the callable that waits for its ``(gy, gv,
        gtheta)``, views of the result slots valid until the next sweep.
        """
        self._in0[0][:] = y
        for slot, (head, _) in zip(self._in0[1:], dirs):
            if head is not None:
                slot[:] = head
        present = bytes(head is not None for head, _ in dirs)
        self._send(_SWEEP + present + k.to_bytes(4, "little"))
        return functools.partial(self._collect_sweep, net.n_params)

    def _collect_sweep(self, n):
        self._collect_term()
        self._next_reply()
        gy, gv, gth = self._out0
        return gy, gv, gth[:n]  # gv is read only where the sweep has one

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
        self.busy_s = float(self._busy[0])  # the time the worker spent computing its jobs


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
    ``batch_collocation`` (full batch when the dataset is not larger).  The
    mixed regime runs ``epochs`` with the matching term, then
    ``fine_tune_epochs`` with the residual term alone.  Deterministic under
    the config seed.  Raises :class:`ConfigError` when the model's kind is
    not ``config.model_kind``, :class:`UnsupportedSystemError` when an
    unsupervised regime's system is not a :class:`HamiltonianSystem`, and
    :class:`TrainingDivergedError`, carrying
    the report of the epochs completed, on a non-finite loss, gradient or
    updated parameter vector.

    The parameters live in one flat buffer owned by this call.  The working
    model is built once, with weights that are views of the buffer (the
    kind's ``_model_over``), and each :func:`adam_step` is written into the
    buffer, so no model is rebuilt or revalidated per epoch; the check of
    the updated vector stands in for the finiteness checks a rebuild made.
    The working model never leaves this function: ``checkpoint_fn(epoch,
    model)`` and the return value each get a fresh ``model_with_params``
    copy, which later epochs leave untouched.  The dataset is checked once,
    before the first epoch.  A minibatch is gathered, rows ``[t, x0, y]``,
    into one buffer that this call allocates and drops when it returns.  Its
    ``(t, x0, y)`` are fixed views of it, and each epoch overwrites it, so
    they hold an epoch's rows only until its loss and gradient are computed;
    nothing keeps them longer.  Likewise the MLP's supervised term runs on one
    value-only program, bound to the working model before the first epoch,
    whose buffers and gradient slot belong to this call; nothing returned or
    handed to ``checkpoint_fn`` shares them.

    In a two-term phase the second term (``matching`` for SympFlow,
    ``energy_reg`` for the MLP) runs in one worker process forked at the
    start of the call, while this process computes the residual.  For a
    SympFlow model the worker then takes, in order, the time-0 sweep of each
    shear of the residual's pullback but the first one pulled back, while
    this process takes that shear's sweep at t; the mixed regime's fine-tune
    hands it the same sweeps.  The worker is used when the phase runs at
    least 2 epochs, since a worker costs about 13 ms per call, more than one
    epoch saves (at the benchmark's sizes a 1-epoch call took 28.3 ms with
    it and 23.8 ms without, a 2-epoch call 57.0 and 63.6 ms); and when the
    process has at least 2 CPUs in its affinity mask (``os.cpu_count()``
    where there is none), runs no Python thread but this one, since forking
    a threaded process can deadlock, has the ``fork`` start method and is
    not on macOS.  Otherwise, and in every other regime, the term runs in
    this process.  The parameter buffer, the term's batch and its result
    slot share one anonymous mapping made before the fork, so the worker's
    model sees each Adam write in place, and the pipe carries a few bytes
    each way per job.  The worker evaluates the same functions on the same
    bits as this process would, :func:`_loss` adds its value and gradient in
    the same order, and the pullback forms each difference of a sweep at t
    and one at 0 in the same order, so the loss history and the parameters
    are bitwise those of the in-process path.  An exception in the worker is
    raised here with its own type; a worker that dies raises
    ``RuntimeError`` with its exit code.  The worker is joined, and
    terminated if it does not exit within a second, before this call returns
    or raises.  The report records whether the worker ran
    (``second_term_worker``), how long this process waited for its results,
    the second term's and the time-0 sweeps' alike (``second_term_wait_s``),
    and how long the worker spent computing them (``second_term_busy_s``).
    """
    if model_obj.kind != config.model_kind:
        raise ConfigError(
            f"config.model_kind is {config.model_kind!r} but the model is a {model_obj.kind} model"
        )
    samples = None
    if config.regime == "supervised":
        if dataset is None:
            raise ConfigError("supervised training needs a dataset")
        samples = _batch(model_obj, _samples(dataset), "supervised")
    elif sys is None:
        raise ConfigError("unsupervised training needs a system")
    else:
        HamiltonianSystem.check(sys)

    k = _kind(model_obj)[0]
    rng = np.random.default_rng(config.seed)
    report = TrainReport(seed=config.seed)
    start = _time.perf_counter()
    worker = None
    if config.regime in ("regularized", "mixed") and config.epochs >= 2 and _can_fork_worker():
        worker = _Worker(model_obj, sys, config.batch_matching, config.batch_collocation)
    report.second_term_worker = worker is not None
    params = k.params_to_vector(model_obj) if worker is None else worker.params
    current = k._model_over(model_obj, params)
    state = AdamState.zeros(params.size)
    box = as_box(config.omega, 2 * model_obj.d) if sys is not None else None
    minibatch = None
    if samples is not None and config.batch_collocation < len(samples[0]):
        # Rows [t, x0, y]; each epoch gathers its rows into buf, which minibatch views.
        stacked = np.column_stack(samples)
        buf = np.empty((config.batch_collocation, stacked.shape[1]))
        cut = 1 + samples[1].shape[1]
        minibatch = (buf[:, 0], buf[:, 1:cut], buf[:, cut:])
    prog = None
    if samples is not None and hasattr(k, "_bind"):
        prog = k._bind(current, len((minibatch or samples)[1]))

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
                    if minibatch is not None:
                        idx = rng.integers(0, len(stacked), size=config.batch_collocation)
                        # The indices are in range, so "clip" changes no row; "raise" gathers via a copy.
                        stacked.take(idx, 0, buf, "clip")
                        batch = minibatch
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
                    prog,
                )
                if not math.isfinite(value) or not np.isfinite(grad).all():
                    raise diverged("loss")
                new_params, state = adam_step(params, grad, state, lr=config.learning_rate)
                if not np.isfinite(new_params).all():
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
            report.second_term_wait_s, report.second_term_busy_s = worker.wait_s, worker.busy_s

    report.wall_clock_s = _time.perf_counter() - start
    if report.loss_history.get("total"):
        report.final_loss = report.loss_history["total"][-1]
    return k.model_with_params(model_obj, params), report
