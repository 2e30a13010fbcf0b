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
``loss_*`` functions.  Derivative mode ``fd`` takes the time derivative and
its pullback as central differences in t.  Every gradient is checked against
finite differences in the tests.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import extraction, mlp, model as sfm
from .errors import ConfigError, DimensionError, TrainingDivergedError
from .integrate import TrajectoryDataset
from .systems import HamiltonianSystem
from .validation import _central, as_box, as_phase_points, check_time

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
DERIVATIVE_MODES = ("exact", "fd")


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
    derivative_mode: str = "exact"
    layers: int = 3
    hidden: int = 10
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model_kind must be one of {MODEL_KINDS}")
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}")
        if self.epochs < 0 or self.fine_tune_epochs < 0:
            raise ConfigError("epoch counts must be nonnegative")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.delta_t <= 0:
            raise ConfigError("delta_t must be positive")
        if self.derivative_mode not in DERIVATIVE_MODES:
            raise ConfigError(f"derivative_mode must be one of {DERIVATIVE_MODES}")
        if self.layers < 1 or self.hidden < 1:
            raise ConfigError("layers and hidden must be positive")
        if self.batch_collocation < 1 or self.batch_matching < 1:
            raise ConfigError("batch_collocation and batch_matching must be positive")
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
    if n < 1:
        raise DimensionError("need at least one collocation point")
    if delta_t <= 0:
        raise DimensionError("delta_t must be positive")
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

FD_STEP = 1e-4  # time step of the central differences of derivative mode "fd"


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


def _residual(model_obj, points, sys, mode, need_grad):
    t, x = _batch(model_obj, points, "collocation")
    k = _kind(model_obj)[0]
    exact = mode == "exact"
    if exact:
        x_out, v, tape = k._taped(model_obj, t, x, velocity=True)
    else:
        v = _central(lambda s: k._forward_b(model_obj, s, x), t, FD_STEP)
        x_out, _, tape = k._taped(model_obj, t, x)
    resid = v - sys.vector_field(x_out)
    value = float(np.mean(np.sum(resid**2, axis=1)))
    if not need_grad:
        return value, None
    wv = (2.0 / len(x)) * resid
    # x_out enters through -J grad H(x_out)
    wx = -np.einsum("bij,bi->bj", sys.vector_field_jacobian(x_out), wv)
    # The tape goes first: an MLP tape lasts only until the next sweep.
    g = k._pullback(model_obj, t, tape, wx, wv if exact else None)[1]
    if exact:
        return value, g

    def vjp(s):
        return k._pullback(model_obj, s, k._taped(model_obj, s, x)[2], wv)[1]

    return value, _central(vjp, t, FD_STEP) + g


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


def _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, mode, need_grad):
    """``(value, flat gradient or None, parts)`` of a regime; samples are ``(t, x0, y)``."""
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {regime!r}")
    if mode not in DERIVATIVE_MODES:
        raise ConfigError(f"derivative mode must be one of {DERIVATIVE_MODES}, got {mode!r}")
    if regime == "supervised":
        if samples is None:
            raise ConfigError("the supervised loss needs a dataset")
        value, g = _supervised(model_obj, samples, need_grad)
        return value, g, {"supervised": value}
    if sys is None or residual_batch is None:
        raise ConfigError(f"the {regime} loss needs a system and a residual batch")
    value, g = _residual(model_obj, residual_batch, sys, mode, need_grad)
    parts = {"residual": value}
    if regime in ("regularized", "mixed"):
        _, name, term = _kind(model_obj)
        batch = residual_batch if matching_batch is None else matching_batch
        parts[name], g2 = term(model_obj, batch, sys, need_grad)
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
    mode: str = "exact",
):
    """Total loss with its exact parameter gradient; returns (value, grad, parts).

    An unknown regime or mode, or a missing dataset, system or batch, raises
    :class:`ConfigError`.  The matching batch defaults to the residual batch.
    """
    samples = _samples(dataset)
    return _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, mode, True)


def total_loss(
    model_obj,
    regime: str,
    sys: HamiltonianSystem | None = None,
    dataset: TrajectoryDataset | None = None,
    residual_batch=None,
    matching_batch=None,
    mode: str = "exact",
) -> float:
    """The value of :func:`loss_and_grad`, without the gradient."""
    samples = _samples(dataset)
    return _loss(model_obj, regime, sys, samples, residual_batch, matching_batch, mode, False)[0]


def loss_supervised(model_obj, dataset: TrajectoryDataset) -> float:
    """Mean squared error of the flow map against the observed samples."""
    return total_loss(model_obj, "supervised", dataset=dataset)


def loss_residual(model_obj, points, sys: HamiltonianSystem, mode: str = "exact") -> float:
    """Mean squared residual of d/dt psi - J grad H(psi) over (t_i, x_i)."""
    return total_loss(model_obj, "residual_only", sys=sys, residual_batch=points, mode=mode)


def loss_ham_match(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared mismatch between the extracted Hamiltonian and H."""
    if _kind(model_obj)[1] != "matching":
        raise ConfigError("Hamiltonian matching is defined only for sympflow models")
    return _matching(model_obj, points, sys, False)[0]


def loss_energy_reg(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared drift of the target energy along the map (MLP term)."""
    return _energy_reg(model_obj, points, sys, False)[0]


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
    params = k.params_to_vector(model_obj)
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
                config.derivative_mode,
                True,
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

    report.wall_clock_s = _time.perf_counter() - start
    if report.loss_history.get("total"):
        report.final_loss = report.loss_history["total"][-1]
    return k.model_with_params(model_obj, params), report
