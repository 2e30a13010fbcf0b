"""Losses, their exact parameter gradients, Adam, and the training regimes.

Four objectives are supported:

* supervised mean squared error between the flow map and observed samples,
* the residual of the governing equations d/dt psi = J grad H(psi) at
  collocation points,
* Hamiltonian matching: the model's extracted Hamiltonian against the target
  energy (flow models with shear layers only),
* energy regularisation for the baseline MLP: conservation of the target
  energy along the map.

Gradients are assembled by hand from the layer-level pullbacks; every term
is validated against central finite differences in the test suite.

For the shear-layer model each potential is swept once per time (t and 0)
in each pass.  The forward pass pushes the direction [v; 1] and pulls back
1 on the directional derivative; the jet is bilinear, so that one pullback
yields both grad V (the shear update) and Hess V v + d_t grad V (its time
derivative).  The backward pass reuses the per-shear states of the forward
pass, not its jets, and folds the cotangents on state and velocity into the
mixed output of one second-order sweep (see :mod:`sympflow._jet`).  The
regimes are: ``residual_only`` (residual loss), ``regularized`` (residual
plus matching/energy term), ``mixed`` (regularized phase then a residual
fine-tune), and ``supervised``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import extraction, mlp, model as sfm
from .errors import ConfigError, DimensionError, TrainingDivergedError
from .integrate import TrajectoryDataset
from .model import SympFlowModel
from .mlp import MlpFlowModel
from .systems import HamiltonianSystem
from .validation import as_box

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
        if self.derivative_mode not in ("exact", "fd"):
            raise ConfigError("derivative_mode must be 'exact' or 'fd'")
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
# Loss values.
# ---------------------------------------------------------------------------


def _forward_any(model_obj, t, x):
    if isinstance(model_obj, SympFlowModel):
        return sfm._forward_b(model_obj, t, x)
    return mlp._forward_b(model_obj, t, x)


def _time_derivative_any(model_obj, t, x, mode):
    fn = sfm if isinstance(model_obj, SympFlowModel) else mlp
    if mode == "exact":
        return fn._time_derivative_b(model_obj, t, x)
    h = 1e-4
    return (fn._forward_b(model_obj, t + h, x) - fn._forward_b(model_obj, t - h, x)) / (2 * h)


def loss_supervised(model_obj, dataset: TrajectoryDataset) -> float:
    """Mean squared error of the flow map against the observed samples."""
    if dataset.n_samples == 0:
        raise DimensionError("dataset is empty")
    pred = _forward_any(model_obj, dataset.sample_t, dataset.x0_per_sample)
    return float(np.mean(np.sum((pred - dataset.sample_y) ** 2, axis=1)))


def loss_residual(model_obj, points, sys: HamiltonianSystem, mode: str = "exact") -> float:
    """Mean squared residual of d/dt psi - J grad H(psi) over (t_i, x_i)."""
    t, x = points
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if t.size == 0:
        raise DimensionError("empty collocation batch")
    if isinstance(model_obj, SympFlowModel) and mode == "exact":
        # The tangent chain carries the flow map along with its time derivative.
        x_out, v = sfm._chain_b(model_obj, t, x, np.zeros_like(x), 1.0)
    else:
        x_out = _forward_any(model_obj, t, x)
        v = _time_derivative_any(model_obj, t, x, mode)
    rhs = sys.vector_field(x_out)
    return float(np.mean(np.sum((v - rhs) ** 2, axis=1)))


def loss_ham_match(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared mismatch between the extracted Hamiltonian and H."""
    if not isinstance(model_obj, SympFlowModel):
        raise ConfigError("Hamiltonian matching is defined only for sympflow models")
    t, x = points
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if t.size == 0:
        raise DimensionError("empty matching batch")
    vals = extraction._extract_b(model_obj, t, x)
    return float(np.mean((vals - sys.hamiltonian(x)) ** 2))


def loss_energy_reg(model_obj, points, sys: HamiltonianSystem) -> float:
    """Mean squared drift of the target energy along the map (MLP term)."""
    t, x = points
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if t.size == 0:
        raise DimensionError("empty matching batch")
    pred = _forward_any(model_obj, t, x)
    return float(np.mean((sys.hamiltonian(pred) - sys.hamiltonian(x)) ** 2))


def total_loss(
    model_obj,
    regime: str,
    sys: HamiltonianSystem | None = None,
    dataset: TrajectoryDataset | None = None,
    residual_batch=None,
    matching_batch=None,
    mode: str = "exact",
) -> float:
    """Dispatch the configured regime to its constituent terms."""
    if regime == "supervised":
        return loss_supervised(model_obj, dataset)
    value = loss_residual(model_obj, residual_batch, sys, mode)
    if regime in ("regularized", "mixed"):
        batch = matching_batch if matching_batch is not None else residual_batch
        if isinstance(model_obj, SympFlowModel):
            value += loss_ham_match(model_obj, batch, sys)
        else:
            value += loss_energy_reg(model_obj, batch, sys)
    return value


# ---------------------------------------------------------------------------
# Gradients: shear-layer model.
# ---------------------------------------------------------------------------


def _sf_forward_vjp(model_obj, t, x, W):
    """Pullback of cotangents W through the flow map: ``(gx, gtheta_flat)``."""
    tape = []
    sfm._chain_b(model_obj, t, x, tape=tape)
    return sfm._chain_vjp(model_obj, t, tape, W)


# ---------------------------------------------------------------------------
# Loss gradients (value, flat gradient) per term.
# ---------------------------------------------------------------------------


def _grad_supervised(model_obj, dataset: TrajectoryDataset):
    t = dataset.sample_t
    x0 = dataset.x0_per_sample
    pred = _forward_any(model_obj, t, x0)
    resid = pred - dataset.sample_y
    value = float(np.mean(np.sum(resid**2, axis=1)))
    W = (2.0 / len(t)) * resid
    if isinstance(model_obj, SympFlowModel):
        _, g = _sf_forward_vjp(model_obj, t, x0, W)
    else:
        _, g = mlp.forward_vjp(model_obj, t, x0, W)
    return value, g


def _grad_residual(model_obj, points, sys, mode):
    t, x = points
    B = len(t)
    is_sf = isinstance(model_obj, SympFlowModel)
    h = 1e-4
    if is_sf:
        # The exact mode tapes the time-derivative chain, the fd mode the
        # flow map alone; either tape serves the pullback below.
        tape = []
        dt = 1.0 if mode == "exact" else None
        v0 = np.zeros_like(x) if mode == "exact" else None
        x_out, v_out = sfm._chain_b(model_obj, t, x, v0, dt, tape)
        if mode == "fd":
            v_out = (sfm._forward_b(model_obj, t + h, x) - sfm._forward_b(model_obj, t - h, x)) / (2 * h)
    else:
        x_out = mlp._forward_b(model_obj, t, x)
        v_out = _time_derivative_any(model_obj, t, x, mode)
    rhs = sys.vector_field(x_out)
    resid = v_out - rhs
    value = float(np.mean(np.sum(resid**2, axis=1)))
    Wv = (2.0 / B) * resid
    # x_out enters through -J grad H(x_out)
    jac = sys.vector_field_jacobian(x_out)
    Wx = -np.einsum("bij,bi->bj", jac, Wv)
    if is_sf:
        if mode == "exact":
            _, g = sfm._chain_vjp(model_obj, t, tape, Wx, Wv, dt)
        else:
            _, g_plus = _sf_forward_vjp(model_obj, t + h, x, Wv)
            _, g_minus = _sf_forward_vjp(model_obj, t - h, x, Wv)
            _, g_x = sfm._chain_vjp(model_obj, t, tape, Wx)
            g = (g_plus - g_minus) / (2 * h) + g_x
    else:
        if mode == "exact":
            _, g_v = mlp.time_derivative_vjp(model_obj, t, x, Wv)
        else:
            _, g_plus = mlp.forward_vjp(model_obj, t + h, x, Wv)
            _, g_minus = mlp.forward_vjp(model_obj, t - h, x, Wv)
            g_v = (g_plus - g_minus) / (2 * h)
        _, g_x = mlp.forward_vjp(model_obj, t, x, Wx)
        g = g_v + g_x
    return value, g


def _grad_ham_match(model_obj, points, sys):
    t, x = points
    vals, tape = extraction._extract_tape(model_obj, t, x)
    err = vals - sys.hamiltonian(x)
    value = float(np.mean(err**2))
    _, g = extraction._extract_pullback(model_obj, t, tape, (2.0 / len(t)) * err)
    return value, g


def _grad_energy_reg(model_obj, points, sys):
    t, x = points
    pred = mlp._forward_b(model_obj, t, x)
    err = sys.hamiltonian(pred) - sys.hamiltonian(x)
    value = float(np.mean(err**2))
    W = (2.0 / len(t)) * err[:, None] * sys.gradient(pred)
    _, g = mlp.forward_vjp(model_obj, t, x, W)
    return value, g


def loss_and_grad(
    model_obj,
    regime: str,
    sys=None,
    dataset=None,
    residual_batch=None,
    matching_batch=None,
    mode: str = "exact",
):
    """Total loss with its exact parameter gradient; returns (value, grad, parts)."""
    if regime == "supervised":
        value, g = _grad_supervised(model_obj, dataset)
        return value, g, {"supervised": value}
    value, g = _grad_residual(model_obj, residual_batch, sys, mode)
    parts = {"residual": value}
    if regime in ("regularized", "mixed"):
        batch = matching_batch if matching_batch is not None else residual_batch
        if isinstance(model_obj, SympFlowModel):
            v2, g2 = _grad_ham_match(model_obj, batch, sys)
            parts["matching"] = v2
        else:
            v2, g2 = _grad_energy_reg(model_obj, batch, sys)
            parts["energy_reg"] = v2
        value += v2
        g = g + g2
    return value, g, parts


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------


def _params_of(model_obj):
    if isinstance(model_obj, SympFlowModel):
        return sfm.params_to_vector(model_obj)
    return mlp.params_to_vector(model_obj)


def _with_params(model_obj, vec):
    if isinstance(model_obj, SympFlowModel):
        return sfm.model_with_params(model_obj, vec)
    return mlp.model_with_params(model_obj, vec)


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
    the config seed.  Raises :class:`TrainingDivergedError` on a non-finite
    loss.
    """
    if config.regime == "supervised":
        if dataset is None:
            raise ConfigError("supervised training needs a dataset")
    elif sys is None:
        raise ConfigError("unsupervised training needs a system")

    rng = np.random.default_rng(config.seed)
    report = TrainReport(seed=config.seed)
    start = _time.perf_counter()
    params = _params_of(model_obj)
    state = AdamState.zeros(params.size)
    d = model_obj.d
    box = as_box(config.omega, 2 * d) if sys is not None else None

    phases = [(config.regime, config.epochs)]
    if config.regime == "mixed":
        phases.append(("residual_only", config.fine_tune_epochs))

    current = _with_params(model_obj, params)
    for phase_regime, n_epochs in phases:
        for _ in range(n_epochs):
            if phase_regime == "supervised":
                n = dataset.n_samples
                b = min(config.batch_collocation, n)
                if b < n:
                    idx = rng.integers(0, n, size=b)
                    batch = TrajectoryDataset(
                        ics=dataset.ics,
                        sample_traj=dataset.sample_traj[idx],
                        sample_t=dataset.sample_t[idx],
                        sample_y=dataset.sample_y[idx],
                        delta_t=dataset.delta_t,
                        noise_std=dataset.noise_std,
                        seed=dataset.seed,
                    )
                else:
                    batch = dataset
                value, grad, parts = loss_and_grad(current, "supervised", dataset=batch)
            else:
                residual_batch = _draw_collocation(
                    rng, box, config.delta_t, config.batch_collocation
                )
                matching_batch = None
                if phase_regime in ("regularized", "mixed"):
                    matching_batch = _draw_collocation(
                        rng, box, config.delta_t, config.batch_matching
                    )
                value, grad, parts = loss_and_grad(
                    current,
                    phase_regime,
                    sys=sys,
                    residual_batch=residual_batch,
                    matching_batch=matching_batch,
                    mode=config.derivative_mode,
                )
            if not np.isfinite(value) or not np.all(np.isfinite(grad)):
                report.wall_clock_s = _time.perf_counter() - start
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {report.epochs_run}", report
                )
            report.record(total=value, **parts)
            params, state = adam_step(params, grad, state, lr=config.learning_rate)
            # One model per step serves the checkpoint and the next epoch.
            current = _with_params(model_obj, params)
            report.epochs_run += 1
            if (
                checkpoint_fn is not None
                and config.checkpoint_every > 0
                and report.epochs_run % config.checkpoint_every == 0
            ):
                checkpoint_fn(report.epochs_run, current)

    trained = current
    report.wall_clock_s = _time.perf_counter() - start
    if report.loss_history.get("total"):
        report.final_loss = report.loss_history["total"][-1]
    return trained, report
