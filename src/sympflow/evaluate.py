"""Long-time rollout and evaluation metrics.

A model trained on the window [0, delta_t] extends to arbitrary horizons by
composing its time-delta_t map: floor(t / delta_t) full windows followed by
the remainder map.  A rollout maps a whole (B, 2d) batch of states at once.
The metrics compare such rollouts against the reference integrator:
energy-drift series along single trajectories, a log-log drift-growth
slope, Poincare sections for the chaotic benchmark, and the two means over
sampled initial conditions that only ``evaluate_model`` computes, the
average relative state error and the average relative energy variation
after k windows.

``evaluate_model`` solves the references of all initial conditions in one
batched DOP853 integration and rolls them out as one batch, window by
window; both metrics at a requested k are taken from the same states.  Rows
are independent, so a reference solve that fails (say, an orbit that
escapes and blows up) drops its row only, and a model state that turns
non-finite is left out of the means from that k on; the report counts both.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import mlp as mlpmod
from . import model as sfm
from .errors import DimensionError
from .integrate import _sample_rows, integrate  # noqa: F401 (integrate: re-exported)
from .systems import HamiltonianSystem
from .validation import (
    as_box,
    as_phase_points,
    as_vector,
    check_finite_scalar,
    check_positive,
    check_positive_int,
)

__all__ = [
    "RolloutSpec",
    "MetricReport",
    "rollout",
    "rollout_path",
    "energy_drift_series",
    "drift_slope",
    "poincare_section",
    "poincare_crossings",
    "evaluate_model",
]

log = logging.getLogger(__name__)


def _forward_b(model_obj, t, x):
    """The window map of either model kind, looked up per call."""
    return {"sympflow": sfm, "mlp": mlpmod}[model_obj.kind]._forward_b(model_obj, t, x)


@dataclass(frozen=True)
class RolloutSpec:
    delta_t: float
    horizon: float
    step: float
    x0: np.ndarray

    def __post_init__(self):
        if not 0 < self.step <= self.delta_t <= self.horizon < np.inf:
            raise DimensionError(
                "rollout needs 0 < step <= delta_t <= horizon < inf, got "
                f"step={self.step}, delta_t={self.delta_t}, horizon={self.horizon}"
            )


@dataclass
class MetricReport:
    """Per-k metrics over the sampled initial conditions.

    ``failed`` counts the initial conditions whose reference solve failed;
    they are left out of every metric.  ``nonfinite[k]`` counts the model
    states that were not finite after k windows; they are left out of the
    means at k and later.  ``skipped_*[k]`` count near-zero references and
    initial energies.
    """

    n_samples: int
    relative_errors: dict = field(default_factory=dict)
    energy_variations: dict = field(default_factory=dict)
    skipped_error: dict = field(default_factory=dict)
    skipped_energy: dict = field(default_factory=dict)
    drift_times: np.ndarray | None = None
    drift_values: np.ndarray | None = None
    drift_slope: float = float("nan")
    failed: int = 0
    nonfinite: dict = field(default_factory=dict)


def _windows(model_obj, delta_t, k, x, project):
    """k window maps of the batch x, each followed by ``project``."""
    for _ in range(k):
        x = _forward_b(model_obj, delta_t, x)
        if project is not None:
            x = project(x)
    return x


def rollout(model_obj, delta_t: float, t: float, x0, project=None):
    """Extended flow: floor(t/delta_t) window maps, then the remainder map.

    ``x0`` is one state (2d,) or a batch (B, 2d), mapped as one batch.
    ``project`` (optional) is applied to the (B, 2d) batch after every
    window application, for models operating on the augmented dissipative
    phase space.
    """
    delta_t = check_positive(delta_t, "delta_t")
    t = check_finite_scalar(t, "t")
    if t < 0:
        raise DimensionError(f"t must be nonnegative, got {t}")
    x, single = as_phase_points(x0, 2 * model_obj.d, "x0")
    k = int(np.floor(t / delta_t))
    rem = t - delta_t * k
    x = _windows(model_obj, delta_t, k, x.copy(), project)
    if rem > 0.0:
        x = _forward_b(model_obj, rem, x)
        if project is not None:
            x = project(x)
    return x[0] if single else x


def rollout_path(model_obj, spec: RolloutSpec, project=None):
    """Sampled rollout at t = 0, step, 2 step, ..., horizon.

    Each window makes one batched map from its base point, with per-row
    times: the window's remainder samples and, unless it is the last window,
    the next base point at ``delta_t``.  Every sample agrees with an
    individual ``rollout`` call at that time.  ``spec.x0`` is one state of
    shape ``(2d,)``.  Returns ``(times, states)``.
    """
    base = as_vector(spec.x0, 2 * model_obj.d, "x0").copy()
    n = int(np.floor(spec.horizon / spec.step + 1e-9))
    times = np.arange(n + 1) * spec.step
    window = np.floor(times / spec.delta_t).astype(int)
    last = window[-1]
    # The times increase, so each window's samples are one run of rows.
    bounds = np.searchsorted(window, np.arange(last + 2))
    out = np.empty((times.size, base.size))
    for k in range(last + 1):
        lo, hi = bounds[k], bounds[k + 1]
        rem = times[lo:hi] - spec.delta_t * k
        out[lo:hi] = base
        pos = rem > 0
        rows, t = lo + np.flatnonzero(pos), rem[pos]
        if k < last:
            t = np.append(t, spec.delta_t)
        if t.size:
            states = np.empty((t.size, base.size))
            states[:] = base
            mapped = _forward_b(model_obj, t, states)
            if project is not None:
                mapped = project(mapped)
            out[rows] = mapped[: rows.size]
            if k < last:
                base = mapped[-1]
    return times, out


def _references(sys, omega, n_samples, ks, delta_t, seed):
    """Sampled initial conditions and their reference states at k delta_t.

    All samples are solved as one batch.  Returns ``(ics, ref_states,
    failed)``; ``failed`` marks the samples whose solve failed, and their
    reference states are NaN.
    """
    box = as_box(omega, 2 * sys.d)
    ics = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(n_samples, 2 * sys.d))
    times = np.broadcast_to(np.asarray(ks, dtype=float) * delta_t, (len(ics), len(ks)))
    states, errors = _sample_rows(sys, ics, times)
    failed = np.zeros(len(ics), dtype=bool)
    failed[list(errors)] = True
    return ics, {k: states[:, j] for j, k in enumerate(ks)}, failed


def _relative_error(pred, refs):
    """Mean of |pred - ref| / |ref| over the rows with |ref| >= 1e-12.

    Returns ``(mean, skipped)``, skipped counting the other rows; the mean is
    NaN when there are no rows at all.
    """
    if not len(refs):
        return float("nan"), 0
    norm = np.linalg.norm(refs, axis=1)
    near_zero = norm < 1e-12
    if near_zero.all():
        raise DimensionError("all reference states were near zero")
    ok = ~near_zero
    errs = np.linalg.norm(pred[ok] - refs[ok], axis=1) / norm[ok]
    return float(np.mean(errs)), int(near_zero.sum())


def _energy_variation(sys, x0, pred):
    """Mean of |H(pred) - H(x0)| / |H(x0)| over the rows with |H(x0)| >= 1e-12.

    Returns ``(mean, skipped)``, skipped counting the other rows; the mean is
    NaN when there are no rows at all.
    """
    if not len(x0):
        return float("nan"), 0
    e0 = sys.hamiltonian(x0)
    near_zero = np.abs(e0) < 1e-12
    if near_zero.all():
        raise DimensionError("all initial energies were near zero")
    ok = ~near_zero
    vals = np.abs(sys.hamiltonian(pred[ok]) - e0[ok]) / np.abs(e0[ok])
    return float(np.mean(vals)), int(near_zero.sum())


def energy_drift_series(
    model_obj,
    sys: HamiltonianSystem,
    x0,
    horizon: float,
    step: float,
    delta_t: float,
    project=None,
):
    """(t, H(psi_t(x0)) - H(x0)) along the rollout; first entry is zero."""
    spec = RolloutSpec(delta_t=delta_t, horizon=horizon, step=step, x0=np.asarray(x0, float))
    times, states = rollout_path(model_obj, spec, project=project)
    h0 = sys.hamiltonian(np.asarray(x0, dtype=float))
    return times, sys.hamiltonian(states) - h0


def drift_slope(series) -> float:
    """Least-squares slope of log|drift| vs log t over t in [10, T].

    Entries with |drift| below 1e-14 are ignored.
    """
    times, values = series
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= 10.0) & (np.abs(values) >= 1e-14)
    if mask.sum() < 2:
        raise DimensionError("not enough usable points for a slope estimate")
    return float(np.polyfit(np.log(times[mask]), np.log(np.abs(values[mask])), 1)[0])


def poincare_crossings(path):
    """Crossings of q_x = 0 with p_x > 0, linearly refined between samples.

    ``path`` is ``(times, states)`` with 4-dimensional states ordered
    (q_x, q_y, p_x, p_y).  Returns ``(t_cross, states_cross)`` with the
    crossing coordinate exactly zeroed.
    """
    times, states = path
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.ndim != 2 or states.shape[1] != 4:
        raise DimensionError("Poincare sections need 4-dimensional states")
    qx = states[:, 0]
    sign_change = qx[:-1] * qx[1:] < 0.0
    idx = np.nonzero(sign_change)[0]
    if idx.size == 0:
        return np.empty(0), np.empty((0, 4))
    theta = qx[idx] / (qx[idx] - qx[idx + 1])
    crossed = states[idx] + theta[:, None] * (states[idx + 1] - states[idx])
    t_cross = times[idx] + theta * (times[idx + 1] - times[idx])
    keep = crossed[:, 2] > 0.0
    crossed = crossed[keep]
    crossed[:, 0] = 0.0
    return t_cross[keep], crossed


def poincare_section(path) -> np.ndarray:
    """Recorded (q_y, p_y) pairs at the refined crossings."""
    _, crossed = poincare_crossings(path)
    return crossed[:, [1, 3]]


def evaluate_model(
    model_obj,
    sys: HamiltonianSystem,
    omega,
    delta_t: float,
    n_samples: int = 100,
    ks=(1, 10, 100),
    seed: int = 0,
    drift_x0=None,
    drift_horizon: float | None = None,
    drift_step: float = 0.1,
    project=None,
) -> MetricReport:
    """Metric bundle: per-k errors and energy variations, drift series, slope.

    Initial conditions whose reference solve fails are counted in
    ``report.failed`` and model states that turn non-finite in
    ``report.nonfinite[k]``; both are left out of the means and logged.
    ``n_samples`` and every k must be integers of at least 1, and ``ks``
    must name at least one k; otherwise DimensionError.
    """
    delta_t = check_positive(delta_t, "delta_t")
    n_samples = check_positive_int(n_samples, "n_samples")
    ks = sorted(check_positive_int(k, "each of ks") for k in ks)
    if not ks:
        raise DimensionError("ks must name at least one window count")
    ics, refs, failed = _references(sys, omega, n_samples, ks, delta_t, seed)
    report = MetricReport(n_samples=n_samples, failed=int(failed.sum()))
    if report.failed:
        log.warning("evaluate_model: %d of %d reference solves failed", report.failed, len(ics))
    rows = np.flatnonzero(~failed)
    x, done = ics[rows], 0
    for k in ks:
        x = _windows(model_obj, delta_t, k - done, x, project)
        done = k
        finite = np.all(np.isfinite(x), axis=1)
        rows, x = rows[finite], x[finite]
        report.nonfinite[k] = len(ics) - report.failed - len(rows)
        if report.nonfinite[k]:
            log.warning("evaluate_model: %d non-finite model states after %d windows", report.nonfinite[k], k)
        report.relative_errors[k], report.skipped_error[k] = _relative_error(x, refs[k][rows])
        report.energy_variations[k], report.skipped_energy[k] = _energy_variation(sys, ics[rows], x)
    if drift_x0 is not None and drift_horizon is not None:
        times, vals = energy_drift_series(
            model_obj, sys, drift_x0, drift_horizon, drift_step, delta_t, project=project
        )
        report.drift_times = times
        report.drift_values = vals
        try:
            report.drift_slope = drift_slope((times, vals))
        except DimensionError:
            report.drift_slope = float("nan")
    return report
