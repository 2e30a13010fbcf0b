"""Reference integration and trajectory datasets.

The integrator is the classic Dormand-Prince 5(4) embedded pair (seven
stages, FSAL) with a PI step-size controller and 4th-order accurate cubic
Hermite dense output over each accepted step.  Defaults are tight
(rtol 1e-10, atol 1e-12) because the solutions serve as ground truth for
the learned models.  A fixed-step mode bypasses the controller for
convergence-order studies.

One stepper advances a (B, n) batch of initial states.  Its rows are
independent: each keeps its own time, step size, error history and counts,
so a row takes the same steps in a batch as alone, and a row that fails
leaves the others untouched.  ``integrate`` is the one-row case and records
every step in a :class:`DenseSolution`; ``sample_states``,
``generate_dataset`` and the evaluation references interpolate each row at
its requested times while it steps, so all trajectories are one solve.
Every stage enters the error estimate, so one finiteness check of it per
step catches a state that blows up, and names the time it happened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IntegrationError
from .systems import HamiltonianSystem
from .validation import as_box, as_float_array

__all__ = [
    "DenseSolution",
    "TrajectoryDataset",
    "integrate",
    "sample_states",
    "generate_dataset",
]

# Dormand-Prince 5(4) tableau.  The propagated solution is 5th order; B4
# gives the embedded 4th-order result used for the error estimate.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    ]
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4
_MAX_STEPS = 10_000_000


def _hermite(s, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant at fractions s (k, 1) of steps of length h (k, 1)."""
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


@dataclass
class DenseSolution:
    """Accepted step endpoints plus Hermite interpolation between them."""

    ts: np.ndarray  # (n+1,) increasing
    ys: np.ndarray  # (n+1, dim)
    fs: np.ndarray  # (n+1, dim) vector field at the endpoints
    n_steps: int = 0
    n_rejected: int = 0

    def __call__(self, t):
        """Evaluate the solution at times t (scalar or array) within range."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.ts[0], self.ts[-1]
        if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
            raise DimensionError(
                f"interpolation time outside [{lo}, {hi}]"
            )
        t_arr = np.clip(t_arr, lo, hi)
        idx = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1, 0, len(self.ts) - 2)
        h = self.ts[idx + 1] - self.ts[idx]
        s = (t_arr - self.ts[idx]) / h
        out = _hermite(
            s[:, None], h[:, None], self.ys[idx], self.fs[idx], self.ys[idx + 1], self.fs[idx + 1]
        )
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _field(sys_or_f, y):
    """The field on a batch, ``f(t, Y)`` with t of shape (B,), and its value at (0, y).

    A system's public ``vector_field`` checks the width and finiteness of y
    once; the steps call its unchecked ``_vector_field``.  A callable
    ``f(t, y)`` takes one 1-D state, so it serves a batch of one row.
    """
    if isinstance(sys_or_f, HamiltonianSystem):
        f0 = sys_or_f.vector_field(y)
        return (lambda t, x: sys_or_f._vector_field(x)), f0
    if y.shape[0] != 1:
        raise DimensionError("a callable right-hand side integrates one state at a time")

    def f(t, x):
        return np.array(sys_or_f(t[0], x[0]), dtype=float).reshape(1, -1)

    return f, f(np.zeros(1), y)


def _initial_step(f, t0, y0, f0, rtol, atol):
    """Hairer's starting-step heuristic for a 5th-order method, per row."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=1))
    tiny = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(tiny, 1e-6, 0.01 * d0 / np.where(tiny, 1.0, d1))
    y1 = y0 + h0[:, None] * f0
    f1 = f(t0 + h0, y1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / h0
    dmax = np.maximum(d1, d2)
    flat = dmax <= 1e-15
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3), (0.01 / np.where(flat, 1.0, dmax)) ** 0.2)
    return np.minimum(100 * h0, h1)


def _dopri(sys_or_f, y, t_end, rtol, atol, fixed_step, max_steps, on_accept):
    """Step every row of y (B, n) from t = 0 to its own t_end (B,) with DOPRI5.

    Rows are independent: each has its own t, h, error history and step and
    rejection counts, and takes the same steps as it would alone.  After
    every step with an accepted row, ``on_accept(rows, t0, t1, y0, y1, f0,
    f1)`` receives the accepted rows (indices into the batch) with the
    endpoints of their steps and the field there.  A row that reaches its
    t_end leaves the live set.  So does a row that fails: a non-finite stage
    (every stage enters the error estimate, so one finiteness check of it
    per step sees it), a step size below 1e-14 of its span, or more than
    max_steps steps.  Returns ``(n_steps, n_rejected, errors)``: per-row
    counts and a message for each failed row.
    """
    adaptive = fixed_step is None
    if adaptive and (rtol <= 0 or atol <= 0):
        raise DimensionError("tolerances must be positive")
    if not adaptive and fixed_step <= 0:
        raise DimensionError("fixed_step must be positive")
    f, k7 = _field(sys_or_f, y)
    timed = not isinstance(sys_or_f, HamiltonianSystem)
    n_steps = np.zeros(len(y), dtype=int)
    n_rejected = np.zeros(len(y), dtype=int)
    errors = {}
    rows = np.flatnonzero(t_end > 0)
    if not rows.size:
        return n_steps, n_rejected, errors

    y, k7, t_end = y[rows], k7[rows], t_end[rows]
    t = np.zeros(rows.size)
    if adaptive:
        h = np.minimum(_initial_step(f, t, y, k7, rtol, atol), t_end)
        h_min = 1e-14 * t_end
    else:
        h = np.full(rows.size, float(fixed_step))
        h_min = np.zeros(rows.size)
    err_prev = np.ones(rows.size)
    steps = np.zeros(rows.size, dtype=int)
    rejected = np.zeros(rows.size, dtype=int)
    failed = None
    passes = 0
    while True:
        keep = t < t_end
        if failed is not None:
            keep &= ~failed
            failed = None
        stuck = keep & (h < h_min)
        if stuck.any():
            for j in np.flatnonzero(stuck):
                errors[int(rows[j])] = (
                    f"step size underflow at t={t[j]:.6g} (h={h[j]:.3g}); problem too stiff"
                )
            keep &= ~stuck
        if not keep.all():
            n_steps[rows] = steps
            n_rejected[rows] = rejected
            rows, t, y, h, h_min, k7, err_prev, t_end, steps, rejected = (
                a[keep] for a in (rows, t, y, h, h_min, k7, err_prev, t_end, steps, rejected)
            )
            if not rows.size:
                return n_steps, n_rejected, errors

        h = np.minimum(h, t_end - t)
        hc = h[:, None]
        K = np.empty((rows.size, 7, y.shape[1]))
        K[:, 0] = k7  # FSAL: last stage of the accepted step
        for i in range(1, 6):
            K[:, i] = f(t + _C[i] * h if timed else t, y + hc * (_A[i, :i] @ K[:, :i]))
        y_new = y + hc * (_B5[:6] @ K[:, :6])
        f_new = f(t + h if timed else t, y_new)
        K[:, 6] = f_new
        err_vec = hc * (_E @ K)
        if adaptive:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=1) / y.shape[1])
            accept = err <= 1.0  # False where err is not finite
            fac = 0.9 * (err + 1e-16) ** (-0.7 / 5.0) * (err_prev + 1e-16) ** (0.4 / 5.0)
            h_next = h * np.minimum(5.0, np.maximum(0.2, fac))
        else:
            err = np.add.reduce(err_vec, axis=1)  # read only by the finiteness check
            accept = np.isfinite(err)
            h_next = h

        if accept.all():
            t_new = t + h
            on_accept(rows, t, t_new, y, y_new, k7, f_new)
            t, y, k7 = t_new, y_new, f_new
            err_prev = np.maximum(err, 1e-16)
            steps += 1
        else:
            failed = ~np.isfinite(err)
            for j in np.flatnonzero(failed):
                errors[int(rows[j])] = f"non-finite state at t={t[j]:.6g}"
            reject = ~accept & ~failed
            if reject.any():  # retry with a smaller step
                rejected += reject
                h_next[reject] = h[reject] * np.maximum(0.2, np.minimum(1.0, 0.9 * err[reject] ** (-0.2)))
            if accept.any():
                t_new = t[accept] + h[accept]
                on_accept(rows[accept], t[accept], t_new, y[accept], y_new[accept], k7[accept], f_new[accept])
                t = t.copy()
                t[accept] = t_new
                y = np.where(accept[:, None], y_new, y)
                k7 = np.where(accept[:, None], f_new, k7)
                err_prev = np.where(accept, np.maximum(err, 1e-16), err_prev)
                steps += accept
        h = h_next

        passes += 1
        if passes > max_steps:  # no row can have more steps than passes
            over = steps > max_steps
            for j in np.flatnonzero(over):
                errors[int(rows[j])] = f"exceeded {max_steps} steps at t={t[j]:.6g}"
            failed = over if failed is None else failed | over


def _one_state(x0):
    x0 = as_float_array(x0, "x0")
    if x0.ndim != 1:
        raise DimensionError(f"x0 must be one state of shape (n,), got {x0.shape}")
    return x0


def integrate(
    sys_or_f,
    x0,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    fixed_step: float | None = None,
    max_steps: int = _MAX_STEPS,
) -> DenseSolution:
    """Integrate dx/dt = f(t, x) from 0 to t_end with dense output.

    ``sys_or_f`` is a benchmark system (its vector field is used) or a
    callable ``f(t, y)``.  Raises :class:`IntegrationError` when a stage
    turns non-finite, when the adaptive step size underflows below 1e-14 of
    the time span, or after more than ``max_steps`` steps.
    """
    if t_end <= 0:
        raise DimensionError(f"t_end must be positive, got {t_end}")
    x0 = _one_state(x0)
    steps = []

    def record(rows, t0, t1, y0, y1, f0, f1):
        if not steps:
            steps.append((t0[0], y0[0], f0[0]))
        steps.append((t1[0], y1[0], f1[0]))

    n_steps, n_rejected, errors = _dopri(
        sys_or_f, x0[None], np.array([float(t_end)]), rtol, atol, fixed_step, max_steps, record
    )
    if errors:
        raise IntegrationError(errors[0])
    ts, ys, fs = (np.array(c) for c in zip(*steps))
    return DenseSolution(ts, ys, fs, int(n_steps[0]), int(n_rejected[0]))


def _sample_rows(sys_or_f, x0, times, rtol=1e-10, atol=1e-12):
    """States of the rows of x0 (B, n) at their own times (B, m), from one solve.

    Each row is stepped to its latest time, and its states are interpolated
    while it steps, with the Hermite formula of :class:`DenseSolution`.
    Times must be nonnegative.  Returns ``(states, errors)``: states has
    shape (B, m, n), and errors maps each failed row to its message; that
    row's states are NaN.
    """
    states = np.full(times.shape + (x0.shape[1],), np.nan)
    zero = times == 0.0
    states[zero] = np.broadcast_to(x0[:, None], states.shape)[zero]

    def interpolate(rows, t0, t1, y0, y1, f0, f1):
        T = times[rows]
        hit = (T > t0[:, None]) & (T <= t1[:, None])
        if hit.any():
            r, c = np.nonzero(hit)
            h = t1[r] - t0[r]
            s = (T[r, c] - t0[r]) / h
            states[rows[r], c] = _hermite(s[:, None], h[:, None], y0[r], f0[r], y1[r], f1[r])

    _, _, errors = _dopri(sys_or_f, x0, times.max(axis=1), rtol, atol, None, _MAX_STEPS, interpolate)
    states[list(errors)] = np.nan
    return states, errors


def sample_states(sys_or_f, x0, times, rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """States at the requested times (any order); one integration pass."""
    times = as_float_array(times, "times").reshape(-1)
    if np.any(times < 0):
        raise DimensionError("sample times must be nonnegative")
    states, errors = _sample_rows(sys_or_f, _one_state(x0)[None], times[None], rtol, atol)
    if errors:
        raise IntegrationError(errors[0])
    return states[0]


@dataclass
class TrajectoryDataset:
    """Sampled trajectories: exact initial conditions plus noisy observations.

    ``ics[n]`` is the exact initial condition of trajectory n; observation m
    of trajectory n is ``(sample_traj[i], sample_t[i], sample_y[i])`` rows
    with ``sample_traj`` indexing into ``ics``.
    """

    ics: np.ndarray  # (N, 2d)
    sample_traj: np.ndarray  # (S,) int
    sample_t: np.ndarray  # (S,)
    sample_y: np.ndarray  # (S, 2d)
    delta_t: float
    noise_std: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        self.ics = np.asarray(self.ics, dtype=float)
        self.sample_traj = np.asarray(self.sample_traj, dtype=int)
        self.sample_t = np.asarray(self.sample_t, dtype=float)
        self.sample_y = np.asarray(self.sample_y, dtype=float)
        if self.n_samples and (
            self.sample_traj.min() < 0 or self.sample_traj.max() >= len(self.ics)
        ):
            raise DimensionError("sample trajectory ids must index the initial conditions")
        if np.any(self.sample_t < 0) or np.any(self.sample_t > self.delta_t + 1e-12):
            raise DimensionError("sample times must lie in [0, delta_t]")

    @property
    def n_trajectories(self) -> int:
        return len(self.ics)

    @property
    def n_samples(self) -> int:
        return len(self.sample_t)

    @property
    def x0_per_sample(self) -> np.ndarray:
        return self.ics[self.sample_traj]


def generate_dataset(
    sys,
    omega,
    n_trajectories: int,
    m_samples: int,
    delta_t: float,
    noise_std: float = 0.0,
    seed: int = 0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> TrajectoryDataset:
    """Sample initial conditions uniformly in the box and observe them.

    Sampling times are uniform in [0, delta_t] independently per trajectory;
    observations come from the reference integrator plus i.i.d. Gaussian
    noise per component.  Fully reproducible from the seed.
    """
    if n_trajectories < 1 or m_samples < 1:
        raise DimensionError("need at least one trajectory and one sample")
    if delta_t <= 0:
        raise DimensionError("delta_t must be positive")
    box = as_box(omega, 2 * sys.d)
    rng = np.random.default_rng(seed)
    ics = rng.uniform(box[:, 0], box[:, 1], size=(n_trajectories, 2 * sys.d))
    times = rng.uniform(0.0, delta_t, size=(n_trajectories, m_samples))
    noise = (
        rng.normal(0.0, noise_std, size=(n_trajectories, m_samples, 2 * sys.d))
        if noise_std > 0
        else np.zeros((n_trajectories, m_samples, 2 * sys.d))
    )
    traj_ids = np.repeat(np.arange(n_trajectories), m_samples)
    states, errors = _sample_rows(sys, ics, times, rtol, atol)
    if errors:
        n = min(errors)
        raise IntegrationError(f"trajectory {n}: {errors[n]}")
    ys = states + noise
    return TrajectoryDataset(
        ics=ics,
        sample_traj=traj_ids,
        sample_t=times.reshape(-1),
        sample_y=ys.reshape(-1, 2 * sys.d),
        delta_t=float(delta_t),
        noise_std=float(noise_std),
        seed=seed,
    )
