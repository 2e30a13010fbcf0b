"""Reference integration and trajectory datasets.

One batched stepper runs DOP853, the 8th-order embedded Runge-Kutta pair of
Dormand and Prince in the form of Hairer, Nørsett and Wanner (*Solving ODEs
I*, §II.10, and Hairer's ``dop853.f``): twelve stages per step, a combined
5th/3rd-order error estimate, a PI step-size controller scaled to order 8,
Hairer's starting-step heuristic, and a 7th-order continuous extension that
costs three more field calls on each step it serves.  The tolerances are
tight (rtol 1e-10, atol 1e-12) because the solutions serve as ground truth
for the learned models; only ``integrate`` takes others, and a fixed-step
mode bypasses the controller for convergence-order studies.

DOP853 is used rather than the 5(4) pair DOPRI5 because at these
tolerances it takes 7-8 times fewer steps for twice the field calls per step
(12 against 6).  On Hénon-Heiles to T = 100 from (0.3, -0.3, 0.3, 0) at the
defaults it takes 617 steps against DOPRI5's 4,815, and its largest energy
error is 3.3e-12 against 6.4e-11.

At a few rows a step costs Python overhead, not arithmetic, so it makes as
few NumPy calls as it can, and the step-size controller has two forms.  Up
to ``_FEW_ROWS`` live rows the error norm, the decision and the next step
run on Python floats, with the bits of the array form that larger batches
and any step that rejects or fails a row take; the stages, the estimates and
the powers stay NumPy's.  On Hénon-Heiles to T = 10 a step costs about 34 µs
at one row (45 µs in the array form) and 44 µs at two (52 µs; best of 7
solves on a 2-core x86-64 VM, Python 3.11, NumPy 2.4).
The stages are held stage-major, in one (13, B·n) buffer that is allocated
only when the set of live rows changes: each stage's state is one product of
its tableau row with the stages before it, written into one flat buffer,
scaled by h repeated per component and added to y, and the field writes
straight into the stage's row of the buffer.  The columns are padded to a
multiple of 4: OpenBLAS forms the columns left over from groups of four
with other arithmetic, and with the padding a row gets the same bits in any
batch.  Both error estimates come from one product, the controller makes
one power call, and the masks that take rows out of the batch are formed
only on a step where one comparison says that a row can leave.

The stepper advances a (B, n) batch of initial states of one
:class:`HamiltonianSystem`, whose field is autonomous, so a stage needs no
time of its own; anything else is an UnsupportedSystemError.  Its rows are
independent: each keeps its own time, step size, error history and counts,
so a row takes the same steps in a batch as alone, and a row that fails
leaves the others untouched.  The accepted steps that hold a requested
time (every step, for ``integrate``) are kept, and their dense output is
built after the solve in one batched pass.  Every stage, the extra ones
included, is checked for finiteness, so a state that blows up fails its
row and names the time it happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IntegrationError
from .systems import HamiltonianSystem  # alone: the benchmark's tracer counts systems' functions as evaluations
from .validation import as_box, as_float_array, check_finite_scalar, check_positive, check_positive_int

__all__ = [
    "DenseSolution",
    "TrajectoryDataset",
    "integrate",
    "sample_states",
    "generate_dataset",
]

_MAX_STEPS = 10_000_000
_RTOL, _ATOL = 1e-10, 1e-12  # the reference tolerances (see the module docstring)
# The largest live set whose step-size controller runs on Python floats: the
# float form costs as much as the array form at 5-6 rows (solves to T = 10).
_FEW_ROWS = 4


def _lower(*rows):
    """A strictly lower-triangular tableau from its rows 1, 2, ...; row i has i entries."""
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for i, row in enumerate(rows, start=1):
        a[i, :i] = row
    return a


# DOP853, transcribed from Hairer's dop853.f.  A step has the stages K_0 ..
# K_11 and K_12 = f(t + h, y_new), the next step's K_0.  Row 12 of the
# tableau holds the weights of y_new; rows 13-15 are the extra stages of the
# dense output.
_S = 12
_Q = 8  # the order the controller's exponents are scaled to
_A = _lower(
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
     0, 0, -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
)
_BHH = np.zeros(13)
_BHH[[0, 8, 11]] = [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0,
])
_E3 = np.append(_A[12, :12], 0.0) - _BHH  # the 3rd-order estimate
_E53 = np.stack([_E5, _E3])
_ROWS = [_A[i, :i].copy() for i in range(_S + 1)]  # each stage's weights, contiguous
_POWERS = np.array([[-0.7 / _Q], [0.4 / _Q]])  # the PI controller's exponents
_FLOORS = np.array([[0.0], [2e-16]])  # and the floors of their bases
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


def _nested(x, y0, F):
    """``y0 + x(F0 + (1-x)(F1 + x(F2 + (1-x)(F3 + ...))))`` at step fractions x (k, 1).

    F (k, 7, n) holds each step's coefficients.  The first three terms alone
    are the cubic Hermite interpolant of the step's ends; all seven are the
    7th-order continuous extension.
    """
    acc = 0.0
    for j in range(F.shape[1] - 1, -1, -1):
        acc = (F[:, j] + acc) * (x if j % 2 == 0 else 1.0 - x)
    return y0 + acc


def _coefficients(sys, h, y0, y1, K):
    """Dense-output coefficients (B, 7, n) of B accepted steps of sys, for :func:`_nested`.

    K (B, 13, n) holds each step's stages.  The first three terms fit the
    ends and the field there; the four more come from the extra stages.
    Returns ``(F, finite)``; ``finite`` (B,) is False for a step whose
    coefficients are not finite.
    """
    hc = h[:, None]
    dy = y1 - y0
    Kx = np.empty((len(h), len(_A), y0.shape[1]))
    Kx[:, : _S + 1] = K
    for i in range(_S + 1, len(_A)):
        sys._vector_field(y0 + hc * (_A[i, :i] @ Kx[:, :i]), Kx[:, i])
    F = np.empty((len(h), 7, y0.shape[1]))
    F[:, 0] = dy
    F[:, 1] = hc * K[:, 0] - dy
    F[:, 2] = 2 * dy - hc * (K[:, 0] + K[:, _S])
    F[:, 3:] = hc[:, None] * (_D @ Kx)
    return F, np.isfinite(F).all(axis=(1, 2))


def _dense_failure(t0):
    return f"non-finite dense output in the step from t={t0:.6g}"


class _Steps:
    """The ``record`` of :func:`_dop853`: the steps that hold a requested time, for one dense pass.

    ``due`` (B,) is each row's next requested time; zeros keep every step.
    Given the times (B, m), each kept step notes in ``samples`` the (kept
    row-step, column) of the times it holds and moves its rows' due times on.
    """

    def __init__(self, due, times=None):
        self.due, self.times = due, times
        self.parts, self.samples, self.kept = [], [], 0

    def __call__(self, rows, t0, h, y0, y1, K):
        self.parts.append((rows, t0, h, y0, y1, K.copy()))  # K may be the stepper's buffer
        if self.times is not None:
            T, t0 = self.times[rows], np.asarray(t0)
            t1 = (t0 + h)[:, None]
            r, c = np.nonzero((T > t0[:, None]) & (T <= t1))
            self.samples.append((self.kept + r, c))
            self.due[rows] = np.where(T > t1, T, np.inf).min(axis=1)
        self.kept += len(rows)

    def dense(self, sys):
        """``(rows, t0, h, y0, y1, F, finite)`` of the kept steps, F and finite from :func:`_coefficients`."""
        rows, t0, h, y0, y1, K = (np.concatenate(part) for part in zip(*self.parts))
        return (rows, t0, h, y0, y1, *_coefficients(sys, h, y0, y1, K))


@dataclass
class DenseSolution:
    """Accepted step endpoints plus a polynomial over each step between them.

    ``coeffs[i]`` are the seven nested-polynomial coefficients of step i
    (see :func:`_nested`), DOP853's 7th-order continuous extension.  The
    cubic Hermite interpolant of the step's ends, which needs no more field
    calls, has the error bound h⁴/384 · |y⁗|, far above rtol at DOP853's
    steps (h ≈ 0.16 on Hénon-Heiles at rtol 1e-10); so each step pays three
    more field calls for its own extension.
    """

    ts: np.ndarray  # (m+1,) increasing
    ys: np.ndarray  # (m+1, dim)
    coeffs: np.ndarray  # (m, 7, dim)
    n_steps: int = 0
    n_rejected: int = 0

    def __call__(self, t):
        """Evaluate the solution at times t (scalar or array) within range."""
        t_arr = np.atleast_1d(as_float_array(t, "t"))
        lo, hi = self.ts[0], self.ts[-1]
        if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
            raise DimensionError(
                f"interpolation time outside [{lo}, {hi}]"
            )
        t_arr = np.clip(t_arr, lo, hi)
        idx = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1, 0, len(self.ts) - 2)
        x = (t_arr - self.ts[idx]) / (self.ts[idx + 1] - self.ts[idx])
        out = _nested(x[:, None], self.ys[idx], self.coeffs[idx])
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _initial_step(f, y0, f0, rtol, atol):
    """Hairer's starting-step heuristic for a method of order 8, per row."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=1))
    tiny = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(tiny, 1e-6, 0.01 * d0 / np.where(tiny, 1.0, d1))
    y1 = y0 + h0[:, None] * f0
    f1 = f(y1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / h0
    dmax = np.maximum(d1, d2)
    flat = dmax <= 1e-15
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3), (0.01 / np.where(flat, 1.0, dmax)) ** (1 / _Q))
    return np.minimum(100 * h0, h1)


def _error_norm(e, h, scale):
    """The scaled error of each row's step, ``h·‖e5‖² / sqrt(n·(‖e5‖² + 0.01‖e3‖²))``.

    e (2, R, n) holds the 5th- and 3rd-order estimates of the R rows, both
    from one product of the stages with their stacked weights; it is
    overwritten.  scale is (R, n).
    """
    e /= scale
    e *= e
    e5, e3 = np.add.reduce(e, axis=2)
    den = e3 * 0.01
    den += e5
    den *= e.shape[2]
    np.sqrt(den, den)
    # den is 0 only where e5 is, and is at least sqrt(n·5e-324) > 1e-300
    # elsewhere, so this floor divides 0 by a positive number and leaves
    # every other quotient as it is.
    den = np.maximum(den, 1e-300)
    err = h * e5
    err /= den
    return err


def _row_error(h, y0, y1, e5, e3, rtol, atol):
    """:func:`_error_norm` of one row on Python floats, bit for bit.

    Its maxima keep a NaN, as NumPy's do (Python's max can return the other
    argument), so that the float form accepts no row the array form fails.
    """
    s5 = s3 = 0.0
    for a, b, c5, c3 in zip(y0, y1, e5, e3):
        a, b = abs(a), abs(b)
        scale = (a if a >= b or a != a else b) * rtol + atol
        c5 /= scale
        c3 /= scale
        # Left to right, as np.add.reduce sums so few terms; e0 + ((e1 + e2)
        # + e3) differs in the last bit on about a fifth of the rows.
        s5 += c5 * c5
        s3 += c3 * c3
    den = math.sqrt((s3 * 0.01 + s5) * len(y0))
    return h * s5 / (den if den >= 1e-300 or den != den else 1e-300)


def _dop853(sys, y, t_end, rtol, atol, fixed_step, max_steps, record):
    """Step every row of y (B, n) along the flow of sys from t = 0 to its own t_end (B,).

    sys must be a :class:`HamiltonianSystem`, else UnsupportedSystemError.
    Its public ``vector_field`` checks the width and finiteness of y once;
    every stage calls the unchecked ``_vector_field``.  Rows are independent:
    each has its own t, h, error history and step and rejection counts, and
    takes the same steps as it would alone.  After a step, the :class:`_Steps`
    ``record(rows, t0, h, y0, y1, K)`` receives the accepted rows (indices into
    the batch) whose step reaches their ``record.due`` time, with the start,
    length and end state of their steps (t0 and h may be lists; y0 and y1 are
    not written again) and the stages K (rows, 13, n), maybe a view of a
    buffer that the next step overwrites.  A row that reaches its t_end
    leaves the live set.  So does a row that fails: a stage that is not finite
    (every stage is checked, including K_12, which has no weight in the error
    estimate), a step size below 1e-14 of its span, or more than max_steps
    steps.  Returns ``(n_steps, n_rejected, errors)``: per-row counts and a
    message for each failed row.
    """
    HamiltonianSystem.check(sys)
    k0 = sys.vector_field(y)
    f = sys._vector_field
    adaptive = fixed_step is None
    if adaptive:
        rtol, atol = check_positive(rtol, "rtol"), check_positive(atol, "atol")
    else:
        fixed_step = check_positive(fixed_step, "fixed_step")
    s, a, n = _S, _ROWS, y.shape[1]
    n_steps = np.zeros(len(y), dtype=int)
    n_rejected = np.zeros(len(y), dtype=int)
    errors = {}
    rows = np.flatnonzero(t_end > 0)
    if not rows.size:
        return n_steps, n_rejected, errors

    y2, k0, t_end = y[rows], k0[rows], t_end[rows]
    t = np.zeros(rows.size)
    if adaptive:
        h = np.minimum(_initial_step(f, y2, k0, rtol, atol), t_end)
        h_min = 1e-14 * t_end
    else:
        h = np.full(rows.size, fixed_step)
        h_min = np.zeros(rows.size)
    # (err_prev + 1e-16)^(0.4/8), the controller's factor of the last accepted
    # error, carried from the step that computed it; err_prev starts at 1.
    carry = np.ones(rows.size)
    steps = np.zeros(rows.size, dtype=int)
    rejected = np.zeros(rows.size, dtype=int)
    failed = None
    passes = 0
    K = None  # the stage buffer of the live set; None until (re)allocated
    few = False  # whether the controller runs on Python floats (see the module docstring)
    while True:
        if few:
            h_step = [min(hj, te - tj) for hj, te, tj in zip(h, t_end_f, t)]
            if failed is not None or min(h_step) <= h_floor:
                k0, K = slots[0], None  # the bookkeeping below takes lists, and rebuilds the buffers
        else:
            h_step = np.minimum(h, t_end - t)
        # Past the first pass only a failure, a row at its t_end (h_step <= 0)
        # or a step size below h_min (h_step <= h < h_min <= h_floor) can end
        # a row, so one comparison decides whether to look for them.
        if K is None or not few and (failed is not None or h_step.min() <= h_floor):
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
                if K is not None:
                    k0 = slots[0]
                rows, t, y2, h_step, h_min, k0, carry, t_end, steps, rejected = (
                    np.asarray(v)[keep] for v in (rows, t, y2, h_step, h_min, k0, carry, t_end, steps, rejected)
                )
                if not rows.size:
                    return n_steps, n_rejected, errors
                K = None
            if K is None:
                # Stage-major buffers, kept until the live set changes: stage
                # i of every row is K[i], seen by the field as the (R, n) slot
                # slots[i] and by record through by_row (R, 13, n).  Columns
                # are padded with zeros to a multiple of 4 (see the module
                # docstring); y is flat and padded, y2 its (R, n) view.
                R, m = rows.size, rows.size * n
                w = -(-m // 4) * 4
                K = np.zeros((s + 1, w))
                slots = [k[:m].reshape(R, n) for k in K]
                # Stage i's weights, the stages before it and its slot.
                plan = [(a[i], K[:i], slots[i]) for i in range(1, s)]
                by_row = K[:, :m].reshape(s + 1, R, n).transpose(1, 0, 2)
                slots[0][...] = k0  # FSAL: the field at the end of the accepted step
                stage = np.zeros(w)
                stage2 = stage[:m].reshape(R, n)
                hn = np.zeros(w)  # each row's h repeated per component
                hn2 = hn[:m].reshape(R, n)
                est = np.empty((2, w))  # the two error estimates
                est3 = est[:, :m].reshape(2, R, n)
                y = np.zeros(w)
                y[:m] = y2.reshape(-1)
                h_floor = float(h_min.max())
                few = adaptive and R <= _FEW_ROWS
                if few:
                    t, h_step, carry, steps = (np.asarray(v).tolist() for v in (t, h_step, carry, steps))
                    rows_f, t_end_f = rows.tolist(), t_end.tolist()

        h = h_step
        hn2.T[...] = h
        # Each stage's state y + h (a_i . K) is formed in place in one buffer, in both forms (floats
        # cannot give BLAS's fused products), by _vector_field, which a system may override.
        for a_i, K_i, slot in plan:
            np.dot(a_i, K_i, stage)
            stage *= hn
            stage += y
            f(stage2, slot)
        y_new = np.dot(a[s], K[:s])
        y_new *= hn
        y_new += y
        y_new2 = y_new[:m].reshape(R, n)
        f(y_new2, slots[s])
        finite = None if np.isfinite(K).all() else np.isfinite(by_row).all(axis=(1, 2))
        if adaptive:
            np.dot(_E53, K, est)
        t0 = t
        if few:
            if finite is None:
                err = [_row_error(*r, rtol, atol) for r in zip(h, y2.tolist(), y_new2.tolist(), *est3.tolist())]
            if finite is not None or not all(e <= 1.0 for e in err):
                # A step that rejects or fails a row is rare: the array form
                # below takes it, and the buffers are rebuilt after it.
                t, h, carry, steps = map(np.array, (t, h, carry, steps))
                few, k0, K = False, slots[0], None
            else:
                # The power stays in NumPy, whose float64 power differs from
                # Python's ** in the last bit on about 6% of inputs.  Every
                # err is finite here, so max and min agree with NumPy's.
                powers = np.power([[e + 1e-16 for e in err], [max(e + 1e-16, 2e-16) for e in err]], _POWERS).tolist()
                h_next = [hj * min(5.0, max(0.2, p * 0.9 * c)) for hj, p, c in zip(h, powers[0], carry)]
                all_accepted, carry, t = True, powers[1], [tj + hj for tj, hj in zip(t, h)]
                steps = [k + 1 for k in steps]
                u = [j for j in range(R) if record.due[rows_f[j]] <= t[j]]
        if not few:
            if adaptive:
                scale = np.maximum(np.abs(y2), np.abs(y_new2))
                scale *= rtol
                scale += atol
                err = _error_norm(est3, h, scale)
                if finite is not None:
                    err[~finite] = np.nan
                # One power call for both of the controller's factors: the bases
                # are err + 1e-16 and max(err + 1e-16, 2e-16), which is bit for
                # bit max(err, 1e-16) + 1e-16, the next step's err_prev + 1e-16.
                powers = np.maximum(err + 1e-16, _FLOORS)
                powers **= _POWERS
                fac = powers[0] * 0.9
                fac *= carry
                h_next = h * np.minimum(5.0, np.maximum(0.2, fac))
                all_accepted = err.max() <= 1.0  # False where err is not finite
            else:
                all_accepted = finite is None
                if not all_accepted:
                    err = np.where(finite, 0.0, np.nan)  # read only by the finiteness check
                h_next = h
            t1 = t + h
            if all_accepted:
                t = t1
                u = np.flatnonzero(record.due[rows] <= t1)
                if adaptive:
                    carry = powers[1]
                steps += 1
            else:
                accept = err <= 1.0  # False where err is not finite
                failed = ~np.isfinite(err)
                for j in np.flatnonzero(failed):
                    errors[int(rows[j])] = f"non-finite state at t={t[j]:.6g}"
                reject = ~accept & ~failed
                if reject.any():  # retry with a smaller step
                    rejected += reject
                    h_next[reject] = h[reject] * np.maximum(0.2, np.minimum(1.0, 0.9 * err[reject] ** (-1 / _Q)))
                t = np.where(accept, t1, t)
                u = np.flatnonzero(accept & (record.due[rows] <= t1))
                if adaptive:
                    carry = np.where(accept, powers[1], carry)
                steps += accept

        if len(u) == R:
            record(rows, t0, h, y2, y_new2, by_row)
        elif len(u):
            record(rows[u], np.take(t0, u), np.take(h, u), y2[u], y_new2[u], by_row[u])
        if all_accepted:
            y, y2 = y_new, y_new2
            K[0] = K[s]
        elif np.any(accept):
            accept = np.reshape(accept, (R, 1))
            y = y.copy()  # y2 may be held by record
            y2 = y[:m].reshape(R, n)
            np.copyto(y2, y_new2, where=accept)
            np.copyto(slots[0], slots[s], where=accept)
        h = h_next

        passes += 1
        if passes > max_steps:  # no row can have more steps than passes
            over = np.greater(steps, max_steps)
            for j in np.flatnonzero(over):
                errors[int(rows[j])] = f"exceeded {max_steps} steps at t={t[j]:.6g}"
            failed = over if failed is None else failed | over


def _one_state(x0):
    x0 = as_float_array(x0, "x0")
    if x0.ndim != 1:
        raise DimensionError(f"x0 must be one state of shape (n,), got {x0.shape}")
    return x0


def integrate(
    sys: HamiltonianSystem,
    x0,
    t_end: float,
    rtol: float = _RTOL,
    atol: float = _ATOL,
    fixed_step: float | None = None,
    max_steps: int = _MAX_STEPS,
) -> DenseSolution:
    """Integrate the system's flow dx/dt = J grad H(x) from 0 to t_end with DOP853 and dense output.

    Raises :class:`UnsupportedSystemError` when sys is not a
    :class:`HamiltonianSystem`; :class:`DimensionError` for an x0 that is
    not one finite state of the system, a t_end, tolerance or fixed step
    that is not finite and positive, or a max_steps that is not a positive
    integer; and :class:`IntegrationError` when a stage turns non-finite,
    when the adaptive step size underflows below 1e-14 of the time span, or
    after more than ``max_steps`` steps.
    """
    t_end = check_positive(t_end, "t_end")
    max_steps = check_positive_int(max_steps, "max_steps")
    x0 = _one_state(x0)
    steps = _Steps(np.zeros(1))
    n_steps, n_rejected, errors = _dop853(
        sys, x0[None], np.array([t_end]), rtol, atol, fixed_step, max_steps, steps
    )
    if errors:
        raise IntegrationError(errors[0])
    _, t0, h, y0, y1, coeffs, finite = steps.dense(sys)
    if not finite.all():
        raise IntegrationError(_dense_failure(t0[np.argmin(finite)]))
    ts = np.append(t0, t0[-1] + h[-1])
    ys = np.concatenate([y0, y1[-1:]])
    return DenseSolution(ts, ys, coeffs, int(n_steps[0]), int(n_rejected[0]))


def _sample_rows(sys, x0, times):
    """States of the rows of x0 (B, n) at their own times (B, m), from one solve of sys.

    Each row is stepped to its latest time; the steps that contain a
    requested time are kept, and after the solve their dense output (that of
    :class:`DenseSolution`) is built and evaluated in one pass.  Times must
    be nonnegative.  Returns ``(states, errors)``: states has shape (B, m,
    n), and errors maps each failed row to its message; that row's states
    are NaN.  A row also fails if the dense output of one of its steps is
    not finite.
    """
    states = np.full(times.shape + (x0.shape[1],), np.nan)
    zero = times == 0.0
    states[zero] = np.broadcast_to(x0[:, None], states.shape)[zero]
    steps = _Steps(np.where(times > 0.0, times, np.inf).min(axis=1), times)
    _, _, errors = _dop853(sys, x0, times.max(axis=1), _RTOL, _ATOL, None, _MAX_STEPS, steps)
    if steps.parts:
        rows, t0, h, y0, _, F, finite = steps.dense(sys)
        # A row's first failing step is named, over any later failure of the stepper.
        for j in np.flatnonzero(~finite)[::-1]:
            errors[int(rows[j])] = _dense_failure(t0[j])
        i, c = (np.concatenate(part) for part in zip(*steps.samples))
        x = (times[rows[i], c] - t0[i]) / h[i]
        states[rows[i], c] = _nested(x[:, None], y0[i], F[i])
    states[list(errors)] = np.nan
    return states, errors


def sample_states(sys: HamiltonianSystem, x0, times) -> np.ndarray:
    """States of sys from x0 at the requested times (any order); one DOP853 integration pass."""
    times = as_float_array(times, "times").reshape(-1)
    if np.any(times < 0):
        raise DimensionError("sample times must be nonnegative")
    states, errors = _sample_rows(sys, _one_state(x0)[None], times[None])
    if errors:
        raise IntegrationError(errors[0])
    return states[0]


@dataclass
class TrajectoryDataset:
    """Sampled trajectories: exact initial conditions plus noisy observations.

    ``ics[n]`` is the exact initial condition of trajectory n; observation m
    of trajectory n is ``(sample_traj[i], sample_t[i], sample_y[i])`` rows
    with ``sample_traj`` indexing into ``ics``.  It holds at least one of
    each, and ``seed`` is None or a nonnegative integer; else DimensionError.
    """

    ics: np.ndarray  # (N, 2d)
    sample_traj: np.ndarray  # (S,) int
    sample_t: np.ndarray  # (S,)
    sample_y: np.ndarray  # (S, 2d)
    delta_t: float
    noise_std: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        self.ics = as_float_array(self.ics, "ics")
        self.sample_traj = np.asarray(self.sample_traj, dtype=int)
        self.sample_t = as_float_array(self.sample_t, "sample_t")
        self.sample_y = as_float_array(self.sample_y, "sample_y")
        self.delta_t = check_finite_scalar(self.delta_t, "delta_t")
        if self.ics.ndim != 2 or self.ics.shape[1] % 2:
            raise DimensionError(f"ics must have shape (N, 2d), got {self.ics.shape}")
        S, n = self.sample_t.size, self.ics.shape[1]
        if self.sample_t.shape != (S,) or self.sample_traj.shape != (S,) or self.sample_y.shape != (S, n):
            raise DimensionError(f"sample_traj, sample_t and sample_y must have shapes (S,), (S,) and (S, {n})")
        if not (self.n_trajectories and self.n_samples):
            raise DimensionError(f"a dataset needs a trajectory and a sample, got {self.n_trajectories} and {S}")
        if self.sample_traj.min() < 0 or self.sample_traj.max() >= len(self.ics):
            raise DimensionError("sample trajectory ids must index the initial conditions")
        if self.seed is not None:
            self.seed = check_positive_int(self.seed, "seed", minimum=0)
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
) -> TrajectoryDataset:
    """Sample initial conditions uniformly in the box and observe them.

    Sampling times are uniform in [0, delta_t] independently per trajectory;
    observations come from the reference integrator (DOP853) plus i.i.d.
    Gaussian noise per component.  Fully reproducible from the seed.
    """
    HamiltonianSystem.check(sys)
    n_trajectories = check_positive_int(n_trajectories, "n_trajectories")
    m_samples = check_positive_int(m_samples, "m_samples")
    delta_t = check_positive(delta_t, "delta_t")
    noise_std = check_finite_scalar(noise_std, "noise_std")
    if noise_std < 0:
        raise DimensionError(f"noise_std must be nonnegative, got {noise_std}")
    seed = check_positive_int(seed, "seed", minimum=0)
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
    states, errors = _sample_rows(sys, ics, times)
    if errors:
        n = min(errors)
        raise IntegrationError(f"trajectory {n}: {errors[n]}")
    ys = states + noise
    return TrajectoryDataset(
        ics=ics,
        sample_traj=traj_ids,
        sample_t=times.reshape(-1),
        sample_y=ys.reshape(-1, 2 * sys.d),
        delta_t=delta_t,
        noise_std=noise_std,
        seed=seed,
    )
