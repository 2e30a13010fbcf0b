"""Exact generating Hamiltonian of a trained flow model.

Because every layer pair is the exact flow of a known time-dependent
Hamiltonian, the composed map is itself a Hamiltonian flow.  The pair
(position shear then momentum shear) with potentials Vq, Vp generates

    H_pair(t, q, p) = d_t Vp(t, p) + d_t Vq(t, q - (grad Vp(t, p) - grad Vp(0, p))),

and the full model's Hamiltonian aggregates the pairs from the last layer to
the first, each evaluated at the point pulled back through the inverses of
the later pairs.  ``extract`` evaluates the closed-form sum; its gradient is
assembled by one reverse sweep over the inverse chain.  A pair's tap and its
inverse read the same points, so each potential is swept once per time in
each pass: 4 sweeps per pair forward and 4 back, 3 each for the first pair,
whose inverse is never needed.

The extracted Hamiltonian is defined up to an additive function of time
alone; this module fixes the representative produced by the recursion, with
no extra time-only offset.
"""

from __future__ import annotations

import numpy as np

from . import potential as pot
from .errors import DimensionError
from .model import SympFlowModel, _shear, _shear_vjp
from .validation import as_phase_points, check_finite_scalar, check_positive, check_positive_int

__all__ = [
    "pair_hamiltonian",
    "tail_inverse",
    "extract",
    "extract_gradient",
    "piecewise_hamiltonian",
]


def _check_pair_index(model: SympFlowModel, i: int, allow_plus_one: bool = False):
    top = model.n_layers + 1 if allow_plus_one else model.n_layers
    if check_positive_int(i, "layer index") > top:
        raise DimensionError(f"layer index must be in [1, {top}], got {i}")


def _pair_b(vq, vp, t, y: np.ndarray, last: bool):
    """Pair Hamiltonian at y, the points its potentials read, and the inverse pair.

    The pair reads Vp at p and Vq at the shifted point s = q - (grad Vp(t, p)
    - grad Vp(0, p)), which is also the position of the inverse pair's
    output; the sweep of Vq at (t, s) yields both d_t Vq and the inverse
    shear's grad Vq.  Returns ``(H, (s, p), inverse pair of y or None when
    last)``.
    """
    d = vq.d
    q, p = y[:, :d], y[:, d:]
    delta_p, _, vtp = _shear(vp, t, p)
    s = q - delta_p
    if last:
        vtq = pot.jet_grad_b(vq, t, s)[0][:, d]
        return vtp + vtq, (s, p), None
    delta_q, _, vtq = _shear(vq, t, s)
    return vtp + vtq, (s, p), np.concatenate([s, p + delta_q], axis=1)


def _tail_inverse_b(model: SympFlowModel, i: int, t, x: np.ndarray) -> np.ndarray:
    """Inverse of the composition of layer pairs i..L (1-based, i = L+1 is identity)."""
    for vq, vp in reversed(model.layers[i - 1 :]):
        x = _pair_b(vq, vp, t, x, last=False)[2]
    return x


def _extract_tape(model: SympFlowModel, t, x: np.ndarray):
    """Extracted Hamiltonian values and the points (s, p) read by each pair, pair 1 first."""
    total = np.zeros(x.shape[0])
    tape = []
    y = x
    for i in range(model.n_layers, 0, -1):
        vq, vp = model.layers[i - 1]
        val, points, y = _pair_b(vq, vp, t, y, last=i == 1)
        total += val
        tape.append(points)
    return total, tape[::-1]


def _extract_b(model: SympFlowModel, t, x: np.ndarray) -> np.ndarray:
    return _extract_tape(model, t, x)[0]


def pair_hamiltonian(model: SympFlowModel, i: int, t, x):
    """Hamiltonian generating layer pair i (1-based) at (t, x); one value per row of a batch."""
    _check_pair_index(model, i)
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    vq, vp = model.layers[i - 1]
    vals = _pair_b(vq, vp, t, xb, last=True)[0]
    return float(vals[0]) if single else vals


def tail_inverse(model: SympFlowModel, i: int, t, x):
    """Invert the pairs i..L at time t; i = L+1 returns x unchanged."""
    _check_pair_index(model, i, allow_plus_one=True)
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    out = _tail_inverse_b(model, i, t, xb)
    return out[0] if single else out


def extract(model: SympFlowModel, t, x) -> float:
    """The model's generating Hamiltonian at (t, x) (closed-form pair sum)."""
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    vals = _extract_b(model, t, xb)
    return float(vals[0]) if single else vals


def _extract_pullback(model: SympFlowModel, t, tape, c: np.ndarray):
    """Gradient of sum_i c_i * extract(model, t, x_i) from the tape of :func:`_extract_tape`.

    Walks the pairs from the first (deepest) to the last with the cotangent
    w on the pair's output; each potential takes one fused pullback per
    time, with c on its time partial and w on its shear.  Returns ``(gx,
    gtheta)``.
    """
    d = model.d
    grads = []
    w = None
    for (vq, vp), (s, p) in zip(model.layers, tape):
        wq, wp = (None, None) if w is None else (w[:, :d], w[:, d:])
        gs, _, gth_q = _shear_vjp(vq, t, s, w=wp, wt=c)
        ws = gs if wq is None else wq + gs
        gp, _, gth_p = _shear_vjp(vp, t, p, w=-ws, wt=c)
        w = np.concatenate([ws, gp if wp is None else wp + gp], axis=1)
        grads += [gth_q, gth_p]
    return w, np.concatenate(grads)


def extract_vjp(model: SympFlowModel, t, x: np.ndarray, c: np.ndarray):
    """Gradient of sum_i c_i * extract(model, t, x_i) in x and in the parameters.

    One forward sweep over the inverse chain, then one reverse sweep;
    returns ``(gx (B, 2d), gtheta)`` with gtheta flattened in the model's
    canonical parameter order.
    """
    _, tape = _extract_tape(model, t, x)
    return _extract_pullback(model, t, tape, c)


def extract_gradient(model: SympFlowModel, t, x):
    """Exact phase-space gradient of the extracted Hamiltonian at (t, x), from :func:`extract_vjp`."""
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    gx, _ = extract_vjp(model, t, xb, np.ones(xb.shape[0]))
    return gx[0] if single else gx


def piecewise_hamiltonian(model: SympFlowModel, delta_t: float, t: float, x) -> float:
    """Extracted Hamiltonian of the periodic long-time extension.

    Evaluates at the within-window time t - delta_t * floor(t / delta_t).
    """
    delta_t = check_positive(delta_t, "delta_t")
    t = check_finite_scalar(t, "t")
    if t < 0:
        raise DimensionError(f"t must be nonnegative, got {t}")
    remainder = t - delta_t * np.floor(t / delta_t)
    return extract(model, remainder, x)
