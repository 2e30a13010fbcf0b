"""Exact generating Hamiltonian of a trained flow model.

Because every layer pair is the exact flow of a known time-dependent
Hamiltonian, the composed map is itself a Hamiltonian flow.  The pair
(position shear then momentum shear) with potentials Vq, Vp generates

    H_pair(t, q, p) = d_t Vp(t, p) + d_t Vq(t, q - (grad Vp(t, p) - grad Vp(0, p))),

and the full model's Hamiltonian aggregates the pairs from the last layer to
the first, each evaluated at the point pulled back through the inverses of
the later pairs.  Both terms are the d_t V of an inverse shear at the point
it reads, so ``extract`` runs the model's inverse shear chain
(:func:`sympflow.model._chain_b` over ``model._inverse``) and sums the d_t V
it returns; the gradient is the chain's one pullback, with the cotangent on
every d_t V.  Each potential is swept once per time in each pass: 4 sweeps
per pair forward and 4 back, 3 each for the first pair, whose inverse is
never needed.

The extracted Hamiltonian is defined up to an additive function of time
alone; this module fixes the representative produced by the recursion, with
no extra time-only offset.
"""

from __future__ import annotations

import numpy as np

from . import potential as pot
from .errors import DimensionError
from .model import SympFlowModel, _chain_b, _chain_vjp, _halves
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


def _extract_tape(model: SympFlowModel, t, x: np.ndarray):
    """Extracted Hamiltonian values and the tape of :func:`_extract_pullback`, the input of each inverse shear.

    All inverse shears run but the last, Vq_1's, whose d_t V alone comes from one sweep at t: a paired
    sweep would add the sweep at 0, and its d_t V can differ from the single sweep's in the last bit.
    """
    tape = []
    y, _, vts = _chain_b(model._inverse[:-1], t, x, tape=tape)
    tape.append((y, None))
    _, net, momentum, _ = model._inverse[-1]
    vts.append(pot.jet_grad_b(net, t, y[:, _halves(model.d, momentum)[0]])[0][:, model.d])
    total = np.zeros(x.shape[0])
    for vtp, vtq in zip(vts[::2], vts[1::2]):
        total += vtp + vtq
    return total, tape


def _extract_b(model: SympFlowModel, t, x: np.ndarray) -> np.ndarray:
    return _extract_tape(model, t, x)[0]


def pair_hamiltonian(model: SympFlowModel, i: int, t, x):
    """Hamiltonian generating layer pair i (1-based) at (t, x); one value per row of a batch."""
    _check_pair_index(model, i)
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    vals = _extract_b(SympFlowModel(model.d, (model.layers[i - 1],)), t, xb)
    return float(vals[0]) if single else vals


def tail_inverse(model: SympFlowModel, i: int, t, x):
    """Invert the pairs i..L at time t; i = L+1 returns x unchanged."""
    _check_pair_index(model, i, allow_plus_one=True)
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    out = _chain_b(model._inverse[: 2 * (model.n_layers + 1 - i)], t, xb)[0]
    return out[0] if single else out


def extract(model: SympFlowModel, t, x) -> float:
    """The model's generating Hamiltonian at (t, x) (closed-form pair sum)."""
    xb, single = as_phase_points(x, 2 * model.d)
    t = check_finite_scalar(t, "t")
    vals = _extract_b(model, t, xb)
    return float(vals[0]) if single else vals


def _extract_pullback(model: SympFlowModel, t, tape, c: np.ndarray):
    """Gradient ``(gx, gtheta)`` of sum_i c_i * extract(model, t, x_i) from the tape of :func:`_extract_tape`.

    The inverse chain's pullback, with c on every d_t V and no cotangent on the output.
    """
    return _chain_vjp(model._inverse, t, tape, None, wt=c)


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
