"""Scalar potential networks and the jet sweeps that differentiate them.

A :class:`PotentialNet` is a fixed two-hidden-layer tanh network mapping
``(t, q)`` to a scalar,

    V(t, q) = A3 tanh(A2 tanh(A1 [q; t] + b1) + b2) + b3,

with input dimension ``d`` and hidden width ``h``.  The shear layers of the
flow model need its input gradient and time partial, their directional
derivatives, and exact parameter gradients of sums of these.  Two batched
sweeps through :mod:`sympflow._jet` serve all of them: :func:`jet_grad_b`
and :func:`jet_vjp`.  Nothing here uses finite differences.

A net holds its ``weights`` as the three ``(A, b)`` pairs of the chain, as
:class:`sympflow.mlp.MlpFlowModel` holds its own, and its parameter vector
is their :func:`sympflow._jet.flatten`, in the canonical order (A1
row-major, b1, A2 row-major, b2, A3, b3) that keeps checkpoints bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jet import Jet, chain_backward, chain_forward, flatten, inputs, unflatten
from ._jet import check_chain, random_chain, zero_chain
from .errors import DimensionError

__all__ = [
    "PotentialNet",
    "random_potential_net",
    "zero_potential_net",
    "param_count",
    "params_to_vector",
    "net_with_params",
]


@dataclass(frozen=True)
class PotentialNet:
    """Weights of one scalar potential; treated as immutable during evaluation."""

    d: int
    h: int
    weights: tuple[tuple[np.ndarray, np.ndarray], ...]  # (A1, b1), (A2, b2), (A3, b3); A1's last column multiplies t

    def __post_init__(self):
        if self.d < 1 or self.h < 1 or len(self.weights) != 3:
            raise DimensionError(
                f"a potential net needs d and h of at least 1 and three affine maps, "
                f"got d={self.d}, h={self.h} and {len(self.weights)} maps"
            )
        check_chain(self.weights, _widths(self.d, self.h))

    @property
    def n_params(self) -> int:
        return param_count(self)


def param_count(net: PotentialNet) -> int:
    return sum(A.size + b.size for A, b in net.weights)


def _widths(d: int, h: int):
    """The widths of the chain [q; t] -> h -> h -> V."""
    return (d + 1, h, h, 1)


def random_potential_net(d: int, rng: np.random.Generator, h: int = 10) -> PotentialNet:
    """Seeded init by the package's law, :func:`sympflow._jet.random_chain`."""
    return PotentialNet(d, h, tuple(random_chain(_widths(d, h), rng)))


def zero_potential_net(d: int, h: int = 10) -> PotentialNet:
    return PotentialNet(d, h, tuple(zero_chain(_widths(d, h))))


def params_to_vector(net: PotentialNet) -> np.ndarray:
    return flatten(net.weights)


def net_with_params(net: PotentialNet, vec: np.ndarray) -> PotentialNet:
    """A net of ``net``'s shape with the parameters of a copy of ``vec``."""
    return PotentialNet(net.d, net.h, tuple(unflatten(np.array(vec, dtype=float), net.weights)))


# ---------------------------------------------------------------------------
# Batched kernels.  t is a scalar or (B,), q is (B, d); directions are pairs
# (dq, dt) on the input u = [q; t], with dq of shape (B, d) or None and dt a
# scalar, a (B,) array or None.  A pair of two Nones is no direction at all.
#
# Two sweeps serve every quantity.  ``jet_grad_b`` pushes one direction a and
# pulls back the cotangent 1 on d_a V: since d_a V = <grad_u V, a> is
# bilinear, that one pullback returns grad_u V (on the direction, gin.xa)
# and Hess_u V a (on the point, gin.x0).  ``jet_vjp`` pushes a, b and the
# cross term c; the mixed output of the jet is then
#     F = <b, Hess_u V a> + <c, grad_u V>
# and pulling back 1 on it gives the parameter gradient of any such sum of a
# second-order and a first-order quantity in one sweep.
# ---------------------------------------------------------------------------


def _u_jet(net: PotentialNet, t, q: np.ndarray, da=None, db=None, dab=None, paired=False) -> Jet:
    """The input jet ``[q; t]`` with its directions, in the input arena of :mod:`sympflow._jet`.

    Each component is a ``(B, d+1)`` column-major view, the layout the
    sweeps work in.  With ``paired`` every row appears twice, in adjacent
    rows: row 2i is ``[q_i, t_i]`` with each direction as given, row 2i+1
    is ``[q_i, 0]`` with the direction's time part 0.  A direction's q part
    that is not ``(B, d)`` raises DimensionError rather than broadcasting.
    """
    B, d = q.shape
    if d != net.d:
        raise DimensionError(f"q must have {net.d} columns, got {d}")
    parts = [(0, q, t)]  # (component, head, tail) of each component present
    for i, p in enumerate((da, db, dab), 1):
        if p is None or (p[0] is None and p[1] is None):
            continue
        if p[0] is not None and np.shape(p[0]) != (B, d):
            raise DimensionError(f"a direction's q part must have shape ({B}, {d}), got {np.shape(p[0])}")
        parts.append((i, *p))
    comps = [None] * 4
    for (i, head, tail), u in zip(parts, inputs(d + 1, 2 * B if paired else B, len(parts))):
        if paired:
            u[:d].reshape(d, B, 2)[...] = 0.0 if head is None else head.T[:, :, None]
            u[d, ::2] = 0.0 if tail is None else tail
            u[d, 1::2] = 0.0
        else:
            u[:d] = 0.0 if head is None else head.T
            u[d] = 0.0 if tail is None else tail
        comps[i] = u.T
    return Jet(*comps)


def _forward(net, t, q, da=None, db=None, dab=None):
    return chain_forward(net.weights, _u_jet(net, t, q, da, db, dab))


_UNIT = {}  # the cotangent jets of _unit by (B, component), at most 64 of them


def _unit(B, component):
    """The cotangent 1 on one component of a scalar jet: a Jet of a read-only (B, 1) ones column."""
    g = _UNIT.get((B, component))
    if g is None:
        if len(_UNIT) >= 64:
            _UNIT.clear()
        ones = np.ones((B, 1))
        ones.flags.writeable = False
        g = _UNIT[B, component] = Jet(**{component: ones})
    return g


def jet_grad_b(net: PotentialNet, t, q: np.ndarray, a=None, paired=False):
    """grad_u V and grad_u d_a V at u = [q; t] from one sweep, each (B, d+1).

    Without a direction the second is None and the sweep carries the value
    only.  With ``paired`` both are taken over the 2B rows of
    :func:`_u_jet`'s paired input.
    """
    W = net.weights
    jets = chain_forward(W, _u_jet(net, t, q, a, None, None, paired))
    B = jets[0].x0.shape[0]
    if jets[0].xa is None:
        return chain_backward(W, jets, _unit(B, "x0"), with_params=False)[0].x0, None
    gin = chain_backward(W, jets, _unit(B, "xa"), with_params=False)[0]
    return gin.xa, gin.x0


def jet_vjp(net: PotentialNet, t, q: np.ndarray, a=None, b=None, c=None):
    """Pullback of F = <b, Hess_u V a> + <c, grad_u V>, summed over the batch.

    Returns ``(gu, ga, gtheta)``: grad_u F (B, d+1), dF/da = Hess_u V b
    (B, d+1; None without b) and the flat parameter gradient.
    """
    jets = _forward(net, t, q, da=a, db=b, dab=c)
    gin, gp = chain_backward(net.weights, jets, _unit(q.shape[0], "xab"))
    return gin.x0, gin.xa, flatten(gp)
