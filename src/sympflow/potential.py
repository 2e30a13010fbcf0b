"""Scalar potential networks and their exact derivative quantities.

A :class:`PotentialNet` is a fixed two-hidden-layer tanh network mapping
``(t, q)`` to a scalar,

    V(t, q) = A3 tanh(A2 tanh(A1 [q; t] + b1) + b2) + b3,

with input dimension ``d`` and hidden width ``h``.  The shear layers of the
flow model need its value, its time partial, its input gradient, the mixed
time/input gradient, and Hessian-vector products, as well as exact parameter
gradients of each of those quantities.  All of them are computed analytically
through the shared jet sweeps in :mod:`sympflow._jet`; nothing here uses
finite differences.

Parameter vectors use a fixed canonical order (A1 row-major, b1, A2
row-major, b2, A3, b3) so checkpoints are bit-stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._jet import Jet, chain_backward, chain_forward, flatten, inputs, unflatten
from .errors import DimensionError
from .validation import as_vector, check_finite_scalar

__all__ = [
    "PotentialNet",
    "QuantityKind",
    "random_potential_net",
    "zero_potential_net",
    "value",
    "time_partial",
    "grad_input",
    "mixed_time_input_gradient",
    "hessian_vector_product",
    "param_grad",
    "param_count",
    "params_to_vector",
    "net_with_params",
]


class QuantityKind(enum.Enum):
    """Derivative quantities for which parameter gradients are exported."""

    VALUE = "value"
    TIME_PARTIAL = "time_partial"
    INPUT_GRADIENT = "input_gradient"
    MIXED_TIME_INPUT_GRADIENT = "mixed_time_input_gradient"


@dataclass(frozen=True)
class PotentialNet:
    """Weights of one scalar potential; treated as immutable during evaluation."""

    d: int
    h: int
    A1: np.ndarray  # (h, d+1); last column multiplies the time input
    b1: np.ndarray  # (h,)
    A2: np.ndarray  # (h, h)
    b2: np.ndarray  # (h,)
    A3: np.ndarray  # (1, h)
    b3: np.ndarray  # (1,)

    def __post_init__(self):
        if self.d < 1 or self.h < 1:
            raise DimensionError("d and h must be positive")
        shapes = {
            "A1": (self.h, self.d + 1),
            "b1": (self.h,),
            "A2": (self.h, self.h),
            "b2": (self.h,),
            "A3": (1, self.h),
            "b3": (1,),
        }
        for name, want in shapes.items():
            arr = getattr(self, name)
            if arr.shape != want:
                raise DimensionError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DimensionError(f"{name} contains non-finite entries")

    @property
    def weights(self):
        return ((self.A1, self.b1), (self.A2, self.b2), (self.A3, self.b3))

    @property
    def n_params(self) -> int:
        return param_count(self)


def param_count(net: PotentialNet) -> int:
    h, d = net.h, net.d
    return h * (d + 1) + h + h * h + h + h + 1


def random_potential_net(d: int, rng: np.random.Generator, h: int = 10) -> PotentialNet:
    """Seeded init, uniform on +-sqrt(1/fan_in) per layer (biases included)."""

    def layer(n_out, n_in):
        s = np.sqrt(1.0 / n_in)
        return (
            rng.uniform(-s, s, size=(n_out, n_in)),
            rng.uniform(-s, s, size=(n_out,)),
        )

    A1, b1 = layer(h, d + 1)
    A2, b2 = layer(h, h)
    A3, b3 = layer(1, h)
    return PotentialNet(d, h, A1, b1, A2, b2, A3, b3)


def zero_potential_net(d: int, h: int = 10) -> PotentialNet:
    return PotentialNet(
        d,
        h,
        np.zeros((h, d + 1)),
        np.zeros(h),
        np.zeros((h, h)),
        np.zeros(h),
        np.zeros((1, h)),
        np.zeros(1),
    )


def params_to_vector(net: PotentialNet) -> np.ndarray:
    return flatten(net.weights)


def net_with_params(net: PotentialNet, vec: np.ndarray) -> PotentialNet:
    """A net of ``net``'s shape with the parameters of a copy of ``vec``."""
    return _net_over(net, np.array(vec, dtype=float))


def _net_over(net: PotentialNet, buf: np.ndarray) -> PotentialNet:
    """A net of ``net``'s shape whose weights are views of the flat float vector ``buf``."""
    (A1, b1), (A2, b2), (A3, b3) = unflatten(buf, net.weights)
    return PotentialNet(net.d, net.h, A1, b1, A2, b2, A3, b3)


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
    is ``[q_i, 0]`` with the direction's time part 0.
    """
    B, d = q.shape
    if d != net.d:
        raise DimensionError(f"q must have {net.d} columns, got {d}")
    parts = [(0, q, t)]  # (component, head, tail) of each component present
    for i, p in enumerate((da, db, dab), 1):
        if p is not None and (p[0] is not None or p[1] is not None):
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


def value_b(net: PotentialNet, t, q: np.ndarray) -> np.ndarray:
    return _forward(net, t, q)[-1].x0[:, 0]


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


def grad_time_b(net: PotentialNet, t, q: np.ndarray):
    """Input gradient and time partial in one reverse sweep: (g (B,d), vt (B,))."""
    g, _ = jet_grad_b(net, t, q)
    return g[:, : net.d].copy(), g[:, net.d].copy()


def hvp_b(net: PotentialNet, t, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return jet_grad_b(net, t, q, (v, None))[1][:, : net.d].copy()


def mixed_b(net: PotentialNet, t, q: np.ndarray) -> np.ndarray:
    """d/dt of the input gradient, shape (B, d)."""
    return jet_grad_b(net, t, q, (None, 1.0))[1][:, : net.d].copy()


def value_vjp(net: PotentialNet, t, q: np.ndarray, cot: np.ndarray):
    """Pullback of per-point cotangents on V. Returns ((B, d+1) input grads, flat theta grad)."""
    jets = _forward(net, t, q)
    gin, gp = chain_backward(net.weights, jets, Jet(x0=cot[:, None]))
    return gin.x0, flatten(gp)


# ---------------------------------------------------------------------------
# Single-point public operations.
# ---------------------------------------------------------------------------


def _point(net, t, q):
    q = as_vector(q, net.d, "q")
    t = check_finite_scalar(t, "t")
    return t, q[None, :]


def value(net: PotentialNet, t, q) -> float:
    """Evaluate V(t, q)."""
    t, qb = _point(net, t, q)
    return float(value_b(net, t, qb)[0])


def time_partial(net: PotentialNet, t, q) -> float:
    """Exact dV/dt at (t, q)."""
    t, qb = _point(net, t, q)
    return float(grad_time_b(net, t, qb)[1][0])


def grad_input(net: PotentialNet, t, q) -> np.ndarray:
    """Exact gradient of V with respect to q."""
    t, qb = _point(net, t, q)
    g, _ = grad_time_b(net, t, qb)
    return g[0]


def mixed_time_input_gradient(net: PotentialNet, t, q) -> np.ndarray:
    """Exact d/dt of the q-gradient."""
    t, qb = _point(net, t, q)
    return mixed_b(net, t, qb)[0]


def hessian_vector_product(net: PotentialNet, t, q, v) -> np.ndarray:
    """Exact (Hess_q V) v."""
    t, qb = _point(net, t, q)
    v = as_vector(v, net.d, "v")
    return hvp_b(net, t, qb, v[None, :])[0]


def param_grad(net: PotentialNet, kind: QuantityKind, t, q, cotangent) -> np.ndarray:
    """Exact parameter gradient of <cotangent, quantity(net, t, q)>.

    The cotangent must be a scalar for VALUE and TIME_PARTIAL, and a vector
    of length d for the gradient-valued quantities.
    """
    t, qb = _point(net, t, q)
    kind = QuantityKind(kind)
    if kind in (QuantityKind.VALUE, QuantityKind.TIME_PARTIAL):
        cot = np.asarray(cotangent, dtype=float)
        if cot.shape not in ((), (1,)):
            raise DimensionError(f"cotangent for {kind.value} must be a scalar")
        cot = np.broadcast_to(cot, (1,)).astype(float)
        if kind is QuantityKind.VALUE:
            return value_vjp(net, t, qb, cot)[1]
        return jet_vjp(net, t, qb, c=(None, cot))[2]
    W = as_vector(cotangent, net.d, "cotangent")[None, :]
    if kind is QuantityKind.INPUT_GRADIENT:
        return jet_vjp(net, t, qb, c=(W, None))[2]
    return jet_vjp(net, t, qb, (None, 1.0), (W, None))[2]
