"""The symplectic flow map: shear layers, composition, inverses, derivatives.

A model with L layer pairs applies, in order for i = 1..L,

    position shear   (q, p) -> (q, p - (grad_q Vq_i(t, q) - grad_q Vq_i(0, q)))
    momentum shear   (q, p) -> (q + (grad_p Vp_i(t, p) - grad_p Vp_i(0, p)), p)

Each shear is the exact flow of a Hamiltonian depending on only one half of
the phase space, so the composition is symplectic for every t and reduces to
the identity at t = 0 (the parenthesised differences vanish bitwise).
Inverses flip the sign of the update and are exact because the coordinate
the update depends on is untouched.

All operations accept a single point of shape ``(2d,)`` or a batch
``(B, 2d)`` and are pure; ``t`` may be a scalar or a length-B array.

One chain of shears (``_chain_b``) serves the flow map, its time derivative
and its Jacobian by optionally carrying a tangent, and one pullback
(``_pullback``) serves the map and its time derivative.  ``_forward_b``,
``_taped`` and ``_pullback`` are the model protocol that :mod:`sympflow.mlp`
shares.

A forward shear sweeps its potential once, over each point at t and at 0
in adjacent rows (``_shear``): at the 1-22 rows of an evaluation a sweep
costs its per-call overhead, so one sweep of 2B rows takes about half the
time of two of B.  The pullback (``_shear_vjp``) keeps one sweep per time.
It serves training, whose batches of about a thousand rows make a sweep's
cost arithmetic, so stacking saves nothing there; and its jet carries four
components where a forward sweep carries one or two, so stacked it would be
the largest sweep and the thread's jet workspace would grow to hold it.  In
regularized Hénon-Heiles training at 1024 rows (2-core x86-64 VM) a stacked
pullback raised the peak resident set by 2.5 MB and gained no time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import potential as pot
from .errors import DimensionError
from .potential import PotentialNet
from .validation import as_phase_points, check_finite_scalar, check_time

__all__ = [
    "SympFlowModel",
    "random_sympflow",
    "zero_sympflow",
    "apply_q_layer",
    "apply_p_layer",
    "invert_q_layer",
    "invert_p_layer",
    "forward",
    "time_derivative",
    "jacobian",
    "param_count",
    "params_to_vector",
    "model_with_params",
    "symplectic_matrix",
]


@dataclass(frozen=True)
class SympFlowModel:
    """L ordered pairs of potential nets (position net, momentum net)."""

    kind: ClassVar[str] = "sympflow"

    d: int
    layers: tuple[tuple[PotentialNet, PotentialNet], ...]

    def __post_init__(self):
        if len(self.layers) < 1:
            raise DimensionError("model needs at least one layer pair")
        for vq, vp in self.layers:
            if vq.d != self.d or vp.d != self.d:
                raise DimensionError("all potential nets must share the model dimension")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def h(self) -> int:
        return self.layers[0][0].h


def random_sympflow(d: int, n_layers: int, rng: np.random.Generator, h: int = 10) -> SympFlowModel:
    layers = tuple(
        (pot.random_potential_net(d, rng, h), pot.random_potential_net(d, rng, h))
        for _ in range(n_layers)
    )
    return SympFlowModel(d, layers)


def zero_sympflow(d: int, n_layers: int, h: int = 10) -> SympFlowModel:
    layers = tuple(
        (pot.zero_potential_net(d, h), pot.zero_potential_net(d, h))
        for _ in range(n_layers)
    )
    return SympFlowModel(d, layers)


def param_count(model: SympFlowModel) -> int:
    return sum(vq.n_params + vp.n_params for vq, vp in model.layers)


def params_to_vector(model: SympFlowModel) -> np.ndarray:
    return np.concatenate([pot.params_to_vector(net) for pair in model.layers for net in pair])


def model_with_params(model: SympFlowModel, vec: np.ndarray) -> SympFlowModel:
    """A model of ``model``'s shape with the parameters of a copy of ``vec``."""
    return _model_over(model, np.array(vec, dtype=float))


def _model_over(model: SympFlowModel, buf: np.ndarray) -> SympFlowModel:
    """A model of ``model``'s shape whose weights are views of the flat float vector ``buf``.

    A write to ``buf`` changes the model in place, unchecked: the caller
    keeps ``buf`` finite.
    """
    if buf.shape != (param_count(model),):
        raise DimensionError(
            f"parameter vector must have length {param_count(model)}, got {buf.shape}"
        )
    nets, ofs = [], 0
    for net in (n for pair in model.layers for n in pair):
        nets.append(pot._net_over(net, buf[ofs : ofs + net.n_params]))
        ofs += net.n_params
    return SympFlowModel(model.d, tuple(zip(nets[::2], nets[1::2])))


def symplectic_matrix(d: int) -> np.ndarray:
    """Canonical structure matrix [[0, I], [-I, 0]]."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


# ---------------------------------------------------------------------------
# Shear layers.  Batched kernels take x (B, 2d); t scalar or (B,).
# ---------------------------------------------------------------------------


def _shear(net: PotentialNet, t, y: np.ndarray, vy=None, dt=None):
    """The shear update of the net reading the half-state y, and its tangent.

    Returns ``(delta, ddelta, vt)``: ``delta = grad V(t, y) - grad V(0, y)``;
    ``ddelta``, when the tangent vy of y is given, is the derivative of delta
    along (vy, dt) in (y, t), i.e. ``Hess V(t, y) vy + dt d_t grad V(t, y) -
    Hess V(0, y) vy`` (None otherwise); ``vt = d_t V(t, y)``.

    One sweep over 2B rows serves both times: row 2i is [y_i, t_i] with the
    tangent [vy_i, dt], row 2i+1 is [y_i, 0] with [vy_i, 0], and the
    pullback yields grad V and the tangent term on each.  The potential
    writes these rows straight into its sweep's input buffers
    (``paired``), in the sweeps' column-major layout, so the rows are not
    first assembled here.  The two rows of a pair are adjacent so that
    every kernel rounds them alike: BLAS and SIMD loops split a batch into
    blocks of even width and a tail, and a pair never straddles the two.
    At t = 0 the pair's rows are equal, so delta is zero bitwise.  Stacked
    as [y; y] instead, the halves of a product by a one-row matrix (a
    hidden layer of width 1, which OpenBLAS takes as a gemv) fell in
    different blocks at some odd B, and the map at t = 0 was not the
    identity.
    """
    d = net.d
    g, hv = pot.jet_grad_b(net, t, y, (vy, dt), paired=True)
    ddelta = None if vy is None else hv[::2, :d] - hv[1::2, :d]
    return g[::2, :d] - g[1::2, :d], ddelta, g[::2, d]


def _shear_vjp(net: PotentialNet, t, y: np.ndarray, w=None, vy=None, wv=None, dt=None, wt=None):
    """Pullback through :func:`_shear`: cotangents w on delta, wv on ddelta, wt on vt.

    Returns ``(gy, gvy, gtheta)``, the gradients of ``<w, delta> + <wv,
    ddelta> + <wt, vt>`` in y, in vy (None without a tangent) and in the
    net's parameters.  One sweep per time: the jet carries a = [vy, dt],
    b = [wv, 0] and the cross term c = [w, wt], so its mixed output is that
    whole sum.  The sweep at time 0 is skipped when only wt is given.
    """
    d = net.d
    gy, gv, gth = pot.jet_vjp(net, t, y, (vy, dt), (wv, None), (w, wt))
    if w is not None or wv is not None:
        gy0, gv0, gth0 = pot.jet_vjp(net, 0.0, y, (vy, None), (wv, None), (w, None))
        gy, gth = gy - gy0, gth - gth0
        gv = None if gv is None else gv - gv0
    return gy[:, :d], None if gv is None else gv[:, :d], gth


@functools.cache
def _halves(d, momentum):
    """(read, write, sign) of a shear.

    The position shear moves p by -delta(q), the momentum shear q by +delta(p).
    """
    if momentum:
        return slice(d, None), slice(None, d), 1.0
    return slice(None, d), slice(d, None), -1.0


def _shear_step(net, t, x, v=None, dt=None, momentum=False, sign=1.0):
    """Apply one shear (sign -1: its inverse) to x and, when given, to the tangent v."""
    read, write, s = _halves(net.d, momentum)
    delta, ddelta, _ = _shear(net, t, x[:, read], None if v is None else v[:, read], dt)
    # Adding (s * sign) * delta with s * sign = +-1 rounds as adding or subtracting delta.
    move = np.add if s * sign > 0 else np.subtract
    x = x.copy()
    half = x[:, write]
    move(half, delta, half)
    if v is not None:
        v = v.copy()
        half = v[:, write]
        move(half, ddelta, half)
    return x, v


def _layer_op(net, t, x, momentum, sign):
    xb, single = as_phase_points(x, 2 * net.d)
    out = _shear_step(net, check_time(t, xb.shape[0]), xb, momentum=momentum, sign=sign)[0]
    return out[0] if single else out


def apply_q_layer(net: PotentialNet, t, x):
    """Position shear: update p from the q-potential, q untouched."""
    return _layer_op(net, t, x, False, 1.0)


def apply_p_layer(net: PotentialNet, t, x):
    """Momentum shear: update q from the p-potential, p untouched."""
    return _layer_op(net, t, x, True, 1.0)


def invert_q_layer(net: PotentialNet, t, x):
    """Exact inverse of the position shear (sign-flipped update)."""
    return _layer_op(net, t, x, False, -1.0)


def invert_p_layer(net: PotentialNet, t, x):
    """Exact inverse of the momentum shear."""
    return _layer_op(net, t, x, True, -1.0)


# ---------------------------------------------------------------------------
# Full map: one chain of shears, optionally carrying a tangent and recording
# the input of every shear, and its pullback.
# ---------------------------------------------------------------------------


def _chain_b(model: SympFlowModel, t, x: np.ndarray, v=None, dt=None, tape=None):
    """Push x, and the tangent v when given, through every shear; returns (x, v).

    With ``dt=1`` and v = 0 the tangent leaves as d/dt of the flow; with
    ``dt=None`` it leaves as the Jacobian applied to v.  When ``tape`` is a
    list, the input ``(x, v)`` of every shear is appended to it.
    """
    for vq, vp in model.layers:
        for net, momentum in ((vq, False), (vp, True)):
            if tape is not None:
                tape.append((x, v))
            x, v = _shear_step(net, t, x, v, dt, momentum)
    return x, v


def _taped(model: SympFlowModel, t, x: np.ndarray, velocity: bool = False):
    """The flow map, its time derivative when ``velocity``, and the tape of :func:`_pullback`.

    Returns ``(x_out, v or None, tape)``; the tape holds the input of every
    shear.
    """
    tape = []
    v0, dt = (np.zeros_like(x), 1.0) if velocity else (None, None)
    x, v = _chain_b(model, t, x, v0, dt, tape)
    return x, v, tape


def _pullback(model: SympFlowModel, t, tape, wx: np.ndarray, wv=None):
    """Pull cotangents wx on the map and wv on its time derivative back through a tape.

    ``tape`` comes from :func:`_taped`; wv needs one recorded with the
    velocity.  Returns ``(gx, gtheta)`` with gtheta flat in the model's
    canonical parameter order.
    """
    dt = None if tape[0][1] is None else 1.0
    nets = [net for pair in model.layers for net in pair]
    grads = [None] * len(nets)
    for k in range(len(nets) - 1, -1, -1):
        x, v = tape[k]
        read, write, s = _halves(model.d, k % 2 == 1)
        gy, gv, grads[k] = _shear_vjp(
            nets[k],
            t,
            x[:, read],
            s * wx[:, write],
            None if v is None else v[:, read],
            None if wv is None else s * wv[:, write],
            dt,
        )
        wx = wx.copy()
        wx[:, read] += gy
        if wv is not None:
            wv = wv.copy()
            wv[:, read] += gv
    return wx, np.concatenate(grads)


def _forward_b(model: SympFlowModel, t, x: np.ndarray) -> np.ndarray:
    return _chain_b(model, t, x)[0]


def forward(model: SympFlowModel, t, x):
    """Apply the full layer composition at time t; identity at t = 0."""
    xb, single = as_phase_points(x, 2 * model.d)
    out = _forward_b(model, check_time(t, xb.shape[0]), xb)
    return out[0] if single else out


def time_derivative(model: SympFlowModel, t, x):
    """Exact d/dt of the flow at fixed x, carried as a tangent through the shear chain."""
    xb, single = as_phase_points(x, 2 * model.d)
    out = _taped(model, check_time(t, xb.shape[0]), xb, velocity=True)[1]
    return out[0] if single else out


def jacobian(model: SympFlowModel, t, x) -> np.ndarray:
    """Exact Jacobian of x -> forward(model, t, x), assembled column by column.

    The 2d basis tangents are propagated through the layer chain as one batch
    of Hessian-vector products.
    """
    xb, single = as_phase_points(x, 2 * model.d)
    if not single:
        raise DimensionError("jacobian expects a single phase point")
    t = check_finite_scalar(t, "t")
    n = 2 * model.d
    pts = np.repeat(xb, n, axis=0)
    cols = _chain_b(model, t, pts, np.eye(n))[1]
    return cols.T.copy()
