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

A shear is data, ``(k, net, momentum, sign)`` with k the net's canonical
index; a model keeps the map's sequence (``_shears``) and its inverse's
(``_inverse``: reversed, sign -1).  One chain (``_chain_b``) runs a
sequence, optionally carrying a tangent, and returns each shear's d_t V; one
pullback (``_chain_vjp``) runs back over its tape.  The two serve the flow
map, its time derivative, its Jacobian, its inverse and the extracted
Hamiltonian of :mod:`sympflow.extraction`, which keeps no shear arithmetic
of its own.  ``_forward_b``, ``_taped`` and ``_pullback`` are the model
protocol that :mod:`sympflow.mlp` shares.

A forward shear sweeps its potential once, over each point at t and at 0
in adjacent rows (``_shear``): at the 1-22 rows of an evaluation a sweep
costs its per-call overhead, so one sweep of 2B rows takes about half the
time of two of B.  The pullback (``_shear_vjp``) keeps one sweep per time.
It serves training, whose batches of about a thousand rows make a sweep's
cost arithmetic, so stacking saves nothing there; and its jet carries four
components where a forward sweep carries one or two, so stacked it would be
the largest sweep and the thread's jet workspace would grow to hold it.  In
regularized Hénon-Heiles training at 1024 rows (2-core x86-64 VM) a stacked
pullback raised the peak resident set by 2.5 MB and gained no time.  Both
sweeps run in the calling process, except where :func:`_pullback` is given
a job handle: then the training worker of :mod:`sympflow.train` runs the
sweep at time 0 of every shear but the first one pulled back, while the
caller runs the sweep at t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import potential as pot
from ._jet import flatten, unflatten
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

    @functools.cached_property
    def _shears(self):
        """The map's shears Vq_1, Vp_1, ..., Vp_L as ``(k, net, momentum, sign)``, k the canonical index."""
        nets = [net for pair in self.layers for net in pair]
        return tuple((k, net, k % 2 == 1, 1.0) for k, net in enumerate(nets))

    @functools.cached_property
    def _inverse(self):
        """The inverse map's shears: the map's in reverse order, each with sign -1."""
        return tuple((k, net, momentum, -1.0) for k, net, momentum, _ in reversed(self._shears))


def random_sympflow(d: int, n_layers: int, rng: np.random.Generator, h: int = 10) -> SympFlowModel:
    nets = [pot.random_potential_net(d, rng, h) for _ in range(2 * n_layers)]
    return SympFlowModel(d, tuple(zip(nets[::2], nets[1::2])))


def zero_sympflow(d: int, n_layers: int, h: int = 10) -> SympFlowModel:
    nets = [pot.zero_potential_net(d, h) for _ in range(2 * n_layers)]
    return SympFlowModel(d, tuple(zip(nets[::2], nets[1::2])))


def _pairs(model: SympFlowModel) -> list:
    """Every net's ``(A, b)`` pairs, the nets in canonical order Vq_1, Vp_1, ..., Vq_L, Vp_L."""
    return [w for pair in model.layers for net in pair for w in net.weights]


def param_count(model: SympFlowModel) -> int:
    return sum(A.size + b.size for A, b in _pairs(model))


def params_to_vector(model: SympFlowModel) -> np.ndarray:
    return flatten(_pairs(model))


def model_with_params(model: SympFlowModel, vec: np.ndarray) -> SympFlowModel:
    """A model of ``model``'s shape with the parameters of a copy of ``vec``."""
    return _model_over(model, np.array(vec, dtype=float))


def _model_over(model: SympFlowModel, buf: np.ndarray) -> SympFlowModel:
    """A model of ``model``'s shape whose weights are views of the flat float vector ``buf``.

    A write to ``buf`` changes the model in place, unchecked: the caller
    keeps ``buf`` finite.
    """
    pairs = unflatten(buf, _pairs(model))
    nets = [PotentialNet(net.d, net.h, tuple(pairs[3 * k : 3 * k + 3])) for k, net, _, _ in model._shears]
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


def _shear_vjp(
    net: PotentialNet, t, y: np.ndarray, w=None, vy=None, wv=None, dt=None, wt=None, job=None
):
    """Pullback through :func:`_shear`: cotangents w on delta, wv on ddelta, wt on vt.

    Returns ``(gy, gvy, gtheta)``, the gradients of ``<w, delta> + <wv,
    ddelta> + <wt, vt>`` in y, in vy (None without a tangent) and in the
    net's parameters.  One sweep per time: the jet carries a = [vy, dt],
    b = [wv, 0] and the cross term c = [w, wt], so its mixed output is that
    whole sum.  The sweep at time 0 is skipped when only wt is given.  With
    a job handle (see :func:`_pullback`) the sweep at time 0 is handed to it
    before the sweep at t and collected after; otherwise it runs here.
    """
    d = net.d
    args0 = (y, (vy, None), (wv, None), (w, None))
    at0 = w is not None or wv is not None
    collect = job(net, *args0) if at0 and job is not None else None
    gy, gv, gth = pot.jet_vjp(net, t, y, (vy, dt), (wv, None), (w, wt))
    if at0:
        gy0, gv0, gth0 = pot.jet_vjp(net, 0.0, *args0) if collect is None else collect()
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
    """Apply one shear (sign -1: its inverse) to x and, when given, to v; returns (x, v, d_t V at x)."""
    read, write, s = _halves(net.d, momentum)
    delta, ddelta, vt = _shear(net, t, x[:, read], None if v is None else v[:, read], dt)
    # Adding (s * sign) * delta with s * sign = +-1 rounds as adding or subtracting delta.
    move = np.add if s * sign > 0 else np.subtract
    x = x.copy()
    half = x[:, write]
    move(half, delta, half)
    if v is not None:
        v = v.copy()
        half = v[:, write]
        move(half, ddelta, half)
    return x, v, vt


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
# One chain of shears, optionally carrying a tangent and recording the input
# of every shear, and its pullback; each runs a sequence of shears as data.
# ---------------------------------------------------------------------------


def _chain_b(shears, t, x: np.ndarray, v=None, dt=None, tape=None):
    """Push x, and the tangent v when given, through ``shears``; returns (x, v, [d_t V of each]).

    With ``dt=1`` and v = 0 the tangent leaves as d/dt of the chain; with
    ``dt=None`` it leaves as the Jacobian applied to v.  When ``tape`` is a
    list, the input ``(x, v)`` of every shear is appended to it.
    """
    vts = []
    for _, net, momentum, sign in shears:
        if tape is not None:
            tape.append((x, v))
        x, v, vt = _shear_step(net, t, x, v, dt, momentum, sign)
        vts.append(vt)
    return x, v, vts


def _chain_vjp(shears, t, tape, wx, wv=None, wt=None, job=None):
    """Pull cotangents back through the tape of :func:`_chain_b` over ``shears``.

    wx is on the chain's output (None: absent), wv on its tangent and wt on
    every shear's d_t V.  Returns ``(gx, gtheta)``, gtheta flat in the
    canonical order of the nets; ``job`` as in :func:`_pullback`.
    """
    d, last = shears[0][1].d, len(shears) - 1
    dt = None if tape[0][1] is None else 1.0
    # Column-major, a half is whole columns: its update and signed copy take 1.7 us, not 17, at 1024 x 4.
    wx, wv = (None if w is None else np.array(w, order="F") for w in (wx, wv))
    grads = [None] * len(shears)
    for j in range(last, -1, -1):
        (k, net, momentum, sign), (x, v) = shears[j], tape[j]
        read, write, s = _halves(d, momentum)
        w, u = (None if c is None else (s * sign) * c[:, write] for c in (wx, wv))
        gy, gv, grads[k] = _shear_vjp(
            net, t, x[:, read], w, None if v is None else v[:, read], u, dt, wt,
            job=None if job is None or j == last else functools.partial(job, k),
        )
        if wx is None:
            # -0.0 is the additive identity: a half that no gradient has reached takes its first unrounded.
            wx = np.full((len(gy), 2 * d), -0.0, order="F")
        wx[:, read] += gy
        if wv is not None:
            wv[:, read] += gv
    return np.ascontiguousarray(wx), np.concatenate(grads)


def _taped(model: SympFlowModel, t, x: np.ndarray, velocity: bool = False):
    """The flow map, its time derivative when ``velocity``, and the tape of :func:`_pullback`.

    Returns ``(x_out, v or None, tape)``; the tape holds the input of every
    shear.
    """
    tape = []
    v0, dt = (np.zeros_like(x), 1.0) if velocity else (None, None)
    x, v, _ = _chain_b(model._shears, t, x, v0, dt, tape)
    return x, v, tape


def _pullback(model: SympFlowModel, t, tape, wx: np.ndarray, wv=None, job=None):
    """Pull cotangents wx on the map and wv on its time derivative back through a tape.

    ``tape`` comes from :func:`_taped`; wv needs one recorded with the
    velocity.  Returns ``(gx, gtheta)`` with gtheta flat in the model's
    canonical parameter order.

    ``job``, when given, runs time-0 sweeps elsewhere: ``job(k, net, *args)``
    starts ``pot.jet_vjp(net, 0.0, *args)`` for the k-th net in canonical
    order and returns a callable that waits for its ``(gy, gv, gtheta)``.
    Every shear but the first one pulled back hands it its sweep, since the
    first comes while the job's worker is still busy with its own term.
    """
    return _chain_vjp(model._shears, t, tape, wx, wv, job=job)


def _forward_b(model: SympFlowModel, t, x: np.ndarray) -> np.ndarray:
    return _chain_b(model._shears, t, x)[0]


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
    cols = _chain_b(model._shears, t, pts, np.eye(n))[1]
    return cols.T.copy()
