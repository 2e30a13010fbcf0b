"""Forward and reverse sweeps through tanh feedforward stacks.

Every network in this package is an alternating chain of affine maps and
tanh activations (no activation after the last affine map).  All required
derivative quantities -- values, time partials, input gradients, Hessian-
vector products, mixed second derivatives, third-order contractions, and
parameter gradients of each -- reduce to two primitives implemented here:

* ``chain_forward`` pushes a second-order jet through the chain.  A jet
  carries the value ``x0`` together with directional derivatives ``xa`` and
  ``xb`` along two tangent directions and the mixed term ``xab``; components
  that are identically zero stay ``None`` and cost nothing.
* ``chain_backward`` pulls cotangents on any subset of the output jet's
  components back through the recorded chain, producing gradients with
  respect to the chain input, the tangent directions, and all affine
  parameters.

Mixed partials commute, so the pullback of a cotangent placed on ``xa`` is
the exact parameter/input gradient of the corresponding first directional
derivative, and a cotangent on ``xab`` differentiates the mixed second
directional derivative.  Everything is batched over the leading axis.

The jet is bilinear, which lets one sweep stand in for several.  For a
scalar V and a direction a, the first output ``d_a V = <grad V, a>`` is
linear in a, so the single pullback of ``xa = 1`` returns ``grad V`` on the
direction (``g_in.xa``) and ``Hess V a`` on the point (``g_in.x0``).  With
a = [v; 1] on the input [q; t] that is the input gradient and ``Hess V v +
d_t grad V`` at once: a shear layer's update and its time derivative.  An
input ``xab = c`` adds ``<grad V, c>`` to the mixed output, so one pullback
of ``xab = 1`` differentiates ``<b, Hess V a> + <grad V, c>``, a sum of a
second-order and a first-order quantity with independent weights.

Parameters.  A chain's weights are ``(A, b)`` pairs, one per affine map.
:func:`flatten` and :func:`unflatten` fix their canonical order, and
:func:`random_chain`, :func:`zero_chain` and :func:`check_chain` the init
law and the shape and finiteness checks, for every net in the package.

Plans.  Which products a sweep forms, and on which arrays, depends only on
its signature: the batch size, the components present in the input jet
(and, for a pullback, in the cotangent) and the widths of the chain.  The
first sweep of a signature on a thread compiles it into a plan, which the
thread keeps: the tape's jets and every temporary laid out in the thread's
arenas, and each tanh rule as a list of NumPy calls on those arrays, with
the terms of absent components already dropped.  Running a sweep is then,
layer by layer, the affine map's products and bias, which read the
caller's weights, and that layer's list.  A value-only sweep, the case of
window maps and rollouts, so runs its matrix products, bias adds, ``tanh``
and ``1 - a^2`` products and nothing else: no check of a missing
component, no sum-of-products loop and no buffer lookup per array.  The
arithmetic is the same, call for call, as running the rules directly on
fresh arrays: each ufunc and product receives its output array as its last
positional argument, and a tanh pullback updates the cotangent it is given
in place.  The products are ``ndarray.dot`` rather than ``np.matmul``: at
2-22 rows ``dot`` costs about 0.45 us a call against 1.1 us, and over 3,240
shapes (1-12 by 1-12 by 1-2048, either operand transposed) the two agreed
bit for bit.  Nets of one shape share a plan; a thread keeps at most
``_MAX_PLANS`` of them.

Bound programs.  The MLP's supervised term sweeps one chain at one batch
size every epoch, on a :class:`_ValueProgram` that :func:`sympflow.mlp._bind`
binds once per ``train()`` or loss entry call: the value-only plan's calls,
made by the same tanh rules on operands of the same layout, bound once to
the weights and to buffers the program owns.  A sweep then makes only its
arithmetic's NumPy calls (no plan lookup, ``Jet``, tape stamp,
:func:`flatten` or input gradient), bit for bit: at the benchmark's 64 rows
an MLP epoch went from about 71 to 50 us (2-core x86-64 VM, one BLAS thread).

Arenas.  Each thread has four flat arenas: the tape, two work arenas and
the input arena.  A plan lays its arrays out from the start of each arena,
so plans share them and the arenas end as large as the largest plan needs;
a plan that does not fit grows the arena, the thread's cached plans are
dropped, and later sweeps lay theirs out again in the grown arena.  The
tape holds the affine outputs, the tanh values and their tangents; the
forward sweep's temporaries go to the first work arena.  A pullback keeps
the cotangent on every affine output in the first work arena, each in its
own arrays, so that the parameter gradients can all be taken at the end,
and the temporaries of each tanh rule in the second.  The input arena
holds the components of the input jet that a caller fills through
:func:`inputs`.

Layout.  Every jet component is stored column-major: a ``(B, n)`` array
that is the transpose view of a C-contiguous ``(n, B)`` buffer, so the
features of one row are ``B`` elements apart.  An affine map then multiplies
feature-major, ``A @ X^T`` into the buffer behind its output, and the
weight gradient ``g^T @ x`` reads both operands along the batch.  With one
BLAS thread at B = 1024, h = 10 (best of 5 x 2000 calls, OpenBLAS 0.3.31 on
a 2-core x86-64 VM) the affine product takes 11-12 us this way against
24-26 us for ``X @ A^T`` on row-major arrays, and the weight gradient 12-13.5
us against 13-14.5 us.  The tanh rules are elementwise and do not care.  The
jets keep the ``(B, n)`` shape so that callers index them as before
(``[:, :d]``, ``.x0[:, 0]``) and so that the batch size is read from
``x0.shape[0]`` everywhere; chains accept inputs in either layout.

Lifetime rule.  What leaves this module is fresh: the chain output
``jets[-1]``, the input gradient ``g_in`` and the parameter gradients.  The
jets between the input and the output are the workspace's and stay valid
only until the next ``chain_forward`` or :func:`inputs` call on the same
thread, so ``chain_backward`` must pull back the tape of the latest sweep;
it checks the sweep's generation and raises
:class:`~sympflow.errors.StaleJetError` on an older one.  The arrays of
:func:`inputs` stay valid until the next :func:`inputs` call.

Why: a training sweep at 1024 rows used to allocate some forty 80 KB arrays
and free them all again; glibc then gave the top of the heap back to the
kernel, and the next sweep faulted the same pages in.  On ``train_sf_hh``
(seed 1, four 20-epoch blocks after warm-up, 2-core x86-64 VM) that cost
about 6,400 minor page faults and 11-19 ms of system time per epoch of
48-77 ms; with the workspace an epoch makes 2-5 faults and at most 0.1 ms
of system time.  At 1-22 rows a sweep costs its Python calls rather than
its arithmetic, which is why a plan does the bookkeeping once per
signature: a value-only shear of the benchmark's Henon-Heiles model at 2
rows went from about 52 to 32 us.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StaleJetError

__all__ = [
    "Jet", "chain_forward", "chain_backward", "flatten", "unflatten", "random_chain", "zero_chain", "check_chain"
]


@dataclass
class Jet:
    """Value plus up to two directional derivatives and their cross term."""

    x0: np.ndarray | None = None
    xa: np.ndarray | None = None
    xb: np.ndarray | None = None
    xab: np.ndarray | None = None

    def components(self):
        return (self.x0, self.xa, self.xb, self.xab)


TAPE, WORK, SPARE, INPUT = range(4)  # the arenas of a thread's workspace
_MAX_PLANS = 64  # a thread drops its cached plans when it holds more
# The constants of the tanh rules as 0-d arrays, which a ufunc takes without
# converting a Python float on every call.
_ONE, _TWO_NEG, _FOUR = np.array(1.0), np.array(-2.0), np.array(4.0)


class _Workspace(threading.local):
    """One thread's arenas, its cached plans and the number of its latest tape.

    ``gen`` numbers the thread's latest forward sweep (numbers are unique
    across threads); a tape is current while its own ``gen`` equals it.
    """

    def __init__(self):
        self.arenas = [np.empty(0) for _ in range(4)]
        self.plans = {}
        self.gen = 0


_workspace = _Workspace()
_sweeps = itertools.count(1)


class _Layout:
    """Lays the arrays of one plan out in a thread's arenas.

    ``take(i, n, B)`` returns the next C-contiguous ``(n, B)`` array of
    arena i, padded to a whole 64 bytes so that every array is aligned as
    the arena is; ``reset(i)`` starts arena i over, for arrays whose use has
    ended.  A request past an arena's end gets a throwaway array and raises
    the arena's ``need``.
    """

    def __init__(self, arenas):
        self.arenas = arenas
        self.top = [0] * len(arenas)
        self.need = [a.size for a in arenas]

    def take(self, i, n, B):
        start, size = self.top[i], n * B
        end = self.top[i] = start + -(-size // 8) * 8
        self.need[i] = max(self.need[i], end)
        if end > self.arenas[i].size:
            return np.empty((n, B))
        return self.arenas[i][start : start + size].reshape(n, B)

    def reset(self, i):
        self.top[i] = 0


def _lay_out(build):
    """``build(layout)`` on this thread's arenas, grown first if it overflows them."""
    ws = _workspace
    layout = _Layout(ws.arenas)
    plan = build(layout)
    if any(n > a.size for n, a in zip(layout.need, ws.arenas)):
        ws.arenas = [np.empty(n) if n > a.size else a for n, a in zip(layout.need, ws.arenas)]
        ws.plans.clear()
        plan = build(_Layout(ws.arenas))
    if len(ws.plans) >= _MAX_PLANS:
        ws.plans.clear()
    return plan


def inputs(n: int, B: int, k: int):
    """k C-contiguous ``(n, B)`` arrays from this thread's input arena.

    They are for the components of a sweep's input jet, written by the
    caller as the transposes of ``(B, n)`` column-major jets.  They stay
    valid until the next call on this thread, and the call ends the
    lifetime of the thread's latest tape.
    """
    ws = _workspace
    ws.gen = next(_sweeps)
    key = ("inputs", n, B, k)
    bufs = ws.plans.get(key)
    if bufs is None:
        bufs = ws.plans[key] = _lay_out(lambda lay: [lay.take(INPUT, n, B) for _ in range(k)])
    return bufs


class _Tape(list):
    """The jets of one ``chain_forward`` call, stamped with its sweep and plan."""

    __slots__ = ("gen", "plan")


def _present(arrays):
    return [a for a in arrays if a is not None]


def _slots(present):
    """The indices of the components marked present."""
    return [i for i, p in enumerate(present) if p]


_VALUE = _slots([True, False, False, False])  # the slots of a jet that carries only values


def _jet_of(slots, arrays):
    """A Jet of the ``(B, n)`` transposes of ``arrays``, at the component indices ``slots``."""
    if slots == _VALUE:
        return Jet(arrays[0].T)
    comps = [None] * 4
    for i, a in zip(slots, arrays):
        comps[i] = a.T
    return Jet(*comps)


def _products(ops, terms, out, tmp, into=None):
    """Append the calls of a sum of products; returns its array, None if no term is present.

    Terms with a ``None`` factor are dropped.  Each product is formed left to
    right; the first lands in ``into`` when given (an in-place update of that
    array) and in ``out()`` otherwise, each later one in ``tmp`` and is added
    in place.
    """
    terms = [t for t in terms if all(f is not None for f in t)]
    if not terms:
        return None
    acc = into if into is not None else out()
    for i, term in enumerate(terms):
        dst = tmp if i else acc
        ops.append((np.multiply, (term[0], term[1], dst)))
        ops.extend((np.multiply, (dst, f, dst)) for f in term[2:])
        if i:
            ops.append((np.add, (acc, dst, acc)))
    return acc


def _tanh_forward(ops, z, out, tmp):
    """Append the calls of the tanh rules to the jet z; returns the activation jet.

    tanh is taken in place: the pullback never reads the affine output's
    value, only its tangent parts.
    """
    x0, xa, xb, xab = z
    ops.append((np.tanh, (x0, x0)))
    if xa is None and xb is None and xab is None:
        return [x0, None, None, None]
    s1 = tmp()
    ops += [(np.multiply, (x0, x0, s1)), (np.subtract, (_ONE, s1, s1))]
    ya = _products(ops, [(s1, xa)], out, None)
    yb = _products(ops, [(s1, xb)], out, None)
    c = prod = None
    if xa is not None and xb is not None:
        c, prod = tmp(), tmp()
        ops += [(np.multiply, (_TWO_NEG, x0, c)), (np.multiply, (c, s1, c))]
    yab = _products(ops, [(s1, xab), (c, xa, xb)], out, prod)
    return [x0, ya, yb, yab]


def _tanh_backward(ops, z, a0, g, out, tmp):
    """Append the calls of the pullback of the cotangent jet g through tanh; returns its result.

    Derivatives of tanh expressed through the activation value a0:
    s1 = 1 - a0^2,  s2 = -2 a0 s1,  s3 = -2 s1^2 + 4 a0^2 s1.
    s2 and s3 are formed only when a cotangent needs them.  Each cotangent
    component is updated in place, in the order x0, xa, xb, xab, so that
    every one is read before it is overwritten; missing ones go to out().
    """
    _, za, zb, zab = z
    g0, ga, gb, gab = g
    sq, s1 = tmp(), tmp()
    ops += [(np.multiply, (a0, a0, sq)), (np.subtract, (_ONE, sq, s1))]
    s2 = s3 = None
    if ga is not None or gb is not None or gab is not None:
        s2 = tmp()
        ops += [(np.multiply, (_TWO_NEG, a0, s2)), (np.multiply, (s2, s1, s2))]
    prod = tmp()
    if gab is not None and za is not None and zb is not None:
        ops += [
            (np.multiply, (_TWO_NEG, s1, prod)),
            (np.multiply, (prod, s1, prod)),
            (np.multiply, (_FOUR, sq, sq)),
            (np.multiply, (sq, s1, sq)),
            (np.add, (prod, sq, sq)),
        ]
        s3 = sq
    terms0 = [(s1, g0), (s2, za, ga), (s2, zb, gb), (s2, zab, gab), (s3, za, zb, gab)]
    return [
        _products(ops, terms0, out, prod, into=g0),
        _products(ops, [(s1, ga), (s2, zb, gab)], out, prod, into=ga),
        _products(ops, [(s1, gb), (s2, za, gab)], out, prod, into=gb),
        _products(ops, [(s1, gab)], out, prod, into=gab),
    ]


class _ForwardPlan:
    """``chain_forward`` compiled for one batch size, set of input components and widths.

    ``steps`` holds, per hidden layer, the arrays its affine map writes (one
    per component present), the calls of its tanh rules and the arrays of
    its activation, which the next map reads; ``last`` the component slots
    of the output.  ``jets`` holds the tape's jets between the input and the
    output, ``hidden`` each hidden layer's affine output and activation as
    four-slot lists for the pullbacks, which are compiled on first use and
    kept in ``backward``.
    """

    __slots__ = ("B", "present", "steps", "last", "jets", "hidden", "backward")

    def __init__(self, lay, B, present, widths):
        self.B, self.present = B, present
        self.steps, self.jets, self.hidden = [], [], []
        self.backward = {}
        lay.reset(TAPE)
        for n in widths[:-1]:
            z = [lay.take(TAPE, n, B) if p else None for p in present]
            lay.reset(WORK)
            ops = []
            out, tmp = (lambda: lay.take(TAPE, n, B)), (lambda: lay.take(WORK, n, B))
            a = _tanh_forward(ops, z, out, tmp)
            self.steps.append((_present(z), ops, _present(a)))
            zt = [None if c is None else c.T for c in z]
            self.jets += [Jet(*zt), Jet(zt[0], *[None if c is None else c.T for c in a[1:]])]
            self.hidden.append((z, a))
            present = [c is not None for c in a]
        self.last = _slots(present)


class _BackwardPlan:
    """``chain_backward`` compiled for a forward plan, cotangent components and ``with_params``.

    ``steps`` holds, per affine map from the last to the first, the calls of
    the tanh pullback before it, the cotangent's arrays (None where they are
    the caller's) and the arrays its input gradient goes to (None for fresh
    ones).  Every cotangent keeps its own arrays until the end, so that
    ``layers`` can give each map's parameter gradient afterwards: its
    cotangent's arrays and its input's (None where they are the caller's),
    the ``(cotangent, input)`` index pairs of the weight gradient and
    whether the cotangent has a value part, for the bias gradient.
    """

    __slots__ = ("steps", "layers", "slots", "ones")

    def __init__(self, lay, fwd, present, with_params):
        B, K = fwd.B, len(fwd.hidden) + 1
        self.ones = np.ones(B) if with_params else None
        self.steps, self.layers = [], [None] * K
        lay.reset(WORK)
        gs = None  # the arrays of the cotangent present; None: the caller's
        for k in range(K - 1, -1, -1):
            ops = []
            if k != K - 1:
                z, a = fwd.hidden[k]
                n = len(a[0])
                lay.reset(SPARE)
                out, tmp = (lambda: lay.take(WORK, n, B)), (lambda: lay.take(SPARE, n, B))
                g = _tanh_backward(ops, z, a[0], g, out, tmp)
                present, gs = [c is not None for c in g], _present(g)
            x = fwd.present if k == 0 else [c is not None for c in fwd.hidden[k - 1][1]]
            pairs = [(sum(present[:c]), sum(x[:c])) for c in range(4) if present[c] and x[c]]
            xs = None if k == 0 else _present(fwd.hidden[k - 1][1])
            self.layers[k] = (gs, xs, pairs, present[0])
            outs = None
            if k:
                n_in = len(fwd.hidden[k - 1][1][0])
                outs = [lay.take(WORK, n_in, B) for _ in range(sum(present))]
                it = iter(outs)
                g = [next(it) if p else None for p in present]
            self.steps.append((ops, gs, outs))
        self.slots = _slots(present)


def chain_forward(weights, x: Jet):
    """Run the affine/tanh chain, recording every intermediate jet.

    ``weights`` is a sequence of ``(A, b)`` pairs; tanh is applied between
    affine maps but not after the last one.  Returns the list of jets
    ``[input, z_1, a_1, z_2, a_2, ..., z_K]`` where ``z_k`` is the k-th
    affine output and ``a_k = tanh(z_k)``.  ``z_K`` is a fresh array; the
    jets between the input and ``z_K`` live in this thread's workspace until
    its next sweep, and ``z_k.x0`` shares its buffer with ``a_k.x0``.
    """
    ws = _workspace
    present = (x.xa is not None, x.xb is not None, x.xab is not None)
    key = (x.x0.shape[0], *present, *[len(A) for A, _ in weights])
    plan = ws.plans.get(key)
    if plan is None:
        plan = ws.plans[key] = _lay_out(
            lambda lay: _ForwardPlan(lay, key[0], (True, *present), key[4:])
        )
    xs = [c.T for c in x.components() if c is not None]
    for (A, b), (zs, ops, ys) in zip(weights, plan.steps):
        for xc, zc in zip(xs, zs):
            A.dot(xc, zc)
        np.add(zs[0], b[:, None], zs[0])
        for f, args in ops:
            f(*args)
        xs = ys
    A, b = weights[-1]
    zs = [A.dot(xc) for xc in xs]
    np.add(zs[0], b[:, None], zs[0])
    jets = _Tape([x, *plan.jets, _jet_of(plan.last, zs)])
    jets.gen = ws.gen = next(_sweeps)
    jets.plan = plan
    return jets


def chain_backward(weights, jets, g_out: Jet, with_params: bool = True):
    """Pull a cotangent jet on the chain output back to inputs and parameters.

    Returns ``(g_in, g_params)`` where ``g_in`` holds gradients with respect
    to the input jet's components (``g_in.x0`` for the chain input itself,
    ``g_in.xa``/``g_in.xb`` for the tangent directions) and ``g_params`` is a
    list of ``(gA, gb)`` pairs aligned with ``weights`` (``None`` when
    ``with_params`` is false).  Parameter gradients are summed over the batch;
    callers weight per-point contributions through the cotangent itself.
    Both are fresh arrays.  ``jets`` must come from the latest
    ``chain_forward`` on this thread; older jets raise
    :class:`~sympflow.errors.StaleJetError`.

    The bias gradient sums the cotangent over the batch as ``g.x0.T @
    ones``, a matrix-vector product: 4.6 us against 8 us for
    ``g.x0.sum(axis=0)`` at 1024 x 10 in this layout (the sum is reordered,
    so it agrees to rounding, not bitwise).
    """
    if getattr(jets, "gen", None) != _workspace.gen:
        raise StaleJetError("jets were overwritten by a later sweep on this thread")
    g0, ga, gb, gab = g_out.components()
    present = (g0 is not None, ga is not None, gb is not None, gab is not None)
    fwd = jets.plan
    plan = fwd.backward.get((present, with_params))
    if plan is None:
        plan = fwd.backward[present, with_params] = _lay_out(
            lambda lay: _BackwardPlan(lay, fwd, present, with_params)
        )
    g = g_last = [c.T for c in (g0, ga, gb, gab) if c is not None]
    for (A, _), (ops, gs, outs) in zip(reversed(weights), plan.steps):
        for f, args in ops:
            f(*args)
        if gs is not None:
            g = gs
        At = A.T
        if outs is None:
            g = [At.dot(gc) for gc in g]
        else:
            for gc, o in zip(g, outs):
                At.dot(gc, o)
    g_in = _jet_of(plan.slots, g)
    if not with_params:
        return g_in, None
    x_in = [c.T for c in jets[0].components() if c is not None]
    g_params = []
    for (A, _), (gs, xs, pairs, has_value) in zip(weights, plan.layers):
        gs = g_last if gs is None else gs
        xs = x_in if xs is None else xs
        gA = None
        for i, j in pairs:
            term = gs[i].dot(xs[j].T)
            if gA is None:
                gA = term
            else:
                gA += term
        if gA is None:
            gA = np.zeros_like(A)
        g_params.append((gA, gs[0].dot(plan.ones) if has_value else np.zeros(A.shape[0])))
    return g_in, g_params


class _ValueProgram:
    """A chain's value-only sweep and parameter pullback at B rows, on buffers of its own.

    The caller writes the input into ``x``, ``(B, n_in)`` column-major.
    :meth:`forward` returns the output, valid until the next forward, and
    :meth:`pullback` the flat gradient ``grad``, which the next overwrites.
    """

    def __init__(self, weights, B):
        x = np.empty((weights[0][0].shape[1], B))
        self.x, self.grad, ones = x.T, np.empty(sum(A.size + b.size for A, b in weights)), np.ones(B)
        self._fwd, pieces, params, c_in = [], [], [], None
        for k, ((A, b), (gA, gb)) in enumerate(zip(weights, unflatten(self.grad, weights))):
            z = np.empty((len(A), B))
            self._fwd += [(A.dot, (x, z)), (np.add, (z, b[:, None], z))]
            if k == len(weights) - 1:
                self._out, self._last = z.T, (A.T, x.T, ones, gA, gb, c_in)
                break
            _tanh_forward(self._fwd, [z] + [None] * 3, None, None)
            c, ops = np.empty_like(z), []
            _tanh_backward(ops, [z] + [None] * 3, z, [c] + [None] * 3, None, lambda: np.empty_like(z))
            pieces.append(ops + ([(A.T.dot, (c, c_in))] if k else []))
            params += [(c.dot, (x.T, gA)), (c.dot, (ones, gb))]
            x, c_in = z, c
        self._back = [op for ops in reversed(pieces) for op in ops] + params

    def forward(self):
        for f, args in self._fwd:
            f(*args)
        return self._out

    def pullback(self, g):
        """The parameter gradient of the cotangent g ``(B, n_out)`` on the latest forward's output."""
        At, x, ones, gA, gb, c = self._last
        g = g.T
        if c is not None:
            At.dot(g, c)
        for f, args in self._back:
            f(*args)
        g.dot(x, gA)
        g.dot(ones, gb)
        return self.grad


def flatten(pairs) -> np.ndarray:
    """One vector of ``(A, b)`` pairs, each A row-major and then its b.

    This is the package's canonical parameter order, for weights and for the
    ``g_params`` of :func:`chain_backward` alike.
    """
    return np.concatenate([c for A, b in pairs for c in (A.ravel(), b)])


def unflatten(vec, like) -> list:
    """A :func:`flatten` vector split into pairs shaped like ``like``.

    The pairs are views of ``vec`` when it is a contiguous float array, so
    a write to ``vec`` shows in them; a caller that keeps them passes its
    own copy.
    """
    n = sum(A.size + b.size for A, b in like)
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (n,):
        raise DimensionError(f"parameter vector must have length {n}, got {vec.shape}")
    pairs, ofs = [], 0
    for A, b in like:
        mid = ofs + A.size
        pairs.append((vec[ofs:mid].reshape(A.shape), vec[mid : mid + b.size]))
        ofs = mid + b.size
    return pairs


def random_chain(widths, rng) -> list:
    """Seeded ``(A, b)`` pairs of the chain ``widths[0] -> ... -> widths[-1]``: the init law.

    Map by map from ``rng``, A (row-major) then b, each entry uniform on +-sqrt(1/fan_in).
    """
    pairs = []
    for n_in, n_out in zip(widths, widths[1:]):
        s = np.sqrt(1.0 / n_in)
        pairs.append((rng.uniform(-s, s, size=(n_out, n_in)), rng.uniform(-s, s, size=(n_out,))))
    return pairs


def zero_chain(widths) -> list:
    """All-zero ``(A, b)`` pairs of the chain ``widths[0] -> ... -> widths[-1]``."""
    return [(np.zeros((n_out, n_in)), np.zeros(n_out)) for n_in, n_out in zip(widths, widths[1:])]


def check_chain(weights, widths) -> None:
    """DimensionError unless each pair of ``weights`` is finite and shaped for its map of ``widths``."""
    for k, ((A, b), n_in, n_out) in enumerate(zip(weights, widths, widths[1:])):
        if A.shape != (n_out, n_in) or b.shape != (n_out,):
            raise DimensionError(
                f"affine map {k} expects A {(n_out, n_in)} / b {(n_out,)}, got {A.shape} / {b.shape}"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise DimensionError(f"affine map {k} contains non-finite entries")
