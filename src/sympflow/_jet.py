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

Each thread keeps one workspace, and a sweep writes its jets into the
buffers of the thread's previous sweep instead of into new arrays.  The
tape (the affine outputs, the tanh values and their tangents) takes slots of
``_Workspace.tape`` in the order the sweep needs them; the pullback's
cotangent jets and every temporary take slots of two work banks.  Each
bank's slots are views of one flat arena that only grows, so the workspace
holds the largest sweep's arrays and no more, and sweeps of different sizes
(a forward shear's 2B rows, a pullback's B) reuse it without reallocating.
The arithmetic is the same, operation for operation, as with fresh arrays:
each ufunc and ``matmul`` receives its output buffer as its last positional
argument, and a tanh pullback updates the cotangent it is given in place.

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
only until the next ``chain_forward`` on the same thread, so
``chain_backward`` must pull back the tape of the latest sweep; it checks
the sweep's generation and raises :class:`~sympflow.errors.StaleJetError`
on an older one.

Why: a training sweep at 1024 rows used to allocate some forty 80 KB arrays
and free them all again; glibc then gave the top of the heap back to the
kernel, and the next sweep faulted the same pages in.  On ``train_sf_hh``
(seed 1, four 20-epoch blocks after warm-up, 2-core x86-64 VM) that cost
about 6,400 minor page faults and 11-19 ms of system time per epoch of
48-77 ms; with the workspace an epoch makes 2-5 faults and at most 0.1 ms
of system time.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StaleJetError

__all__ = ["Jet", "chain_forward", "chain_backward", "flatten", "unflatten"]


@dataclass
class Jet:
    """Value plus up to two directional derivatives and their cross term."""

    x0: np.ndarray | None = None
    xa: np.ndarray | None = None
    xb: np.ndarray | None = None
    xab: np.ndarray | None = None

    def components(self):
        return (self.x0, self.xa, self.xb, self.xab)


class _Bank:
    """Buffers taken in order and reused slot by slot from sweep to sweep.

    The slots are consecutive views of one flat arena, each padded to a
    whole 64 bytes so that every slot is aligned as the arena is.  A slot
    past the arena's end is a fresh array, and the arena grows to hold it
    when the bank is next reset (``n = 0``), when none of its slots is in use
    any more.  So the arena ends as large as the largest set of slots one
    round takes, and rounds of different sizes alternate in it without
    reallocating.
    """

    __slots__ = ("bufs", "spans", "n", "arena", "need")

    def __init__(self):
        self.bufs = []
        self.spans = []  # (start, end) of each slot in the arena
        self.n = 0
        self.arena = np.empty(0)
        self.need = 0

    def take(self, shape):
        """A ``shape`` array, the transpose view of a C-contiguous buffer."""
        i = self.n
        self.n = i + 1
        bufs, spans = self.bufs, self.spans
        if i == 0 and self.need > self.arena.size:
            self.arena = np.empty(self.need)
            bufs.clear()
            spans.clear()
        start = spans[i - 1][1] if i else 0
        if i < len(bufs) and spans[i][0] == start and bufs[i].shape == shape:
            return bufs[i]
        size = shape[0] * shape[1]
        end = start + -(-size // 8) * 8
        if end <= self.arena.size:
            buf = self.arena[start : start + size].reshape(shape[::-1]).T
        else:
            buf = np.empty(shape[::-1]).T
            self.need = max(self.need, end)
        if i < len(bufs):
            bufs[i], spans[i] = buf, (start, end)
        else:
            bufs.append(buf)
            spans.append((start, end))
        return buf


class _Workspace(threading.local):
    """One thread's buffers: the tape of its latest sweep and two work banks.

    ``gen`` numbers the thread's latest forward sweep (numbers are unique
    across threads); a tape is current while its own ``gen`` equals it.
    The forward sweep's temporaries go to the first work bank.  In the
    pullback the cotangent jet lives in one bank while the other takes the
    step's temporaries and then the next affine pullback's output; the banks
    swap at each affine map.
    """

    def __init__(self):
        self.tape = _Bank()
        self.work = (_Bank(), _Bank())
        self.gen = 0


_workspace = _Workspace()
_sweeps = itertools.count(1)


def _fresh(shape):
    """Stand-in for a bank's ``take`` where the result must be a new array.

    Given ``out=None``, NumPy allocates one.
    """
    return None


class _Tape(list):
    """The jets of one ``chain_forward`` call, stamped with its sweep."""

    __slots__ = ("gen",)


def _madd(out, tmp, *terms, into=None):
    """Sum of products, skipping any product with a ``None`` factor.

    Each product is formed left to right; the first lands in ``into`` when
    given (an in-place update of that array) and in ``out(shape)`` otherwise,
    each later one in ``tmp`` and is added in place.  None if all are skipped.
    """
    acc = None
    for term in terms:
        for factor in term:
            if factor is None:
                break
        else:
            if acc is None:
                dst = into if into is not None else out(term[-1].shape)
                acc = dst = np.multiply(term[0], term[1], dst)
            else:
                dst = np.multiply(term[0], term[1], tmp)
            for factor in term[2:]:
                np.multiply(dst, factor, dst)
            if dst is not acc:
                np.add(acc, dst, acc)
    return acc


def _left_matmul(M: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """``x @ M.T`` taken as ``M @ x.T``, into ``y`` when given and fresh otherwise."""
    if y is None:
        return np.matmul(M, x.T).T
    np.matmul(M, x.T, y.T)
    return y


def _affine_forward(A: np.ndarray, b: np.ndarray, x: Jet, out) -> Jet:
    shape = (x.x0.shape[0], A.shape[0])
    y0 = _left_matmul(A, x.x0, out(shape))
    np.add(y0.T, b[:, None], y0.T)
    return Jet(
        y0,
        None if x.xa is None else _left_matmul(A, x.xa, out(shape)),
        None if x.xb is None else _left_matmul(A, x.xb, out(shape)),
        None if x.xab is None else _left_matmul(A, x.xab, out(shape)),
    )


def _tanh_forward(x: Jet, out, tmp) -> Jet:
    # tanh is taken in place: the pullback never reads the affine output's
    # value, only its tangent parts.
    shape = x.x0.shape
    y0 = np.tanh(x.x0, x.x0)
    if x.xa is None and x.xb is None and x.xab is None:
        return Jet(y0)
    s1 = np.multiply(y0, y0, tmp(shape))
    np.subtract(1.0, s1, s1)
    ya = None if x.xa is None else np.multiply(s1, x.xa, out(shape))
    yb = None if x.xb is None else np.multiply(s1, x.xb, out(shape))
    if x.xa is not None and x.xb is not None:
        c = np.multiply(-2.0, y0, tmp(shape))
        np.multiply(c, s1, c)
        yab = _madd(out, tmp(shape), (s1, x.xab), (c, x.xa, x.xb))
    else:
        yab = _madd(out, None, (s1, x.xab))
    return Jet(y0, ya, yb, yab)


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
    tape, tmp = ws.tape, ws.work[0]
    tape.n = 0
    jets = _Tape([x])
    jets.gen = ws.gen = next(_sweeps)
    cur = x
    last = len(weights) - 1
    for k, (A, b) in enumerate(weights):
        cur = _affine_forward(A, b, cur, _fresh if k == last else tape.take)
        jets.append(cur)
        if k != last:
            tmp.n = 0
            cur = _tanh_forward(cur, tape.take, tmp.take)
            jets.append(cur)
    return jets


def _tanh_backward(z: Jet, a0: np.ndarray, g: Jet, out, tmp) -> Jet:
    # Derivatives of tanh expressed through the activation value a0:
    #   s1 = 1 - a0^2,  s2 = -2 a0 s1,  s3 = -2 s1^2 + 4 a0^2 s1.
    # s2 and s3 are formed only when a cotangent needs them.  Each cotangent
    # component is updated in place, in the order x0, xa, xb, xab, so that
    # every one is read before it is overwritten; missing ones go to out().
    shape = a0.shape
    sq = np.multiply(a0, a0, tmp(shape))
    s1 = np.subtract(1.0, sq, tmp(shape))
    s2 = s3 = None
    if g.xa is not None or g.xb is not None or g.xab is not None:
        s2 = np.multiply(-2.0, a0, tmp(shape))
        np.multiply(s2, s1, s2)
    prod = tmp(shape)
    if g.xab is not None and z.xa is not None and z.xb is not None:
        np.multiply(-2.0, s1, prod)
        np.multiply(prod, s1, prod)
        np.multiply(4.0, sq, sq)
        np.multiply(sq, s1, sq)
        s3 = np.add(prod, sq, sq)
    gx0 = _madd(
        out,
        prod,
        (s1, g.x0),
        (s2, z.xa, g.xa),
        (s2, z.xb, g.xb),
        (s2, z.xab, g.xab),
        (s3, z.xa, z.xb, g.xab),
        into=g.x0,
    )
    gxa = _madd(out, prod, (s1, g.xa), (s2, z.xb, g.xab), into=g.xa)
    gxb = _madd(out, prod, (s1, g.xb), (s2, z.xa, g.xab), into=g.xb)
    gxab = _madd(out, prod, (s1, g.xab), into=g.xab)
    return Jet(gx0, gxa, gxb, gxab)


def _affine_backward(A: np.ndarray, x: Jet, g: Jet, out, ones):
    """Pullback through x -> x A^T + b; parameter gradients when ``ones`` is given.

    The bias gradient sums the cotangent over the batch as ``g.x0.T @ ones``,
    a matrix-vector product: 4.6 us against 8 us for ``g.x0.sum(axis=0)`` at
    1024 x 10 in this layout (the sum is reordered, so it agrees to rounding,
    not bitwise).
    """
    shape = (x.x0.shape[0], A.shape[1])
    At = A.T
    gx = Jet(
        None if g.x0 is None else _left_matmul(At, g.x0, out(shape)),
        None if g.xa is None else _left_matmul(At, g.xa, out(shape)),
        None if g.xb is None else _left_matmul(At, g.xb, out(shape)),
        None if g.xab is None else _left_matmul(At, g.xab, out(shape)),
    )
    if ones is None:
        return gx, None
    gA = None
    for gc, xc in zip(g.components(), x.components()):
        if gc is not None and xc is not None:
            term = gc.T @ xc
            if gA is None:
                gA = term
            else:
                gA += term
    if gA is None:
        gA = np.zeros_like(A)
    gb = np.zeros(A.shape[0]) if g.x0 is None else g.x0.T @ ones
    return gx, (gA, gb)


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
    """
    ws = _workspace
    if getattr(jets, "gen", None) != ws.gen:
        raise StaleJetError("jets were overwritten by a later sweep on this thread")
    cur, other = ws.work
    ones = np.ones(jets[0].x0.shape[0]) if with_params else None
    g = g_out
    g_params = [None] * len(weights) if with_params else None
    idx = len(jets) - 1
    last = len(weights) - 1
    for k in range(last, -1, -1):
        if k != last:
            other.n = 0
            g = _tanh_backward(jets[idx - 1], jets[idx].x0, g, cur.take, other.take)
            idx -= 1
        other.n = 0
        g, gp = _affine_backward(weights[k][0], jets[idx - 1], g, other.take if k else _fresh, ones)
        cur, other = other, cur
        if with_params:
            g_params[k] = gp
        idx -= 1
    return g, g_params


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
