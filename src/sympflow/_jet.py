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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Jet", "chain_forward", "chain_backward"]


@dataclass
class Jet:
    """Value plus up to two directional derivatives and their cross term."""

    x0: np.ndarray | None = None
    xa: np.ndarray | None = None
    xb: np.ndarray | None = None
    xab: np.ndarray | None = None

    def components(self):
        return (self.x0, self.xa, self.xb, self.xab)


def _madd(acc, *terms):
    """Accumulate products, skipping any product with a ``None`` factor."""
    for term in terms:
        out = None
        for factor in term:
            if factor is None:
                out = None
                break
            out = factor if out is None else out * factor
        if out is not None:
            acc = out if acc is None else acc + out
    return acc


def _affine_forward(A: np.ndarray, b: np.ndarray, x: Jet) -> Jet:
    def lin(c):
        return None if c is None else c @ A.T

    y = Jet(lin(x.x0), lin(x.xa), lin(x.xb), lin(x.xab))
    y.x0 = y.x0 + b
    return y


def _tanh_forward(x: Jet) -> Jet:
    y0 = np.tanh(x.x0)
    s1 = 1.0 - y0 * y0
    ya = None if x.xa is None else s1 * x.xa
    yb = None if x.xb is None else s1 * x.xb
    yab = _madd(None, (s1, x.xab))
    if x.xa is not None and x.xb is not None:
        yab = _madd(yab, (-2.0 * y0 * s1, x.xa, x.xb))
    return Jet(y0, ya, yb, yab)


def chain_forward(weights, x: Jet):
    """Run the affine/tanh chain, recording every intermediate jet.

    ``weights`` is a sequence of ``(A, b)`` pairs; tanh is applied between
    affine maps but not after the last one.  Returns the list of jets
    ``[input, z_1, a_1, z_2, a_2, ..., z_K]`` where ``z_k`` is the k-th
    affine output and ``a_k = tanh(z_k)``.
    """
    jets = [x]
    cur = x
    last = len(weights) - 1
    for k, (A, b) in enumerate(weights):
        cur = _affine_forward(A, b, cur)
        jets.append(cur)
        if k != last:
            cur = _tanh_forward(cur)
            jets.append(cur)
    return jets


def _tanh_backward(z: Jet, a0: np.ndarray, g: Jet) -> Jet:
    # Derivatives of tanh expressed through the activation value a0:
    #   s1 = 1 - a0^2,  s2 = -2 a0 s1,  s3 = -2 s1^2 + 4 a0^2 s1.
    # s2 and s3 are formed only when a cotangent needs them.
    s1 = 1.0 - a0 * a0
    s2 = s3 = None
    if g.xa is not None or g.xb is not None or g.xab is not None:
        s2 = -2.0 * a0 * s1
    if g.xab is not None and z.xa is not None and z.xb is not None:
        s3 = -2.0 * s1 * s1 + 4.0 * (a0 * a0) * s1
    gx0 = _madd(
        None,
        (s1, g.x0),
        (s2, z.xa, g.xa),
        (s2, z.xb, g.xb),
        (s2, z.xab, g.xab),
        (s3, z.xa, z.xb, g.xab),
    )
    gxa = _madd(None, (s1, g.xa), (s2, z.xb, g.xab))
    gxb = _madd(None, (s1, g.xb), (s2, z.xa, g.xab))
    gxab = _madd(None, (s1, g.xab))
    return Jet(gx0, gxa, gxb, gxab)


def _affine_backward(A: np.ndarray, x: Jet, g: Jet, with_params: bool):
    def lin(c):
        return None if c is None else c @ A

    gx = Jet(lin(g.x0), lin(g.xa), lin(g.xb), lin(g.xab))
    if not with_params:
        return gx, None
    gA = None
    for gc, xc in zip(g.components(), x.components()):
        if gc is not None and xc is not None:
            term = gc.T @ xc
            gA = term if gA is None else gA + term
    if gA is None:
        gA = np.zeros_like(A)
    gb = np.zeros(A.shape[0]) if g.x0 is None else g.x0.sum(axis=0)
    return gx, (gA, gb)


def chain_backward(weights, jets, g_out: Jet, with_params: bool = True):
    """Pull a cotangent jet on the chain output back to inputs and parameters.

    Returns ``(g_in, g_params)`` where ``g_in`` holds gradients with respect
    to the input jet's components (``g_in.x0`` for the chain input itself,
    ``g_in.xa``/``g_in.xb`` for the tangent directions) and ``g_params`` is a
    list of ``(gA, gb)`` pairs aligned with ``weights`` (``None`` when
    ``with_params`` is false).  Parameter gradients are summed over the batch;
    callers weight per-point contributions through the cotangent itself.
    """
    g = g_out
    g_params = [None] * len(weights) if with_params else None
    idx = len(jets) - 1
    for k in range(len(weights) - 1, -1, -1):
        if k != len(weights) - 1:
            a_jet = jets[idx]
            z_jet = jets[idx - 1]
            g = _tanh_backward(z_jet, a_jet.x0, g)
            idx -= 1
        x_jet = jets[idx - 1]
        A, _ = weights[k]
        g, gp = _affine_backward(A, x_jet, g, with_params)
        if with_params:
            g_params[k] = gp
        idx -= 1
    return g, g_params
