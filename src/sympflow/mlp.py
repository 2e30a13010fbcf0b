"""Unconstrained baseline flow: x + tanh(t) * MLP([x; t]).

The multiplicative tanh(t) factor enforces the identity at t = 0 for any
weights.  Layer widths are 2d+1 -> hidden -> ... -> hidden -> 2d with tanh
between affine maps and none after the last.  The baseline is generally not
symplectic; it exists as the comparison model.

The net runs on the sweeps of :mod:`sympflow._jet`.  The supervised loss
term's forward pass and parameter pullback run on a value-only program that
:func:`_bind` binds to the weights at one batch size; its buffers belong to
the caller that bound it (``train()`` and each loss entry bind one per
call).  Everything else, window maps, the velocity residual and
``energy_reg`` included, sweeps on the thread's plans (:func:`_taped`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._jet import Jet, _ValueProgram, chain_backward, chain_forward, flatten, unflatten
from ._jet import check_chain, random_chain, zero_chain
from .errors import DimensionError
from .validation import as_phase_points, check_time

__all__ = [
    "MlpFlowModel",
    "random_mlp_flow",
    "zero_mlp_flow",
    "forward",
    "time_derivative",
    "param_count",
    "params_to_vector",
    "model_with_params",
]


@dataclass(frozen=True)
class MlpFlowModel:
    kind: ClassVar[str] = "mlp"

    d: int
    weights: tuple[tuple[np.ndarray, np.ndarray], ...]  # (A_k, b_k) per affine map
    hidden: int = 10

    def __post_init__(self):
        if self.d < 1 or self.hidden < 1 or not self.weights:
            raise DimensionError(
                f"an MLP needs d and hidden of at least 1 and at least one affine layer, "
                f"got d={self.d}, hidden={self.hidden} and {len(self.weights)} layers"
            )
        check_chain(self.weights, _widths(self.d, len(self.weights), self.hidden))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def h(self) -> int:
        return self.hidden

    @property
    def n_params(self) -> int:
        return param_count(self)


def param_count(model: MlpFlowModel) -> int:
    return sum(A.size + b.size for A, b in model.weights)


def _widths(d: int, n_layers: int, hidden: int):
    """2d+1, hidden, ..., hidden, 2d for n_layers affine maps; one width, no map, for none."""
    return ([2 * d + 1] + [hidden] * (n_layers - 1) + [2 * d])[: n_layers + 1]


def random_mlp_flow(d: int, n_layers: int, rng: np.random.Generator, hidden: int = 10) -> MlpFlowModel:
    """Seeded init by the package's law, :func:`sympflow._jet.random_chain`."""
    return MlpFlowModel(d, tuple(random_chain(_widths(d, n_layers, hidden), rng)), hidden)


def zero_mlp_flow(d: int, n_layers: int, hidden: int = 10) -> MlpFlowModel:
    return MlpFlowModel(d, tuple(zero_chain(_widths(d, n_layers, hidden))), hidden)


def params_to_vector(model: MlpFlowModel) -> np.ndarray:
    return flatten(model.weights)


def model_with_params(model: MlpFlowModel, vec: np.ndarray) -> MlpFlowModel:
    """A model of ``model``'s shape with the parameters of a copy of ``vec``."""
    return _model_over(model, np.array(vec, dtype=float))


def _model_over(model: MlpFlowModel, buf: np.ndarray) -> MlpFlowModel:
    """A model of ``model``'s shape whose weights are views of the flat float vector ``buf``.

    A write to ``buf`` changes the model in place, unchecked: the caller
    keeps ``buf`` finite.
    """
    return MlpFlowModel(model.d, tuple(unflatten(buf, model.weights)), model.hidden)


# ---------------------------------------------------------------------------
# The model protocol shared with :mod:`sympflow.model`: ``_forward_b``,
# ``_taped`` and ``_pullback``.  Batched kernels take x (B, 2d); t scalar or
# (B,).
# ---------------------------------------------------------------------------


def _taped(model: MlpFlowModel, t, x: np.ndarray, velocity: bool = False):
    """The flow map, its time derivative when ``velocity``, and the tape of :func:`_pullback`.

    One sweep of the net over [x; t]; with ``velocity`` it carries the time
    tangent, and d/dt = sech^2(t) net + tanh(t) d_t net.  Returns ``(x_out,
    v or None, tape)``; the tape lives until the thread's next sweep.
    """
    n, B = x.shape[1], x.shape[0]
    u0 = np.empty((n + 1, B)).T  # the column-major layout of the sweeps
    th = _fill(u0, t, x)
    xa = None
    if velocity:
        xa = np.zeros((n + 1, B)).T
        xa[:, n] = 1.0
    jets = chain_forward(model.weights, Jet(u0, xa))
    net = jets[-1]
    v = None if xa is None else (1.0 - th * th) * net.x0 + th * net.xa
    return x + th * net.x0, v, (jets, th)


def _pullback(model: MlpFlowModel, t, tape, wx: np.ndarray, wv=None, job=None):
    """Pull cotangents wx on the map and wv on its time derivative back through a tape.

    One pullback of ``Jet(x0=th wx + (1 - th^2) wv, xa=th wv)``, th =
    tanh(t), through the net; the identity part adds wx to gx.  The tape
    holds th, so ``t`` is not read again.  Returns ``(gx (B, 2d), gtheta
    flat)``.  ``job`` is the SympFlow pullback's handle for time-0 sweeps;
    this map makes none, so it is unused.
    """
    jets, th = tape
    if wv is None:
        g = Jet(x0=th * wx)
    else:
        g = Jet(x0=th * wx + (1.0 - th * th) * wv, xa=th * wv)
    gin, gp = chain_backward(model.weights, jets, g)
    return wx + gin.x0[:, :-1], flatten(gp)


def _fill(u, t, x):
    """Write [x; t] into the ``(B, 2d+1)`` array u; returns th = tanh(t), a ``(B, 1)`` column."""
    n = x.shape[1]
    u[:, :n] = x
    u[:, n] = t
    return np.tanh(u[:, n:])


def _bind(model: MlpFlowModel, B: int) -> _ValueProgram:
    """The net's value-only program at B rows; it reads the weight arrays in place."""
    return _ValueProgram(model.weights, B)


def _bound_taped(prog: _ValueProgram, t, x: np.ndarray):
    """``_taped(model, t, x)`` on the model's program: ``(x_out, None, th)``, bit for bit."""
    th = _fill(prog.x, t, x)
    return x + th * prog.forward(), None, th


def _bound_pullback(prog: _ValueProgram, t, th, wx: np.ndarray):
    """``(None, prog.grad)``: ``_pullback(model, t, tape, wx)`` without gx, which no term reads."""
    return None, prog.pullback(th * wx)


def _forward_b(model: MlpFlowModel, t, x: np.ndarray) -> np.ndarray:
    return _taped(model, t, x)[0]


def forward(model: MlpFlowModel, t, x):
    """x + tanh(t) * net([x; t]); exact identity at t = 0."""
    xb, single = as_phase_points(x, 2 * model.d)
    out = _forward_b(model, check_time(t, xb.shape[0]), xb)
    return out[0] if single else out


def time_derivative(model: MlpFlowModel, t, x):
    """Exact d/dt: sech^2(t) net + tanh(t) d_t net."""
    xb, single = as_phase_points(x, 2 * model.d)
    out = _taped(model, check_time(t, xb.shape[0]), xb, velocity=True)[1]
    return out[0] if single else out
