"""Benchmark Hamiltonian systems and the augmented dissipative formulation.

Three systems are provided:

* ``Sho(m, k)`` -- the simple harmonic oscillator, phase space (q, p).
* ``HenonHeiles()`` -- the cubic two-degree-of-freedom potential with
  coordinates ordered (q_x, q_y, p_x, p_y).
* ``DampedAugmented(m, k, lam)`` -- a damped oscillator recast as a
  conservative system on the doubled phase space (q_a, q_b, pi_a, pi_b).
  The subspace q_a = q_b, pi_a = -pi_b is invariant; on it the dynamics
  reproduces q'' + (lam/m) q' + (k/m) q = 0 and ``physical_limit_project``
  maps arbitrary augmented states onto it.

Every system exposes the energy, the canonical vector field J grad H, its
Jacobian (used by training) and the phase-space gradient grad H.  A system
writes its derivative once, as the rates of J grad H; grad H is read off
them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionError, UnsupportedSystemError
from .validation import as_phase_points, check_finite_scalar, check_positive

__all__ = [
    "HamiltonianSystem",
    "Sho",
    "HenonHeiles",
    "DampedAugmented",
    "system_from_name",
    "physical_limit_project",
    "embed_physical",
    "analytic_solution",
]


# The largest batch that takes the Python-float path.  Floats cost as much
# as columns at about 5 rows for the SHO, 8 for Hénon-Heiles and 13 for the
# damped system (interleaved timings on a 2-core x86-64 VM).
_ROW_LIMIT = 4


class HamiltonianSystem:
    """Common interface; subclasses define the arrays on batches (B, 2d).

    A subclass fixes its half dimension ``d`` and gives J grad H as one rate
    formula, ``_rates(*coords) -> tuple`` of the 2d rates; ``gradient`` reads
    grad H off them, grad_q H = -p' and grad_p H = q'.  ``_vector_field(x,
    out=None)`` writes the rates into ``out``, any (B, 2d) view such as a
    stage slot, or into a new array: on Python floats row by row up to
    ``_ROW_LIMIT`` rows, else on column views.  So the formula uses only float
    ``+ - * /``, which Python rounds as NumPy's ufuncs do, and divides by no
    coordinate (a Python zero raises); no ``**``, no NumPy or math function.
    A row's value is then the same bits in any batch.
    """

    d: ClassVar[int]  # phase-space half dimension

    @staticmethod
    def check(sys) -> None:
        """UnsupportedSystemError unless ``sys`` is a HamiltonianSystem.

        A static method, so that ``benchmarks/tracing.py``, which counts every
        call of a module-level function of this module, counts no type check
        among the system evaluations (``systems.calls``).
        """
        if not isinstance(sys, HamiltonianSystem):
            raise UnsupportedSystemError(f"expected a HamiltonianSystem, got {type(sys).__name__}")

    def _batch(self, x):
        return as_phase_points(x, 2 * self.d)

    def hamiltonian(self, x):
        xb, single = self._batch(x)
        out = self._hamiltonian(xb)
        return float(out[0]) if single else out

    def gradient(self, x):
        """grad H, from the system's rate formula."""
        xb, single = self._batch(x)
        rates = self._vector_field(xb)
        out = np.concatenate([-rates[:, self.d :], rates[:, : self.d]], axis=1)
        return out[0] if single else out

    def vector_field(self, x):
        """J grad H, from the system's rate formula."""
        xb, single = self._batch(x)
        out = self._vector_field(xb)
        return out[0] if single else out

    def _vector_field(self, x, out=None):
        out = np.empty(x.shape) if out is None else out
        if len(x) <= _ROW_LIMIT:
            for i, row in enumerate(x.tolist()):
                out[i] = self._rates(*row)
        else:
            for i, rate in enumerate(self._rates(*x.T)):
                out[:, i] = rate
        return out

    def vector_field_jacobian(self, x):
        xb, single = self._batch(x)
        out = self._vf_jacobian(xb)
        return out[0] if single else out


@dataclass(frozen=True)
class Sho(HamiltonianSystem):
    """Point mass on a spring: H = p^2 / (2m) + k q^2 / 2."""

    m: float = 1.0
    k: float = 1.0
    d: ClassVar[int] = 1

    def __post_init__(self):
        object.__setattr__(self, "m", check_positive(self.m, "mass"))
        object.__setattr__(self, "k", check_positive(self.k, "spring constant"))

    def _hamiltonian(self, x):
        q, p = x[:, 0], x[:, 1]
        return p * p / (2.0 * self.m) + 0.5 * self.k * q * q

    def _rates(self, q, p):
        return p / self.m, -self.k * q

    def _vf_jacobian(self, x):
        J = np.array([[0.0, 1.0 / self.m], [-self.k, 0.0]])
        return np.broadcast_to(J, (x.shape[0], 2, 2))


@dataclass(frozen=True)
class HenonHeiles(HamiltonianSystem):
    """H = (p_x^2 + p_y^2)/2 + (q_x^2 + q_y^2)/2 + q_x^2 q_y - q_y^3 / 3."""

    d: ClassVar[int] = 2

    def _hamiltonian(self, x):
        qx, qy, px, py = x.T
        return 0.5 * (px * px + py * py) + 0.5 * (qx * qx + qy * qy) + qx * qx * qy - qy**3 / 3.0

    def _rates(self, qx, qy, px, py):
        return px, py, qx * (-1.0 - 2.0 * qy), qy * qy - qx * qx - qy

    def _vf_jacobian(self, x):
        qx, qy = x[:, 0], x[:, 1]
        B = x.shape[0]
        out = np.zeros((B, 4, 4))
        out[:, 0, 2] = 1.0
        out[:, 1, 3] = 1.0
        out[:, 2, 0] = -1.0 - 2.0 * qy
        out[:, 2, 1] = -2.0 * qx
        out[:, 3, 0] = -2.0 * qx
        out[:, 3, 1] = -1.0 + 2.0 * qy
        return out


@dataclass(frozen=True)
class DampedAugmented(HamiltonianSystem):
    """Damped oscillator on the doubled phase space (q_a, q_b, pi_a, pi_b)."""

    m: float = 1.0
    k: float = 1.0
    lam: float = 0.5
    d: ClassVar[int] = 2

    def __post_init__(self):
        object.__setattr__(self, "m", check_positive(self.m, "mass"))
        object.__setattr__(self, "k", check_positive(self.k, "spring constant"))
        object.__setattr__(self, "lam", check_finite_scalar(self.lam, "damping constant"))
        if self.lam < 0:
            raise DimensionError(f"damping constant must be nonnegative, got {self.lam}")

    def _hamiltonian(self, x):
        qa, qb, pa, pb = x.T
        return (
            (pa * pa - pb * pb) / (2.0 * self.m)
            + self.lam / (2.0 * self.m) * (qa - qb) * (pa - pb)
            + 0.5 * self.k * (qa - qb) * (qa + qb)
        )

    def _rates(self, qa, qb, pa, pb):
        c = self.lam / (2.0 * self.m)
        return (
            pa / self.m + c * (qa - qb),
            -pb / self.m - c * (qa - qb),
            -c * (pa - pb) - self.k * qa,
            c * (pa - pb) + self.k * qb,
        )

    def _vf_jacobian(self, x):
        c = self.lam / (2.0 * self.m)
        M = np.array(
            [
                [c, -c, 1.0 / self.m, 0.0],
                [-c, c, 0.0, -1.0 / self.m],
                [-self.k, 0.0, -c, c],
                [0.0, self.k, c, -c],
            ]
        )
        return np.broadcast_to(M, (x.shape[0], 4, 4))


_NAMES = {"sho": Sho, "henon_heiles": HenonHeiles, "damped": DampedAugmented}


def system_from_name(name: str, **params) -> HamiltonianSystem:
    try:
        cls = _NAMES[name]
    except KeyError:
        raise UnsupportedSystemError(
            f"unknown system {name!r}; expected one of {sorted(_NAMES)}"
        ) from None
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise UnsupportedSystemError(f"{name} takes no parameter {', '.join(unknown)}")
    return cls(**params)


def physical_limit_project(x):
    """Project augmented states onto q_a = q_b, pi_a = -pi_b (idempotent)."""
    xb, single = as_phase_points(x, 4, "augmented point")
    qa, qb, pa, pb = xb.T
    qm = 0.5 * (qa + qb)
    pm = 0.5 * (pa - pb)
    out = np.stack([qm, qm, pm, -pm], axis=1)
    return out[0] if single else out


def embed_physical(q: float, p: float) -> np.ndarray:
    """Lift a physical (q, p) onto the invariant subspace: (q, q, p, -p)."""
    return np.array([float(q), float(q), float(p), -float(p)])


def analytic_solution(sys: HamiltonianSystem, x0, t):
    """Closed-form flow for the oscillator systems (test oracle).

    For ``Sho`` x0 is (q0, p0).  For ``DampedAugmented`` x0 is the physical
    (q0, p0) and the returned state is physical as well; only the
    underdamped regime lam < 2 sqrt(k m) is supported.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(sys, Sho):
        q0, p0 = float(x0[0]), float(x0[1])
        w = np.sqrt(sys.k / sys.m)
        q = q0 * np.cos(w * t) + p0 / (sys.m * w) * np.sin(w * t)
        p = -sys.m * w * q0 * np.sin(w * t) + p0 * np.cos(w * t)
        return np.stack([q, p], axis=-1)
    if isinstance(sys, DampedAugmented):
        if sys.lam >= 2.0 * np.sqrt(sys.k * sys.m):
            raise UnsupportedSystemError(
                "analytic damped solution requires the underdamped regime "
                f"lam < 2 sqrt(k m), got lam={sys.lam}"
            )
        q0, p0 = float(x0[0]), float(x0[1])
        gamma = sys.lam / (2.0 * sys.m)
        w = np.sqrt(sys.k / sys.m - gamma * gamma)
        env = np.exp(-gamma * t)
        c2 = (p0 / sys.m + gamma * q0) / w
        q = env * (q0 * np.cos(w * t) + c2 * np.sin(w * t))
        qdot = env * (
            (-gamma * q0 + w * c2) * np.cos(w * t) - (gamma * c2 + w * q0) * np.sin(w * t)
        )
        return np.stack([q, sys.m * qdot], axis=-1)
    raise UnsupportedSystemError(f"no analytic solution for {type(sys).__name__}")
