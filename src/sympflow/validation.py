"""Input validation helpers shared by the public API surface.

Phase-space points are plain float arrays ``[q_1..q_d, p_1..p_d]`` of length
``2d``; batches stack them along the first axis.  The helpers here normalise
user input to float64 arrays and reject shape or finiteness violations early,
so the numerical kernels can assume clean data.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "as_float_array",
    "as_phase_points",
    "as_vector",
    "as_box",
    "check_finite_scalar",
    "check_positive",
    "check_positive_int",
    "check_time",
]


def as_float_array(x, name: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def check_finite_scalar(x, name: str = "value") -> float:
    """``x`` as a float, if it is a finite real number (not a bool or a string); else DimensionError."""
    arr = np.asarray(x)
    if arr.ndim or arr.dtype.kind not in "iuf":
        raise DimensionError(f"{name} must be a real number, got {x!r}")
    val = float(arr)
    if not np.isfinite(val):
        raise DimensionError(f"{name} must be finite, got {val}")
    return val


def check_positive(value, name: str = "value") -> float:
    """``value`` as a float, if it is a finite and positive real number; else DimensionError."""
    v = check_finite_scalar(value, name)
    if not v > 0:
        raise DimensionError(f"{name} must be finite and positive, got {value}")
    return v


def check_positive_int(value, name: str = "value", minimum: int = 1) -> int:
    """``value`` as an int, if it is an integer (not a bool) of at least ``minimum``; else DimensionError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DimensionError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def check_time(t, batch: int):
    """A finite time: a float for a scalar, else an array of shape (batch,)."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DimensionError("t must be finite")
    if t.ndim == 0:
        return float(t)
    if t.shape != (batch,):
        raise DimensionError(f"t must be scalar or shape ({batch},), got {t.shape}")
    return t


def as_vector(x, dim: int, name: str = "vector") -> np.ndarray:
    """Validate a single vector of length ``dim``."""
    arr = as_float_array(x, name)
    if arr.shape != (dim,):
        raise DimensionError(f"{name} must have shape ({dim},), got {arr.shape}")
    return arr


def as_phase_points(x, two_d: int, name: str = "x") -> tuple[np.ndarray, bool]:
    """Validate a phase point or a batch of them.

    Returns ``(points, single)`` where ``points`` has shape ``(B, two_d)`` and
    ``single`` records whether the input was an unbatched ``(two_d,)`` vector
    (so callers can squeeze the result back).
    """
    arr = as_float_array(x, name)
    if arr.ndim == 1:
        if arr.shape[0] != two_d:
            raise DimensionError(
                f"{name} must have length {two_d}, got {arr.shape[0]}"
            )
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == two_d:
        return arr, False
    raise DimensionError(
        f"{name} must have shape ({two_d},) or (B, {two_d}), got {arr.shape}"
    )


def as_box(omega, dim: int) -> np.ndarray:
    """Normalise box bounds to shape ``(dim, 2)`` with lo < hi per coordinate.

    Accepts a single ``[lo, hi]`` pair (applied to every coordinate) or a full
    per-coordinate list of pairs.
    """
    arr = np.asarray(omega, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2):
        raise DimensionError(
            f"box bounds must have shape (2,) or ({dim}, 2), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DimensionError("box bounds contain non-finite entries")
    if not np.all(arr[:, 0] < arr[:, 1]):
        raise DimensionError("box bounds must satisfy lo < hi in every coordinate")
    return arr

