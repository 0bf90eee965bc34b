"""Shared geometric and spectral types plus free-space reference values.

Unit conventions used across the package:

* lengths are in nanometers,
* the internal frequency variable is the vacuum wavenumber
  ``k = 2*pi/wavelength`` in reciprocal nanometers (speed of light = 1),
* all public decay rates are dimensionless ratios of an emission rate to a
  reference rate, so no electromagnetic constants appear anywhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Wavenumber",
    "Position",
    "Orientation",
    "PolarizedPoint",
    "Spectrum",
    "free_space_ldos",
    "wavelength_to_k",
    "PurcellxError",
    "InvalidArgumentError",
    "OutOfDomainError",
    "DegenerateReferenceError",
    "UndefinedPhaseError",
    "GridFileError",
    "SweepPointError",
]

#: Vacuum wavenumber ``2*pi/wavelength`` in 1/nm.  Kept as a plain float;
#: operations validate positivity at their boundaries.
Wavenumber = float


class PurcellxError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(PurcellxError, ValueError):
    """An argument violates an operation's precondition."""


class OutOfDomainError(PurcellxError):
    """A field was queried outside the domain it is defined on."""


class DegenerateReferenceError(PurcellxError):
    """The reference double sum is non-positive or too small to divide by."""


class UndefinedPhaseError(PurcellxError):
    """Phase requested where the projected field is numerically zero."""


class GridFileError(PurcellxError):
    """A grid-field file could not be parsed."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class SweepPointError(PurcellxError):
    """Failure at a single sweep grid point, wrapping the original error."""

    def __init__(self, index: int, grid_value: float, original: Exception):
        super().__init__(f"sweep point {index} (grid value {grid_value!r}): {original}")
        self.index = index
        self.grid_value = grid_value


def _require_finite(name: str, *values: complex) -> None:
    for v in values:
        if not cmath.isfinite(v):
            raise InvalidArgumentError(f"{name} must be finite, got {v!r}")


def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(f"{name} must be positive, got {value!r}")


def _require_at_least(name: str, value, minimum: float) -> None:
    if not (math.isfinite(value) and value >= minimum):
        raise InvalidArgumentError(f"{name} must be >= {minimum:g}, got {value!r}")


def _require_k(k) -> None:
    """Raise unless the wavenumber ``k`` (a float or an array of them) is finite and positive."""
    for value in np.ravel(k):
        _require_positive("wavenumber", float(value))


def _require_count(name: str, value) -> int:
    """``value`` as an int >= 1; fractional, non-finite and non-numeric values raise."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < 1:
        raise InvalidArgumentError(f"{name} must be an integer >= 1, got {value!r}")
    return count


@dataclass(frozen=True, slots=True)
class Position:
    """A point in space, coordinates in nanometers."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("Position coordinates", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True, slots=True)
class Orientation:
    """A unit vector giving a transition-dipole direction.

    Components must form a unit vector to within 1e-12; use
    :meth:`from_vector` to normalize an arbitrary nonzero vector.
    """

    ux: float
    uy: float
    uz: float

    def __post_init__(self):
        _require_finite("Orientation components", self.ux, self.uy, self.uz)
        norm = math.sqrt(self.ux**2 + self.uy**2 + self.uz**2)
        if abs(norm - 1.0) > 1e-12:
            raise InvalidArgumentError(
                f"Orientation must have unit norm within 1e-12, got |u| = {norm!r}"
            )

    @classmethod
    def from_vector(cls, x: float, y: float, z: float) -> "Orientation":
        _require_finite("Orientation components", x, y, z)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm < 1e-300:
            raise InvalidArgumentError("cannot orient along a zero vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.ux, self.uy, self.uz], dtype=float)


@dataclass(frozen=True, slots=True)
class PolarizedPoint:
    """A position together with a transition-dipole orientation."""

    position: Position
    orientation: Orientation


def _point_arrays(*points: PolarizedPoint) -> tuple[np.ndarray, np.ndarray]:
    """Positions and orientations of polarized points, each of shape (P, 3).

    Scalar kernels pass these arrays for two points to the pairwise
    ``cdos_matrix`` kernels; an extended source passes them for its elements.
    """
    positions = np.array([(p.position.x, p.position.y, p.position.z) for p in points], dtype=float)
    orientations = np.array(
        [(p.orientation.ux, p.orientation.uy, p.orientation.uz) for p in points], dtype=float
    )
    return positions, orientations


def _two_point(model, a: PolarizedPoint, b: PolarizedPoint, k: Wavenumber) -> float:
    """Projected CDOS ``(2k/pi) Im[u_a . G(r_a, r_b, k) u_b]`` between two polarized points.

    The (a, b) entry of ``model.cdos_matrix``; the projected LDOS when a == b.
    """
    return float(model.cdos_matrix(*_point_arrays(a, b), k)[0, 1])


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Samples of a frequency-dependent quantity on an ascending k grid."""

    k_values: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_values, dtype=float)
        s = np.asarray(self.samples)
        if k.ndim != 1 or s.ndim != 1:
            raise InvalidArgumentError("Spectrum arrays must be one-dimensional")
        if k.size != s.size:
            raise InvalidArgumentError(
                f"Spectrum grid and samples differ in length: {k.size} vs {s.size}"
            )
        if k.size == 0:
            raise InvalidArgumentError("Spectrum must contain at least one point")
        if not np.all(np.isfinite(k)):
            raise InvalidArgumentError("Spectrum grid must be finite")
        if k.size > 1 and not np.all(np.diff(k) > 0):
            raise InvalidArgumentError("Spectrum grid must be strictly ascending")
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return int(self.k_values.size)


def free_space_ldos(k: Wavenumber, n: float = 1.0) -> float:
    """Projected LDOS of a homogeneous medium of refractive index ``n``.

    Returns ``n * k**2 / (3 * pi**2)``; for ``n = 1`` this is the free-space
    value that every Purcell ratio is ultimately normalized by.

    Parameters
    ----------
    k : float
        Vacuum wavenumber, > 0.
    n : float
        Refractive index, must be >= 1.
    """
    _require_k(k)
    _require_at_least("refractive index", n, 1.0)
    return n * k * k / (3.0 * math.pi**2)


def wavelength_to_k(wavelength_nm: float) -> Wavenumber:
    """Convert a vacuum wavelength in nanometers to a wavenumber ``2*pi/lambda``."""
    _require_positive("wavelength", wavelength_nm)
    return 2.0 * math.pi / wavelength_nm
