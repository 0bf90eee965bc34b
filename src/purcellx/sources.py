"""Coherent source construction: weighted lists of elementary dipoles.

A spatially coherent extended emitter is discretized as a list of elementary
dipoles (position, orientation, complex weight).  Cluster weights follow the
1/sqrt(N) convention, i.e. the sum of squared weight magnitudes equals the
squared cluster amplitude; this makes the idealized superradiant doubling of
a constructive pair come out exactly.  An alternative unit-total-amplitude
convention is intentionally not offered, to avoid silent normalization
mismatches.

The reference point is metadata only (it labels outputs); it never enters
rate values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Position,
    Wavenumber,
    _require_count,
    _require_k,
)

__all__ = [
    "DipoleElement",
    "ExtendedSource",
    "SamplingGrid",
    "point_source",
    "pair_source",
    "line_source",
    "sampled_source",
    "default_element_count",
]


@dataclass(frozen=True, slots=True)
class DipoleElement:
    """One elementary dipole of an extended source."""

    point: PolarizedPoint
    weight: complex

    def __post_init__(self):
        w = complex(self.weight)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise InvalidArgumentError(f"element weight must be finite, got {w!r}")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, slots=True)
class ExtendedSource:
    """Non-empty list of mutually coherent dipole elements plus a reference point."""

    elements: tuple[DipoleElement, ...]
    reference: Position

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise InvalidArgumentError("ExtendedSource requires at least one element")
        if all(e.weight == 0 for e in elements):
            raise InvalidArgumentError("ExtendedSource requires a nonzero weight")
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    def positions_array(self) -> np.ndarray:
        return np.array(
            [[e.point.position.x, e.point.position.y, e.point.position.z] for e in self.elements]
        )

    def orientations_array(self) -> np.ndarray:
        return np.array(
            [
                [e.point.orientation.ux, e.point.orientation.uy, e.point.orientation.uz]
                for e in self.elements
            ]
        )

    def weights_array(self) -> np.ndarray:
        return np.array([e.weight for e in self.elements], dtype=complex)


def point_source(p: PolarizedPoint, amplitude: complex = 1.0 + 0.0j) -> ExtendedSource:
    """A single dipole with the given complex amplitude."""
    amplitude = complex(amplitude)
    if amplitude == 0:
        raise InvalidArgumentError("point source amplitude must be nonzero")
    return ExtendedSource(
        elements=(DipoleElement(point=p, weight=amplitude),),
        reference=p.position,
    )


def pair_source(a: PolarizedPoint, b: PolarizedPoint, p: float, phase: float) -> ExtendedSource:
    """Two coherent dipoles with amplitude p/sqrt(2) each and a relative phase.

    The 1/sqrt(2) keeps the summed squared weights equal to p**2.  The
    reference point is the midpoint of the two positions.
    """
    if not (math.isfinite(p) and p > 0.0):
        raise InvalidArgumentError(f"pair amplitude must be positive, got {p!r}")
    if not math.isfinite(phase):
        raise InvalidArgumentError(f"phase must be finite, got {phase!r}")
    w = p / math.sqrt(2.0)
    midpoint = Position(
        0.5 * (a.position.x + b.position.x),
        0.5 * (a.position.y + b.position.y),
        0.5 * (a.position.z + b.position.z),
    )
    return ExtendedSource(
        elements=(
            DipoleElement(point=a, weight=complex(w, 0.0)),
            DipoleElement(point=b, weight=w * cmath.exp(1j * phase)),
        ),
        reference=midpoint,
    )


def line_source(center: Position, axis: Orientation, polarization: Orientation,
                d: float, n_elements: int, p: float = 1.0) -> ExtendedSource:
    """In-phase linear cluster of n_elements dipoles spanning length d.

    Elements are equally spaced on the segment of length d centered at
    ``center`` (endpoints at +-d/2), all oriented along ``polarization`` and
    all weighted p/sqrt(N).  N = 1 or d = 0 degenerates to a point source at
    the center.
    """
    if not (math.isfinite(d) and d >= 0.0):
        raise InvalidArgumentError(f"line length must be >= 0, got {d!r}")
    n = _require_count("element count", n_elements)
    if not (math.isfinite(p) and p > 0.0):
        raise InvalidArgumentError(f"cluster amplitude must be positive, got {p!r}")
    if n == 1 or d == 0.0:
        # a zero-length cluster is a single dipole carrying the full amplitude
        element = DipoleElement(
            point=PolarizedPoint(center, polarization), weight=complex(p, 0.0)
        )
        return ExtendedSource(elements=(element,), reference=center)
    w = complex(p / math.sqrt(n), 0.0)
    offsets = [(i / (n - 1) - 0.5) * d for i in range(n)]
    elements = tuple(
        DipoleElement(
            point=PolarizedPoint(
                Position(
                    center.x + t * axis.ux,
                    center.y + t * axis.uy,
                    center.z + t * axis.uz,
                ),
                polarization,
            ),
            weight=w,
        )
        for t in offsets
    )
    return ExtendedSource(elements=elements, reference=center)


def default_element_count(d: float, k: Wavenumber, n: float = 1.0,
                          per_wavelength: int = 20, minimum: int = 1) -> int:
    """Element count giving spacing <= lambda/(per_wavelength * n).

    This is the quadrature-convergence default for line sources; callers may
    always pass an explicit count instead.
    """
    if d < 0.0 or not math.isfinite(d):
        raise InvalidArgumentError(f"line length must be >= 0, got {d!r}")
    _require_k(k)
    if d == 0.0:
        return max(1, minimum)
    spacing_max = 2.0 * math.pi / (k * n * per_wavelength)
    return max(minimum, int(math.ceil(d / spacing_max)) + 1)


@dataclass(frozen=True, slots=True)
class SamplingGrid:
    """Regular box of cells for discretizing a dipole density.

    ``lo``/``hi`` are opposite box corners; ``shape`` the cell count per
    axis.  Axes with a single cell and zero extent contribute unit measure,
    so line and slab densities can be sampled without a fake thickness.
    """

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    shape: tuple[int, int, int]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        shape = tuple(_require_count("grid shape entry", v) for v in self.shape)
        if len(lo) != 3 or len(hi) != 3 or len(shape) != 3:
            raise InvalidArgumentError("SamplingGrid needs 3 entries per field")
        if any(not math.isfinite(v) for v in lo + hi):
            raise InvalidArgumentError("grid corners must be finite")
        if any(h < l for l, h in zip(lo, hi)):
            raise InvalidArgumentError("grid hi corner must not be below lo corner")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    def cell_measure(self) -> float:
        measure = 1.0
        for l, h, n in zip(self.lo, self.hi, self.shape):
            if h > l:
                measure *= (h - l) / n
        return measure

    def centers(self):
        axes = []
        for l, h, n in zip(self.lo, self.hi, self.shape):
            if h > l:
                step = (h - l) / n
                axes.append([l + (i + 0.5) * step for i in range(n)])
            else:
                axes.append([l] * n)
        for cx in axes[0]:
            for cy in axes[1]:
                for cz in axes[2]:
                    yield Position(cx, cy, cz)


def sampled_source(density: Callable[[Position], complex],
                   polarization: Callable[[Position], Orientation],
                   grid: SamplingGrid,
                   reference: Position | None = None) -> ExtendedSource:
    """Discretize a dipole density on a sampling grid.

    Each cell contributes one element at its center with weight
    ``density(center) * cell_measure`` and the local orientation; zero-weight
    cells are dropped.  Raises if the density vanishes on every cell.
    """
    dv = grid.cell_measure()
    elements = []
    for pos in grid.centers():
        w = complex(density(pos)) * dv
        if w == 0:
            continue
        elements.append(DipoleElement(point=PolarizedPoint(pos, polarization(pos)), weight=w))
    if not elements:
        raise InvalidArgumentError("density vanishes on the whole sampling grid")
    if reference is None:
        reference = Position(
            0.5 * (grid.lo[0] + grid.hi[0]),
            0.5 * (grid.lo[1] + grid.hi[1]),
            0.5 * (grid.lo[2] + grid.hi[2]),
        )
    return ExtendedSource(elements=tuple(elements), reference=reference)
