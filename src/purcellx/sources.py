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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Position,
    Wavenumber,
    _point_arrays,
    _require_at_least,
    _require_count,
    _require_finite,
    _require_k,
    _require_positive,
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
        _require_finite("element weight", w)
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, slots=True)
class ExtendedSource:
    """Non-empty list of mutually coherent dipole elements plus a reference point.

    The element arrays are built once, at construction, and are read-only.
    The source builders of this module also record the lattice their elements
    sit on (see :func:`_on_lattice`); a source built from an element list has none.
    """

    elements: tuple[DipoleElement, ...]
    reference: Position
    _arrays: tuple = field(init=False, repr=False, compare=False)
    _lattice: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise InvalidArgumentError("ExtendedSource requires at least one element")
        if all(e.weight == 0 for e in elements):
            raise InvalidArgumentError("ExtendedSource requires a nonzero weight")
        arrays = (*_point_arrays(*(e.point for e in elements)),
                  np.array([e.weight for e in elements], dtype=complex))
        for array in arrays:
            array.flags.writeable = False
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_arrays", arrays)

    def __len__(self) -> int:
        return len(self.elements)

    def positions_array(self) -> np.ndarray:
        return self._arrays[0]

    def orientations_array(self) -> np.ndarray:
        return self._arrays[1]

    def weights_array(self) -> np.ndarray:
        return self._arrays[2]


def _on_lattice(src: ExtendedSource, steps, cells) -> ExtendedSource:
    """Record that element i sits ``cells[i] @ steps`` away from the lattice origin.

    ``steps`` holds the three (3,) step vectors as rows and ``cells`` the (M, 3)
    integer cell index of each element; no two elements share a cell.  The
    homogeneous kernel of a lattice source depends only on the lag between cells.
    """
    lattice = (np.array(steps, dtype=float), np.array(cells, dtype=np.intp).reshape(-1, 3))
    for array in lattice:
        array.flags.writeable = False
    object.__setattr__(src, "_lattice", lattice)
    return src


def point_source(p: PolarizedPoint, amplitude: complex = 1.0 + 0.0j) -> ExtendedSource:
    """A single dipole with the given complex amplitude."""
    amplitude = complex(amplitude)
    if amplitude == 0:
        raise InvalidArgumentError("point source amplitude must be nonzero")
    src = ExtendedSource(
        elements=(DipoleElement(point=p, weight=amplitude),),
        reference=p.position,
    )
    return _on_lattice(src, np.zeros((3, 3)), [(0, 0, 0)])


def pair_source(a: PolarizedPoint, b: PolarizedPoint, p: float, phase: float) -> ExtendedSource:
    """Two coherent dipoles with amplitude p/sqrt(2) each and a relative phase.

    The 1/sqrt(2) keeps the summed squared weights equal to p**2.  The
    reference point is the midpoint of the two positions.
    """
    _require_positive("pair amplitude", p)
    _require_finite("phase", phase)
    w = p / math.sqrt(2.0)
    midpoint = Position(
        0.5 * (a.position.x + b.position.x),
        0.5 * (a.position.y + b.position.y),
        0.5 * (a.position.z + b.position.z),
    )
    src = ExtendedSource(
        elements=(
            DipoleElement(point=a, weight=complex(w, 0.0)),
            DipoleElement(point=b, weight=w * cmath.exp(1j * phase)),
        ),
        reference=midpoint,
    )
    positions = src.positions_array()
    return _on_lattice(src, np.vstack([positions[1] - positions[0], np.zeros((2, 3))]),
                       [(0, 0, 0), (1, 0, 0)])


def line_source(center: Position, axis: Orientation, polarization: Orientation,
                d: float, n_elements: int, p: float = 1.0) -> ExtendedSource:
    """In-phase linear cluster of n_elements dipoles spanning length d.

    Elements are equally spaced on the segment of length d centered at
    ``center`` (endpoints at +-d/2), all oriented along ``polarization`` and
    all weighted p/sqrt(N).  N = 1 or d = 0 degenerates to a point source at
    the center.
    """
    _require_at_least("line length", d, 0.0)
    n = _require_count("element count", n_elements)
    _require_positive("cluster amplitude", p)
    if n == 1 or d == 0.0:
        # a zero-length cluster is a single dipole carrying the full amplitude
        return point_source(PolarizedPoint(center, polarization), p)
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
    step = (d / (n - 1)) * axis.as_array()
    return _on_lattice(ExtendedSource(elements=elements, reference=center),
                       np.vstack([step, np.zeros((2, 3))]), [(i, 0, 0) for i in range(n)])


def default_element_count(d: float, k: Wavenumber, n: float = 1.0) -> int:
    """Element count giving spacing <= lambda/(20 n).

    This is the quadrature-convergence default for line sources; callers may
    always pass an explicit count instead.
    """
    _require_at_least("line length", d, 0.0)
    _require_k(k)
    _require_at_least("refractive index", n, 1.0)
    spacing_max = 2.0 * math.pi / (k * n * 20)
    return int(math.ceil(d / spacing_max)) + 1


@dataclass(frozen=True, slots=True)
class SamplingGrid:
    """Regular box of cells for discretizing a dipole density.

    ``lo``/``hi`` are opposite box corners; ``shape`` the cell count per
    axis.  Axes with a single cell and zero extent contribute unit measure,
    so line and slab densities can be sampled without a fake thickness.  A
    zero-extent axis takes exactly one cell: more would stack coincident cells.
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
        _require_finite("grid corners", *lo, *hi)
        if any(h < l for l, h in zip(lo, hi)):
            raise InvalidArgumentError("grid hi corner must not be below lo corner")
        for axis, l, h, n in zip("xyz", lo, hi, shape):
            if h == l and n > 1:
                raise InvalidArgumentError(
                    f"grid axis {axis} has zero extent but {n} cells; a flat axis takes one cell"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    def _steps(self) -> tuple[float, float, float]:
        """Cell edge length per axis; 0 on a zero-extent axis."""
        return tuple((h - l) / n for l, h, n in zip(self.lo, self.hi, self.shape))

    def cell_measure(self) -> float:
        measure = 1.0
        for l, h, step in zip(self.lo, self.hi, self._steps()):
            if h > l:
                measure *= step
        return measure

    def centers(self):
        """Cell centers, x outermost and z innermost (``np.ndindex(shape)`` order)."""
        axes = [[l + (i + 0.5) * step for i in range(n)]
                for l, n, step in zip(self.lo, self.shape, self._steps())]
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
    cells = []
    for pos, cell in zip(grid.centers(), np.ndindex(grid.shape)):
        w = complex(density(pos)) * dv
        if w == 0:
            continue
        elements.append(DipoleElement(point=PolarizedPoint(pos, polarization(pos)), weight=w))
        cells.append(cell)
    if not elements:
        raise InvalidArgumentError("density vanishes on the whole sampling grid")
    if reference is None:
        reference = Position(
            0.5 * (grid.lo[0] + grid.hi[0]),
            0.5 * (grid.lo[1] + grid.hi[1]),
            0.5 * (grid.lo[2] + grid.hi[2]),
        )
    return _on_lattice(ExtendedSource(elements=tuple(elements), reference=reference),
                       np.diag(grid._steps()), cells)
