"""Coherent source construction: elementary dipoles held as arrays.

A spatially coherent extended emitter is discretized into elementary dipoles
(position, orientation, complex weight), held as read-only arrays.  Cluster
weights follow the 1/sqrt(N) convention, i.e. the sum of squared weight
magnitudes equals the squared cluster amplitude; this makes the idealized
superradiant doubling of a constructive pair come out exactly.  An
alternative unit-total-amplitude convention is intentionally not offered, to
avoid silent normalization mismatches.

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


@dataclass(frozen=True)
class DipoleElement:
    """One elementary dipole of an extended source."""

    point: PolarizedPoint
    weight: complex

    def __post_init__(self):
        w = complex(self.weight)
        _require_finite("element weight", w)
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, init=False, eq=False)
class ExtendedSource:
    """Non-empty set of mutually coherent dipoles plus a reference point.

    Its state is three read-only arrays, the (M, 3) positions and orientations
    and the (M,) complex weights, and, for a source made by a builder of this
    module, the lattice its elements sit on: ``(steps, cells)``, element i
    sitting ``cells[i] @ steps`` away from the lattice origin, with the three
    step vectors as the rows of ``steps`` and no two elements in one cell.  The
    homogeneous kernel of a lattice source depends only on the lag between
    cells.  ``ExtendedSource(elements, reference)`` builds a source, without a
    lattice, from :class:`DipoleElement` records; :attr:`elements` is a view of
    the arrays, built on first use.  Equality and hashing ignore the lattice.
    """

    reference: Position
    _arrays: tuple = field(repr=False)
    _lattice: tuple | None = field(repr=False)
    _elements: tuple | None = field(repr=False)

    def __init__(self, elements, reference):
        elements = tuple(elements)
        if not elements:
            raise InvalidArgumentError("ExtendedSource requires at least one element")
        _source(*_point_arrays(*(e.point for e in elements)), [e.weight for e in elements],
                reference, src=self)
        object.__setattr__(self, "_elements", elements)

    @property
    def elements(self) -> tuple[DipoleElement, ...]:
        """The elements as :class:`DipoleElement` records, built from the arrays on first use."""
        if self._elements is None:
            object.__setattr__(self, "_elements", tuple(
                DipoleElement(PolarizedPoint(Position(*r), Orientation(*u)), w)
                for r, u, w in zip(*(array.tolist() for array in self._arrays))))
        return self._elements

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.reference == other.reference and all(
            np.array_equal(a, b) for a, b in zip(self._arrays, other._arrays))

    def __hash__(self) -> int:
        return hash((self.reference, tuple(self._arrays[2].tolist())))

    def __reduce__(self):
        # copies and pickles are rebuilt through the checks and read-only marking of a built source
        return _source, (*self._arrays, self.reference, self._lattice)

    def __len__(self) -> int:
        return len(self._arrays[2])

    def positions_array(self) -> np.ndarray:
        return self._arrays[0]

    def orientations_array(self) -> np.ndarray:
        return self._arrays[1]

    def weights_array(self) -> np.ndarray:
        return self._arrays[2]


def _source(positions, orientations, weights, reference: Position, lattice=None,
            src: ExtendedSource | None = None) -> ExtendedSource:
    """The source (``src`` when given) whose state is these arrays and lattice."""
    weights = np.asarray(weights, dtype=complex)
    for name, array in (("Position coordinates", positions), ("element weight", weights)):
        if not np.isfinite(array).all():
            _require_finite(name, *array.ravel().tolist())
    if not weights.any():
        raise InvalidArgumentError("ExtendedSource requires a nonzero weight")
    if lattice is not None:
        lattice = (np.array(lattice[0], dtype=float),
                   np.array(lattice[1], dtype=np.intp).reshape(-1, 3))
    for array in (positions, orientations, weights, *(lattice or ())):
        array.flags.writeable = False
    src = object.__new__(ExtendedSource) if src is None else src
    for name, value in (("reference", reference), ("_arrays", (positions, orientations, weights)),
                        ("_lattice", lattice), ("_elements", None)):
        object.__setattr__(src, name, value)
    return src


def point_source(p: PolarizedPoint, amplitude: complex = 1.0 + 0.0j) -> ExtendedSource:
    """A single dipole with the given complex amplitude."""
    amplitude = complex(amplitude)
    if amplitude == 0:
        raise InvalidArgumentError("point source amplitude must be nonzero")
    return _source(*_point_arrays(p), [amplitude], p.position, (np.zeros((3, 3)), [(0, 0, 0)]))


def pair_source(a: PolarizedPoint, b: PolarizedPoint, p: float, phase: float) -> ExtendedSource:
    """Two coherent dipoles with amplitude p/sqrt(2) each and a relative phase.

    The 1/sqrt(2) keeps the summed squared weights equal to p**2.  The
    reference point is the midpoint of the two positions.
    """
    _require_positive("pair amplitude", p)
    _require_finite("phase", phase)
    w = p / math.sqrt(2.0)
    positions, orientations = _point_arrays(a, b)
    return _source(positions, orientations, [complex(w, 0.0), w * cmath.exp(1j * phase)],
                   Position(*(0.5 * (u + v) for u, v in zip(*positions.tolist()))),
                   (np.vstack([positions[1] - positions[0], np.zeros((2, 3))]),
                    [(0, 0, 0), (1, 0, 0)]))


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
        n, step, positions = 1, np.zeros(3), center.as_array()[None]
    else:
        step = (d / (n - 1)) * axis.as_array()
        offsets = (np.arange(n) / (n - 1) - 0.5) * d
        with np.errstate(over="ignore"):  # _source reports an overflowing coordinate
            positions = center.as_array() + offsets[:, None] * axis.as_array()
    return _source(positions, np.tile(polarization.as_array(), (n, 1)),
                   np.full(n, complex(p / math.sqrt(n), 0.0)), center,
                   (np.vstack([step, np.zeros((2, 3))]), np.outer(np.arange(n), [1, 0, 0])))


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


@dataclass(frozen=True)
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
    kept = []
    for pos, cell in zip(grid.centers(), np.ndindex(grid.shape)):
        w = complex(density(pos)) * dv
        if w != 0:
            u = polarization(pos)
            kept.append((cell, (pos.x, pos.y, pos.z), (u.ux, u.uy, u.uz), w))
    if not kept:
        raise InvalidArgumentError("density vanishes on the whole sampling grid")
    cells, positions, orientations, weights = zip(*kept)
    if reference is None:
        reference = Position(*(0.5 * (l + h) for l, h in zip(grid.lo, grid.hi)))
    return _source(np.array(positions, dtype=float), np.array(orientations, dtype=float),
                   weights, reference, (np.diag(grid._steps()), cells))
