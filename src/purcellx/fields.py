"""Mode-field models: analytic cavity surrogates and imported grid maps.

Two concrete field models implement the same evaluation contract:

* :class:`AnalyticSurrogate` - a desk-scale stand-in for the fundamental
  mode of a photonic-crystal cavity: a cosine lobe whose sign changes at
  ``|x| = x0`` under a Gaussian envelope, linearly polarized.
* :class:`GridField` - a regular 2D or 3D grid of complex 3-vectors,
  e.g. a mode map exported from a full-wave solver, evaluated by
  multilinear interpolation.  Queries outside the grid raise instead of
  extrapolating; silent extrapolation would corrupt CDOS signs.

Grid-field file format (text, self-describing header)::

    dims nx ny [nz]
    origin x y [z]
    spacing dx dy [dz]
    components 3
    <one sample per line: Re Ex, Im Ex, Re Ey, Im Ey, Re Ez, Im Ez>

with each ``dims`` entry at least 2, x-fastest sample ordering and floats
carried at full double precision.  The body holds exactly one sample line
per node, ``nx*ny[*nz]`` lines; only blank lines may follow the last one.
The body is parsed in one numeric pass.  A faulty file still names its
first bad line: when that pass refuses the body, a line-by-line scan finds
the line and raises.  The scan also accepts what only Python's ``float``
reads, such as underscore digit groups (``1_0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    GridFileError,
    InvalidArgumentError,
    Orientation,
    OutOfDomainError,
    PolarizedPoint,
    Position,
    _point_arrays,
    _require_finite,
    _require_positive,
)

__all__ = [
    "AnalyticSurrogateParams",
    "AnalyticSurrogate",
    "GridField",
    "VectorFieldModel",
    "projected_field",
    "projected_field_many",
    "load_grid_field",
    "save_grid_field",
]


@dataclass(frozen=True)
class AnalyticSurrogateParams:
    """Parameters of the analytic surrogate mode profile.

    ``sign_change_half_width`` is the x at which the cosine lobe crosses
    zero; ``sigma_x``/``sigma_y`` are Gaussian envelope widths (nm).
    """

    sign_change_half_width: float
    sigma_x: float
    sigma_y: float
    polarization: Orientation
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_positive("sign_change_half_width", self.sign_change_half_width)
        _require_positive("sigma_x", self.sigma_x)
        _require_positive("sigma_y", self.sigma_y)
        amp = complex(self.amplitude)
        _require_finite("amplitude", amp)
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True)
class AnalyticSurrogate:
    """Separable analytic mode profile along a fixed polarization axis.

    The field is ``amplitude * cos(pi*x/(2*x0)) * exp(-x^2/(2 sx^2) - y^2/(2 sy^2))``
    along the polarization axis; z is ignored (slab mid-plane picture).
    """

    params: AnalyticSurrogateParams

    def scalar_profile(self, x, y):
        p = self.params
        shape = np.cos(np.pi * np.asarray(x) / (2.0 * p.sign_change_half_width))
        envelope = np.exp(
            -np.asarray(x) ** 2 / (2.0 * p.sigma_x**2)
            - np.asarray(y) ** 2 / (2.0 * p.sigma_y**2)
        )
        return p.amplitude * shape * envelope

    def fields_at(self, positions: np.ndarray) -> np.ndarray:
        """Field at M points (rows x, y, z); shape (M, 3) complex."""
        profile = self.scalar_profile(positions[:, 0], positions[:, 1])
        return profile[:, None] * self.params.polarization.as_array()

    def field_at(self, r: Position) -> np.ndarray:
        return self.fields_at(r.as_array()[None])[0]


class GridField:
    """Complex vector field sampled on a regular 2D or 3D grid.

    ``data`` has shape (nx, ny, 3) or (nx, ny, nz, 3) with complex entries;
    z is ignored for 2D grids (mid-plane maps).
    """

    __slots__ = ("data", "origin", "spacing")

    def __init__(self, data: np.ndarray, origin, spacing):
        data = np.asarray(data, dtype=complex)
        if data.ndim not in (3, 4) or data.shape[-1] != 3:
            raise InvalidArgumentError(
                "GridField data must have shape (nx, ny, 3) or (nx, ny, nz, 3)"
            )
        ndim = data.ndim - 1
        origin = tuple(float(v) for v in origin)
        spacing = tuple(float(v) for v in spacing)
        if len(origin) != ndim or len(spacing) != ndim:
            raise InvalidArgumentError(
                f"origin/spacing must have {ndim} entries for a {ndim}D grid"
            )
        for s in spacing:
            _require_positive("grid spacing", s)
        _require_finite("grid origin", *origin)
        if any(n < 2 for n in data.shape[:-1]):
            raise InvalidArgumentError("grids need at least 2 samples per axis")
        if not np.all(np.isfinite(data.view(float))):
            raise InvalidArgumentError("grid samples must be finite")
        self.data = data
        self.origin = origin
        self.spacing = spacing

    @property
    def ndim(self) -> int:
        return self.data.ndim - 1

    @property
    def shape(self) -> tuple:
        return self.data.shape[:-1]

    def fields_at(self, positions: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at M points (rows x, y, z); shape (M, 3) complex."""
        coords = np.asarray(positions, dtype=float)[:, : self.ndim]
        top = np.array(self.shape) - 1
        t = (coords - self.origin) / self.spacing
        outside = ~((t >= 0.0) & (t <= top))
        if np.any(outside):
            point, axis = np.argwhere(outside)[0]
            lo = self.origin[axis]
            hi = self.origin[axis] + int(top[axis]) * self.spacing[axis]
            raise OutOfDomainError(
                f"coordinate {float(coords[point, axis])!r} outside grid axis {axis} "
                f"range [{lo}, {hi}]"
            )
        i = np.minimum(np.floor(t).astype(int), top - 1)
        f = t - i
        out = np.zeros((coords.shape[0], 3), dtype=complex)
        # multilinear blend over the 2**ndim surrounding nodes
        for corner in range(1 << self.ndim):
            weight = 1.0
            index = []
            for ax in range(self.ndim):
                up = corner >> ax & 1
                weight = weight * (f[:, ax] if up else 1.0 - f[:, ax])
                index.append(i[:, ax] + up)
            out += weight[:, None] * self.data[tuple(index)]
        return out

    def field_at(self, r: Position) -> np.ndarray:
        return self.fields_at(r.as_array()[None])[0]


VectorFieldModel = Union[AnalyticSurrogate, GridField]


def projected_field(model: VectorFieldModel, r: Position, u: Orientation) -> complex:
    """Projection u . e(r) of the model field on a dipole orientation."""
    return complex(projected_field_many(model, *_point_arrays(PolarizedPoint(r, u)))[0])


def projected_field_many(model: VectorFieldModel, positions: np.ndarray,
                         orientations: np.ndarray) -> np.ndarray:
    """Vectorized ``u_i . e(r_i)`` over M points; shape (M,) complex."""
    return np.einsum("ij,ij->i", orientations, model.fields_at(positions))


def save_grid_field(field: GridField, path) -> None:
    """Write a grid field in the text format documented in this module."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("dims " + " ".join(str(n) for n in field.shape) + "\n")
        fh.write("origin " + " ".join(repr(v) for v in field.origin) + "\n")
        fh.write("spacing " + " ".join(repr(v) for v in field.spacing) + "\n")
        fh.write("components 3\n")
        # x-fastest ordering (Fortran order over the nodes); each row is re, im of x, y, z
        rows = np.ascontiguousarray(field.data.reshape(-1, 3, order="F")).view(float)
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in rows.tolist())


def load_grid_field(path) -> GridField:
    """Read a grid field written by :func:`save_grid_field` (lossless round trip)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            line = next(i for i, raw in enumerate(fh, 1) if not raw.isascii())
        raise GridFileError(path, line, "non-ASCII byte") from exc

    def header(line_no: int, key: str, cast):
        if line_no >= len(lines):
            raise GridFileError(path, line_no + 1, f"missing `{key}` header line")
        parts = lines[line_no].split()
        if not parts or parts[0] != key:
            raise GridFileError(path, line_no + 1, f"expected `{key}` header, got {lines[line_no]!r}")
        try:
            values = [cast(tok) for tok in parts[1:]]
        except ValueError as exc:
            raise GridFileError(path, line_no + 1, f"bad `{key}` value: {exc}") from exc
        return values

    dims = header(0, "dims", int)
    if len(dims) not in (2, 3):
        raise GridFileError(path, 1, f"dims must list 2 or 3 axes, got {len(dims)}")
    if min(dims) < 2:
        raise GridFileError(path, 1, f"each dims entry must be >= 2, got {dims}")
    origin = header(1, "origin", float)
    spacing = header(2, "spacing", float)
    comps = header(3, "components", int)
    if comps != [3]:
        raise GridFileError(path, 4, f"components must be 3, got {comps}")
    if len(origin) != len(dims) or len(spacing) != len(dims):
        raise GridFileError(path, 2, "origin/spacing axis count must match dims")

    count = 1
    for n in dims:
        count *= n
    body = lines[4:]
    if len(body) < count:
        raise GridFileError(path, len(lines), f"expected {count} sample lines, found {len(body)}")
    for row, line in enumerate(body[count:]):
        if line.strip():
            raise GridFileError(path, 5 + count + row, f"expected {count} sample lines, found more")

    sample_lines = body[:count]
    reals = None
    # np.loadtxt skips blank lines, so a blank first sample line would leave
    # too few rows anyway; sending it straight to the scan also keeps
    # np.loadtxt from warning about an all-blank body.
    if sample_lines[0].strip():
        try:
            reals = np.loadtxt(sample_lines, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
    if reals is not None and reals.shape == (count, 6) and np.isfinite(reals).all():
        samples = reals.view(complex)
    else:
        samples = _scan_samples(path, sample_lines)

    # samples are x-fastest: reshape with reversed dims then move axes back
    data = samples.reshape(tuple(reversed(dims)) + (3,))
    data = np.moveaxis(data, range(len(dims)), range(len(dims) - 1, -1, -1))
    return GridField(data, origin, spacing)


def _scan_samples(path, lines) -> np.ndarray:
    """Parse sample lines one by one: the first bad line raises with its number.

    The fallback of :func:`load_grid_field` when its bulk parse refuses the
    body.  Python's ``float`` also accepts underscore digit groups (``1_0``),
    which ``np.loadtxt`` does not, so such files load here.
    """
    samples = np.empty((len(lines), 3), dtype=complex)
    for row, line in enumerate(lines):
        line_no = 5 + row
        toks = line.split()
        if len(toks) != 6:
            raise GridFileError(path, line_no, f"expected 6 reals per sample, got {len(toks)}")
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise GridFileError(path, line_no, f"bad float: {exc}") from exc
        if any(not math.isfinite(v) for v in vals):
            raise GridFileError(path, line_no, "non-finite sample")
        samples[row] = [complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                        complex(vals[4], vals[5])]
    return samples
