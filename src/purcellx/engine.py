"""The rate engine: normalized decay rates of extended sources via CDOS sums.

The decay rate of a coherent source with elements (P_i, w_i) in an
environment with CDOS kernel rho is the Hermitian double sum

    Gamma ~ sum_ij  conj(w_i) w_j rho(P_i, P_j, k)

and the reported Purcell ratio divides two such sums over the same source,
one in the environment and one in an explicitly chosen reference
environment.  The reference is never an implicit vacuum: for structured
models the LDOS far from resonance would otherwise be zero and the ratio
meaningless, which is also why CLI compositions always add a homogeneous
background.

Every sweep evaluates its grid points independently with a fixed per-point
summation order, so results are bitwise identical between serial and
parallel execution.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Union

import numpy as np

from .core import (
    DegenerateReferenceError,
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Position,
    PurcellxError,
    Spectrum,
    SweepPointError,
    Wavenumber,
    _point_arrays,
    _require_count,
)
from .fields import projected_field
from .homogeneous import HomogeneousGreens
from .modal import ModeSet
from .qnm import QnmPair
from .sources import ExtendedSource, default_element_count, line_source

__all__ = [
    "GreensModel",
    "CompositeGreens",
    "RateResult",
    "LengthSweep",
    "decay_rate",
    "two_dipole_rate",
    "sweep_spectrum",
    "sweep_length",
    "coherence_classification",
    "worker_count",
    "WORKERS_ENV_VAR",
]

#: Environment variable selecting the sweep worker count (default: all CPUs).
WORKERS_ENV_VAR = "PURCELLX_WORKERS"


class GreensModel(Protocol):
    """Contract every environment model satisfies."""

    @property
    def background_index(self) -> float: ...

    def structured_modes(self) -> tuple: ...

    def cdos(self, a: PolarizedPoint, b: PolarizedPoint, k: Wavenumber) -> float: ...

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray: ...


StructuredModel = Union[ModeSet, QnmPair]


@dataclass(frozen=True, slots=True)
class CompositeGreens:
    """Homogeneous radiative background plus a structured resonant model.

    CDOS contributions add (the underlying Im G is additive), which keeps
    the LDOS nonzero away from resonances and prevents 0/0 ratios.
    """

    background: HomogeneousGreens
    structured: StructuredModel

    @property
    def background_index(self) -> float:
        return self.background.n

    def structured_modes(self) -> tuple:
        return self.structured.structured_modes()

    def cdos(self, a: PolarizedPoint, b: PolarizedPoint, k: Wavenumber) -> float:
        return float(self.cdos_matrix(*_point_arrays(a, b), k)[0, 1])

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray:
        return self.background.cdos_matrix(positions, orientations, k) + \
            self.structured.cdos_matrix(positions, orientations, k)


@dataclass(frozen=True, slots=True)
class RateResult:
    """Normalized rate plus the two raw double sums behind it."""

    gamma_ratio: float
    numerator: float
    denominator: float
    k: Wavenumber


@dataclass(frozen=True, eq=False)
class LengthSweep:
    """Rate curve over source length d at fixed k, with diagnostics.

    ``extremity_field`` is the real part of the dominant structured mode's
    field, projected on the source polarization, at one line extremity
    (NaN when the environment has no structured modes).
    """

    d_values: np.ndarray
    gamma_ratio: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    extremity_field: np.ndarray
    k: Wavenumber


def _source_arrays(src: ExtendedSource):
    return src.positions_array(), src.orientations_array(), src.weights_array()


def _quadratic_form(model: GreensModel, positions, orientations, weights,
                    k: Wavenumber) -> float:
    rho = model.cdos_matrix(positions, orientations, k)
    value = np.einsum("i,ij,j->", weights.conjugate(), rho, weights)
    return float(value.real)


def decay_rate(src: ExtendedSource, env: GreensModel, ref_env: GreensModel,
               k: Wavenumber) -> RateResult:
    """Normalized decay rate of a source: env double sum over reference double sum.

    Scaling every weight by a common nonzero constant leaves the ratio
    unchanged; a point source reduces it to the plain LDOS ratio.
    """
    positions, orientations, weights = _source_arrays(src)
    numerator = _quadratic_form(env, positions, orientations, weights, k)
    denominator = _quadratic_form(ref_env, positions, orientations, weights, k)
    if not (denominator > 0.0) or abs(denominator) < 1e-300:
        raise DegenerateReferenceError(
            f"reference double sum is {denominator!r}; cannot normalize"
        )
    return RateResult(
        gamma_ratio=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        k=k,
    )


def two_dipole_rate(a: PolarizedPoint, b: PolarizedPoint, p: float, phase: float,
                    env: GreensModel, k: Wavenumber) -> float:
    """Coherent rate of two equal-amplitude dipoles with a relative phase.

    Evaluates ``(p**2/2) * [rho_aa + rho_bb + 2 rho_ab cos(phase)]`` in CDOS
    units, which equals the decay_rate numerator of the corresponding
    pair source.  The interference term flips sign with the CDOS, so the
    same phase can be superradiant at one pair of points and subradiant at
    another.
    """
    if not (math.isfinite(p) and p > 0.0):
        raise InvalidArgumentError(f"pair amplitude must be positive, got {p!r}")
    rho = env.cdos_matrix(*_point_arrays(a, b), k)
    return (p * p / 2.0) * (rho[0, 0] + rho[1, 1] + 2.0 * rho[0, 1] * math.cos(phase))


def worker_count() -> int:
    """Sweep parallelism, from PURCELLX_WORKERS or the CPU count."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise InvalidArgumentError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from exc
        if value < 1:
            raise InvalidArgumentError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _map_grid(fn: Callable[[int], object], count: int, workers: int | None):
    workers = worker_count() if workers is None else max(1, int(workers))
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def sweep_spectrum(src: ExtendedSource, env: GreensModel, ref_env: GreensModel,
                   k_grid, workers: int | None = None) -> Spectrum:
    """Normalized rate sampled over an ascending wavenumber grid."""
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise InvalidArgumentError("k grid must be a non-empty 1D array")
    if k_grid.size > 1 and not np.all(np.diff(k_grid) > 0):
        raise InvalidArgumentError("k grid must be strictly ascending")
    positions, orientations, weights = _source_arrays(src)

    def at(i: int) -> float:
        k = float(k_grid[i])
        try:
            num = _quadratic_form(env, positions, orientations, weights, k)
            den = _quadratic_form(ref_env, positions, orientations, weights, k)
            if not (den > 0.0) or abs(den) < 1e-300:
                raise DegenerateReferenceError(
                    f"reference double sum is {den!r}; cannot normalize"
                )
            return num / den
        except PurcellxError as exc:
            raise SweepPointError(i, k, exc) from exc

    values = _map_grid(at, k_grid.size, workers)
    return Spectrum(k_values=k_grid, samples=np.array(values, dtype=float))


def _dominant_mode(env: GreensModel, center: Position, polarization: Orientation):
    modes = env.structured_modes()
    if not modes:
        return None
    best = None
    best_mag = -1.0
    for mode in modes:
        mag = abs(projected_field(mode.field, center, polarization))
        if mag > best_mag:
            best = mode
            best_mag = mag
    return best


def sweep_length(center: Position, axis: Orientation, polarization: Orientation,
                 d_values, p: float, env: GreensModel, ref_env: GreensModel,
                 k: Wavenumber, elements: int | Callable[[float], int] | None = None,
                 workers: int | None = None) -> LengthSweep:
    """Normalized rate of a line source versus its length at fixed k.

    ``elements`` fixes the element count per length: an int, a callable
    d -> count, or None for the spacing rule (<= lambda/20 in the
    environment's background medium).  Alongside the rate the sweep emits
    the dominant mode's projected field at one line extremity, whose sign
    change marks the onset of negative center-extremity CDOS.
    """
    d_values = np.asarray(d_values, dtype=float)
    if d_values.ndim != 1 or d_values.size == 0:
        raise InvalidArgumentError("d grid must be a non-empty 1D array")
    if d_values.size > 1 and not np.all(np.diff(d_values) > 0):
        raise InvalidArgumentError("d grid must be strictly ascending")
    if np.any(d_values < 0):
        raise InvalidArgumentError("line lengths must be >= 0")

    if elements is None:
        n_background = env.background_index
        count_for = lambda d: default_element_count(d, k, n=n_background)
    elif callable(elements):
        count_for = elements
    else:
        fixed = _require_count("elements", elements)
        count_for = lambda d: fixed

    dominant = _dominant_mode(env, center, polarization)

    def at(i: int):
        d = float(d_values[i])
        try:
            src = line_source(center, axis, polarization, d, count_for(d), p)
            result = decay_rate(src, env, ref_env, k)
            if dominant is None:
                tip_field = math.nan
            else:
                tip = Position(
                    center.x + 0.5 * d * axis.ux,
                    center.y + 0.5 * d * axis.uy,
                    center.z + 0.5 * d * axis.uz,
                )
                tip_field = projected_field(dominant.field, tip, polarization).real
            return result, tip_field
        except PurcellxError as exc:
            raise SweepPointError(i, d, exc) from exc

    rows = _map_grid(at, d_values.size, workers)
    return LengthSweep(
        d_values=d_values,
        gamma_ratio=np.array([r.gamma_ratio for r, _ in rows]),
        numerator=np.array([r.numerator for r, _ in rows]),
        denominator=np.array([r.denominator for r, _ in rows]),
        extremity_field=np.array([t for _, t in rows]),
        k=k,
    )


def coherence_classification(src: ExtendedSource, env: GreensModel,
                             k: Wavenumber) -> float:
    """Ratio of the coherent rate to the incoherent (diagonal-only) rate.

    beta > 1 marks superradiance, beta < 1 subradiance, beta = 1 a point
    source or perfectly uncorrelated geometry.
    """
    positions, orientations, weights = _source_arrays(src)
    rho = env.cdos_matrix(positions, orientations, k)
    coherent = float(np.einsum("i,ij,j->", weights.conjugate(), rho, weights).real)
    incoherent = float(np.sum((weights.conjugate() * weights).real * np.diag(rho)))
    if incoherent <= 0.0 or abs(incoherent) < 1e-300:
        raise DegenerateReferenceError(
            f"incoherent rate is {incoherent!r}; classification undefined"
        )
    return coherent / incoherent
