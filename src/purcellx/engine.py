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

A call checks its k grid once; each distinct model part then ``reduce``s the
source to k-free values, one reduction for all homogeneous media, and
``evaluate``s them.  No value depends on the other points of the grid, so a
sweep agrees bitwise with :func:`decay_rate`.
:func:`coherence_classification` takes its coherent sum the same way and its
incoherent sum from each model's per-point LDOS, ``ldos_many``.  No function
here builds the M x M ``cdos_matrix``: a homogeneous sum costs its terms
(distinct separations of a lattice, or pairs) x K in blocks of bounded size,
and a pole sum modes x (M + K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

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
    _forms,
    _require_count,
    _require_k,
    _require_k_grid,
    _two_point,
)
from .fields import projected_field
from .homogeneous import HomogeneousGreens
from .sources import ExtendedSource, default_element_count, line_source, pair_source

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
]


class GreensModel(Protocol):
    """Contract every environment model satisfies.

    ``ldos_many`` is the projected LDOS ``rho(P_i, P_i, k)`` at each of M
    polarized points, shape (M,); ``forms`` checks a k grid, then ``evaluate``s
    the k-free ``reduce`` of a source to ``w^H rho(k) w`` at each k, shape (K,).
    None builds the M x M CDOS matrix; ``cdos_matrix`` is the kernel and oracle.
    """

    @property
    def background_index(self) -> float: ...

    def structured_modes(self) -> tuple: ...

    def ldos_many(self, positions: np.ndarray, orientations: np.ndarray,
                  k: Wavenumber) -> np.ndarray: ...

    def reduce(self, src: ExtendedSource): ...

    def evaluate(self, reduction, k_grid: np.ndarray) -> np.ndarray: ...

    def forms(self, src: ExtendedSource, k_grid) -> np.ndarray: ...


@dataclass(frozen=True)
class CompositeGreens:
    """Homogeneous radiative background plus a structured resonant model or composite.

    CDOS contributions add (the underlying Im G is additive), which keeps
    the LDOS nonzero away from resonances and prevents 0/0 ratios.
    """

    background: HomogeneousGreens
    structured: GreensModel

    @property
    def background_index(self) -> float:
        return self.background.n

    def structured_modes(self) -> tuple:
        return self.structured.structured_modes()

    cdos = _two_point

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray:
        return self.background.cdos_matrix(positions, orientations, k) + \
            self.structured.cdos_matrix(positions, orientations, k)

    def ldos_many(self, positions: np.ndarray, orientations: np.ndarray,
                  k: Wavenumber) -> np.ndarray:
        return self.background.ldos_many(positions, orientations, k) + \
            self.structured.ldos_many(positions, orientations, k)

    def reduce(self, src: ExtendedSource) -> tuple:
        return self.background.reduce(src), self.structured.reduce(src)

    def evaluate(self, reduction: tuple, k_grid: np.ndarray) -> np.ndarray:
        return self.background.evaluate(reduction[0], k_grid) + \
            self.structured.evaluate(reduction[1], k_grid)

    forms = _forms


@dataclass(frozen=True)
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


def _double_sums(src: ExtendedSource, k_grid: np.ndarray, *models: GreensModel) -> tuple:
    """``w^H rho(k) w`` of each model over a checked ``k_grid``: one reduction per
    distinct ``reduce``, one evaluation per distinct part."""
    reductions, forms, sums = {}, {}, []
    for model in models:
        parts = (model.background, model.structured) if isinstance(model, CompositeGreens) \
            else (model,)
        for part in parts:
            if part not in forms:
                if part.reduce not in reductions:
                    reductions[part.reduce] = part.reduce(src)
                forms[part] = part.evaluate(reductions[part.reduce], k_grid)
        sums.append(sum(forms[part] for part in parts))
    return tuple(sums)


def _ascending_grid(name: str, values) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidArgumentError(f"{name} grid must be a non-empty 1D array")
    # a NaN passes the order test and is named at its point by the per-point checks
    if np.any(np.diff(grid) <= 0):
        raise InvalidArgumentError(f"{name} grid must be strictly ascending")
    return grid


def _require_reference(denominator) -> None:
    """Raise unless the reference double sum (a float or an array of them) can normalize."""
    if not np.all(denominator >= 1e-300):
        raise DegenerateReferenceError(f"reference double sum is {denominator!r}; cannot normalize")


def _require_at_each_point(check, values, grid) -> None:
    """``check`` on the whole array; if it fails, the first failing value raises
    SweepPointError with its index."""
    try:
        check(values)
    except PurcellxError:
        for i, value in enumerate(values):
            try:
                check(float(value))
            except PurcellxError as exc:
                raise SweepPointError(i, float(grid[i]), exc) from exc
        raise


def decay_rate(src: ExtendedSource, env: GreensModel, ref_env: GreensModel,
               k: Wavenumber) -> RateResult:
    """Normalized decay rate of a source: env double sum over reference double sum.

    Scaling every weight by a common nonzero constant leaves the ratio
    unchanged; a point source reduces it to the plain LDOS ratio.
    """
    num, den = _double_sums(src, _require_k_grid([k]), env, ref_env)
    numerator, denominator = float(num[0]), float(den[0])
    _require_reference(denominator)
    return RateResult(numerator / denominator, numerator, denominator, k)


def two_dipole_rate(a: PolarizedPoint, b: PolarizedPoint, p: float, phase: float,
                    env: GreensModel, k: Wavenumber) -> float:
    """Coherent rate of two equal-amplitude dipoles with a relative phase.

    This is the :func:`decay_rate` numerator of ``pair_source(a, b, p, phase)``,
    ``(p**2/2) * [rho_aa + rho_bb + 2 rho_ab cos(phase)]`` in CDOS units.  The
    interference term flips sign with the CDOS, so the same phase can be
    superradiant at one pair of points and subradiant at another.
    """
    (num,) = _double_sums(pair_source(a, b, p, phase), _require_k_grid([k]), env)
    return float(num[0])


def sweep_spectrum(src: ExtendedSource, env: GreensModel, ref_env: GreensModel, k_grid) -> Spectrum:
    """Normalized rate over an ascending k grid; a projection error (k-free) reports point 0."""
    k_grid = _ascending_grid("k", k_grid)
    _require_at_each_point(_require_k, k_grid, k_grid)
    try:
        num, den = _double_sums(src, k_grid, env, ref_env)
    except PurcellxError as exc:
        raise SweepPointError(0, float(k_grid[0]), exc) from exc
    _require_at_each_point(_require_reference, den, k_grid)
    return Spectrum(k_values=k_grid, samples=num / den)


def _dominant_mode(env: GreensModel, center: Position, polarization: Orientation):
    modes = env.structured_modes()
    if not modes:
        return None
    return max(modes, key=lambda mode: abs(projected_field(mode.field, center, polarization)))


def sweep_length(center: Position, axis: Orientation, polarization: Orientation,
                 d_values, p: float, env: GreensModel, ref_env: GreensModel, k: Wavenumber,
                 elements: int | Callable[[float], int] | None = None) -> LengthSweep:
    """Normalized rate of a line source versus its length at fixed k.

    ``elements`` fixes the element count per length: an int, a callable
    d -> count, or None for the spacing rule (<= lambda/20 in the
    environment's background medium).  Alongside the rate the sweep emits
    the dominant mode's projected field at one line extremity, whose sign
    change marks the onset of negative center-extremity CDOS.
    """
    d_values = _ascending_grid("d", d_values)
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

    rows = [at(i) for i in range(d_values.size)]
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
    source or perfectly uncorrelated geometry.  The incoherent rate
    ``sum_i |w_i|^2 rho_ii`` costs O(M) and the coherent one a single-k
    :func:`decay_rate` numerator.
    """
    weights = src.weights_array()
    ldos = env.ldos_many(src.positions_array(), src.orientations_array(), k)
    incoherent = float(np.sum((weights.conjugate() * weights).real * ldos))
    if not (incoherent >= 1e-300):
        raise DegenerateReferenceError(
            f"incoherent rate is {incoherent!r}; classification undefined"
        )
    (coherent,) = _double_sums(src, _require_k_grid([k]), env)
    return float(coherent[0]) / incoherent
