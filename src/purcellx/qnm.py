"""Two-mode open-resonator Green's model and Fano lineshape machinery.

The model sums two resonance poles at complex frequencies k_m - i*gamma_m/2
with *unconjugated* field products, which is what produces non-Lorentzian
(Fano) LDOS and CDOS spectra when the mode fields carry nontrivial phases.
The pole sum itself is the one shared with lossy modes
(:mod:`purcellx.modal`); only the field product differs.

Every LDOS/CDOS spectrum of this model decomposes exactly into one Fano
profile per mode.  The half-angle convention q = tan((phi_1 + phi_2)/2)
makes the decomposition an identity (verified by the test suite to 1e-9
over dense grids); the alternative arithmetic-mean-of-tangents convention
q = (tan phi_1 + tan phi_2)/2 coincides with it when phi_1 = phi_2 and is
reported for comparison rather than asserted otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    InvalidArgumentError,
    PolarizedPoint,
    UndefinedPhaseError,
    Wavenumber,
    _point_arrays,
    _require_finite,
    _require_positive,
    _two_point,
)
from .fields import projected_field, projected_field_many
from .modal import _PoleMode, _green_product, _pole_sum, _qnm_product

__all__ = [
    "Qnm",
    "QnmPair",
    "FanoTerm",
    "FanoQParams",
    "green_qnm_projected",
    "cdos_qnm",
    "fano_profile",
    "qnm_phase",
    "fano_q_params",
    "fano_decompose_cdos",
    "reconstruct_cdos",
    "mean_q_report",
    "ZERO_FIELD_CUTOFF",
]

#: Projected-field magnitude below which a phase is treated as undefined.
ZERO_FIELD_CUTOFF = 1e-14

#: |cos| below which a tangent is reported as the infinite-q signal.
_TAN_POLE_CUTOFF = 1e-12


@dataclass(frozen=True, slots=True)
class Qnm(_PoleMode):
    """A quasinormal mode: complex-valued field plus complex resonance.

    The complex eigenfrequency is ``k_m - i*gamma_m/2`` in wavenumber units.
    Fields are accepted as-is; no normalization integral is computed.
    """


@dataclass(frozen=True, slots=True)
class QnmPair:
    """Two coupled-cavity quasinormal modes acting as a Green's model."""

    qnm_a: Qnm
    qnm_b: Qnm

    @property
    def background_index(self) -> float:
        return 1.0

    def structured_modes(self) -> tuple[Qnm, Qnm]:
        return (self.qnm_a, self.qnm_b)

    def labeled(self) -> tuple[tuple[str, Qnm], tuple[str, Qnm]]:
        return (("a", self.qnm_a), ("b", self.qnm_b))

    def mode(self, label: str) -> Qnm:
        if label == "a":
            return self.qnm_a
        if label == "b":
            return self.qnm_b
        raise InvalidArgumentError(f"unknown mode label {label!r}")

    cdos = _two_point

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray:
        return _pole_sum(self.structured_modes(), positions, orientations, k, _qnm_product)

    def forms(self, positions: np.ndarray, orientations: np.ndarray, weights: np.ndarray,
              k_grid) -> np.ndarray:
        """The values ``w^H rho(k) w`` of a weighted source over a wavenumber grid."""
        return _pole_sum(self.structured_modes(), positions, orientations,
                         np.asarray(k_grid, dtype=float), _qnm_product, weights)


def green_qnm_projected(pair: QnmPair, a: PolarizedPoint, b: PolarizedPoint,
                        k: Wavenumber) -> complex:
    """Projected two-mode Green's function u_a . G(r_a, r_b, k) u_b.

    Each mode contributes ``(u_a.E(r_a)) (u_b.E(r_b)) / (2k (k_m - i g_m/2 - k))``
    with no conjugation of the second field factor.
    """
    pole_sum = _pole_sum(pair.structured_modes(), *_point_arrays(a, b), k, _green_product)
    return complex(pole_sum[0, 1]) / (2.0 * k)


cdos_qnm = _two_point


def fano_profile(k_m: Wavenumber, gamma_m: float, q: float, k):
    """Fano lineshape with asymmetry parameter q.

    ``F = (g/2)/(q^2+1) * [(q^2-1) g/2 + 2 q (k-k_m)] / ((k-k_m)^2 + g^2/4)``

    Works elementwise on array k.  ``q = +-inf`` selects the limiting
    unit-peak Lorentzian ``(g^2/4) / ((k-k_m)^2 + g^2/4)``; the profile is
    continuous in that limit even though q is not.
    """
    _require_positive("gamma_m", gamma_m)
    half = 0.5 * gamma_m
    detuning = np.asarray(k, dtype=float) - k_m
    denom = detuning**2 + half * half
    if math.isinf(q):
        out = half * half / denom
    else:
        out = (half / (q * q + 1.0)) * ((q * q - 1.0) * half + 2.0 * q * detuning) / denom
    if np.ndim(k) == 0:
        return float(out)
    return out


def _phase(z: complex) -> float:
    if abs(z) < ZERO_FIELD_CUTOFF:
        raise UndefinedPhaseError(
            f"projected field magnitude {abs(z)!r} below {ZERO_FIELD_CUTOFF}; phase undefined"
        )
    # atan2 rather than cmath.phase, which raises OverflowError when the
    # phase underflows (a subnormal imaginary part)
    phi = math.atan2(z.imag, z.real)
    return math.pi if phi == -math.pi else phi


def qnm_phase(qnm: Qnm, p: PolarizedPoint) -> float:
    """Principal argument in (-pi, pi] of the projected mode field at a point."""
    return _phase(projected_field(qnm.field, p.position, p.orientation))


class FanoQParams(NamedTuple):
    q1: float
    q2: float
    q12_mean: float
    q12_halfangle: float


def _tan_or_inf(phi: float) -> float:
    # F(q -> +inf) and F(q -> -inf) share the same Lorentzian limit, so the
    # infinite-q signal is returned unsigned.
    if abs(math.cos(phi)) < _TAN_POLE_CUTOFF:
        return math.inf
    return math.tan(phi)


def fano_q_params(phi1: float, phi2: float) -> FanoQParams:
    """Lineshape parameters from the mode phases at two source points.

    Returns the per-point tangents, the arithmetic mean of tangents, and the
    half-angle form tan((phi1+phi2)/2).  The two combined conventions are
    equal when phi1 = phi2.  A tangent pole (|cos| < 1e-12) is signalled by
    an infinite value; the caller must then use the Lorentzian-limit branch
    of :func:`fano_profile`.
    """
    q1 = _tan_or_inf(phi1)
    q2 = _tan_or_inf(phi2)
    if math.isinf(q1) or math.isinf(q2):
        q12_mean = math.inf
    else:
        q12_mean = 0.5 * (q1 + q2)
    q12_half = _tan_or_inf(0.5 * (phi1 + phi2))
    return FanoQParams(q1, q2, q12_mean, q12_half)


@dataclass(frozen=True, slots=True)
class FanoTerm:
    """One mode's contribution to a Fano-decomposed spectrum."""

    label: str
    q: float
    coefficient: float

    def __post_init__(self):
        _require_finite("coefficient", self.coefficient)


def _decompose(pair: QnmPair, a: PolarizedPoint, b: PolarizedPoint,
               half_angle: bool) -> list[FanoTerm]:
    terms: list[FanoTerm] = []
    positions, orientations = _point_arrays(a, b)
    for label, mode in pair.labeled():
        za, zb = projected_field_many(mode.field, positions, orientations)
        if min(abs(za), abs(zb)) < ZERO_FIELD_CUTOFF:
            continue
        params = fano_q_params(_phase(za), _phase(zb))
        q = params.q12_halfangle if half_angle else params.q12_mean
        coefficient = float(-2.0 * abs(za * zb) / (math.pi * mode.gamma_m))
        terms.append(FanoTerm(label=label, q=q, coefficient=coefficient))
    if not terms:
        raise UndefinedPhaseError(
            "no mode has a nonzero projected field at both points; nothing to decompose"
        )
    return terms


def fano_decompose_cdos(pair: QnmPair, a: PolarizedPoint,
                        b: PolarizedPoint) -> list[FanoTerm]:
    """Exact Fano decomposition of the two-mode CDOS spectrum.

    For each mode with nonzero projected field at both points the term is
    ``K * F(k_m, g_m, q, k)`` with ``q = tan((phi_a + phi_b)/2)`` and
    ``K = -2 |(u_a.E(r_a))(u_b.E(r_b))| / (pi g_m)``, derived in closed form
    (no fitting); the sum over modes reproduces :func:`cdos_qnm` identically.
    """
    return _decompose(pair, a, b, half_angle=True)


def reconstruct_cdos(pair: QnmPair, terms: list[FanoTerm], k):
    """Evaluate a Fano-term sum on scalar or array k."""
    total = 0.0 if np.ndim(k) == 0 else np.zeros(np.shape(k))
    for term in terms:
        mode = pair.mode(term.label)
        total = total + term.coefficient * fano_profile(mode.k_m, mode.gamma_m, term.q, k)
    return total


def mean_q_report(pair: QnmPair, a: PolarizedPoint, b: PolarizedPoint,
                  k_grid: np.ndarray) -> dict:
    """Compare both q conventions against the direct CDOS on a grid.

    Returns max relative deviations for each convention plus whether the two
    point phases coincide per mode (in which case the conventions agree
    exactly).  Intended for diagnostic output, not assertions.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    direct = np.array([cdos_qnm(pair, a, b, float(k)) for k in k_grid])
    scale = float(np.max(np.abs(direct)))
    if scale == 0.0:
        scale = 1.0
    half = reconstruct_cdos(pair, fano_decompose_cdos(pair, a, b), k_grid)
    # same coefficients, arithmetic-mean-of-tangents q (reported, not asserted)
    mean = reconstruct_cdos(pair, _decompose(pair, a, b, half_angle=False), k_grid)
    phases_equal = []
    for _, mode in pair.labeled():
        try:
            phases_equal.append(qnm_phase(mode, a) == qnm_phase(mode, b))
        except UndefinedPhaseError:
            phases_equal.append(True)  # mode absent from the decomposition
    return {
        "max_rel_dev_halfangle": float(np.max(np.abs(half - direct))) / scale,
        "max_rel_dev_mean": float(np.max(np.abs(mean - direct))) / scale,
        "phases_equal_per_mode": phases_equal,
    }
