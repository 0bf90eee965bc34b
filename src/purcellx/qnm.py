"""Two-mode open-resonator Green's model and Fano lineshape machinery.

The model sums two resonance poles at complex frequencies k_m - i*gamma_m/2
with *unconjugated* field products, which is what produces non-Lorentzian
(Fano) LDOS and CDOS spectra when the mode fields carry nontrivial phases.
It is the one pole model of :mod:`purcellx.modal`, shared with lossy modes;
:class:`QnmPair` states only its weight ``Z = x y``, one for both of its
terms.

The CDOS of every pole model decomposes exactly into one Fano profile per
mode.  With ``Z_m = model._cross(z_a, z_b)`` the weight of mode m between
the fields ``z_a``, ``z_b`` projected at the two points, the identity

    ``Im(Z_m / (k_m - i g_m/2 - k))/pi = K_m F(k_m, g_m, q_m, k)``,
    ``q_m = tan(arg(Z_m)/2)``, ``K_m = -2 |Z_m| / (pi g_m)``

holds at every k (verified by the test suite to 1e-9 over dense grids).
For a QNM, ``arg(Z_m)`` is the phase sum ``phi_a + phi_b``; a lossy mode's
real weight gives a Lorentzian, with q = 0 or infinite.  The
arithmetic-mean-of-tangents convention q = (tan phi_a + tan phi_b)/2
coincides with the QNM half-angle q when phi_a = phi_b and is reported for
comparison rather than asserted otherwise.

The Fano tools name each mode by its index in the model's
``structured_modes()``, so a model of any size decomposes, and a call
projects each mode's field once (:func:`purcellx.modal._mode_fields`).
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
    _require_k_grid,
    _require_positive,
    _two_point,
)
# projected_field_many is bound here too: the benchmark's tracer wraps it by module
from .fields import projected_field, projected_field_many  # noqa: F401
from .modal import (ModeSet, _mode_fields, _pole_forms, _pole_ldos, _pole_matrix, _pole_sum,
                    _PoleMode)

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


@dataclass(frozen=True)
class Qnm(_PoleMode):
    """A quasinormal mode: complex-valued field plus complex resonance.

    The complex eigenfrequency is ``k_m - i*gamma_m/2`` in wavenumber units.
    Fields are accepted as-is; no normalization integral is computed.
    """


@dataclass(frozen=True)
class QnmPair:
    """Two coupled-cavity quasinormal modes acting as a Green's model."""

    qnm_a: Qnm
    qnm_b: Qnm
    background_index = 1.0

    def structured_modes(self) -> tuple[Qnm, Qnm]:
        return (self.qnm_a, self.qnm_b)

    @staticmethod
    def _cross(x, y):
        """Weight ``x y``, with no conjugation; the weight of ``w^H rho w`` too."""
        return x * y

    _form = _cross
    cdos = _two_point
    cdos_matrix = _pole_matrix
    ldos_many = _pole_ldos
    forms = _pole_forms


def green_qnm_projected(pair: QnmPair, a: PolarizedPoint, b: PolarizedPoint,
                        k: Wavenumber) -> complex:
    """Projected two-mode Green's function u_a . G(r_a, r_b, k) u_b.

    The model's pole sum over ``2k``: each mode contributes
    ``Z_m / (2k (k_m - i g_m/2 - k))``, with ``Z_m`` the pair's weight of the
    fields ``u_a.E(r_a)`` and ``u_b.E(r_b)``, so ``(2k/pi) Im`` of it is
    :func:`cdos_qnm`.
    """
    return complex(_pole_sum(pair, _mode_fields(pair, *_point_arrays(a, b)), k,
                             lambda v: pair._cross(*v))) / (2.0 * k)


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


@dataclass(frozen=True)
class FanoTerm:
    """One mode's contribution to a Fano-decomposed spectrum; ``mode`` is the
    mode's index in the model's ``structured_modes()``."""

    mode: int
    q: float
    coefficient: float

    def __post_init__(self):
        _require_finite("coefficient", self.coefficient)


def _require_pole_model(pair) -> None:
    if not isinstance(pair, (ModeSet, QnmPair)):
        raise InvalidArgumentError(f"{type(pair).__name__} is not a pole model (ModeSet, QnmPair)")


def _point_fields(pair, a: PolarizedPoint, b: PolarizedPoint) -> list:
    """Each mode's fields ``(z_a, z_b)`` at the two points, in mode order,
    projected once; a model that is not a pole model is refused first."""
    _require_pole_model(pair)
    return list(_mode_fields(pair, *_point_arrays(a, b)))


def _decompose(pair, fields: list) -> list[tuple]:
    """Per mode with a nonzero projected field at both points: its exact Fano
    term (the module's identity) and its field phases at the two points,
    read from the fields of :func:`_point_fields`."""
    live = []
    for index, (mode, (za, zb)) in enumerate(zip(pair.structured_modes(), fields)):
        if min(abs(za), abs(zb)) < ZERO_FIELD_CUTOFF:
            continue
        z = pair._cross(za, zb)
        # either sign of a negative real weight's argument gives the infinite q
        term = FanoTerm(index, _tan_or_inf(0.5 * math.atan2(z.imag, z.real)),
                        float(-2.0 * abs(z) / (math.pi * mode.gamma_m)))
        live.append((term, _phase(za), _phase(zb)))
    if not live:
        raise UndefinedPhaseError("no mode has a nonzero projected field at both points; "
                                  "nothing to decompose")
    return live


def fano_decompose_cdos(pair: ModeSet | QnmPair, a: PolarizedPoint,
                        b: PolarizedPoint) -> list[FanoTerm]:
    """Exact Fano decomposition of a pole model's CDOS spectrum.

    One term ``K_m F(k_m, g_m, q_m, k)`` per mode with a nonzero projected
    field at both points, in mode order and named by mode index, with
    ``q_m`` and ``K_m`` in closed form (no fitting) from the identity in the
    module docstring; the sum over modes reproduces ``pair.cdos(a, b, k)``
    identically, for a :class:`QnmPair` and a :class:`ModeSet` alike.
    """
    return [term for term, _, _ in _decompose(pair, _point_fields(pair, a, b))]


def reconstruct_cdos(pair: ModeSet | QnmPair, terms: list[FanoTerm], k):
    """Evaluate a Fano-term sum on scalar or array k; each term's mode is
    looked up by index in ``pair.structured_modes()``."""
    _require_pole_model(pair)
    modes = pair.structured_modes()
    total = 0.0 if np.ndim(k) == 0 else np.zeros(np.shape(k))
    for term in terms:
        if not (isinstance(term.mode, (int, np.integer)) and 0 <= term.mode < len(modes)):
            raise InvalidArgumentError(f"no mode {term.mode!r} in a {len(modes)}-mode model")
        mode = modes[term.mode]
        total = total + term.coefficient * fano_profile(mode.k_m, mode.gamma_m, term.q, k)
    return total


def mean_q_report(pair: ModeSet | QnmPair, a: PolarizedPoint, b: PolarizedPoint,
                  k_grid: np.ndarray) -> dict:
    """Compare both q conventions against the direct CDOS on a grid.

    Returns max relative deviations for each convention plus whether the two
    point phases coincide per mode, in mode order (in which case the
    conventions agree exactly; a mode absent from the decomposition counts
    as coinciding).  Each mode's field is projected once, and the direct sum
    and the decomposition read the same fields.
    The mean convention is built from the field phases, which shape only a
    QNM's term: a :class:`ModeSet`'s weights are real, so its
    ``max_rel_dev_mean`` is ``nan``.  Intended for diagnostic output, not
    assertions.
    """
    k_grid = _require_k_grid(k_grid)
    fields = _point_fields(pair, a, b)
    live = _decompose(pair, fields)
    # the (a, b) entry of the CDOS matrix from the same fields (z_a, z_b)
    direct = _pole_sum(pair, fields, k_grid, lambda v: pair._cross(*v)).imag / math.pi
    scale = float(np.max(np.abs(direct))) or 1.0
    half = reconstruct_cdos(pair, [term for term, _, _ in live], k_grid)
    mean_dev = math.nan
    if isinstance(pair, QnmPair):
        # same coefficients, arithmetic-mean-of-tangents q (reported, not asserted)
        mean_terms = [FanoTerm(term.mode, fano_q_params(phi_a, phi_b).q12_mean,
                               term.coefficient) for term, phi_a, phi_b in live]
        mean = reconstruct_cdos(pair, mean_terms, k_grid)
        mean_dev = float(np.max(np.abs(mean - direct))) / scale
    equal = {term.mode: phi_a == phi_b for term, phi_a, phi_b in live}
    return {
        "max_rel_dev_halfangle": float(np.max(np.abs(half - direct))) / scale,
        "max_rel_dev_mean": mean_dev,
        "phases_equal_per_mode": [equal.get(index, True) for index in range(len(fields))],
    }
