"""Structured environments built from a discrete set of lossy eigenmodes,
and the pole-sum kernel they share with the two-QNM model.

Every structured model here is a sum over resonance poles
``1/(k_m - i*gamma_m/2 - k)``, weighted by the mode field projected on the
two dipoles (:func:`_pole_sum`).  Models differ only in the field product:

* a lossy mode takes the Lorentzian ``(1/pi) Im(pole)`` times the real part
  of ``v_a conj(v_b)``; this is the low-loss limit of an open-resonator
  expansion, and the constructor warns when the damping rate is large
  enough (gamma > k_m/10) that the limit becomes questionable, but does
  not forbid it;
* a quasinormal mode (:mod:`purcellx.qnm`) takes ``(1/pi) Im(pole v_a v_b)``
  with no conjugation.

The two coincide for real fields.

Mode fields carry arbitrary user-chosen normalization.  Only single-mode
rate *ratios* are normalization-free; for multi-mode sets the relative mode
amplitudes are the caller's responsibility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Wavenumber,
    _point_arrays,
    _require_k,
    wavelength_to_k,
)
from .fields import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    VectorFieldModel,
    projected_field_many,
)

__all__ = [
    "LossyMode",
    "ModeSet",
    "cdos_modal",
    "surrogate_l3",
    "DEFAULT_SURROGATE_PARAMS",
    "DEFAULT_SURROGATE_K_M",
    "DEFAULT_SURROGATE_Q",
]


@dataclass(frozen=True, slots=True)
class LossyMode:
    """A mode field with resonance wavenumber k_m and damping rate gamma_m."""

    field: VectorFieldModel
    k_m: Wavenumber
    gamma_m: float

    def __post_init__(self):
        if not (math.isfinite(self.k_m) and self.k_m > 0.0):
            raise InvalidArgumentError(f"k_m must be positive, got {self.k_m!r}")
        if not (math.isfinite(self.gamma_m) and self.gamma_m > 0.0):
            raise InvalidArgumentError(f"gamma_m must be positive, got {self.gamma_m!r}")
        if self.gamma_m > self.k_m / 10.0:
            warnings.warn(
                f"mode damping gamma_m = {self.gamma_m!r} exceeds k_m/10; the "
                "discrete-lossy-mode picture is a low-loss approximation",
                stacklevel=3,
            )

    @property
    def quality_factor(self) -> float:
        return self.k_m / self.gamma_m

    @property
    def high_loss(self) -> bool:
        return self.gamma_m > self.k_m / 10.0


def _pole_sum(modes, positions: np.ndarray, orientations: np.ndarray, k: Wavenumber,
             product) -> np.ndarray:
    """Pole expansion over M points: ``sum_m product(v_m, 1/(k_m - i g_m/2 - k))``.

    ``v_m`` is mode m's field projected on the M polarized points and
    ``product(v, pole)`` the mode's (M, M) contribution; the model class
    chooses the product (:func:`_lorentzian_product`, :func:`_qnm_product`).
    """
    _require_k(k)
    terms = (
        product(projected_field_many(mode.field, positions, orientations),
                1.0 / (complex(mode.k_m, -0.5 * mode.gamma_m) - k))
        for mode in modes
    )
    out = next(terms)
    for term in terms:
        out += term
    return out


def _lorentzian_product(v: np.ndarray, pole: complex) -> np.ndarray:
    """Lossy-mode term: the real Lorentzian ``Im(pole)/pi`` times ``Re(v v^H)``."""
    return (pole.imag / math.pi) * np.outer(v, v.conjugate()).real


def _green_product(v: np.ndarray, pole: complex) -> np.ndarray:
    """Quasinormal-mode Green's term ``pole v v^T``, with no conjugation."""
    return np.outer(v, v) * pole


def _qnm_product(v: np.ndarray, pole: complex) -> np.ndarray:
    """Quasinormal-mode CDOS term ``Im(pole v v^T)/pi``."""
    return (1.0 / math.pi) * _green_product(v, pole).imag


@dataclass(frozen=True, slots=True)
class ModeSet:
    """Non-empty collection of lossy modes acting as a Green's model."""

    modes: tuple[LossyMode, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes:
            raise InvalidArgumentError("ModeSet requires at least one mode")
        object.__setattr__(self, "modes", modes)

    @property
    def background_index(self) -> float:
        return 1.0

    def structured_modes(self) -> tuple[LossyMode, ...]:
        return self.modes

    def cdos(self, a: PolarizedPoint, b: PolarizedPoint, k: Wavenumber) -> float:
        return cdos_modal(self, a, b, k)

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray:
        return _pole_sum(self.modes, positions, orientations, k, _lorentzian_product)


def cdos_modal(modes: ModeSet, a: PolarizedPoint, b: PolarizedPoint,
               k: Wavenumber) -> float:
    """CDOS of a lossy-mode set: a Lorentzian per mode, weighted by the
    real part of the projected field product at the two points.

    At coincidence this is the modal LDOS; between points where a mode field
    has opposite signs the contribution is negative at every frequency.
    """
    return float(modes.cdos_matrix(*_point_arrays(a, b), k)[0, 1])


DEFAULT_SURROGATE_PARAMS = AnalyticSurrogateParams(
    sign_change_half_width=160.0,
    sigma_x=400.0,
    sigma_y=120.0,
    polarization=Orientation(0.0, 1.0, 0.0),
    amplitude=1.0 + 0.0j,
)
DEFAULT_SURROGATE_K_M = wavelength_to_k(1270.0)
DEFAULT_SURROGATE_Q = 2000.0


def surrogate_l3(params: AnalyticSurrogateParams | None = None,
                 k_m: Wavenumber | None = None,
                 gamma_m: float | None = None) -> LossyMode:
    """Analytic stand-in for the fundamental mode of an L3-style cavity.

    The default profile has a central positive lobe and negative side lobes
    with the sign change at |x| = 160 nm, resonance wavelength 1270 nm and
    quality factor 2000.  These are desk-scale stand-ins, not fits.
    """
    if params is None:
        params = DEFAULT_SURROGATE_PARAMS
    if k_m is None:
        k_m = DEFAULT_SURROGATE_K_M
    if gamma_m is None:
        gamma_m = k_m / DEFAULT_SURROGATE_Q
    return LossyMode(field=AnalyticSurrogate(params), k_m=k_m, gamma_m=gamma_m)
