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
    Wavenumber,
    _require_k,
    _require_positive,
    _two_point,
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
class _PoleMode:
    """A mode field with a pole at ``k_m - i*gamma_m/2``; equality also compares the class."""

    field: VectorFieldModel
    k_m: Wavenumber
    gamma_m: float

    def __post_init__(self):
        _require_positive("k_m", self.k_m)
        _require_positive("gamma_m", self.gamma_m)

    @property
    def quality_factor(self) -> float:
        return self.k_m / self.gamma_m


@dataclass(frozen=True, slots=True)
class LossyMode(_PoleMode):
    """A lossy eigenmode; construction warns when the mode is :attr:`high_loss`."""

    def __post_init__(self):
        # zero-argument super() breaks in slotted dataclasses
        _PoleMode.__post_init__(self)
        if self.high_loss:
            warnings.warn(
                f"mode damping gamma_m = {self.gamma_m!r} exceeds k_m/10; the "
                "discrete-lossy-mode picture is a low-loss approximation",
                stacklevel=3,
            )

    @property
    def high_loss(self) -> bool:
        return self.gamma_m > self.k_m / 10.0


def _pole_sum(modes, positions: np.ndarray, orientations: np.ndarray, k, product,
              weights: np.ndarray | None = None):
    """Pole expansion: ``sum_m product(x_m, y_m, 1/(k_m - i g_m/2 - k))``.

    With ``v_m`` mode m's field on the M polarized points, ``x_m y_m`` is the
    (M, M) outer product ``v_m v_m^T``.  Given source weights ``w``, ``x_m =
    w^H v_m`` and ``y_m = v_m^T w`` instead, and over a k grid the sum is
    ``w^H rho(k) w``.  The model class chooses the product.
    """
    _require_k(k)
    total = 0.0
    for mode in modes:
        v = projected_field_many(mode.field, positions, orientations)
        x, y = (v[:, None], v) if weights is None else (np.vdot(weights, v), v @ weights)
        total = total + product(x, y, 1.0 / (complex(mode.k_m, -0.5 * mode.gamma_m) - k))
    return total


def _lorentzian_product(x, y, pole):
    """Lossy-mode CDOS term: the real Lorentzian ``Im(pole)/pi`` times ``Re(v v^H)``."""
    return (pole.imag / math.pi) * (x * y.conjugate()).real


def _lorentzian_form(x, y, pole):
    """Lossy-mode term of ``w^H rho w``: ``Im(pole)/pi (|x|^2 + |y|^2)/2``."""
    return (pole.imag / math.pi) * (0.5 * (abs(x) ** 2 + abs(y) ** 2))


def _green_product(x, y, pole):
    """Quasinormal-mode Green's term ``pole x y``, with no conjugation."""
    return x * y * pole


def _qnm_product(x, y, pole):
    """Quasinormal-mode term ``Im(pole x y)/pi``, for the CDOS and ``w^H rho w`` alike."""
    return (1.0 / math.pi) * _green_product(x, y, pole).imag


@dataclass(frozen=True, slots=True)
class ModeSet:
    """Non-empty collection of lossy modes acting as a Green's model.

    Between points where a mode field has opposite signs, that mode's CDOS
    contribution is negative at every frequency.
    """

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

    cdos = _two_point

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray:
        return _pole_sum(self.modes, positions, orientations, k, _lorentzian_product)

    def forms(self, positions: np.ndarray, orientations: np.ndarray, weights: np.ndarray,
              k_grid) -> np.ndarray:
        """The values ``w^H rho(k) w`` of a weighted source over a wavenumber grid."""
        return _pole_sum(self.modes, positions, orientations, np.asarray(k_grid, dtype=float),
                         _lorentzian_form, weights)


cdos_modal = _two_point

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
