"""Structured environments built from a discrete set of lossy eigenmodes,
and the one pole-expansion model they share with the two-QNM model.

A pole model is the complex sum ``S = sum_m Z_m / (k_m - i*gamma_m/2 - k)``
over its modes, and every quantity it gives is ``Im(S)/pi``.  The weight
``Z_m`` comes from mode m's field projected on the points, and is the one
thing a model class states, once in its body: ``_cross(x, y)`` between the
fields ``x``, ``y`` at two points, and ``_form(x, y)`` for a source's
``w^H rho w`` given ``x = w^H v``, ``y = v^T w``.  Each mode's field is
projected once per call, by :func:`_mode_fields`; the sum over the weights
is written once (:func:`_pole_sum`), and so are the CDOS matrix
(:func:`_pole_matrix`), its diagonal and a source's k-free weights with
their value on a k grid (the methods of :class:`_PoleExpansion`):

* a lossy mode (:class:`ModeSet`) weighs its pole by the real
  ``Re(x conj(y))``, and a source by ``(|x|^2 + |y|^2)/2``, so each line is
  the Lorentzian ``Im(pole)/pi`` times the weight; this is the low-loss
  limit of an open-resonator expansion, and the constructor warns when the
  damping rate is large enough (gamma > k_m/10) that the limit becomes
  questionable, but does not forbid it;
* a quasinormal mode (:class:`purcellx.qnm.QnmPair`) weighs both by the
  unconjugated ``x y``, whose phase gives Fano lineshapes.

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
    _forms,
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
from .sources import ExtendedSource

__all__ = [
    "LossyMode",
    "ModeSet",
    "cdos_modal",
    "surrogate_l3",
    "DEFAULT_SURROGATE_PARAMS",
    "DEFAULT_SURROGATE_K_M",
    "DEFAULT_SURROGATE_Q",
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LossyMode(_PoleMode):
    """A lossy eigenmode; construction warns when the mode is :attr:`high_loss`."""

    def __post_init__(self):
        super().__post_init__()
        if self.high_loss:
            warnings.warn(
                f"mode damping gamma_m = {self.gamma_m!r} exceeds k_m/10; the "
                "discrete-lossy-mode picture is a low-loss approximation",
                stacklevel=3,
            )

    @property
    def high_loss(self) -> bool:
        return self.gamma_m > self.k_m / 10.0


def _mode_fields(model, positions: np.ndarray, orientations: np.ndarray):
    """Each mode's field ``v_m`` on M polarized points, in mode order: the one
    projection of the pole quantities, taken lazily as a caller iterates, so a
    caller that checks k first checks it before any projection."""
    return (projected_field_many(mode.field, positions, orientations)
            for mode in model.structured_modes())


def _pole_sum(model, weights, k):
    """Pole expansion: the complex ``sum_m Z_m / (k_m - i g_m/2 - k)``.

    ``weights`` are the ``Z_m`` in mode order: the model class's ``_cross`` of
    the fields (:func:`_mode_fields`) over the outer product ``v_m v_m^T``,
    its diagonal or two points, or a source's ``_form``
    (:meth:`_PoleExpansion.reduce`).  The caller has checked ``k``, once.
    """
    total = 0.0
    for mode, z in zip(model.structured_modes(), weights):
        total = total + z * (1.0 / (complex(mode.k_m, -0.5 * mode.gamma_m) - k))
    return total


def _pole_matrix(model, positions: np.ndarray, orientations: np.ndarray,
                 k: Wavenumber) -> np.ndarray:
    """The (M, M) CDOS matrix of a pole model over M polarized points."""
    _require_k(k)
    return _pole_sum(model, (model._cross(v[:, None], v) for v in
                             _mode_fields(model, positions, orientations)), k).imag / math.pi


class _PoleExpansion:
    """The methods every pole model shares.  A model class states its ``_cross``
    and ``_form``, and binds :func:`_pole_matrix` as ``cdos_matrix`` itself, in
    its own namespace, where the benchmark's tracer wraps it."""

    cdos = _two_point
    forms = _forms

    def ldos_many(self, positions: np.ndarray, orientations: np.ndarray,
                  k: Wavenumber) -> np.ndarray:
        """The diagonal of :func:`_pole_matrix` in O(M): the projected LDOS at each point."""
        _require_k(k)
        return _pole_sum(self, (self._cross(v, v) for v in
                                _mode_fields(self, positions, orientations)), k).imag / math.pi

    def reduce(self, src: ExtendedSource) -> list:
        """A source's k-free weight ``Z_m = _form(w^H v_m, v_m^T w)`` of each mode, in
        mode order; each mode's field is projected on the source once."""
        w = src.weights_array()
        return [self._form(np.vdot(w, v), v @ w)
                for v in _mode_fields(self, src.positions_array(), src.orientations_array())]

    def evaluate(self, weights: list, k_grid: np.ndarray) -> np.ndarray:
        """``w^H rho(k) w`` over a checked grid from the weights of :meth:`reduce`:
        one pole per mode and k, with no M x M array."""
        return _pole_sum(self, weights, k_grid).imag / math.pi


@dataclass(frozen=True)
class ModeSet(_PoleExpansion):
    """Non-empty collection of lossy modes acting as a Green's model.

    Between points where a mode field has opposite signs, that mode's CDOS
    contribution is negative at every frequency.
    """

    modes: tuple[LossyMode, ...]
    background_index = 1.0

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes:
            raise InvalidArgumentError("ModeSet requires at least one mode")
        object.__setattr__(self, "modes", modes)

    def structured_modes(self) -> tuple[LossyMode, ...]:
        return self.modes

    @staticmethod
    def _cross(x, y):
        """Weight ``Re(x conj(y))``: real, so each line is a Lorentzian."""
        return (x * y.conjugate()).real

    @staticmethod
    def _form(x, y):
        """Weight of ``w^H rho w``: ``(|x|^2 + |y|^2)/2``."""
        return 0.5 * (abs(x) ** 2 + abs(y) ** 2)

    cdos_matrix = _pole_matrix


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
