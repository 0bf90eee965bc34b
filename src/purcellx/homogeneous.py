"""Analytic dyadic Green's kernel of free space and homogeneous dielectrics.

Only the imaginary projected part is exposed; it is the single quantity every
decay rate needs, and keeping the contract minimal makes all Green's model
variants interchangeable.  A medium of index ``n`` is handled by substituting
``k -> n*k`` in the vacuum kernel, which reproduces the standard macroscopic
coincidence limit (rate enhanced by ``n``); local-field corrections are out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PolarizedPoint,
    Wavenumber,
    _require_at_least,
    _require_k,
    _two_point,
)

__all__ = [
    "HomogeneousGreens",
    "im_g_projected",
    "cdos",
    "radial_factors",
    "TAYLOR_SWITCH",
]

# The projected imaginary kernel separates into a transverse and a
# longitudinal radial factor of x = n*k*R:
#
#   Im[u_a . G u_b] = (n*k/4pi) * [ A(x) (u_a.u_b) + B(x) (u_a.R^)(u_b.R^) ]
#   A(x) = sin x/x + cos x/x^2 - sin x/x^3
#   B(x) = -sin x/x - 3 cos x/x^2 + 3 sin x/x^3
#
# Below TAYLOR_SWITCH the closed forms lose digits to cancellation, so even
# power series (derived from the closed forms, validated against
# high-precision evaluation in the test suite) are used instead.
_A_COEFFS = (
    2.0 / 3.0,
    -2.0 / 15.0,
    1.0 / 140.0,
    -1.0 / 5670.0,
    1.0 / 399168.0,
    -1.0 / 43243200.0,
)
_B_INNER_COEFFS = (
    1.0 / 15.0,
    -1.0 / 210.0,
    1.0 / 7560.0,
    -1.0 / 498960.0,
    1.0 / 51891840.0,
)

#: Switch point between the series and closed-form branches of the radial
#: factors.  At 0.25 both branches agree to ~1e-13 relative in either factor;
#: much below ~0.1 the closed form can no longer deliver the longitudinal
#: factor to full precision in doubles.
TAYLOR_SWITCH = 0.25


def _horner(coeffs, x2):
    acc = coeffs[-1] * (x2 * 0 + 1.0)  # keeps scalar/array polymorphism
    for c in reversed(coeffs[:-1]):
        acc = acc * x2 + c
    return acc


def _factors_series(x):
    x2 = x * x
    a = _horner(_A_COEFFS, x2)
    b = x2 * _horner(_B_INNER_COEFFS, x2)
    return a, b


def _factors_closed(x):
    sx = np.sin(x)
    cx = np.cos(x)
    inv = 1.0 / x
    inv2 = inv * inv
    a = sx * inv + cx * inv2 - sx * inv * inv2
    b = -sx * inv - 3.0 * cx * inv2 + 3.0 * sx * inv * inv2
    return a, b


def _factors_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the closed forms are inf/nan at x = 0 and overflow in 1/x**2 for tiny x;
    # the series overwrites every x < TAYLOR_SWITCH, so those warnings are noise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = _factors_closed(x)
    small = x < TAYLOR_SWITCH
    if np.any(small):
        a[small], b[small] = _factors_series(x[small])
    return a, b


def radial_factors(x: float) -> tuple[float, float]:
    """Transverse and longitudinal radial factors (A, B) at x = n*k*R."""
    _require_at_least("radial argument", x, 0.0)
    a, b = _factors_array(np.array([x], dtype=float))
    return float(a[0]), float(b[0])


@dataclass(frozen=True, slots=True)
class HomogeneousGreens:
    """Homogeneous, loss-free medium of refractive index ``n`` (vacuum: n=1)."""

    n: float = 1.0

    def __post_init__(self):
        _require_at_least("refractive index", self.n, 1.0)

    @property
    def background_index(self) -> float:
        return self.n

    def structured_modes(self) -> tuple:
        return ()

    cdos = _two_point

    def cdos_matrix(self, positions: np.ndarray, orientations: np.ndarray,
                    k: Wavenumber) -> np.ndarray:
        """Pairwise CDOS kernel over M polarized points, shape (M, M).

        The kernel is evaluated on the upper triangle only and mirrored,
        which halves the work and makes the matrix symmetric by construction.
        """
        _require_k(k)
        iu, ju, *geometry = _pair_geometry(positions, orientations)
        vals = _pair_values(self.n, k, *geometry)
        m = positions.shape[0]
        out = np.empty((m, m), dtype=float)
        out[iu, ju] = vals
        out[ju, iu] = vals
        return out

    def forms(self, positions: np.ndarray, orientations: np.ndarray, weights: np.ndarray,
              k_grid) -> np.ndarray:
        """The values ``w^H rho(k) w`` of a weighted source over a wavenumber grid.

        The pair geometry is built once; a k costs the radial factors and one dot product.
        """
        k_grid = np.asarray(k_grid, dtype=float)
        _require_k(k_grid)
        iu, ju, *geometry = _pair_geometry(positions, orientations)
        # an off-diagonal pair stands for both (i, j) and (j, i) of the Hermitian sum
        c = np.where(iu == ju, 1.0, 2.0) * (weights[iu].conjugate() * weights[ju]).real
        # einsum, not BLAS: a threaded ddot waits for its threads to wake at every k
        return np.array([np.einsum("i,i->", _pair_values(self.n, k, *geometry), c) for k in k_grid])


def _pair_geometry(positions: np.ndarray, orientations: np.ndarray):
    """Pairs i <= j of M polarized points: i, j, r, u_i.u_j and (u_i.R^)(u_j.R^)."""
    iu, ju = np.triu_indices(positions.shape[0])
    d = positions[ju] - positions[iu]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    unit = np.where(r[:, None] > 0.0, d / np.where(r == 0.0, 1.0, r)[:, None], 0.0)
    uu = np.einsum("ij,ij->i", orientations[iu], orientations[ju])
    ua_r = np.einsum("ij,ij->i", orientations[iu], unit)
    return iu, ju, r, uu, ua_r * np.einsum("ij,ij->i", orientations[ju], unit)


def _pair_values(n: float, k: Wavenumber, r, uu, urur) -> np.ndarray:
    """Pair CDOS ``(2k/pi) Im[u_i . G u_j]``; only the radial factors depend on k."""
    kappa = n * k
    fa, fb = _factors_array(kappa * r)
    return (2.0 * k / math.pi) * (kappa / (4.0 * math.pi)) * (fa * uu + fb * urur)


cdos = _two_point


def im_g_projected(env: HomogeneousGreens, a: PolarizedPoint, b: PolarizedPoint,
                   k: Wavenumber) -> float:
    """Imaginary projected Green's function Im[u_a . G(r_a, r_b, k) u_b].

    At coincidence this is ``n*k/(6*pi)``, the value behind the free-space
    decay rate; at finite separation it oscillates on the scale of the
    medium wavelength and can take either sign.
    """
    return cdos(env, a, b, k) * math.pi / (2.0 * k)
