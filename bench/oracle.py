"""Independent Purcell ratios, written without any purcellx code.

The ratio of an extended source is a quotient of two Hermitian double sums

    S(env) = sum_ij conj(w_i) w_j rho_env(P_i, P_j, k)

over the same elements.  Here each part is computed another way than the
program computes it:

* the homogeneous kernel from spherical Bessel functions (scipy.special),
  normalized so that rho(P, P) is the projected LDOS n k^2 / (3 pi^2);
* each structured mode from its rank-one form on projections v_i = u_i . E(r_i):
  a lossy mode gives  L(k) (|v^H w|^2 + |v^T w|^2) / 2  with the Lorentzian
  L(k) = (g/2pi) / ((k - k_m)^2 + g^2/4), and a quasinormal mode gives
  (1/pi) Im[(w^H v)(v^T w) / (k_m - i g/2 - k)];
* mode fields from the analytic surrogate formula or from this module's own
  bilinear interpolation of the grid samples.

Element positions, orientations and weights come from the workload record
(see workloads.py), not from the program's source objects.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import spherical_jn

from workloads import slab_density, slab_direction


def homogeneous_sum(positions, orientations, weights, n, k, chunk=256):
    """S for a homogeneous medium of index n, row chunk by row chunk."""
    kappa = n * k
    prefactor = 1.5 * n * k * k / (3.0 * math.pi**2)
    total = 0.0
    for lo in range(0, positions.shape[0], chunk):
        rows = slice(lo, lo + chunk)
        d = positions[None, :, :] - positions[rows, None, :]
        r = np.sqrt(np.einsum("cmj,cmj->cm", d, d))
        x = kappa * r
        j0 = spherical_jn(0, x)
        j2 = spherical_jn(2, x)
        transverse = (2.0 * j0 - j2) / 3.0
        rhat = d / np.where(r > 0.0, r, 1.0)[..., None]
        ua_r = np.einsum("cj,cmj->cm", orientations[rows], rhat)
        ub_r = np.einsum("mj,cmj->cm", orientations, rhat)
        rho = prefactor * (transverse * (orientations[rows] @ orientations.T) + j2 * ua_r * ub_r)
        total += float((weights[rows].conj() @ (rho @ weights)).real)
    return total


def lossy_mode_sum(v, weights, k_m, gamma_m, k):
    lorentz = (gamma_m / (2.0 * math.pi)) / ((k - k_m) ** 2 + 0.25 * gamma_m**2)
    return lorentz * 0.5 * (abs(np.vdot(v, weights)) ** 2 + abs(v @ weights) ** 2)


def qnm_sum(v, weights, k_m, gamma_m, k):
    pole = 1.0 / (complex(k_m, -0.5 * gamma_m) - k)
    return (pole * np.vdot(weights, v) * (v @ weights)).imag / math.pi


def surrogate_projection(mode, positions, orientations):
    """u_i . E(r_i) of the analytic surrogate: a cosine lobe in a Gaussian."""
    x, y = positions[:, 0], positions[:, 1]
    lobe = np.cos(np.pi * x / (2.0 * mode["x0_nm"])) * np.exp(
        -x**2 / (2.0 * mode["sigma_x_nm"] ** 2) - y**2 / (2.0 * mode["sigma_y_nm"] ** 2)
    )
    return complex(*mode["amplitude"]) * lobe * (orientations @ np.array(mode["polarization"]))


def bilinear_projection(samples, origin, spacing, positions, orientations):
    """u_i . E(r_i) for a 2D (nx, ny, 3) sample grid, by bilinear interpolation."""
    nx, ny, _ = samples.shape
    tx = (positions[:, 0] - origin[0]) / spacing
    ty = (positions[:, 1] - origin[1]) / spacing
    if np.any((tx < 0) | (tx > nx - 1) | (ty < 0) | (ty > ny - 1)):
        raise ValueError("element outside the grid field")
    i = np.minimum(np.floor(tx).astype(int), nx - 2)
    j = np.minimum(np.floor(ty).astype(int), ny - 2)
    fx = (tx - i)[:, None]
    fy = (ty - j)[:, None]
    e = ((1 - fx) * (1 - fy) * samples[i, j] + fx * (1 - fy) * samples[i + 1, j]
         + (1 - fx) * fy * samples[i, j + 1] + fx * fy * samples[i + 1, j + 1])
    return np.einsum("mj,mj->m", orientations, e)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def line_elements(source):
    """Positions, orientations and weights of a CLI line source record."""
    m = source["elements"]
    t = (np.arange(m) / (m - 1) - 0.5) * source["d_nm"]
    positions = np.array(source["center"]) + t[:, None] * _unit(source["axis"])
    orientations = np.tile(_unit(source["polarization"]), (m, 1))
    weights = np.full(m, source["amplitude"] / math.sqrt(m), dtype=complex)
    return positions, orientations, weights


def slab_elements(record):
    """Cell centers, orientations and weights of the sampled slab record."""
    g = record["grid"]
    axes = []
    measure = 1.0
    for lo, hi, n in zip(g["lo"], g["hi"], g["shape"]):
        if hi > lo:
            step = (hi - lo) / n
            measure *= step
            axes.append(lo + (np.arange(n) + 0.5) * step)
        else:
            axes.append(np.full(n, lo))
    positions = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = measure * np.array([slab_density(record, x, y) for x, y, _ in positions])
    orientations = _unit([slab_direction(record, x, y) for x, y, _ in positions])
    return positions, orientations, weights


class Oracle:
    """Expected Purcell ratio of one generated workload at any wavenumber."""

    def __init__(self, record, inputs_dir):
        if record["workload"] == "sampled-slab-spectrum":
            self.elements = slab_elements(record)
            self.background_n = record["background_n"]
            self.reference_n = record["reference_n"]
            modes = [record["mode"]]
            self.kind = "modal"
        else:
            self.elements = line_elements(record["source"])
            self.background_n = record["environment"]["background_n"]
            self.reference_n = record["reference"]["n"]
            structured = record["environment"]["structured"]
            self.kind = structured["kind"]
            modes = structured["modes"] if self.kind == "modal" else record["modes"]
        positions, orientations, _ = self.elements
        self.modes = []
        for mode in modes:
            if mode["kind"] == "grid":
                grid = record["grid"]
                samples = np.load(os.path.join(inputs_dir, mode["samples"]))
                v = bilinear_projection(samples, grid["origin"], grid["spacing"],
                                        positions, orientations)
            else:
                v = surrogate_projection(mode, positions, orientations)
            self.modes.append((v, mode["k_m"], mode["gamma_m"]))

    def resonances(self):
        return [k_m for _, k_m, _ in self.modes]

    def ratio(self, k):
        """The ratio at k, and the sum of its parts' magnitudes to measure errors by.

        A quasinormal-mode sum can cancel the background, so the ratio itself
        may pass through zero while every part is large.
        """
        positions, orientations, w = self.elements
        structured_sum = lossy_mode_sum if self.kind == "modal" else qnm_sum
        background = homogeneous_sum(positions, orientations, w, self.background_n, k)
        if self.reference_n == self.background_n:
            reference = background
        else:
            reference = homogeneous_sum(positions, orientations, w, self.reference_n, k)
        parts = [structured_sum(v, w, k_m, g, k) for v, k_m, g in self.modes]
        scale = (abs(background) + sum(abs(p) for p in parts)) / reference
        return (background + sum(parts)) / reference, scale
