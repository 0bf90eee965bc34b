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
    _forms,
    _require_at_least,
    _require_k,
    _two_point,
)
from .sources import ExtendedSource

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
#: factors.  At 0.25 both branches agree to ~1e-12 relative in either factor
#: (B's closed form cancels terms about 2e4 times its size there); much below
#: ~0.1 the closed form can no longer deliver the longitudinal factor to full
#: precision in doubles.
TAYLOR_SWITCH = 0.25

#: Elements in one block of terms x wavenumbers: each slot of the workspace in
#: which a source's forms evaluates its blocks holds at most this many (64 kB of
#: float64), whatever M or K.
_BLOCK = 8192


def _horner(coeffs, x2):
    # seeded with the first step, so a scalar x2 gives a scalar
    acc = coeffs[-1] * x2 + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc = acc * x2 + c
    return acc


def _factors_series(x):
    x2 = x * x
    a = _horner(_A_COEFFS, x2)
    b = x2 * _horner(_B_INNER_COEFFS, x2)
    return a, b


def _factors_closed(x, out=None):
    """The closed forms of (A, B) at x, a scalar or an array.

    Both factors come from one tangent, ``t = tan(x/2)``, through the
    half-angle identities ``sin x = 2t/(1 + t^2)`` and
    ``cos x = (1 - t)(1 + t)/(1 + t^2)``: numpy's tangent costs a fifth to a
    tenth of its sine or cosine.  Written as ``(1 - t)(1 + t)``, the
    numerator of cos x keeps its relative accuracy where t is near 1.  Near
    an odd multiple of pi t grows large (1.6e16 at the double nearest pi),
    and ``t^2`` stays far from overflow.  With ``si = sin x/x``,
    ``ci2 = cos x/x^2`` and ``g = si/x^2``, ``A = si + ci2 - g`` and
    ``B = 3 (g - ci2) - si``: 20 elementwise passes, one of them the tangent.

    With ``out`` None every step makes a fresh result.  Otherwise ``out``
    holds six arrays of x's shape, slots that the steps write into (A and B
    return in the first two), so the call allocates nothing.  Both ways take
    every product and sum in the same order, so the values are bitwise the
    same.
    """
    to_a, to_b, to_t, to_d, to_c, to_inv = (None,) * 6 if out is None else out
    t = np.tan(np.multiply(x, 0.5, out=to_t), out=to_t)
    d = np.add(np.multiply(t, t, out=to_d), 1.0, out=to_d)
    c = np.multiply(np.subtract(1.0, t, out=to_c), np.add(1.0, t, out=to_inv), out=to_c)
    inv = np.divide(1.0, x, out=to_inv)
    # the dead t's slot takes sin x/x and the numerator's slot cos x; once inv
    # is 1/x^2, the dead d's slot takes g
    si = np.multiply(np.divide(np.add(t, t, out=to_t), d, out=to_t), inv, out=to_t)
    c = np.divide(c, d, out=to_c)
    inv2 = np.multiply(inv, inv, out=to_inv)
    ci2 = np.multiply(c, inv2, out=to_c)
    g = np.multiply(si, inv2, out=to_d)
    a = np.subtract(np.add(si, ci2, out=to_a), g, out=to_a)
    b = np.subtract(np.multiply(np.subtract(g, ci2, out=to_b), 3.0, out=to_b), si, out=to_b)
    return a, b


def _factors_array(x: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    # the closed forms are inf/nan at x = 0 and overflow in 1/x**2 for tiny x;
    # the series overwrites every x < TAYLOR_SWITCH, so those warnings are noise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = _factors_closed(x, out)
    small = x < TAYLOR_SWITCH
    if np.any(small):
        a[small], b[small] = _factors_series(x[small])
    return a, b


def radial_factors(x: float) -> tuple[float, float]:
    """Transverse and longitudinal radial factors (A, B) at x = n*k*R."""
    _require_at_least("radial argument", x, 0.0)
    a, b = _factors_array(np.array([x], dtype=float))
    return float(a[0]), float(b[0])


@dataclass(frozen=True)
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
        m = positions.shape[0]
        iu, ju = np.triu_indices(m)
        vals = _pair_values(self.n, k, *_pair_geometry(positions, orientations, iu, ju))
        out = np.empty((m, m), dtype=float)
        out[iu, ju] = vals
        out[ju, iu] = vals
        return out

    def ldos_many(self, positions: np.ndarray, orientations: np.ndarray,
                  k: Wavenumber) -> np.ndarray:
        """The projected LDOS at each of M polarized points, shape (M,): the diagonal
        of :meth:`cdos_matrix` in O(M)."""
        _require_k(k)
        zeros = np.zeros(positions.shape[0])
        return _pair_values(self.n, k, zeros, np.einsum("ij,ij->i", orientations, orientations),
                            zeros)

    @staticmethod
    def reduce(src: ExtendedSource):
        """The k- and n-free terms of a source, in chunks of at most ``_BLOCK``, for
        every medium: over the distinct separations of a lattice source
        (:func:`_lag_terms`) when it has strictly fewer lags than pairs, else
        over its pairs (:class:`_PairTerms`), so a point, a pair and a
        two-element line take their 1-3 pair terms with no transform."""
        m = len(src)
        lattice = src._lattice
        # the extent of a (3, M) copy: numpy reduces an (M, 3) array slowly along M
        if lattice is not None and \
                np.prod(2 * np.ptp(lattice[1].T.copy(), axis=1) + 1) < m * (m + 1) // 2:
            r, alpha, beta = _lag_terms(*lattice, src.orientations_array(), src.weights_array())
            return [(r[s:s + _BLOCK], alpha[s:s + _BLOCK], beta[s:s + _BLOCK])
                    for s in range(0, r.size, _BLOCK)]
        return _PairTerms(src.positions_array(), src.orientations_array(), src.weights_array())

    def evaluate(self, terms, k_grid: np.ndarray) -> np.ndarray:
        """``w^H rho(k) w`` on a checked grid, from the terms (:func:`_blocked_sums`)."""
        return _blocked_sums(self.n, k_grid, terms)

    forms = _forms


def _separations(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and unit vectors of (N, 3) separations; a zero separation has a zero unit vector."""
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    return r, np.where(r[:, None] > 0.0, d / np.where(r == 0.0, 1.0, r)[:, None], 0.0)


def _pair_geometry(positions: np.ndarray, orientations: np.ndarray, iu: np.ndarray,
                   ju: np.ndarray):
    """Pairs (i, j) of polarized points: r, u_i.u_j and (u_i.R^)(u_j.R^)."""
    r, unit = _separations(positions[ju] - positions[iu])
    ui, uj = orientations[iu], orientations[ju]
    return (r, np.einsum("ij,ij->i", ui, uj),
            np.einsum("ij,ij->i", ui, unit) * np.einsum("ij,ij->i", uj, unit))


class _PairTerms:
    """``(r, alpha, beta)`` over the pairs i <= j of a weighted source, in chunks
    made anew at each iteration.  ``alpha`` and ``beta`` are ``u_i.u_j`` and
    ``(u_i.R^)(u_j.R^)`` times ``(2 - delta_ij) Re(conj(w_i) w_j)``: an
    off-diagonal pair stands for both (i, j) and (j, i) of the Hermitian sum.
    The pairs come in the row order of ``np.triu_indices``, ``_BLOCK`` at a
    time, so no array holds all M(M+1)/2.
    """

    def __init__(self, positions: np.ndarray, orientations: np.ndarray, weights: np.ndarray):
        self.arrays = positions, orientations, weights

    def __iter__(self):
        positions, orientations, weights = self.arrays
        m = positions.shape[0]
        pairs = m * (m + 1) // 2
        # the triangle's row i starts at pair number starts[i]
        starts = np.concatenate(([0], np.cumsum(np.arange(m, 0, -1))))
        for first in range(0, pairs, _BLOCK):
            t = np.arange(first, min(first + _BLOCK, pairs))
            iu = np.searchsorted(starts, t, side="right") - 1
            ju = iu + (t - starts[iu])
            r, uu, urur = _pair_geometry(positions, orientations, iu, ju)
            c = np.where(iu == ju, 1.0, 2.0) * (weights[iu].conjugate() * weights[ju]).real
            yield r, uu * c, urur * c


def _fast_length(m: int) -> int:
    """The smallest length >= ``m`` whose only prime factors are 2, 3 and 5."""
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _lag_terms(steps: np.ndarray, cells: np.ndarray, orientations: np.ndarray,
               weights: np.ndarray):
    """``(r, alpha, beta)`` over the distinct separations r of a lattice source.

    With ``a_i = w_i u_i`` on the lattice, ``C_pq(L) = sum_i conj(a_ip) a_{i+L,q}``
    is a zero-padded FFT correlation (Goodman, Draine & Flatau, Opt. Lett. 16,
    1198, 1991).  A lag L gives ``r_L = |L.steps|``, ``alpha_L = Re tr C(L)``
    and ``beta_L = Re R^_L^T C(L) R^_L``, so that ``sum_L`` of the pair values
    equals ``sum_ij conj(w_i) w_j rho_ij``.  Since the pair value depends on L
    only through ``r_L``, the lags of bitwise-equal r are merged into one term,
    and r comes out strictly ascending.

    The components ``a_ip`` are Cartesian.  ``R^_L`` lies in the span, the
    coordinate axes the transformed steps reach, so ``beta`` needs only the
    symmetric correlations ``Re(C_pq + C_qp)/2``, p <= q, inside it, and
    ``alpha`` adds to their diagonal the components across it as one summed
    power ``sum_p |S_p|^2``.  Only the live components, those with
    ``a_ip != 0`` for some i, are transformed and correlated: at most 3
    forward transforms, and at most 2 inverse correlations for an
    axis-aligned line, 4 for a line or plane in a coordinate plane and 6
    otherwise.

    An axis of ``n > 1`` cells is padded to :func:`_fast_length` ``(2n - 1)``,
    which holds the lags ``-(n-1)..(n-1)`` with no wrap-around, and is
    transformed on its own, so that no axis transforms another's zero padding;
    an axis of one cell is not transformed, but a lattice of one cell
    transforms axis 0 at length 1, so it takes the same path.  The
    correlations are real and even in L, so all of them come from one batched
    real transform, ``Re ifftn(X) = Re rfftn(X, norm="forward")``, which keeps
    the lags ``0..n-1`` of the last transformed axis: a nonzero lag there
    stands for L and -L.
    """
    # (3, M): the reductions run along the contiguous last axis
    index = cells.T.copy()
    index -= index.min(axis=1, keepdims=True)
    n = (index.max(axis=1) + 1).tolist()
    # a lattice of one cell transforms axis 0, at length 1
    axes = [axis for axis in range(3) if n[axis] > 1] or [0]
    n = [n[axis] for axis in axes]
    steps = steps[axes]
    span = [e for e in range(3) if steps[:, e].any()]
    pairs, c = _correlations(orientations.T * weights, index[axes], n, span)
    # the lags kept, in FFT order along each axis: 0..n-1, then -(n-1)..-1;
    # the last axis keeps 0..n-1
    lags = [np.r_[0:m, 1 - m:0] for m in n[:-1]] + [np.arange(n[-1])]
    c = c[(slice(None), *np.ix_(*lags[:-1]), slice(n[-1]))]
    lags = np.ix_(*lags)
    # the lag's coordinates along the span, broadcast from the 1-D lags of each axis
    pos = {e: sum(lag * steps[axis, e] for axis, lag in enumerate(lags) if steps[axis, e])
           for e in span}
    r = np.sqrt(sum((p * p for p in pos.values()), np.zeros(c.shape[1:])))
    inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
    unit = {e: p * inv for e, p in pos.items()}
    # alpha: the diagonal pairs and the row after the pairs, the power across the span
    alpha = c[[i for i, (p, q) in enumerate(pairs) if p == q] + [*range(len(pairs), len(c))]]
    alpha = alpha.sum(axis=0)
    beta = np.zeros_like(r)
    for i, (p, q) in enumerate(pairs):
        beta += (1.0 if p == q else 2.0) * unit[p] * unit[q] * c[i]
    twice = np.where(lags[-1] > 0, 2.0, 1.0)
    alpha *= twice
    beta *= twice
    r, term = np.unique(r.ravel(), return_inverse=True)
    return r, np.bincount(term, alpha.ravel(), r.size), np.bincount(term, beta.ravel(), r.size)


def _correlations(a: np.ndarray, index: np.ndarray, n: list, span: list):
    """The correlations :func:`_lag_terms` needs, over the lags of the padded grid.

    ``a`` holds the (3, M) Cartesian components, ``index`` the cells along
    the transformed axes, of ``n`` cells each, and ``span`` the coordinate
    axes the steps reach.  Returns the pairs ``(p, q)``, p <= q, of live
    components in the span and the correlation rows: one
    ``Re(C_pq + C_qp)/2`` per pair, then, if a live component lies across the
    span, one ``sum_p Re C_pp`` over those components.  Each live component
    is transformed in one zero-padded buffer, axis by axis from the last and
    only over the cells that hold data on the axes not yet transformed; all
    rows of ``X = Re(conj(S_p) S_q)`` then take one ``rfftn``, which keeps the
    lags ``0..fast/2`` of the last axis.

    The spectra and X share one buffer, and the transform's output takes the
    spectra's place in it.  glibc gives back the top of its heap once more
    than its trim threshold is free there, and sets that threshold to twice
    the largest mapped block freed so far.  Separate arrays freed more than
    that at each call, and the next call faulted the pages in again (about
    150 page faults on a 40 x 40 slab); one buffer of their joint size sets
    the threshold above a call's use, so repeated calls reuse the same pages.
    """
    live = np.flatnonzero((a != 0.0).any(axis=1)).tolist()
    inside = [p for p in live if p in span]
    pairs = [(p, q) for p in inside for q in inside if p <= q]
    across = [p for p in live if p not in span]
    fast = [_fast_length(2 * m - 1) for m in n]
    half = [*fast[:-1], fast[-1] // 2 + 1]
    size, rows = math.prod(fast), len(pairs) + bool(across)
    # complex slots: the spectra or the output, whichever is larger, then X's floats
    head = max(len(live) * size, rows * math.prod(half))
    work = np.empty(head + (rows * size + 1) // 2, dtype=complex)
    spectrum = work[:len(live) * size].reshape(len(live), *fast)
    spectrum.fill(0.0)
    spectrum[(slice(None), *index)] = a[live]
    for axis in reversed(range(len(n))):
        # the axes before this one still hold their cells only
        data = spectrum[(slice(None), *map(slice, n[:axis]))]
        np.fft.fft(data, fast[axis], axis=1 + axis, out=data)
    x = work[head:].view(float)[:rows * size].reshape(rows, *fast)
    s = dict(zip(live, spectrum))
    for i, (p, q) in enumerate(pairs):
        x[i] = (s[p].conj() * s[q]).real
    if across:
        x[-1] = sum((s[p].conj() * s[p]).real for p in across)
    out = work[:rows * math.prod(half)].reshape(rows, *half)
    return pairs, np.fft.rfftn(x, axes=range(1, x.ndim), norm="forward", out=out).real


def _pair_values(n: float, k: Wavenumber, r, alpha, beta, out=None) -> np.ndarray:
    """Pair CDOS ``(2k/pi) Im[u_i . G u_j]`` from ``alpha``, ``beta`` at separations ``r``.

    Plain terms are ``alpha = u_i.u_j`` and ``beta = (u_i.R^)(u_j.R^)``;
    weighted terms (:class:`_PairTerms`, :func:`_lag_terms`) give weighted
    values.  Only the radial factors depend on k.  ``out`` is None, for a
    fresh result, or seven slots of the result's shape: one for ``n k r``
    and six for :func:`_factors_closed`; the values come back in the
    second.
    """
    kappa = n * k
    x = np.multiply(kappa, r, out=None if out is None else out[0])
    fa, fb = _factors_array(x, None if out is None else out[1:])
    # fa and fb belong to this call, fresh or slots, so the products overwrite them
    fa = np.add(np.multiply(fa, alpha, out=fa), np.multiply(fb, beta, out=fb), out=fa)
    return np.multiply((2.0 * k / math.pi) * (kappa / (4.0 * math.pi)), fa, out=fa)


def _blocked_sums(n: float, k_grid: np.ndarray, chunks) -> np.ndarray:
    """``sum_t`` of the pair values of the term ``chunks`` at each k of ``k_grid``.

    A chunk of at most ``_BLOCK`` terms is evaluated on ``max(1, _BLOCK // terms)``
    wavenumbers at once and summed along its terms, the contiguous last axis,
    so a k's sum over a chunk is bitwise the 1-D sum of that chunk at that k.

    Every block is evaluated in one workspace per call: seven slots, for
    ``n k r`` and the closed forms, as long as the first chunk's first
    block.  That block is the largest, since every chunk but the last holds
    ``_BLOCK`` terms, so the workspace is at most 7 x 64 kB.  With about
    twenty fresh temporaries per block, glibc trimmed the heap after a call
    and the next call faulted the pages in again: 400-550 page faults per
    call on a 200-element line at K = 201, in a process that keeps its
    results.  One workspace keeps them, for the reason that
    :func:`_correlations` gives for its one buffer.
    """
    ks = k_grid[:, None]
    total = work = None
    for r, alpha, beta in chunks:
        rows = max(1, _BLOCK // r.size)
        if work is None:
            work = np.empty((7, min(rows, k_grid.size) * r.size))
        blocks = []
        for s in range(0, k_grid.size, rows):
            k = ks[s:s + rows]
            out = work[:, :k.size * r.size].reshape(-1, k.size, r.size)
            blocks.append(_pair_values(n, k, r, alpha, beta, out).sum(axis=1))
        sums = np.concatenate(blocks)
        total = sums if total is None else total + sums
    return total


cdos = _two_point


def im_g_projected(env: HomogeneousGreens, a: PolarizedPoint, b: PolarizedPoint,
                   k: Wavenumber) -> float:
    """Imaginary projected Green's function Im[u_a . G(r_a, r_b, k) u_b].

    At coincidence this is ``n*k/(6*pi)``, the value behind the free-space
    decay rate; at finite separation it oscillates on the scale of the
    medium wavelength and can take either sign.
    """
    return cdos(env, a, b, k) * math.pi / (2.0 * k)
