import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import strats
from purcellx import (
    HomogeneousGreens,
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Position,
    cdos,
    free_space_ldos,
    im_g_projected,
)
from purcellx.homogeneous import (
    _BLOCK,
    TAYLOR_SWITCH,
    _factors_closed,
    _factors_series,
    _pair_geometry,
    _pair_values,
    radial_factors,
)

mp.mp.dps = 50


def _factors_mp(x):
    """High-precision oracle for the radial factors, straight from the closed forms."""
    x = mp.mpf(x)
    a = mp.sin(x) / x + mp.cos(x) / x**2 - mp.sin(x) / x**3
    b = -mp.sin(x) / x - 3 * mp.cos(x) / x**2 + 3 * mp.sin(x) / x**3
    return a, b


def test_radial_factors_match_high_precision_oracle():
    for x in np.logspace(-6, 1.3, 120):
        a, b = radial_factors(float(x))
        a_ref, b_ref = _factors_mp(float(x))
        assert abs(a - a_ref) / abs(a_ref) < 1e-12
        assert abs(b - b_ref) / abs(b_ref) < 1e-12


def test_branch_agreement_at_switch_threshold():
    a_s, b_s = _factors_series(TAYLOR_SWITCH)
    a_c, b_c = _factors_closed(TAYLOR_SWITCH)
    assert abs(a_s - a_c) / abs(a_c) < 1e-10
    assert abs(b_s - b_c) / abs(b_c) < 1e-10


def test_branch_continuity_near_threshold():
    # both branches agree at the same x on either side of the switch, so the
    # assembled function has no jump beyond the boundary slope
    for x in (TAYLOR_SWITCH * (1.0 - 1e-9), TAYLOR_SWITCH * (1.0 + 1e-9)):
        a_s, b_s = _factors_series(x)
        a_c, b_c = _factors_closed(x)
        assert abs(a_s - a_c) / abs(a_c) < 1e-10
        assert abs(b_s - b_c) / abs(b_c) < 1e-10


def _closed_form_points():
    """3,000 x in [TAYLOR_SWITCH, 300], then the doubles at and next to the multiples
    of pi up to 300: m*math.pi, the double nearest m*pi and two ulps either side."""
    rng = np.random.default_rng(2025)
    spread = [rng.uniform(TAYLOR_SWITCH, 300.0, 2000), np.geomspace(TAYLOR_SWITCH, 300.0, 1000)]
    near = set()
    for m in range(1, 96):
        for x in (m * math.pi, float(m * mp.pi)):
            for steps in range(-2, 3):
                near.add(float(x + steps * np.spacing(x)))
    return np.concatenate(spread + [np.array(sorted(near))])


def test_closed_form_matches_high_precision_oracle_up_to_300():
    """tan(x/2) gives sin x and cos x: near odd multiples of pi t grows to about
    1e16, near even ones it falls to about 1e-16, and neither loses A or B."""
    x = _closed_form_points()
    assert x.size > 3000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = _factors_closed(x)
    worst_a = worst_b = 0.0
    for xi, ai, bi in zip(x.tolist(), a.tolist(), b.tolist()):
        xm = mp.mpf(xi)
        sx, cx2, sx3 = mp.sin(xm) / xm, mp.cos(xm) / xm**2, mp.sin(xm) / xm**3
        worst_a = max(worst_a, abs(ai - (sx + cx2 - sx3)) / (abs(sx) + abs(cx2) + abs(sx3)))
        worst_b = max(worst_b, abs(bi - (-sx - 3 * cx2 + 3 * sx3))
                      / (abs(sx) + 3 * abs(cx2) + 3 * abs(sx3)))
    assert worst_a <= 1e-15
    assert worst_b <= 1e-15


def test_closed_form_is_the_same_on_any_layout_and_in_slots():
    x = _closed_form_points()
    spaced = np.zeros(2 * x.size)
    spaced[::2] = x
    view = spaced[::2]
    fresh = _factors_closed(view.copy())
    slots = tuple(np.empty(x.size) for _ in range(6))
    for got in (_factors_closed(view), _factors_closed(x, slots)):
        assert got[0].tobytes() == fresh[0].tobytes()
        assert got[1].tobytes() == fresh[1].tobytes()
    # the slotted call returns A and B in the first two slots
    assert got[0] is slots[0] and got[1] is slots[1]


def test_series_takes_scalars_and_arrays_alike():
    x = np.linspace(0.0, TAYLOR_SWITCH, 101)
    a, b = _factors_series(x)
    for xi, ai, bi in zip(x.tolist(), a.tolist(), b.tolist()):
        assert _factors_series(xi) == (ai, bi)
    assert isinstance(_factors_series(TAYLOR_SWITCH)[0], float)


def test_transverse_factor_at_pi():
    a, _ = radial_factors(math.pi)
    assert a == pytest.approx(-1.0 / math.pi**2, rel=1e-12)


Y = Orientation(0.0, 1.0, 0.0)
Z = Orientation(0.0, 0.0, 1.0)


def test_coincidence_limit_is_medium_ldos():
    k = 0.0071
    for n in (1.0, 1.5, 3.48):
        env = HomogeneousGreens(n)
        p = PolarizedPoint(Position(3.0, -2.0, 9.0), Y)
        assert im_g_projected(env, p, p, k) == pytest.approx(n * k / (6.0 * math.pi),
                                                             rel=1e-12, abs=0.0)
        assert cdos(env, p, p, k) == pytest.approx(free_space_ldos(k, n), rel=1e-9, abs=0.0)


def test_orthogonal_transverse_orientations_give_zero():
    env = HomogeneousGreens()
    a = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
    b = PolarizedPoint(Position(123.4, 0.0, 0.0), Z)  # both perp to x-separation
    assert im_g_projected(env, a, b, 0.01) == 0.0


def test_transverse_pair_at_half_period():
    # parallel transverse dipoles separated by x = kR = pi: Im g = (k/4pi)(-1/pi^2)
    env = HomogeneousGreens()
    k = 0.02
    r = math.pi / k
    a = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
    b = PolarizedPoint(Position(r, 0.0, 0.0), Y)
    expected = (k / (4.0 * math.pi)) * (-1.0 / math.pi**2)
    assert im_g_projected(env, a, b, k) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert cdos(env, a, b, k) < 0.0


def test_im_g_against_high_precision_geometry():
    # mixed-orientation pair, evaluated independently at high precision
    env = HomogeneousGreens(1.5)
    k = 0.011
    a = PolarizedPoint(Position(10.0, 20.0, 30.0), Orientation.from_vector(1.0, 2.0, -0.5))
    b = PolarizedPoint(Position(-40.0, 55.0, 10.0), Orientation.from_vector(0.3, -1.0, 2.0))
    dx = mp.mpf(b.position.x) - mp.mpf(a.position.x)
    dy = mp.mpf(b.position.y) - mp.mpf(a.position.y)
    dz = mp.mpf(b.position.z) - mp.mpf(a.position.z)
    rr = mp.sqrt(dx * dx + dy * dy + dz * dz)
    x = mp.mpf(env.n) * mp.mpf(k) * rr
    am, bm = _factors_mp(x)
    ua = [mp.mpf(v) for v in (a.orientation.ux, a.orientation.uy, a.orientation.uz)]
    ub = [mp.mpf(v) for v in (b.orientation.ux, b.orientation.uy, b.orientation.uz)]
    rh = [dx / rr, dy / rr, dz / rr]
    uu = sum(p * q for p, q in zip(ua, ub))
    expected = (mp.mpf(env.n) * k / (4 * mp.pi)) * (
        am * uu + bm * sum(p * q for p, q in zip(ua, rh)) * sum(p * q for p, q in zip(ub, rh))
    )
    got = im_g_projected(env, a, b, k)
    assert abs(got - float(expected)) / abs(float(expected)) < 1e-12


@given(a=strats.polarized_points, b=strats.polarized_points, k=strats.wavenumbers,
       n=st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
def test_cdos_swap_symmetry_exact(a, b, k, n):
    env = HomogeneousGreens(n)
    assert cdos(env, a, b, k) == cdos(env, b, a, k)


@given(a=strats.polarized_points, b=strats.polarized_points, k=strats.wavenumbers,
       n=st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
def test_cdos_bounded_by_coincidence(a, b, k, n):
    env = HomogeneousGreens(n)
    bound = cdos(env, a, a, k)
    assert abs(cdos(env, a, b, k)) <= bound * (1.0 + 1e-12)


def _dense_triangle(env, positions, orientations, k):
    """The (M, M) kernel from all M(M+1)/2 pairs at once, in ``np.triu_indices`` order."""
    m = positions.shape[0]
    iu, ju = np.triu_indices(m)
    vals = _pair_values(env.n, k, *_pair_geometry(positions, orientations, iu, ju))
    out = np.empty((m, m))
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 17, 127, 128, 129, 181, 300])
def test_cdos_matrix_blocks_cannot_be_seen(m):
    # M = 128 is the first whose triangle fills more than one block of pairs;
    # at k = 1e-4 every x = n k r lies on the series branch, at 0.03 nearly none
    assert 127 * 128 // 2 <= _BLOCK < 128 * 129 // 2
    rng = np.random.default_rng(m)
    positions = rng.uniform(-300.0, 300.0, (m, 3))
    orientations = rng.normal(size=(m, 3))
    orientations /= np.linalg.norm(orientations, axis=1)[:, None]
    for n in (1.0, 3.48):
        env = HomogeneousGreens(n)
        for k in np.geomspace(1e-4, 0.03, 5):
            rho = env.cdos_matrix(positions, orientations, float(k))
            assert rho.tobytes() == _dense_triangle(env, positions, orientations, float(k)).tobytes()


def test_cdos_matrix_matches_scalar_kernel():
    # every entry against a double loop over the high-precision closed forms
    env = HomogeneousGreens(2.0)
    k = 0.008
    rng = np.random.default_rng(3)
    positions = rng.uniform(-300, 300, (6, 3))
    orientations = rng.normal(size=(6, 3))
    orientations /= np.linalg.norm(orientations, axis=1)[:, None]
    rho = env.cdos_matrix(positions, orientations, k)
    kappa = mp.mpf(env.n) * mp.mpf(k)
    prefactor = (2 * mp.mpf(k) / mp.pi) * kappa / (4 * mp.pi)
    for i in range(6):
        for j in range(6):
            ua = [mp.mpf(float(v)) for v in orientations[i]]
            ub = [mp.mpf(float(v)) for v in orientations[j]]
            uu = sum(p * q for p, q in zip(ua, ub))
            d = [mp.mpf(float(q)) - mp.mpf(float(p)) for p, q in zip(positions[i], positions[j])]
            rr = mp.sqrt(sum(c * c for c in d))
            if i == j:
                expected = prefactor * mp.mpf(2) / 3 * uu  # A(0) = 2/3, no radial term
            else:
                am, bm = _factors_mp(kappa * rr)
                ua_r = sum(p * c / rr for p, c in zip(ua, d))
                ub_r = sum(q * c / rr for q, c in zip(ub, d))
                expected = prefactor * (am * uu + bm * ua_r * ub_r)
            assert rho[i, j] == pytest.approx(float(expected), rel=1e-12, abs=0.0)


def test_homogeneous_greens_rejects_bad_index():
    with pytest.raises(InvalidArgumentError):
        HomogeneousGreens(0.9)


def test_nonpositive_wavenumber_rejected():
    env = HomogeneousGreens()
    p = PolarizedPoint(Position(0, 0, 0), Y)
    with pytest.raises(InvalidArgumentError):
        im_g_projected(env, p, p, 0.0)


def test_tiny_separation_raises_no_warning():
    """1/x**2 overflows for x below about 1e-154; the series branch takes
    over there, and the closed form's overflow must not leak a warning."""
    k = 0.005
    a = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
    b = PolarizedPoint(Position(1e-200 / k, 0.0, 0.0), Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fa, fb = radial_factors(1e-200)
        value = cdos(HomogeneousGreens(1.0), a, b, k)
    assert fa == pytest.approx(2.0 / 3.0, rel=1e-15, abs=0.0)
    assert abs(fb) < 1e-300
    assert value == pytest.approx(free_space_ldos(k), rel=1e-15, abs=0.0)
