import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    InvalidArgumentError,
    LossyMode,
    ModeSet,
    Orientation,
    PolarizedPoint,
    Position,
    cdos_modal,
    projected_field,
    surrogate_l3,
)
from purcellx import core, modal
from purcellx.modal import DEFAULT_SURROGATE_K_M

Y = Orientation(0.0, 1.0, 0.0)


def _point(x, y=0.0, u=Y):
    return PolarizedPoint(Position(x, y, 0.0), u)


def _surrogate_value(x, y, x0=160.0, sx=400.0, sy=120.0, amp=1.0):
    """Independent scalar evaluation of the surrogate profile."""
    return amp * math.cos(math.pi * x / (2 * x0)) * math.exp(
        -x * x / (2 * sx * sx) - y * y / (2 * sy * sy)
    )


def test_mode_validation_and_quality_factor():
    mode = surrogate_l3()
    assert mode.quality_factor == pytest.approx(2000.0, rel=1e-15)
    assert not mode.high_loss
    with pytest.raises(InvalidArgumentError):
        LossyMode(mode.field, k_m=0.005, gamma_m=0.0)
    with pytest.raises(InvalidArgumentError):
        LossyMode(mode.field, k_m=-1.0, gamma_m=1e-5)


def test_low_q_mode_warns():
    mode = surrogate_l3()
    with pytest.warns(UserWarning, match="low-loss"):
        lossy = LossyMode(mode.field, k_m=0.005, gamma_m=0.001)
    assert lossy.high_loss


def test_surrogate_default_sign_structure():
    mode = surrogate_l3()
    center = projected_field(mode.field, Position(0.0, 0.0, 0.0), Y)
    lobe = projected_field(mode.field, Position(320.0, 0.0, 0.0), Y)
    assert center.real > 0.0 > lobe.real
    # sign change inside the (150, 240) band
    assert projected_field(mode.field, Position(150.0, 0.0, 0.0), Y).real > 0.0
    assert projected_field(mode.field, Position(240.0, 0.0, 0.0), Y).real < 0.0


def test_modeset_requires_modes():
    with pytest.raises(InvalidArgumentError):
        ModeSet(())


def test_single_mode_ldos_at_resonance():
    mode = surrogate_l3()
    ms = ModeSet((mode,))
    p = _point(47.0, 12.0)
    e = _surrogate_value(47.0, 12.0)
    expected = 2.0 * e * e / (math.pi * mode.gamma_m)
    assert cdos_modal(ms, p, p, mode.k_m) == pytest.approx(expected, rel=1e-12)


def test_opposite_sign_points_negative_at_every_frequency():
    ms = ModeSet((surrogate_l3(),))
    a = _point(0.0)
    b = _point(320.0)  # opposite-sign lobe
    k_m = DEFAULT_SURROGATE_K_M
    for k in np.linspace(0.5 * k_m, 2.0 * k_m, 17):
        assert cdos_modal(ms, a, b, float(k)) < 0.0


def test_zero_field_point_gives_zero():
    ms = ModeSet((surrogate_l3(),))
    p = _point(160.0)  # on the sign change; cos(pi/2) leaves ~1e-17 residue
    antinode = cdos_modal(ms, _point(0.0), _point(0.0), DEFAULT_SURROGATE_K_M)
    assert abs(cdos_modal(ms, p, p, DEFAULT_SURROGATE_K_M)) < 1e-25 * antinode


def test_modal_cdos_swap_symmetry_with_complex_field():
    params = AnalyticSurrogateParams(120.0, 300.0, 100.0, Y, amplitude=1.5 - 0.7j)
    mode = LossyMode(AnalyticSurrogate(params), k_m=0.005, gamma_m=2e-5)
    ms = ModeSet((mode,))
    a = _point(35.0, -20.0)
    b = _point(-110.0, 5.0)
    k = 0.00502
    assert cdos_modal(ms, a, b, k) == pytest.approx(cdos_modal(ms, b, a, k), rel=1e-12)


@given(
    xa=st.floats(min_value=-350, max_value=350),
    xb=st.floats(min_value=-350, max_value=350),
    ya=st.floats(min_value=-150, max_value=150),
    yb=st.floats(min_value=-150, max_value=150),
    dk=st.floats(min_value=-3e-5, max_value=3e-5),
)
def test_single_mode_factorization_property(xa, xb, ya, yb, dk):
    ms = ModeSet((surrogate_l3(),))
    a = _point(xa, ya)
    b = _point(xb, yb)
    k = DEFAULT_SURROGATE_K_M + dk
    r12 = cdos_modal(ms, a, b, k)
    r11 = cdos_modal(ms, a, a, k)
    r22 = cdos_modal(ms, b, b, k)
    scale = max(r12 * r12, r11 * r22, 1e-300)
    assert abs(r12 * r12 - r11 * r22) / scale < 1e-9


@given(
    x=st.floats(min_value=-350, max_value=350),
    y=st.floats(min_value=-150, max_value=150),
    dk=st.floats(min_value=-1e-4, max_value=1e-4),
)
def test_coincidence_positivity(x, y, dk):
    ms = ModeSet((surrogate_l3(),))
    p = _point(x, y)
    assert cdos_modal(ms, p, p, DEFAULT_SURROGATE_K_M + dk) >= 0.0


def test_lorentzian_integral_mass():
    mode = surrogate_l3()
    ms = ModeSet((mode,))
    p = _point(30.0, 8.0)
    e2 = _surrogate_value(30.0, 8.0) ** 2
    g = mode.gamma_m

    def ldos(k):
        return cdos_modal(ms, p, p, k)

    # The +-20*gamma window holds exactly (2/pi) atan(40) = 98.41% of the mass,
    # so the prefactor is validated against the finite-window expectation.
    window_20, _ = quad(ldos, mode.k_m - 20 * g, mode.k_m + 20 * g, limit=400)
    expected_20 = e2 * (2.0 / math.pi) * math.atan(40.0)
    assert window_20 == pytest.approx(expected_20, rel=1e-6)
    # A +-40*gamma window captures 99.2% and lands within the 1% target.
    window_40, _ = quad(ldos, mode.k_m - 40 * g, mode.k_m + 40 * g, limit=400)
    assert window_40 == pytest.approx(e2, rel=1e-2)


def test_two_mode_sum_is_additive():
    m1 = surrogate_l3()
    params = AnalyticSurrogateParams(120.0, 300.0, 100.0, Y, amplitude=0.5)
    m2 = LossyMode(AnalyticSurrogate(params), k_m=m1.k_m * 1.001, gamma_m=m1.gamma_m)
    a = _point(25.0)
    b = _point(-60.0)
    k = m1.k_m
    both = cdos_modal(ModeSet((m1, m2)), a, b, k)
    split = cdos_modal(ModeSet((m1,)), a, b, k) + cdos_modal(ModeSet((m2,)), a, b, k)
    assert both == pytest.approx(split, rel=1e-12)


def test_cdos_matrix_matches_scalar():
    # explicit Lorentzian x Re(z_a conj(z_b)) loop over two modes, one complex
    m1 = surrogate_l3()
    params = AnalyticSurrogateParams(120.0, 300.0, 100.0, Y, amplitude=0.8 - 0.6j)
    m2 = LossyMode(AnalyticSurrogate(params), k_m=m1.k_m * 1.0004, gamma_m=3 * m1.gamma_m)
    ms = ModeSet((m1, m2))
    xy = [(0.0, 0.0), (100.0, 30.0), (-250.0, -40.0), (180.0, 5.0)]
    positions = np.array([[x, y, 0.0] for x, y in xy])
    orientations = np.tile([0.0, 1.0, 0.0], (len(xy), 1))
    k = DEFAULT_SURROGATE_K_M * 1.0001
    rho = ms.cdos_matrix(positions, orientations, k)
    modes = (
        (m1, lambda x, y: complex(_surrogate_value(x, y))),
        (m2, lambda x, y: (0.8 - 0.6j) * _surrogate_value(x, y, x0=120.0, sx=300.0, sy=100.0)),
    )
    for i, (xa, ya) in enumerate(xy):
        for j, (xb, yb) in enumerate(xy):
            expected = 0.0
            for mode, value in modes:
                g = mode.gamma_m
                lorentz = (g / (2.0 * math.pi)) / ((k - mode.k_m) ** 2 + g * g / 4.0)
                expected += lorentz * (value(xa, ya) * value(xb, yb).conjugate()).real
            assert rho[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_grid_field_mode_out_of_domain_propagates():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(4, 4, 3)).astype(complex)
    from purcellx import GridField, OutOfDomainError

    grid = GridField(data, origin=(-30.0, -30.0), spacing=(20.0, 20.0))
    mode = LossyMode(grid, k_m=0.005, gamma_m=1e-5)
    ms = ModeSet((mode,))
    with pytest.raises(OutOfDomainError):
        cdos_modal(ms, _point(100.0), _point(0.0), 0.005)


@pytest.mark.parametrize("kind", ["modes", "qnm"])
def test_pole_forms_check_the_k_grid_once_and_before_any_projection(kind, monkeypatch):
    from purcellx import GridField, OutOfDomainError, Qnm, QnmPair, pair_source

    data = np.random.default_rng(9).normal(size=(4, 4, 3)).astype(complex)
    grid = GridField(data, origin=(-30.0, -30.0), spacing=(20.0, 20.0))
    if kind == "modes":
        model = ModeSet((LossyMode(grid, k_m=0.005, gamma_m=1e-5),))
    else:
        model = QnmPair(Qnm(grid, k_m=0.005, gamma_m=1e-5), Qnm(grid, k_m=0.0051, gamma_m=2e-5))
    # (100, 0, 0) lies outside the grid's x range [-30, 30]
    outside = pair_source(_point(0.0), _point(100.0), 1.0, 0.3)
    checks = []
    counted = core._require_k

    def counting(k):
        checks.append(k)
        counted(k)

    monkeypatch.setattr(core, "_require_k", counting)
    monkeypatch.setattr(modal, "_require_k", counting)
    for k_grid in (0.005, [[0.004, 0.005]], []):
        with pytest.raises(InvalidArgumentError, match="k grid must be a non-empty 1D array"):
            model.forms(outside, k_grid)
    assert checks == []
    for bad in (-0.005, 0.0, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match=f"wavenumber must be positive, got {bad!r}"):
            model.forms(outside, [0.005, bad])
    assert len(checks) == 4
    with pytest.raises(OutOfDomainError, match="outside grid axis 0"):
        model.forms(outside, [0.004, 0.005])
    assert len(checks) == 5
    inside = pair_source(_point(-10.0), _point(20.0), 1.0, 0.3)
    assert model.forms(inside, [0.004, 0.005]).shape == (2,)
    assert len(checks) == 6
