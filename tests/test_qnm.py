import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    CompositeGreens,
    FanoTerm,
    HomogeneousGreens,
    InvalidArgumentError,
    LossyMode,
    ModeSet,
    Orientation,
    PolarizedPoint,
    Position,
    Qnm,
    QnmPair,
    UndefinedPhaseError,
    cdos_modal,
    cdos_qnm,
    fano_decompose_cdos,
    fano_profile,
    fano_q_params,
    green_qnm_projected,
    mean_q_report,
    qnm_phase,
    reconstruct_cdos,
)
from purcellx import modal, qnm

X = Orientation(1.0, 0.0, 0.0)
Y = Orientation(0.0, 1.0, 0.0)


def _surrogate(amplitude, x0=160.0, sx=400.0, sy=120.0, pol=X):
    return AnalyticSurrogate(
        AnalyticSurrogateParams(
            sign_change_half_width=x0, sigma_x=sx, sigma_y=sy,
            polarization=pol, amplitude=amplitude,
        )
    )


def _point(x, y=0.0, u=X):
    return PolarizedPoint(Position(x, y, 0.0), u)


def _single_qnm_pair(amplitude=1.0, k_m=0.005, gamma_m=2.5e-5):
    live = Qnm(field=_surrogate(amplitude), k_m=k_m, gamma_m=gamma_m)
    dead = Qnm(field=_surrogate(0.0), k_m=k_m * 1.2, gamma_m=gamma_m)
    return QnmPair(live, dead)


def test_green_at_resonance_matches_hand_expansion():
    # 1/(w~ - k) at k = k_m is i*2/gamma, so G = (1/2k) E^2 (2i/gamma)
    k_m, g = 0.005, 2.5e-5
    pair = _single_qnm_pair(k_m=k_m, gamma_m=g)
    p = _point(40.0)
    e = complex(
        math.cos(math.pi * 40.0 / 320.0) * math.exp(-(40.0**2) / (2 * 400.0**2))
    )
    expected = (1.0 / (2.0 * k_m)) * e * e * (2j / g)
    got = green_qnm_projected(pair, p, p, k_m)
    assert got == pytest.approx(expected, rel=1e-12)


def test_green_decays_away_from_poles():
    pair = _single_qnm_pair()
    p = _point(20.0)
    g = pair.qnm_a.gamma_m
    k_m = pair.qnm_a.k_m
    near = abs(green_qnm_projected(pair, p, p, k_m + 5 * g))
    far = abs(green_qnm_projected(pair, p, p, k_m + 50 * g))
    assert far < near / 5.0


def test_green_swap_symmetric():
    pair = _single_qnm_pair(amplitude=1.0 + 0.5j)
    a = _point(30.0, 10.0)
    b = _point(-90.0, -40.0)
    k = pair.qnm_a.k_m * 1.0002
    assert green_qnm_projected(pair, a, b, k) == green_qnm_projected(pair, b, a, k)


def test_cdos_qnm_at_resonance():
    k_m, g = 0.005, 2.5e-5
    pair = _single_qnm_pair(k_m=k_m, gamma_m=g)
    p = _point(40.0)
    e = math.cos(math.pi * 40.0 / 320.0) * math.exp(-(40.0**2) / (2 * 400.0**2))
    assert cdos_qnm(pair, p, p, k_m) == pytest.approx((1.0 / math.pi) * e * e * (2.0 / g),
                                                       rel=1e-12)


def test_cdos_qnm_zero_field_point():
    pair = _single_qnm_pair()
    antinode = cdos_qnm(pair, _point(0.0), _point(0.0), pair.qnm_a.k_m)
    # cos(pi/2) leaves an ~1e-17 float residue in the projected field
    assert abs(cdos_qnm(pair, _point(160.0), _point(160.0), pair.qnm_a.k_m)) < 1e-25 * antinode


def test_fano_profile_fixed_points():
    k_m, g = 0.005, 1e-5
    assert fano_profile(k_m, g, 1.0, k_m) == 0.0
    assert fano_profile(k_m, g, 0.0, k_m) == -1.0
    assert fano_profile(k_m, g, 3.0, k_m) == pytest.approx(0.8, abs=1e-15)


def test_fano_profile_vanishes_far_away():
    k_m, g = 0.005, 1e-5
    for q in (-2.0, 0.0, 0.7, 5.0):
        assert abs(fano_profile(k_m, g, q, k_m + 2000 * g)) < 1e-3
        assert abs(fano_profile(k_m, g, q, k_m + 2000 * g)) < abs(
            fano_profile(k_m, g, q, k_m + 20 * g)
        ) + 1e-12


def test_fano_infinite_q_is_unit_peak_lorentzian():
    k_m, g = 0.005, 1e-5
    ks = np.linspace(k_m - 30 * g, k_m + 30 * g, 301)
    lorentz = (g / 2) ** 2 / ((ks - k_m) ** 2 + (g / 2) ** 2)
    assert np.max(np.abs(fano_profile(k_m, g, math.inf, ks) - lorentz)) < 1e-9
    big_q = fano_profile(k_m, g, 1e9, ks)
    assert np.max(np.abs(big_q - lorentz)) < 1e-6


def test_qnm_phase_principal_values():
    k_m, g = 0.005, 2.5e-5
    p = _point(40.0)
    assert qnm_phase(Qnm(_surrogate(1.0), k_m, g), p) == 0.0
    assert qnm_phase(Qnm(_surrogate(-1.0), k_m, g), p) == math.pi
    assert qnm_phase(Qnm(_surrogate(1.0j), k_m, g), p) == pytest.approx(math.pi / 2, rel=1e-15)
    with pytest.raises(UndefinedPhaseError):
        qnm_phase(Qnm(_surrogate(1.0), k_m, g), _point(160.0))


def test_fano_q_params_values():
    assert fano_q_params(0.0, 0.0) == (0.0, 0.0, 0.0, 0.0)
    q = fano_q_params(0.3, 0.3)
    assert q.q12_mean == pytest.approx(math.tan(0.3), rel=1e-15)
    assert q.q12_halfangle == pytest.approx(math.tan(0.3), rel=1e-15)
    q = fano_q_params(math.pi / 6, math.pi / 3)
    assert q.q12_mean == pytest.approx(1.1547005383792515, rel=1e-12)
    assert q.q12_halfangle == pytest.approx(1.0, rel=1e-12)


def test_fano_q_params_pole_signal():
    q = fano_q_params(math.pi / 2, 0.1)
    assert math.isinf(q.q1)
    assert math.isinf(q.q12_mean)
    assert math.isfinite(q.q12_halfangle)
    # half-angle pole: phi1 + phi2 = pi
    q = fano_q_params(math.pi / 2, math.pi / 2)
    assert math.isinf(q.q12_halfangle)


def test_decomposition_single_real_mode_ldos():
    pair = _single_qnm_pair()
    p = _point(40.0)
    terms = fano_decompose_cdos(pair, p, p)
    assert len(terms) == 1
    assert terms[0].mode == 0
    assert terms[0].q == 0.0  # tan(0)
    ks = np.linspace(pair.qnm_a.k_m - 6 * pair.qnm_a.gamma_m,
                     pair.qnm_a.k_m + 6 * pair.qnm_a.gamma_m, 200)
    direct = np.array([cdos_qnm(pair, p, p, float(k)) for k in ks])
    recon = reconstruct_cdos(pair, terms, ks)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(recon - direct)) / scale < 1e-9


def test_decomposition_two_modes_coincident_point():
    a_mode = Qnm(field=_surrogate(1.0 + 0.4j), k_m=0.005, gamma_m=2.5e-5)
    b_mode = Qnm(field=_surrogate(0.7 - 0.2j, x0=120.0, sx=300.0), k_m=0.005012,
                 gamma_m=2.5e-6)
    pair = QnmPair(a_mode, b_mode)
    p = _point(52.0, 8.0)
    terms = fano_decompose_cdos(pair, p, p)
    assert [t.mode for t in terms] == [0, 1]
    ks = np.linspace(0.005 - 1.5e-4, 0.005 + 1.5e-4, 200)
    direct = np.array([cdos_qnm(pair, p, p, float(k)) for k in ks])
    recon = reconstruct_cdos(pair, terms, ks)
    assert np.max(np.abs(recon - direct)) / np.max(np.abs(direct)) < 1e-9


def test_decomposition_ldos_q_equals_tan_phase():
    # coincident points: half-angle of 2*phi is phi
    mode = Qnm(field=_surrogate(cmath.exp(0.31j)), k_m=0.005, gamma_m=2.5e-5)
    pair = QnmPair(mode, Qnm(field=_surrogate(0.0), k_m=0.006, gamma_m=1e-5))
    p = _point(25.0)
    terms = fano_decompose_cdos(pair, p, p)
    assert terms[0].q == pytest.approx(math.tan(qnm_phase(mode, p)), rel=1e-12)


def test_decomposition_drops_dead_mode_and_raises_when_all_dead():
    pair = _single_qnm_pair()
    terms = fano_decompose_cdos(pair, _point(10.0), _point(-30.0))
    assert [t.mode for t in terms] == [0]
    with pytest.raises(UndefinedPhaseError):
        fano_decompose_cdos(pair, _point(160.0), _point(10.0))


def _pole_model(kind, amplitudes, k_a, g_a, detune, qual_ratio):
    """A QnmPair ("qnm") or a ModeSet of ``kind`` lossy modes, from one set of mode shapes."""
    shapes = (({}, k_a, g_a),
              ({"x0": 120.0, "sx": 300.0}, k_a + detune * g_a, g_a / qual_ratio),
              ({"x0": 240.0, "sx": 350.0, "sy": 90.0}, k_a - 0.5 * detune * g_a, g_a / 3.0))
    count, mode, model = (2, Qnm, lambda modes: QnmPair(*modes)) if kind == "qnm" \
        else (kind, LossyMode, ModeSet)
    return model(tuple(mode(_surrogate(amp, **shape), k_m, g)
                       for amp, (shape, k_m, g) in zip(amplitudes[:count], shapes)))


@given(
    re_a=st.floats(min_value=-2, max_value=2),
    im_a=st.floats(min_value=-2, max_value=2),
    re_b=st.floats(min_value=-2, max_value=2),
    im_b=st.floats(min_value=-2, max_value=2),
    amp_c=st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
    xa=st.floats(min_value=-200, max_value=200),
    xb=st.floats(min_value=-200, max_value=200),
    qual_a=st.floats(min_value=50, max_value=500),
    qual_ratio=st.floats(min_value=2, max_value=20),
    detune=st.floats(min_value=-1, max_value=1),
    kind=st.sampled_from(("qnm", 1, 2, 3)),
)
# a subnormal imaginary part makes the phase underflow
@example(re_a=2.0, im_a=5e-324, re_b=0.0, im_b=0.0, amp_c=0j, xa=0.0, xb=0.0,
         qual_a=100.0, qual_ratio=2.0, detune=0.0, kind="qnm")
def test_decomposition_exactness_property(re_a, im_a, re_b, im_b, amp_c, xa, xb,
                                          qual_a, qual_ratio, detune, kind):
    amp_a = complex(re_a, im_a)
    amp_b = complex(re_b, im_b)
    if abs(amp_a) < 1e-3:
        amp_a = 1.0 + 0.0j
    k_a = 0.005
    g_a = k_a / qual_a
    model = _pole_model(kind, (amp_a, amp_b, amp_c), k_a, g_a, detune, qual_ratio)
    a = _point(xa)
    b = _point(xb)
    live = [index for index, mode in enumerate(model.structured_modes())
            if min(abs(_field_at(mode, p)) for p in (a, b)) >= 1e-14]
    try:
        terms = fano_decompose_cdos(model, a, b)
    except UndefinedPhaseError:
        assert not live
        return
    assert [t.mode for t in terms] == live
    ks = np.linspace(k_a - 5 * g_a, k_a + 5 * g_a, 120)
    direct = np.array([model.cdos(a, b, float(k)) for k in ks])
    recon = reconstruct_cdos(model, terms, ks)
    scale = max(np.max(np.abs(direct)), 1e-300)
    assert np.max(np.abs(recon - direct)) / scale < 1e-9


def _field_at(mode, p):
    """Independent u . E(r) of a :func:`_surrogate` mode field at a polarized point."""
    params = mode.field.params
    r = (p.position.x, p.position.y, p.position.z)
    u = (p.orientation.ux, p.orientation.uy, p.orientation.uz)
    pol = (params.polarization.ux, params.polarization.uy, params.polarization.uz)
    return _surrogate_projection(params.amplitude, params.sign_change_half_width, params.sigma_x,
                                 params.sigma_y, pol, r, u)


def test_decomposition_of_three_lossy_modes_keeps_every_term():
    model = _pole_model(3, (1.0 + 0.5j, 0.3 - 0.9j, -0.7 + 0.2j), 0.005, 2.5e-5, 0.6, 2.5)
    a, b = _point(30.0, 10.0), _point(-90.0)
    terms = fano_decompose_cdos(model, a, b)
    assert [t.mode for t in terms] == [0, 1, 2]
    # a lossy mode's real weight gives a Lorentzian: q is 0 or infinite
    assert all(t.q == 0.0 or math.isinf(t.q) for t in terms)
    ks = np.linspace(0.005 - 2e-4, 0.005 + 2e-4, 301)
    direct = np.array([cdos_modal(model, a, b, float(k)) for k in ks])
    recon = reconstruct_cdos(model, terms, ks)
    assert np.max(np.abs(recon - direct)) / np.max(np.abs(direct)) < 1e-9
    report = mean_q_report(model, a, b, ks)
    assert report["max_rel_dev_halfangle"] < 1e-9
    # the mean-of-tangents convention reads field phases, which a real weight ignores
    assert math.isnan(report["max_rel_dev_mean"])
    assert len(report["phases_equal_per_mode"]) == 3


@pytest.mark.parametrize("kind", ["qnm", 3])
def test_mean_q_report_projects_each_mode_once(monkeypatch, kind):
    calls = []
    for module in (modal, qnm):
        original = module.projected_field_many
        monkeypatch.setattr(module, "projected_field_many",
                            lambda *args, _f=original: calls.append(1) or _f(*args))
    model = _pole_model(kind, (1.0 + 0.5j, 0.3 - 0.9j, -0.7 + 0.2j), 0.005, 2.5e-5, 0.6, 2.5)
    a, b = _point(30.0, 10.0), _point(-90.0)
    counts = []
    for count in (2, 201):
        calls.clear()
        mean_q_report(model, a, b, np.linspace(0.0049, 0.0051, count))
        counts.append(len(calls))
    # the direct sum and the decomposition read the same projections
    assert counts == [len(model.structured_modes())] * 2


def test_mean_q_report_agrees_when_phases_equal():
    pair = _single_qnm_pair(amplitude=cmath.exp(0.7j))
    a = _point(30.0)
    b = _point(90.0)  # same lobe, same phase
    ks = np.linspace(pair.qnm_a.k_m - 1e-4, pair.qnm_a.k_m + 1e-4, 150)
    report = mean_q_report(pair, a, b, ks)
    assert report["phases_equal_per_mode"] == [True, True]  # mode b is dead
    assert report["max_rel_dev_mean"] < 1e-9
    assert report["max_rel_dev_halfangle"] < 1e-9


def test_mean_q_report_flags_disagreement():
    # opposite-sign lobes: phases differ by pi, tangents agree, half-angle does not
    pair = _single_qnm_pair()
    a = _point(30.0)
    b = _point(320.0)
    ks = np.linspace(pair.qnm_a.k_m - 1e-4, pair.qnm_a.k_m + 1e-4, 150)
    report = mean_q_report(pair, a, b, ks)
    assert report["phases_equal_per_mode"] == [False, True]  # mode b is dead
    assert report["max_rel_dev_halfangle"] < 1e-9
    assert report["max_rel_dev_mean"] > 1e-2


def _surrogate_projection(amplitude, x0, sx, sy, pol, r, u):
    """Independent u . E(r) of the analytic surrogate."""
    profile = math.cos(math.pi * r[0] / (2 * x0)) * math.exp(
        -r[0] ** 2 / (2 * sx * sx) - r[1] ** 2 / (2 * sy * sy)
    )
    return amplitude * profile * sum(p * q for p, q in zip(pol, u))


complex_amplitudes = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@given(
    amp_a=complex_amplitudes,
    amp_b=complex_amplitudes,
    coords=st.lists(st.tuples(st.floats(-300, 300), st.floats(-200, 200), st.floats(-50, 50)),
                    min_size=1, max_size=5),
    angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=5, max_size=5),
    detune=st.floats(min_value=-20, max_value=20),
)
def test_qnm_cdos_matrix_matches_brute_force_pole_sum(amp_a, amp_b, coords, angles, detune):
    k_a, g_a = 0.005, 2.5e-5
    k_b, g_b = 0.00501, 5e-6
    shapes = ((amp_a, 160.0, 400.0, 120.0, (1.0, 0.0, 0.0), k_a, g_a),
              (amp_b, 120.0, 300.0, 90.0, (0.0, 1.0, 0.0), k_b, g_b))
    pair = QnmPair(*(
        Qnm(_surrogate(amp, x0=x0, sx=sx, sy=sy, pol=Orientation(*pol)), k_m, g)
        for amp, x0, sx, sy, pol, k_m, g in shapes
    ))
    positions = np.array(coords)
    orientations = np.array([[math.cos(t), math.sin(t), 0.0] for t in angles[: len(coords)]])
    k = k_a + detune * g_a
    rho = pair.cdos_matrix(positions, orientations, k)
    for i in range(len(coords)):
        for j in range(len(coords)):
            total = 0.0 + 0.0j
            for amp, x0, sx, sy, pol, k_m, g in shapes:
                za = _surrogate_projection(amp, x0, sx, sy, pol, positions[i], orientations[i])
                zb = _surrogate_projection(amp, x0, sx, sy, pol, positions[j], orientations[j])
                total += za * zb / (complex(k_m, -0.5 * g) - k)
            expected = total.imag / math.pi
            scale = sum(
                abs(_surrogate_projection(amp, x0, sx, sy, pol, positions[i], orientations[i])
                    * _surrogate_projection(amp, x0, sx, sy, pol, positions[j], orientations[j]))
                / (0.5 * g)
                for amp, x0, sx, sy, pol, k_m, g in shapes
            ) / math.pi
            assert abs(rho[i, j] - expected) <= 1e-12 * max(scale, 1e-300)


def test_modal_qnm_high_q_consistency():
    # single real-field mode: the pole form and the Lorentzian form coincide
    k_m = 0.0049473900056532
    g = k_m / 2000.0
    field = _surrogate(1.0, pol=Y)
    ms = ModeSet((LossyMode(field, k_m, g),))
    pair = QnmPair(Qnm(field, k_m, g), Qnm(_surrogate(0.0, pol=Y), k_m, g))
    a = PolarizedPoint(Position(50.0, 20.0, 0.0), Y)
    b = PolarizedPoint(Position(-120.0, 0.0, 0.0), Y)
    for k in np.linspace(k_m - 3 * g, k_m + 3 * g, 61):
        m = cdos_modal(ms, a, b, float(k))
        q = cdos_qnm(pair, a, b, float(k))
        assert abs(m - q) <= 0.005 * abs(m)


def test_fano_term_validation():
    with pytest.raises(Exception):
        FanoTerm(0, 0.0, math.nan)


def test_fano_tools_reject_bad_input():
    pair = _single_qnm_pair()
    p = _point(40.0)
    # a mode is named by its index: anything but an index of one of the pair's two
    # modes is refused as an argument, not by a TypeError or an IndexError
    for index in (2, -1, 0.5, 1.0, "a", None):
        with pytest.raises(InvalidArgumentError, match=f"no mode {index!r} in a 2-mode model"):
            reconstruct_cdos(pair, [FanoTerm(index, 0.0, 1.0)], np.array([0.005]))
    for k_grid in (np.array([]), np.full((2, 3), 0.005)):
        with pytest.raises(InvalidArgumentError, match="k grid must be a non-empty 1D array"):
            mean_q_report(pair, p, p, k_grid)


def test_fano_tools_refuse_models_that_are_not_pole_models():
    p = _point(40.0)
    ks = np.array([0.005])
    for model in (HomogeneousGreens(1.0), CompositeGreens(HomogeneousGreens(1.0), _single_qnm_pair())):
        name = type(model).__name__
        with pytest.raises(InvalidArgumentError, match=f"{name} is not a pole model"):
            fano_decompose_cdos(model, p, p)
        with pytest.raises(InvalidArgumentError, match=f"{name} is not a pole model"):
            reconstruct_cdos(model, [], ks)
        with pytest.raises(InvalidArgumentError, match=f"{name} is not a pole model"):
            mean_q_report(model, p, p, ks)


def test_fano_tools_take_a_mode_set_of_any_size(monkeypatch):
    # 40 modes, more than the letters a-z that once named them; the first 20 change
    # sign between the two points (x0 < 250 nm), the last 20 do not
    modes = tuple(LossyMode(_surrogate((-1.0) ** i, x0=152.0 + 5.0 * i), 0.005 + 1e-5 * i,
                            2.5e-5 * (1.0 + 0.02 * i)) for i in range(40))
    model = ModeSet(modes)
    a, b = _point(30.0, 10.0), _point(-250.0)
    terms = fano_decompose_cdos(model, a, b)
    assert [t.mode for t in terms] == list(range(40))
    ks = np.linspace(0.0049, 0.0055, 401)
    direct = np.array([cdos_modal(model, a, b, float(k)) for k in ks])
    recon = reconstruct_cdos(model, terms, ks)
    assert np.max(np.abs(recon - direct)) / np.max(np.abs(direct)) < 1e-9
    calls = []
    original = modal.projected_field_many
    monkeypatch.setattr(modal, "projected_field_many",
                        lambda *args: calls.append(1) or original(*args))
    report = mean_q_report(model, a, b, ks)
    assert len(calls) == 40
    assert report["max_rel_dev_halfangle"] < 1e-9
    assert report["phases_equal_per_mode"] == [False] * 20 + [True] * 20


def test_qnm_does_not_warn_at_high_loss_and_never_equals_a_lossy_mode():
    field = _surrogate(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qnm = Qnm(field, k_m=0.005, gamma_m=0.001)
    with pytest.warns(UserWarning, match="low-loss"):
        lossy = LossyMode(field, k_m=0.005, gamma_m=0.001)
    assert qnm.quality_factor == lossy.quality_factor == 5.0
    assert qnm != lossy and lossy != qnm
    assert len({qnm: "qnm", lossy: "lossy"}) == 2
    assert qnm == Qnm(field, k_m=0.005, gamma_m=0.001)
