import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import strats
from purcellx import (
    CompositeGreens,
    DegenerateReferenceError,
    DipoleElement,
    ExtendedSource,
    HomogeneousGreens,
    InvalidArgumentError,
    ModeSet,
    Orientation,
    PolarizedPoint,
    Position,
    SweepPointError,
    cdos,
    coherence_classification,
    decay_rate,
    line_source,
    pair_source,
    point_source,
    surrogate_l3,
    sweep_length,
    sweep_spectrum,
    two_dipole_rate,
    wavelength_to_k,
)

X = Orientation(1.0, 0.0, 0.0)
Y = Orientation(0.0, 1.0, 0.0)
VACUUM = HomogeneousGreens(1.0)


def pair_rate_via_source(a, b, p, phase, env, k):
    """decay_rate numerator of the equivalent pair source: w^H rho w."""
    src = pair_source(a, b, p, phase)
    rho = env.cdos_matrix(src.positions_array(), src.orientations_array(), k)
    w = src.weights_array()
    return float((w.conjugate() @ rho @ w).real)


def _pp(x, y=0.0, u=Y):
    return PolarizedPoint(Position(x, y, 0.0), u)


def _mirror_pair():
    """Points with bitwise-equal field magnitude; orientation flip gives the
    opposite-sign projected field exactly."""
    a = _pp(60.0, u=Y)
    b_opp = PolarizedPoint(Position(-60.0, 0.0, 0.0), Orientation(0.0, -1.0, 0.0))
    b_same = PolarizedPoint(Position(-60.0, 0.0, 0.0), Y)
    return a, b_opp, b_same


def test_free_space_identity():
    src = point_source(_pp(12.0, 5.0), 1.0)
    result = decay_rate(src, VACUUM, VACUUM, 0.005)
    assert result.gamma_ratio == 1.0
    assert result.numerator == result.denominator


def test_coincident_pair_identity():
    a = _pp(1.0, 2.0)
    src = pair_source(a, a, p=1.5, phase=0.0)
    assert decay_rate(src, VACUUM, VACUUM, 0.004).gamma_ratio == 1.0


def test_point_dipole_reduction():
    mode = surrogate_l3()
    env = CompositeGreens(HomogeneousGreens(1.0), ModeSet((mode,)))
    p = _pp(40.0, 10.0)
    src = point_source(p, 2.0 - 1.0j)
    got = decay_rate(src, env, VACUUM, mode.k_m).gamma_ratio
    expected = env.cdos(p, p, mode.k_m) / VACUUM.cdos(p, p, mode.k_m)
    assert got == pytest.approx(expected, rel=1e-12)


@given(scale_re=st.floats(min_value=-5, max_value=5),
       scale_im=st.floats(min_value=-5, max_value=5))
def test_amplitude_invariance(scale_re, scale_im):
    c = complex(scale_re, scale_im)
    if abs(c) < 1e-3:
        c = 1.0 + 1.0j
    env = HomogeneousGreens(2.0)
    base = line_source(Position(0, 0, 0), X, Y, d=250.0, n_elements=7, p=1.0)
    scaled = ExtendedSource(
        elements=tuple(DipoleElement(e.point, e.weight * c) for e in base.elements),
        reference=base.reference,
    )
    k = 0.006
    r0 = decay_rate(base, env, VACUUM, k).gamma_ratio
    r1 = decay_rate(scaled, env, VACUUM, k).gamma_ratio
    assert r1 == pytest.approx(r0, rel=1e-12)


def test_hermitian_form_real_and_matches_brute_force():
    rng = np.random.default_rng(17)
    elements = tuple(
        DipoleElement(
            point=PolarizedPoint(
                Position(*rng.uniform(-200, 200, 3)),
                Orientation.from_vector(*rng.normal(size=3)),
            ),
            weight=complex(rng.normal(), rng.normal()),
        )
        for _ in range(6)
    )
    src = ExtendedSource(elements=elements, reference=Position(0, 0, 0))
    k = 0.0049
    for env in (HomogeneousGreens(1.0), HomogeneousGreens(3.48),
                ModeSet((surrogate_l3(),))):
        brute = 0.0 + 0.0j
        for ei in src.elements:
            for ej in src.elements:
                brute += ei.weight.conjugate() * ej.weight * env.cdos(ei.point, ej.point, k)
        assert abs(brute.imag) <= 1e-12 * max(abs(brute), 1e-300)
        num = decay_rate(src, env, VACUUM, k).numerator
        assert num == pytest.approx(brute.real, rel=1e-12, abs=0.0)


def test_two_dipole_rate_equals_pair_source_numerator():
    env = HomogeneousGreens(1.5)
    a = _pp(0.0)
    b = _pp(137.0, 20.0)
    k = 0.0071
    for phase in (0.0, 0.4, math.pi / 2, math.pi, 4.0):
        direct = two_dipole_rate(a, b, p=1.7, phase=phase, env=env, k=k)
        via_source = pair_rate_via_source(a, b, p=1.7, phase=phase, env=env, k=k)
        assert direct == pytest.approx(via_source, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_two_dipole_rate_rejects_non_finite_phase(phase):
    with pytest.raises(InvalidArgumentError, match="phase must be finite"):
        two_dipole_rate(_pp(0.0), _pp(90.0), 1.0, phase, VACUUM, 0.009)


@given(phase=st.floats(min_value=-7.0, max_value=7.0))
def test_two_dipole_rate_phase_identities(phase):
    env = HomogeneousGreens(1.0)
    a = _pp(0.0)
    b = _pp(90.0)
    k = 0.009
    rate = lambda phi: two_dipole_rate(a, b, 1.0, phi, env, k)
    # even in phase and 2*pi periodic
    assert rate(phase) == rate(-phase)
    assert rate(phase + 2 * math.pi) == pytest.approx(rate(phase), rel=1e-12, abs=1e-18)
    # rate(phi) + rate(phi + pi) = p^2 (rho_aa + rho_bb)
    total = rate(phase) + rate(phase + math.pi)
    expected = env.cdos(a, a, k) + env.cdos(b, b, k)
    assert total == pytest.approx(expected, rel=1e-12, abs=0.0)
    # rate(phi) - rate(pi - phi) = 2 p^2 rho_ab cos(phi)
    diff = rate(phase) - rate(math.pi - phase)
    assert diff == pytest.approx(2.0 * env.cdos(a, b, k) * math.cos(phase),
                                 rel=1e-9, abs=1e-15)


def test_idealized_superradiance_and_subradiance():
    env = ModeSet((surrogate_l3(),))
    k = env.modes[0].k_m
    a, b_opp, b_same = _mirror_pair()
    single = env.cdos(a, a, k)  # unit point-source numerator

    # opposite-sign points: pi doubles, 0 cancels
    assert two_dipole_rate(a, b_opp, 1.0, math.pi, env, k) == pytest.approx(
        2.0 * single, rel=1e-12)
    assert abs(two_dipole_rate(a, b_opp, 1.0, 0.0, env, k)) <= 1e-12 * single
    # same-sign points: mirrored behavior
    assert two_dipole_rate(a, b_same, 1.0, 0.0, env, k) == pytest.approx(
        2.0 * single, rel=1e-12)
    assert abs(two_dipole_rate(a, b_same, 1.0, math.pi, env, k)) <= 1e-12 * single


def test_coherence_classification_values():
    env = ModeSet((surrogate_l3(),))
    k = env.modes[0].k_m
    a, b_opp, b_same = _mirror_pair()
    assert coherence_classification(point_source(a), env, k) == 1.0
    constructive = pair_source(a, b_same, p=1.0, phase=0.0)
    destructive = pair_source(a, b_opp, p=1.0, phase=0.0)
    assert coherence_classification(constructive, env, k) == pytest.approx(2.0, rel=1e-12)
    assert coherence_classification(destructive, env, k) == pytest.approx(0.0, abs=1e-12)


def test_sweep_spectrum_lorentzian_q_fit():
    mode = surrogate_l3()
    env = CompositeGreens(HomogeneousGreens(1.0), ModeSet((mode,)))
    src = point_source(_pp(0.0), 1.0)  # field antinode
    g = mode.gamma_m
    ks = np.linspace(mode.k_m - 4 * g, mode.k_m + 4 * g, 1601)
    spec = sweep_spectrum(src, env, VACUUM, ks)
    vals = np.asarray(spec.samples, dtype=float)
    peak = float(np.max(vals))
    half = peak / 2.0
    above = vals >= half
    lo_idx = int(np.argmax(above))
    hi_idx = int(len(vals) - np.argmax(above[::-1]) - 1)

    def crossing(i0, i1):
        x0, x1 = ks[i0], ks[i1]
        y0, y1 = vals[i0], vals[i1]
        return x0 + (half - y0) * (x1 - x0) / (y1 - y0)

    fwhm = crossing(hi_idx, hi_idx + 1) - crossing(lo_idx, lo_idx - 1)
    q_fit = mode.k_m / fwhm
    assert q_fit == pytest.approx(2000.0, rel=0.01)


def test_antiphase_mirror_pair_numerator_doubles_across_spectrum():
    mode = surrogate_l3()
    env = ModeSet((mode,))
    a, b_opp, _ = _mirror_pair()
    pair = pair_source(a, b_opp, p=1.0, phase=math.pi)
    point = point_source(a, 1.0)
    g = mode.gamma_m
    ks = np.linspace(mode.k_m - 3 * g, mode.k_m + 3 * g, 101)
    for k in ks:
        k = float(k)
        num_pair = decay_rate(pair, env, VACUUM, k).numerator
        num_point = decay_rate(point, env, VACUUM, k).numerator
        assert num_pair == pytest.approx(2.0 * num_point, rel=1e-9)


def test_zero_amplitude_mode_with_background_gives_flat_unit_spectrum():
    from purcellx import AnalyticSurrogate, AnalyticSurrogateParams, LossyMode

    dead = LossyMode(
        AnalyticSurrogate(AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, 0.0)),
        k_m=0.005, gamma_m=1e-5,
    )
    n = 1.5
    env = CompositeGreens(HomogeneousGreens(n), ModeSet((dead,)))
    ref = HomogeneousGreens(n)
    src = line_source(Position(0, 0, 0), X, Y, d=120.0, n_elements=5, p=1.0)
    ks = np.linspace(0.004, 0.006, 21)
    spec = sweep_spectrum(src, env, ref, ks)
    assert np.allclose(np.asarray(spec.samples, dtype=float), 1.0, rtol=1e-12)


def test_sweep_length_small_d_limit_is_point_rate():
    mode = surrogate_l3()
    env = CompositeGreens(HomogeneousGreens(3.48), ModeSet((mode,)))
    ref = HomogeneousGreens(3.48)
    k = mode.k_m
    curve = sweep_length(Position(0, 0, 0), X, Y, np.array([0.0, 50.0]), 1.0,
                         env, ref, k)
    point = decay_rate(point_source(_pp(0.0), 1.0), env, ref, k).gamma_ratio
    assert curve.gamma_ratio[0] == pytest.approx(point, rel=1e-12)


def test_sweep_length_emits_extremity_field_of_dominant_mode():
    mode = surrogate_l3()
    env = CompositeGreens(HomogeneousGreens(3.48), ModeSet((mode,)))
    ref = HomogeneousGreens(3.48)
    ds = np.array([100.0, 320.0, 400.0])
    curve = sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, env, ref, mode.k_m)
    # tip at d/2: positive inside the central lobe, zero at 160, negative beyond
    assert curve.extremity_field[0] > 0.0
    assert curve.extremity_field[1] == pytest.approx(0.0, abs=1e-15)
    assert curve.extremity_field[2] < 0.0
    # homogeneous environments have no mode to report
    hom = sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, HomogeneousGreens(3.48),
                       ref, mode.k_m)
    assert np.all(np.isnan(hom.extremity_field))


def test_homogeneous_line_numerator_peak_location():
    """Fixed-spacing transverse line in a homogeneous medium: the coherent
    rate peaks where int_0^X u A(u) du = 0, i.e. tan X = X (X = n k d),
    giving d* = 4.4934/(n k) ~ 0.715 lambda/n (the lambda/(2n) figure targeted
    by acceptance criterion 5 is not a stationary point of this model)."""
    n = 3.48
    lam = 1270.0
    k = wavelength_to_k(lam)
    env = HomogeneousGreens(n)
    ds = np.linspace(20.0, 420.0, 100)
    curve = sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, env, env, k,
                         elements=lambda d: int(math.ceil(d / 2.5)) + 1)
    d_peak = float(ds[int(np.argmax(curve.numerator))])
    d_predicted = 4.493409457909064 / (n * k)
    assert d_peak == pytest.approx(d_predicted, rel=0.05)
    # normalized ratio with env == ref stays identically 1
    assert np.allclose(curve.gamma_ratio, 1.0, rtol=1e-12)


def _complex_qnm_pair():
    from purcellx import AnalyticSurrogate, AnalyticSurrogateParams, Qnm, QnmPair

    def qnm(x0, amplitude, k_m, gamma_m):
        params = AnalyticSurrogateParams(x0, 400.0, 120.0, Y, amplitude)
        return Qnm(AnalyticSurrogate(params), k_m=k_m, gamma_m=gamma_m)

    return QnmPair(qnm(160.0, 0.8 + 0.6j, 0.0050, 2.5e-5),
                   qnm(220.0, -0.3 + 1.1j, 0.00502, 1e-5))


def test_sweep_point_independence():
    """A sweep's value at a k depends on nothing but that k: it equals the
    sweep over a sub-grid holding that k, and decay_rate there, bitwise."""
    src = line_source(Position(0, 0, 0), X, Y, d=300.0, n_elements=31, p=1.0)
    for model in (ModeSet((surrogate_l3(),)), _complex_qnm_pair()):
        env = CompositeGreens(HomogeneousGreens(1.0), model)
        mode = model.structured_modes()[0]
        g = mode.gamma_m
        ks = np.linspace(mode.k_m - 2 * g, mode.k_m + 2 * g, 41)
        full = sweep_spectrum(src, env, VACUUM, ks).samples
        sub = sweep_spectrum(src, env, VACUUM, ks[3::7]).samples
        assert np.array_equal(full[3::7], sub)
        single = [decay_rate(src, env, VACUUM, float(k)).gamma_ratio for k in ks]
        assert np.array_equal(full, np.array(single))

        ds = np.linspace(0.0, 500.0, 26)
        curve = sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, env, VACUUM, mode.k_m)
        part = sweep_length(Position(0, 0, 0), X, Y, ds[1::5], 1.0, env, VACUUM, mode.k_m)
        assert np.array_equal(curve.gamma_ratio[1::5], part.gamma_ratio)
        assert np.array_equal(curve.extremity_field[1::5], part.extremity_field)


def test_rate_engine_never_builds_the_cdos_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the rate engine called cdos_matrix")

    models = (ModeSet((surrogate_l3(),)), _complex_qnm_pair())
    for owner in (HomogeneousGreens, CompositeGreens, *map(type, models)):
        monkeypatch.setattr(owner, "cdos_matrix", refuse)
    src = line_source(Position(0, 0, 0), X, Y, d=300.0, n_elements=31, p=1.0)
    for model in models:
        env = CompositeGreens(HomogeneousGreens(1.0), model)
        k_m = model.structured_modes()[0].k_m
        assert math.isfinite(decay_rate(src, env, VACUUM, k_m).gamma_ratio)
        assert math.isfinite(two_dipole_rate(_pp(40.0), _pp(-90.0), 1.0, 0.3, env, k_m))
        assert len(sweep_spectrum(src, env, VACUUM, [0.999 * k_m, k_m])) == 2
        assert sweep_length(Position(0, 0, 0), X, Y, [0.0, 300.0], 1.0, env, VACUUM,
                            k_m).gamma_ratio.shape == (2,)
        assert math.isfinite(coherence_classification(src, env, 0.9 * k_m))


def test_sweep_reports_first_negative_reference_point():
    """A QNM reference whose field carries the phase pi/4 has the LDOS
    Im(i pole)/pi = Re(pole)/pi ~ (k_m - k): it turns negative past k_m."""
    from purcellx import AnalyticSurrogate, AnalyticSurrogateParams, Qnm, QnmPair

    def qnm(amplitude):
        params = AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, amplitude)
        return Qnm(AnalyticSurrogate(params), k_m=0.005, gamma_m=1e-5)

    ref = QnmPair(qnm(complex(math.cos(math.pi / 4), math.sin(math.pi / 4))), qnm(0.0))
    src = line_source(Position(0, 0, 0), X, Y, d=100.0, n_elements=5, p=1.0)
    ks = 0.005 + 1e-5 * np.linspace(-3.0, 3.0, 12)
    first = int(np.argmax(ks > 0.005))
    with pytest.raises(SweepPointError) as err:
        sweep_spectrum(src, VACUUM, ref, ks)
    assert err.value.index == first == 6
    assert isinstance(err.value.__cause__, DegenerateReferenceError)


@pytest.mark.parametrize("grid,first", [
    ([-0.001, 0.0, 0.004, math.inf], 0),
    ([0.004, 0.005, math.inf], 2),
    ([0.004, 0.005, math.nan], 2),  # a NaN passes the order test and is named at its point
])
def test_sweep_reports_first_bad_wavenumber(grid, first):
    with pytest.raises(SweepPointError) as err:
        sweep_spectrum(point_source(_pp(0.0)), VACUUM, VACUUM, grid)
    assert err.value.index == first
    assert isinstance(err.value.__cause__, InvalidArgumentError)
    assert str(err.value.__cause__) == f"wavenumber must be positive, got {grid[first]!r}"


def test_sweep_errors_carry_point_index():
    rng = np.random.default_rng(11)
    from purcellx import GridField, LossyMode

    data = (rng.normal(size=(4, 4, 3)) + 0j)
    grid = GridField(data, origin=(-75.0, -75.0), spacing=(50.0, 50.0))
    env = ModeSet((LossyMode(grid, k_m=0.005, gamma_m=1e-5),))
    ds = np.array([50.0, 400.0])  # second length leaves the grid
    with pytest.raises(SweepPointError) as err:
        sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, env, VACUUM, 0.005)
    assert err.value.index == 1


def test_sweep_length_rejects_non_integral_element_count():
    env = HomogeneousGreens(1.0)
    with pytest.raises(InvalidArgumentError, match="elements"):
        sweep_length(Position(0, 0, 0), X, Y, np.array([100.0]), 1.0, env, env, 0.005,
                     elements=2.5)


def test_degenerate_reference_detected():
    from purcellx import AnalyticSurrogate, AnalyticSurrogateParams, LossyMode

    dead = LossyMode(
        AnalyticSurrogate(AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, 0.0)),
        k_m=0.005, gamma_m=1e-5,
    )
    src = point_source(_pp(20.0), 1.0)
    with pytest.raises(DegenerateReferenceError):
        decay_rate(src, HomogeneousGreens(1.0), ModeSet((dead,)), 0.005)


@given(a=strats.polarized_points, b=strats.polarized_points,
       phase=st.floats(min_value=0, max_value=2 * math.pi),
       k=strats.wavenumbers)
@example(a=_pp(0.0, u=X), b=_pp(0.0, u=X), phase=3.140625, k=0.048828125)
def test_pair_rate_consistency_property(a, b, phase, k):
    # relative to the summed term magnitudes sum_ij |conj(w_i) w_j rho_ij|: at the
    # example, two coincident parallel dipoles cancel to 1/4.3e6 of them, and the
    # two sums differ by 3.2e-10 of the rate but 7.5e-17 of the magnitudes
    env = HomogeneousGreens(1.0)
    direct = two_dipole_rate(a, b, 1.0, phase, env, k)
    src = pair_source(a, b, 1.0, phase)
    w = src.weights_array()
    rho = env.cdos_matrix(src.positions_array(), src.orientations_array(), k)
    scale = np.abs(np.outer(w.conjugate(), w) * rho).sum()
    assert abs(direct - pair_rate_via_source(a, b, 1.0, phase, env, k)) <= 1e-11 * scale


@pytest.mark.parametrize("grid,message", [
    (np.array([]), "non-empty 1D"),
    (np.array([[0.004, 0.005]]), "non-empty 1D"),
    (np.array([0.005, 0.004]), "strictly ascending"),
    (np.array([0.004, 0.004]), "strictly ascending"),
])
def test_sweeps_reject_malformed_grids(grid, message):
    src = point_source(_pp(0.0))
    with pytest.raises(InvalidArgumentError, match=f"k grid must be .*{message}"):
        sweep_spectrum(src, VACUUM, VACUUM, grid)
    with pytest.raises(InvalidArgumentError, match=f"d grid must be .*{message}"):
        sweep_length(Position(0, 0, 0), X, Y, 100.0 * grid, 1.0, VACUUM, VACUUM, 0.005)


def test_sweep_length_names_a_nan_length_at_its_point():
    with pytest.raises(SweepPointError) as err:
        sweep_length(Position(0, 0, 0), X, Y, np.array([10.0, 50.0, math.nan]), 1.0,
                     VACUUM, VACUUM, 0.005)
    assert err.value.index == 2
    assert str(err.value.__cause__) == "line length must be >= 0, got nan"


def test_sweep_length_rejects_negative_lengths():
    with pytest.raises(InvalidArgumentError, match="line lengths must be >= 0"):
        sweep_length(Position(0, 0, 0), X, Y, np.array([-10.0, 50.0]), 1.0, VACUUM, VACUUM, 0.005)


def test_sweep_length_fixed_element_count_equals_constant_rule():
    env = CompositeGreens(HomogeneousGreens(3.48), ModeSet((surrogate_l3(),)))
    ds = np.linspace(0.0, 400.0, 9)
    args = (Position(10.0, 0.0, 0.0), X, Y, ds, 1.0, env, HomogeneousGreens(3.48),
            wavelength_to_k(1270.0))
    fixed = sweep_length(*args, elements=7)
    rule = sweep_length(*args, elements=lambda d: 7)
    for name in ("gamma_ratio", "numerator", "denominator", "extremity_field"):
        assert getattr(fixed, name).tobytes() == getattr(rule, name).tobytes()


def test_coherence_classification_rejects_source_at_a_mode_node():
    env = ModeSet((surrogate_l3(),))
    # the Gaussian envelope underflows to exactly 0 far off the cavity axis
    node = point_source(_pp(0.0, y=1.0e4))
    with pytest.raises(DegenerateReferenceError, match="incoherent rate"):
        coherence_classification(node, env, env.modes[0].k_m)


def test_coherence_classification_memory_on_a_3000_element_line():
    # the dense 3000 x 3000 kernel alone would take 72 MB
    src = line_source(Position(0, 0, 0), X, Y, d=3000.0, n_elements=3000, p=1.0)
    env = CompositeGreens(HomogeneousGreens(1.0), ModeSet((surrogate_l3(),)))
    tracemalloc.start()
    try:
        beta = coherence_classification(src, env, surrogate_l3().k_m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(beta)
    assert peak < 16 * 2**20


def test_coherence_classification_rejects_nan_diagonal():
    class NanKernel:
        def ldos_many(self, positions, orientations, k):
            return np.full(positions.shape[0], math.nan)

        def forms(self, src, k_grid):
            return np.full(len(k_grid), math.nan)

    with pytest.raises(DegenerateReferenceError, match="incoherent rate"):
        coherence_classification(point_source(_pp(0.0)), NanKernel(), 0.005)
