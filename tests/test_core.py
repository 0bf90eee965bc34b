import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    CompositeGreens,
    DipoleElement,
    ExtendedSource,
    FanoTerm,
    GridField,
    HomogeneousGreens,
    InvalidArgumentError,
    LossyMode,
    ModeSet,
    Orientation,
    PolarizedPoint,
    Position,
    Qnm,
    QnmPair,
    RateResult,
    SamplingGrid,
    Spectrum,
    coherence_classification,
    default_element_count,
    fano_profile,
    free_space_ldos,
    line_source,
    pair_source,
    point_source,
    sampled_source,
    two_dipole_rate,
    wavelength_to_k,
)
from purcellx.homogeneous import radial_factors

Y = Orientation(0.0, 1.0, 0.0)
_FIELD = AnalyticSurrogate(AnalyticSurrogateParams(160.0, 400.0, 120.0, Y))
_A = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
_B = PolarizedPoint(Position(90.0, 0.0, 0.0), Y)
_ORIGIN = Position(0.0, 0.0, 0.0)

#: Every argument checked as finite and positive: (argument name, call with value v).
POSITIVE_ARGUMENTS = {
    "wavelength_to_k": ("wavelength", lambda v: wavelength_to_k(v)),
    "free_space_ldos": ("wavenumber", lambda v: free_space_ldos(v)),
    "k_grid": ("wavenumber", lambda v: HomogeneousGreens(1.0).forms(
        point_source(_A), np.array([0.01, v]))),
    "surrogate_x0": ("sign_change_half_width",
                     lambda v: AnalyticSurrogateParams(v, 400.0, 120.0, Y)),
    "surrogate_sigma_x": ("sigma_x", lambda v: AnalyticSurrogateParams(160.0, v, 120.0, Y)),
    "surrogate_sigma_y": ("sigma_y", lambda v: AnalyticSurrogateParams(160.0, 400.0, v, Y)),
    "grid_spacing": ("grid spacing",
                     lambda v: GridField(np.zeros((2, 2, 3), dtype=complex), (0, 0), (1.0, v))),
    "lossy_k_m": ("k_m", lambda v: LossyMode(_FIELD, v, 1e-5)),
    "lossy_gamma_m": ("gamma_m", lambda v: LossyMode(_FIELD, 0.005, v)),
    "qnm_k_m": ("k_m", lambda v: Qnm(_FIELD, v, 1e-5)),
    "qnm_gamma_m": ("gamma_m", lambda v: Qnm(_FIELD, 0.005, v)),
    "fano_profile": ("gamma_m", lambda v: fano_profile(0.005, v, 1.0, 0.005)),
    "pair_source": ("pair amplitude", lambda v: pair_source(_A, _B, v, 0.0)),
    "two_dipole_rate": ("pair amplitude",
                        lambda v: two_dipole_rate(_A, _B, v, 0.0, HomogeneousGreens(1.0), 0.01)),
    "line_source": ("cluster amplitude", lambda v: line_source(_ORIGIN, Y, Y, 100.0, 5, v)),
    "coherence_classification": ("wavenumber", lambda v: coherence_classification(
        pair_source(_A, _B, 1.0, 0.0), CompositeGreens(HomogeneousGreens(1.0),
                                                       ModeSet((LossyMode(_FIELD, 0.005, 1e-5),))),
        v)),
}

#: Every argument checked as finite: (argument name, call with value v, takes complex values).
FINITE_ARGUMENTS = {
    "position": ("Position coordinates", lambda v: Position(0.0, v, 0.0), False),
    "orientation": ("Orientation components", lambda v: Orientation(v, 0.0, 0.0), False),
    "orientation_from_vector": ("Orientation components",
                                lambda v: Orientation.from_vector(1.0, 0.0, v), False),
    "element_weight": ("element weight", lambda v: DipoleElement(_A, v), True),
    "sampled_source_weight": ("element weight", lambda v: sampled_source(
        lambda r: v, lambda r: Y, SamplingGrid((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2, 1, 1))), True),
    "surrogate_amplitude": ("amplitude",
                            lambda v: AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, v), True),
    "pair_phase": ("phase", lambda v: pair_source(_A, _B, 1.0, v), False),
    "fano_coefficient": ("coefficient", lambda v: FanoTerm(0, 1.0, v), False),
    "grid_origin": ("grid origin",
                    lambda v: GridField(np.zeros((2, 2, 3), dtype=complex), (0.0, v), (1.0, 1.0)),
                    False),
    "sampling_grid_lo": ("grid corners",
                         lambda v: SamplingGrid((0.0, v, 0.0), (1.0, 1.0, 1.0), (1, 1, 1)), False),
    "sampling_grid_hi": ("grid corners",
                         lambda v: SamplingGrid((0.0, 0.0, 0.0), (1.0, 1.0, v), (1, 1, 1)), False),
}

#: Every argument checked as finite and >= a minimum: (argument name, minimum, call with value v).
AT_LEAST_ARGUMENTS = {
    "homogeneous_n": ("refractive index", 1.0, lambda v: HomogeneousGreens(v)),
    "free_space_ldos_n": ("refractive index", 1.0, lambda v: free_space_ldos(0.01, v)),
    "line_source_d": ("line length", 0.0, lambda v: line_source(_ORIGIN, Y, Y, v, 5)),
    "element_count_d": ("line length", 0.0, lambda v: default_element_count(v, 0.01)),
    "element_count_n": ("refractive index", 1.0,
                        lambda v: default_element_count(100.0, 0.01, n=v)),
    "radial_factors": ("radial argument", 0.0, radial_factors),
}


def test_free_space_ldos_vacuum_value():
    assert free_space_ldos(1.0, 1.0) == pytest.approx(1.0 / (3.0 * math.pi**2), rel=1e-15)
    assert free_space_ldos(1.0) == pytest.approx(0.033773727, rel=1e-7)


def test_free_space_ldos_k_squared_scaling():
    assert free_space_ldos(2.0) == pytest.approx(4.0 * free_space_ldos(1.0), rel=1e-15)


def test_free_space_ldos_medium():
    assert free_space_ldos(1.0, 3.48) == pytest.approx(3.48 / (3.0 * math.pi**2), rel=1e-15)


@pytest.mark.parametrize("k,n", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.5), (math.nan, 1.0)])
def test_free_space_ldos_rejects_bad_args(k, n):
    with pytest.raises(InvalidArgumentError):
        free_space_ldos(k, n)


@given(
    k1=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    factor=st.floats(min_value=1.0001, max_value=100.0, allow_nan=False),
)
def test_free_space_ldos_increasing_in_k(k1, factor):
    assert free_space_ldos(k1 * factor) > free_space_ldos(k1)


@given(
    k=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    n=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
)
def test_free_space_ldos_linear_in_n(k, n):
    assert free_space_ldos(k, n) == pytest.approx(n * free_space_ldos(k, 1.0), rel=1e-12)


def test_wavelength_to_k_values():
    assert wavelength_to_k(1270.0) == pytest.approx(0.0049474, abs=5e-8)
    assert wavelength_to_k(2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)
    assert wavelength_to_k(628.3185) == pytest.approx(0.01, abs=1e-9)


def test_wavelength_to_k_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        wavelength_to_k(0.0)
    with pytest.raises(InvalidArgumentError):
        wavelength_to_k(-5.0)


@given(k=st.floats(min_value=1e-8, max_value=1e6, allow_nan=False))
def test_wavelength_roundtrip(k):
    assert wavelength_to_k(2.0 * math.pi / k) == pytest.approx(k, rel=1e-12)


def test_position_requires_finite():
    with pytest.raises(InvalidArgumentError):
        Position(0.0, math.inf, 0.0)


def test_line_source_reports_an_overflowing_coordinate():
    with pytest.raises(InvalidArgumentError) as err:
        line_source(Position(1.5e308, 0.0, 0.0), Orientation(1.0, 0.0, 0.0), Y, d=1e308,
                    n_elements=3)
    assert str(err.value) == "Position coordinates must be finite, got inf"


def test_orientation_requires_unit_norm():
    Orientation(1.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        Orientation(1.0, 0.5, 0.0)


def test_orientation_from_vector_normalizes():
    u = Orientation.from_vector(3.0, 4.0, 0.0)
    assert u.ux == pytest.approx(0.6, rel=1e-15)
    assert u.uy == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        Orientation.from_vector(0.0, 0.0, 0.0)


def test_spectrum_validation():
    Spectrum(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
    with pytest.raises(InvalidArgumentError):
        Spectrum(np.array([2.0, 1.0]), np.array([0.5, 0.25]))  # descending
    with pytest.raises(InvalidArgumentError):
        Spectrum(np.array([1.0, 1.0]), np.array([0.5, 0.25]))  # not strict
    with pytest.raises(InvalidArgumentError):
        Spectrum(np.array([1.0, 2.0]), np.array([0.5]))  # length mismatch
    with pytest.raises(InvalidArgumentError):
        Spectrum(np.array([]), np.array([]))
    with pytest.raises(InvalidArgumentError, match="one-dimensional"):
        Spectrum(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        Spectrum([1.0, math.inf], [1.0, 2.0])


def test_spectrum_accepts_complex_samples():
    s = Spectrum(np.array([1.0, 2.0, 3.0]), np.array([1j, 2j, 3j]))
    assert len(s) == 3
    assert s.samples.dtype.kind == "c"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", sorted(POSITIVE_ARGUMENTS))
def test_positive_arguments_reject_bad_values(site, value):
    name, call = POSITIVE_ARGUMENTS[site]
    with pytest.raises(InvalidArgumentError) as err:
        call(value)
    # a wavenumber from an array is reported as a plain float, not a numpy repr
    assert str(err.value) == f"{name} must be positive, got {value!r}"


_NON_FINITE = [math.nan, math.inf, -math.inf]
_NON_FINITE_COMPLEX = [complex(0.0, math.inf), complex(math.nan, 1.0)]


@pytest.mark.parametrize("site,value", [
    (site, value) for site in sorted(FINITE_ARGUMENTS)
    for value in _NON_FINITE + (_NON_FINITE_COMPLEX if FINITE_ARGUMENTS[site][2] else [])
])
def test_finite_arguments_reject_non_finite_values(site, value):
    name, call, _ = FINITE_ARGUMENTS[site]
    with pytest.raises(InvalidArgumentError) as err:
        call(value)
    assert str(err.value).startswith(f"{name} must be finite, got ")


@pytest.mark.parametrize("bad", [
    lambda m: math.nan, lambda m: math.inf, lambda m: -math.inf, lambda m: m - 0.5,
    lambda m: math.nextafter(m, -math.inf),
], ids=["nan", "inf", "-inf", "half-below", "ulp-below"])
@pytest.mark.parametrize("site", sorted(AT_LEAST_ARGUMENTS))
def test_lower_bounded_arguments_reject_bad_values(site, bad):
    name, minimum, call = AT_LEAST_ARGUMENTS[site]
    value = bad(minimum)
    with pytest.raises(InvalidArgumentError) as err:
        call(value)
    assert str(err.value) == f"{name} must be >= {minimum:g}, got {value!r}"
    call(minimum)


_MODE = LossyMode(_FIELD, 0.005, 1e-5)
_QNM = Qnm(_FIELD, 0.005, 1e-5)
#: One instance of every public frozen record.
FROZEN_RECORDS = [
    _ORIGIN, Y, _A, DipoleElement(_A, 1.0), ExtendedSource((DipoleElement(_A, 1.0),), _ORIGIN),
    SamplingGrid((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2, 2, 1)), HomogeneousGreens(1.0),
    _MODE, _QNM, ModeSet((_MODE,)), QnmPair(_QNM, _QNM),
    CompositeGreens(HomogeneousGreens(1.0), ModeSet((_MODE,))), RateResult(1.0, 2.0, 2.0, 0.005),
    FanoTerm(0, 1.0, 0.5), _FIELD.params, _FIELD,
]


@pytest.mark.parametrize("record", FROZEN_RECORDS, ids=lambda r: type(r).__name__)
def test_records_reject_every_assignment(record):
    for name in (dataclasses.fields(record)[0].name, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
