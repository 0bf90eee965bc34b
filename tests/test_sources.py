import cmath
import math

import numpy as np
import pytest

from purcellx import (
    HomogeneousGreens,
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Position,
    SamplingGrid,
    decay_rate,
    default_element_count,
    line_source,
    pair_source,
    point_source,
    sampled_source,
)

X = Orientation(1.0, 0.0, 0.0)
Y = Orientation(0.0, 1.0, 0.0)


def test_point_source_basic():
    p = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
    src = point_source(p, 1.0)
    assert len(src) == 1
    assert src.elements[0].weight == 1.0 + 0.0j
    assert src.reference == p.position


def test_point_source_preserves_complex_amplitude():
    p = PolarizedPoint(Position(1.0, 2.0, 3.0), Y)
    amp = 2.0 * cmath.exp(1j * math.pi / 3)
    src = point_source(p, amp)
    assert src.elements[0].weight == amp


def test_point_source_rejects_zero_amplitude():
    p = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
    with pytest.raises(InvalidArgumentError):
        point_source(p, 0.0)


def test_pair_source_weights_and_reference():
    a = PolarizedPoint(Position(-10.0, 0.0, 0.0), Y)
    b = PolarizedPoint(Position(30.0, 0.0, 0.0), Y)
    src = pair_source(a, b, p=2.0, phase=0.0)
    w = 2.0 / math.sqrt(2.0)
    assert src.elements[0].weight == pytest.approx(w)
    assert src.elements[1].weight == pytest.approx(w)
    assert src.reference == Position(10.0, 0.0, 0.0)

    anti = pair_source(a, b, p=2.0, phase=math.pi)
    assert anti.elements[1].weight.real == pytest.approx(-w, rel=1e-12)

    total = sum(abs(e.weight) ** 2 for e in src.elements)
    assert total == pytest.approx(4.0, rel=1e-12)  # p**2


def test_line_source_single_element_cases():
    c = Position(5.0, 6.0, 7.0)
    for d, n in ((0.0, 12), (100.0, 1)):
        src = line_source(c, X, Y, d, n, p=3.0)
        assert len(src) == 1
        assert src.elements[0].weight == 3.0 + 0.0j
        assert src.elements[0].point.position == c


def test_line_source_layout_matches_spec_example():
    src = line_source(Position(0.0, 0.0, 0.0), X, X, d=300.0, n_elements=31, p=1.0)
    xs = [e.point.position.x for e in src.elements]
    assert len(xs) == 31
    assert xs[0] == pytest.approx(-150.0, abs=1e-12)
    assert xs[-1] == pytest.approx(150.0, abs=1e-12)
    spacings = np.diff(xs)
    assert np.allclose(spacings, 10.0, atol=1e-10)
    assert all(e.point.orientation == X for e in src.elements)
    total = sum(abs(e.weight) ** 2 for e in src.elements)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_line_source_560_endpoints():
    src = line_source(Position(0.0, 0.0, 0.0), X, Y, d=560.0, n_elements=15, p=1.0)
    xs = [e.point.position.x for e in src.elements]
    assert xs[0] == pytest.approx(-280.0, abs=1e-12)
    assert xs[-1] == pytest.approx(280.0, abs=1e-12)


def test_line_source_rejects_bad_args():
    c = Position(0.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        line_source(c, X, Y, d=-1.0, n_elements=5)
    with pytest.raises(InvalidArgumentError):
        line_source(c, X, Y, d=10.0, n_elements=0)
    with pytest.raises(InvalidArgumentError):
        line_source(c, X, Y, d=10.0, n_elements=5, p=0.0)


@pytest.mark.parametrize("count", [2.5, math.nan, math.inf, "3"])
def test_line_source_rejects_non_integral_counts(count):
    with pytest.raises(InvalidArgumentError, match="element count"):
        line_source(Position(0.0, 0.0, 0.0), X, Y, d=100.0, n_elements=count)


def test_line_source_accepts_integral_counts():
    for count in (3, 3.0, np.int64(3)):
        assert len(line_source(Position(0.0, 0.0, 0.0), X, Y, d=100.0, n_elements=count)) == 3


def test_sampling_grid_rejects_non_integral_shape():
    with pytest.raises(InvalidArgumentError, match="grid shape"):
        SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 0.0), shape=(2.7, 2, 1))
    with pytest.raises(InvalidArgumentError, match="grid shape"):
        SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 0.0), shape=(2, 0, 1))


def test_default_element_count_spacing_rule():
    k = 2.0 * math.pi / 1270.0
    for d in (50.0, 300.0, 1000.0):
        for n in (1.0, 3.48):
            count = default_element_count(d, k, n=n)
            spacing = d / (count - 1)
            assert spacing <= 1270.0 / (20.0 * n) + 1e-9
    assert default_element_count(0.0, k) == 1


def test_sampled_source_delta_density():
    grid = SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(30.0, 0.0, 0.0), shape=(3, 1, 1))

    def density(pos):
        return 2.0 if abs(pos.x - 15.0) < 1.0 else 0.0

    src = sampled_source(density, lambda pos: Y, grid)
    assert len(src) == 1
    assert src.elements[0].point.position.x == pytest.approx(15.0)
    assert src.elements[0].weight == pytest.approx(2.0 * 10.0)  # density * cell length


def test_sampled_source_phase_gradient():
    grid = SamplingGrid(lo=(-50.0, 0.0, 0.0), hi=(50.0, 0.0, 0.0), shape=(5, 1, 1))
    kx = 0.01
    src = sampled_source(lambda pos: cmath.exp(1j * kx * pos.x), lambda pos: Y, grid)
    for e in src.elements:
        assert cmath.phase(e.weight) == pytest.approx(kx * e.point.position.x, rel=1e-12)


def test_sampled_source_rejects_all_zero():
    grid = SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(10.0, 0.0, 0.0), shape=(4, 1, 1))
    with pytest.raises(InvalidArgumentError):
        sampled_source(lambda pos: 0.0, lambda pos: Y, grid)


def test_sampled_source_matches_line_source_rate():
    # uniform density over a segment vs a converged line cluster; the two
    # quadrature conventions (midpoint cells vs endpoint grid) meet in the
    # continuum limit
    k = 2.0 * math.pi / 1270.0
    env = HomogeneousGreens(3.48)
    ref = HomogeneousGreens(1.0)
    d = 100.0
    line = line_source(Position(0.0, 0.0, 0.0), X, Y, d=d, n_elements=512, p=1.0)
    grid = SamplingGrid(lo=(-d / 2, 0.0, 0.0), hi=(d / 2, 0.0, 0.0), shape=(64, 1, 1))
    sampled = sampled_source(lambda pos: 1.0, lambda pos: Y, grid)
    r_line = decay_rate(line, env, ref, k).gamma_ratio
    r_sampled = decay_rate(sampled, env, ref, k).gamma_ratio
    assert r_sampled == pytest.approx(r_line, rel=1e-3)


def test_discretization_convergence():
    # The normalized rate of a 1/sqrt(N) cluster converges ~1/N (the diagonal
    # share of the double sum), so the 0.1% doubling threshold needs a few
    # hundred elements, well past the lambda/20 spacing rule. Assert the
    # Cauchy halving pattern plus the 0.1% figure at an N where it holds.
    k = 2.0 * math.pi / 1270.0
    env = HomogeneousGreens(3.48)
    ref = HomogeneousGreens(1.0)
    d = 100.0
    center = Position(0.0, 0.0, 0.0)

    def ratio(n):
        return decay_rate(line_source(center, X, Y, d, n), env, ref, k).gamma_ratio

    r64, r128, r256, r512 = ratio(64), ratio(128), ratio(256), ratio(512)
    step1 = abs(r128 - r64) / r128
    step2 = abs(r256 - r128) / r256
    step3 = abs(r512 - r256) / r512
    assert step2 < 0.7 * step1
    assert step3 < 0.7 * step2
    assert step3 < 1e-3


def test_extended_source_requires_nonzero_weight():
    from purcellx import DipoleElement, ExtendedSource

    p = PolarizedPoint(Position(0.0, 0.0, 0.0), Y)
    with pytest.raises(InvalidArgumentError):
        ExtendedSource(elements=(), reference=p.position)
    with pytest.raises(InvalidArgumentError):
        ExtendedSource(
            elements=(DipoleElement(point=p, weight=0.0),), reference=p.position
        )



def test_extended_source_arrays_are_built_once_and_read_only():
    def build():
        return sampled_source(lambda r: complex(1.0, r.x),
                              lambda r: Orientation.from_vector(1.0, r.y, 2.0),
                              SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(3.0, 2.0, 0.0), shape=(3, 2, 1)))

    src = build()
    arrays = (src.positions_array(), src.orientations_array(), src.weights_array())
    expected = (
        [e.point.position.as_array() for e in src.elements],
        [e.point.orientation.as_array() for e in src.elements],
        [e.weight for e in src.elements],
    )
    for array, want in zip(arrays, expected):
        assert np.array_equal(array, np.array(want))
        assert not array.flags.writeable
    assert src.positions_array() is arrays[0]
    # the cached arrays take no part in equality or hashing
    assert src == build() and hash(src) == hash(build())
