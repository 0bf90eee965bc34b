import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

import strats
from purcellx import (
    DipoleElement,
    ExtendedSource,
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
    assert (src == 5) is False


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


@pytest.mark.parametrize("count", [2.5, math.nan, math.inf, "3", True])
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
    with pytest.raises(InvalidArgumentError, match="grid shape"):
        SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 0.0), shape=(True, 1, 1))


def test_sampling_grid_rejects_bad_corners():
    with pytest.raises(InvalidArgumentError, match="needs 3 entries"):
        SamplingGrid(lo=(0.0, 0.0), hi=(1.0, 1.0, 1.0), shape=(1, 1, 1))
    with pytest.raises(InvalidArgumentError, match="must not be below"):
        SamplingGrid(lo=(1.0, 0.0, 0.0), hi=(0.0, 1.0, 1.0), shape=(1, 1, 1))


def test_sampling_grid_rejects_stacked_cells_on_a_flat_axis():
    # two stacks of three coincident cells would triple each stack's amplitude
    with pytest.raises(InvalidArgumentError, match="grid axis y has zero extent"):
        SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(10.0, 0.0, 0.0), shape=(2, 3, 1))
    assert len(list(SamplingGrid((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (2, 1, 1)).centers())) == 2


def test_builders_record_a_lattice_that_equality_ignores():
    grid = SamplingGrid(lo=(0.0, 0.0, 0.0), hi=(30.0, 20.0, 0.0), shape=(3, 2, 1))
    sampled = sampled_source(lambda r: 0.0 if r.x < 10.0 and r.y < 10.0 else 1.0,
                             lambda r: Y, grid)
    # the cell (0, 0) is dropped
    assert sampled._lattice[1].tolist() == [[0, 1, 0], [1, 0, 0], [1, 1, 0], [2, 0, 0], [2, 1, 0]]
    built = (point_source(PolarizedPoint(Position(0.0, 0.0, 0.0), Y)),
             pair_source(PolarizedPoint(Position(0.0, 0.0, 0.0), Y),
                         PolarizedPoint(Position(30.0, 40.0, 0.0), X), 1.0, 0.5),
             line_source(Position(0.0, 0.0, 0.0), X, Y, d=100.0, n_elements=5), sampled)
    for src in built:
        steps, cells = src._lattice
        # every element sits at its cell times the steps from one lattice origin
        origins = src.positions_array() - cells @ steps
        np.testing.assert_allclose(origins, origins[[0] * len(src)], atol=1e-12)
        by_hand = ExtendedSource(src.elements, src.reference)
        assert by_hand._lattice is None
        assert by_hand == src and hash(by_hand) == hash(src)


def _element_arrays(elements):
    """Positions, orientations and weights of an element list, read one element at a time."""
    return (
        np.array([(e.point.position.x, e.point.position.y, e.point.position.z) for e in elements],
                 dtype=float),
        np.array([(e.point.orientation.ux, e.point.orientation.uy, e.point.orientation.uz)
                  for e in elements], dtype=float),
        np.array([e.weight for e in elements], dtype=complex),
    )


def _assert_built_as_by_hand(src, elements, reference, steps, cells):
    want = (*_element_arrays(elements), np.array(steps, dtype=float),
            np.array(cells, dtype=np.intp).reshape(-1, 3))
    got = (src.positions_array(), src.orientations_array(), src.weights_array(), *src._lattice)
    for array, expected in zip(got, want):
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()
    assert src.reference == reference
    assert src.elements == tuple(elements)
    copy = ExtendedSource(src.elements, src.reference)
    assert copy == src and hash(copy) == hash(src)
    assert copy._lattice is None


_amplitudes = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                                 allow_nan=False, allow_infinity=False)
_grid_axes = st.tuples(st.floats(-400.0, 400.0), st.one_of(st.just(0.0), st.floats(1.0, 400.0)),
                       st.integers(1, 6))


@given(center=strats.positions, other=strats.positions, axis=strats.orientations(),
       polarization=strats.orientations(), other_polarization=strats.orientations(),
       d=st.one_of(st.just(0.0), st.floats(1e-3, 1000.0)), n=st.integers(1, 60),
       p=st.floats(0.01, 10.0), amplitude=_amplitudes, phase=st.floats(-10.0, 10.0),
       axes=st.tuples(_grid_axes, _grid_axes, _grid_axes), kx=strats.coords, data=st.data())
def test_builders_match_element_by_element_construction(center, axis, polarization, other,
                                                        other_polarization, d, n, p, amplitude,
                                                        phase, axes, kx, data):
    # line: the offsets and positions of each element in scalar floats
    if n == 1 or d == 0.0:
        line_elements = [DipoleElement(PolarizedPoint(center, polarization), p)]
        steps, cells = np.zeros((3, 3)), [(0, 0, 0)]
    else:
        w = complex(p / math.sqrt(n), 0.0)
        line_elements = [
            DipoleElement(PolarizedPoint(Position(center.x + t * axis.ux, center.y + t * axis.uy,
                                                  center.z + t * axis.uz), polarization), w)
            for t in ((i / (n - 1) - 0.5) * d for i in range(n))
        ]
        steps = np.vstack([(d / (n - 1)) * axis.as_array(), np.zeros((2, 3))])
        cells = [(i, 0, 0) for i in range(n)]
    _assert_built_as_by_hand(line_source(center, axis, polarization, d, n, p),
                             line_elements, center, steps, cells)

    a = PolarizedPoint(center, polarization)
    _assert_built_as_by_hand(point_source(a, amplitude), [DipoleElement(a, amplitude)],
                             center, np.zeros((3, 3)), [(0, 0, 0)])

    b = PolarizedPoint(other, other_polarization)
    w = p / math.sqrt(2.0)
    midpoint = Position(0.5 * (center.x + other.x), 0.5 * (center.y + other.y),
                        0.5 * (center.z + other.z))
    _assert_built_as_by_hand(
        pair_source(a, b, p, phase),
        [DipoleElement(a, complex(w, 0.0)), DipoleElement(b, w * cmath.exp(1j * phase))],
        midpoint, np.vstack([other.as_array() - center.as_array(), np.zeros((2, 3))]),
        [(0, 0, 0), (1, 0, 0)])

    # sampled: a phase-ramped density that drops the cells hypothesis picks
    grid = SamplingGrid(lo=tuple(lo for lo, _, _ in axes),
                        hi=tuple(lo + extent for lo, extent, _ in axes),
                        shape=tuple(count if extent > 0.0 else 1 for _, extent, count in axes))
    size = int(np.prod(grid.shape))
    kept = data.draw(st.lists(st.booleans(), min_size=size, max_size=size).filter(any))
    keep = dict(zip(grid.centers(), kept))

    def density(r):
        return amplitude * cmath.exp(1j * 1e-3 * kx * r.x) if keep[r] else 0.0

    def orient(r):
        return Orientation.from_vector(1.0, math.sin(r.x), math.cos(r.y))

    dv = grid.cell_measure()
    sampled_elements, sampled_cells = [], []
    for pos, cell in zip(grid.centers(), np.ndindex(grid.shape)):
        weight = complex(density(pos)) * dv
        if weight != 0:
            sampled_elements.append(DipoleElement(PolarizedPoint(pos, orient(pos)), weight))
            sampled_cells.append(cell)
    middle = Position(*(0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)))
    _assert_built_as_by_hand(sampled_source(density, orient, grid), sampled_elements, middle,
                             np.diag(grid._steps()), sampled_cells)


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


@pytest.mark.parametrize("duplicate", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_copies_keep_read_only_arrays_and_lattice(duplicate):
    line = line_source(Position(5.0, -3.0, 0.0), X, Y, d=240.0, n_elements=9, p=1.5)
    by_hand = ExtendedSource((DipoleElement(PolarizedPoint(Position(0.0, 0.0, 0.0), Y), 1.0),
                              DipoleElement(PolarizedPoint(Position(70.0, 20.0, 0.0), X), 0.5j)),
                             Position(1.0, 2.0, 3.0))
    k_grid = np.linspace(0.004, 0.006, 5)
    forms = HomogeneousGreens(1.5).forms
    for src in (line, by_hand):
        dup = duplicate(src)
        assert dup == src
        assert not any(a.flags.writeable for a in dup._arrays + (dup._lattice or ()))
        if src._lattice is None:
            assert dup._lattice is None
        else:
            assert all(np.array_equal(a, b) for a, b in zip(dup._lattice, src._lattice))
        assert np.array_equal(forms(dup, k_grid), forms(src, k_grid))
