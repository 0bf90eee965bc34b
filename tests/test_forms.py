"""Each model's ``forms`` against a dense double loop over its ``cdos_matrix``.

``forms(src, k_grid)`` returns ``w^H rho(k) w`` for every k of the grid
without building the M x M kernel; the oracle here sums
``conj(w_i) w_j rho_ij`` entry by entry.  The tolerance is relative to
``sum_ij |conj(w_i) w_j rho_ij|``, which stays meaningful where the
structured sum nearly cancels.

Sources built by hand take the homogeneous pair path; sources from the
builders sit on a lattice and take the lag path, which is checked both
through ``forms`` and directly.  Both paths evaluate blocks of at most
``_BLOCK`` elements: the blocks must not show in the values, and memory must
not grow with the pair count or the grid.  ``coherence_classification`` is
checked against the coherent and diagonal sums of the same dense matrix.
"""

import bisect
import cmath
import functools
import inspect
import platform
import resource
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    CompositeGreens,
    DegenerateReferenceError,
    DipoleElement,
    ExtendedSource,
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
    SamplingGrid,
    cdos,
    cdos_modal,
    cdos_qnm,
    coherence_classification,
    line_source,
    pair_source,
    point_source,
    sampled_source,
)
from purcellx.homogeneous import TAYLOR_SWITCH, _BLOCK, _fast_length, _lag_terms, _pair_values
from purcellx.sources import _source

#: Grid-field domain: x in [-300, 300], y in [-200, 200] nm.
GRID_ORIGIN = (-300.0, -200.0)
GRID_SPACING = (100.0, 80.0)
GRID_SHAPE = (7, 6)


def _field(rng, kind):
    if kind == "grid":
        data = rng.normal(size=GRID_SHAPE + (3,)) + 1j * rng.normal(size=GRID_SHAPE + (3,))
        return GridField(data, origin=GRID_ORIGIN, spacing=GRID_SPACING)
    params = AnalyticSurrogateParams(
        sign_change_half_width=rng.uniform(80.0, 240.0),
        sigma_x=rng.uniform(200.0, 600.0),
        sigma_y=rng.uniform(80.0, 240.0),
        polarization=Orientation.from_vector(*rng.normal(size=3)),
        amplitude=complex(*rng.normal(size=2)),
    )
    return AnalyticSurrogate(params)


def _model(rng, model, field_kinds):
    k_m = rng.uniform(0.004, 0.006)
    if model == "homogeneous":
        return HomogeneousGreens(rng.uniform(1.0, 3.5)), k_m, k_m / 50.0
    if model == "composite":
        structured, k_m, gamma = _model(rng, rng.choice(["modes", "qnm"]), field_kinds)
        return CompositeGreens(HomogeneousGreens(rng.uniform(1.0, 3.5)), structured), k_m, gamma
    gammas = k_m / rng.uniform(100.0, 2000.0, size=2)
    if model == "modes":
        modes = [LossyMode(_field(rng, kind), k_m * (1.0 + 0.01 * j), gammas[j])
                 for j, kind in enumerate(field_kinds)]
        return ModeSet(tuple(modes)), k_m, gammas[0]
    qnms = [Qnm(_field(rng, kind), k_m * (1.0 + 0.005 * j), gammas[j])
            for j, kind in enumerate(field_kinds)]
    return QnmPair(*qnms), k_m, gammas[0]


def _unit_vectors(rng, count, aligned=False):
    """Random unit vectors; ``aligned`` zeroes each component never, in about half
    of the vectors or in all of them."""
    u = rng.normal(size=(count, 3))
    if aligned:
        zero = rng.random((count, 3)) < rng.choice([0.0, 0.5, 1.0], size=3)
        zero[zero.all(axis=1), rng.integers(3)] = False
        u[zero] = 0.0
    return u / np.linalg.norm(u, axis=1)[:, None]


def _hand_built(positions, orientations, weights):
    elements = tuple(DipoleElement(PolarizedPoint(Position(*p), Orientation(*u)), complex(w))
                     for p, u, w in zip(positions, orientations, weights))
    return ExtendedSource(elements=elements, reference=Position(0.0, 0.0, 0.0))


def _dense_form(rho, weights):
    total = 0.0
    scale = 0.0
    for i in range(len(weights)):
        for j in range(len(weights)):
            term = (weights[i].conjugate() * weights[j] * rho[i, j]).real
            total += term
            scale += abs(weights[i].conjugate() * weights[j] * rho[i, j])
    return total, scale


@given(
    model=st.sampled_from(["homogeneous", "modes", "qnm", "composite"]),
    field_kinds=st.sampled_from([("surrogate", "surrogate"), ("grid", "surrogate"),
                                 ("grid", "grid")]),
    count=st.integers(min_value=1, max_value=7),
    coincident=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_forms_match_dense_double_sum(model, field_kinds, count, coincident, seed):
    rng = np.random.default_rng(seed)
    env, k_m, gamma = _model(rng, model, field_kinds)
    positions = np.column_stack([
        rng.uniform(-300.0, 300.0, count),
        rng.uniform(-200.0, 200.0, count),
        rng.uniform(-50.0, 50.0, count),
    ])
    if coincident and count > 1:
        positions[-1] = positions[0]  # a zero-distance off-diagonal pair
    orientations = _unit_vectors(rng, count)
    weights = rng.normal(size=count) + 1j * rng.normal(size=count)
    k_grid = k_m + gamma * np.sort(rng.uniform(-5.0, 5.0, 4))
    src = _hand_built(positions, orientations, weights)

    forms = env.forms(src, k_grid)
    assert forms.shape == k_grid.shape
    for k, got in zip(k_grid, forms):
        expected, scale = _dense_form(env.cdos_matrix(positions, orientations, k), weights)
        assert abs(got - expected) <= 1e-12 * scale


def _grid_shape(rng, layout, size):
    if layout == "square":
        shape = [1, 1, 1]
        for axis in rng.choice(3, size=2, replace=False):
            shape[axis] = size
        return tuple(shape)
    if layout == "cubic":
        return (size, size, size)
    if layout == "1xNx1":
        return (1, size, 1)
    if layout == "Nx1x1":
        return (size, 1, 1)
    if layout == "3d":
        return (min(size, 4), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    if layout == "Nx1xM":
        return (size, 1, int(rng.integers(2, 7)))
    shape = [1, 1, 1]
    first, second = rng.choice(3, size=2, replace=False)
    shape[first], shape[second] = size, int(rng.integers(2, 7))
    return tuple(shape)


def _sampled(rng, layout, size, drop, aligned=False):
    """A sampled source with random complex weights and orientations and dropped cells."""
    shape = _grid_shape(rng, layout, size)
    if layout in ("square", "cubic"):
        # one step on every axis of cells, exact in binary: a separation the
        # lattice repeats by symmetry is the same float each time
        lo = rng.integers(-100, 100, 3).astype(float)
        step = rng.integers(1, 120) / 4.0
        extent = [n * step if n > 1 else 0.0 for n in shape]
    else:
        lo = rng.uniform(-100.0, 100.0, 3)
        # a one-cell axis is flat or has an extent; an axis with more cells always has one
        extent = [rng.uniform(5.0, 300.0) if n > 1 or rng.random() < 0.5 else 0.0
                  for n in shape]
    grid = SamplingGrid(tuple(lo), tuple(lo + extent), shape)
    centers = [(p.x, p.y, p.z) for p in grid.centers()]
    weights = rng.normal(size=len(centers)) + 1j * rng.normal(size=len(centers))
    weights[rng.random(len(centers)) < drop] = 0.0
    weights[rng.integers(len(centers))] = 1.0 + 0.5j  # one cell always stays
    cells = dict(zip(centers, zip(weights, _unit_vectors(rng, len(centers), aligned))))
    return sampled_source(lambda p: cells[(p.x, p.y, p.z)][0],
                          lambda p: Orientation(*cells[(p.x, p.y, p.z)][1]), grid)


def _orientation(rng, aligned=False):
    return Orientation(*_unit_vectors(rng, 1, aligned)[0])


def _random_point(rng, aligned=False):
    return PolarizedPoint(Position(*rng.uniform(-300.0, 300.0, 3)), _orientation(rng, aligned))


def _across_and_along(rng, axis, count):
    """Unit vectors with a part along ``axis`` and a part across it, neither below 0.2."""
    across = rng.normal(size=(count, 3))
    across -= np.outer(across @ axis, axis)
    across /= np.linalg.norm(across, axis=1)[:, None]
    angle = rng.uniform(0.2, 1.37, count) * rng.choice([-1.0, 1.0], count)
    return np.cos(angle)[:, None] * axis + np.sin(angle)[:, None] * across


def _off_axis_source(rng, layout, size):
    """A pair or line whose step lies along y or z, on lattice axis 0, with complex
    weights and orientations both along and across the step."""
    axis = np.eye(3)[rng.choice([1, 2])] * rng.choice([-1.0, 1.0])
    count = 2 if layout == "axis-pair" else size
    orientations = _across_and_along(rng, axis, count)
    if layout == "axis-pair":
        a = Position(*rng.uniform(-300.0, 300.0, 3))
        b = Position(*(a.as_array() + rng.uniform(5.0, 400.0) * axis))
        return pair_source(*(PolarizedPoint(p, Orientation(*u)) for p, u in
                             zip((a, b), orientations)),
                           rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi))
    line = line_source(Position(*rng.uniform(-50.0, 50.0, 3)), Orientation(*axis),
                       Orientation(*orientations[0]), rng.uniform(0.0, 400.0), count)
    weights = rng.normal(size=len(line)) + 1j * rng.normal(size=len(line))
    # the line's lattice with per-element orientations and complex weights
    return _source(line.positions_array(), orientations[:len(line)], weights, line.reference,
                   line._lattice)


def _rotated_lattice(rng, size, drop, aligned=False):
    """A 2-D or 3-D lattice whose steps are turned by a random rotation, with random
    complex weights and orientations and dropped cells: its steps reach all three
    coordinate axes."""
    shape = _grid_shape(rng, rng.choice(["2d", "3d"]), size)
    cells = np.argwhere(np.ones(shape, dtype=bool))
    cells = cells[(rng.random(len(cells)) >= drop) | (np.arange(len(cells)) == 0)]
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    rotation *= np.sign(np.linalg.det(rotation))  # proper: det +1
    steps = np.diag(rng.uniform(5.0, 60.0, 3)) @ rotation.T
    weights = rng.normal(size=len(cells)) + 1j * rng.normal(size=len(cells))
    return _source(rng.uniform(-100.0, 100.0, 3) + cells @ steps,
                   _unit_vectors(rng, len(cells), aligned), weights, Position(0.0, 0.0, 0.0),
                   (steps, cells))


def _lattice_source(rng, layout, size, drop, aligned=False):
    if layout in ("axis-pair", "axis-line"):
        return _off_axis_source(rng, layout, size)
    if layout == "rotated":
        return _rotated_lattice(rng, size, drop, aligned)
    if layout == "line":
        # along a random, generally non-axis, direction
        return line_source(Position(*rng.uniform(-50.0, 50.0, 3)), _orientation(rng),
                           _orientation(rng, aligned), rng.uniform(0.0, 400.0), size,
                           rng.uniform(0.5, 2.0))
    if layout == "pair":
        a = _random_point(rng, aligned)
        b = _random_point(rng, aligned) if rng.random() < 0.8 else PolarizedPoint(
            a.position, _orientation(rng, aligned))  # coincident pair
        return pair_source(a, b, rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi))
    if layout == "point":
        return point_source(_random_point(rng, aligned), complex(*rng.normal(size=2)))
    return _sampled(rng, layout, size, drop, aligned)


def _assert_lattice_forms_match_dense_double_sum(src, env, k_grid):
    positions, orientations, weights = (src.positions_array(), src.orientations_array(),
                                        src.weights_array())
    assert src._lattice is not None

    forms = env.forms(src, k_grid)
    lags = _lag_terms(*src._lattice, orientations, weights)
    for k, got in zip(k_grid, forms):
        expected, scale = _dense_form(env.cdos_matrix(positions, orientations, k), weights)
        assert abs(got - expected) <= 1e-12 * scale
        assert abs(_pair_values(env.n, k, *lags).sum() - expected) <= 1e-12 * scale


@given(
    layout=st.sampled_from(["1xNx1", "Nx1x1", "Nx1xM", "2d", "3d", "line", "pair", "point",
                            "axis-pair", "axis-line", "rotated"]),
    size=st.integers(min_value=1, max_value=9),
    drop=st.floats(min_value=0.0, max_value=0.6),
    aligned=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lattice_forms_match_dense_double_sum(layout, size, drop, aligned, seed):
    rng = np.random.default_rng(seed)
    src = _lattice_source(rng, layout, size, drop, aligned)
    env = HomogeneousGreens(rng.uniform(1.0, 3.5))
    # n*k*r from below the series switch up to a few tens
    _assert_lattice_forms_match_dense_double_sum(src, env, np.sort(rng.uniform(0.001, 0.03, 3)))


@pytest.mark.parametrize("count", [40, 100])  # 2n - 1 = 79 and 199 are primes
@pytest.mark.parametrize("aligned", [False, True])
def test_lattice_forms_at_prime_lag_extents(count, aligned):
    rng = np.random.default_rng(count + aligned)
    env = HomogeneousGreens(rng.uniform(1.0, 3.5))
    k_grid = np.sort(rng.uniform(0.001, 0.03, 3))
    line = line_source(Position(*rng.uniform(-50.0, 50.0, 3)), _orientation(rng),
                       _orientation(rng, aligned), rng.uniform(100.0, 1000.0), count)
    _assert_lattice_forms_match_dense_double_sum(line, env, k_grid)
    cells = _sampled(rng, "1xNx1", count, 0.0, aligned)  # no dropped cell: n stays count
    _assert_lattice_forms_match_dense_double_sum(cells, env, k_grid)


@given(
    layout=st.sampled_from(["square", "cubic"]),
    size=st.integers(min_value=2, max_value=9),
    drop=st.floats(min_value=0.0, max_value=0.6),
    aligned=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_merged_separations_match_dense_double_sum(layout, size, drop, aligned, seed):
    # equal steps: lags related by the lattice's symmetries, not only L and -L, share one term
    rng = np.random.default_rng(seed)
    src = _sampled(rng, layout, min(size, 4) if layout == "cubic" else size, drop, aligned)
    env = HomogeneousGreens(rng.uniform(1.0, 3.5))
    _assert_lattice_forms_match_dense_double_sum(src, env, np.sort(rng.uniform(0.001, 0.03, 3)))


def _distinct_squares(shape, units):
    """The distinct sums ``sum_a (units_a i_a)**2`` over the lags ``0 <= i_a < shape_a``,
    in Python integers."""
    squares = {0}
    for n, unit in zip(shape, units):
        squares = {s + (unit * i) ** 2 for s in squares for i in range(n)}
    return sorted(squares)


@pytest.mark.parametrize("shape, steps", [
    ((40, 40, 1), (8.0, 8.0, 0.0)),
    ((1, 23, 1), (0.0, 8.0, 0.0)),
    ((12, 1, 7), (8.0, 0.0, 4.0)),
    ((5, 4, 6), (8.0, 8.0, 16.0)),
])
def test_lag_terms_are_the_distinct_separations(shape, steps):
    # steps that are powers of two make every r**2 exact: (r / 4)**2 is an integer
    grid = SamplingGrid((0.0, 0.0, 0.0), tuple(n * step for n, step in zip(shape, steps)), shape)
    src = sampled_source(lambda p: 1.0, lambda p: Orientation.from_vector(1.0, 0.5, 0.2), grid)
    r, alpha, beta = _lag_terms(*src._lattice, src.orientations_array(), src.weights_array())
    assert np.all(np.diff(r) > 0.0)
    expected = _distinct_squares(shape, [int(step) // 4 for step in steps])
    assert np.rint((r / 4.0) ** 2).astype(int).tolist() == expected
    assert r.shape == alpha.shape == beta.shape
    if shape == (40, 40, 1):
        assert r.size == 653


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                  (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
@pytest.mark.parametrize("step", [8.0, 49.0])  # 49 * (1 / 49) is not 1 in doubles
def test_lag_terms_of_a_line_are_its_separations(axis, step):
    # 37 elements step nm apart: one term at each L * step, L = 0..36, exact along every axis
    line = line_source(Position(0.0, 0.0, 0.0), Orientation(*axis),
                       Orientation(0.0, 1.0, 0.0), 36 * step, 37)
    r, _, _ = _lag_terms(*line._lattice, line.orientations_array(), line.weights_array())
    assert r.tolist() == [step * lag for lag in range(37)]


def test_fast_length_is_the_next_2_3_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(13) for b in range(8) for c in range(6))
    for m in range(1, 2001):
        assert _fast_length(m) == smooth[bisect.bisect_left(smooth, m)], m


#: The transforms of ``np.fft``; the helpers ``*freq`` and ``*shift`` transform nothing.
_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2",
               "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _lag_transforms(src):
    """The transforms ``_lag_terms`` makes through ``np.fft`` for a source, by length.

    ``_lag_terms`` keeps its components, then its correlations, as rows along
    the leading axis.  It transforms the components axis by axis with
    ``np.fft.fft``, which together make one forward transform per component,
    and all correlations at once with ``np.fft.rfftn``.  Returns
    ``{"forward": [lengths] per component, "inverse": [lengths] per
    correlation}``, with the lengths in axis order, and each other transform
    under its own name.  The lengths are read from the arguments, since
    ``rfftn`` halves its output's last axis.
    """
    calls = []

    def counting(*args, _name, _fft, **kwargs):
        bound = inspect.signature(_fft).bind(*args, **kwargs)
        bound.apply_defaults()
        a, arguments = np.asarray(bound.arguments["a"]), bound.arguments
        if "axis" in arguments:
            axes, lengths = [arguments["axis"]], [arguments["n"]]
        else:
            lengths = arguments["s"]
            axes = arguments["axes"] or range(-len(lengths or a.shape), 0)
            lengths = lengths or [None] * len(axes)
        axes = [axis % a.ndim for axis in axes]
        calls.append((_name, {axis: length or a.shape[axis]
                              for axis, length in zip(axes, lengths)}, a.shape[0]))
        return _fft(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for name in _TRANSFORMS:
            patch.setattr(np.fft, name, functools.partial(counting, _name=name,
                                                          _fft=getattr(np.fft, name)))
        _lag_terms(*src._lattice, src.orientations_array(), src.weights_array())
    counts = {"forward": [], "inverse": []}
    forward, rows = {}, 0
    for name, lengths, count in calls:
        if name == "fft":
            forward.update(lengths)
            rows = count
        elif name == "rfftn":
            counts["inverse"] += [tuple(lengths[axis] for axis in sorted(lengths))] * count
        else:
            counts.setdefault(name, []).append(lengths)
    counts["forward"] = [tuple(forward[axis] for axis in sorted(forward))] * rows
    return counts


@pytest.mark.parametrize("axis, polarization, forward, inverse", [
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1, 1),
    ((1.0, 0.0, 0.0), (0.6, 0.0, 0.8), 2, 2),
    ((1.0, 0.0, 0.0), (0.36, 0.48, 0.8), 3, 2),
    # a line in the xy plane: xx, xy and yy along it, and the power of z across it
    ((1.0, 1.0, 0.0), (0.36, 0.48, 0.8), 3, 4),
    # a line off every coordinate plane reaches all three axes: 6 pairs, none across
    ((1.0, 1.0, 1.0), (0.36, -0.48, 0.8), 3, 6),
])
def test_lag_terms_transform_only_live_components(axis, polarization, forward, inverse):
    # 40 cells pad 79 lags to 80: an inverse correlation per pair of live components
    # on the coordinate axes the line reaches, plus one for the summed power of the rest
    line = line_source(Position(0.0, 0.0, 0.0), Orientation.from_vector(*axis),
                       Orientation.from_vector(*polarization), 300.0, 40)
    assert _lag_transforms(line) == {"forward": [(80,)] * forward,
                                     "inverse": [(80,)] * inverse}


def test_lag_terms_of_a_tilted_slab_take_four_correlations():
    # xx, xy and yy in the plane, and z across it: 3 forward transforms, 4 correlations
    grid = SamplingGrid((-200.0, -200.0, 0.0), (200.0, 200.0, 0.0), (40, 40, 1))
    slab = sampled_source(lambda r: cmath.exp(0.01j * (r.x + 2.0 * r.y)),
                          lambda r: Orientation.from_vector(1.0, r.x / 400.0, 0.3), grid)
    assert _lag_transforms(slab) == {"forward": [(80, 80)] * 3, "inverse": [(80, 80)] * 4}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the page reuse follows glibc's trim threshold")
def test_repeated_lattice_forms_reuse_their_memory():
    # the spectra, X and the inverse transform share one buffer: after the first
    # calls have sized the heap, a call maps no fresh page, where separate buffers
    # made about 150 page faults per call on this slab
    grid = SamplingGrid((-200.0, -200.0, 0.0), (200.0, 200.0, 0.0), (40, 40, 1))
    slab = sampled_source(lambda r: cmath.exp(0.01j * (r.x + 2.0 * r.y)),
                          lambda r: Orientation.from_vector(1.0, r.x / 400.0, 0.3), grid)
    env, k_grid = HomogeneousGreens(1.0), np.linspace(0.004, 0.006, 4)
    kept, faults = [], []
    for _ in range(30):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        kept.append(env.forms(slab, k_grid))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert statistics.median(faults[5:]) <= 2, faults
    assert all(value.tobytes() == kept[0].tobytes() for value in kept)


def test_lag_terms_skip_one_cell_axes():
    # cells (6, 1, 5): lags 11 -> 12 along x and 9 along z; y is not transformed
    grid = SamplingGrid((0.0, 0.0, 0.0), (60.0, 10.0, 50.0), (6, 1, 5))
    slab = sampled_source(lambda r: 1.0, lambda r: Orientation(0.0, 0.0, 1.0), grid)
    assert _lag_transforms(slab) == {"forward": [(12, 9)], "inverse": [(12, 9)]}


def test_lag_terms_of_one_cell_transform_one_axis_of_length_1():
    # a point is a lattice of one cell: the general path, at length 1
    point = point_source(PolarizedPoint(Position(5.0, -3.0, 2.0), Orientation(0.0, 0.0, 1.0)),
                         0.3 - 1.2j)
    assert _lag_transforms(point) == {"forward": [(1,)], "inverse": [(1,)]}


@pytest.mark.parametrize("make", [
    lambda a, b: point_source(a, 0.7 + 0.2j),
    lambda a, b: pair_source(a, b, 1.3, 0.4),
    lambda a, b: line_source(a.position, Orientation(0.6, 0.0, 0.8), a.orientation, 250.0, 2),
], ids=["point", "pair", "two-element line"])
def test_sources_with_no_fewer_lags_than_pairs_take_pair_terms(make):
    rng = np.random.default_rng(17)
    src = make(_random_point(rng), _random_point(rng))
    env = HomogeneousGreens(1.5)
    k_grid = np.sort(rng.uniform(0.001, 0.03, 4))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in _TRANSFORMS:
            patch.setattr(np.fft, name, lambda *args, _name=name, **kwargs: calls.append(_name))
        env.forms(src, k_grid)
    assert calls == []
    _assert_lattice_forms_match_dense_double_sum(src, env, k_grid)


@pytest.mark.parametrize("model", ["homogeneous", "modes", "qnm", "composite"])
@pytest.mark.parametrize("k_grid", [0.005, [[0.004, 0.005]], []], ids=["scalar", "2-D", "empty"])
def test_forms_take_a_non_empty_1d_grid(model, k_grid):
    env, _, _ = _model(np.random.default_rng(3), model, ("surrogate", "grid"))
    line = line_source(Position(0.0, 0.0, 0.0), Orientation(1.0, 0.0, 0.0),
                       Orientation(0.0, 1.0, 0.0), 200.0, 5)
    with pytest.raises(InvalidArgumentError, match="k grid must be a non-empty 1D array"):
        env.forms(line, k_grid)


def test_homogeneous_forms_memory_on_a_40x40_slab():
    # 1600 elements: the pair path holds 1.28 M pairs, the lag path 653 separations
    grid = SamplingGrid((-200.0, -200.0, 0.0), (200.0, 200.0, 0.0), (40, 40, 1))
    src = sampled_source(lambda r: (1.0 + 0.3j) * cmath.exp(0.01j * (r.x + 2.0 * r.y)),
                         lambda r: Orientation.from_vector(1.0, r.x / 400.0, 0.3), grid)
    tracemalloc.start()
    try:
        HomogeneousGreens(1.0).forms(src, np.linspace(0.004, 0.006, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_homogeneous_forms_memory_on_a_100x100_slab():
    # 10,000 elements: the lag path pads 199 x 199 lags to 200 x 200, 3,664 separations
    grid = SamplingGrid((-500.0, -500.0, 0.0), (500.0, 500.0, 0.0), (100, 100, 1))
    src = sampled_source(lambda r: (1.0 + 0.3j) * cmath.exp(0.01j * (r.x + 2.0 * r.y)),
                         lambda r: Orientation.from_vector(1.0, r.x / 1000.0, 0.3), grid)
    tracemalloc.start()
    try:
        HomogeneousGreens(1.0).forms(src, np.linspace(0.004, 0.006, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@given(
    model=st.sampled_from(["homogeneous", "modes", "qnm", "composite"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_two_point_cdos_is_the_cdos_matrix_entry(model, seed):
    rng = np.random.default_rng(seed)
    env, k_m, gamma = _model(rng, model, ("surrogate", "grid"))
    positions = np.column_stack([rng.uniform(-300.0, 300.0, 2), rng.uniform(-200.0, 200.0, 2),
                                 rng.uniform(-50.0, 50.0, 2)])
    orientations = rng.normal(size=(2, 3))
    orientations /= np.linalg.norm(orientations, axis=1)[:, None]
    a, b = (PolarizedPoint(Position(*p), Orientation(*u)) for p, u in zip(positions, orientations))
    k = k_m + gamma * rng.uniform(-5.0, 5.0)

    assert cdos is cdos_modal is cdos_qnm is type(env).cdos
    expected = env.cdos_matrix(positions, orientations, k)[0, 1]
    assert env.cdos(a, b, k) == cdos(env, a, b, k) == expected


def _peak_bytes(call):
    """The ``tracemalloc`` peak of one call."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_cdos_matrix_memory_at_2000_points():
    # the result takes 30.5 MiB; the whole triangle of 2.0 M pairs, with its
    # index and geometry arrays, would take about 260 MiB
    rng = np.random.default_rng(8)
    positions = rng.uniform(-300.0, 300.0, (2000, 3))
    orientations = _unit_vectors(rng, 2000)
    env = HomogeneousGreens(1.0)
    assert _peak_bytes(lambda: env.cdos_matrix(positions, orientations, 0.005)) < 40 * 2**20


def _random_hand_built(rng, count):
    positions = rng.uniform(-300.0, 300.0, (count, 3))
    orientations = _unit_vectors(rng, count)
    weights = rng.normal(size=count) + 1j * rng.normal(size=count)
    return _hand_built(positions, orientations, weights)


def test_blocks_cannot_be_seen_in_the_forms():
    # 150 elements: as many terms, which do not divide _BLOCK, so a block holds 54 k
    line = line_source(Position(10.0, -5.0, 3.0), Orientation.from_vector(1.0, 0.2, 0.1),
                       Orientation.from_vector(0.3, 1.0, -0.4), 420.0, 150, 1.3)
    lags = _lag_terms(*line._lattice, line.orientations_array(), line.weights_array())
    terms = lags[0].size
    assert _BLOCK % terms != 0
    env = HomogeneousGreens(1.6)
    rows = _BLOCK // terms
    # four blocks each, the last partial.  On the second grid the first block puts
    # more terms than r = 0 below TAYLOR_SWITCH, at first all of them, and the last
    # block r = 0 alone, so the series overwrites different entries from block to block
    grids = (np.linspace(0.002, 0.03, 3 * rows + 5), np.geomspace(1e-4, 0.1, 3 * rows + 5))
    below = (env.n * grids[1][:, None] * lags[0] < TAYLOR_SWITCH).sum(axis=1)
    assert below[0] == terms and (below[:rows] > 1).all() and (below[3 * rows:] == 1).all()
    for ks in grids:
        full = env.forms(line, ks)
        single = np.array([env.forms(line, [k])[0] for k in ks])
        assert full.tobytes() == single.tobytes()
        assert full[2::5].tobytes() == env.forms(line, ks[2::5]).tobytes()
        assert full[:1].tobytes() == env.forms(line, ks[:1]).tobytes()
        # the fresh arrays of a one-k evaluation, with no workspace to carry values over
        fresh = np.array([_pair_values(env.n, k, *lags).sum() for k in ks])
        assert full.tobytes() == fresh.tobytes()


def test_pair_path_beyond_one_block_matches_dense_sum():
    # 130 elements: 8,515 pairs, two chunks of the triangle
    rng = np.random.default_rng(130)
    src = _random_hand_built(rng, 130)
    assert src._lattice is None and 130 * 131 // 2 > _BLOCK
    positions, orientations, weights = (src.positions_array(), src.orientations_array(),
                                        src.weights_array())
    env = HomogeneousGreens(1.4)
    k_grid = np.sort(rng.uniform(0.001, 0.03, 5))
    full = env.forms(src, k_grid)
    for k, got in zip(k_grid, full):
        terms = weights.conjugate()[:, None] * weights * env.cdos_matrix(positions, orientations,
                                                                          k)
        assert abs(got - terms.real.sum()) <= 1e-12 * np.abs(terms).sum()
    # the chunks' blocks differ in size, 8,192 x 1 and 323 x 5, in one workspace
    assert full.tobytes() == np.concatenate([env.forms(src, [k]) for k in k_grid]).tobytes()


def test_lag_path_beyond_one_block_matches_one_sum():
    # 8,400 elements: 8,400 distinct separations, sliced into two chunks
    line = line_source(Position(0.0, 0.0, 0.0), Orientation.from_vector(1.0, 0.5, 0.0),
                       Orientation.from_vector(0.2, 1.0, 0.7), 12000.0, 8400, 1.0)
    lags = _lag_terms(*line._lattice, line.orientations_array(), line.weights_array())
    assert lags[0].size > _BLOCK
    env = HomogeneousGreens(1.2)
    k_grid = np.linspace(0.001, 0.02, 3)
    full = env.forms(line, k_grid)
    for k, got in zip(k_grid, full):
        values = _pair_values(env.n, k, *lags)
        assert abs(got - values.sum()) <= 1e-12 * np.abs(values).sum()
    # the chunks' blocks differ in size, 8,192 x 1 and 208 x 3, in one workspace
    assert full.tobytes() == np.concatenate([env.forms(line, [k]) for k in k_grid]).tobytes()


def test_pair_path_memory_at_2000_elements():
    # the whole triangle would be 2,001,000 pairs, 16 MB in each float64 array
    src = _random_hand_built(np.random.default_rng(2000), 2000)
    k_grid = np.linspace(0.004, 0.006, 5)
    assert _peak_bytes(lambda: HomogeneousGreens(1.0).forms(src, k_grid)) < 16 * 2**20


def test_forms_memory_does_not_grow_with_the_grid():
    line = line_source(Position(0.0, 0.0, 0.0), Orientation(1.0, 0.0, 0.0),
                       Orientation(0.0, 1.0, 0.0), 300.0, 200, 1.0)
    env = HomogeneousGreens(1.0)
    coarse, fine = np.linspace(0.004, 0.006, 201), np.linspace(0.004, 0.006, 20_001)
    # at K = 20,001 the (K,) arrays of sums take 160 kB each; one (K, lags) block, 64 MB
    assert _peak_bytes(lambda: env.forms(line, fine)) - \
        _peak_bytes(lambda: env.forms(line, coarse)) < 2**20


def _coherence_oracle(env, src, k):
    """Coherent and diagonal sums of ``conj(w_i) w_j rho_ij`` over the dense CDOS matrix."""
    w = src.weights_array()
    rho = env.cdos_matrix(src.positions_array(), src.orientations_array(), k)
    terms = w.conjugate()[:, None] * w * rho
    return terms.real.sum(), np.abs(terms).sum(), float(np.sum((w.conjugate() * w).real
                                                                * np.diag(rho)))


@given(
    model=st.sampled_from(["homogeneous", "modes", "qnm", "composite"]),
    field_kinds=st.sampled_from([("surrogate", "surrogate"), ("grid", "surrogate"),
                                 ("grid", "grid")]),
    count=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coherence_classification_matches_dense_sums(model, field_kinds, count, seed):
    rng = np.random.default_rng(seed)
    env, k_m, gamma = _model(rng, model, field_kinds)
    positions = np.column_stack([rng.uniform(-300.0, 300.0, count),
                                 rng.uniform(-200.0, 200.0, count),
                                 rng.uniform(-50.0, 50.0, count)])
    src = _hand_built(positions, _unit_vectors(rng, count),
                      rng.normal(size=count) + 1j * rng.normal(size=count))
    k = k_m + gamma * rng.uniform(-5.0, 5.0)
    coherent, scale, incoherent = _coherence_oracle(env, src, k)
    if not incoherent >= 1e-300:  # a two-QNM diagonal can be negative
        with pytest.raises(DegenerateReferenceError, match="incoherent rate"):
            coherence_classification(src, env, k)
        return
    got = coherence_classification(src, env, k)
    # the per-element LDOS agrees with the matrix diagonal to rounding, not bitwise
    assert abs(got - coherent / incoherent) <= \
        1e-12 * scale / incoherent * (1.0 + abs(coherent) / incoherent)
