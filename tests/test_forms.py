"""Each model's ``forms`` against a dense double loop over its ``cdos_matrix``.

``forms(src, k_grid)`` returns ``w^H rho(k) w`` for every k of the grid
without building the M x M kernel; the oracle here sums
``conj(w_i) w_j rho_ij`` entry by entry.  The tolerance is relative to
``sum_ij |conj(w_i) w_j rho_ij|``, which stays meaningful where the
structured sum nearly cancels.

Sources built by hand take the homogeneous pair path; sources from the
builders sit on a lattice and take the lag path, which is checked both
through ``forms`` and directly.
"""

import cmath
import tracemalloc

import numpy as np
from hypothesis import given, strategies as st

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    CompositeGreens,
    DipoleElement,
    ExtendedSource,
    GridField,
    HomogeneousGreens,
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
    line_source,
    pair_source,
    point_source,
    sampled_source,
)
from purcellx.homogeneous import _lag_terms, _pair_values

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
    gammas = k_m / rng.uniform(100.0, 2000.0, size=2)
    if model == "modes":
        modes = [LossyMode(_field(rng, kind), k_m * (1.0 + 0.01 * j), gammas[j])
                 for j, kind in enumerate(field_kinds)]
        return ModeSet(tuple(modes)), k_m, gammas[0]
    qnms = [Qnm(_field(rng, kind), k_m * (1.0 + 0.005 * j), gammas[j])
            for j, kind in enumerate(field_kinds)]
    return QnmPair(*qnms), k_m, gammas[0]


def _unit_vectors(rng, count):
    u = rng.normal(size=(count, 3))
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
    model=st.sampled_from(["homogeneous", "modes", "qnm"]),
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
    if layout == "1xNx1":
        return (1, size, 1)
    if layout == "Nx1x1":
        return (size, 1, 1)
    if layout == "3d":
        return (min(size, 4), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    shape = [1, 1, 1]
    first, second = rng.choice(3, size=2, replace=False)
    shape[first], shape[second] = size, int(rng.integers(2, 7))
    return tuple(shape)


def _sampled(rng, layout, size, drop):
    """A sampled source with random complex weights and orientations and dropped cells."""
    shape = _grid_shape(rng, layout, size)
    lo = rng.uniform(-100.0, 100.0, 3)
    # a one-cell axis is flat or has an extent; an axis with more cells always has one
    extent = [rng.uniform(5.0, 300.0) if n > 1 or rng.random() < 0.5 else 0.0 for n in shape]
    grid = SamplingGrid(tuple(lo), tuple(lo + extent), shape)
    centers = [(p.x, p.y, p.z) for p in grid.centers()]
    weights = rng.normal(size=len(centers)) + 1j * rng.normal(size=len(centers))
    weights[rng.random(len(centers)) < drop] = 0.0
    weights[rng.integers(len(centers))] = 1.0 + 0.5j  # one cell always stays
    cells = dict(zip(centers, zip(weights, _unit_vectors(rng, len(centers)))))
    return sampled_source(lambda p: cells[(p.x, p.y, p.z)][0],
                          lambda p: Orientation(*cells[(p.x, p.y, p.z)][1]), grid)


def _orientation(rng):
    return Orientation(*_unit_vectors(rng, 1)[0])


def _random_point(rng):
    return PolarizedPoint(Position(*rng.uniform(-300.0, 300.0, 3)), _orientation(rng))


def _lattice_source(rng, layout, size, drop):
    if layout == "line":
        # along a random, generally non-axis, direction
        return line_source(Position(*rng.uniform(-50.0, 50.0, 3)), _orientation(rng),
                           _orientation(rng), rng.uniform(0.0, 400.0), size,
                           rng.uniform(0.5, 2.0))
    if layout == "pair":
        a = _random_point(rng)
        b = _random_point(rng) if rng.random() < 0.8 else PolarizedPoint(
            a.position, _orientation(rng))  # coincident pair
        return pair_source(a, b, rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi))
    if layout == "point":
        return point_source(_random_point(rng), complex(*rng.normal(size=2)))
    return _sampled(rng, layout, size, drop)


@given(
    layout=st.sampled_from(["1xNx1", "Nx1x1", "2d", "3d", "line", "pair", "point"]),
    size=st.integers(min_value=1, max_value=9),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lattice_forms_match_dense_double_sum(layout, size, drop, seed):
    rng = np.random.default_rng(seed)
    src = _lattice_source(rng, layout, size, drop)
    env = HomogeneousGreens(rng.uniform(1.0, 3.5))
    # n*k*r from below the series switch up to a few tens
    k_grid = np.sort(rng.uniform(0.001, 0.03, 3))
    positions, orientations, weights = (src.positions_array(), src.orientations_array(),
                                        src.weights_array())
    assert src._lattice is not None

    forms = env.forms(src, k_grid)
    lags = _lag_terms(*src._lattice, orientations, weights)
    for k, got in zip(k_grid, forms):
        expected, scale = _dense_form(env.cdos_matrix(positions, orientations, k), weights)
        assert abs(got - expected) <= 1e-12 * scale
        assert abs(_pair_values(env.n, k, *lags).sum() - expected) <= 1e-12 * scale


def test_homogeneous_forms_memory_on_a_40x40_slab():
    # 1600 elements: the pair path holds 1.28 M pairs, the lag path 79 x 79 lags
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


@given(
    model=st.sampled_from(["homogeneous", "modes", "qnm", "composite"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_two_point_cdos_is_the_cdos_matrix_entry(model, seed):
    rng = np.random.default_rng(seed)
    if model == "composite":
        structured, k_m, gamma = _model(rng, "modes", ("surrogate", "grid"))
        env = CompositeGreens(HomogeneousGreens(rng.uniform(1.0, 3.5)), structured)
    else:
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
