"""Each model's ``forms`` against a dense double loop over its ``cdos_matrix``.

``forms(positions, orientations, weights, k_grid)`` returns ``w^H rho(k) w``
for every k of the grid without building the M x M kernel; the oracle here
sums ``conj(w_i) w_j rho_ij`` entry by entry.  The tolerance is relative to
``sum_ij |conj(w_i) w_j rho_ij|``, which stays meaningful where the
structured sum nearly cancels.
"""

import numpy as np
from hypothesis import given, strategies as st

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    CompositeGreens,
    GridField,
    HomogeneousGreens,
    LossyMode,
    ModeSet,
    Orientation,
    PolarizedPoint,
    Position,
    Qnm,
    QnmPair,
    cdos,
    cdos_modal,
    cdos_qnm,
)

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
    orientations = rng.normal(size=(count, 3))
    orientations /= np.linalg.norm(orientations, axis=1)[:, None]
    weights = rng.normal(size=count) + 1j * rng.normal(size=count)
    k_grid = k_m + gamma * np.sort(rng.uniform(-5.0, 5.0, 4))

    forms = env.forms(positions, orientations, weights, k_grid)
    assert forms.shape == k_grid.shape
    for k, got in zip(k_grid, forms):
        expected, scale = _dense_form(env.cdos_matrix(positions, orientations, k), weights)
        assert abs(got - expected) <= 1e-12 * scale


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
