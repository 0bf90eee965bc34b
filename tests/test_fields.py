import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    GridField,
    GridFileError,
    InvalidArgumentError,
    Orientation,
    OutOfDomainError,
    Position,
    load_grid_field,
    projected_field,
    save_grid_field,
)
from purcellx.fields import projected_field_many

Y = Orientation(0.0, 1.0, 0.0)

PARAMS = AnalyticSurrogateParams(
    sign_change_half_width=160.0,
    sigma_x=400.0,
    sigma_y=120.0,
    polarization=Y,
    amplitude=2.0 + 0.0j,
)


def test_surrogate_peak_at_origin():
    field = AnalyticSurrogate(PARAMS)
    e = field.field_at(Position(0.0, 0.0, 0.0))
    assert np.allclose(e, [0.0, 2.0, 0.0])


def test_surrogate_zero_at_sign_change():
    field = AnalyticSurrogate(PARAMS)
    e = field.field_at(Position(160.0, 0.0, 0.0))
    assert np.allclose(e, 0.0, atol=1e-15)


def test_surrogate_sign_flip_in_side_lobe():
    field = AnalyticSurrogate(PARAMS)
    center = projected_field(field, Position(0.0, 0.0, 0.0), Y)
    lobe = projected_field(field, Position(320.0, 0.0, 0.0), Y)
    assert center.real > 0.0 > lobe.real


def test_surrogate_ignores_z():
    field = AnalyticSurrogate(PARAMS)
    assert np.array_equal(
        field.field_at(Position(40.0, 10.0, 0.0)),
        field.field_at(Position(40.0, 10.0, 999.0)),
    )


def test_surrogate_params_validated():
    with pytest.raises(InvalidArgumentError):
        AnalyticSurrogateParams(0.0, 400.0, 120.0, Y, 1.0)
    with pytest.raises(InvalidArgumentError):
        AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, complex(math.nan, 0))


def _random_grid(rng, nx=8, ny=8):
    data = rng.normal(size=(nx, ny, 3)) + 1j * rng.normal(size=(nx, ny, 3))
    return GridField(data, origin=(-100.0, -50.0), spacing=(25.0, 12.5))


def test_grid_node_identity():
    rng = np.random.default_rng(1)
    grid = _random_grid(rng)
    for ix, iy in [(0, 0), (3, 5), (7, 7)]:
        r = Position(-100.0 + 25.0 * ix, -50.0 + 12.5 * iy, 0.0)
        assert np.array_equal(grid.field_at(r), grid.data[ix, iy])


def test_bilinear_cell_center_is_corner_average():
    data = np.zeros((2, 2, 3), dtype=complex)
    data[0, 0] = [1.0, 0.0, 0.0]
    data[1, 0] = [2.0, 1.0j, 0.0]
    data[0, 1] = [3.0, 0.0, 4.0]
    data[1, 1] = [4.0, 0.0, 0.0]
    grid = GridField(data, origin=(0.0, 0.0), spacing=(10.0, 10.0))
    center = grid.field_at(Position(5.0, 5.0, 0.0))
    assert np.allclose(center, data.reshape(4, 3).mean(axis=0), rtol=1e-15)


def test_bilinear_hand_computed_point():
    data = np.zeros((2, 2, 3), dtype=complex)
    data[0, 0, 0] = 1.0
    data[1, 0, 0] = 5.0
    data[0, 1, 0] = 9.0
    data[1, 1, 0] = 13.0
    grid = GridField(data, origin=(0.0, 0.0), spacing=(1.0, 1.0))
    # fx=0.25, fy=0.75: (1-fx)(1-fy)*1 + fx(1-fy)*5 + (1-fx)fy*9 + fx*fy*13
    expected = 0.75 * 0.25 * 1.0 + 0.25 * 0.25 * 5.0 + 0.75 * 0.75 * 9.0 + 0.25 * 0.75 * 13.0
    got = grid.field_at(Position(0.25, 0.75, 0.0))
    assert got[0] == pytest.approx(expected, rel=1e-15)


def test_trilinear_center_of_cube():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 3))
    grid = GridField(data, origin=(0.0, 0.0, 0.0), spacing=(2.0, 2.0, 2.0))
    center = grid.field_at(Position(1.0, 1.0, 1.0))
    assert np.allclose(center, data.reshape(8, 3).mean(axis=0), rtol=1e-14)


def test_grid_out_of_bounds_raises():
    rng = np.random.default_rng(3)
    grid = _random_grid(rng)
    with pytest.raises(OutOfDomainError):
        grid.field_at(Position(-100.1, 0.0, 0.0))
    with pytest.raises(OutOfDomainError):
        grid.field_at(Position(0.0, 50.0, 0.0))  # y max is -50 + 7*12.5 = 37.5
    # boundary itself is in-domain
    grid.field_at(Position(75.0, 37.5, 0.0))


def _hand_blend(grid, r):
    """Multilinear blend written out corner by corner, at one point."""
    t = [(r[ax] - grid.origin[ax]) / grid.spacing[ax] for ax in range(grid.ndim)]
    i = [min(int(math.floor(v)), n - 2) for v, n in zip(t, grid.shape)]
    fx, fy = t[0] - i[0], t[1] - i[1]
    d = grid.data
    if grid.ndim == 2:
        x, y = i
        return ((1 - fx) * (1 - fy) * d[x, y] + fx * (1 - fy) * d[x + 1, y]
                + (1 - fx) * fy * d[x, y + 1] + fx * fy * d[x + 1, y + 1])
    x, y, z = i
    fz = t[2] - z
    return ((1 - fz) * ((1 - fx) * (1 - fy) * d[x, y, z] + fx * (1 - fy) * d[x + 1, y, z]
                        + (1 - fx) * fy * d[x, y + 1, z] + fx * fy * d[x + 1, y + 1, z])
            + fz * ((1 - fx) * (1 - fy) * d[x, y, z + 1] + fx * (1 - fy) * d[x + 1, y, z + 1]
                    + (1 - fx) * fy * d[x, y + 1, z + 1] + fx * fy * d[x + 1, y + 1, z + 1]))


@pytest.mark.parametrize("shape", [(5, 4), (3, 4, 5)])
def test_grid_interpolation_matches_hand_blend(shape):
    rng = np.random.default_rng(6)
    ndim = len(shape)
    data = rng.normal(size=shape + (3,)) + 1j * rng.normal(size=shape + (3,))
    origin = (-40.0, 10.0, 5.0)[:ndim]
    spacing = (7.5, 3.0, 12.0)[:ndim]
    grid = GridField(data, origin, spacing)
    upper = [o + (n - 1) * s for o, n, s in zip(origin, shape, spacing)]
    nodes = [tuple(o + i * s for o, i, s in zip(origin, idx, spacing))
             for idx in np.ndindex(*shape)]
    inside = [tuple(rng.uniform(origin[ax], upper[ax]) for ax in range(ndim)) for _ in range(40)]
    edges = [tuple(upper[ax] if ax == edge else rng.uniform(origin[ax], upper[ax])
                   for ax in range(ndim)) for edge in range(ndim)]
    points = nodes + inside + edges + [tuple(upper)]
    positions = np.array([p + (0.0,) * (3 - ndim) for p in points])
    got = grid.fields_at(positions)
    for row, p in zip(got, points):
        assert np.allclose(row, _hand_blend(grid, p), rtol=1e-13, atol=0.0)
    for row, idx in zip(got, np.ndindex(*shape)):
        assert np.array_equal(row, data[idx])  # nodes reproduce the samples exactly
    assert np.array_equal(got[-1], data[tuple(n - 1 for n in shape)])
    # projection is the same blend dotted with each orientation
    u = rng.normal(size=(len(points), 3))
    assert np.allclose(projected_field_many(grid, positions, u),
                       [np.dot(ui, _hand_blend(grid, p)) for ui, p in zip(u, points)],
                       rtol=1e-12, atol=0.0)
    for ax in range(ndim):
        for value in (origin[ax] - 1e-9, upper[ax] + 1e-9):
            bad = positions.copy()
            bad[7, ax] = value
            with pytest.raises(OutOfDomainError, match=f"outside grid axis {ax} range"):
                grid.fields_at(bad)


def test_grid_validation():
    with pytest.raises(InvalidArgumentError):
        GridField(np.zeros((1, 4, 3), dtype=complex), (0, 0), (1, 1))  # <2 per axis
    with pytest.raises(InvalidArgumentError):
        GridField(np.zeros((4, 4, 3), dtype=complex), (0, 0), (1, -1))
    with pytest.raises(InvalidArgumentError, match="must have shape"):
        GridField(np.zeros((3, 3)), (0, 0), (1, 1))
    with pytest.raises(InvalidArgumentError, match="must have 2 entries"):
        GridField(np.zeros((2, 2, 3)), (0,), (1, 1))
    bad = np.zeros((2, 2, 3), dtype=complex)
    bad[0, 0, 0] = math.nan
    with pytest.raises(InvalidArgumentError):
        GridField(bad, (0, 0), (1, 1))


def _bits(data):
    """Bit patterns of complex data: unlike ``==``, tells -0.0 from 0.0."""
    return np.ascontiguousarray(data).view(np.int64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def test_roundtrip_2d(tmp_path):
    rng = np.random.default_rng(4)
    grid = _random_grid(rng)
    path = tmp_path / "mode.field"
    save_grid_field(grid, path)
    back = load_grid_field(path)
    assert _same_bits(back.data, grid.data)
    assert back.origin == grid.origin
    assert back.spacing == grid.spacing


def test_roundtrip_3d(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(3, 4, 2, 3)) + 1j * rng.normal(size=(3, 4, 2, 3))
    grid = GridField(data, origin=(0.0, 1.0, 2.0), spacing=(1.0, 2.0, 3.0))
    path = tmp_path / "mode3.field"
    save_grid_field(grid, path)
    back = load_grid_field(path)
    assert _same_bits(back.data, grid.data)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_roundtrip_random_grids(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(2, 3, 3)) * 10.0 ** float(rng.integers(-8, 8))
    grid = GridField(data.astype(complex), origin=(-1.0, 0.5), spacing=(0.25, 2.0))
    path = tmp_path_factory.mktemp("grids") / "g.field"
    save_grid_field(grid, path)
    assert _same_bits(load_grid_field(path).data, grid.data)


def test_roundtrip_extreme_values(tmp_path):
    reals = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             0.12345678901234568, -9.8765432109876540e-5, -1.7976931348623157e308,
             -5e-324, 0.0, 1.0000000000000002, 3.3333333333333335e100, -2.2250738585072009e-308]
    data = np.array(reals * 2).view(complex).reshape(2, 2, 3)
    grid = GridField(data, origin=(0.0, 0.0), spacing=(1.0, 1.0))
    path = tmp_path / "extreme.field"
    save_grid_field(grid, path)
    back = load_grid_field(path)
    assert _same_bits(back.data, grid.data)


def test_nan_sample_rejected_with_location(tmp_path):
    path = tmp_path / "bad.field"
    lines = [
        "dims 2 2",
        "origin 0.0 0.0",
        "spacing 1.0 1.0",
        "components 3",
        "0 0 0 0 0 0",
        "0 0 nan 0 0 0",
        "0 0 0 0 0 0",
        "0 0 0 0 0 0",
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert err.value.line == 6
    assert "non-finite" in str(err.value)


def test_header_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("dims 2 2\norigin 0 0\nspacing 1 1\ncomponents 2\n")
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert "components" in str(err.value)

    for text, line, message in [
        ("origin 0 0\n", 1, "expected `dims` header"),
        ("dims 2 2\n", 2, "missing `origin` header line"),
        ("dims 2 x\n", 1, "bad `dims` value"),
        ("dims 2\n", 1, "2 or 3 axes"),
        ("dims 2 2\norigin 0 0 0\nspacing 1 1\ncomponents 3\n", 2, "axis count must match"),
    ]:
        path.write_text(text)
        with pytest.raises(GridFileError, match=message) as err:
            load_grid_field(path)
        assert err.value.line == line

    path.write_text("dims 2 2\norigin 0 0\nspacing 1 1\ncomponents 3\n0 0 0 0 0 0\n")
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert "sample lines" in str(err.value)


def test_sample_arity_error(tmp_path):
    path = tmp_path / "bad.field"
    body = ["0 0 0 0 0 0"] * 3 + ["1 2 3"]
    path.write_text(
        "dims 2 2\norigin 0 0\nspacing 1 1\ncomponents 3\n" + "\n".join(body) + "\n"
    )
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert err.value.line == 8


def _grid_header(dims: str) -> str:
    zeros = " ".join("0" for _ in dims.split())
    ones = " ".join("1" for _ in dims.split())
    return f"dims {dims}\norigin {zeros}\nspacing {ones}\ncomponents 3\n"


@pytest.mark.parametrize("dims", ["-2 3", "1 4", "2 2 0"])
def test_impossible_dims_rejected_at_line_1(tmp_path, dims):
    path = tmp_path / "bad.field"
    path.write_text(_grid_header(dims) + "0 0 0 0 0 0\n" * 4)
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert err.value.line == 1
    assert "dims" in str(err.value)


def test_body_longer_than_dims_rejected(tmp_path):
    path = tmp_path / "long.field"
    samples = "0 0 0 0 0 0\n" * 4
    path.write_text(_grid_header("2 2") + samples + "\n1 2 3 4 5 6\n")
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert err.value.line == 10
    assert "sample lines" in str(err.value)
    # trailing blank lines stay allowed
    path.write_text(_grid_header("2 2") + samples + "\n  \n")
    assert load_grid_field(path).shape == (2, 2)


@pytest.mark.parametrize("prefix,line", [(b"\xef\xbb\xbf", 1), (b"", 6)], ids=["bom", "mid-file"])
def test_non_ascii_byte_rejected_at_its_line(tmp_path, prefix, line):
    path = tmp_path / "utf8.field"
    samples = ["0 0 0 0 0 0"] * 4
    if line == 6:
        samples[1] = "0 0 0 0 0 0 µ"
    path.write_bytes(prefix + (_grid_header("2 2") + "\n".join(samples) + "\n").encode("utf-8"))
    with pytest.raises(GridFileError) as err:
        load_grid_field(path)
    assert err.value.line == line
    assert "non-ASCII" in str(err.value)


def _reference_samples(path, lines):
    """The per-line sample loop that parsed grid bodies before the bulk parse."""
    samples = np.empty((len(lines), 3), dtype=complex)
    for row, line in enumerate(lines):
        line_no = 5 + row
        toks = line.split()
        if len(toks) != 6:
            raise GridFileError(path, line_no, f"expected 6 reals per sample, got {len(toks)}")
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise GridFileError(path, line_no, f"bad float: {exc}") from exc
        if any(not math.isfinite(v) for v in vals):
            raise GridFileError(path, line_no, "non-finite sample")
        samples[row] = [complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                        complex(vals[4], vals[5])]
    return samples


def _reference_load(path, dims, lines):
    """Reference outcome of a body: the grid data, or the error's line and message."""
    try:
        samples = _reference_samples(path, lines)
    except GridFileError as exc:
        return exc.line, str(exc)
    data = samples.reshape(tuple(reversed(dims)) + (3,))
    return np.moveaxis(data, range(len(dims)), range(len(dims) - 1, -1, -1))


_GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.sampled_from(["-0.0", "5e-324"]),
)
_ODD_TOKENS = st.sampled_from(["nan", "inf", "1e400", "1_0", "1e", "#"])


def _joined(tokens):
    return st.tuples(tokens, st.sampled_from([" ", "\t"])).map(lambda t: t[1].join(t[0]))


def _good_line(arity):
    return _joined(st.lists(_GOOD_TOKENS, min_size=arity, max_size=arity))


@st.composite
def _one_odd_token(draw):
    tokens = draw(st.lists(_GOOD_TOKENS, min_size=6, max_size=6))
    tokens[draw(st.integers(0, 5))] = draw(_ODD_TOKENS)
    return tokens


_ANY_LINES = st.one_of(
    _joined(_one_odd_token()),
    _joined(st.lists(_GOOD_TOKENS | _ODD_TOKENS, max_size=8)),
    st.just(""),
)


@st.composite
def _grid_bodies(draw):
    """Good lines of one arity (mostly 6), with a few lines overwritten by any line."""
    dims = draw(st.sampled_from([(2, 2), (3, 2), (2, 2, 2)]))
    count = math.prod(dims)
    arity = draw(st.just(6) | st.integers(0, 8))
    lines = draw(st.lists(_good_line(arity), min_size=count, max_size=count))
    for row, line in draw(st.dictionaries(st.integers(0, count - 1), _ANY_LINES,
                                          max_size=3)).items():
        lines[row] = line
    return dims, lines


_ZEROS = "0 0 0 0 0 0"


@settings(max_examples=300, deadline=None)
@given(case=_grid_bodies())
# np.loadtxt parses these three, yet each must still fail at its line
@example(case=((2, 2), [_ZEROS, "0 0 nan 0 0 0", _ZEROS, _ZEROS]))
@example(case=((2, 2), [_ZEROS, "", _ZEROS, _ZEROS]))
@example(case=((2, 2), ["1 2 3 4 5"] * 4))
# only Python's float reads underscore digit groups; the file still loads
@example(case=((2, 2), ["1_0 0 0 0 0 0", _ZEROS, _ZEROS, "0 0 0 0 0 2_5.0"]))
# several bad lines: the first one wins
@example(case=((2, 2), [_ZEROS, "0 0 nan 0 0 0", "1 2 3 4 5", "#"]))
@example(case=((2, 2), [_ZEROS, "1 2 3 4 5", "0 0 nan 0 0 0", "1e 0 0 0 0 0"]))
def test_loader_matches_per_line_reference(tmp_path_factory, case):
    dims, lines = case
    path = tmp_path_factory.mktemp("bodies") / "g.field"
    path.write_text(_grid_header(" ".join(map(str, dims))) + "\n".join(lines) + "\n")
    expected = _reference_load(path, dims, lines)
    try:
        got = load_grid_field(path).data
    except GridFileError as exc:
        got = (exc.line, str(exc))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert _same_bits(got, expected)


def test_all_blank_body_raises_without_a_warning(tmp_path):
    path = tmp_path / "blank.field"
    path.write_text(_grid_header("2 2") + "\n" * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridFileError) as err:
            load_grid_field(path)
    assert err.value.line == 5
    assert "got 0" in str(err.value)
