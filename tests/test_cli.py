import json
import math
import os

import numpy as np
import pytest
import yaml

from purcellx import cli, homogeneous
from purcellx.cli import main

POINT_SPECTRUM = """\
scenario: demo-point
environment:
  kind: composite
  background_n: 1.0
  structured:
    kind: modal
    modes:
      - kind: surrogate_l3
        x0_nm: 160.0
        sigma_x_nm: 400.0
        sigma_y_nm: 120.0
        polarization: [0.0, 1.0, 0.0]
        amplitude: 1.0
        lambda_m_nm: 1270.0
        q: 2000.0
reference:
  kind: homogeneous
  n: 1.0
source:
  kind: point
  position: [0.0, 0.0, 0.0]
  orientation: [0.0, 1.0, 0.0]
  amplitude: 1.0
sweep:
  kind: spectrum
  lambda_nm: {start: 1269.0, stop: 1271.0, count: 41}
"""

LINE_LENGTH = """\
scenario: demo-length
environment:
  kind: composite
  background_n: 3.48
  structured:
    kind: modal
    modes:
      - kind: surrogate_l3
        x0_nm: 160.0
        sigma_x_nm: 400.0
        sigma_y_nm: 120.0
        polarization: [0.0, 1.0, 0.0]
        amplitude: 1.0
        lambda_m_nm: 1270.0
        q: 2000.0
reference:
  kind: homogeneous
  n: 3.48
source:
  kind: line
  center: [0.0, 0.0, 0.0]
  axis: [1.0, 0.0, 0.0]
  polarization: [0.0, 1.0, 0.0]
  elements: auto
  amplitude: 1.0
sweep:
  kind: length
  d_nm: {start: 0.0, stop: 500.0, count: 26}
  lambda_nm: 1270.0
"""


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_spectrum_writes_csv_and_json(tmp_path, capsys):
    cfg = _write(tmp_path, POINT_SPECTRUM)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    csv_path = out / "demo-point_spectrum.csv"
    json_path = out / "demo-point_summary.json"
    assert csv_path.exists() and json_path.exists()

    lines = csv_path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("config_sha256=" in l for l in comments)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "k,lambda_nm,gamma_ratio"
    rows = [l.split(",") for l in lines[header_idx + 1:]]
    assert len(rows) == 41
    ks = [float(r[0]) for r in rows]
    assert ks == sorted(ks)
    for r in rows[:3]:
        assert float(r[1]) == pytest.approx(2.0 * math.pi / float(r[0]), rel=1e-15)

    summary = json.loads(json_path.read_text())
    gammas = [float(r[2]) for r in rows]
    assert summary["scenario"] == "demo-point"
    # JSON round trip reproduces the reported extrema exactly
    assert summary["gamma_ratio_max"] == max(gammas)
    assert summary["gamma_ratio_min"] == min(gammas)
    assert summary["k_or_d_at_extremum"] == ks[int(np.argmax(gammas))]

    out_line = capsys.readouterr().out
    assert "demo-point" in out_line and "max=" in out_line


def test_run_length_csv_columns(tmp_path):
    cfg = _write(tmp_path, LINE_LENGTH)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    lines = (out / "demo-length_length.csv").read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "d_nm,gamma_ratio,extremity_field"
    rows = [l.split(",") for l in lines[header_idx + 1:]]
    assert len(rows) == 26
    # tip field starts positive and turns negative past the mode sign change
    tips = [float(r[2]) for r in rows]
    assert tips[1] > 0.0
    assert tips[-1] < 0.0
    assert not (out / "demo-length_summary.json").exists()


def test_missing_grid_file_is_config_error(tmp_path, capsys):
    bad = POINT_SPECTRUM.replace(
        """      - kind: surrogate_l3
        x0_nm: 160.0
        sigma_x_nm: 400.0
        sigma_y_nm: 120.0
        polarization: [0.0, 1.0, 0.0]
        amplitude: 1.0
""",
        """      - kind: grid
        path: nowhere.field
""",
    )
    cfg = _write(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "environment.structured.modes[0].path" in err
    assert "nowhere.field" in err


def test_conflicting_sweep_axes_rejected(tmp_path, capsys):
    bad = POINT_SPECTRUM + "  k: {start: 0.004, stop: 0.005, count: 11}\n"
    cfg = _write(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "sweep" in capsys.readouterr().err


def test_length_sweep_requires_line_source(tmp_path, capsys):
    bad = LINE_LENGTH.replace(
        """source:
  kind: line
  center: [0.0, 0.0, 0.0]
  axis: [1.0, 0.0, 0.0]
  polarization: [0.0, 1.0, 0.0]
  elements: auto
  amplitude: 1.0
""",
        """source:
  kind: point
  position: [0.0, 0.0, 0.0]
  orientation: [0.0, 1.0, 0.0]
""",
    )
    cfg = _write(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "source.kind" in capsys.readouterr().err


def test_impossible_grid_dims_is_config_error(tmp_path, capsys):
    (tmp_path / "neg.field").write_text(
        "dims -2 3\norigin 0 0\nspacing 1 1\ncomponents 3\n" + "0 0 0 0 0 0\n" * 6
    )
    bad = POINT_SPECTRUM.replace(
        """      - kind: surrogate_l3
        x0_nm: 160.0
        sigma_x_nm: 400.0
        sigma_y_nm: 120.0
        polarization: [0.0, 1.0, 0.0]
        amplitude: 1.0
""",
        """      - kind: grid
        path: neg.field
""",
    )
    cfg = _write(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_out_of_domain_is_runtime_error(tmp_path, capsys):
    from purcellx import GridField, save_grid_field

    rng = np.random.default_rng(0)
    grid = GridField(rng.normal(size=(3, 3, 3)).astype(complex),
                     origin=(-20.0, -20.0), spacing=(20.0, 20.0))
    save_grid_field(grid, tmp_path / "small.field")
    cfg_text = POINT_SPECTRUM.replace(
        """      - kind: surrogate_l3
        x0_nm: 160.0
        sigma_x_nm: 400.0
        sigma_y_nm: 120.0
        polarization: [0.0, 1.0, 0.0]
        amplitude: 1.0
""",
        """      - kind: grid
        path: small.field
""",
    ).replace("position: [0.0, 0.0, 0.0]", "position: [500.0, 0.0, 0.0]")
    cfg = _write(tmp_path, cfg_text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("text,csv_name", [(POINT_SPECTRUM, "demo-point_spectrum.csv"),
                                           (LINE_LENGTH, "demo-length_length.csv")],
                         ids=["spectrum", "length"])
def test_repeat_run_bitwise_deterministic(tmp_path, text, csv_name):
    cfg = _write(tmp_path, text)
    blobs = []
    for i in range(2):
        out = tmp_path / f"rep{i}"
        assert main(["run", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        blobs.append((out / csv_name).read_bytes())
    assert blobs[0] == blobs[1]


def test_csv_floats_have_roundtrip_precision(tmp_path):
    cfg = _write(tmp_path, POINT_SPECTRUM)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out), "--format", "both"])
    lines = (out / "demo-point_spectrum.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#") and not l.startswith("k,")]
    summary = json.loads((out / "demo-point_summary.json").read_text())
    gammas = [float(r.split(",")[2]) for r in rows]
    assert max(gammas) == summary["gamma_ratio_max"]


def test_check_passes_and_fault_hook_fails(capsys, monkeypatch):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all invariants passed" in out
    # a residual above the 1e-9 tolerance of coincidence-ldos
    monkeypatch.setattr(cli, "_check_coincidence", lambda: (1e-6, "forced residual"))
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL coincidence-ldos" in out


def test_radial_closed_form_check_sees_a_kernel_off_in_the_last_digits(capsys, monkeypatch):
    closed = homogeneous._factors_closed
    monkeypatch.setattr(homogeneous, "_factors_closed",
                        lambda x, out=None: tuple(f * (1.0 + 1e-13) for f in closed(x, out)))
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL radial-closed-form" in out


def test_check_verbose_lists_residuals(capsys):
    assert main(["check", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert out.count("residual=") >= 10
    assert "arithmetic-mean convention" in out
    assert "PASS lattice-lag-sum" in out


def test_shipped_configs_parse():
    from purcellx.cli import parse_config

    here = os.path.dirname(os.path.abspath(__file__))
    configs = os.path.join(here, os.pardir, "configs")
    for name in os.listdir(configs):
        cfg = parse_config(os.path.join(configs, name))
        assert cfg.scenario


_DELETE = object()


def _edited(text, edits):
    """``text`` parsed as YAML with ``edits`` applied: {dotted key path: value or _DELETE}."""
    cfg = yaml.safe_load(text)
    for dotted, value in edits.items():
        *parents, last = [int(key) if key.isdigit() else key for key in dotted.split(".")]
        node = cfg
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    return yaml.safe_dump(cfg)


_MODE = "environment.structured.modes.0"
_MODE_PATH = "environment.structured.modes[0]"
_LAMBDA_GRID = {"start": 1269.0, "stop": 1271.0, "count": 41}
_QNM = {"kind": "surrogate_l3", "x0_nm": 160.0, "sigma_x_nm": 400.0, "sigma_y_nm": 120.0,
        "polarization": [0.0, 1.0, 0.0], "lambda_m_nm": 1270.0, "q": 2000.0}
_ENDPOINT = {"position": [0.0, 0.0, 0.0], "orientation": [0.0, 1.0, 0.0]}

#: (base config, edits, field path the config error names)
CONFIG_ERRORS = [
    (POINT_SPECTRUM, {"scenario": ""}, "scenario"),
    (POINT_SPECTRUM, {"scenario": _DELETE}, "scenario"),
    (POINT_SPECTRUM, {"scenario": "../escaped"}, "scenario"),
    (POINT_SPECTRUM, {"scenario": "sub/dir/name"}, "scenario"),
    (POINT_SPECTRUM, {"scenario": "sub\\name"}, "scenario"),
    (POINT_SPECTRUM, {"scenario": "."}, "scenario"),
    (POINT_SPECTRUM, {"scenario": ".."}, "scenario"),
    (POINT_SPECTRUM, {"environment": "vacuum"}, "environment"),
    (POINT_SPECTRUM, {"environment.kind": "bogus"}, "environment.kind"),
    (POINT_SPECTRUM, {"environment.background_n": 0.5}, "environment.background_n"),
    (POINT_SPECTRUM, {"environment.structured": {"kind": "homogeneous", "n": 1.0}},
     "environment.structured.kind"),
    (POINT_SPECTRUM, {"environment.structured.modes": []}, "environment.structured.modes"),
    (POINT_SPECTRUM, {"environment.structured": {"kind": "qnm_pair", "qnms": [_QNM]}},
     "environment.structured.qnms"),
    (POINT_SPECTRUM, {f"{_MODE}.kind": "bogus"}, f"{_MODE_PATH}.kind"),
    (POINT_SPECTRUM, {f"{_MODE}.x0_nm": "wide"}, f"{_MODE_PATH}.x0_nm"),
    (POINT_SPECTRUM, {f"{_MODE}.sigma_x_nm": math.inf}, f"{_MODE_PATH}.sigma_x_nm"),
    (POINT_SPECTRUM, {f"{_MODE}.polarization": [0.0, 0.0, 0.0]}, f"{_MODE_PATH}.polarization"),
    (POINT_SPECTRUM, {f"{_MODE}.polarization": [0.0, 1.0]}, f"{_MODE_PATH}.polarization"),
    (POINT_SPECTRUM, {f"{_MODE}.amplitude": "one"}, f"{_MODE_PATH}.amplitude"),
    (POINT_SPECTRUM, {f"{_MODE}.k_m": 0.005}, _MODE_PATH),
    (POINT_SPECTRUM, {f"{_MODE}.lambda_m_nm": _DELETE}, _MODE_PATH),
    (POINT_SPECTRUM, {f"{_MODE}.gamma_m": 1e-6}, _MODE_PATH),
    (POINT_SPECTRUM, {f"{_MODE}.q": _DELETE}, _MODE_PATH),
    (POINT_SPECTRUM, {f"{_MODE}.q": 0.0}, f"{_MODE_PATH}.q"),
    (POINT_SPECTRUM, {f"{_MODE}.lambda_m_nm": -1270.0}, f"{_MODE_PATH}.lambda_m_nm"),
    (POINT_SPECTRUM, {"source.kind": "bogus"}, "source.kind"),
    (POINT_SPECTRUM, {"source.amplitude": 0.0}, "source.amplitude"),
    # integers too large for a float
    (POINT_SPECTRUM, {"environment": {"kind": "homogeneous", "n": 10**400}}, "environment.n"),
    (POINT_SPECTRUM, {"source.amplitude": 10**400}, "source.amplitude"),
    (POINT_SPECTRUM, {"source.position": [0.0, "x", 0.0]}, "source.position[1]"),
    (POINT_SPECTRUM, {"source.position": [math.nan, 0.0, 0.0]}, "source.position[0]"),
    (POINT_SPECTRUM, {"source": {"kind": "pair", "a": _ENDPOINT}}, "source.b"),
    (POINT_SPECTRUM, {"source": {"kind": "pair", "a": {"position": [0.0, 0.0, 0.0]},
                                 "b": _ENDPOINT}}, "source.a.orientation"),
    (POINT_SPECTRUM, {"source": {"kind": "pair", "a": [0.0, 0.0, 0.0], "b": _ENDPOINT}},
     "source.a"),
    (POINT_SPECTRUM, {"source": {"kind": "pair", "a": _ENDPOINT, "b": _ENDPOINT,
                                 "amplitude": -1.0}}, "source.amplitude"),
    (POINT_SPECTRUM, {"source": {"kind": "pair", "a": _ENDPOINT, "b": _ENDPOINT,
                                 "phase": math.inf}}, "source.phase"),
    (POINT_SPECTRUM, {"sweep.kind": "bogus"}, "sweep.kind"),
    (POINT_SPECTRUM, {"sweep.lambda_nm": _DELETE}, "sweep"),
    (POINT_SPECTRUM, {"sweep.lambda_nm.count": 0}, "sweep.lambda_nm.count"),
    (POINT_SPECTRUM, {"sweep.lambda_nm.count": True}, "sweep.lambda_nm.count"),
    (POINT_SPECTRUM, {"sweep.lambda_nm.stop": 1268.0}, "sweep.lambda_nm.stop"),
    (POINT_SPECTRUM, {"sweep.lambda_nm.start": -1.0}, "sweep.lambda_nm.start"),
    (POINT_SPECTRUM, {"sweep.lambda_nm": _DELETE,
                      "sweep.k": {"start": -0.001, "stop": 0.005, "count": 11}}, "sweep.k.start"),
    (LINE_LENGTH, {"source.elements": 0}, "source.elements"),
    (LINE_LENGTH, {"source.elements": True}, "source.elements"),
    (LINE_LENGTH, {"source.elements": 2.5}, "source.elements"),
    (LINE_LENGTH, {"source.d_nm": -1.0}, "source.d_nm"),
    (LINE_LENGTH, {"sweep.d_nm.start": -10.0}, "sweep.d_nm.start"),
    (LINE_LENGTH, {"sweep.lambda_nm": 0.0}, "sweep.lambda_nm"),
    (LINE_LENGTH, {"sweep.lambda_nm": _DELETE, "sweep.k": -0.005}, "sweep.k"),
    (LINE_LENGTH, {"sweep.lambda_nm": _DELETE}, "sweep"),
    (LINE_LENGTH, {"sweep.k": 0.005}, "sweep"),
    (LINE_LENGTH, {"sweep": {"kind": "spectrum", "lambda_nm": _LAMBDA_GRID}}, "source.d_nm"),
]


@pytest.mark.parametrize("base,edits,field", CONFIG_ERRORS)
def test_config_errors_name_their_field(tmp_path, capsys, base, edits, field):
    cfg = _write(tmp_path, _edited(base, edits))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("text", ["scenario: [unclosed\n", "- a list\n"])
def test_unreadable_config_is_config_error(tmp_path, capsys, text):
    for cfg in (_write(tmp_path, text), str(tmp_path / "missing.yaml")):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: config: ")


def _rows(out_dir, name):
    return [l for l in (out_dir / name).read_text().splitlines() if not l.startswith("#")]


def test_k_m_gamma_m_and_length_sweep_k_match_their_wavelength_forms(tmp_path):
    k_m = 2.0 * math.pi / 1270.0
    pairs = [
        (POINT_SPECTRUM, {f"{_MODE}.lambda_m_nm": _DELETE, f"{_MODE}.q": _DELETE,
                          f"{_MODE}.k_m": k_m, f"{_MODE}.gamma_m": k_m / 2000.0},
         "demo-point_spectrum.csv"),
        (LINE_LENGTH, {"sweep.lambda_nm": _DELETE, "sweep.k": k_m}, "demo-length_length.csv"),
    ]
    for i, (base, edits, name) in enumerate(pairs):
        outs = []
        for j, text in enumerate((base, _edited(base, edits))):
            out = tmp_path / f"out{i}{j}"
            cfg = _write(tmp_path, text, f"scenario{i}{j}.yaml")
            assert main(["run", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
            outs.append(_rows(out, name))
        assert outs[0] == outs[1]



def test_exponent_numbers_are_floats(tmp_path, capsys):
    """A number with an exponent and no dot, or an unsigned one, reads as the float
    it spells, as ``json.dumps`` writes it; an integer key still refuses it."""
    k_m = 2.0 * math.pi / 1270.0
    edits = {f"{_MODE}.lambda_m_nm": _DELETE, f"{_MODE}.q": _DELETE,
             f"{_MODE}.k_m": k_m, f"{_MODE}.gamma_m": k_m / 2000.0}
    text = json.dumps(yaml.safe_load(_edited(POINT_SPECTRUM, edits)))
    assert repr(k_m / 2000.0) in text and "e-06" in text
    spelled = POINT_SPECTRUM.replace("lambda_m_nm: 1270.0", "lambda_m_nm: 1.27e3") \
        .replace("q: 2000.0", "q: 2E+3").replace("position: [0.0, 0.0, 0.0]",
                                                 "position: [0e0, 0E+0, .0e1]")
    assert "1.27e3" in spelled and "2E+3" in spelled and "0e0" in spelled
    rows = []
    for i, config in enumerate((_edited(POINT_SPECTRUM, edits), text, POINT_SPECTRUM, spelled)):
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", _write(tmp_path, config, f"s{i}.yaml"), "--out", str(out),
                     "--format", "csv"]) == 0
        rows.append(_rows(out, "demo-point_spectrum.csv"))
    assert rows[0] == rows[1] and rows[2] == rows[3]
    counted = POINT_SPECTRUM.replace("count: 41", "count: 4.1e1")
    assert main(["run", "--config", _write(tmp_path, counted), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: sweep.lambda_nm.count: expected an integer >= 1, got 41.0")


@pytest.mark.parametrize("key", ["scenario", "background_n", "q"])
def test_repeated_config_key_is_refused(tmp_path, capsys, key):
    """The key given again on the next line: PyYAML alone would keep the last value."""
    lines = POINT_SPECTRUM.splitlines(keepends=True)
    first = next(i for i, text in enumerate(lines) if text.lstrip().startswith(f"{key}:"))
    text = "".join(lines[:first + 1] + [lines[first]] + lines[first + 1:])
    assert main(["run", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ")
    # lines count from 1, so the repeat sits on line first + 2
    assert f"found duplicate key {key!r}" in err and f"line {first + 2}," in err


def test_merged_keys_are_not_repeats(tmp_path):
    """A key beside a merge (``<<``) overrides the merged one, as in plain YAML."""
    merged = POINT_SPECTRUM.replace("reference:\n  kind: homogeneous\n  n: 1.0\n",
                                    "reference:\n  <<: {kind: homogeneous, n: 3.0}\n  n: 1.0\n")
    assert "<<" in merged
    rows = []
    for i, config in enumerate((POINT_SPECTRUM, merged)):
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", _write(tmp_path, config, f"s{i}.yaml"), "--out", str(out),
                     "--format", "csv"]) == 0
        rows.append(_rows(out, "demo-point_spectrum.csv"))
    assert rows[0] == rows[1]


def _grid_mode_config(path_value):
    return _edited(POINT_SPECTRUM, {_MODE: {"kind": "grid", "path": path_value,
                                            "lambda_m_nm": 1270.0, "q": 2000.0}})


@pytest.mark.parametrize("case", ["bom", "directory", "number"])
def test_unusable_grid_path_is_config_error(tmp_path, capsys, case):
    if case == "bom":
        (tmp_path / "bom.field").write_bytes(b"\xef\xbb\xbfdims 2 2\n")
        path_value = "bom.field"
    elif case == "directory":
        (tmp_path / "fields").mkdir()
        path_value = "fields"
    else:
        path_value = 123
    cfg = _write(tmp_path, _grid_mode_config(path_value))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {_MODE_PATH}.path: ")


def test_bad_grid_sample_line_is_config_error_naming_the_line(tmp_path, capsys):
    from purcellx import GridField, save_grid_field

    rng = np.random.default_rng(0)
    grid = GridField(rng.normal(size=(3, 3, 3)).astype(complex),
                     origin=(-20.0, -20.0), spacing=(20.0, 20.0))
    save_grid_field(grid, tmp_path / "bad.field")
    lines = (tmp_path / "bad.field").read_text().splitlines()
    lines[6] = "0 0 0 0 0 x"  # file line 7, the third sample
    (tmp_path / "bad.field").write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path, _grid_mode_config("bad.field"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {_MODE_PATH}.path: ")
    assert "bad.field:7: bad float" in err


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    cfg = _write(tmp_path, POINT_SPECTRUM)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["run", "--config", cfg, "--out", str(taken)]) == 3
    assert capsys.readouterr().err.startswith("runtime error: ")
