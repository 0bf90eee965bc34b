import json
import math
import os

import numpy as np
import pytest

from purcellx import cli
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


def test_worker_count_determinism(tmp_path, monkeypatch):
    cfg = _write(tmp_path, LINE_LENGTH)
    outputs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"out{workers}"
        monkeypatch.setenv("PURCELLX_WORKERS", workers)
        assert main(["run", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        outputs[workers] = (out / "demo-length_length.csv").read_bytes()
    assert outputs["1"] == outputs["8"]


def test_repeat_run_bitwise_deterministic(tmp_path):
    cfg = _write(tmp_path, POINT_SPECTRUM)
    blobs = []
    for i in range(2):
        out = tmp_path / f"rep{i}"
        assert main(["run", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        blobs.append((out / "demo-point_spectrum.csv").read_bytes())
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


def test_check_verbose_lists_residuals(capsys):
    assert main(["check", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert out.count("residual=") >= 8
    assert "arithmetic-mean convention" in out


def test_shipped_configs_parse():
    from purcellx.cli import parse_config

    here = os.path.dirname(os.path.abspath(__file__))
    configs = os.path.join(here, os.pardir, "configs")
    for name in os.listdir(configs):
        cfg = parse_config(os.path.join(configs, name))
        assert cfg.scenario
