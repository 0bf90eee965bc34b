"""The experiment scripts under ``scripts/`` run end to end on the public API."""

import math
import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")

#: script -> {CSV file: (header, data rows)}
OUTPUTS = {
    "surrogate_cavity_sweeps.py": {
        "pair_spectrum_phase0.csv": ("k,gamma_ratio,single_dipole_ratio", 401),
        "pair_spectrum_phasepi.csv": ("k,gamma_ratio,single_dipole_ratio", 401),
        "line_length_sweep.csv": ("d_nm,gamma_ratio,extremity_field", 161),
    },
    "two_qnm_reshaping.py": {
        "point_vs_line_spectrum.csv": ("k,point_gamma_ratio,line_gamma_ratio", 401),
    },
}


@pytest.mark.parametrize("script", sorted(OUTPUTS))
def test_script_writes_finite_csvs(script, tmp_path, monkeypatch, capsys):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr(sys, "argv", [path, "--out", str(tmp_path)])
    runpy.run_path(path, run_name="__main__")
    capsys.readouterr()
    for name, (header, count) in OUTPUTS[script].items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == count
        assert all(len(row) == 3 and all(math.isfinite(v) for v in row) for row in rows)
