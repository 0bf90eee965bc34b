"""The shipped configs reproduce their stored CSV outputs.

``tests/golden/`` holds the CSV each ``configs/*.yaml`` wrote when the
stored outputs were made.  Every numeric column must match within 1e-12
relative; comment and header lines must match exactly, except the config
hash line.
"""

import pathlib

import numpy as np
import pytest

from purcellx.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def _split(path):
    text = [line for line in path.read_text().splitlines()
            if not line.startswith("# config_sha256=")]
    head = [line for line in text if line.startswith("#")]
    columns = next(line for line in text if not line.startswith("#"))
    rows = [line for line in text if not line.startswith("#")][1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    return head, columns, values


def test_every_config_has_a_golden_output():
    assert len(CONFIGS) == 5
    assert len(list(GOLDEN.glob("*.csv"))) == len(CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_golden_csv(config, tmp_path, capsys):
    assert main(["run", "--config", str(config), "--out", str(tmp_path), "--format", "csv"]) == 0
    (produced,) = tmp_path.glob("*.csv")
    head, columns, values = _split(produced)
    want_head, want_columns, want_values = _split(GOLDEN / produced.name)
    assert head == want_head
    assert columns == want_columns
    assert values.shape == want_values.shape
    np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0.0, equal_nan=True)
