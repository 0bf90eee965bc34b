"""Smoke test of the benchmark: on small inputs every workload's checks pass,
and a corrupted output fails them.

    python -m pytest bench/test_smoke.py

It sits outside tests/, so the tier-1 suite does not collect it, and it
asserts on outputs only, never on timings.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from purcellx import engine  # noqa: E402
from purcellx.core import Spectrum  # noqa: E402


def _metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_prints_checked_result(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == _metric_names("per_layer" if trace else "end_to_end")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_fails_checks(workload, tmp_path, monkeypatch):
    inputs_dir = str(tmp_path)
    record = workloads.generate(workload, 7, True, inputs_dir)
    scenario = workloads.setup(workload, inputs_dir)
    spectra = []
    sweep = engine.sweep_spectrum

    def capture(*args, **kwargs):
        spectra.append(sweep(*args, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(engine, "sweep_spectrum", capture)
    scenario.run()
    assert checks.run_checks(record, inputs_dir, scenario, spectra) == []

    good = spectra[0]
    samples = good.samples.copy()
    samples[0] *= 1.0 + 1e-8  # the band edge is always checked
    bad = Spectrum(good.k_values, samples)
    failures = checks.run_checks(record, inputs_dir, scenario, [bad])
    assert any("independent double sum" in f for f in failures)
    assert any("weights scaled" in f for f in failures)
    assert any("other values" in f for f in checks.check_repeats([good, bad]))

    if scenario.csv_path is not None:
        with open(scenario.csv_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        row = len(lines) - 1
        k, lam, g = lines[row].split(",")
        lines[row] = ",".join([k, lam, repr(float(np.nextafter(float(g), np.inf)))])
        with open(scenario.csv_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        failures = checks.check_written(scenario.csv_path, scenario.summary_path,
                                        good.k_values, good.samples)
        assert failures and f"row {len(good.samples) - 1}" in failures[0]
