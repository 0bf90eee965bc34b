"""Correctness checks on the program's outputs; each returns failure messages.

Checked at a few wavenumbers per workload (both band edges and the point
nearest each resonance):

* the returned ratio against the independent double sums of oracle.py;
* the ratio of the same source with every weight scaled by one complex
  constant, computed by the program, against the returned ratio;
* the CSV and JSON files the CLI wrote, parsed back, against the returned
  values (K rows, every float exact);
* every repeated operation of a run against the first one, bit for bit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from oracle import Oracle

#: Oracle agreement, as a share of the summed magnitudes of the ratio's parts:
#: both sides sum in double precision, in different orders.
ORACLE_RTOL = 1e-10
#: Scaling the weights by a common constant may only move the last digits.
SCALE_RTOL = 1e-11
SCALE_FACTOR = complex(0.6, -1.3)


def expected_k_grid(record) -> np.ndarray:
    if record["workload"] == "sampled-slab-spectrum":
        return np.array(record["k_grid"])
    k = record["sweep"]["k"]
    return np.linspace(k["start"], k["stop"], k["count"])


def check_indices(k_values, resonances) -> list[int]:
    picks = {0, len(k_values) - 1}
    picks.update(int(np.argmin(np.abs(k_values - k_m))) for k_m in resonances)
    return sorted(picks)


def check_grid(record, k_values) -> list[str]:
    want = expected_k_grid(record)
    if k_values.shape != want.shape:
        return [f"k grid has {k_values.size} points, expected {want.size}"]
    worst = float(np.max(np.abs(k_values - want) / want))
    return [] if worst <= 1e-15 else [f"k grid differs from the input grid by {worst:.2e}"]


def check_oracle(k_values, samples, expected) -> list[str]:
    failures = []
    for i, (want, scale) in expected.items():
        err = abs(samples[i] - want) / scale
        if not err <= ORACLE_RTOL:
            failures.append(f"k[{i}]={float(k_values[i])!r}: ratio {float(samples[i])!r}, "
                            f"independent double sum gives {float(want)!r} "
                            f"(error {err:.2e} of the parts)")
    return failures


def check_scale_invariance(scenario, k_values, samples, expected) -> list[str]:
    from purcellx import engine, sources

    src = scenario.source
    scaled = sources.ExtendedSource(
        tuple(sources.DipoleElement(e.point, SCALE_FACTOR * e.weight) for e in src.elements),
        src.reference,
    )
    failures = []
    for i, (_, scale) in expected.items():
        got = engine.decay_rate(scaled, scenario.environment, scenario.reference,
                                float(k_values[i])).gamma_ratio
        err = abs(got - samples[i]) / scale
        if not err <= SCALE_RTOL:
            failures.append(f"k[{i}]: weights scaled by {SCALE_FACTOR} give {got!r}, "
                            f"unscaled {float(samples[i])!r} (error {err:.2e} of the parts)")
    return failures


def check_written(csv_path, summary_path, k_values, samples) -> list[str]:
    with open(csv_path, encoding="ascii") as fh:
        rows = [line for line in fh.read().splitlines() if not line.startswith("#")]
    if not rows or rows[0] != "k,lambda_nm,gamma_ratio":
        return [f"{csv_path}: missing the k,lambda_nm,gamma_ratio header"]
    rows = rows[1:]
    if len(rows) != len(k_values):
        return [f"{csv_path}: {len(rows)} rows, expected {len(k_values)}"]
    failures = []
    for i, row in enumerate(rows):
        k, lam, g = (float(v) for v in row.split(","))
        if k != k_values[i] or g != samples[i] or abs(lam * k / (2.0 * math.pi) - 1.0) > 1e-15:
            failures.append(f"{csv_path}: row {i} reads {row!r}, returned "
                            f"k={float(k_values[i])!r} gamma_ratio={float(samples[i])!r}")
    with open(summary_path, encoding="ascii") as fh:
        summary = json.load(fh)
    i_max = int(np.argmax(samples))
    if (summary["gamma_ratio_max"] != samples[i_max]
            or summary["gamma_ratio_min"] != float(np.min(samples))
            or summary["k_or_d_at_extremum"] != k_values[i_max]):
        failures.append(f"{summary_path}: summary {summary} disagrees with the returned values")
    return failures


def check_repeats(spectra) -> list[str]:
    first = spectra[0]
    return [f"operation {n} returned other values than operation 0"
            for n, s in enumerate(spectra[1:], start=1)
            if not (np.array_equal(s.k_values, first.k_values)
                    and np.array_equal(s.samples, first.samples))]


def run_checks(record, inputs_dir, scenario, spectra) -> list[str]:
    """Every check on a run whose operations returned ``spectra``."""
    first = spectra[0]
    k_values = first.k_values
    samples = np.asarray(first.samples, dtype=float)
    oracle = Oracle(record, inputs_dir)
    expected = {i: oracle.ratio(float(k_values[i]))
                for i in check_indices(k_values, oracle.resonances())}
    failures = check_grid(record, k_values) + check_repeats(spectra)
    failures += check_oracle(k_values, samples, expected)
    failures += check_scale_invariance(scenario, k_values, samples, expected)
    if scenario.csv_path is not None:
        failures += check_written(scenario.csv_path, scenario.summary_path, k_values, samples)
    return failures
