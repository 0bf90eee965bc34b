#!/usr/bin/env python3
"""Benchmark of purcellx spectrum sweeps: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Generates the workload's inputs from the seed, times set-up in fresh
interpreters, repeats the sweep for S seconds, checks the outputs against
independent double sums, and prints as the last line of standard output one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones (setup_s, sweep_s,
sweep_cpu_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones,
from spans recorded around every purcellx layer.  ``--smoke`` runs the same
checks on small inputs in a few seconds.  See bench/README.md.
"""

from __future__ import annotations

import os

# A BLAS thread pool would add threads beyond the sweep's own workers; this
# must be set before numpy is imported here or in a set-up child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

#: Fresh interpreters whose set-up times give the median setup_s.
SETUP_PROBES = 9
#: Traced set-ups (after the import) whose spans give the set-up layers.
TRACED_SETUPS = 3
#: Fewest timed operations per run, even if they overrun --seconds.
MIN_OPS = 3

END_TO_END = {"setup_s": "s", "sweep_s": "s", "sweep_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.parse_config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "fields.load_grid_field_s": "s",
    "fields.grid_bytes_read": "bytes",
    "fields.projected_field_many_s": "s",
    "fields.projected_points": "count",
    "sources.build_s": "s",
    "sources.elements": "count",
    "sources.arrays_s": "s",
    "homogeneous.cdos_matrix_s": "s",
    "homogeneous.cdos_matrix_calls": "count",
    "homogeneous.pair_evals": "count",
    "homogeneous.matrix_bytes": "bytes",
    "modal.cdos_matrix_s": "s",
    "modal.cdos_matrix_calls": "count",
    "qnm.cdos_matrix_s": "s",
    "qnm.cdos_matrix_calls": "count",
    "engine.sweep_s": "s",
    "engine.self_s": "s",
    "engine.kernel_busy_s": "s",
    "engine.ref_sums": "count",
    "trace.overhead_s": "s",
}
#: Per-layer metrics taken from the traced set-ups; the rest from operations.
SETUP_LAYER = ("cli.parse_config_s", "fields.load_grid_field_s", "fields.grid_bytes_read",
               "sources.build_s", "sources.elements")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program() -> None:
    """Put the checkout's src/ first on the path; fail if it holds no purcellx."""
    if not os.path.isfile(os.path.join(SRC, "purcellx", "__init__.py")):
        sys.exit(f"error: no purcellx package under {SRC}")
    sys.path.insert(0, SRC)


class SweepTimer:
    """Wall and CPU time of every engine.sweep_spectrum call, and its result."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spectra: list = []

    def install(self):
        from purcellx import engine

        self._engine = engine
        self._original = engine.sweep_spectrum
        original = self._original

        def timed(*args, **kwargs):
            c0 = time.process_time()
            t0 = time.perf_counter()
            spectrum = original(*args, **kwargs)
            self.wall.append(time.perf_counter() - t0)
            self.cpu.append(time.process_time() - c0)
            self.spectra.append(spectrum)
            return spectrum

        engine.sweep_spectrum = timed

    def uninstall(self):
        self._engine.sweep_spectrum = self._original


def probe_setup(name: str, inputs_dir: str) -> float:
    """Set-up time of one fresh interpreter (runs this file in probe mode)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--setup-probe", inputs_dir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_ops(scenario, seconds: float, state: dict, between=None):
    """Repeat the operation until the next one would end after ``seconds``.

    ``between(n)`` runs before operation ``n``; its time does not count
    against ``seconds``.
    """
    durations = []
    deadline = time.perf_counter() + seconds
    while True:
        if between is not None:
            t0 = time.perf_counter()
            between(len(durations))
            deadline += time.perf_counter() - t0
        t0 = time.perf_counter()
        state["attempted"] += 1
        try:
            scenario.run()
        except Exception:  # a failed operation is counted, and the run goes on
            state["failed"] += 1
            log(traceback.format_exc())
        durations.append(time.perf_counter() - t0)
        if (len(durations) >= MIN_OPS
                and time.perf_counter() + statistics.median(durations) > deadline):
            return


def end_to_end(args, inputs_dir, state):
    probes = 1 if args.smoke else SETUP_PROBES
    setup_times = []

    def probe(n):
        # One set-up probe before each of the first operations, so that the
        # probes sample the same stretch of host load as the sweeps do.
        if n < probes:
            setup_times.append(probe_setup(args.workload, inputs_dir))

    scenario = workloads.setup(args.workload, inputs_dir)
    timer = SweepTimer()
    timer.install()
    scenario.run()  # warm-up: first-call costs are not part of a sweep
    del timer.wall[:], timer.cpu[:]
    run_ops(scenario, args.seconds, state, probe)
    timer.uninstall()
    while len(setup_times) < probes:
        probe(len(setup_times))
    # Linux reports ru_maxrss in KiB; read it before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sweep_s": statistics.median(timer.wall),
        "sweep_cpu_s": statistics.median(timer.cpu),
        "peak_rss_mb": peak_rss_mb,
    }
    log(f"set-up probes: {' '.join('%.4f' % t for t in setup_times)} s")
    log(f"{len(timer.wall)} sweeps: wall min {min(timer.wall):.4f} s, "
        f"max {max(timer.wall):.4f} s")
    return scenario, timer.spectra, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def per_layer(args, inputs_dir, state):
    from spans import Tracer, op_metrics

    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()  # imports purcellx, so traced set-ups exclude the import
    setups = 1 if args.smoke else TRACED_SETUPS
    for i in range(setups):
        tracer.op = f"setup-{i}"
        scenario = workloads.setup(args.workload, inputs_dir)
    tracer.uninstall()

    timer = SweepTimer()
    timer.install()
    scenario.run()  # warm-up, untraced
    traced_ops = []

    def between(n):
        # Alternate untraced and traced operations, so that both see the
        # same machine; the difference of their medians is the overhead.
        if n % 2 == 0:
            tracer.uninstall()
        else:
            tracer.op = f"op-{n}"
            traced_ops.append(tracer.op)
            tracer.install()

    traced_from = len(timer.wall)
    run_ops(scenario, args.seconds, state, between)
    tracer.uninstall()
    timer.uninstall()
    walls = timer.wall[traced_from:]
    untraced, traced = walls[0::2], walls[1::2]

    per_setup = [op_metrics(tracer, f"setup-{i}") for i in range(setups)]
    per_op = [op_metrics(tracer, op) for op in traced_ops]
    metrics = {}
    for name, unit in PER_LAYER.items():
        rows = per_setup if name in SETUP_LAYER else per_op
        values = [row.get(name, 0) for row in rows]
        # Counts repeat exactly from one operation to the next; keep them whole.
        median = statistics.median(values) if unit == "s" else statistics.median_low(values)
        metrics[name] = (float(median) if unit == "s" else median, unit)
    if traced and untraced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
    with open(trace_path, "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.dump(t0)}, fh)
    log(f"wrote {len(tracer.spans)} spans to {trace_path}")
    return scenario, timer.spectra, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, checks only")
    parser.add_argument("--setup-probe", metavar="INPUTS_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()

    if args.setup_probe:
        t0 = time.perf_counter()
        workloads.setup(args.workload, args.setup_probe)
        print(repr(time.perf_counter() - t0))
        return 0

    os.environ["PURCELLX_WORKERS"] = str(workloads.WORKERS)
    inputs_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    state = {"attempted": 0, "failed": 0}
    try:
        record = workloads.generate(args.workload, args.seed, args.smoke, inputs_dir)
        measure = per_layer if args.trace else end_to_end
        scenario, spectra, metrics = measure(args, inputs_dir, state)
        import checks  # only now: the checks load scipy, which the timed process should not hold

        failures = checks.run_checks(record, inputs_dir, scenario, spectra)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        log(f"{name:32s} {value!r} {unit}")
    result = {
        "correct": not failures,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
