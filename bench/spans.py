"""In-memory span tracing of purcellx from outside the package.

``Tracer.install()`` replaces the public functions and methods behind each
layer (module) of purcellx with wrappers that record a span (name, start,
end, parent, thread, operation) and a few counts; ``uninstall()`` puts the
originals back.  No file under src/ changes.  A name that one module imports
from another (``from .fields import projected_field_many``) is wrapped in
every module that calls it, under one span name.

A span's parent is the innermost open span of its own thread.  Sweep worker
threads start with no open span; their spans take the innermost open span of
the installing thread, which is blocked in the sweep for as long as the pool
runs.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass

#: The kernel spans of a sweep; engine.self_s is the sweep minus their union.
KERNEL_SPANS = ("homogeneous.cdos_matrix", "modal.cdos_matrix", "qnm.cdos_matrix")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.op = "setup"
        self._refs: set[int] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            key = (self.op, name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer._stack()
            home = tracer._home_stack
            parent = stack[-1] if stack else (home[-1] if home else None)
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         threading.get_ident(), tracer.op))
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- the layers of purcellx ---------------------------------------------

    def install(self) -> None:
        from purcellx import cli, engine, fields, homogeneous, modal, qnm, sources

        def is_ref(model):
            if id(model) in self._refs:
                self.count("engine.ref_sums", 1)

        def kernel_counts(layer):
            def after(args, result):
                self.count(f"{layer}.cdos_matrix_calls", 1)
                is_ref(args[0])
            return after

        def homogeneous_counts(args, result):
            m = args[1].shape[0]
            self.count("homogeneous.cdos_matrix_calls", 1)
            self.count("homogeneous.pair_evals", m * (m + 1) // 2)
            self.count("homogeneous.matrix_bytes", 8 * m * m)
            is_ref(args[0])

        def bytes_written(args, result):
            out_dir = args[1]
            self.count("cli.bytes_written", sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)))

        self._wrap(cli, "parse_config", "cli.parse_config")
        self._wrap(cli, "run_scenario", "cli.run_scenario", after=bytes_written)
        for owner in (cli, fields):
            self._wrap(owner, "load_grid_field", "fields.load_grid_field",
                       before=lambda args: self.count("fields.grid_bytes_read",
                                                      os.path.getsize(args[0])))
        for owner in (fields, modal, qnm):
            self._wrap(owner, "projected_field_many", "fields.projected_field_many",
                       after=lambda args, r: self.count("fields.projected_points",
                                                        args[1].shape[0]))
        for fn in ("line_source", "sampled_source"):
            self._wrap(sources, fn, "sources.build",
                       after=lambda args, src: self.count("sources.elements", len(src)))
        for method in ("positions_array", "orientations_array", "weights_array"):
            self._wrap(sources.ExtendedSource, method, "sources.arrays")
        self._wrap(homogeneous.HomogeneousGreens, "cdos_matrix", "homogeneous.cdos_matrix",
                   after=homogeneous_counts)
        self._wrap(modal.ModeSet, "cdos_matrix", "modal.cdos_matrix",
                   after=kernel_counts("modal"))
        self._wrap(qnm.QnmPair, "cdos_matrix", "qnm.cdos_matrix", after=kernel_counts("qnm"))
        self._wrap(engine, "sweep_spectrum", "engine.sweep_spectrum",
                   before=lambda args: self._refs.add(id(args[2])))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, t0: float) -> list[dict]:
        """Spans as dicts, times in seconds from ``t0``."""
        out = []
        for span in self.spans:
            d = asdict(span)
            d["start"] -= t0
            d["end"] -= t0
            out.append(d)
        return out


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans


def _union(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _self_time(span, children) -> float:
    covered = [(max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.id, ())]
    return (span.end - span.start) - _union(covered)


def op_metrics(tracer: Tracer, op: str) -> dict[str, float]:
    """Per-layer numbers of one operation (a traced set-up or sweep)."""
    spans = [s for s in tracer.spans if s.op == op]
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def self_total(name):
        return sum(_self_time(s, children) for s in spans if s.name == name)

    kernels = [(s.start, s.end) for s in spans if s.name in KERNEL_SPANS]
    sweep = total("engine.sweep_spectrum")
    metrics = {
        "cli.parse_config_s": self_total("cli.parse_config"),
        "cli.write_s": self_total("cli.run_scenario"),
        "fields.load_grid_field_s": total("fields.load_grid_field"),
        "fields.projected_field_many_s": total("fields.projected_field_many"),
        "sources.build_s": total("sources.build"),
        "sources.arrays_s": total("sources.arrays"),
        "homogeneous.cdos_matrix_s": total("homogeneous.cdos_matrix"),
        "modal.cdos_matrix_s": self_total("modal.cdos_matrix"),
        "qnm.cdos_matrix_s": self_total("qnm.cdos_matrix"),
        "engine.sweep_s": sweep,
        "engine.self_s": sweep - _union(kernels) if sweep else 0.0,
        "engine.kernel_busy_s": sum(hi - lo for lo, hi in kernels),
    }
    for (count_op, name), value in tracer.counts.items():
        if count_op == op:
            metrics[name] = value
    return metrics
