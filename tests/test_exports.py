"""Every name a module exports in ``__all__`` resolves, and every name the bench reads or wraps."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

MODULES = ["purcellx"] + [
    f"purcellx.{name}"
    for name in ("cli", "core", "engine", "fields", "homogeneous", "modal", "qnm", "sources")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_bench_trace_hooks_install_and_restore(monkeypatch):
    # the benchmark's tracer wraps package names by owner and attribute; a rename breaks it
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches and all(current(owner, attr) is not original
                               for owner, attr, original in patches)
    finally:
        tracer.uninstall()
    assert all(current(owner, attr) is original for owner, attr, original in patches)


@pytest.mark.parametrize("name", ["composite-line-spectrum", "gridfield-qnm-spectrum"])
def test_bench_cli_workloads_run(tmp_path, monkeypatch, name):
    # the benchmark's CLI workloads read parse_config, the parsed config and run_scenario
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    workloads.generate(name, 7, True, str(tmp_path))
    scenario = workloads.setup(name, str(tmp_path))
    scenario.run()
    rows = [line for line in pathlib.Path(scenario.csv_path).read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "k,lambda_nm,gamma_ratio"
    assert len(rows) - 1 == workloads.SIZES[name]["smoke"]["k_count"]
