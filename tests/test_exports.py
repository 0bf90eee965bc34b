"""Every name a module exports in ``__all__`` resolves, every name the bench reads or wraps,
and the package runs on its declared dependencies alone."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

MODULES = ["purcellx"] + [
    f"purcellx.{name}"
    for name in ("cli", "core", "engine", "fields", "homogeneous", "modal", "qnm", "sources")
]
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


#: Top-level packages of the test extras, which no package module may import.
TEST_ONLY = ("scipy", "mpmath", "hypothesis", "pytest")

_RUNTIME_SCRIPT = textwrap.dedent("""
    import importlib, pkgutil, sys
    import numpy as np
    import purcellx
    from purcellx import (CompositeGreens, HomogeneousGreens, ModeSet, Orientation, Position,
                          cli, line_source, surrogate_l3, sweep_spectrum)
    for module in pkgutil.iter_modules(purcellx.__path__, "purcellx."):
        importlib.import_module(module.name)
    mode = surrogate_l3()
    line = line_source(Position(0.0, 0.0, 0.0), Orientation(1.0, 0.0, 0.0),
                       Orientation(0.0, 1.0, 0.0), 300.0, 20)
    sweep_spectrum(line, CompositeGreens(HomogeneousGreens(1.0), ModeSet((mode,))),
                   HomogeneousGreens(1.0), mode.k_m * np.linspace(0.999, 1.001, 5))
    assert cli.run_checks() == 0
    print(sorted({name.split(".")[0] for name in sys.modules} & set(sys.argv[1:])))
""")


def test_runtime_dependencies_are_numpy_and_pyyaml():
    # a fresh interpreter: this process has the test extras loaded already
    src = pathlib.Path(importlib.import_module("purcellx").__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", _RUNTIME_SCRIPT, *TEST_ONLY],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_bench_trace_hooks_install_and_restore(monkeypatch):
    # the benchmark's tracer wraps package names by owner and attribute; a rename breaks it
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
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


def _bench_module(name):
    """``bench/<name>.py``, loaded by path as the module ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_bench_workloads_pass_their_checks(tmp_path, monkeypatch, name):
    # the workloads read parse_config, the parsed config, run_scenario and the library API;
    # the checks compare two runs with each other, the written files and the bench oracle
    from purcellx import engine

    monkeypatch.syspath_prepend(str(BENCH))  # checks.py imports oracle.py by name
    checks = importlib.import_module("checks")
    record = workloads.generate(name, 7, True, str(tmp_path))
    scenario = workloads.setup(name, str(tmp_path))
    spectra = []
    sweep = engine.sweep_spectrum

    def keep(*args):
        spectra.append(sweep(*args))
        return spectra[-1]

    monkeypatch.setattr(engine, "sweep_spectrum", keep)
    scenario.run()
    scenario.run()
    assert len(spectra) == 2
    assert checks.run_checks(record, str(tmp_path), scenario, spectra) == []
