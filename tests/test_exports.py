"""Every name a module exports in ``__all__`` resolves."""

import importlib

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
