"""The per-layer trace of `perfbench` wraps `ovc` functions by name; every
name it lists must still resolve, or `--trace 1` breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


@pytest.fixture(scope="module")
def trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the benchmark's files
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_functions_resolve(trace_child):
    seen = {}
    for mod_name, attr, span in trace_child.FUNCTIONS:
        fn = getattr(importlib.import_module("ovc." + mod_name), attr)
        assert callable(fn), (mod_name, attr)
        # an alias of another traced function would be wrapped twice
        assert id(fn) not in seen, ((mod_name, attr), seen.get(id(fn)))
        seen[id(fn)] = (mod_name, attr)


def test_traced_methods_resolve(trace_child):
    for mod_name, cls_name, attr, span in trace_child.METHODS:
        cls = getattr(importlib.import_module("ovc." + mod_name), cls_name)
        assert callable(getattr(cls, attr)), (mod_name, cls_name, attr)
