"""The benchmark's tracer (``bench/tracer.py``) names functions that exist,
and its ``assembly`` check (``bench/workloads.py``) accepts the records of a
small complex, so an API or record-shape change that would break a benchmark
run fails here first."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _tracer_constant(name: str):
    """The literal value of a module-level constant of the tracer, read
    without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} defines no {name}")


@pytest.mark.parametrize("module, attribute, span", _tracer_constant("FUNCTIONS"))
def test_traced_function_is_a_callable_module_attribute(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span


@pytest.mark.parametrize("method, span", _tracer_constant("MODEL_METHODS"))
def test_traced_model_method_exists(method, span):
    from cosimo.nn import Model

    assert callable(getattr(Model, method, None)), span


def test_assembly_check_accepts_a_small_complex(monkeypatch):
    # the module is compiled from its source, so no bytecode is written
    # next to it; dataclasses look their module up in sys.modules
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    from cosimo import random_points

    assembly = module.WORKLOADS["assembly"]
    item = assembly._build(random_points(30, rng_seed=[module.POOL, 0, 0]))
    assert assembly.check(0, item, assembly.values(item)) == []
