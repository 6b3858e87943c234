"""The benchmark's tracer (``bench/tracer.py``) names functions that exist, so
an API change that unbinds one fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
