"""The benchmark's tracer (``bench/tracer.py``) names functions that exist,
finds a binding site for each and sees every span a workload item expects
called, that item passes its check against ``references.json``, and the
``assembly`` check (``bench/workloads.py``) accepts the records of a small
complex, so an API, call-site or record-shape change that would break a
benchmark run fails here first. The package itself imports nothing but the
standard library and numpy, and importing it loads no process pool."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cosimo"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"
REFERENCES = BENCH / "references.json"


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


def _compiled(monkeypatch, path: Path) -> types.ModuleType:
    """The bench module at ``path``, compiled from its source, so no bytecode
    is written next to it; dataclasses look their module up in sys.modules."""
    module = types.ModuleType(f"bench_{path.stem}")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_assembly_check_accepts_a_small_complex(monkeypatch):
    # the default holes leave two zero operators (level 0 down, level 2 up);
    # holes that cover every triangle add level 1 up and leave level 2 with
    # no simplex, so the check reads a listing of every empty record there is
    module = _compiled(monkeypatch, WORKLOADS)
    from cosimo import random_points

    assembly = module.WORKLOADS["assembly"]
    for holes, empty in ((module.experiments.DEFAULT_HOLES, {(0, "down"), (2, "up")}),
                         ((((0.5, 0.5), 2.0),), {(0, "down"), (1, "up"), (2, "down"), (2, "up")})):
        monkeypatch.setattr(module.experiments, "DEFAULT_HOLES", holes)
        item = assembly._build(random_points(30, rng_seed=[module.POOL, 0, 0]))
        assert {(k, side) for k, o in item.ops.items()
                for side, spec in (("down", o.spectrum_down), ("up", o.spectrum_up))
                if not spec.K} == empty
        assert assembly.check(0, item, assembly.values(item)) == []


def test_traced_functions_are_bound_and_expected_spans_called(monkeypatch):
    # what a traced benchmark run reports as trace failures, on item 0 of a
    # 15 s run at seed 0 of each workload, with calls counted only; the same
    # item also passes the run's correctness check against its recorded
    # reference values, so a rounding change that flips a crossing, a
    # violation or a reference value fails here
    tracing = _compiled(monkeypatch, TRACER)
    workloads = _compiled(monkeypatch, WORKLOADS)
    references = json.loads(REFERENCES.read_text())
    for name, wl in workloads.WORKLOADS.items():
        m = wl.items(0, 15)[0]
        tr = tracing.Tracer()
        try:
            sites = tr.install()
            tr.mode = "count"
            out = wl.run(m)
        finally:
            tr.mode = "off"
            tr.uninstall()
        assert [fn for fn, n in sites.items() if n == 0] == [], name
        uncalled = {span: n for span, n in wl.expected_counts(m, out).items()
                    if n > 0 and tr.counts.get(span, 0) == 0}
        assert uncalled == {}, name
        assert wl.check(m, out, references[name][str(m)]["values"]) == [], name


def test_the_package_imports_only_the_standard_library_and_numpy():
    # the README's "numpy, the only runtime dependency", read from the source
    # of every module, so an import inside a function counts too
    allowed = sys.stdlib_module_names | {"numpy", "cosimo"}
    paths, foreign = sorted(PACKAGE.glob("*.py")), []
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []


def test_importing_the_package_loads_no_process_pool():
    # a serial run never starts a pool, so `import cosimo` must not pay for
    # concurrent.futures and multiprocessing; `_map_realizations` imports
    # them when it is asked for more than one job
    path = [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cosimo; "
         "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == "[]"
