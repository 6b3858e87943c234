"""In-memory span tracer installed around cosimo's public functions.

The tracer lives entirely in the benchmark: it wraps library functions from
the outside instead of instrumenting ``src/``. ``from .x import y`` copies a
function object into the importing module, so a wrapper is installed at every
binding site, i.e. every ``cosimo`` module attribute that holds the original
object. ``Model`` methods are patched once on the class.

Spans are kept as ``[name, parent_id, t0_ns, t1_ns]`` lists and only written
out at the end of a run. Self time is a span's duration minus the time its
direct children cover. In ``count`` mode the wrappers only count calls, so an
untraced pass of an item can be compared call for call with its traced pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function, with the span name it records.
# The three experiment entry points share one name: their self time is the
# readout, the hand-rolled optimizer loop and the result assembly.
FUNCTIONS = (
    ("cosimo.delaunay", "delaunay_complex", "delaunay.delaunay_complex"),
    ("cosimo.complexes", "boundary_matrix", "complexes.boundary_matrix"),
    ("cosimo.complexes", "hodge_operators", "complexes.hodge_operators"),
    ("cosimo.complexes", "hodge_operators_from_incidence", "complexes.hodge_operators_from_incidence"),
    ("cosimo.complexes", "perturb_incidence", "complexes.perturb_incidence"),
    ("cosimo.spectral", "eig_sym", "spectral.eig_sym"),
    ("cosimo.spectral", "cosimo_filter", "spectral.cosimo_filter"),
    ("cosimo.analysis", "stability_bound", "analysis.stability_bound"),
    ("cosimo.analysis", "model_constants", "analysis.model_constants"),
    ("cosimo.analysis", "energy_trace", "analysis.energy_trace"),
    ("cosimo.nn", "train", "nn.train"),
    ("cosimo.experiments", "generate_trajectories", "experiments.generate_trajectories"),
    ("cosimo.experiments", "fit_trajectory_model", "experiments.run"),
    ("cosimo.experiments", "run_stability", "experiments.run"),
    ("cosimo.experiments", "run_oversmoothing", "experiments.run"),
)

# Methods patched on ``cosimo.nn.Model``.
MODEL_METHODS = (
    ("__init__", "nn.Model.init"),
    ("forward", "nn.Model.forward"),
    ("backward", "nn.Model.backward"),
    ("spectral_norm_bound", "nn.Model.spectral_norm_bound"),
)

# Span that the benchmark opens around each timed item.
ITEM_SPAN = "bench.item"


class Tracer:
    """Span recorder. ``mode`` is ``off`` (checks run unrecorded), ``count``
    (calls per span name into ``counts``) or ``trace`` (counts and spans)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        # Computed work of the traced eigendecompositions: n^3 per n x n call.
        self.eig_n3 = 0
        self.mode = "off"
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter_ns()
        self.stack.pop()

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (used for the per-item root span)."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        tracer = self
        is_eig = name == "spectral.eig_sym"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.mode == "off":
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            if tracer.mode == "count":
                return fn(*args, **kwargs)
            if is_eig:
                tracer.eig_n3 += len(args[0]) ** 3
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> dict[str, int]:
        """Wrap every binding site; returns the number of sites per function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cosimo" or n.startswith("cosimo."))]
        sites: dict[str, int] = {}
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(span, original)
            n = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        n += 1
            sites[f"{mod_name}.{attr}"] = n
        model = sys.modules["cosimo.nn"].Model
        for attr, span in MODEL_METHODS:
            self._patch(model, attr, self.wrap(span, vars(model)[attr]))
            sites[f"cosimo.nn.Model.{attr}"] = 1
        return sites

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that (indirectly) calls itself is not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0 - child_ns[sid]) * 1e-9
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                rec["s"] += (t1 - t0) * 1e-9
        return dict(out)

    def write(self, path) -> None:
        """One JSON array ``[id, parent, name, t0_ns, t1_ns]`` per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
