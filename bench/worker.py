"""One benchmark process: set up, run a workload's items, check them.

Started by ``run.py`` with the BLAS thread variables already pinned to 1.
Prints one JSON record as its last stdout line. Not meant to be run by hand.
"""

from __future__ import annotations

from probe import SetupProbe, SpeedProbe

# Armed before anything heavy is imported: set-up is rescaled by the host
# speed seen while it runs, like the items.
SETUP_PROBE = SetupProbe()
SETUP_PROBE.arm()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cosimo  # noqa: E402
import tracer as tracing  # noqa: E402
from run import REFERENCES, THREAD_VARS  # noqa: E402
from workloads import POOL, WORKLOADS, digest  # noqa: E402


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine_settings": (
            "unchanged: no CPU governor, frequency, cache, huge-page or cgroup "
            "setting was touched, so frequency drift and other tenants on the "
            "host show up as run-to-run spread; SpeedProbe rescales the gated "
            "times for it, the raw times are kept beside them"
        ),
    }


def run_item(wl, m, ref, tr=None, mode="off", probe=None) -> dict:
    """Time one item (inside a root span when ``mode`` is ``trace``, under the
    speed probe when one is given), then check it untimed."""
    out, error = None, None
    if probe is not None:
        probe.arm()
    if tr is not None:
        tr.counts.clear()
        tr.mode = mode
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if mode == "trace":
            out = tr.run_span(tracing.ITEM_SPAN, wl.run, m)
        else:
            out = wl.run(m)
    except Exception:  # an item that raises counts as failed; the run goes on
        error = traceback.format_exc(limit=3)
    finally:
        if tr is not None:
            tr.mode = "off"
        if probe is not None:
            probe.disarm()
    t1, c1 = time.perf_counter(), time.process_time()
    rec = {"master_seed": m, "wall_s": t1 - t0, "cpu_s": c1 - c0}
    if probe is not None:
        probed = probe.inside(t0, t1)
        rec["wall_s"] -= probed
        rec["cpu_s"] -= probed
        rec["speed_factor"] = probe.factor()
        rec["wall_adj_s"] = rec["wall_s"] * rec["speed_factor"]
        rec["cpu_adj_s"] = rec["cpu_s"] * rec["speed_factor"]
    if error is not None:
        return rec | {"failures": [error]}
    rec["failures"] = wl.check(m, out, ref["values"])
    rec["digest"] = digest(wl.outputs(out))
    rec["digest_matches_reference"] = rec["digest"] == ref["digest"]
    if mode == "trace":
        rec["expected_counts"] = wl.expected_counts(m, out)
    return rec


# Ceiling on item time outside every wrapped function, as a share of traced
# wall time. The wrappers cover at least 99 % of it on every workload at the
# commit that defined the benchmark; time escaping them means a missed
# binding site or work moved into code the tracer cannot see.
UNTRACED_SHARE_MAX = 0.05


def traced_items(wl, items, refs) -> dict:
    """Each item runs untraced (calls counted only), then traced; returns
    per-layer metrics and the call-count checks."""
    tr = tracing.Tracer()
    sites = tr.install()
    untraced, traced, mismatches, failures = [], [], [], []
    names = sorted({span for *_, span in tracing.FUNCTIONS} | {s for _, s in tracing.MODEL_METHODS})
    for fn, n in sites.items():
        if n == 0:
            failures.append(f"no binding site found for {fn}")
    for i, m in enumerate(items):
        untraced.append(run_item(wl, m, refs[str(m)], tr, "count"))
        counted = dict(tr.counts)
        rec = run_item(wl, m, refs[str(m)], tr, "trace")
        traced.append(rec)
        counts = dict(tr.counts)
        if counts != counted:
            diff = {n: (counted.get(n, 0), counts.get(n, 0))
                    for n in sorted(set(counts) | set(counted)) if counts.get(n) != counted.get(n)}
            failures.append(f"item {i}: call counts differ between its two passes {diff}")
        expected = rec.pop("expected_counts", {})
        for name in names:
            got, want = counts.get(name, 0), expected.get(name, 0)
            if got == 0 and want > 0:
                failures.append(f"item {i}: {name} recorded no calls, expected {want}")
            elif got != want:
                mismatches.append({"item": i, "span": name, "calls": got, "expected": want})
    tr.uninstall()

    summary = tr.summary()
    wall_u = sum(r["wall_s"] for r in untraced)
    wall_t = sum(r["wall_s"] for r in traced)

    def get(name, key):
        return summary.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    outside = get(tracing.ITEM_SPAN, "self_s")
    if outside > UNTRACED_SHARE_MAX * wall_t:
        failures.append(f"{outside:.6f} s of {wall_t:.6f} s traced wall time is outside every "
                        f"wrapped function (ceiling {UNTRACED_SHARE_MAX:.0%})")
    metrics = {
        "trace.overhead_frac": wall_t / wall_u - 1.0,
        "trace.wall_s": wall_t,
        "bench.item.self_s": outside,
        "spectral.eig_sym.n3": tr.eig_n3,
    }
    for name in names:
        for key in ("calls", "s", "self_s"):
            metrics[f"{name}.{key}"] = get(name, key)
    return {
        "items": untraced + traced,
        "timed_items": untraced,
        "metrics": metrics,
        "spans": summary,
        "binding_sites": sites,
        "count_mismatches": mismatches,
        "trace_failures": failures,
        "tracer": tr,
    }


# Seconds of filler work each untraced worker times under the speed probe
# after set-up, outside set-up and items.
NEUTRAL_S = 0.5


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawn-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC reading taken just before this process was started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true", help="print reference values for every pool seed")
    p.add_argument("--spans", help="write the traced spans to this JSONL file")
    args = p.parse_args(argv)

    if not Path(cosimo.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cosimo imported from {cosimo.__file__}, not from this checkout")
    wl = WORKLOADS[args.workload]
    if args.record:
        SETUP_PROBE.disarm()
        return record(wl)
    refs = json.loads(REFERENCES.read_text())[wl.name]
    items = wl.items(args.seed, args.seconds)
    wl.warmup()
    SETUP_PROBE.disarm()
    probed = sum(d for _, d in SETUP_PROBE.samples)
    setup_raw_s = (time.monotonic_ns() - args.spawn_ns) * 1e-9 - probed
    factor = SETUP_PROBE.factor()
    setup = {"setup_raw_s": setup_raw_s, "setup_factor": factor, "setup_s": setup_raw_s * factor,
             "setup_probes": len(SETUP_PROBE.samples)}
    if not args.trace:
        setup["neutral_factor"] = SpeedProbe().neutral(NEUTRAL_S)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup": setup}
    if args.trace:
        t = traced_items(wl, items, refs)
        if args.spans:
            t["tracer"].write(Path(args.spans))
        timed = t.pop("timed_items")
        t.pop("tracer")
        result |= t
    else:
        probe = SpeedProbe()
        timed = [run_item(wl, m, refs[str(m)], probe=probe) for m in items]
        result["items"] = timed
        result["wall_adj_s"] = sum(r["wall_adj_s"] for r in timed)
        result["cpu_adj_s"] = sum(r["cpu_adj_s"] for r in timed)
        result["item_p50_adj_s"] = statistics.median(r["wall_adj_s"] for r in timed)
    result["wall_s"] = sum(r["wall_s"] for r in timed)
    result["cpu_s"] = sum(r["cpu_s"] for r in timed)
    result["item_p50_s"] = statistics.median(r["wall_s"] for r in timed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_facts()
    print(json.dumps(result))
    return 0


def record(wl) -> int:
    """Reference values and digests for every pool seed; refuses to record an
    item whose structural checks (bounds, chain identity, residuals) fail."""
    wl.warmup()
    refs = {}
    for m in range(POOL):
        out = wl.run(m)
        values = json.loads(json.dumps(wl.values(out)))
        fails = wl.check(m, out, values)
        if fails:
            raise SystemExit(f"{wl.name} seed {m}: {fails}")
        refs[str(m)] = {"values": values, "digest": digest(wl.outputs(out))}
    print(json.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
