"""cosimo benchmark: four workloads, end-to-end metrics and a traced
per-module breakdown. See ``bench/README.md`` for what each workload and
metric means.

One run (the form ``BENCHMARK.json`` names):

    python3 bench/run.py --workload trajectory --seed 1 --seconds 15 --trace 0

prints every metric by name with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.

Every workload, ten seeds each plus one traced run, with a spread table:

    python3 bench/run.py --suite --runs 10 --out bench/BENCH_1.json

Two result files side by side, one row per (workload, metric):

    python3 bench/run.py --compare bench/BENCH_0.json bench/BENCH_1.json

Each workload runs in a fresh process whose BLAS/OpenMP thread variables are
pinned to 1 before it starts; items run back to back in a closed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"
BUILD = ROOT / ".bench_build"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes whose set-up time is sampled besides the measured one,
# started before and after it.
SETUP_BEFORE, SETUP_AFTER = 2, 1
# Whole-invocation budget; the contract allows 180 s.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    spawn_ns = time.monotonic_ns()
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--spawn-ns", str(spawn_ns)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def single_run(spec: dict, workload: str, seed: int, seconds: float, trace: int,
               spans: Path | None = None) -> dict:
    """One workload run; returns the record that the result files hold."""
    if not (ROOT / "src" / "cosimo" / "__init__.py").is_file():
        raise BenchError(f"no cosimo sources under {ROOT / 'src'}")
    if not REFERENCES.is_file():
        raise BenchError(f"missing {REFERENCES.name}; run --record-references")
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    before, after = (0, 0) if trace else (SETUP_BEFORE, SETUP_AFTER)
    setup = [_worker(base + ["--setup-only"], deadline) for _ in range(before)]
    extra = ["--spans", str(spans)] if spans else []
    res = _worker(base + ["--trace", str(trace)] + extra, deadline)
    setup.append(res.pop("setup"))
    setup += [_worker(base + ["--setup-only"], deadline) for _ in range(after)]
    res["setup_samples"] = setup
    for key in ("setup_s", "setup_raw_s", "setup_factor"):
        res[key] = statistics.median(s[key] for s in setup)
    if not trace:
        # The speed factor inside items against the one over filler work in
        # the same workers: a ratio that stays put from commit to commit
        # means the factor follows the host, not what the items do.
        res["neutral_factor"] = statistics.median(s["neutral_factor"] for s in setup)
        res["item_factor"] = statistics.mean(i["speed_factor"] for i in res["items"])
        res["item_over_neutral_factor"] = res["item_factor"] / res["neutral_factor"]

    if trace:
        metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    failed = sum(1 for item in res["items"] if item["failures"])
    problems = res.get("trace_failures", [])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": len(res["items"]), "failed": failed,
        "metrics": metrics, "detail": res,
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_run(rec: dict) -> None:
    d = rec["detail"]
    print(f"{rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['attempted']} items, {rec['failed']} failed, "
          f"failed_frac {rec['failed'] / rec['attempted']:.6g}")
    for name, m in rec["metrics"].items():
        print(f"  {name:50s} {_fmt(m['value']):>14s} {m['unit']}")
    for item in d["items"]:
        for f in item["failures"]:
            print(f"  FAILED item seed {item['master_seed']}: {f}")
    for f in d.get("trace_failures", []):
        print(f"  FAILED trace check: {f}")
    for mm in d.get("count_mismatches", []):
        print(f"  call count differs from config: {mm}")
    if "wall_adj_s" in d:
        factors = [i["speed_factor"] for i in d["items"]]
        print(f"  unadjusted: wall_s {d['wall_s']:.6g} s, item_p50_s {d['item_p50_s']:.6g} s, "
              f"cpu_s {d['cpu_s']:.6g} s, setup_s {d['setup_raw_s']:.6g} s; speed factor "
              f"{min(factors):.3f}-{max(factors):.3f} in items, mean {d['item_factor']:.3f}; "
              f"{d['neutral_factor']:.3f} over filler work (ratio {d['item_over_neutral_factor']:.3f}); "
              f"{d['setup_factor']:.3f} in set-up")
    same = sum(1 for i in d["items"] if i.get("digest_matches_reference"))
    print(f"  output digests equal to the reference: {same}/{len(d['items'])}")
    mf = d["machine"]
    print(f"  machine: nproc {mf['nproc']}, python {mf['python']}, numpy {mf['numpy']}, "
          f"BLAS {mf['blas']['name']} {mf['blas']['version']}, threads {mf['thread_env']}")


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


# Listed beside the gated metrics for untraced runs: the unadjusted times,
# and how the speed factor inside items compares with the one over filler work.
DETAIL_ROWS = {"raw.wall_s": "wall_s", "raw.item_p50_s": "item_p50_s", "raw.cpu_s": "cpu_s",
               "raw.setup_s": "setup_raw_s", "probe.item_over_neutral": "item_over_neutral_factor"}


def _series(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for r in runs:
        values = {name: m["value"] for name, m in r["metrics"].items()}
        if not r["trace"]:
            values |= {row: r["detail"][k] for row, k in DETAIL_ROWS.items() if k in r["detail"]}
        for name, v in values.items():
            out.setdefault((r["workload"], name), []).append(v)
    return out


def print_spread(runs: list[dict], spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':12s} {'metric':40s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for (wl, name), vals in _series(runs).items():
        med, q1, q3, sp = spread(vals)
        b = bounds.get(name)
        flag = "" if b is None else ("" if sp < b / 3 else "  (> bound/3)")
        print(f"{wl:12s} {name:40s} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{sp:8.4f} {'' if b is None else b:>6}{flag}")


def compare(prev_path: str, cur_path: str, spec: dict) -> None:
    """Medians of two result files with their ratio. A metric is
    ``unresolved`` when either side's quartile spread exceeds its bound."""
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    prev = _series(json.loads(Path(prev_path).read_text())["runs"])
    cur = _series(json.loads(Path(cur_path).read_text())["runs"])
    print(f"{'workload':12s} {'metric':40s} {'prev':>12s} {'cur':>12s} {'cur/prev':>9s} "
          f"{'spread':>8s} verdict")
    for key in [k for k in prev if k in cur]:
        wl, name = key
        mp, _, _, sp_p = spread(prev[key])
        mc, _, _, sp_c = spread(cur[key])
        ratio = mc / mp if mp else float("nan")
        sp = max(sp_p, sp_c)
        m = meta.get(name, {})
        verdict = "-"
        if "bound" in m:
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if sp > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
            elif -worse > m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
        print(f"{wl:12s} {name:40s} {mp:12.6g} {mc:12.6g} {ratio:9.4f} {sp:8.4f} {verdict}")


def record_references(names: list[str]) -> None:
    """Re-record reference values and digests for every pool seed of the
    named workloads; the other workloads' references are kept."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for w in names:
        refs[w] = _worker(["--workload", w, "--record"], time.monotonic() + 3600)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full run records to this JSON file")
    p.add_argument("--suite", action="store_true",
                   help="every workload, --runs seeds from --seed, then one traced run each")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare", nargs=2, metavar=("PREV", "CUR"))
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.record_references:
            if args.workload is not None and args.workload not in names:
                p.error(f"--workload must be one of {names}")
            record_references([args.workload] if args.workload else names)
            return 0
        if args.suite:
            runs = []
            plan = [(w, args.seed + i, 0) for w in names for i in range(args.runs)]
            plan += [(w, args.seed, 1) for w in names]
            for w, seed, trace in plan:
                rec = single_run(spec, w, seed, seconds, trace)
                print_run(rec)
                runs.append(rec)
            print_spread(runs, spec)
        else:
            if args.workload not in names:
                p.error(f"--workload must be one of {names}")
            spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl" if args.trace else None
            rec = single_run(spec, args.workload, args.seed, seconds, args.trace, spans)
            print_run(rec)
            runs = [rec]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"format": "cosimo-bench/1", "runs": runs}, indent=1) + "\n")
    if not args.suite:
        print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
