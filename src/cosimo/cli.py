"""Command-line surface: complex generation, experiment runs, spectrum
inspection, and trajectory-model training/evaluation.

A checkpoint carries its run: ``cosimo train`` records the config it ran
(`experiments.config_to_dict`) and the realization in ``model.json``, and
``cosimo eval`` rebuilds that run's walks and test split from the record,
so it takes no config. It refuses a checkpoint that records no run, and
`nn.load_model` refuses a malformed checkpoint and a complex other than the
one the model was trained on, whose checksum covers the simplices and the
vertex positions the walks follow.

Exit codes: 0 success, 1 runtime failure, 2 usage error (including a
checkpoint refused as above).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import spectral_entropy_select
from .complexes import (
    ComplexError,
    hodge_operators,
    load_complex,
    random_points,
    save_complex,
)
from .delaunay import TriangulationError, delaunay_complex
from .experiments import (
    _EXPERIMENTS,
    DEFAULT_HOLES,
    ConfigError,
    OversmoothConfig,
    StabilityConfig,
    TrajectoryConfig,
    config_from_dict,
    config_to_dict,
    evaluate_trajectory_model,
    fit_trajectory_model,
    parse_holes,
    run_oversmoothing,
    run_stability,
    run_trajectory,
    trajectory_split,
    uniform_baseline,
    write_manifest,
)
from .nn import CheckpointError, load_model, save_model


class UsageError(ValueError):
    pass


def _parse_holes(text: str):
    try:
        return parse_holes(json.loads(text), "--holes")
    except json.JSONDecodeError as exc:
        raise UsageError(f"--holes must be a JSON list of [cx, cy, r] triples: {exc}")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("COSIMO_OUT") or "results"
    return Path(out)


def _jobs(args, realizations: int) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    env = os.environ.get("COSIMO_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"COSIMO_JOBS must be an integer, got {env!r}")
    return max(1, min(realizations, os.cpu_count() or 1))


def _eigenvalues(n: int, records) -> np.ndarray:
    """Ascending eigenvalues of the sum of the ``n x n`` Laplacians whose
    ``records`` are given: ``L_down L_up = 0``, so its nonzero eigenvalues
    are those of the records, and its other modes are kernel."""
    w = np.concatenate([s.eigenvalues for s in records])
    w = np.sort(w[w != 0.0])
    return np.concatenate([np.zeros(n - len(w)), w])


def cmd_generate(args) -> int:
    holes = DEFAULT_HOLES if args.holes is None else _parse_holes(args.holes)
    points = random_points(args.n, rng_seed=args.seed)
    cplx = delaunay_complex(points, hole_disks=holes)
    save_complex(cplx, args.out)
    summary = {
        "vertices": len(cplx.vertices),
        "edges": len(cplx.edges),
        "triangles": len(cplx.triangles),
        "euler_characteristic": cplx.euler_characteristic(),
    }
    for k in (0, 1, 2):
        ops = hodge_operators(cplx, k)
        if ops.n == 0:
            continue
        w = _eigenvalues(ops.n, (ops.spectrum_down, ops.spectrum_up))
        summary[f"lambda_max_L{k}"] = float(w[-1])
        summary[f"lambda_min_L{k}"] = float(w[0])
    print(json.dumps(summary, indent=1))
    return 0


def _load_config(args, expected: str | None):
    try:
        data = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if expected is not None and isinstance(data, dict):
        stated = data.get("experiment")
        if stated is None:
            data["experiment"] = expected
        elif stated != expected:
            asked = (f"--experiment {expected} conflicts with" if args.command == "run"
                     else f"cosimo {args.command} needs a {expected} config, not")
            raise UsageError(f"{asked} config experiment {stated!r}")
    return config_from_dict(data)


def cmd_run(args) -> int:
    config = _load_config(args, args.experiment)
    out = _out_dir(args)
    jobs = _jobs(args, config.realizations)
    if isinstance(config, OversmoothConfig):
        result = run_oversmoothing(config, out_dir=out, jobs=jobs)
        violations = sum(result.violations.values())
        summary = {"experiment": "oversmooth", "violations": violations,
                   "threshold_crossings": result.crossings}
    elif isinstance(config, StabilityConfig):
        result = run_stability(config, out_dir=out, jobs=jobs)
        violations = result.violations
        summary = {"experiment": "stability", "violations": violations,
                   "cells": len(result.gap_matrix)}
    else:
        result = run_trajectory(config, out_dir=out, jobs=jobs)
        violations = 0
        summary = {"experiment": "trajectory", "accuracy_mean": result.accuracy_mean,
                   "accuracy_std": result.accuracy_std,
                   "uniform_baseline": result.baseline_mean}
    print(json.dumps({**summary, "out": str(out)}))
    if args.strict and violations:
        print(f"strict mode: {violations} bound violations", file=sys.stderr)
        return 1
    return 0


def cmd_inspect(args) -> int:
    """Eigenvalues and spectral entropy of one Laplacian. ``suggested_K`` is,
    per ``tau``, the number of modes that holds all but ``tau`` of the
    spectral mass: a report on the spectrum, not a model setting."""
    path = Path(args.complex)
    if not path.exists():
        raise UsageError(f"complex file not found: {path}")
    cplx = load_complex(path)
    ops = hodge_operators(cplx, args.level)
    records = {"down": (ops.spectrum_down,), "up": (ops.spectrum_up,),
               "full": (ops.spectrum_down, ops.spectrum_up)}[args.op]
    w = _eigenvalues(ops.n, records)
    report = {
        "level": args.level,
        "operator": args.op,
        "n": int(len(w)),
        "eigenvalues_ascending": [float(v) for v in w],
        "lambda_max": float(w[-1]) if len(w) else None,
    }
    try:
        taus = (0.01, 0.02, 0.05, 0.1, 0.2)
        suggestions = {}
        for tau in taus:
            K, H = spectral_entropy_select(w, tau)
            suggestions[f"tau={tau:g}"] = K
            report["spectral_entropy"] = H
        report["suggested_K"] = suggestions
    except ValueError as exc:
        report["spectral_entropy"] = None
        report["suggested_K"] = None
        report["note"] = str(exc)
    print(json.dumps(report, indent=1))
    return 0


def cmd_train(args) -> int:
    if args.realization < 0:
        raise UsageError(f"--realization must be a non-negative integer, got {args.realization}")
    config = _load_config(args, "trajectory")
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    fit = fit_trajectory_model(config, r=args.realization)
    wall_time_s = time.monotonic() - t0
    save_complex(fit.complex, out / "complex.json")
    run = {"config": config_to_dict(config), "realization": args.realization}
    save_model(fit.model, out / "model.json", fit.complex.checksum(), run)
    metrics = {
        "test_accuracy": fit.accuracy,
        "uniform_baseline": fit.baseline,
        "n_train": len(fit.train_idx),
        "n_test": len(fit.test_idx),
        "receptive_fields": fit.model.receptive_fields(),
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1) + "\n")
    write_manifest(out / "train_manifest.json", "train", config, wall_time_s, jobs=1,
                   realization=args.realization)
    print(json.dumps(metrics))
    return 0


def cmd_eval(args) -> int:
    """Score a checkpoint on the test split of the run it records."""
    cpath = Path(args.complex)
    if not cpath.exists():
        raise UsageError(f"complex file not found: {cpath}")
    if not Path(args.model).exists():
        raise UsageError(f"checkpoint file not found: {args.model}")
    cplx = load_complex(cpath)
    model = load_model(args.model, cplx)
    run = json.loads(Path(args.model).read_text()).get("run")
    if not isinstance(run, dict):
        raise CheckpointError(f"checkpoint {args.model} records no run, so its test split "
                              "cannot be rebuilt; train it again with cosimo train")
    config, r = config_from_dict(run.get("config")), run.get("realization")
    if not isinstance(config, TrajectoryConfig) or type(r) is not int or r < 0:
        raise CheckpointError(f"checkpoint {args.model} records no trajectory run with "
                              f"a non-negative realization (realization {r!r})")
    data, _, test_idx = trajectory_split(config, cplx, r)
    acc = evaluate_trajectory_model(model, data, test_idx)
    baseline = uniform_baseline(data, test_idx)
    print(json.dumps({"accuracy": acc, "uniform_baseline": baseline, "n": len(test_idx)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosimo",
        description="Continuous simplicial networks: generation, experiments, inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a random Delaunay 2-complex")
    p.add_argument("--n", type=int, default=30, help="number of uniform points")
    p.add_argument("--holes", default=None, help="JSON [[cx,cy,r],...]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output complex JSON path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--experiment", choices=list(_EXPERIMENTS))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (env COSIMO_OUT)")
    p.add_argument("--strict", action="store_true", help="exit 1 on any bound violation")
    p.add_argument("--jobs", type=int, default=None, help="parallel realizations (env COSIMO_JOBS)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("inspect", help="eigenvalue and entropy report of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--level", type=int, choices=[0, 1, 2], default=0)
    p.add_argument("--op", choices=["down", "up", "full"], default="full")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train", help="train a trajectory model, save a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--realization", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test split of its run")
    p.add_argument("--model", required=True)
    p.add_argument("--complex", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TriangulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ConfigError, ComplexError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
