"""Desk-scale experiment harnesses: over-smoothing sweeps, the SNR stability
study, and synthetic trajectory prediction.

Every run is driven by a single master seed; realization r derives all of its
randomness from ``default_rng([seed, r, stream])`` with fixed stream ids, so
reruns are bit-identical and realizations can execute in parallel.

Given an ``out_dir``, each ``run_*`` writes its files there through one
writer, `_write_run`: ``oversmooth_results.csv``, ``stability_results.csv``
and ``stability_gap_matrix.csv``, or ``trajectory_results.csv``, then
``{experiment}_manifest.json`` (`write_manifest`). Without one it writes
nothing.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .analysis import (
    energy_trace,
    lambda_max_tilde,
    model_constants,
    operator_extremes,
    oversmoothing_rhs_continuous,
    oversmoothing_rhs_discrete,
    phi_constant,
    stability_bound,
)
from .complexes import (
    SimplicialComplex,
    hodge_operators,
    perturb_incidence,
    random_points,
    scale_incidences,
)
from .delaunay import delaunay_complex
from .nn import _ACTIVATIONS, Model, TrainConfig, _project, stacked_mse_loss, train
from .spectral import cosimo_filter

DEFAULT_HOLES = (((0.3, 0.3), 0.12), ((0.7, 0.7), 0.12))


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A JSON experiment config (or hole list) breaks the rules on its
    settings' fields, or its settings cannot run. The message lists every
    violation as ``  $.path: message``, sorted by path."""


# Each setting is described once, on its dataclass field: metadata["check"]
# is the checker of its JSON value, the rest of the metadata its rule. A
# checker takes (value, rule, JSON path, errors), appends (path, message) per
# violation and returns the value as the config holds it. It never raises,
# and once any violation is recorded what it returns is not used.

_BOUNDS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # names in `operator`


def _number(value, rule, path, errors):
    """A number, or with ``integer`` a non-boolean integer, never NaN, in the
    bounds (each fails NaN); with ``nullable`` also None. Without ``integer``,
    "inf" and "-inf" spell ±infinity, as floats, since strict JSON has no
    Infinity, and a strict bound at ±inf refuses one."""
    if value is None and rule.get("nullable"):
        return value
    integer = rule.get("integer", False)
    if not integer and value in ("inf", "-inf"):
        value = float(value)
    types = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, types) or value != value:
        errors.append((path, f"{value!r} is not {'an integer' if integer else 'a number'}"))
        return value
    for key, sign in _BOUNDS.items():
        if key in rule and not getattr(operator, key)(value, rule[key]):
            errors.append((path, f"{value!r} is not {sign} {rule[key]!r}"))
    return value


def _numbers(value, rule, path, errors):
    """A non-empty list of numbers under the rule, as a tuple."""
    if not isinstance(value, list) or not value:
        errors.append((path, f"{value!r} is not a non-empty list of numbers"))
        return value
    return tuple(_number(v, rule, f"{path}[{i}]", errors) for i, v in enumerate(value))


def _holes(value, rule, path, errors):
    """A list of hole disks ``[cx, cy, r]`` with ``r >= 0``, as ``((cx, cy), r)``."""
    if not isinstance(value, list):
        errors.append((path, f"{value!r} is not a list of [cx, cy, r] triples"))
        return value
    holes = []
    for i, hole in enumerate(value):
        if not isinstance(hole, list) or len(hole) != 3:
            errors.append((f"{path}[{i}]", f"{hole!r} is not a [cx, cy, r] triple"))
            continue
        cx, cy, r = (_number(v, {"ge": 0} if j == 2 else {}, f"{path}[{i}][{j}]", errors)
                     for j, v in enumerate(hole))
        holes.append(((cx, cy), r))
    return value if errors else tuple(holes)


def _choice(value, rule, path, errors):
    if value not in rule["choices"]:
        errors.append((path, f"{value!r} is not one of {list(rule['choices'])}"))
    return value


def _object(value, rule, path, errors):
    """An object of the settings in ``fields`` (name -> rule), unknown keys
    refused, ``required`` ones present; built into ``of`` if given."""
    if not isinstance(value, dict):
        errors.append((path, f"{value!r} is not an object"))
        return value
    errors += [(f"{path}.{key}", "required setting missing")
               for key in rule.get("required", ()) if key not in value]
    checked = {}
    for key, item in value.items():
        sub = rule["fields"].get(key)
        if sub is None:
            errors.append((f"{path}.{key}", "unknown setting"))
        else:
            checked[key] = sub["check"](item, sub, f"{path}.{key}", errors)
    return rule["of"](**checked) if "of" in rule else checked


def _checked(value, rule, path: str, what: str):
    """``value`` as checked by ``rule``; raises `ConfigError` on any violation."""
    errors = []
    value = rule["check"](value, rule, path, errors)
    if errors:
        lines = [f"  {where}: {message}" for where, message in sorted(errors)]
        raise ConfigError(f"invalid {what}:\n" + "\n".join(lines))
    return value


def _setting(default, check=_number, **rule):
    return field(default=default, metadata={"check": check, **rule})


def _section(cls, skip=()) -> dict:
    """The rule of a JSON object holding the settings of ``cls``."""
    settings = {f.name: f.metadata for f in fields(cls) if f.name not in skip}
    return {"check": _object, "fields": settings}


@dataclass
class ComplexSpec:
    n_points: int = _setting(30, integer=True, ge=3)
    holes: tuple = _setting(DEFAULT_HOLES, _holes)


@dataclass
class _RunConfig:
    """The settings every experiment shares, at the top level of its JSON,
    checked by the rules here; an experiment may change a default."""

    seed: int = _setting(0, integer=True, ge=0)
    realizations: int = _setting(1, integer=True, ge=1)
    complex: ComplexSpec = field(
        default_factory=ComplexSpec, metadata={**_section(ComplexSpec), "of": ComplexSpec}
    )


@dataclass
class OversmoothConfig(_RunConfig):
    realizations: int = 50
    layers: int = _setting(100, integer=True, ge=1)
    features: int = _setting(4, integer=True, ge=1)
    t_grid: tuple = _setting((1e-2, 1e-1, 0.2, 0.5), _numbers, gt=0)
    level: int = _setting(1, integer=True, ge=0, le=2)
    # Global rescaling of the incidence matrices so that the largest Hodge
    # eigenvalue equals this value; None keeps the raw operators.
    lambda_target: float | None = _setting(1.2, nullable=True, gt=0, lt=math.inf)
    # Multiplier on the 1/sqrt(F) weight init of the swept models.
    init_scale: float = _setting(0.8, gt=0, lt=math.inf)
    threshold: float = _setting(1e-10, gt=0)


@dataclass
class StabilityConfig(_RunConfig):
    realizations: int = 30
    snr_grid_db: tuple = _setting((-5.0, 0.0, 10.0, 20.0), _numbers, gt=-math.inf)
    t_d: float = _setting(1.0, ge=0)
    t_u: float = _setting(2.0, ge=0)
    level: int = _setting(1, integer=True, ge=0, le=2)
    train_epochs: int = _setting(500, integer=True, ge=0)
    train_step_size: float = _setting(0.05, gt=0, lt=math.inf)


@dataclass
class TrajectoryConfig(_RunConfig):
    realizations: int = 10
    n_trajectories: int = _setting(200, integer=True, ge=1)
    min_length: int = _setting(4, integer=True, ge=2)
    branches: int = _setting(3, integer=True, ge=1)
    hidden: int = _setting(16, integer=True, ge=1)
    layers: int = _setting(3, integer=True, ge=1)
    epochs: int = _setting(200, integer=True, ge=0)
    step_size: float = _setting(0.05, gt=0, lt=math.inf)
    train_fraction: float = _setting(0.8, gt=0, lt=1)
    turn_bias: float = _setting(3.0, ge=0, lt=math.inf)
    activation: str = _setting("leaky_relu", _choice, choices=_ACTIVATIONS)
    leaky_slope: float = _setting(0.1, ge=0, le=1)


_EXPERIMENTS = {
    "oversmooth": OversmoothConfig,
    "stability": StabilityConfig,
    "trajectory": TrajectoryConfig,
}
# The JSON layout: `experiment`, the shared settings, one section per experiment.
_SHARED = _section(_RunConfig)["fields"]
_CONFIG_RULE = {"check": _object, "required": ("experiment",), "fields": {
    "experiment": {"check": _choice, "choices": tuple(_EXPERIMENTS)},
    **_SHARED,
    **{name: _section(cls, skip=_SHARED) for name, cls in _EXPERIMENTS.items()},
}}


def parse_holes(value, path: str = "$") -> tuple:
    """Hole disks ``((cx, cy), r)`` from a JSON list of ``[cx, cy, r]``, the
    one hole check of configs and ``cosimo generate --holes``."""
    return _checked(value, {"check": _holes}, path, "holes")


def config_from_dict(data):
    """The config of a JSON payload, built from the values the rules on its
    fields checked: lists as tuples, holes as ``((cx, cy), r)``, "inf" and
    "-inf" as ``±math.inf``. The other experiments' sections are checked, then
    ignored. Raises `ConfigError` listing every violation."""
    checked = _checked(data, _CONFIG_RULE, "$", "experiment config")
    sections = {name: checked.pop(name, {}) for name in _EXPERIMENTS}
    kind = checked.pop("experiment")
    return _EXPERIMENTS[kind](**checked, **sections[kind])


def _json_number(v):
    return str(v) if isinstance(v, float) and not math.isfinite(v) else v  # "inf", "-inf"


def _as_json(value, rule):
    """A setting as the JSON value its ``rule`` checks: the inverse of its
    checker."""
    check = rule["check"]
    if check is _object:
        return {key: _as_json(getattr(value, key), sub) for key, sub in rule["fields"].items()}
    if check is _holes:
        return [[_json_number(v) for v in (cx, cy, r)] for (cx, cy), r in value]
    if check is _numbers:
        return [_json_number(v) for v in value]
    return _json_number(value)


def config_to_dict(config) -> dict:
    """The JSON payload of ``config``, the inverse of `config_from_dict`:
    `experiment`, the shared settings and the experiment's section, holes as
    ``[cx, cy, r]`` and an infinite number as "inf" or "-inf", so it is strict
    JSON and reruns through ``cosimo run --config``."""
    kind = next(name for name, cls in _EXPERIMENTS.items() if type(config) is cls)
    shared = _as_json(config, {"check": _object, "fields": _SHARED})
    return {"experiment": kind, **shared, kind: _as_json(config, _CONFIG_RULE["fields"][kind])}


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(path, experiment: str, config, wall_time_s: float, jobs: int,
                   realization: int | None = None) -> None:
    """Run record next to the CSVs: the config (`config_to_dict`, which
    `config_from_dict` reads back) and the realization of a one-realization
    run if given, versions, wall time, and the parallelism it ran with
    (worker processes, cores, BLAS thread variables, null when unset).
    Strict JSON."""
    payload = {
        "experiment": experiment,
        "config": config_to_dict(config),
        **({} if realization is None else {"realization": realization}),
        "master_seed": config.seed,
        "package_version": _pkg_version,
        "numpy_version": np.__version__,
        "wall_time_s": wall_time_s,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
        "created_unix": time.time(),
    }
    Path(path).write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")


def _write_run(out_dir, experiment: str, config, t0: float, jobs: int, tables: dict) -> None:
    """The files of a run: each table ``{name: (header, rows)}`` as
    ``{experiment}_{name}.csv``, then ``{experiment}_manifest.json``
    (`write_manifest`, wall time since ``t0``). Nothing when ``out_dir`` is
    None."""
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    for name, (header, rows) in tables.items():
        write_csv(out_dir / f"{experiment}_{name}.csv", header, rows)
    write_manifest(out_dir / f"{experiment}_manifest.json", experiment, config,
                   time.monotonic() - t0, jobs)


def _realization_complex(spec: ComplexSpec, seed: int, r: int) -> SimplicialComplex:
    points = random_points(spec.n_points, rng_seed=[seed, r, 0])
    return delaunay_complex(points, hole_disks=spec.holes)


def scaled_operators(complex: SimplicialComplex, lambda_target: float | None):
    """Hodge operators of the complex, optionally rescaled so the largest
    lower/upper eigenvalue over all levels, ``lambda_max_tilde`` of the
    records' extremes (`analysis.operator_extremes`), equals
    ``lambda_target``; `ValueError` when every operator is zero. The rescaled
    operators reuse the records of the raw ones
    (`complexes.scale_incidences`), so nothing is decomposed twice."""
    ops = {k: hodge_operators(complex, k) for k in (0, 1, 2)}
    if lambda_target is None:
        return ops
    lam = lambda_max_tilde(operator_extremes(ops))
    return scale_incidences(ops, math.sqrt(lambda_target / lam))


def _level(config, cplx: SimplicialComplex, r: int, experiment: str) -> int:
    """The output level ``config.level``; `ConfigError` if the complex of
    realization ``r`` has no simplex at that level."""
    if not cplx.num_simplices(config.level):
        raise ConfigError(f"invalid experiment config:\n  $.{experiment}.level: "
                          f"{config.level} is empty on the complex of realization {r}")
    return config.level


def _map_realizations(worker, config, realizations: int, jobs: int):
    if jobs <= 1:
        return [worker(config, r) for r in range(realizations)]
    # imported here, so a serial run (and `import cosimo`) never loads
    # concurrent.futures and multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, [config] * realizations, range(realizations)))


# ---------------------------------------------------------------------------
# Over-smoothing sweep
# ---------------------------------------------------------------------------


@dataclass
class OversmoothResult:
    labels: list[str]
    layers: int
    lhs_mean: dict[str, np.ndarray]  # label -> (layers,) mean E at layers 1..L
    lhs_geomean: dict[str, np.ndarray]  # geometric mean (log-scale decay curve)
    rhs_mean: dict[str, np.ndarray]
    violations: dict[str, int]
    crossings: dict[str, int | None]  # first layer whose geomean < threshold
    rows: list[tuple]


def _oversmooth_labels(config: OversmoothConfig) -> list[str]:
    """``discrete``, then ``cosimo_t=`` each ``t`` at 12 significant digits;
    labels that repeat would merge their models' results: `ConfigError`."""
    labels = ["discrete"] + [f"cosimo_t={t:.12g}" for t in config.t_grid]
    if len(set(labels)) < len(labels):
        raise ConfigError("invalid experiment config:\n  $.oversmooth.t_grid: "
                          f"{', '.join(f'{t:.12g}' for t in config.t_grid)} repeat a time")
    return labels


def _oversmooth_worker(config: OversmoothConfig, r: int):
    labels = _oversmooth_labels(config)
    cplx = _realization_complex(config.complex, config.seed, r)
    k = _level(config, cplx, r, "oversmooth")
    ops = scaled_operators(cplx, config.lambda_target)
    widths = [config.features] * (config.layers + 1)
    rng_in = np.random.default_rng([config.seed, r, 1])
    inputs = {j: rng_in.standard_normal((ops[j].n, config.features))
              for j in (0, 1, 2) if ops[j].n > 0}
    std = config.init_scale / math.sqrt(config.features)
    common = dict(out_level=k, activation="relu", init_std=std)
    disc = Model(ops, widths, family="discrete", seed=[config.seed, r, 2], **common)
    reports = {"discrete": oversmoothing_rhs_discrete(
        energy_trace(disc, inputs), k, model_constants(disc))}
    # the continuous models differ only in t: one weight draw, one set of
    # constants, and one forward of their stack, on the same operators
    cos = Model(ops, widths, family="cosimo", seed=[config.seed, r, 3], **common)
    consts = model_constants(cos)
    stacked = Model.stack([cos] * len(config.t_grid))
    del disc, cos  # only the stack stays alive through its forward
    stacked.set_receptive_fields(config.t_grid, config.t_grid)
    for label, t, trace in zip(labels[1:], config.t_grid, energy_trace(stacked, inputs)):
        phi = phi_constant(consts["extremes"], t, t)
        reports[label] = oversmoothing_rhs_continuous(trace, k, consts, phi)
    return {label: (rep.lhs, rep.rhs, (~rep.satisfied).astype(np.int64))
            for label, rep in reports.items()}


def run_oversmoothing(config: OversmoothConfig, out_dir=None, jobs: int = 1) -> OversmoothResult:
    t0 = time.monotonic()
    labels = _oversmooth_labels(config)
    per_real = _map_realizations(_oversmooth_worker, config, config.realizations, jobs)

    lhs_mean, lhs_geomean, rhs_mean, violations, crossings = {}, {}, {}, {}, {}
    rows = []
    for label in labels:
        stacked = np.stack([res[label][0] for res in per_real])
        lhs = stacked.mean(axis=0)
        # Geometric mean tracks the typical log-scale decay; the arithmetic
        # mean is dominated by the slowest single realization at depth.
        geo = np.exp(np.mean(np.log(np.clip(stacked, 1e-300, None)), axis=0))
        rhs = np.mean([res[label][1] for res in per_real], axis=0)
        per_layer = np.sum([res[label][2] for res in per_real], axis=0)
        lhs_mean[label] = lhs
        lhs_geomean[label] = geo
        rhs_mean[label] = rhs
        violations[label] = int(per_layer.sum())
        below = np.nonzero(geo < config.threshold)[0]
        crossings[label] = int(below[0]) + 1 if len(below) else None
        model_name, _, t_str = label.partition("_t=")
        for l in range(config.layers):
            rows.append(
                (
                    model_name,
                    t_str,
                    l + 1,
                    lhs[l],
                    geo[l],
                    rhs[l],
                    int(per_layer[l]),
                )
            )

    _write_run(out_dir, "oversmooth", config, t0, jobs, {"results": (
        ["model", "t", "layer", "lhs_mean", "lhs_geomean", "rhs_mean", "violations"], rows)})
    return OversmoothResult(
        labels=labels,
        layers=config.layers,
        lhs_mean=lhs_mean,
        lhs_geomean=lhs_geomean,
        rhs_mean=rhs_mean,
        violations=violations,
        crossings=crossings,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Stability study
# ---------------------------------------------------------------------------


@dataclass
class StabilityResult:
    """Per-realization rows and per-cell means and stds of the SNR grid.

    Where the bound's ``t delta e^{t delta}`` overflows a float (low SNR or
    large ``t``), a row's ``rhs`` and ``gap`` are ``inf``: the bound holds
    vacuously and counts no violation. A cell with such a row has
    ``gap_mean = inf`` and ``gap_std = nan``.
    """

    rows: list[tuple]  # snr1, snr2, realization, lhs, rhs, gap, pred_error
    gap_matrix: list[tuple]  # snr1, snr2, gap_mean, gap_std, err_mean, err_std
    violations: int


def _stability_worker(config: StabilityConfig, r: int):
    cplx = _realization_complex(config.complex, config.seed, r)
    k = _level(config, cplx, r, "stability")
    # the cells' models read only level k; the other levels give them sizes
    clean_ops = {kk: hodge_operators(cplx, kk) for kk in (0, 1, 2)}
    rng_in = np.random.default_rng([config.seed, r, 1])
    x = {kk: rng_in.standard_normal((cplx.num_simplices(kk), 1)) for kk in (0, 1, 2)}
    clean = _project(clean_ops[k], x[k], x.get(k - 1), x.get(k + 1))
    x_down0, x_up0 = clean.lower, clean.upper
    target = cosimo_filter(clean_ops[k].spectrum_down, clean_ops[k].spectrum_up,
                           x_down0, x_up0, x[k], config.t_d, config.t_u)

    rows = []

    def cells():
        """Bound rows of the SNR cells, in grid order, and the width-1 model
        of each cell when it trains; built one at a time."""
        for ci, snr1 in enumerate(config.snr_grid_db):
            for cj, snr2 in enumerate(config.snr_grid_db):
                pert = perturb_incidence(cplx, snr1, snr2, [config.seed, r, 2, ci, cj])
                rep = stability_bound(
                    clean_ops[k], pert, x_down0, x_up0, x[k], config.t_d, config.t_u
                )
                rows.append([snr1, snr2, r, rep.lhs, rep.rhs, rep.gap, math.nan, rep.satisfied])
                if config.train_epochs > 0:
                    yield Model(
                        {**clean_ops, k: pert.hodge_operators(k)},
                        [1, 1],
                        family="cosimo",
                        out_level=k,
                        activation="identity",
                        seed=[config.seed, r, 3, ci, cj],
                    )

    if config.train_epochs > 0:
        # all cells train at once, one member each; a member's loss is its own
        model = Model.stack(cells(), len(config.snr_grid_db) ** 2)
        trace = train(
            model,
            {kk: x[kk][None] for kk in (0, 1, 2)},
            target[None],
            TrainConfig(
                step_size=config.train_step_size,
                epochs=config.train_epochs,
                momentum=0.9,
            ),
            readout=stacked_mse_loss,
        )
        for row, loss in zip(rows, trace.losses[-1].tolist()):
            row[6] = loss
    else:
        for _ in cells():
            pass
    return [tuple(row) for row in rows]


def run_stability(config: StabilityConfig, out_dir=None, jobs: int = 1) -> StabilityResult:
    """The SNR grid's cells over every realization. A grid value that repeats
    (``0.0`` and ``-0.0`` among them) would give two cells one label:
    `ConfigError`."""
    t0 = time.monotonic()
    grid = config.snr_grid_db
    if len(set(grid)) < len(grid):
        raise ConfigError("invalid experiment config:\n  $.stability.snr_grid_db: "
                          f"{', '.join(f'{v:.12g}' for v in grid)} repeat a value")
    per_real = _map_realizations(_stability_worker, config, config.realizations, jobs)
    all_rows = [row for rows in per_real for row in rows]
    violations = sum(0 if row[7] else 1 for row in all_rows)
    rows = [row[:7] for row in all_rows]

    gap_matrix = []
    for cell in zip(*per_real):  # grid cell c is row c of every realization
        gaps = np.array([row[5] for row in cell])
        errs = np.array([row[6] for row in cell])
        gap_matrix.append(
            (
                *cell[0][:2],
                float(gaps.mean()),
                float(gaps.std()) if np.all(np.isfinite(gaps)) else math.nan,
                float(errs.mean()) if np.all(np.isfinite(errs)) else math.nan,
                float(errs.std()) if np.all(np.isfinite(errs)) else math.nan,
            )
        )

    _write_run(out_dir, "stability", config, t0, jobs, {
        "results": (["snr1_db", "snr2_db", "realization", "lhs", "rhs", "gap", "pred_error"],
                    rows),
        "gap_matrix": (["snr1_db", "snr2_db", "gap_mean", "gap_std", "pred_error_mean",
                        "pred_error_std"], gap_matrix),
    })
    return StabilityResult(rows=rows, gap_matrix=gap_matrix, violations=violations)


# ---------------------------------------------------------------------------
# Synthetic trajectory prediction
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryDataset:
    """Non-backtracking walks with orientation-signed prefix edge flows."""

    complex: SimplicialComplex
    trajectories: list[tuple[int, ...]]
    flows: np.ndarray  # (n_traj, n_edges, 1)
    candidates: list[list[int]]
    labels: list[int]


def generate_trajectories(
    complex: SimplicialComplex, n_traj: int, min_len: int, rng_seed,
    turn_bias: float = 3.0,
) -> TrajectoryDataset:
    """Sample non-backtracking random walks along edges.

    When the complex carries vertex positions, steps keep a persistent
    heading: the next vertex is drawn with probability proportional to
    ``exp(turn_bias * cos(turning angle))``, which makes continuations
    predictable from the prefix (a uniform non-backtracking walk has almost
    no learnable structure). Without positions, or with ``turn_bias = 0``,
    steps are uniform over the non-backtracking neighbors.

    The prefix (all but the final hop) becomes a +-1 oriented edge flow; the
    label is the walk's final vertex, always a neighbor of the penultimate
    one. Walks that hit a dead end are resampled within a retry budget.
    A step's neighbors and probabilities depend only on the directed edge
    ``(prev, cur)`` it leaves, so each is weighed once per call and kept.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1 walk, got {n_traj}")
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2 hops, got {min_len}")
    rng = np.random.default_rng(rng_seed)
    adj: dict[int, list[int]] = {v: [] for v in complex.vertices}
    for a, b in complex.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    eidx = complex.edge_index
    n_e = len(complex.edges)
    pos = complex.positions

    def step_probs(cur: int, prev: int, nbrs: list[int]) -> np.ndarray:
        if pos is None or turn_bias == 0.0 or prev < 0:
            return np.full(len(nbrs), 1.0 / len(nbrs))
        heading = pos[cur] - pos[prev]
        hn = np.linalg.norm(heading)
        if hn < 1e-12:
            return np.full(len(nbrs), 1.0 / len(nbrs))
        logits = []
        for v in nbrs:
            d = pos[v] - pos[cur]
            dn = np.linalg.norm(d)
            cosang = float(heading @ d) / (hn * dn) if dn > 0 else 0.0
            logits.append(turn_bias * cosang)
        p = np.exp(np.array(logits) - max(logits))
        return p / p.sum()

    # (cur, prev) -> (non-backtracking neighbors, their step probabilities)
    steps: dict[tuple[int, int], tuple[list[int], np.ndarray | None]] = {}
    walks, flows, candidates, labels = [], [], [], []
    budget = 100 * n_traj
    while len(walks) < n_traj:
        if budget <= 0:
            raise RuntimeError(
                f"retry budget exhausted after collecting {len(walks)}/{n_traj} walks; "
                "complex too sparse for non-backtracking walks of this length"
            )
        budget -= 1
        hops = int(min_len + rng.integers(0, 4))
        path = [int(rng.integers(len(complex.vertices)))]
        prev = -1
        ok = True
        for _ in range(hops):
            step = steps.get((path[-1], prev))
            if step is None:
                nbrs = [v for v in adj[path[-1]] if v != prev]
                step = steps[path[-1], prev] = (nbrs, step_probs(path[-1], prev, nbrs) if nbrs else None)
            nbrs, p = step
            if not nbrs:
                ok = False
                break
            nxt = int(rng.choice(nbrs, p=p))
            prev = path[-1]
            path.append(nxt)
        if not ok:
            continue
        flow = np.zeros((n_e, 1))
        for u, v in zip(path[:-2], path[1:-1]):
            e = (u, v) if u < v else (v, u)
            flow[eidx[e], 0] += 1.0 if u < v else -1.0
        walks.append(tuple(path))
        flows.append(flow)
        candidates.append(list(adj[path[-2]]))
        labels.append(path[-1])
    return TrajectoryDataset(
        complex=complex,
        trajectories=walks,
        flows=np.stack(flows),
        candidates=candidates,
        labels=labels,
    )


def _stratified_split(labels, train_fraction: float, rng: np.random.Generator):
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    train_idx, test_idx = [], []
    for lab in sorted(by_label):
        idx = np.array(by_label[lab])
        rng.shuffle(idx)
        n_test = int(round((1.0 - train_fraction) * len(idx)))
        test_idx.extend(int(i) for i in idx[:n_test])
        train_idx.extend(int(i) for i in idx[n_test:])
    if not test_idx:
        test_idx.append(train_idx.pop())
    return sorted(train_idx), sorted(test_idx)


def _candidate_scores(out: np.ndarray, B1: np.ndarray, candidates) -> list[np.ndarray]:
    return [B1[cand, :] @ out[b, :, 0] for b, cand in enumerate(candidates)]


def _ce_readout(B1, out, targets):
    """Cross-entropy over candidate-node scores read out through B_1;
    ``targets`` is the pair (candidates, labels) of the batch."""
    candidates, labels = targets
    G = np.zeros_like(out)
    loss = 0.0
    scores = _candidate_scores(out, B1, candidates)
    for b, (z, cand, lab) in enumerate(zip(scores, candidates, labels)):
        z = z - z.max()
        p = np.exp(z)
        p /= p.sum()
        pos = cand.index(lab)
        loss -= math.log(max(p[pos], 1e-300))
        p[pos] -= 1.0
        G[b, :, 0] = B1[cand, :].T @ p
    n = len(candidates)
    return loss / n, G / n


def _accuracy(out, B1, candidates, labels) -> float:
    hits = 0
    for score, cand, lab in zip(_candidate_scores(out, B1, candidates), candidates, labels):
        if cand[int(np.argmax(score))] == lab:
            hits += 1
    return hits / len(labels)


@dataclass
class TrajectoryResult:
    rows: list[tuple]  # seed, n_train, n_test, accuracy, uniform_baseline
    accuracy_mean: float
    accuracy_std: float
    baseline_mean: float


@dataclass
class TrajectoryFit:
    model: Model
    complex: SimplicialComplex
    dataset: TrajectoryDataset
    train_idx: list[int]
    test_idx: list[int]
    accuracy: float
    baseline: float


def _traj_batch_inputs(model: Model, dataset: TrajectoryDataset, idx):
    """The walks ``idx`` as inputs of every model level: their edge flows at
    level 1, zeros elsewhere."""
    return {
        k: dataset.flows[idx] if k == 1 else np.zeros((len(idx), model.operators[k].n, 1))
        for k in model.levels
    }


def evaluate_trajectory_model(model: Model, dataset: TrajectoryDataset, idx) -> float:
    B1 = model.operators[1].B_down
    out, _ = model.forward(_traj_batch_inputs(model, dataset, list(idx)), want_cache=False)
    return _accuracy(
        out, B1, [dataset.candidates[i] for i in idx], [dataset.labels[i] for i in idx]
    )


def trajectory_split(config: TrajectoryConfig, cplx: SimplicialComplex, r: int = 0):
    """The walks of realization ``r`` on ``cplx`` (stream ``[seed, r, 1]``)
    and their stratified train/test split (stream ``[seed, r, 2]``). A split
    that leaves no training walk raises `ConfigError`."""
    data = generate_trajectories(
        cplx, config.n_trajectories, config.min_length, [config.seed, r, 1],
        turn_bias=config.turn_bias,
    )
    split_rng = np.random.default_rng([config.seed, r, 2])
    train_idx, test_idx = _stratified_split(data.labels, config.train_fraction, split_rng)
    if not train_idx:
        raise ConfigError("invalid experiment config:\n  $.trajectory.train_fraction: "
                          f"{config.train_fraction!r} of $.trajectory.n_trajectories = "
                          f"{config.n_trajectories} walks leaves no training walk")
    return data, train_idx, test_idx


def uniform_baseline(dataset: TrajectoryDataset, idx) -> float:
    """Accuracy of guessing uniformly among each walk's candidate vertices."""
    return float(np.mean([1.0 / len(dataset.candidates[i]) for i in idx]))


def fit_trajectory_model(config: TrajectoryConfig, r: int = 0) -> TrajectoryFit:
    """Train one realization of the trajectory model and score its test split."""
    cplx = _realization_complex(config.complex, config.seed, r)
    data, train_idx, test_idx = trajectory_split(config, cplx, r)

    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    widths = [1] + [config.hidden] * (config.layers - 1) + [1]
    model = Model(
        ops,
        widths,
        family="cosimo",
        out_level=1,
        n_branches=config.branches,
        activation=config.activation,
        leaky_slope=config.leaky_slope,
        seed=[config.seed, r, 3],
    )
    # Global-norm clipping keeps occasional realizations from blowing up
    # under momentum.
    train(
        model,
        _traj_batch_inputs(model, data, train_idx),
        ([data.candidates[i] for i in train_idx], [data.labels[i] for i in train_idx]),
        TrainConfig(config.step_size, config.epochs, momentum=0.9, clip_norm=5.0),
        readout=partial(_ce_readout, ops[1].B_down),
    )
    acc = evaluate_trajectory_model(model, data, test_idx)
    return TrajectoryFit(
        model, cplx, data, train_idx, test_idx, acc, uniform_baseline(data, test_idx)
    )


def _trajectory_worker(config: TrajectoryConfig, r: int):
    fit = fit_trajectory_model(config, r)
    return (r, len(fit.train_idx), len(fit.test_idx), fit.accuracy, fit.baseline)


def run_trajectory(config: TrajectoryConfig, out_dir=None, jobs: int = 1) -> TrajectoryResult:
    t0 = time.monotonic()
    rows = _map_realizations(_trajectory_worker, config, config.realizations, jobs)
    accs = np.array([row[3] for row in rows])
    _write_run(out_dir, "trajectory", config, t0, jobs, {"results": (
        ["seed", "n_train", "n_test", "accuracy", "uniform_baseline"], rows)})
    return TrajectoryResult(
        rows=rows,
        accuracy_mean=float(accs.mean()),
        accuracy_std=float(accs.std()),
        baseline_mean=float(np.mean([row[4] for row in rows])),
    )
