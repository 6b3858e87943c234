"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to stream
them). Heavy sweeps are shared through module-scoped fixtures so the whole
module stays inside its runtime budget.
"""

import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from cosimo.analysis import (
    permutation_equivariance_check,
    spectral_entropy_select,
    stability_bound,
)
from cosimo.complexes import (
    PerturbedComplex,
    boundary_matrix,
    hodge_operators,
    perturb_incidence,
    random_points,
)
from cosimo.delaunay import delaunay_complex
from cosimo.experiments import (
    DEFAULT_HOLES,
    OversmoothConfig,
    StabilityConfig,
    TrajectoryConfig,
    run_oversmoothing,
    run_stability,
    run_trajectory,
)
from cosimo.nn import Model
from cosimo.spectral import (
    eig_sym,
    exp_filter,
    integrate_diffusion,
    matrix_exp_oracle,
    truncate,
)

from test_nn import _preact_margin, _random_model_and_data, finite_difference_check

_JOBS = max(1, min(2, os.cpu_count() or 1))


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {num:2d}: {status}  ({elapsed:6.1f}s / {budget:.0f}s)  {detail}"
    )
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget:.0f}s budget"


@pytest.fixture(scope="module")
def oversmooth_result():
    config = OversmoothConfig(seed=0, realizations=50)
    t0 = time.monotonic()
    result = run_oversmoothing(config, jobs=_JOBS)
    return result, config, time.monotonic() - t0


def test_01_chain_complex_identity():
    t0 = time.monotonic()
    checked = 0
    for i in range(100):
        n = 10 + (i * 7) % 41  # spans [10, 50]
        holes = DEFAULT_HOLES if i % 2 else ()
        cplx = delaunay_complex(random_points(n, rng_seed=i), hole_disks=holes)
        B1 = boundary_matrix(cplx, 1)
        B2 = boundary_matrix(cplx, 2)
        assert B1.dtype == np.int64 and B2.dtype == np.int64
        if B2.size:
            assert not (B1 @ B2).any(), f"B1 B2 != 0 on complex {i}"
        checked += 1
    _report(1, checked == 100, f"B1@B2 == 0 exactly on {checked} complexes",
            time.monotonic() - t0, 10.0)


def test_02_filter_matches_oracle_and_truncation_monotone():
    t0 = time.monotonic()
    rng = np.random.default_rng(2025)
    worst_rel = 0.0
    monotone = True
    for i in range(50):
        if i % 2:
            n = int(rng.integers(6, 21))
            A = rng.standard_normal((n, n))
            L = (A @ A.T) / n
        else:
            cplx = delaunay_complex(random_points(int(rng.integers(8, 16)), rng_seed=1000 + i))
            k = int(rng.integers(0, 2))
            L = hodge_operators(cplx, k).L
            n = L.shape[0]
        t = float(rng.uniform(0.0, 2.0))
        X = rng.standard_normal((n, 3))
        W = rng.standard_normal((3, 2))
        dense = matrix_exp_oracle(L, t) @ X @ W
        spec = eig_sym(L)
        approx = exp_filter(truncate(spec, n), t, X, W)
        rel = np.max(np.abs(approx - dense)) / max(np.max(np.abs(dense)), 1e-30)
        worst_rel = max(worst_rel, rel)
        errs = [
            np.linalg.norm(exp_filter(truncate(spec, K), t, X, W) - dense)
            for K in range(1, n + 1)
        ]
        for a, b in zip(errs, errs[1:]):
            if b > a * (1 + 1e-9) + 1e-12:
                monotone = False
    ok = worst_rel <= 1e-8 and monotone
    _report(2, ok, f"full-K rel err {worst_rel:.2e} <= 1e-8; truncation error "
            f"monotone: {monotone}", time.monotonic() - t0, 30.0)


def test_03_euler_integration_first_order():
    t0 = time.monotonic()
    cplx = delaunay_complex(random_points(15, rng_seed=3))
    ops = hodge_operators(cplx, 1)
    rng = np.random.default_rng(33)
    slopes = []
    for L, t_end in ((ops.L_down, 1.0), (ops.L_up, 1.0)):
        x0 = rng.standard_normal(L.shape[0])
        exact = matrix_exp_oracle(L, t_end) @ x0
        dts = [0.08 / 2**i for i in range(5)]  # 4 halvings
        errs = [
            np.max(np.abs(integrate_diffusion(L, x0, t_end, dt) - exact))
            for dt in dts
        ]
        slopes.append(float(np.polyfit(np.log(dts), np.log(errs), 1)[0]))
    ok = all(abs(s - 1.0) <= 0.1 for s in slopes)
    _report(3, ok, f"Euler convergence slopes {['%.3f' % s for s in slopes]} within 1 +- 0.1",
            time.monotonic() - t0, 30.0)


def test_04_gradients_match_finite_differences():
    t0 = time.monotonic()
    cplx = delaunay_complex(random_points(12, rng_seed=4))
    operators = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    checked = Counter()
    seed = 0
    worst = []
    while checked.total() < 20 and seed < 200:
        seed += 1
        model, inputs, target, cache = _random_model_and_data(operators, seed)
        if model.activation != "identity" and _preact_margin(model, cache) < 1e-3:
            continue
        failures = finite_difference_check(model, inputs, target, rtol=1e-5)
        worst.extend(failures[:1])
        checked[model.activation] += 1
    ok = checked.total() == 20 and not worst and min(checked["relu"], checked["leaky_relu"]) >= 5
    kinds = ", ".join(f"{kind} {checked[kind]}" for kind in ("relu", "leaky_relu", "identity"))
    _report(4, ok, f"{checked.total()} random models ({kinds}), all parameter gradients "
            "at rel-tol 1e-5" + (f"; failures {worst[:2]}" if worst else ""),
            time.monotonic() - t0, 60.0)


def test_05_discrete_energy_bound_never_violated(oversmooth_result):
    result, config, elapsed = oversmooth_result
    viol = result.violations["discrete"]
    total = config.realizations * config.layers
    _report(5, viol == 0, f"discrete energy bound: {viol} violations over {total} "
            "layer evaluations", elapsed, 300.0)


def test_06_continuous_energy_bound_and_threshold_ordering(oversmooth_result):
    result, config, elapsed = oversmooth_result
    cosimo_labels = [lab for lab in result.labels if lab != "discrete"]
    viol = sum(result.violations[lab] for lab in cosimo_labels)
    crossings = [result.crossings[lab] for lab in cosimo_labels]  # ascending t
    ok = viol == 0
    detail = f"continuous energy bound: {viol} violations; crossings(t={list(config.t_grid)}) = {crossings}"
    if any(c is None for c in crossings) or result.crossings["discrete"] is None:
        ok = False
        detail += "; some trace never crossed 1e-10"
    else:
        if not all(a >= b for a, b in zip(crossings, crossings[1:])):
            ok = False
            detail += "; layers-to-threshold not monotone in t"
        if not crossings[0] > result.crossings["discrete"]:
            ok = False
        detail += f"; discrete crossing {result.crossings['discrete']} < t=1e-2 crossing {crossings[0]}"
    _report(6, ok, detail, elapsed, 600.0)


def test_07_stability_bound_and_gap_trend():
    t0 = time.monotonic()
    config = StabilityConfig(seed=0, realizations=30, train_epochs=0)
    result = run_stability(config, jobs=_JOBS)
    diag = [row[2] for row in result.gap_matrix if row[0] == row[1]]
    strictly_decreasing = all(a > b for a, b in zip(diag, diag[1:]))
    ok = result.violations == 0 and strictly_decreasing
    _report(7, ok, f"perturbation bound: {result.violations} violations over "
            f"{len(result.rows)} cells; diagonal gaps {['%.3g' % g for g in diag]} "
            "strictly decreasing", time.monotonic() - t0, 600.0)


def test_08_perturbation_error_scales_linearly():
    t0 = time.monotonic()
    cplx = delaunay_complex(random_points(30, rng_seed=8), hole_disks=DEFAULT_HOLES)
    ops = hodge_operators(cplx, 1)
    rng = np.random.default_rng(88)
    x0 = rng.standard_normal((hodge_operators(cplx, 0).n, 1))
    x2 = rng.standard_normal((hodge_operators(cplx, 2).n, 1))
    x1 = rng.standard_normal((ops.n, 1))
    xd = ops.B_down.T @ x0
    xu = ops.B_up @ x2
    base = perturb_incidence(cplx, 0.0, 0.0, rng_seed=9)
    eps, lhs = [], []
    for e in range(2, 7):  # 4 decades of scale
        s = 10.0 ** (-e)
        pert = PerturbedComplex(cplx, base.E_1 * s, base.E_2 * s)
        rep = stability_bound(ops, pert, xd, xu, x1, 1.0, 2.0)
        eps.append(pert.epsilon(1) + pert.epsilon(2))
        lhs.append(rep.lhs)
    slope = float(np.polyfit(np.log(eps), np.log(lhs), 1)[0])
    ok = abs(slope - 1.0) <= 0.15
    _report(8, ok, f"error-vs-epsilon log-log slope {slope:.4f} within 1 +- 0.15",
            time.monotonic() - t0, 60.0)


def test_09_permutation_equivariance_both_families():
    t0 = time.monotonic()
    cplx = delaunay_complex(random_points(30, rng_seed=90))
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    devs = {}
    for family in ("cosimo", "discrete"):
        model = Model(ops, [2, 3, 2], family=family, out_level=1, seed=91)
        devs[family] = permutation_equivariance_check(model, rng_seed=92, n_perms=20)
    ok = all(d <= 1e-10 for d in devs.values())
    _report(9, ok, "max deviation over 20 permutation triples: "
            + ", ".join(f"{f}={d:.2e}" for f, d in devs.items()),
            time.monotonic() - t0, 30.0)


@pytest.mark.slow
def test_10_trajectory_model_beats_uniform_baseline():
    t0 = time.monotonic()
    config = TrajectoryConfig(seed=0, realizations=10, branches=3)
    result = run_trajectory(config, jobs=_JOBS)
    margin = result.accuracy_mean - result.baseline_mean
    ok = margin >= 0.15
    _report(10, ok, f"trained accuracy {result.accuracy_mean:.3f} vs uniform "
            f"{result.baseline_mean:.3f} (margin {margin * 100:.1f}pp >= 15pp, 10 seeds)",
            time.monotonic() - t0, 600.0)


def test_11_spectral_entropy_selector():
    t0 = time.monotonic()
    K, _ = spectral_entropy_select(np.array([0.0, 1.0, 9.0]), tau=0.05)
    ok = K == 2
    for n in (2, 7, 31):
        _, H = spectral_entropy_select(np.full(n, 2.5), tau=0.05)
        ok = ok and abs(H - math.log(n)) <= 1e-12
    _report(11, ok, f"K({{0,1,9}}, tau=0.05) = {K}; uniform-spectrum entropy = ln n to 1e-12",
            time.monotonic() - t0, 1.0)


def test_12_experiments_are_bit_reproducible(tmp_path):
    t0 = time.monotonic()
    ok = True
    details = []
    configs = (
        ("oversmooth", OversmoothConfig(seed=7, realizations=2, layers=10),
         run_oversmoothing, ["oversmooth_results.csv"]),
        ("stability", StabilityConfig(seed=7, realizations=2, snr_grid_db=(0.0, 20.0),
                                      train_epochs=25),
         run_stability, ["stability_results.csv", "stability_gap_matrix.csv"]),
        ("trajectory", TrajectoryConfig(seed=7, realizations=2, epochs=10,
                                        n_trajectories=40),
         run_trajectory, ["trajectory_results.csv"]),
    )
    for name, config, runner, files in configs:
        runner(config, out_dir=tmp_path / name / "a", jobs=1)
        runner(config, out_dir=tmp_path / name / "b", jobs=_JOBS)
        for f in files:
            same = (tmp_path / name / "a" / f).read_bytes() == (
                tmp_path / name / "b" / f
            ).read_bytes()
            ok = ok and same
            details.append(f"{f}:{'=' if same else '!='}")
    _report(12, ok, "rerun CSV payloads byte-identical: " + " ".join(details),
            time.monotonic() - t0, 120.0)
