"""The four benchmark workloads: item generation, correctness checks,
reference values and the call counts each item must produce.

Every item is drawn from a fixed pool of master seeds, so references recorded
once (``references.json``) cover every workload seed. The workload seed only
chooses which pool members run, and in which order.

Library calls go through the ``cosimo`` package attributes at call time, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

import cosimo
from cosimo import experiments

POOL = 32
# Relative tolerance for float reference values: loose enough for a change
# that only reorders floating-point sums, far tighter than any wrong answer.
RTOL = 1e-6
# Eigen-residual and orthonormality tolerance (the acceptance oracle's 1e-8).
EIG_TOL = 1e-8

TRAJECTORY_EPOCHS = 10
ASSEMBLY_POINTS = 300


def item_seeds(seed: int, n_items: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(POOL, size=n_items, replace=n_items > POOL)]


def digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over names, dtypes, shapes and raw bytes of the item outputs."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _close(name: str, got: float, want: float, rtol: float = RTOL) -> list[str]:
    if got == want or abs(got - want) <= rtol * max(abs(want), 1e-300):
        return []
    return [f"{name}: got {got!r}, reference {want!r} (rtol {rtol:g})"]


def _close_all(name: str, got, want, rtol: float = RTOL) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    return [f for i, (g, w) in enumerate(zip(got, want)) for f in _close(f"{name}[{i}]", g, w, rtol)]


@dataclass(frozen=True)
class Workload:
    name: str
    # Seconds of run length per item; fixes the item count for a given run
    # length so that all commits run the same items. About one item's time
    # at the commit that defined the benchmark (one BLAS thread), except for
    # stability, set lower so that a 15 s run has four items, not three,
    # behind its median item time.
    nominal_item_s: float

    def n_items(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_item_s))

    def items(self, seed: int, seconds: float) -> list[int]:
        return item_seeds(seed, self.n_items(seconds))


# ---------------------------------------------------------------------------
# trajectory: one fit_trajectory_model call at the default config
# ---------------------------------------------------------------------------


class Trajectory(Workload):
    def config(self, m: int):
        return replace(experiments.TrajectoryConfig(), seed=m, epochs=TRAJECTORY_EPOCHS)

    def warmup(self):
        cosimo.experiments.fit_trajectory_model(
            replace(experiments.TrajectoryConfig(), n_trajectories=20, epochs=1), 0)

    def run(self, m: int):
        return cosimo.experiments.fit_trajectory_model(self.config(m), 0)

    def values(self, fit) -> dict:
        taus = sorted(n for n in fit.model.params if ".tau_" in n)
        return {
            "accuracy": fit.accuracy,
            "n_test": len(fit.test_idx),
            "t": [math.exp(float(fit.model.params[n])) for n in taus],
        }

    def outputs(self, fit) -> dict:
        out = {f"param.{n}": p for n, p in fit.model.params.items()}
        out["accuracy"] = np.array(fit.accuracy)
        out["test_idx"] = np.array(fit.test_idx)
        return out

    def check(self, m, fit, ref) -> list[str]:
        got = self.values(fit)
        fails = []
        # A reordered sum may flip at most a near-tied argmax: one test walk.
        if abs(got["accuracy"] - ref["accuracy"]) > 1.0 / ref["n_test"] + 1e-12:
            fails.append(f"accuracy {got['accuracy']} vs reference {ref['accuracy']}")
        fails += _close_all("t", got["t"], ref["t"])
        return fails

    def expected_counts(self, m, fit) -> dict[str, int]:
        cfg = self.config(m)
        return {
            "experiments.run": 1,
            "delaunay.delaunay_complex": 1,
            "experiments.generate_trajectories": 1,
            "complexes.hodge_operators": 3,
            "complexes.boundary_matrix": 4,
            "nn.Model.init": 1,
            "spectral.eig_sym": 2 * len(fit.model.levels),
            "nn.Model.forward": cfg.epochs + 1,
            "nn.Model.backward": cfg.epochs,
        }


# ---------------------------------------------------------------------------
# stability: run_stability at realizations=1 (16 SNR cells, 500 epochs each)
# ---------------------------------------------------------------------------


class Stability(Workload):
    def config(self, m: int):
        return replace(experiments.StabilityConfig(), seed=m, realizations=1)

    def warmup(self):
        cosimo.run_stability(replace(
            experiments.StabilityConfig(), realizations=1, snr_grid_db=(0.0,), train_epochs=2))

    def run(self, m: int):
        return cosimo.run_stability(self.config(m))

    def values(self, res) -> dict:
        return {"lhs": [r[3] for r in res.rows], "rhs": [r[4] for r in res.rows],
                "pred_error": [r[6] for r in res.rows]}

    def outputs(self, res) -> dict:
        return {"rows": np.array(res.rows, dtype=np.float64),
                "gap_matrix": np.array(res.gap_matrix, dtype=np.float64)}

    def check(self, m, res, ref) -> list[str]:
        got = self.values(res)
        fails = [] if res.violations == 0 else [f"{res.violations} stability-bound violations"]
        # lhs/rhs come from the filters alone; pred_error is the final loss of
        # each cell's width-1 training run, so it checks the nn layer too.
        for key in ("lhs", "rhs", "pred_error"):
            fails += _close_all(key, got[key], ref[key])
        return fails

    def expected_counts(self, m, res) -> dict[str, int]:
        cfg = self.config(m)
        cells = len(cfg.snr_grid_db) ** 2
        epochs = cfg.train_epochs
        return {
            "experiments.run": 1,
            "delaunay.delaunay_complex": 1,
            "complexes.hodge_operators": 4,
            "complexes.boundary_matrix": 6 + 2 * cells,
            "complexes.perturb_incidence": cells,
            "analysis.stability_bound": cells,
            "complexes.hodge_operators_from_incidence": 4 * cells,
            # clean spectrum once, clean + perturbed per cell inside
            # stability_bound, and one 3-level model per cell
            "spectral.eig_sym": 2 + 4 * cells + 6 * cells,
            "spectral.cosimo_filter": 1 + 2 * cells,
            "nn.Model.init": cells,
            "nn.train": cells,
            "nn.Model.forward": epochs * cells,
            "nn.Model.backward": epochs * cells,
        }


# ---------------------------------------------------------------------------
# oversmooth: run_oversmoothing at realizations=1 (100 layers, 5 models)
# ---------------------------------------------------------------------------


class Oversmooth(Workload):
    def config(self, m: int):
        return replace(experiments.OversmoothConfig(), seed=m, realizations=1)

    def warmup(self):
        cosimo.run_oversmoothing(replace(
            experiments.OversmoothConfig(), realizations=1, layers=2, t_grid=(0.1,)))

    def run(self, m: int):
        return cosimo.run_oversmoothing(self.config(m))

    def values(self, res) -> dict:
        return {
            "final_geomean": {l: float(res.lhs_geomean[l][-1]) for l in res.labels},
            "crossings": dict(res.crossings),
        }

    def outputs(self, res) -> dict:
        out = {}
        for l in res.labels:
            out[f"{l}.lhs_mean"] = res.lhs_mean[l]
            out[f"{l}.lhs_geomean"] = res.lhs_geomean[l]
            out[f"{l}.rhs_mean"] = res.rhs_mean[l]
            out[f"{l}.violations"] = np.array(res.violations[l])
        return out

    def check(self, m, res, ref) -> list[str]:
        got = self.values(res)
        fails = [f"{l}: {v} energy-bound violations" for l, v in res.violations.items() if v]
        if sorted(got["crossings"]) != sorted(ref["crossings"]):
            return fails + [f"labels {sorted(got['crossings'])} vs reference {sorted(ref['crossings'])}"]
        for l, want in ref["crossings"].items():
            if got["crossings"][l] != want:
                fails.append(f"{l} crossing {got['crossings'][l]} vs reference {want}")
            fails += _close(f"{l} final geomean", got["final_geomean"][l], ref["final_geomean"][l])
        return fails

    def expected_counts(self, m, res) -> dict[str, int]:
        cfg = self.config(m)
        models = 1 + len(cfg.t_grid)
        return {
            "experiments.run": 1,
            "delaunay.delaunay_complex": 1,
            "complexes.hodge_operators": 3,
            "complexes.boundary_matrix": 6,
            "complexes.hodge_operators_from_incidence": 3,
            "nn.Model.init": models,
            "spectral.eig_sym": 2 * 3 * len(cfg.t_grid),
            "analysis.energy_trace": models,
            "nn.Model.forward": models,
            "analysis.model_constants": models,
            "nn.Model.spectral_norm_bound": models,
        }


# ---------------------------------------------------------------------------
# assembly: one 300-point complex, its operators and spectra at every level
# ---------------------------------------------------------------------------


@dataclass
class Assembled:
    complex: object
    ops: dict
    spectra: dict


class Assembly(Workload):
    def warmup(self):
        self._build(cosimo.random_points(30, rng_seed=[POOL, 0, 0]))

    def _build(self, points) -> Assembled:
        cplx = cosimo.delaunay_complex(points, hole_disks=experiments.DEFAULT_HOLES)
        ops = {k: cosimo.hodge_operators(cplx, k) for k in (0, 1, 2)}
        spectra = {k: cosimo.LevelSpectra.from_operators(ops[k]) for k in (0, 1, 2)}
        return Assembled(cplx, ops, spectra)

    def run(self, m: int) -> Assembled:
        return self._build(cosimo.random_points(ASSEMBLY_POINTS, rng_seed=[m, 0, 0]))

    def values(self, a: Assembled) -> dict:
        return {
            "counts": [a.complex.num_simplices(k) for k in (0, 1, 2)],
            "eig_sums": {f"{k}.{side}": float(np.sum(getattr(a.spectra[k], side).eigenvalues))
                         for k in (0, 1, 2) for side in ("down", "up")},
        }

    def outputs(self, a: Assembled) -> dict:
        out = {f"simplices.{k}": np.array(a.complex.simplices(k), dtype=np.int64) for k in (0, 1, 2)}
        for k, s in a.spectra.items():
            for side in ("down", "up"):
                sp = getattr(s, side)
                out[f"{k}.{side}.eigenvalues"] = sp.eigenvalues
                out[f"{k}.{side}.eigenvectors"] = sp.eigenvectors
        return out

    def check(self, m, a: Assembled, ref) -> list[str]:
        fails = []
        B1 = cosimo.boundary_matrix(a.complex, 1)
        B2 = cosimo.boundary_matrix(a.complex, 2)
        if not (np.issubdtype(B1.dtype, np.integer) and np.issubdtype(B2.dtype, np.integer)):
            fails.append(f"incidence dtypes {B1.dtype}, {B2.dtype} are not integer")
        elif np.count_nonzero(B1.astype(np.int64) @ B2.astype(np.int64)):
            fails.append("B_1 @ B_2 != 0")
        for k, s in a.spectra.items():
            ops = a.ops[k]
            for side, L in (("down", ops.L_down), ("up", ops.L_up)):
                if L is None:
                    L = np.zeros((ops.n, ops.n))
                sp = getattr(s, side)
                V, w = sp.eigenvectors, sp.eigenvalues
                scale = max(1.0, float(np.max(np.abs(L))) if L.size else 0.0)
                res = float(np.max(np.abs(L @ V - V * w))) / scale if L.size else 0.0
                orth = float(np.max(np.abs(V.T @ V - np.eye(len(w))))) if L.size else 0.0
                if res > EIG_TOL or orth > EIG_TOL:
                    fails.append(f"level {k} {side}: eigen-residual {res:.2e}, orthonormality {orth:.2e}")
        got = self.values(a)
        if got["counts"] != ref["counts"]:
            fails.append(f"simplex counts {got['counts']} vs reference {ref['counts']}")
        for key, want in ref["eig_sums"].items():
            fails += _close(f"eigenvalue sum {key}", got["eig_sums"][key], want)
        return fails

    def expected_counts(self, m, a: Assembled) -> dict[str, int]:
        return {
            "delaunay.delaunay_complex": 1,
            "complexes.hodge_operators": 3,
            "complexes.boundary_matrix": 4,
            "spectral.eig_sym": 6,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Trajectory("trajectory", nominal_item_s=4.0),
        Stability("stability", nominal_item_s=3.75),
        Oversmooth("oversmooth", nominal_item_s=0.55),
        Assembly("assembly", nominal_item_s=2.7),
    )
}
