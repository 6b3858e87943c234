"""Dirichlet energy, over-smoothing and stability bound evaluators.

Each theorem evaluator measures its left-hand side directly on model features
and assembles the right-hand side from the printed constants; a `BoundReport`
records both sides, the constants, and whether the inequality held.

Eigenvalue minima entering the decay rate ``phi`` and the condition number are
taken over *nonzero* eigenvalues; kernel modes carry no Dirichlet energy, and
operators whose spectrum is entirely zero are reported as undefined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import HodgeOperators, PerturbedComplex, hodge_operators_from_incidence
from .nn import Model
from .spectral import LevelSpectra, cosimo_filter, kernel_modes


@dataclass
class BoundReport:
    """Measured lhs vs theoretical rhs of one inequality, plus its constants."""

    lhs: float
    rhs: float
    constants: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + 1e-9 * max(1.0, abs(self.rhs))

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs


# ---------------------------------------------------------------------------
# Dirichlet energy
# ---------------------------------------------------------------------------


def dirichlet_energy(x: np.ndarray, ops: HodgeOperators) -> float:
    """Incidence-form energy ``||B_k x||_F^2 + ||B_{k+1}^T x||_F^2``.

    Multi-feature signals sum the quadratic form over columns (trace form).
    """
    x = np.asarray(x, dtype=np.float64)
    e = 0.0
    if ops.B_down is not None:
        e += float(np.sum((ops.B_down @ x) ** 2))
    if ops.B_up is not None:
        e += float(np.sum((ops.B_up.T @ x) ** 2))
    return e


def signal_norm(x: np.ndarray) -> float:
    """Spectral norm of a signal (a vector is one column)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return float(np.linalg.norm(x, 2)) if x.size else 0.0


@dataclass
class EnergyTrace:
    """Per-depth Dirichlet energies and feature norms of every model level."""

    levels: tuple[int, ...]
    energies: dict[int, list[float]]
    norms: dict[int, list[float]]

    @property
    def depth(self) -> int:
        return len(next(iter(self.energies.values()))) - 1


def energy_trace(model: Model, inputs: dict[int, np.ndarray]) -> EnergyTrace:
    """Forward the model and record E(X_k^l) and the spectral norm ||X_k^l||
    for l = 0..depth."""
    feats = model.features_per_depth(inputs)
    energies, norms = {}, {}
    for k in model.levels:
        xs = [X[k] for X in feats]
        energies[k] = [dirichlet_energy(x, model.operators[k]) for x in xs]
        # one batched SVD per run of depths with equal widths
        groups = (np.stack(list(g)) for _, g in itertools.groupby(xs, key=np.shape))
        norms[k] = [float(s) for g in groups for s in np.linalg.norm(g, 2, axis=(-2, -1))]
    return EnergyTrace(levels=model.levels, energies=energies, norms=norms)


# ---------------------------------------------------------------------------
# Structural constants
# ---------------------------------------------------------------------------


def _eigvals(M: np.ndarray | None) -> np.ndarray | None:
    if M is None or M.size == 0:
        return None
    return np.linalg.eigvalsh(M)


def operator_extremes(operators: dict[int, HodgeOperators]) -> dict:
    """(min nonzero, max) eigenvalue per (level, side); None when undefined."""
    out = {}
    for k, ops in operators.items():
        for side, M in (("down", ops.L_down), ("up", ops.L_up)):
            w = _eigvals(M)
            if w is None:
                out[(k, side)] = (None, None)
                continue
            nonzero = w[~kernel_modes(w)]
            lam_min_pos = float(nonzero[0]) if len(nonzero) else None
            out[(k, side)] = (lam_min_pos, float(w[-1]))
    return out


def lambda_max_tilde(extremes: dict) -> float:
    """max over levels of the largest lower/upper Laplacian eigenvalue."""
    vals = [mx for (_, mx) in extremes.values() if mx is not None]
    if not vals:
        raise ValueError("no operators with a spectrum")
    return max(vals)


def phi_constant(extremes: dict, t_d: float, t_u: float) -> float:
    """Decay rate ``min_k { t_d lam_min(L_{k,d}), t_u lam_min(L_{k,u}) }``
    over nonzero spectra."""
    vals = []
    for (_, side), (mn, _) in extremes.items():
        if mn is None:
            continue
        vals.append((t_d if side == "down" else t_u) * mn)
    if not vals:
        raise ValueError("phi undefined: every operator spectrum is all-zero")
    return min(vals)


def model_constants(model: Model, t_d: float | None = None, t_u: float | None = None) -> dict:
    """Constants shared by the energy bounds: weight norm s, lambda_max, F,
    and (for the continuous family) phi at the given receptive fields."""
    extremes = operator_extremes(model.operators)
    constants = {
        "s": math.sqrt(model.spectral_norm_bound()),
        "lambda_max": lambda_max_tilde(extremes),
        "F": float(model.widths[-1]),
        "extremes": extremes,
    }
    if t_d is not None and t_u is not None:
        constants["t_d"] = t_d
        constants["t_u"] = t_u
        constants["phi"] = phi_constant(extremes, t_d, t_u)
    return constants


# ---------------------------------------------------------------------------
# Over-smoothing bounds
# ---------------------------------------------------------------------------


def _neighbor(trace: EnergyTrace, k: int, l: int):
    e = trace.energies.get(k)
    n = trace.norms.get(k)
    return (e[l] if e else 0.0), (n[l] if n else 0.0)


def oversmoothing_rhs_discrete(trace: EnergyTrace, l: int, k: int, constants: dict) -> BoundReport:
    """Layerwise energy bound of the polynomial family.

    lhs is E(X_k^{l+1}); rhs combines the level-k energy, the neighbor-level
    energies and the norm cross-term with powers 2, 3 and 3.5 of lambda_max.
    """
    s = constants["s"]
    lam = constants["lambda_max"]
    F = constants["F"]
    e_k, n_k = _neighbor(trace, k, l)
    e_km, n_km = _neighbor(trace, k - 1, l)
    e_kp, n_kp = _neighbor(trace, k + 1, l)
    rhs = (
        s * lam**2 * e_k
        + s * lam**3 * (e_km + e_kp)
        + 2.0 * F * s * lam**3.5 * n_k * (n_km + n_kp)
    )
    lhs = trace.energies[k][l + 1]
    return BoundReport(lhs=lhs, rhs=rhs, constants={"s": s, "lambda_max": lam, "F": F, "layer": l + 1})


def oversmoothing_rhs_continuous(trace: EnergyTrace, l: int, k: int, constants: dict) -> BoundReport:
    """Layerwise energy bound of the exponential family at decay rate phi."""
    s = constants["s"]
    lam = constants["lambda_max"]
    F = constants["F"]
    phi = constants["phi"]
    e_k, n_k = _neighbor(trace, k, l)
    e_km, n_km = _neighbor(trace, k - 1, l)
    e_kp, n_kp = _neighbor(trace, k + 1, l)
    rhs = (
        s * (math.exp(-2 * phi) + 1.0) * e_k
        + s * math.exp(-2 * phi) * lam * (e_km + e_kp)
        + 2.0 * F * s * (math.exp(-phi) + math.exp(-2 * phi)) * lam**1.5 * n_k * (n_km + n_kp)
        + 2.0 * F * s * math.exp(-phi) * lam * n_k**2
    )
    lhs = trace.energies[k][l + 1]
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        constants={"s": s, "lambda_max": lam, "F": F, "phi": phi, "layer": l + 1},
    )


# ---------------------------------------------------------------------------
# Stability bound
# ---------------------------------------------------------------------------


def stability_bound(
    clean: LevelSpectra,
    perturbed: PerturbedComplex,
    x_down0: np.ndarray,
    x_up0: np.ndarray,
    x_joint0: np.ndarray,
    t_d: float,
    t_u: float,
) -> BoundReport:
    """Exact filter deviation between clean and perturbed operators vs the
    additive-perturbation bound.

    Both filters run at full spectral resolution from the *same* initial
    conditions; only the Laplacians inside the exponentials differ. The
    epsilons are the measured spectral norms of the incidence errors.
    ``clean`` holds the full spectra of the unperturbed level, which callers
    decompose once and share across perturbations.
    """
    k = clean.level
    pert = LevelSpectra.from_operators(perturbed.hodge_operators(k))
    y_clean = cosimo_filter(clean.down, clean.up, x_down0, x_up0, x_joint0, t_d, t_u)
    y_pert = cosimo_filter(pert.down, pert.up, x_down0, x_up0, x_joint0, t_d, t_u)
    lhs = signal_norm(y_pert - y_clean)

    eps_by_B = {1: perturbed.epsilon_1, 2: perturbed.epsilon_2}
    eps_down = eps_by_B.get(k, 0.0)
    eps_up = eps_by_B.get(k + 1, 0.0)
    lam_down = float(clean.down.eigenvalues[-1]) if clean.down.K else 0.0
    lam_up = float(clean.up.eigenvalues[-1]) if clean.up.K else 0.0
    delta_down = 2.0 * math.sqrt(max(lam_down, 0.0)) * eps_down + eps_down**2
    delta_up = 2.0 * math.sqrt(max(lam_up, 0.0)) * eps_up + eps_up**2
    n_down = signal_norm(x_down0)
    n_up = signal_norm(x_up0)
    n_joint = signal_norm(x_joint0)
    rhs = t_d * delta_down * math.exp(t_d * delta_down) * (n_down + n_joint) + (
        t_u * delta_up * math.exp(t_u * delta_up) * (n_up + n_joint)
    )
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        constants={
            "t_d": t_d,
            "t_u": t_u,
            "eps_down": eps_down,
            "eps_up": eps_up,
            "delta_down": delta_down,
            "delta_up": delta_up,
            "lambda_max_down": lam_down,
            "lambda_max_up": lam_up,
        },
    )


# ---------------------------------------------------------------------------
# Spectral-entropy K selection
# ---------------------------------------------------------------------------


def spectral_entropy_select(eigenvalues: np.ndarray, tau: float = 0.05) -> tuple[int, float]:
    """Pick the mode count K after which the spectral-mass contribution of the
    remaining eigenvalues drops below tau; also returns the spectral entropy
    ``H = -sum p_i ln p_i`` of the normalized eigenvalue distribution."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    w = np.asarray(eigenvalues, dtype=np.float64)
    total = float(w.sum())
    if total <= 0.0 or not np.any(w > 0):
        raise ValueError("spectral entropy undefined for an all-zero spectrum")
    p = w / total
    pos = p[p > 0]
    H = float(-np.sum(pos * np.log(pos)))
    order = np.argsort(p)[::-1]
    cum = np.cumsum(p[order])
    K = int(np.searchsorted(cum, 1.0 - tau) + 1)
    return K, H


# ---------------------------------------------------------------------------
# Permutation equivariance
# ---------------------------------------------------------------------------


def _permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    P = np.zeros((n, n))
    P[np.arange(n), rng.permutation(n)] = 1.0
    return P


def permutation_equivariance_check(model: Model, rng_seed, n_perms: int = 20) -> float:
    """Max deviation between the permuted output and the output of the model
    rebuilt on permuted incidence matrices (relabeled simplices)."""
    rng = np.random.default_rng(rng_seed)
    B1 = model.operators[1].B_down if 1 in model.operators else None
    B2 = model.operators[1].B_up if 1 in model.operators else None
    if B1 is None:
        raise ValueError("equivariance check expects a complex with edges")
    n0, n1 = B1.shape
    n2 = 0 if B2 is None else B2.shape[1]
    worst = 0.0
    for _ in range(n_perms):
        P = {0: _permutation(rng, n0), 1: _permutation(rng, n1), 2: _permutation(rng, n2)}
        B1p = P[0] @ B1 @ P[1].T
        B2p = None if B2 is None else P[1] @ B2 @ P[2].T
        permuted = model.with_operators(
            {k: hodge_operators_from_incidence(B1p, B2p, k) for k in model.levels}
        )
        inputs = {
            k: rng.standard_normal((model.operators[k].n, model.widths[0]))
            for k in model.levels
        }
        perm_inputs = {k: P[k] @ inputs[k] for k in model.levels}
        y, _ = model.forward(inputs, want_cache=False)
        yp, _ = permuted.forward(perm_inputs, want_cache=False)
        dev = float(np.max(np.abs(P[model.out_level] @ y - yp))) if y.size else 0.0
        worst = max(worst, dev)
    return worst
