"""Dirichlet energy, over-smoothing and stability bound evaluators.

Each theorem evaluator measures its left-hand side directly on model features
and assembles the right-hand side from the printed constants; a `BoundReport`
records both sides and whether the inequality held. The over-smoothing
evaluators take a whole `EnergyTrace` and bound every layer at once, so their
report holds one lhs and one rhs per layer.

Eigenvalue minima entering the decay rate ``phi`` and the condition number are
taken over *nonzero* eigenvalues; kernel modes carry no Dirichlet energy, and
operators whose spectrum is entirely zero are reported as undefined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import HodgeOperators, PerturbedComplex, hodge_operators_from_incidence
from .nn import Model
from .spectral import cosimo_filter


@dataclass
class BoundReport:
    """Measured lhs vs theoretical rhs of one inequality: floats, or arrays
    of one value per layer; `satisfied` and `gap` work elementwise."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @property
    def satisfied(self):
        return self.lhs <= self.rhs + 1e-9 * np.maximum(1.0, np.abs(self.rhs))

    @property
    def gap(self):
        return self.rhs - self.lhs


# ---------------------------------------------------------------------------
# Dirichlet energy
# ---------------------------------------------------------------------------


def dirichlet_energy(x: np.ndarray, ops: HodgeOperators):
    """Incidence-form energy ``||B_k x||_F^2 + ||B_{k+1}^T x||_F^2``; an
    empty side (``B_0``, ``B_3``, ``B_2`` without triangles) adds exactly 0.

    Multi-feature signals sum the quadratic form over columns (trace form);
    a vector is one column. A single signal gives a float; leading axes of
    ``x``, or of a stack's incidences ``(E, ., .)``, give an array of one
    energy each.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    e = _squared_norm(ops.B_down @ x) + _squared_norm(np.swapaxes(ops.B_up, -1, -2) @ x)
    return float(e) if np.ndim(e) == 0 else e


def _squared_norm(a: np.ndarray):
    """``||a||_F^2`` over the last two axes, squaring the temporary ``a`` in
    place rather than in a second one."""
    return np.sum(np.square(a, out=a), axis=(-2, -1))


def signal_norm(x: np.ndarray):
    """Spectral norm of a signal, a vector being one column: a float, or an
    array of one norm per matrix over the leading axes of ``x``.

    ``sqrt(lam_max(x^T x))``, the Gram taken over the smaller of the two
    axes. That eigenvalue of the symmetric positive semi-definite Gram is its
    largest singular value: an SVD of a ``min(n, F)``-square matrix in place
    of one of ``x``. A matrix whose largest magnitude ``m`` lies outside
    ``[2^-400, 2^400]`` is first scaled by the power of two nearest ``m``,
    which is exact, so no square overflows and the largest eigenvalue stays
    far from underflow; one in that range is not copied. A zero or empty
    signal has norm 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[-2] < x.shape[-1]:
        x = np.swapaxes(x, -1, -2)
    if x.shape[-1] == 0:
        return 0.0 if x.ndim == 2 else np.zeros(x.shape[:-2])
    m = np.maximum(x.max(axis=(-2, -1)), -x.min(axis=(-2, -1)))
    k = np.where((m >= 2.0**-400) & (m <= 2.0**400), 0, np.frexp(m)[1])
    y = np.ldexp(x, -k[..., None, None]) if k.any() else x
    lam = np.linalg.svd(np.swapaxes(y, -1, -2) @ y, compute_uv=False)[..., 0]
    norm = np.ldexp(np.sqrt(lam), k)
    return float(norm) if norm.ndim == 0 else norm


@dataclass
class EnergyTrace:
    """Per-depth Dirichlet energies and feature norms of every model level,
    float64 arrays ``(depth + 1,)`` from the inputs at index 0 on."""

    levels: tuple[int, ...]
    energies: dict[int, np.ndarray]
    norms: dict[int, np.ndarray]

    @property
    def depth(self) -> int:
        return len(next(iter(self.energies.values()))) - 1


def energy_trace(model: Model, inputs: dict[int, np.ndarray]):
    """Forward the model and record E(X_k^l) and the spectral norm ||X_k^l||
    for l = 0..depth: one `dirichlet_energy` and one `signal_norm` call per
    level and run of depths with equal shapes. A stack (`Model.stack`) gives
    a list of one `EnergyTrace` per member, each equal, byte for byte, to
    that member's own trace."""
    feats = model.features_per_depth(inputs)
    E = model.members
    energies, norms = {}, {}
    for k, ops in model.operators.items():
        level_energies, level_norms = [], []
        # one batched product and norm per run of depths with equal shapes,
        # as (depths, members), one member for an unstacked model; a stack's
        # shared inputs count for every member. Popping frees each level's
        # features once they are stacked.
        for _, group in itertools.groupby((X.pop(k) for X in feats), key=np.shape):
            g = np.stack(list(group))
            size = (len(g), E or 1)
            for out, values in ((level_energies, dirichlet_energy(g, ops)),
                                (level_norms, signal_norm(g))):
                out.append(np.broadcast_to(values.reshape(len(g), -1), size))
        energies[k] = np.concatenate(level_energies).T.copy()
        norms[k] = np.concatenate(level_norms).T.copy()
    traces = [
        EnergyTrace(model.levels, {k: v[e] for k, v in energies.items()},
                    {k: v[e] for k, v in norms.items()})
        for e in range(E or 1)
    ]
    return traces if E is not None else traces[0]


# ---------------------------------------------------------------------------
# Structural constants
# ---------------------------------------------------------------------------


def operator_extremes(operators: dict[int, HodgeOperators]) -> dict:
    """(min nonzero, max) eigenvalue per (level, side), read from the
    operators' records: a zero operator's (level 0 down, level 2 up, level 1
    up without triangles) is (None, 0.0), and only an empty level's is
    (None, None)."""
    out = {}
    for k, ops in operators.items():
        for side, spectrum in (("down", ops.spectrum_down), ("up", ops.spectrum_up)):
            w = spectrum.eigenvalues[spectrum.eigenvalues != 0.0]
            out[(k, side)] = ((float(w[0]), float(w[-1])) if len(w)
                              else (None, 0.0 if ops.n else None))
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


def oversmoothing_rhs_discrete(trace: EnergyTrace, k: int, constants: dict) -> BoundReport:
    """Layerwise energy bound of the polynomial family at every layer.

    lhs is E(X_k^{l+1}) for l = 0..L-1, an array ``(L,)``; rhs combines the
    level-k energy, the neighbor-level energies and the norm cross-term of
    layer l's input with powers 2, 3 and 3.5 of lambda_max. A neighbor level
    that the model lacks has zero energy and norm.
    """
    s = constants["s"]
    lam = constants["lambda_max"]
    F = constants["F"]
    zeros = np.zeros(trace.depth + 1)
    e_km, e_k, e_kp = (trace.energies.get(j, zeros)[:-1] for j in (k - 1, k, k + 1))
    n_km, n_k, n_kp = (trace.norms.get(j, zeros)[:-1] for j in (k - 1, k, k + 1))
    rhs = (
        s * lam**2 * e_k
        + s * lam**3 * (e_km + e_kp)
        + 2.0 * F * s * lam**3.5 * n_k * (n_km + n_kp)
    )
    return BoundReport(lhs=trace.energies[k][1:], rhs=rhs)


def oversmoothing_rhs_continuous(trace: EnergyTrace, k: int, constants: dict) -> BoundReport:
    """Layerwise energy bound of the exponential family at decay rate phi, at
    every layer, like `oversmoothing_rhs_discrete`."""
    s = constants["s"]
    lam = constants["lambda_max"]
    F = constants["F"]
    phi = constants["phi"]
    zeros = np.zeros(trace.depth + 1)
    e_km, e_k, e_kp = (trace.energies.get(j, zeros)[:-1] for j in (k - 1, k, k + 1))
    n_km, n_k, n_kp = (trace.norms.get(j, zeros)[:-1] for j in (k - 1, k, k + 1))
    rhs = (
        s * (math.exp(-2 * phi) + 1.0) * e_k
        + s * math.exp(-2 * phi) * lam * (e_km + e_kp)
        + 2.0 * F * s * (math.exp(-phi) + math.exp(-2 * phi)) * lam**1.5 * n_k * (n_km + n_kp)
        + 2.0 * F * s * math.exp(-phi) * lam * n_k**2
    )
    return BoundReport(lhs=trace.energies[k][1:], rhs=rhs)


# ---------------------------------------------------------------------------
# Stability bound
# ---------------------------------------------------------------------------


def stability_bound(
    clean: HodgeOperators,
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
    epsilons of ``B_k`` and ``B_{k+1}`` are ``perturbed.epsilon``, the
    spectral norms of the incidence errors (0 for the exact zero maps
    ``B_0`` and ``B_3``).
    ``clean`` are the operators of the unperturbed level, whose records
    callers build once and share across perturbations. Where a term
    ``t delta e^{t delta}`` overflows a float, as at low SNR or large ``t``,
    ``rhs`` is ``inf`` and the bound holds vacuously.
    """
    k = clean.level
    y_clean, y_pert = (
        cosimo_filter(o.spectrum_down, o.spectrum_up, x_down0, x_up0, x_joint0, t_d, t_u)
        for o in (clean, perturbed.hodge_operators(k))
    )
    lhs = signal_norm(y_pert - y_clean)

    n_joint = signal_norm(x_joint0)
    rhs = 0.0
    for t, spec, e, x0 in ((t_d, clean.spectrum_down, perturbed.epsilon(k), x_down0),
                           (t_u, clean.spectrum_up, perturbed.epsilon(k + 1), x_up0)):
        delta = 2.0 * math.sqrt(spec.eigenvalues.max(initial=0.0)) * e + e**2
        rhs += _deviation_term(t * delta, signal_norm(x0) + n_joint)
    return BoundReport(lhs=lhs, rhs=rhs)


def _deviation_term(x: float, norm: float) -> float:
    """``x e^x norm``, and ``inf`` where ``e^x`` overflows a float; a zero
    ``norm`` gives 0 for every ``x``."""
    if norm == 0.0:
        return 0.0
    try:
        return x * math.exp(x) * norm
    except OverflowError:
        return math.inf


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
    if 1 not in model.operators:
        raise ValueError("equivariance check expects a complex with edges")
    B1, B2 = model.operators[1].B_down, model.operators[1].B_up
    n0, n1 = B1.shape
    n2 = B2.shape[1]
    worst = 0.0
    for _ in range(n_perms):
        P = {0: _permutation(rng, n0), 1: _permutation(rng, n1), 2: _permutation(rng, n2)}
        B1p = P[0] @ B1 @ P[1].T
        B2p = P[1] @ B2 @ P[2].T
        permuted = model.with_operators(hodge_operators_from_incidence(B1p, B2p))
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
