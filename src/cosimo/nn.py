"""Trainable simplicial layers with analytic gradients.

Two layer families operate on a signal triple (own level plus lower/upper
projections): a discrete family built from Hodge-Laplacian polynomials, and a
continuous family built from exponential heat filters whose receptive fields
``t_d = exp(tau_d)``, ``t_u = exp(tau_u)`` are themselves trainable. Its heat
weights are `spectral.heat_weights`, so ``t = 0`` (``tau = -inf``) is the
identity and ``t = inf`` (``tau >= 700``) the projection onto the kernel.

Each family has one private pair of per-layer kernels, a forward returning
the pre-activation plus what its backward needs, and that backward. The
standalone layers `discrete_layer`/`cosimo_layer` and `Model` both run them.

Everything is plain numpy with hand-written backward passes; arrays may carry
leading batch dimensions (the simplex axis is always the second-to-last).

`train` is the only optimizer loop: full-batch momentum descent with optional
global-norm clipping, scored by a pluggable readout (MSE by default, the
trajectory experiment's candidate cross-entropy). Checkpoints record the
checksum of their complex, and `load_model` refuses any other complex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .complexes import HodgeOperators, SimplicialComplex, hodge_operators
from .spectral import LOW_FREQUENCY, LevelSpectra, heat_weights


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""


class CheckpointError(ValueError):
    """A checkpoint does not belong to the complex it is loaded onto."""


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def activate(z: np.ndarray, kind: str, slope: float = 0.01) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        return np.where(z > 0, z, slope * z)
    if kind == "identity":
        return z
    raise ValueError(f"unknown nonlinearity {kind!r}")


def activate_grad(z: np.ndarray, kind: str, slope: float = 0.01) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(np.float64)
    if kind == "leaky_relu":
        return np.where(z > 0, 1.0, slope)
    if kind == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown nonlinearity {kind!r}")


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CochainTriple:
    """A level-k signal together with its lower and upper projections."""

    level: int
    own: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def project(
    ops: HodgeOperators,
    x_k: np.ndarray,
    x_km1: np.ndarray | None = None,
    x_kp1: np.ndarray | None = None,
) -> CochainTriple:
    """Lower/upper projections ``B_k^T X_{k-1}`` and ``B_{k+1} X_{k+1}``.

    A missing neighbor level (argument None, or no incidence matrix at that
    side) projects to zeros.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    if x_k.shape[-2] != ops.n:
        raise ValueError(f"own signal has {x_k.shape[-2]} rows, level has {ops.n}")
    if ops.B_down is not None and x_km1 is not None:
        x_km1 = np.asarray(x_km1, dtype=np.float64)
        if x_km1.shape[-2] != ops.B_down.shape[0]:
            raise ValueError(
                f"lower signal has {x_km1.shape[-2]} rows, "
                f"B_{ops.level} has {ops.B_down.shape[0]}"
            )
        lower = ops.B_down.T @ x_km1
    else:
        lower = np.zeros_like(x_k)
    if ops.B_up is not None and x_kp1 is not None:
        x_kp1 = np.asarray(x_kp1, dtype=np.float64)
        if x_kp1.shape[-2] != ops.B_up.shape[1]:
            raise ValueError(
                f"upper signal has {x_kp1.shape[-2]} rows, "
                f"B_{ops.level + 1} has {ops.B_up.shape[1]}"
            )
        upper = ops.B_up @ x_kp1
    else:
        upper = np.zeros_like(x_k)
    return CochainTriple(level=ops.level, own=x_k, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Standalone layer operations
# ---------------------------------------------------------------------------


def simplicial_filter(x_k: np.ndarray, alphas, betas, ops: HodgeOperators) -> np.ndarray:
    """Polynomial filter ``(sum_i a_i L_down^i + sum_i b_i L_up^i) x``."""
    x_k = np.asarray(x_k, dtype=np.float64)
    L_down = ops.L_down if ops.L_down is not None else None
    out = np.zeros_like(x_k)
    acc = x_k
    for i, a in enumerate(alphas):
        if i > 0:
            acc = L_down @ acc if L_down is not None else np.zeros_like(acc)
        out = out + a * acc
    acc = x_k
    for i, b in enumerate(betas):
        if i > 0:
            acc = ops.L_up @ acc
        out = out + b * acc
    return out


@dataclass
class DiscreteParams:
    """Coefficient weight matrices of the polynomial layer, stacked over the
    polynomial order: each field has shape (T+1, F_in, F_out)."""

    theta_d: np.ndarray
    theta_u: np.ndarray
    psi_d: np.ndarray
    psi_u: np.ndarray

    @property
    def order_down(self) -> int:
        return self.theta_d.shape[0] - 1

    @property
    def order_up(self) -> int:
        return self.theta_u.shape[0] - 1


@dataclass
class CosimoParams:
    """Weights and receptive fields of the continuous layer.

    ``tau_d``/``tau_u`` are unconstrained; the layer uses ``t = exp(tau)`` so
    diffusion times stay positive (``tau = -inf`` encodes the t = 0 edge).
    """

    theta_d: np.ndarray
    theta_u: np.ndarray
    psi_d: np.ndarray
    psi_u: np.ndarray
    tau_d: float = 0.0
    tau_u: float = 0.0

    @property
    def t_d(self) -> float:
        return _exp_tau(self.tau_d)

    @property
    def t_u(self) -> float:
        return _exp_tau(self.tau_u)


def _exp_tau(tau: float) -> float:
    """Saturating ``exp``: huge receptive-field parameters map to t = inf
    instead of overflowing, so the divergence guard can catch them."""
    return math.exp(tau) if tau < 700.0 else math.inf


# (weight, input slot, laplacian side) wiring of the four filter paths; the
# kernels below take and fill weight lists in this order
_PATHS = (
    ("theta_d", "lower", "down"),
    ("psi_d", "own", "down"),
    ("psi_u", "own", "up"),
    ("theta_u", "upper", "up"),
)
_WEIGHT_NAMES = tuple(wname for wname, _, _ in _PATHS)


def _discrete_forward(triple: CochainTriple, weights, ops: HodgeOperators):
    """Pre-activation of one polynomial layer, and the Laplacian powers of
    each path's input that `_discrete_backward` needs."""
    lap = {"down": ops.L_down, "up": ops.L_up}
    pre = None
    powers = []
    for (_, slot, side), W in zip(_PATHS, weights):
        acc = getattr(triple, slot)
        plist = [acc]
        for _ in range(1, W.shape[0]):
            acc = lap[side] @ acc if lap[side] is not None else np.zeros_like(acc)
            plist.append(acc)
        powers.append(plist)
        term = sum(plist[i] @ W[i] for i in range(W.shape[0]))
        pre = term if pre is None else pre + term
    return pre, powers


def _discrete_backward(weights, ops: HodgeOperators, powers, Gp, gweights, gslots):
    """Backward of `_discrete_forward` given ``Gp = dLoss/dpre``: accumulates
    the weight gradients into ``gweights`` and the input gradients into the
    ``gslots`` arrays keyed by slot."""
    lap = {"down": ops.L_down, "up": ops.L_up}
    for (_, slot, side), W, plist, gW in zip(_PATHS, weights, powers, gweights):
        for i in range(W.shape[0]):
            gW[i] += _contract(plist[i], Gp)
        # dX = sum_i L^i (Gp W_i^T), accumulated Horner-style
        total = Gp @ W[W.shape[0] - 1].T
        for i in range(W.shape[0] - 2, -1, -1):
            applied = lap[side] @ total if lap[side] is not None else 0.0
            total = applied + Gp @ W[i].T
        gslots[slot] += total


def _cosimo_forward(triple: CochainTriple, weights, spectra: LevelSpectra, t_d, t_u):
    """Pre-activation of one continuous layer, and the stash
    ``(S_d, S_u, w_d, w_u)`` that `_cosimo_backward` needs. The layer is
    linear in its inputs, so each side mixes its two paths before one
    eigenbasis round-trip: ``pre = sum_s V_s (w_s ⊙ V_s^T Y_s)`` with
    ``Y_d = lower theta_d + own psi_d`` and ``Y_u = own psi_u + upper theta_u``."""
    theta_d, psi_d, psi_u, theta_u = weights
    V_d, V_u = spectra.down.eigenvectors, spectra.up.eigenvectors
    w_d, w_u = heat_weights(spectra.down, t_d), heat_weights(spectra.up, t_u)
    S_d = V_d.T @ (triple.lower @ theta_d + triple.own @ psi_d)
    S_u = V_u.T @ (triple.own @ psi_u + triple.upper @ theta_u)
    pre = V_d @ (w_d[:, None] * S_d) + V_u @ (w_u[:, None] * S_u)
    return pre, (S_d, S_u, w_d, w_u)


def _cosimo_backward(
    triple: CochainTriple, weights, spectra: LevelSpectra, stash, Gp, gweights, gslots,
):
    """Backward of `_cosimo_forward`: accumulates like `_discrete_backward`
    and returns ``(dLoss/dt_d, dLoss/dt_u)``. Two eigenbasis products per
    side, ``V^T Gp`` and ``V (w ⊙ V^T Gp)``."""
    theta_d, psi_d, psi_u, theta_u = weights
    g_theta_d, g_psi_d, g_psi_u, g_theta_u = gweights
    S_d, S_u, w_d, w_u = stash
    dt, gY = [], []
    for spec, S, w in ((spectra.down, S_d, w_d), (spectra.up, S_u, w_u)):
        V = spec.eigenvectors
        GZ = V.T @ Gp
        # d/dt e^{-t lam} = -lam e^{-t lam}, exactly 0 on kernel modes and at t = inf
        dt.append(float(np.sum(GZ * (-(spec.rates * w))[:, None] * S)))
        gY.append(V @ (w[:, None] * GZ))
    gY_d, gY_u = gY
    g_theta_d += _contract(triple.lower, gY_d)
    g_psi_d += _contract(triple.own, gY_d)
    g_psi_u += _contract(triple.own, gY_u)
    g_theta_u += _contract(triple.upper, gY_u)
    gslots["lower"] += gY_d @ theta_d.T
    gslots["own"] += gY_d @ psi_d.T + gY_u @ psi_u.T
    gslots["upper"] += gY_u @ theta_u.T
    return dt[0], dt[1]


def discrete_layer(
    triple: CochainTriple,
    params: DiscreteParams,
    ops: HodgeOperators,
    activation: str = "relu",
    slope: float = 0.01,
) -> np.ndarray:
    """One polynomial layer: Laplacian powers of the projections and the own
    signal, each with its own weight matrix, then the nonlinearity."""
    weights = [getattr(params, wname) for wname in _WEIGHT_NAMES]
    return activate(_discrete_forward(triple, weights, ops)[0], activation, slope)


def cosimo_layer(
    triple: CochainTriple,
    params: CosimoParams,
    spectra: LevelSpectra,
    activation: str = "relu",
    slope: float = 0.01,
) -> np.ndarray:
    """One continuous layer: the four-term exponential Hodge filter (one heat
    kernel per Laplacian), then the nonlinearity. Spectra must be precomputed
    for both Laplacians."""
    if spectra is None:
        raise ValueError("spectra must be precomputed before applying the layer")
    weights = [getattr(params, wname) for wname in _WEIGHT_NAMES]
    pre, _ = _cosimo_forward(triple, weights, spectra, params.t_d, params.t_u)
    return activate(pre, activation, slope)


def aggregate_branches(
    outputs,
    mode: str = "sum",
    agg_weight: np.ndarray | None = None,
    agg_bias: np.ndarray | None = None,
    activation: str = "relu",
    slope: float = 0.01,
) -> np.ndarray:
    """Combine M branch outputs: elementwise sum, or concatenate along the
    feature axis and map back through a learnable affine + nonlinearity."""
    outputs = [np.asarray(o, dtype=np.float64) for o in outputs]
    if not outputs:
        raise ValueError("need at least one branch")
    shape = outputs[0].shape
    for o in outputs[1:]:
        if o.shape != shape:
            raise ValueError(f"branch shape mismatch: {o.shape} vs {shape}")
    if mode == "sum":
        return sum(outputs[1:], outputs[0].copy())
    if mode == "mlp":
        if agg_weight is None:
            raise ValueError("mlp aggregation needs an affine weight")
        C = np.concatenate(outputs, axis=-1)
        pre = C @ agg_weight
        if agg_bias is not None:
            pre = pre + agg_bias
        return activate(pre, activation, slope)
    raise ValueError(f"unknown aggregation mode {mode!r}")


# ---------------------------------------------------------------------------
# Multi-level model with manual backprop
# ---------------------------------------------------------------------------

class Model:
    """Stack of simplicial layers applied synchronously at every level.

    At each depth every retained level k recomputes its projection triple from
    the previous depth's features at levels k-1, k, k+1 and runs its own
    branch bank; the network output is read at ``out_level``.
    """

    def __init__(
        self,
        operators: dict[int, HodgeOperators],
        widths,
        family: str = "cosimo",
        levels=(0, 1, 2),
        out_level: int = 1,
        n_branches: int = 1,
        agg: str = "sum",
        activation: str = "relu",
        leaky_slope: float = 0.01,
        K: int | None = None,
        policy: str = LOW_FREQUENCY,
        order_down: int = 1,
        order_up: int = 1,
        zero_order_weights: bool = True,
        t_init: float = 1.0,
        learn_t: bool = True,
        share_t: bool = True,
        init_std: float | None = None,
        seed=0,
    ):
        if family not in ("cosimo", "discrete"):
            raise ValueError(f"unknown layer family {family!r}")
        self.family = family
        self.levels = tuple(k for k in levels if k in operators and operators[k].n > 0)
        if out_level not in self.levels:
            raise ValueError(f"output level {out_level} not among {self.levels}")
        self.operators = {k: operators[k] for k in self.levels}
        self.widths = [int(w) for w in widths]
        if len(self.widths) < 2:
            raise ValueError("widths must list input and at least one layer width")
        self.depth = len(self.widths) - 1
        self.out_level = out_level
        self.n_branches = int(n_branches)
        self.agg = agg
        if agg not in ("sum", "mlp"):
            raise ValueError(f"unknown aggregation mode {agg!r}")
        self.activation = activation
        self.leaky_slope = leaky_slope
        self.order_down = order_down
        self.order_up = order_up
        self.learn_t = learn_t
        self.share_t = share_t

        self.spectra: dict[int, LevelSpectra] = {}
        if family == "cosimo":
            for k in self.levels:
                ops = self.operators[k]
                kk = ops.n if K is None else min(K, ops.n)
                self.spectra[k] = LevelSpectra.from_operators(ops, kk, kk, policy)

        self.params: dict[str, np.ndarray] = {}
        self.trainable: set[str] = set()
        rng = np.random.default_rng(seed)
        tau0 = math.log(t_init) if t_init > 0 else -math.inf
        for l in range(self.depth):
            f_in, f_out = self.widths[l], self.widths[l + 1]
            std = init_std if init_std is not None else 1.0 / math.sqrt(f_in)
            for k in self.levels:
                for m in range(self.n_branches):
                    base = f"L{l}.k{k}.m{m}"
                    for wname in _WEIGHT_NAMES:
                        if family == "cosimo":
                            w = rng.normal(0.0, std, size=(f_in, f_out))
                        else:
                            order = self.order_down if wname.endswith("_d") else self.order_up
                            w = rng.normal(0.0, std, size=(order + 1, f_in, f_out))
                            if not zero_order_weights:
                                w[0] = 0.0
                        self.params[f"{base}.{wname}"] = w
                        self.trainable.add(f"{base}.{wname}")
                if self.agg == "mlp":
                    aw = rng.normal(
                        0.0,
                        1.0 / math.sqrt(self.n_branches * f_out),
                        size=(self.n_branches * f_out, f_out),
                    )
                    self.params[f"L{l}.k{k}.agg_w"] = aw
                    self.params[f"L{l}.k{k}.agg_b"] = np.zeros(f_out)
                    self.trainable.update({f"L{l}.k{k}.agg_w", f"L{l}.k{k}.agg_b"})
            if family == "cosimo":
                for m in range(self.n_branches):
                    if self.share_t:
                        tau_list = self._tau_names(l, branch=m)
                    else:
                        tau_list = [
                            n for k in self.levels for n in self._tau_names(l, k, m)
                        ]
                    for name in tau_list:
                        self.params[name] = np.array(tau0, dtype=np.float64)
                        if learn_t:
                            self.trainable.add(name)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_complex(cls, complex: SimplicialComplex, widths, **kwargs) -> "Model":
        ops = {k: hodge_operators(complex, k) for k in (0, 1, 2)}
        return cls(ops, widths, **kwargs)

    def with_operators(self, operators: dict[int, HodgeOperators]) -> "Model":
        """Same weights on different operators (e.g. a permuted complex)."""
        clone = Model.__new__(Model)
        clone.__dict__.update(self.__dict__)
        clone.operators = {k: operators[k] for k in self.levels}
        if self.family == "cosimo":
            clone.spectra = {
                k: LevelSpectra.from_operators(
                    operators[k],
                    self.spectra[k].down.K,
                    self.spectra[k].up.K,
                    self.spectra[k].down.selection_policy,
                )
                for k in self.levels
            }
        clone.params = {name: p.copy() for name, p in self.params.items()}
        return clone

    def _tau_names(self, depth: int, level: int | None = None, branch: int = 0):
        if self.share_t:
            return (f"L{depth}.m{branch}.tau_d", f"L{depth}.m{branch}.tau_u")
        return (
            f"L{depth}.k{level}.m{branch}.tau_d",
            f"L{depth}.k{level}.m{branch}.tau_u",
        )

    def set_receptive_fields(self, t_d: float, t_u: float) -> None:
        """Pin every layer's diffusion times (used by fixed-t experiments)."""
        for name in self.params:
            if name.endswith("tau_d"):
                self.params[name][()] = math.log(t_d) if t_d > 0 else -math.inf
            elif name.endswith("tau_u"):
                self.params[name][()] = math.log(t_u) if t_u > 0 else -math.inf

    # -- forward -------------------------------------------------------------

    def _weights(self, l: int, k: int, m: int) -> list[np.ndarray]:
        base = f"L{l}.k{k}.m{m}"
        return [self.params[f"{base}.{wname}"] for wname in _WEIGHT_NAMES]

    def _receptive_fields(self, l: int, k: int, m: int) -> tuple[float, float]:
        return tuple(_exp_tau(float(self.params[n])) for n in self._tau_names(l, k, m))

    def _branch_forward(self, l: int, k: int, m: int, triple: CochainTriple):
        weights = self._weights(l, k, m)
        if self.family == "discrete":
            return _discrete_forward(triple, weights, self.operators[k])
        return _cosimo_forward(
            triple, weights, self.spectra[k], *self._receptive_fields(l, k, m)
        )

    def forward(self, inputs: dict[int, np.ndarray], want_cache: bool = True):
        """Run the stack; returns the output-level features and (optionally)
        the cache that `backward` consumes."""
        X = {}
        for k in self.levels:
            if k not in inputs:
                raise ValueError(f"missing input features for level {k}")
            x = np.asarray(inputs[k], dtype=np.float64)
            if x.shape[-2] != self.operators[k].n or x.shape[-1] != self.widths[0]:
                raise ValueError(
                    f"level-{k} input has shape {x.shape}, expected "
                    f"(..., {self.operators[k].n}, {self.widths[0]})"
                )
            X[k] = x
        cache = {"depths": [], "inputs": dict(X)} if want_cache else None

        for l in range(self.depth):
            newX = {}
            dcache = {"X_in": dict(X), "levels": {}}
            for k in self.levels:
                triple = project(self.operators[k], X[k], X.get(k - 1), X.get(k + 1))
                branch_pre, branch_stash, branch_out = [], [], []
                for m in range(self.n_branches):
                    pre, stash = self._branch_forward(l, k, m, triple)
                    out = activate(pre, self.activation, self.leaky_slope)
                    branch_pre.append(pre)
                    branch_stash.append(stash)
                    branch_out.append(out)
                if self.agg == "sum" or self.n_branches == 1:
                    Y = sum(branch_out[1:], branch_out[0])
                    agg_pre = None
                else:
                    C = np.concatenate(branch_out, axis=-1)
                    agg_pre = C @ self.params[f"L{l}.k{k}.agg_w"] + self.params[
                        f"L{l}.k{k}.agg_b"
                    ]
                    Y = activate(agg_pre, self.activation, self.leaky_slope)
                newX[k] = Y
                if want_cache:
                    dcache["levels"][k] = {
                        "triple": triple,
                        "branch_pre": branch_pre,
                        "branch_stash": branch_stash,
                        "branch_out": branch_out,
                        "agg_pre": agg_pre,
                    }
            X = newX
            if want_cache:
                dcache["X_out"] = dict(X)
                cache["depths"].append(dcache)
        return X[self.out_level], cache

    def features_per_depth(self, inputs: dict[int, np.ndarray]):
        """Post-activation features of every level at every depth, including
        the inputs at index 0 (used by the energy-trace analysis)."""
        _, cache = self.forward(inputs, want_cache=True)
        return [cache["inputs"]] + [d["X_out"] for d in cache["depths"]]

    # -- backward ------------------------------------------------------------

    def _branch_backward(self, l, k, m, triple, pre, stash, G, grads, GX_slots):
        Gp = G * activate_grad(pre, self.activation, self.leaky_slope)
        weights = self._weights(l, k, m)
        gweights = [grads[f"L{l}.k{k}.m{m}.{wname}"] for wname in _WEIGHT_NAMES]
        if self.family == "discrete":
            _discrete_backward(weights, self.operators[k], stash, Gp, gweights, GX_slots)
            return
        t_d, t_u = self._receptive_fields(l, k, m)
        dt_d, dt_u = _cosimo_backward(
            triple, weights, self.spectra[k], stash, Gp, gweights, GX_slots
        )
        # dLoss/dtau = dLoss/dt * t; a zero dt stays 0 even at t = inf
        tau_d_name, tau_u_name = self._tau_names(l, k, m)
        grads[tau_d_name] += dt_d * t_d if dt_d else 0.0
        grads[tau_u_name] += dt_u * t_u if dt_u else 0.0

    def backward(self, cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Chain-rule pass over the cached forward; returns gradients keyed
        like `params` (shared receptive fields accumulate naturally)."""
        if cache is None:
            raise ValueError("forward must be run with want_cache=True first")
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        GX = {k: None for k in self.levels}
        GX[self.out_level] = np.asarray(grad_out, dtype=np.float64)

        for l in range(self.depth - 1, -1, -1):
            dcache = cache["depths"][l]
            X_in = dcache["X_in"]
            newGX = {k: np.zeros_like(X_in[k]) for k in self.levels}
            for k in self.levels:
                G = GX[k]
                if G is None:
                    continue
                lv = dcache["levels"][k]
                branch_G = self._aggregation_backward(l, k, lv, G, grads)
                slots = {
                    "own": np.zeros_like(lv["triple"].own),
                    "lower": np.zeros_like(lv["triple"].lower),
                    "upper": np.zeros_like(lv["triple"].upper),
                }
                for m in range(self.n_branches):
                    self._branch_backward(
                        l, k, m,
                        lv["triple"], lv["branch_pre"][m], lv["branch_stash"][m],
                        branch_G[m], grads, slots,
                    )
                ops = self.operators[k]
                newGX[k] += slots["own"]
                if ops.B_down is not None and (k - 1) in self.levels:
                    newGX[k - 1] += ops.B_down @ slots["lower"]
                if ops.B_up is not None and (k + 1) in self.levels:
                    newGX[k + 1] += ops.B_up.T @ slots["upper"]
            GX = newGX
        return grads

    def _aggregation_backward(self, l, k, lv, G, grads):
        if self.agg == "sum" or self.n_branches == 1:
            return [G] * self.n_branches
        agg_pre = lv["agg_pre"]
        Gp = G * activate_grad(agg_pre, self.activation, self.leaky_slope)
        C = np.concatenate(lv["branch_out"], axis=-1)
        grads[f"L{l}.k{k}.agg_w"] += _contract(C, Gp)
        grads[f"L{l}.k{k}.agg_b"] += Gp.reshape(-1, Gp.shape[-1]).sum(axis=0)
        GC = Gp @ self.params[f"L{l}.k{k}.agg_w"].T
        f_out = lv["branch_out"][0].shape[-1]
        return [GC[..., m * f_out : (m + 1) * f_out] for m in range(self.n_branches)]

    # -- parameter utilities ---------------------------------------------------

    def spectral_norm_bound(self) -> float:
        """max spectral norm over every weight matrix (all depths, levels,
        branches, polynomial orders); feeds the energy-bound constant. One
        batched SVD per weight shape."""
        by_shape: dict[tuple, list[np.ndarray]] = {}
        for name, p in self.params.items():
            if name.endswith(tuple(_WEIGHT_NAMES)):
                by_shape.setdefault(p.shape[-2:], []).append(p.reshape((-1,) + p.shape[-2:]))
        return max(
            (
                float(np.linalg.svd(np.concatenate(mats), compute_uv=False)[:, 0].max())
                for mats in by_shape.values()
            ),
            default=0.0,
        )


def _contract(A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Weight gradient ``A^T G`` summed over any leading batch axes."""
    At = np.swapaxes(A, -1, -2)
    P = At @ G
    return P.reshape((-1,) + P.shape[-2:]).sum(axis=0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Full-batch gradient descent with heavy-ball momentum (0 is plain GD)
    and optional global-norm gradient clipping (None never clips)."""

    step_size: float = 0.05
    epochs: int = 200
    momentum: float = 0.0
    clip_norm: float | None = None


@dataclass
class TrainingTrace:
    losses: list[float] = field(default_factory=list)


def mse_loss(output: np.ndarray, target: np.ndarray):
    diff = output - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def train(
    model: Model,
    inputs: dict[int, np.ndarray],
    targets,
    config: TrainConfig,
    readout=mse_loss,
) -> TrainingTrace:
    """The optimizer loop: full batch, one forward and backward per epoch.

    ``inputs`` holds the batched features of every model level (leading batch
    axis). ``readout(output, targets)`` returns (loss, dLoss/doutput) and gets
    ``targets`` unchanged, so any head (MSE, candidate cross-entropy) plugs in.
    Each step scales the gradient down to global norm ``clip_norm`` if it is
    longer (norm summed in sorted parameter order, so runs are reproducible
    across processes), then updates ``v = momentum * v + g`` and
    ``p -= step_size * v``.
    """
    velocity = {name: np.zeros_like(model.params[name]) for name in model.trainable}
    names = sorted(model.trainable)
    trace = TrainingTrace()
    for epoch in range(config.epochs):
        out, cache = model.forward(inputs)
        loss_val, grad_out = readout(out, targets)
        if not np.isfinite(loss_val):
            raise TrainingDivergedError(
                f"loss became {loss_val} at epoch {epoch}; "
                f"recent losses: {trace.losses[-5:]}"
            )
        trace.losses.append(loss_val)
        grads = model.backward(cache, grad_out)
        if config.clip_norm is not None:
            gnorm = math.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in names))
            if gnorm > config.clip_norm:
                grads = {n: (config.clip_norm / gnorm) * grads[n] for n in names}
        for name in names:
            velocity[name] = config.momentum * velocity[name] + grads[name]
            model.params[name] -= config.step_size * velocity[name]
        for name in names:
            if not np.all(np.isfinite(model.params[name])):
                raise TrainingDivergedError(
                    f"parameter {name} became non-finite at epoch {epoch}; "
                    f"recent losses: {trace.losses[-5:]}"
                )
    return trace


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: Model, path, complex_checksum: str) -> None:
    payload = {
        "family": model.family,
        "levels": list(model.levels),
        "widths": model.widths,
        "out_level": model.out_level,
        "n_branches": model.n_branches,
        "agg": model.agg,
        "activation": model.activation,
        "leaky_slope": model.leaky_slope,
        "order_down": model.order_down,
        "order_up": model.order_up,
        "learn_t": model.learn_t,
        "share_t": model.share_t,
        "truncation": {
            str(k): {"down": s.down.K, "up": s.up.K, "policy": s.down.selection_policy}
            for k, s in model.spectra.items()
        },
        "complex_checksum": complex_checksum,
        "params": {
            name: {"shape": list(p.shape), "data": [float(v) for v in p.ravel()]}
            for name, p in sorted(model.params.items())
        },
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_model(path, complex: SimplicialComplex) -> Model:
    """Rebuild a saved model on ``complex``; refuses a checkpoint saved for a
    complex with a different checksum."""
    data = json.loads(Path(path).read_text())
    if data["complex_checksum"] != complex.checksum():
        raise CheckpointError(
            f"checkpoint {path} was trained on complex {data['complex_checksum']}, "
            f"not on the given complex {complex.checksum()}"
        )
    trunc = data.get("truncation", {})
    K = None
    policy = LOW_FREQUENCY
    if trunc:
        K = max(v["down"] for v in trunc.values())
        policy = next(iter(trunc.values()))["policy"]
    model = Model.from_complex(
        complex,
        data["widths"],
        family=data["family"],
        levels=tuple(data["levels"]),
        out_level=data["out_level"],
        n_branches=data["n_branches"],
        agg=data["agg"],
        activation=data["activation"],
        leaky_slope=data["leaky_slope"],
        K=K,
        policy=policy,
        order_down=data["order_down"],
        order_up=data["order_up"],
        learn_t=data["learn_t"],
        share_t=data["share_t"],
    )
    for name, spec in data["params"].items():
        arr = np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        if name not in model.params:
            raise CheckpointError(f"checkpoint parameter {name} not present in model")
        if model.params[name].shape != arr.shape:
            raise CheckpointError(
                f"checkpoint parameter {name} has shape {arr.shape}, "
                f"model expects {model.params[name].shape}"
            )
        model.params[name] = arr
    return model
