"""Trainable simplicial layers with analytic gradients.

Two layer families operate on a signal triple (own level plus lower/upper
projections): a discrete family built from Hodge-Laplacian polynomials, and a
continuous family built from exponential heat filters whose receptive fields
``t_d = exp(tau_d)``, ``t_u = exp(tau_u)`` are themselves trainable. Its heat
weights are `spectral.heat_weights`, so ``t = 0`` (``tau = -inf``) is the
identity and ``t = inf`` (``tau >= 700``) the projection onto the kernel.

Each family has one private pair of per-layer kernels, a forward returning
the pre-activation plus what its backward needs, and that backward; `Model`
runs them once per branch. The continuous pair makes one eigenbasis
round-trip per Laplacian, on the narrower side of the weights: the two
stacked inputs (``2 F_in`` columns) when ``2 F_in < F_out``, else the mixed
``F_out``-column output; the order is read from the weight shapes, so
forward and backward always agree.

Everything is plain numpy with hand-written backward passes; arrays may carry
leading batch dimensions (the simplex axis is always the second-to-last).
`Model.forward` computes at depth ``l`` only the levels ``k`` that can reach
the output, ``|k - out_level| <= depth - 1 - l``; the others get gradient 0.

`train` is the only optimizer loop: full-batch momentum descent with optional
global-norm clipping, scored by a pluggable readout (MSE by default, the
trajectory experiment's candidate cross-entropy). It packs the parameters into
one flat vector on first use, after which ``Model.params`` holds views into it:
write parameters in place (``params[name][...] = value``). Checkpoints record
the checksum of their complex, and `load_model` refuses any other complex.

Member axis: `Model.stack` turns E same-config continuous models into one
model whose parameters, incidences and spectra carry a leading axis of length
E (weights ``(E, F_in, F_out)``, receptive fields ``(E,)``, eigenbases
``(E, n, K)``, heat weights ``(E, K)``). The kernels and `project` broadcast
over it (``np.swapaxes`` for transposes, ``w[..., None]`` for mode weights),
and every gradient is reduced to its parameter's own shape: batch axes are
summed, the member axis never is. So E small fits cost one forward and one
backward per epoch instead of E of each, and member ``e`` follows its own
unstacked run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
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
    side) projects to zeros. Incidences stacked over members, ``(E, ., .)``,
    give member-stacked projections of a shared signal.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    if x_k.shape[-2] != ops.n:
        raise ValueError(f"own signal has {x_k.shape[-2]} rows, level has {ops.n}")
    if ops.B_down is not None and x_km1 is not None:
        x_km1 = np.asarray(x_km1, dtype=np.float64)
        if x_km1.shape[-2] != ops.B_down.shape[-2]:
            raise ValueError(
                f"lower signal has {x_km1.shape[-2]} rows, "
                f"B_{ops.level} has {ops.B_down.shape[-2]}"
            )
        lower = np.swapaxes(ops.B_down, -1, -2) @ x_km1
    else:
        lower = np.zeros_like(x_k)
    if ops.B_up is not None and x_kp1 is not None:
        x_kp1 = np.asarray(x_kp1, dtype=np.float64)
        if x_kp1.shape[-2] != ops.B_up.shape[-1]:
            raise ValueError(
                f"upper signal has {x_kp1.shape[-2]} rows, "
                f"B_{ops.level + 1} has {ops.B_up.shape[-1]}"
            )
        upper = ops.B_up @ x_kp1
    else:
        upper = np.zeros_like(x_k)
    return CochainTriple(level=ops.level, own=x_k, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Per-layer kernels
# ---------------------------------------------------------------------------


def _exp_tau(tau: float) -> float:
    """Saturating ``exp``: huge receptive-field parameters map to t = inf
    instead of overflowing, so the divergence guard can catch them."""
    return math.exp(tau) if tau < 700.0 else math.inf


def _exp_taus(tau: np.ndarray):
    """`_exp_tau` of a receptive-field parameter: a float, or an array
    ``(E,)`` of one per member of a stacked model."""
    if np.ndim(tau) == 0:
        return _exp_tau(float(tau))
    return np.array([_exp_tau(v) for v in tau.tolist()])


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
    ``gslots`` arrays keyed by slot; ``gslots=None`` skips the input
    gradients."""
    lap = {"down": ops.L_down, "up": ops.L_up}
    for (_, slot, side), W, plist, gW in zip(_PATHS, weights, powers, gweights):
        for i in range(W.shape[0]):
            gW[i] += _contract(plist[i], Gp)
        if gslots is None:
            continue
        # dX = sum_i L^i (Gp W_i^T), accumulated Horner-style
        total = Gp @ W[W.shape[0] - 1].T
        for i in range(W.shape[0] - 2, -1, -1):
            applied = lap[side] @ total if lap[side] is not None else 0.0
            total = applied + Gp @ W[i].T
        gslots[slot] += total


def _filters_inputs(weights) -> bool:
    """Round-trip order of the continuous kernels, from the weight shapes
    alone: filter each side's two stacked inputs (``2 F_in`` columns) when
    that is narrower than its mixed output (``F_out`` columns)."""
    f_in, f_out = weights[0].shape[-2:]
    return 2 * f_in < f_out


def _side_inputs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a, b]`` along the feature axis; a signal shared by all members
    broadcasts against a member-stacked one."""
    return np.concatenate(np.broadcast_arrays(a, b), axis=-1)


def _dt(GZ: np.ndarray, spec, w: np.ndarray, S: np.ndarray, members: int):
    """``dLoss/dt = sum GZ ⊙ (-rates w) ⊙ S`` for the eigenbasis coefficients
    ``S`` of a side's filtered signal: a float, or one per member."""
    P = GZ * (-(spec.rates * w))[..., None] * S
    return P.reshape(len(P), -1).sum(axis=1) if members else float(np.sum(P))


def _dtau(dt, t):
    """``dLoss/dtau = dLoss/dt * t``; a zero ``dt`` stays 0 even at t = inf."""
    return dt * np.where(dt == 0.0, 0.0, t)


def _cosimo_forward(triple: CochainTriple, weights, spectra: LevelSpectra, t_d, t_u):
    """Pre-activation of one continuous layer, and the stash that
    `_cosimo_backward` needs. The layer is linear in its inputs and
    ``e^{-tL} (X W) = (e^{-tL} X) W``, so each side makes one eigenbasis
    round-trip, on whichever of its inputs or its output is narrower.

    - Input-space (``2 F_in < F_out``): ``A_s = V_s^T X_s`` with the stacked
      inputs ``X_d = [lower, own]``, ``X_u = [own, upper]``, then
      ``Z_s = V_s (w_s ⊙ A_s)`` and ``pre = sum_s Z_s W_s`` with
      ``W_d = [theta_d; psi_d]``, ``W_u = [psi_u; theta_u]``. Stash
      ``((A_d, Z_d, w_d), (A_u, Z_u, w_u))``.
    - Output-space (otherwise): ``S_s = V_s^T Y_s`` with the mixed
      ``Y_d = lower theta_d + own psi_d``, ``Y_u = own psi_u + upper theta_u``,
      and ``pre = sum_s V_s (w_s ⊙ S_s)``. Stash ``(S_d, S_u, w_d, w_u)``.
    """
    theta_d, psi_d, psi_u, theta_u = weights
    V_d, V_u = spectra.down.eigenvectors, spectra.up.eigenvectors
    Vt_d, Vt_u = np.swapaxes(V_d, -1, -2), np.swapaxes(V_u, -1, -2)
    w_d, w_u = heat_weights(spectra.down, t_d), heat_weights(spectra.up, t_u)
    if _filters_inputs(weights):
        A_d = Vt_d @ _side_inputs(triple.lower, triple.own)
        A_u = Vt_u @ _side_inputs(triple.own, triple.upper)
        Z_d, Z_u = V_d @ (w_d[..., None] * A_d), V_u @ (w_u[..., None] * A_u)
        pre = (Z_d @ np.concatenate((theta_d, psi_d), axis=-2)
               + Z_u @ np.concatenate((psi_u, theta_u), axis=-2))
        return pre, ((A_d, Z_d, w_d), (A_u, Z_u, w_u))
    S_d = Vt_d @ (triple.lower @ theta_d + triple.own @ psi_d)
    S_u = Vt_u @ (triple.own @ psi_u + triple.upper @ theta_u)
    pre = V_d @ (w_d[..., None] * S_d) + V_u @ (w_u[..., None] * S_u)
    return pre, (S_d, S_u, w_d, w_u)


def _cosimo_backward(
    triple: CochainTriple, weights, spectra: LevelSpectra, stash, Gp, gweights, gslots,
):
    """Backward of `_cosimo_forward`, in the order it chose from the same
    weights: accumulates like `_discrete_backward` and returns
    ``(dLoss/dt_d, dLoss/dt_u)``, exactly 0 on kernel modes and at
    ``t = inf``; floats, or one per member, shape ``(E,)``, for stacked
    weights ``(E, F_in, F_out)``. ``gslots=None`` skips the input gradients.

    - Input-space: ``GZ_s = V_s^T (Gp W_s^T)``; slot gradients
      ``V_s (w_s ⊙ GZ_s)`` and weight gradients ``Z_s^T Gp``, split by slot
      and by rows; ``dLoss/dt_s = sum GZ_s ⊙ (-rates_s w_s) ⊙ A_s``.
    - Output-space: ``GZ_s = V_s^T Gp`` and ``gY_s = V_s (w_s ⊙ GZ_s)``;
      weight gradients ``slot^T gY_s``, slot gradients ``gY_s W^T``;
      ``dLoss/dt_s = sum GZ_s ⊙ (-rates_s w_s) ⊙ S_s``.
    """
    theta_d, psi_d, psi_u, theta_u = weights
    g_theta_d, g_psi_d, g_psi_u, g_theta_u = gweights
    members = theta_d.ndim - 2
    if _filters_inputs(weights):
        f_in = theta_d.shape[-2]
        dt = []
        for spec, (A, Z, w), W, (gW_a, gW_b), (slot_a, slot_b) in (
            (spectra.down, stash[0], (theta_d, psi_d), (g_theta_d, g_psi_d), ("lower", "own")),
            (spectra.up, stash[1], (psi_u, theta_u), (g_psi_u, g_theta_u), ("own", "upper")),
        ):
            V = spec.eigenvectors
            GZ = np.swapaxes(V, -1, -2) @ (Gp @ np.swapaxes(np.concatenate(W, axis=-2), -1, -2))
            dt.append(_dt(GZ, spec, w, A, members))
            gWX = _contract(Z, Gp, members)
            gW_a += gWX[..., :f_in, :]
            gW_b += gWX[..., f_in:, :]
            if gslots is not None:
                gX = V @ (w[..., None] * GZ)
                gslots[slot_a] += gX[..., :f_in]
                gslots[slot_b] += gX[..., f_in:]
        return dt[0], dt[1]
    S_d, S_u, w_d, w_u = stash
    dt, gY = [], []
    for spec, S, w in ((spectra.down, S_d, w_d), (spectra.up, S_u, w_u)):
        V = spec.eigenvectors
        GZ = np.swapaxes(V, -1, -2) @ Gp
        # d/dt e^{-t lam} = -lam e^{-t lam}, exactly 0 on kernel modes and at t = inf
        dt.append(_dt(GZ, spec, w, S, members))
        gY.append(V @ (w[..., None] * GZ))
    gY_d, gY_u = gY
    g_theta_d += _contract(triple.lower, gY_d, members)
    g_psi_d += _contract(triple.own, gY_d, members)
    g_psi_u += _contract(triple.own, gY_u, members)
    g_theta_u += _contract(triple.upper, gY_u, members)
    if gslots is not None:
        gslots["lower"] += gY_d @ np.swapaxes(theta_d, -1, -2)
        gslots["own"] += gY_d @ np.swapaxes(psi_d, -1, -2) + gY_u @ np.swapaxes(psi_u, -1, -2)
        gslots["upper"] += gY_u @ np.swapaxes(theta_u, -1, -2)
    return dt[0], dt[1]


# ---------------------------------------------------------------------------
# Multi-level model with manual backprop
# ---------------------------------------------------------------------------

class Model:
    """Stack of simplicial layers applied synchronously at every level.

    At each depth a level k recomputes its projection triple from the
    previous depth's features at levels k-1, k, k+1 and runs its own branch
    bank; the network output is read at ``out_level``. `forward` runs level k
    at depth l only if it can reach the output, ``|k - out_level| <= depth -
    1 - l``; `features_per_depth` runs every level. Spectra and parameters
    exist for every level.

    The first `train` or `backward` packs ``params`` into one float64 vector
    and replaces each entry by a view into it, so a parameter must be written
    in place; one that was replaced instead is copied in at the next `train`.
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
        self.members: int | None = None  # set by `stack`

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
        self._flat = None  # packed lazily by `_pack`

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_complex(cls, complex: SimplicialComplex, widths, **kwargs) -> "Model":
        ops = {k: hodge_operators(complex, k) for k in (0, 1, 2)}
        return cls(ops, widths, **kwargs)

    @classmethod
    def stack(cls, models, count: int | None = None) -> "Model":
        """One model holding ``count`` continuous models (default
        ``len(models)``) along a leading member axis, to train them together.

        The members must share their configuration and the simplex counts of
        their complexes; their operators and weights may differ. Parameters
        get shape ``(E, ...)``: weights ``(E, F_in, F_out)``, receptive fields
        ``(E,)``, filled from each member's own values. Per member, the stack
        keeps only what `forward` and `backward` read: the incidences and
        spectra ``(E, n, K)`` of the levels that reach the output, no
        Laplacians; the other levels keep only their sizes. ``models`` is
        read once, into preallocated stacks, so a generator (with ``count``)
        keeps one member model alive at a time.

        A stacked model takes inputs ``(n, F)``, shared by all members, or
        ``(E, n, F)``, and returns ``(E, n, F_out)``; it has no other batch
        axes. Its gradients never sum over members. Train it with a
        per-member readout such as `stacked_mse_loss` and without
        ``clip_norm``; `features_per_depth`, `with_operators` and
        `save_model` refuse it.
        """
        if count is None:
            count = len(models)
        stacked, config, e = None, None, 0
        # no enumerate: it would hold member e while member e + 1 is built
        for member in models:
            if member.family != "cosimo" or member.members is not None:
                kind = "stacked" if member.members is not None else member.family
                raise ValueError(f"model {e} is a {kind} model; only unstacked cosimo models stack")
            if e == count:
                raise ValueError(f"got more than {count} models to stack")
            if stacked is None:
                stacked, config = cls._empty_stack(member, count), _stack_config(member)
            elif _stack_config(member) != config:
                raise ValueError(
                    f"model {e} differs from model 0 in its configuration or simplex counts"
                )
            for dst, src in zip(_member_arrays(stacked), _member_arrays(member)):
                dst[e] = src
            del member
            e += 1
        if e != count:
            raise ValueError(f"expected {count} models to stack, got {e}")
        return stacked

    @classmethod
    def _empty_stack(cls, first: "Model", count: int) -> "Model":
        """A stack of ``count`` members shaped like ``first``, arrays unset."""
        stacked = cls.__new__(cls)
        stacked.__dict__.update(
            {k: v for k, v in first.__dict__.items() if k not in ("_layout", "_views")}
        )
        stacked.members = count
        stacked._flat = None
        stacked.trainable = set(first.trainable)
        stacked.params = {n: np.empty((count,) + np.shape(p)) for n, p in first.params.items()}
        live = first._live_levels()

        def empty(a):
            return None if a is None else np.empty((count,) + a.shape)

        def empty_spectrum(s):
            return replace(s, eigenvalues=empty(s.eigenvalues), eigenvectors=empty(s.eigenvectors))

        stacked.operators = {
            k: replace(ops, L_down=None, L_up=None, L=None,
                       B_down=empty(ops.B_down) if k in live else None,
                       B_up=empty(ops.B_up) if k in live else None)
            for k, ops in first.operators.items()
        }
        stacked.spectra = {
            k: replace(s, down=empty_spectrum(s.down), up=empty_spectrum(s.up))
            for k, s in first.spectra.items() if k in live
        }
        return stacked

    def _live_levels(self) -> list[int]:
        """The levels that reach the output from the inputs."""
        return [k for k in self.levels if abs(k - self.out_level) <= self.depth - 1]

    def with_operators(self, operators: dict[int, HodgeOperators]) -> "Model":
        """Same weights on different operators (e.g. a permuted complex)."""
        if self.members is not None:
            raise ValueError("a stacked model has no single complex to replace")
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
        clone._flat = None
        return clone

    def _tau_names(self, depth: int, level: int | None = None, branch: int = 0):
        if self.share_t:
            return (f"L{depth}.m{branch}.tau_d", f"L{depth}.m{branch}.tau_u")
        return (
            f"L{depth}.k{level}.m{branch}.tau_d",
            f"L{depth}.k{level}.m{branch}.tau_u",
        )

    def receptive_fields(self) -> dict:
        """Diffusion time ``t = exp(tau)`` of every receptive-field parameter,
        keyed by the parameter's name (empty for the discrete family): a
        float, or an array ``(E,)`` of one per member of a stacked model."""
        return {
            name: _exp_taus(p)
            for name, p in sorted(self.params.items())
            if name.endswith(("tau_d", "tau_u"))
        }

    # -- forward -------------------------------------------------------------

    def _weights(self, l: int, k: int, m: int) -> list[np.ndarray]:
        base = f"L{l}.k{k}.m{m}"
        return [self.params[f"{base}.{wname}"] for wname in _WEIGHT_NAMES]

    def _receptive_fields(self, l: int, k: int, m: int):
        """``(t_d, t_u)``: floats, or arrays ``(E,)`` of a stacked model."""
        return tuple(_exp_taus(self.params[n]) for n in self._tau_names(l, k, m))

    def _branch_forward(self, l: int, k: int, m: int, triple: CochainTriple):
        weights = self._weights(l, k, m)
        if self.family == "discrete":
            return _discrete_forward(triple, weights, self.operators[k])
        return _cosimo_forward(
            triple, weights, self.spectra[k], *self._receptive_fields(l, k, m)
        )

    def forward(
        self, inputs: dict[int, np.ndarray], want_cache: bool = True, *, _all_levels=False
    ):
        """Run the stack; returns the output-level features and (optionally)
        the cache that `backward` consumes. Only levels that reach the output
        run, unless `features_per_depth` passes the private ``_all_levels``."""
        E = self.members
        if _all_levels and E is not None:
            raise ValueError("a stacked model keeps only the levels that reach the output")
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
            if E is not None and x.ndim > 2 and (x.ndim > 3 or x.shape[0] not in (1, E)):
                raise ValueError(
                    f"level-{k} input of a {E}-member stack has shape {x.shape}; "
                    f"its only leading axis is the member axis, of length 1 or {E}"
                )
            X[k] = x
        cache = {"depths": [], "inputs": X} if want_cache else None

        for l in range(self.depth):
            newX = {}
            dcache = {"X_in": X, "levels": {}}
            for k in self.levels:
                if abs(k - self.out_level) > self.depth - 1 - l and not _all_levels:
                    continue
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
                    agg_pre = (
                        C @ self.params[f"L{l}.k{k}.agg_w"]
                        + self.params[f"L{l}.k{k}.agg_b"][..., None, :]
                    )
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
                dcache["X_out"] = X
                cache["depths"].append(dcache)
        return X[self.out_level], cache

    def features_per_depth(self, inputs: dict[int, np.ndarray]):
        """Post-activation features of every level at every depth, including
        the inputs at index 0 (used by the energy-trace analysis)."""
        _, cache = self.forward(inputs, want_cache=True, _all_levels=True)
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
        tau_d_name, tau_u_name = self._tau_names(l, k, m)
        grads[tau_d_name] += _dtau(dt_d, t_d)
        grads[tau_u_name] += _dtau(dt_u, t_u)

    def backward(self, cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Chain-rule pass over the cached forward; returns gradients keyed
        like `params` (shared receptive fields accumulate naturally). They are
        views into one freshly zeroed flat buffer per call, laid out like the
        packed parameters, so a level the forward skipped has gradient 0."""
        if cache is None:
            raise ValueError("forward must be run with want_cache=True first")
        grads = self._zero_grads()
        GX = {self.out_level: np.asarray(grad_out, dtype=np.float64)}
        depths = cache["depths"]
        for l in range(self.depth - 1, -1, -1):
            dcache = depths[l]
            # gradients only for the levels the depth below computed; nothing
            # reads the gradient of the inputs
            X_in = dcache["X_in"]
            newGX = {k: np.zeros_like(X_in[k]) for k in (depths[l - 1]["levels"] if l else ())}
            for k, lv in dcache["levels"].items():
                G = GX.get(k)
                if G is None:
                    continue
                branch_G = self._aggregation_backward(l, k, lv, G, grads)
                # depth 0 has no input gradients to fill
                slots = {
                    slot: np.zeros_like(getattr(lv["triple"], slot))
                    for slot in ("own", "lower", "upper")
                } if newGX else None
                for m in range(self.n_branches):
                    self._branch_backward(
                        l, k, m,
                        lv["triple"], lv["branch_pre"][m], lv["branch_stash"][m],
                        branch_G[m], grads, slots,
                    )
                ops = self.operators[k]
                if k in newGX:
                    newGX[k] += slots["own"]
                if ops.B_down is not None and (k - 1) in newGX:
                    newGX[k - 1] += ops.B_down @ slots["lower"]
                if ops.B_up is not None and (k + 1) in newGX:
                    newGX[k + 1] += np.swapaxes(ops.B_up, -1, -2) @ slots["upper"]
            GX = newGX
        return grads

    def _aggregation_backward(self, l, k, lv, G, grads):
        if self.agg == "sum" or self.n_branches == 1:
            return [G] * self.n_branches
        agg_pre = lv["agg_pre"]
        Gp = G * activate_grad(agg_pre, self.activation, self.leaky_slope)
        C = np.concatenate(lv["branch_out"], axis=-1)
        agg_w = self.params[f"L{l}.k{k}.agg_w"]
        members = agg_w.ndim - 2
        grads[f"L{l}.k{k}.agg_w"] += _contract(C, Gp, members)
        grads[f"L{l}.k{k}.agg_b"] += Gp.reshape(
            Gp.shape[:members] + (-1, Gp.shape[-1])
        ).sum(axis=members)
        GC = Gp @ np.swapaxes(agg_w, -1, -2)
        f_out = lv["branch_out"][0].shape[-1]
        return [GC[..., m * f_out : (m + 1) * f_out] for m in range(self.n_branches)]

    # -- parameter utilities ---------------------------------------------------

    def _pack(self) -> np.ndarray:
        """Copy the parameters into one float64 vector, the trainable ones
        first (its first ``_n_trainable`` entries), each group in sorted-name
        order, and make `params` views into it. Returns the vector; packs
        again when a parameter was replaced instead of written in place."""
        if self._flat is not None and all(
            self.params[name] is view for name, view in self._views.items()
        ):
            return self._flat
        names = sorted(self.trainable) + sorted(set(self.params) - self.trainable)
        stops = np.cumsum([0] + [np.size(self.params[name]) for name in names])
        offsets = dict(zip(names, zip(stops[:-1].tolist(), stops[1:].tolist())))
        flat = np.empty(int(stops[-1]))
        # (start, stop, shape) of every parameter, in the order of `params`
        self._layout = {}
        for name, p in self.params.items():
            a, b = offsets[name]
            flat[a:b] = np.ravel(p)
            self._layout[name] = (a, b, np.shape(p))
            self.params[name] = flat[a:b].reshape(np.shape(p))
        self._views = dict(self.params)
        self._n_trainable = int(stops[len(self.trainable)])
        self._flat = flat
        return flat

    def _zero_grads(self) -> "_Gradients":
        """A new zeroed gradient buffer laid out like the packed parameters."""
        if self._flat is None:
            self._pack()
        grads = _Gradients()
        grads.flat = np.zeros(self._flat.size)
        for name, (a, b, shape) in self._layout.items():
            grads[name] = grads.flat[a:b].reshape(shape)
        return grads

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


def _member_arrays(model: Model) -> list[np.ndarray]:
    """Every array that `Model.stack` keeps per member, in a fixed order: the
    parameters, then the incidences and spectra of the live levels."""
    arrays = [model.params[name] for name in sorted(model.params)]
    for k in model._live_levels():
        ops, spectra = model.operators[k], model.spectra[k]
        arrays += [B for B in (ops.B_down, ops.B_up) if B is not None]
        for spec in (spectra.down, spectra.up):
            arrays += [spec.eigenvalues, spec.eigenvectors]
    return arrays


def _stack_config(model: Model) -> tuple:
    """What the members of one stack must share."""
    return (
        model.levels, model.widths, model.out_level, model.n_branches, model.agg,
        model.activation, model.leaky_slope, model.learn_t, model.share_t,
        sorted(model.trainable),
        [(k, ops.n, ops.B_down is None, ops.B_up is None) for k, ops in model.operators.items()],
        [(s.down.selection_policy, s.down.indices.tolist(), s.up.indices.tolist())
         for s in model.spectra.values()],
        sorted(model.params),
        [np.shape(a) for a in _member_arrays(model)],
    )


class _Gradients(dict):
    """`Model.backward`'s result: gradients keyed like `params`, each a view
    into ``flat``, which is laid out like the packed parameter vector."""

    flat: np.ndarray


def _contract(A: np.ndarray, G: np.ndarray, members: int = 0) -> np.ndarray:
    """Weight gradient ``A^T G`` summed over the batch axes, down to the
    parameter's own shape: the first ``members`` (member) axes are kept,
    because a stacked model's members never share a gradient."""
    P = np.swapaxes(A, -1, -2) @ G
    return P.reshape(P.shape[:members] + (-1,) + P.shape[-2:]).sum(axis=members)


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
    """The loss of every epoch: a float, or an array ``(E,)`` of per-member
    losses for a stacked model."""

    losses: list = field(default_factory=list)


def mse_loss(output: np.ndarray, target: np.ndarray):
    diff = output - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def stacked_mse_loss(output: np.ndarray, target: np.ndarray):
    """`mse_loss` of each member of a stacked output ``(E, n, F)``: losses
    ``(E,)`` and the gradient of their sum, whose member ``e`` is the
    gradient of member ``e``'s own loss."""
    diff = output - target
    flat = diff.reshape(len(diff), -1)
    return np.mean(flat * flat, axis=1), (2.0 / flat.shape[1]) * diff


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
    longer (norm summed per parameter in sorted order, so runs are
    reproducible across processes), then updates ``v = momentum * v + g`` and
    ``p -= step_size * v`` on the packed vector of trainable parameters, of
    which ``model.params`` are views. A non-finite loss or parameter raises
    `TrainingDivergedError`, naming the first such parameter in sorted order.

    A stacked model (`Model.stack`) trains each member on its own: the
    readout returns one loss per member, shape ``(E,)``, and the gradient of
    their sum, which never mixes members; momentum and step are elementwise,
    so member ``e`` follows the path of its own unstacked run. The trace
    records the loss arrays, and the divergence error names the member.
    ``clip_norm`` is refused, because a global norm would couple the members.
    """
    E = model.members
    if E is not None and config.clip_norm is not None:
        raise ValueError("clip_norm would couple the members of a stacked model")
    theta = model._pack()[: model._n_trainable]
    velocity = np.zeros_like(theta)
    names = sorted(model.trainable)
    trace = TrainingTrace()

    def blame(values):
        """Member suffix, recent losses and index of the first non-finite
        member of ``values``; no member for an unstacked model."""
        if E is None:
            return "", trace.losses[-5:], None
        e = int(np.argmin(np.isfinite(values).reshape(E, -1).all(axis=1)))
        return f" of member {e}", [float(loss[e]) for loss in trace.losses[-5:]], e

    for epoch in range(config.epochs):
        out, cache = model.forward(inputs)
        loss_val, grad_out = readout(out, targets)
        if E is not None and np.shape(loss_val) != (E,):
            raise ValueError(
                f"the readout of a {E}-member stack must return {E} losses, got shape "
                f"{np.shape(loss_val)}; use stacked_mse_loss"
            )
        if not np.all(np.isfinite(loss_val)):
            member, recent, e = blame(loss_val)
            raise TrainingDivergedError(
                f"loss{member} became {loss_val if e is None else loss_val[e]} "
                f"at epoch {epoch}; recent losses: {recent}"
            )
        trace.losses.append(loss_val)
        grads = model.backward(cache, grad_out)
        g = grads.flat[: model._n_trainable]
        if config.clip_norm is not None:
            gnorm = math.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in names))
            if gnorm > config.clip_norm:
                g *= config.clip_norm / gnorm
        velocity *= config.momentum
        velocity += g
        theta -= config.step_size * velocity
        if not np.isfinite(theta).all():
            name = next(n for n in names if not np.all(np.isfinite(model.params[n])))
            member, recent, _ = blame(model.params[name])
            raise TrainingDivergedError(
                f"parameter {name}{member} became non-finite at epoch {epoch}; "
                f"recent losses: {recent}"
            )
    return trace


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: Model, path, complex_checksum: str) -> None:
    if model.members is not None:
        raise ValueError("a stacked model has no single complex to checkpoint")
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
        model.params[name][...] = arr
    return model
