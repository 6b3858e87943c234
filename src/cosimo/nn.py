"""Trainable simplicial layers with analytic gradients.

Two layer families operate on a signal triple (own level plus lower/upper
projections): a discrete family built from first-order Hodge-Laplacian
polynomials, and a continuous family built from exponential heat filters whose
receptive fields ``t_d = exp(tau_d)``, ``t_u = exp(tau_u)`` are themselves
trainable, one pair per depth and branch, starting at ``t = 1``. Its heat
weights are `spectral.heat_weights`, so ``t = 0`` (``tau = -inf``) is the
identity and ``t = inf`` (``tau >= 700``) the projection onto the kernel; both
are forward-only, because `train` refuses a non-finite parameter. A level sums
the activated outputs of its branches.

Each family has one private pair of per-layer kernels, a forward returning
the pre-activation plus what its backward needs, and that backward; `Model`
runs them once per branch. The discrete pair sums each side's two order-1
paths before its Laplacian, so it makes one dense ``L_s Y`` product per
nonempty side forward and one ``L_s Gp`` backward, which serves both the
weight and the input gradients; a side whose incidence is empty (level 0
down, level 2 up, level 1 up without triangles) is skipped by its shape, and
its zero Laplacian is never formed. The continuous pair filters each Laplacian
through its record, which lists its nonzero eigenpairs (`spectral` module
docstring), ``e^{-tL} Y = Y + V ((w - 1) ⊙ V^T Y)`` (`spectral.range_heat`),
and its route depends only on its depth. The first layer filters its two
stacked inputs (``2 F_in`` columns): they never change during `train`, so
`Model` records them once per run, with their projections and their
coefficients ``V^T X`` on each record, and an epoch makes one eigenbasis
product per side forward (``V ·``) and one backward (``V^T G``, for
``dLoss/dt``). Every deeper layer filters its mixed ``F_out``-column output.
The stash records the route, so forward and backward always agree. A zero
operator (level 0 down, level 2 up, level 1 up without triangles) has an
empty record, ``(n, 0)`` eigenvectors, and costs nothing; on the output
route its side's neighbor slot, which is zero, is neither multiplied nor
given a gradient, and its weight's gradient stays exactly 0. The kernels
sum in place into arrays they made, never into what they read, and
`Model.backward` writes each input gradient's first term instead of adding
it to zeros. The kernels form a layer's input gradients per branch, unless
the layer is narrow: on the output route, when its ``M`` branches' filtered
output gradients ``gY_s``, stacked along the feature axis, are narrower
than its input, ``M F_out < F_in``, `_cosimo_narrow_backward` forms each
slot's gradient as one product over all branches,
``[gY_d^1 ... gY_d^M gY_u^1 ... gY_u^M] [psi_d^1 ... psi_u^M]^T`` for the
own slot, and the incidences act on the narrow stack before it widens,
``(B_k [gY_d^1 ... gY_d^M]) [theta_d^1 ... theta_d^M]^T``. The rule reads
only the widths, so the trajectory model's 16-to-1 last layer is narrow
and its 16-to-16 layers are wide. The cache that
`Model.forward` leaves for `Model.backward` holds, per depth, level and
branch, the triple the layer read, its kernel's stash and the sign of its
pre-activation, the bool mask ``pre > 0`` (None for the identity): the
activation's derivative reads nothing else of the pre-activation, so the
cache keeps one byte per unit instead of its float64 value.

Everything is plain numpy with hand-written backward passes; arrays may carry
leading batch dimensions (the simplex axis is always the second-to-last).
`Model.forward` computes at depth ``l`` only the levels ``k`` that can reach
the output, ``|k - out_level| <= depth - 1 - l``; the others get gradient 0.
A level's spectra are the records its operators hold, which `Model` admits
once (`_admitted`) and the kernels and projections then trust.

`train` is the only optimizer loop: full-batch momentum descent with optional
global-norm clipping, scored by a pluggable readout (MSE by default, the
trajectory experiment's candidate cross-entropy). Every parameter trains. A
model holds its parameters in one float64 vector from construction, which
`train` updates, and addresses them by position: one weight block per depth
and one receptive-field block, views into it (`Model._blocks`), which the
forward, the backward and the weight bound read, as the backward's
gradients in a vector laid out the same. Names are made only when a caller
reads one: ``Model.params`` is a read-only map of named views, built on
first read, so a parameter is written in place (``params[name][...] =
value``), and the backward's gradient map makes a named view per name read;
checkpoints, clipping in `train` and `Model.receptive_fields` use names. So
building, stacking and running a 100-layer model costs O(depth) Python
work, not O(parameters). A checkpoint
holds exactly the keys of `_CHECKPOINT_KEYS`: the model's settings, the
checksum of its complex, which covers the vertex positions, the record of the
run that trained it, from which ``cosimo eval`` rebuilds the test split, and
the parameters. `load_model` refuses any other complex and any other key.

Member axis: `Model.stack` turns E same-config continuous models into one
model whose parameters, incidences and records carry a leading axis of length
E (parameter vectors ``(E, P)``, one row per member, so weights
``(E, F_in, F_out)`` and receptive fields ``(E,)``; eigenbases ``(E, n, K)``,
heat weights ``(E, r)``, with ``r`` the largest rank over the members: a
member of lower rank has kernel modes among them, which filter to exactly
nothing; a record of lower rank is padded to the widest with leading zero
eigenpairs). An incidence or record that every member holds as
the same array is kept once, with a member axis of length 1. The kernels and
`project` broadcast over it (``np.swapaxes`` for transposes, ``w[..., None]``
for mode weights), and every gradient is reduced to its parameter's own
shape: batch axes are summed, the member axis never is. So E small fits cost
one forward and one backward per epoch instead of E of each, E forward-only
traces one pass instead of E, and member ``e`` follows its own unstacked run.
`spectral_norm_bound` and `receptive_fields` report one value per member.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .complexes import HodgeOperators, SimplicialComplex, hodge_operators
from .spectral import _range_coefficients, range_heat


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""


class CheckpointError(ValueError):
    """A checkpoint is malformed or does not belong to the complex it is
    loaded onto."""


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "leaky_relu", "identity")


def activate(z: np.ndarray, kind: str, slope: float = 0.01) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        # the same bits as the `where` below when 0 <= slope <= 1, and faster
        if 0.0 <= slope <= 1.0:
            out = slope * z
            return np.maximum(z, out, out=out)
        return np.where(z > 0, z, slope * z)
    if kind == "identity":
        return z
    raise ValueError(f"unknown nonlinearity {kind!r}")


def activate_grad(G: np.ndarray, positive: np.ndarray | None, kind: str, slope: float = 0.01):
    """``dLoss/dz`` for ``G = dLoss/dactivate(z)``, from ``positive``, the
    bool mask ``z > 0`` that `Model.forward` caches (None for the identity),
    bit for bit ``G * np.where(z > 0, 1.0, slope)`` (``1.0`` or ``0.0`` for
    ``relu``): ``G * positive`` for ``relu`` and ``G`` itself for the
    identity. For ``leaky_relu`` with ``0 <= slope <= 1`` the factor is
    exact arithmetic on the mask, ``positive * (1 - slope) + slope``: it is
    ``slope`` where the mask is False and ``fl(fl(1 - slope) + slope)`` where
    it is True, which is exactly 1. For ``slope >= 1/2``, ``1 - slope`` is
    exact (Sterbenz), so the sum is 1; for ``slope < 1/2``, ``fl(1 - slope)``
    lies in ``[1/2, 1]`` and is off by at most ``2^-54``, so the exact sum
    lies within ``2^-54`` of 1 and rounds to 1 (a tie below 1 rounds to the
    even 1). Another ``slope``, ``-0.0`` too (the sum would give ``+0.0``
    where the mask is False), reads the factor from a two-entry table. The
    factor is multiplied by ``G`` in place when the two have one shape."""
    if kind == "relu":
        return G * positive
    if kind == "leaky_relu":
        if 0.0 <= slope <= 1.0 and math.copysign(1.0, slope) > 0:
            factor = np.multiply(positive, 1.0 - slope)
            factor += slope
        else:
            factor = np.array([slope, 1.0])[positive.view(np.uint8)]
        if factor.shape != G.shape:
            return G * factor
        factor *= G
        return factor
    if kind == "identity":
        return G
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

    A neighbor signal not given (None) or an empty side (``B_0``, ``B_3``,
    ``B_2`` without triangles) projects to zeros. Incidences stacked over
    members, ``(E, ., .)``, give member-stacked projections of a shared signal.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    if x_k.shape[-2] != ops.n:
        raise ValueError(f"own signal has {x_k.shape[-2]} rows, level has {ops.n}")
    if x_km1 is not None:
        x_km1 = np.asarray(x_km1, dtype=np.float64)
        if x_km1.shape[-2] != ops.B_down.shape[-2]:
            raise ValueError(
                f"lower signal has {x_km1.shape[-2]} rows, "
                f"B_{ops.level} has {ops.B_down.shape[-2]}"
            )
    if x_kp1 is not None:
        x_kp1 = np.asarray(x_kp1, dtype=np.float64)
        if x_kp1.shape[-2] != ops.B_up.shape[-1]:
            raise ValueError(
                f"upper signal has {x_kp1.shape[-2]} rows, "
                f"B_{ops.level + 1} has {ops.B_up.shape[-1]}"
            )
    return _project(ops, x_k, x_km1, x_kp1)


def _project(ops: HodgeOperators, x_k, x_km1, x_kp1) -> CochainTriple:
    """The products of `project`, on float64 signals of the level's sizes,
    which a `Model`'s recorded inputs and its own features always are."""
    lower = np.zeros_like(x_k) if x_km1 is None else np.swapaxes(ops.B_down, -1, -2) @ x_km1
    upper = np.zeros_like(x_k) if x_kp1 is None else ops.B_up @ x_kp1
    return CochainTriple(level=ops.level, own=x_k, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Per-layer kernels
# ---------------------------------------------------------------------------


def _exp_tau(tau):
    """Saturating ``math.exp`` of a receptive-field parameter: a float, or an
    array ``(E,)`` of one per member of a stacked model. A huge ``tau`` maps
    to t = inf instead of overflowing, so the divergence guard can catch it;
    a NaN ``tau`` gives a NaN ``t``."""
    tau = np.asarray(tau)
    t = [math.exp(v) if not v >= 700.0 else math.inf for v in tau.ravel().tolist()]
    return np.array(t) if tau.ndim else t[0]


# the weights of one layer, in the order the kernels take and fill them:
# theta_d mixes the lower slot and psi_d the own slot on the lower side,
# psi_u the own slot and theta_u the upper slot on the upper side
_WEIGHT_NAMES = ("theta_d", "psi_d", "psi_u", "theta_u")
# (incidence, Laplacian, neighbor slot, its weight, the own weight) per side
_SIDES = (("B_down", "L_down", "lower", 0, 1), ("B_up", "L_up", "upper", 3, 2))


def _live_sides(ops: HodgeOperators):
    """``(L_s, neighbor slot, its weight index, own weight index)`` of each
    side of ``ops`` whose incidence is not empty. An empty side (``B_0``,
    ``B_3``, ``B_2`` without triangles) has a zero Laplacian, which is never
    formed, and a zero neighbor slot (`project`)."""
    return [(getattr(ops, lap), slot, nb, own)
            for inc, lap, slot, nb, own in _SIDES if getattr(ops, inc).size]


def _discrete_forward(triple: CochainTriple, weights, ops: HodgeOperators):
    """Pre-activation of one first-order polynomial layer, the sum over paths
    of ``X W[0] + (L_s X) W[1]``. By linearity each side is filtered once:
    ``own (psi_d[0] + psi_u[0])``, plus per nonempty side ``s`` with
    neighbor slot ``N`` (lower or upper) ``N theta_s[0] + L_s (N theta_s[1]
    + own psi_s[1])``. No stash: `_discrete_backward` reads the triple."""
    own = triple.own
    pre = own @ (weights[1][0] + weights[2][0])
    for L, slot, nb, o in _live_sides(ops):
        X = getattr(triple, slot)
        pre = pre + X @ weights[nb][0] + L @ (X @ weights[nb][1] + own @ weights[o][1])
    return pre, None


def _sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``, summed in place into ``a``, an array its caller made, when
    the two have one shape; otherwise a new array, broadcast as ``a + b``
    (level inputs may carry different batch shapes)."""
    if a.shape != b.shape:
        return a + b
    a += b
    return a


def _accumulate(into: dict, key, value: np.ndarray) -> None:
    """Add ``value`` into ``into[key]`` (`_sum`), or make it that entry if
    there is none yet: the first term of a gradient is written, not added
    to zeros. ``value`` is an array its caller made, as later terms may be
    added into it."""
    into[key] = _sum(into[key], value) if key in into else value


def _discrete_backward(triple: CochainTriple, weights, ops: HodgeOperators, Gp, gweights, gslots):
    """Backward of `_discrete_forward` given ``Gp = dLoss/dpre``: accumulates
    the weight gradients into ``gweights`` and the input gradients
    ``Gp W[0]^T + L_s (Gp W[1]^T)`` into the ``gslots`` dict keyed by slot
    (`_accumulate`); ``gslots=None`` skips the input gradients. ``L_s`` is
    symmetric, so one ``R_s = L_s Gp`` per nonempty side gives both the
    order-1 weight gradients ``X^T R_s`` and the input gradients
    ``R_s W[1]^T``. The neighbor slot of an empty side gets no gradient: its
    level has no simplices, so nothing reads it."""
    own = triple.own
    g_own = _contract(own, Gp)
    gweights[1][0] += g_own
    gweights[2][0] += g_own
    if gslots is not None:
        _accumulate(gslots, "own", Gp @ (weights[1][0] + weights[2][0]).T)
    for L, slot, nb, o in _live_sides(ops):
        X = getattr(triple, slot)
        R = L @ Gp
        gweights[nb][0] += _contract(X, Gp)
        gweights[nb][1] += _contract(X, R)
        gweights[o][1] += _contract(own, R)
        if gslots is not None:
            g = Gp @ weights[nb][0].T
            g += R @ weights[nb][1].T
            _accumulate(gslots, slot, g)
            _accumulate(gslots, "own", R @ weights[o][1].T)


def _side_inputs(triple: CochainTriple, ops: HodgeOperators):
    """``((X_d, C_d), (X_u, C_u))``: each side's stacked inputs
    ``X_d = [lower | own]``, ``X_u = [own | upper]`` along the feature axis
    (a signal shared by all members broadcasts against a member-stacked one)
    and their record coefficients ``C_s = V_s^T X_s``, None on an empty
    record (`spectral._range_coefficients`)."""
    sides = []
    for spec, a, b in zip((ops.spectrum_down, ops.spectrum_up), (triple.lower, triple.own),
                          (triple.own, triple.upper)):
        X = np.concatenate(np.broadcast_arrays(a, b), axis=-1)
        sides.append((X, _range_coefficients(spec, X)))
    return tuple(sides)


def _dt(GZ: np.ndarray, spec, w: np.ndarray, S: np.ndarray, members: int):
    """``dLoss/dt = sum GZ ⊙ (-lam w) ⊙ S`` for the record coefficients
    ``S`` of a side's filtered signal, as one contraction per mode summed over
    the batch, then dotted with ``-(lam w)``: a float, or one per member."""
    P = np.einsum("...nf,...nf->...n", GZ, S)
    P = P.reshape(P.shape[:members] + (-1, P.shape[-1])).sum(axis=members)
    dt = np.einsum("...n,...n->...", P, -(spec.eigenvalues * w))
    return dt if members else float(dt)


def _dtau(dt, t):
    """``dLoss/dtau = dLoss/dt * t``; a zero ``dt`` stays 0 even at t = inf."""
    return dt * np.where(dt == 0.0, 0.0, t)


def _heat_backward(spec, stash, G: np.ndarray, members: int, want_input: bool):
    """Backward of `spectral.range_heat` given ``G = dLoss/d(e^{-tL} Y)``
    and its ``stash``: ``dLoss/dY = G + V ((w - 1) ⊙ V^T G)`` (``e^{-tL}``
    is symmetric; ``G`` itself on a side whose stash is None, None on another
    unless ``want_input``) and ``dLoss/dt``, exactly 0 on kernel modes, at
    ``t = inf`` and on a side whose stash is None: a float, or one per
    member."""
    if stash is None:
        return G, np.zeros(len(G)) if members else 0.0
    S, w = stash
    V = spec.eigenvectors
    GZ = np.swapaxes(V, -1, -2) @ G
    gY = None
    if want_input:
        gY = V @ ((w - 1.0)[..., None] * GZ)
        np.add(G, gY, out=gY)
    return gY, _dt(GZ, spec, w, S, members)


def _cosimo_forward(triple: CochainTriple, weights, ops: HodgeOperators, t_d, t_u, sides=None):
    """Pre-activation of one continuous layer, and the stash that
    `_cosimo_backward` needs. The layer is linear in its inputs and
    ``e^{-tL} (X W) = (e^{-tL} X) W``, so each side filters once through the
    record of its Laplacian (`spectral.range_heat`), on its inputs when
    ``sides`` is given and on its output otherwise. The records are those
    ``ops`` hold. Every sum is accumulated in place into an array the
    kernel made, never into the triple or ``sides``.

    - Input-space, given the `_side_inputs` ``sides`` of ``triple`` (the
      first layer's, which `Model` records once per run):
      ``Z_s = e^{-t_s L_s} X_s`` from the stacked inputs ``X_s`` and their
      coefficients ``C_s``, and ``pre = sum_s Z_s W_s`` with
      ``W_d = [theta_d; psi_d]``, ``W_u = [psi_u; theta_u]``. Stash
      ``(heat_d, heat_u, (Z_d, Z_u))``.
    - Output-space (every deeper layer): ``pre = sum_s e^{-t_s L_s} Y_s``
      with the mixed ``Y_d = lower theta_d + own psi_d``,
      ``Y_u = own psi_u + upper theta_u``. The neighbor slot of an empty
      side (level 0 down, level 2 up, level 1 up without triangles) is zero
      (`project`) and is not multiplied: there ``Y_d = own psi_d`` or
      ``Y_u = own psi_u``. Stash ``(heat_d, heat_u, None)``.
    """
    theta_d, psi_d, psi_u, theta_u = weights
    down, up = ops.spectrum_down, ops.spectrum_up
    if sides is not None:
        (X_d, C_d), (X_u, C_u) = sides
        Z_d, heat_d = range_heat(down, t_d, X_d, C_d)
        Z_u, heat_u = range_heat(up, t_u, X_u, C_u)
        pre = _sum(Z_d @ np.concatenate((theta_d, psi_d), axis=-2),
                   Z_u @ np.concatenate((psi_u, theta_u), axis=-2))
        return pre, (heat_d, heat_u, (Z_d, Z_u))
    own = triple.own
    Y_d = own @ psi_d
    if ops.B_down.size:
        Y_d = _sum(triple.lower @ theta_d, Y_d)
    Y_u = own @ psi_u
    if ops.B_up.size:
        Y_u = _sum(Y_u, triple.upper @ theta_u)
    # an empty record returns Y_s itself, which this kernel made
    F_d, heat_d = range_heat(down, t_d, Y_d)
    F_u, heat_u = range_heat(up, t_u, Y_u)
    return _sum(F_d, F_u), (heat_d, heat_u, None)


def _cosimo_backward(
    triple: CochainTriple, weights, ops: HodgeOperators, stash, Gp, gweights, gslots, narrow=False,
):
    """Backward of `_cosimo_forward`, on the route its ``stash`` records:
    accumulates like `_discrete_backward` and returns
    ``((dLoss/dt_d, dLoss/dt_u), gY)``, the ``dt`` exactly 0 on kernel
    modes, at ``t = inf`` and on a rank-0 side; floats, or one per member,
    shape ``(E,)``, for stacked weights ``(E, F_in, F_out)``.
    ``gslots=None`` skips the input gradients. A ``narrow`` output-route
    layer (`_narrow`) forms none here and returns ``gY = (gY_d, gY_u)``,
    from which `_cosimo_narrow_backward` forms them over all branches at
    once; ``gY`` is None otherwise, so no wide branch's filtered gradients
    outlive its call. The neighbor slot of an empty side gets no gradient,
    as in `_discrete_backward`.

    - Input-space: slot gradients ``e^{-t_s L_s} (Gp W_s^T)``, split by
      slot, and weight gradients ``Z_s^T Gp``, split by rows.
    - Output-space: ``gY_s = e^{-t_s L_s} Gp``; weight gradients
      ``slot^T gY_s``, slot gradients ``gY_s W^T``. The zero slot of an
      empty side is not contracted: its weight's gradient (``theta_d`` at
      level 0, ``theta_u`` at level 2) is left as it is, 0 in a fresh
      buffer.
    """
    theta_d, psi_d, psi_u, theta_u = weights
    g_theta_d, g_psi_d, g_psi_u, g_theta_u = gweights
    down, up = ops.spectrum_down, ops.spectrum_up
    heat_d, heat_u, Z = stash
    members = theta_d.ndim - 2
    if Z is not None:
        f_in = theta_d.shape[-2]
        dt = []
        for spec, heat, Z_s, W, (gW_a, gW_b), (slot_a, slot_b) in (
            (down, heat_d, Z[0], (theta_d, psi_d), (g_theta_d, g_psi_d), ("lower", "own")),
            (up, heat_u, Z[1], (psi_u, theta_u), (g_psi_u, g_theta_u), ("own", "upper")),
        ):
            G = Gp @ np.swapaxes(np.concatenate(W, axis=-2), -1, -2)
            gX, dt_s = _heat_backward(spec, heat, G, members, gslots is not None)
            dt.append(dt_s)
            gWX = _contract(Z_s, Gp, members)
            gW_a += gWX[..., :f_in, :]
            gW_b += gWX[..., f_in:, :]
            if gslots is not None:
                # views of the kernel's own gX, but none for an empty side
                live = {"lower": ops.B_down.size, "own": True, "upper": ops.B_up.size}
                for slot, part in ((slot_a, gX[..., :f_in]), (slot_b, gX[..., f_in:])):
                    if live[slot]:
                        _accumulate(gslots, slot, part)
        return (dt[0], dt[1]), None
    gY_d, dt_d = _heat_backward(down, heat_d, Gp, members, True)
    gY_u, dt_u = _heat_backward(up, heat_u, Gp, members, True)
    if ops.B_down.size:
        g_theta_d += _contract(triple.lower, gY_d, members)
    g_psi_d += _contract(triple.own, gY_d, members)
    g_psi_u += _contract(triple.own, gY_u, members)
    if ops.B_up.size:
        g_theta_u += _contract(triple.upper, gY_u, members)
    if narrow:
        return (dt_d, dt_u), (gY_d, gY_u)
    if gslots is not None:
        if ops.B_down.size:
            _accumulate(gslots, "lower", gY_d @ np.swapaxes(theta_d, -1, -2))
        g_own = gY_d @ np.swapaxes(psi_d, -1, -2)
        g_own += gY_u @ np.swapaxes(psi_u, -1, -2)
        _accumulate(gslots, "own", g_own)
        if ops.B_up.size:
            _accumulate(gslots, "upper", gY_u @ np.swapaxes(theta_u, -1, -2))
    return (dt_d, dt_u), None


def _narrow(M: int, f_in: int, f_out: int) -> bool:
    """Whether a continuous output-route layer of ``M`` branches forms its
    input gradients over all branches at once (`_cosimo_narrow_backward`):
    its branches' filtered output gradients, stacked along the feature axis,
    are narrower than its input, ``M F_out < F_in``."""
    return M * f_out < f_in


def _cosimo_narrow_backward(ops: HodgeOperators, W: np.ndarray, branch_gY, wanted) -> dict:
    """The input gradients of a narrow layer (`_narrow`) from every branch's
    ``(gY_d, gY_u)`` that `_cosimo_backward` returned, for the slots in
    ``wanted``, each one product with the branches' weights ``W``
    ``(M, 4, ..., F_in, F_out)`` stacked along one axis (`_branch_weights`):
    ``own`` is ``[gY_d^1 ... gY_d^M gY_u^1 ... gY_u^M] [psi_d^1 ... psi_u^M]^T``,
    and the incidences act on the narrow stack before it widens, so
    ``lower`` is the gradient of level ``k - 1``,
    ``(B_k [gY_d^1 ... gY_d^M]) [theta_d^1 ... theta_d^M]^T``, and ``upper``
    that of level ``k + 1``, ``(B_{k+1}^T [gY_u^1 ...]) [theta_u^1 ...]^T``."""
    each_d, each_u = zip(*branch_gY)
    gY = np.concatenate(each_d + each_u, axis=-1)
    gY_d, gY_u = np.split(gY, 2, axis=-1)
    out = {}
    if "own" in wanted:
        out["own"] = gY @ _branch_weights(W, (1, 2))
    if "lower" in wanted:
        out["lower"] = (ops.B_down @ gY_d) @ _branch_weights(W, (0,))
    if "upper" in wanted:
        out["upper"] = (np.swapaxes(ops.B_up, -1, -2) @ gY_u) @ _branch_weights(W, (3,))
    return out


def _branch_weights(W: np.ndarray, paths) -> np.ndarray:
    """``[W[m, p]^T for p in paths for m in branches]`` of one level's
    weight block ``W`` ``(M, 4, ..., F_in, F_out)``, stacked along one axis:
    ``(..., len(paths) M F_out, F_in)``, the right factor of the branch
    gradients stacked the same way along their feature axis."""
    Wt = np.swapaxes(W[:, list(paths)], -1, -2)
    Wt = np.moveaxis(Wt, (1, 0), (-4, -3))
    return Wt.reshape(Wt.shape[:-4] + (-1, Wt.shape[-1]))


# ---------------------------------------------------------------------------
# Multi-level model with manual backprop
# ---------------------------------------------------------------------------


def _admitted(operators: dict[int, HodgeOperators], levels) -> dict[int, HodgeOperators]:
    """The operators of ``levels``, checked once, as the kernels and
    projections trust them: a truncated view, which is no operator record,
    and adjacent levels whose sizes disagree raise `ValueError`."""
    held = {k: operators[k] for k in levels}
    for k, ops in held.items():
        for spec in (ops.spectrum_down, ops.spectrum_up):
            if spec.truncated:
                raise ValueError(f"level {k} spectrum keeps {spec.K} of {ops.n} modes; "
                                 "the kernels need an operator record")
        above = held.get(k + 1)
        if above is not None and (ops.B_up.shape[-1], above.B_down.shape[-2]) != (above.n, ops.n):
            raise ValueError(f"levels {k} and {k + 1} hold {ops.n} and {above.n} simplices, but "
                             f"B_{k + 1} is {ops.B_up.shape[-2:]} at level {k} and "
                             f"{above.B_down.shape[-2:]} at level {k + 1}")
    return held


class Model:
    """Stack of simplicial layers applied synchronously at every level.

    The levels are those of 0, 1, 2 that ``operators`` holds with at least
    one simplex; pass fewer operators for fewer levels. At each depth a level
    k recomputes its projection triple from the previous depth's features at
    levels k-1, k, k+1, runs ``n_branches`` branches and sums their activated
    outputs; the network output is read at ``out_level``. A continuous branch
    has one receptive-field pair ``L{l}.m{m}.tau_d``/``tau_u`` per depth l,
    shared by every level, starting at ``tau = 0`` (``t = 1``; write others
    with `set_receptive_fields`); a discrete branch has weights
    ``(2, F_in, F_out)`` (orders 0 and 1 of the Laplacian polynomial), order 0
    starting at zero.
    `forward` runs level k at depth l only if it can reach the output,
    ``|k - out_level| <= depth - 1 - l``; `features_per_depth` runs every
    level. Parameters exist for every level; a continuous level filters
    through the records its operators hold. `forward` runs from a private
    record of its inputs (`_Inputs`), which holds what the first layer reads
    of them; `train` makes it once per run. A continuous layer's route
    depends only on its depth: the first filters its recorded inputs, every
    deeper one its mixed output (`_cosimo_forward`).

    An unknown ``family`` or ``activation``, an ``out_level`` without
    simplices, fewer than two ``widths``, a width or an ``n_branches`` that
    is not an integer ``>= 1`` and a ``leaky_slope`` that is not a finite
    real number raise `ValueError` naming the setting; so do a truncated
    spectrum and adjacent levels whose sizes disagree, here and in
    `with_operators` (`_admitted`), and nothing checks operators again.

    The parameters live in one float64 vector: the weights in (depth, level,
    branch, path) order, drawn by one standard-normal call and scaled per
    run of depths with equal widths, then the receptive fields in (depth,
    branch, side) order. The model reads them by position, as one block per
    depth, ``(levels, branches, 4, F_in, F_out)`` (``(levels, branches, 4,
    2, F_in, F_out)`` for the discrete family), and one receptive-field
    block ``(depth, branches, 2)``, a stack's member axis first (`_blocks`).
    ``params``, a read-only map of named views into the vector in its
    order, is built on first read, so a parameter is written in place,
    never replaced.
    """

    def __init__(
        self,
        operators: dict[int, HodgeOperators],
        widths,
        family: str = "cosimo",
        out_level: int = 1,
        n_branches: int = 1,
        activation: str = "relu",
        leaky_slope: float = 0.01,
        init_std: float | None = None,
        seed=0,
    ):
        if family not in ("cosimo", "discrete"):
            raise ValueError(f"unknown layer family {family!r}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, not one of {list(_ACTIVATIONS)}")
        widths = list(widths)
        if len(widths) < 2:
            raise ValueError("widths must list input and at least one layer width")
        w = np.asarray(widths)
        if w.ndim != 1 or w.dtype.kind not in "iu" or not (w >= 1).all():
            raise ValueError(f"widths must be integers >= 1, got {widths}")
        if not (isinstance(leaky_slope, numbers.Real) and math.isfinite(leaky_slope)):
            raise ValueError(f"leaky_slope must be a finite real number, got {leaky_slope!r}")
        b = np.asarray(n_branches)
        if b.ndim or b.dtype.kind not in "iu" or b < 1:
            raise ValueError(f"n_branches must be an integer >= 1, got {n_branches!r}")
        self.family = family
        self.levels = tuple(k for k in (0, 1, 2) if k in operators and operators[k].n > 0)
        if out_level not in self.levels:
            raise ValueError(f"out_level {out_level} is not among the levels {self.levels}")
        self.operators = _admitted(operators, self.levels)
        self.widths = w.tolist()
        self.depth = len(self.widths) - 1
        self.out_level = out_level
        self.n_branches = int(n_branches)
        self.activation = activation
        self.leaky_slope = leaky_slope
        self.members: int | None = None  # set by `stack`

        # the levels that reach the output from each depth: every level but
        # at the last two depths, as no two levels are more than 2 apart
        reach = [tuple(k for k in self.levels if abs(k - out_level) <= r) for r in range(3)]
        self._live = [reach[min(self.depth - 1 - l, 2)] for l in range(self.depth)]
        # each depth's weight block, (levels, branches, 4, [2,] F_in, F_out),
        # and where it starts in the flat vector; the receptive fields follow
        order = (2,) if family == "discrete" else ()
        self._shapes = [(len(self.levels), self.n_branches, len(_WEIGHT_NAMES)) + order
                        + (self.widths[l], self.widths[l + 1]) for l in range(self.depth)]
        self._starts = np.cumsum([0] + [math.prod(shape) for shape in self._shapes]).tolist()
        fields = self.depth * self.n_branches * 2 if family == "cosimo" else 0
        self._bind(np.zeros(self._starts[-1] + fields))
        # one draw for every weight, scaled per run of depths with equal
        # widths; it holds the same numbers as one ``rng.normal(0, std,
        # shape)`` per weight
        np.random.default_rng(seed).standard_normal(out=self._flat[:self._starts[-1]])
        for W in self._runs(self._flat):
            W *= init_std if init_std is not None else 1.0 / math.sqrt(W.shape[-2])
            if family == "discrete":
                # order 0 starts at zero; it is drawn anyway so the random
                # stream, hence every later draw, stays put
                W[..., 0, :, :] = 0.0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_complex(cls, complex: SimplicialComplex, widths, **kwargs) -> "Model":
        ops = {k: hodge_operators(complex, k) for k in (0, 1, 2)}
        return cls(ops, widths, **kwargs)

    @classmethod
    def stack(cls, models, count: int | None = None) -> "Model":
        """One model holding ``count`` continuous models (default
        ``len(models)``) along a leading member axis, to train or run them
        together.

        The members must share their configuration and the simplex counts of
        their complexes; their operators, weights and ranks may differ. The
        parameter vectors form one ``(E, P)`` matrix, row ``e`` copied from
        member ``e``'s vector, so parameters get shape ``(E, ...)``: weights
        ``(E, F_in, F_out)``, receptive fields ``(E,)``. Every level holds
        its members' incidences and records, stacked the same way; its
        Laplacians are formed on first read, as any `HodgeOperators`' are. An
        incidence or record is kept once, shape ``(1, ...)``, which the
        kernels broadcast, when every member holds the same array (members
        on one `HodgeOperators`); otherwise it gets one row per member,
        ``(E, n, K)``, and a record narrower than the widest member's gets
        leading zero eigenpairs (`_put`), kernel modes with a zero
        eigenvector, which filter to exactly nothing.
        ``models`` is read once, so a generator (with ``count``) keeps about
        one member model alive at a time.

        A stacked model takes inputs ``(n, F)``, shared by all members, or
        ``(E, n, F)``, and returns ``(E, n, F_out)``; it has no other batch
        axes. Its gradients never sum over members. Train it with a
        per-member readout such as `stacked_mse_loss` and without
        ``clip_norm``. `with_operators` and `save_model` refuse it. Fewer
        than one model (``count < 1``) raises `ValueError`.
        """
        if count is None:
            count = len(models)
        if count < 1:
            raise ValueError(f"count must be at least 1 to stack models, got {count}")
        stacked, config, e = None, None, 0
        # no enumerate: it would hold member e while member e + 1 is built
        for member in models:
            if member.family != "cosimo" or member.members is not None:
                kind = "stacked" if member.members is not None else member.family
                raise ValueError(f"model {e} is a {kind} model; only unstacked cosimo models stack")
            if e == count:
                raise ValueError(f"got more than {count} models to stack")
            arrays = _member_arrays(member)
            if stacked is None:
                # parameter rows are set per member, and the operators
                # replaced once every member has been read
                stacked = cls.__new__(cls)
                stacked.__dict__.update(member.__dict__)
                stacked.members = count
                stacked._bind(np.empty((count,) + member._flat.shape))
                config = _stack_config(member, arrays)
                # an incidence or spectrum stays member 0's own array while
                # every member holds it
                slots, shared = [None] * len(arrays), arrays
            elif _stack_config(member, arrays) != config:
                raise ValueError(
                    f"model {e} differs from model 0 in its configuration or simplex counts"
                )
            stacked._flat[e] = member._flat
            for i, src in enumerate(arrays):
                if shared[i] is not None:
                    if src is shared[i]:
                        continue
                    slots[i] = _put(np.zeros((count,) + shared[i].shape), slice(e), shared[i])
                    shared[i] = None
                slots[i] = _put(slots[i], e, src)
            del member, arrays
            e += 1
        if e != count:
            raise ValueError(f"expected {count} models to stack, got {e}")
        _set_member_arrays(stacked, [s if a is None else a[None] for a, s in zip(shared, slots)])
        return stacked

    def with_operators(self, operators: dict[int, HodgeOperators]) -> "Model":
        """Same weights on different operators (e.g. a permuted complex)."""
        if self.members is not None:
            raise ValueError("a stacked model has no single complex to replace")
        clone = Model.__new__(Model)
        clone.__dict__.update(self.__dict__)
        clone.operators = _admitted(operators, self.levels)
        clone._bind(self._flat.copy())
        return clone

    def _bind(self, flat: np.ndarray) -> None:
        """Make ``flat`` the parameter store, ``(P,)`` or ``(E, P)`` for a
        stack, and keep its blocks as the kernels read them
        (`_kernel_blocks`); `params` is made on first read."""
        self._flat = flat
        self._weights, self._taus = self._kernel_blocks(flat)
        self._params = None

    def _blocks(self, flat: np.ndarray):
        """Views of a vector laid out like the parameters, with its leading
        member axis: one weight block per depth, ``(..., levels, branches,
        4, F_in, F_out)`` (``(..., levels, branches, 4, 2, F_in, F_out)``
        for the discrete family, whose order axis comes before ``F_in``),
        the four paths in `_WEIGHT_NAMES` order, and the receptive-field
        block ``(..., depth, branches, 2)``, ``tau_d`` then ``tau_u``
        (``(..., 0)`` for the discrete family)."""
        lead, s = flat.shape[:-1], self._starts
        weights = [flat[..., a:b].reshape(lead + shape)
                   for a, b, shape in zip(s, s[1:], self._shapes)]
        return weights, flat[..., s[-1]:].reshape(lead + (self.depth, self.n_branches, -1))

    def _runs(self, flat: np.ndarray) -> list[np.ndarray]:
        """The weight blocks of each run of depths with equal widths, which
        lie next to each other in ``flat``, as one view ``(..., M, F_in,
        F_out)`` (``(..., M, 2, F_in, F_out)`` for the discrete family),
        ``M`` running over depth, level, branch and path."""
        lead, runs, l = flat.shape[:-1], [], 0
        for shape, run in itertools.groupby(self._shapes):
            a, l = self._starts[l], l + len(list(run))
            runs.append(flat[..., a:self._starts[l]].reshape(lead + (-1,) + shape[3:]))
        return runs

    def _kernel_blocks(self, flat: np.ndarray):
        """The `_blocks` of ``flat`` with a stack's member axis moved behind
        their first three axes, so that a depth's weight block ``W[i, m]``
        is branch ``m`` of the ``i``-th level as the kernels take it, four
        weights ``(E, F_in, F_out)``, and the receptive-field block's
        ``T[l, m, 0]`` is ``(E,)``, as for an unstacked model."""
        weights, taus = self._blocks(flat)
        if self.members is None:
            return weights, taus

        def by_branch(block):
            return block.transpose((1, 2, 3, 0) + tuple(range(4, block.ndim)))

        return [by_branch(W) for W in weights], by_branch(taus)

    @cached_property
    def _layout(self) -> dict:
        """``name: (start, stop, shape)`` of every parameter in the flat
        vector, in its order, built on first read: ``L{l}.k{k}.m{m}.{path}``
        per depth, level, branch and path, then ``L{l}.m{m}.tau_d``/``tau_u``
        per depth and branch, as `_blocks` lays them out."""
        layout, start = {}, 0
        for l, shape in enumerate(self._shapes):
            shape = shape[3:]
            size = math.prod(shape)
            for k in self.levels:
                for m in range(self.n_branches):
                    for path in _WEIGHT_NAMES:
                        layout[f"L{l}.k{k}.m{m}.{path}"] = (start, start + size, shape)
                        start += size
        if self.family == "cosimo":
            for l in range(self.depth):
                for m in range(self.n_branches):
                    for side in ("d", "u"):
                        layout[f"L{l}.m{m}.tau_{side}"] = (start, start + 1, ())
                        start += 1
        return layout

    @property
    def params(self) -> MappingProxyType:
        """Read-only map of the parameters by name, views into the flat
        vector in its order; made on first read, so write a parameter in
        place (``params[name][...] = value``)."""
        if self._params is None:
            self._params = MappingProxyType(
                {name: _view(self._flat, entry) for name, entry in self._layout.items()})
        return self._params

    def receptive_fields(self) -> dict:
        """Diffusion time ``t = exp(tau)`` of every receptive-field parameter,
        keyed by the parameter's name (empty for the discrete family): a
        float, or an array ``(E,)`` of one per member of a stacked model."""
        if self.family != "cosimo":
            return {}
        return dict(sorted(
            (f"L{l}.m{m}.tau_{side}", _exp_tau(self._taus[l, m, i]))
            for l in range(self.depth) for m in range(self.n_branches)
            for i, side in enumerate("du")
        ))

    def set_receptive_fields(self, t_d, t_u) -> None:
        """Write every receptive field in place, ``tau = log t`` (``-inf`` at
        ``t = 0``): ``t_d`` and ``t_u`` are floats, or one per member, shape
        ``(E,)``, for a stack. Another shape, or a negative or NaN ``t``,
        raises `ValueError` before anything is written; ``t = 0`` and
        ``t = inf`` are accepted. A discrete model, which has no receptive
        fields, raises `ValueError`."""
        if self.family != "cosimo":
            raise ValueError(f"a {self.family} model has no receptive fields to set")
        E = self.members
        shapes = [()] if E is None else [(), (E,)]
        taus = []
        for side, t in (("d", t_d), ("u", t_u)):
            if np.shape(t) not in shapes:
                want = "a float" if E is None else f"a float or one per member, shape ({E},)"
                raise ValueError(f"receptive field t_{side} has shape {np.shape(t)}; expected {want}")
            values = np.ravel(t).tolist()
            bad = [v for v in values if not (isinstance(v, numbers.Real) and v >= 0)]
            if bad:
                raise ValueError(
                    f"receptive field t_{side} = {bad[0]} is not a diffusion time t >= 0"
                )
            taus.append(np.reshape([math.log(v) if v > 0 else -math.inf for v in values],
                                   np.shape(t)))
        for i, tau in enumerate(taus):
            self._taus[:, :, i] = tau

    # -- forward -------------------------------------------------------------

    def _record(self, inputs: dict[int, np.ndarray], every_level: bool = False) -> "_Inputs":
        """The `_Inputs` record of ``inputs``: each level's input, validated
        and in float64, and what the first layer reads of them at the levels
        that reach the output (every level with ``every_level``)."""
        E = self.members
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
        first = {}
        for k in self.levels if every_level else self._live[0]:
            ops = self.operators[k]
            triple = _project(ops, X[k], X.get(k - 1), X.get(k + 1))
            first[k] = (triple, _side_inputs(triple, ops) if self.family == "cosimo" else None)
        return _Inputs(X, first)

    def _receptive_fields(self, l: int):
        """``(t_d, t_u)`` of every branch at depth ``l``: floats, or arrays
        ``(E,)`` of a stacked model."""
        T = self._taus[l]
        return [(_exp_tau(T[m, 0]), _exp_tau(T[m, 1])) for m in range(self.n_branches)]

    def forward(self, inputs, want_cache: bool = True, *, _depths=None):
        """Run the stack on ``inputs``, a dict of level inputs or the private
        `_Inputs` record `train` makes of them once per run; returns the
        output-level features and (optionally) the cache that `backward`
        consumes: per depth its weights and receptive fields, and per
        level the triple, then per branch the kernel's stash and the mask
        ``pre > 0`` (None for the identity), not the pre-activation. Only
        levels that reach the output run, unless `features_per_depth` passes
        the private ``_depths`` list, to which every level's features are
        appended, inputs first."""
        record = inputs if isinstance(inputs, _Inputs) else self._record(inputs, _depths is not None)
        X = record.levels
        cache = {"depths": []} if want_cache else None
        if _depths is not None:
            _depths.append(X)

        for l in range(self.depth):
            newX = {}
            W = self._weights[l]
            times = self._receptive_fields(l) if self.family == "cosimo" else None
            dcache = {"levels": {}, "weights": W, "times": times}
            for k in self.levels if _depths is not None else self._live[l]:
                ops = self.operators[k]
                if l == 0:
                    triple, sides = record.first[k]
                else:
                    triple, sides = _project(ops, X[k], X.get(k - 1), X.get(k + 1)), None
                Wk = W[self.levels.index(k)]
                branch_positive, branch_stash = [], []
                for m in range(self.n_branches):
                    if self.family == "discrete":
                        pre, stash = _discrete_forward(triple, Wk[m], ops)
                    else:
                        pre, stash = _cosimo_forward(triple, Wk[m], ops, *times[m], sides)
                    out = activate(pre, self.activation, self.leaky_slope)
                    # the first branch's output is an array of this pass's
                    # own (the identity's is its pre-activation), never cached
                    if m == 0:
                        newX[k] = out
                    else:
                        newX[k] += out
                    if want_cache:
                        branch_positive.append(None if self.activation == "identity" else pre > 0)
                        branch_stash.append(stash)
                if want_cache:
                    dcache["levels"][k] = {
                        "triple": triple,
                        "branch_positive": branch_positive,
                        "branch_stash": branch_stash,
                    }
            X = newX
            if want_cache:
                cache["depths"].append(dcache)
            if _depths is not None:
                _depths.append(X)
        return X[self.out_level], cache

    def features_per_depth(self, inputs: dict[int, np.ndarray]) -> list[dict]:
        """Post-activation features of every level at every depth, including
        the inputs at index 0 (used by the energy-trace analysis). Only the
        features are kept, not the cache `backward` reads. A stack gives
        features ``(E, n, F)`` past the inputs."""
        depths = []
        self.forward(inputs, want_cache=False, _depths=depths)
        return depths

    # -- backward ------------------------------------------------------------

    def backward(self, cache, grad_out: np.ndarray) -> "_Gradients":
        """Chain-rule pass over the cached forward, whose masks ``pre > 0``
        give each activation's derivative (`activate_grad`); returns
        gradients keyed like `params` (shared receptive fields accumulate
        naturally). They live in one freshly zeroed flat buffer per call,
        ``grads.flat``, laid out like the parameter vector, so a level the
        forward skipped has gradient 0; a named view is made only when a name
        is read. The weights are those the forward cached, and the kernels
        write into blocks of ``grads.flat`` (`_kernel_blocks`). The kernels
        form each branch's input gradients, but a narrow continuous layer
        (`_narrow`) forms them over every branch's filtered output gradients
        at once (`_cosimo_narrow_backward`)."""
        if cache is None:
            raise ValueError("forward must be run with want_cache=True first")
        grads = _Gradients(self, np.zeros(self._flat.shape))
        gweights, gtaus = self._kernel_blocks(grads.flat)
        GX = {self.out_level: np.asarray(grad_out, dtype=np.float64)}
        depths = cache["depths"]
        for l in range(self.depth - 1, -1, -1):
            dcache = depths[l]
            W, gW, times = dcache["weights"], gweights[l], dcache["times"]
            # gradients only for the levels the depth below computed; nothing
            # reads the gradient of the inputs. Each entry of ``newGX`` and
            # ``slots`` is its first term, later terms are added into it
            # (`_accumulate`)
            below = depths[l - 1]["levels"] if l else {}
            newGX = {}
            for k, lv in dcache["levels"].items():
                G = GX.get(k)
                if G is None:
                    continue
                # depth 0 has no input gradients to fill
                slots = {} if below else None
                i, ops, triple = self.levels.index(k), self.operators[k], lv["triple"]
                narrow = self.family != "discrete" and bool(below) and _narrow(
                    self.n_branches, *W.shape[-2:])
                branch_gY = []
                for m in range(self.n_branches):
                    # G itself for the identity, and no kernel writes into Gp
                    Gp = activate_grad(G, lv["branch_positive"][m], self.activation,
                                       self.leaky_slope)
                    if self.family == "discrete":
                        _discrete_backward(triple, W[i, m], ops, Gp, gW[i, m], slots)
                        continue
                    (dt_d, dt_u), gY_m = _cosimo_backward(
                        triple, W[i, m], ops, lv["branch_stash"][m], Gp, gW[i, m], slots, narrow)
                    branch_gY.append(gY_m)
                    t_d, t_u = times[m]
                    gtaus[l, m, 0] += _dtau(dt_d, t_d)
                    gtaus[l, m, 1] += _dtau(dt_u, t_u)
                if not below:
                    continue
                # each slot's gradient, taken to its level by the incidence
                near = {"own": k, "lower": k - 1, "upper": k + 1}
                wanted = [s for s, j in near.items() if j in below]
                if narrow:
                    taken = _cosimo_narrow_backward(ops, W[i], branch_gY, wanted)
                else:
                    taken = {s: slots[s] for s in wanted}
                    if "lower" in taken:
                        taken["lower"] = ops.B_down @ taken["lower"]
                    if "upper" in taken:
                        taken["upper"] = np.swapaxes(ops.B_up, -1, -2) @ taken["upper"]
                for s in wanted:
                    _accumulate(newGX, near[s], taken[s])
            GX = newGX
        return grads

    # -- parameter utilities ---------------------------------------------------

    def spectral_norm_bound(self):
        """max spectral norm over every weight matrix (all depths, levels,
        branches, polynomial orders); feeds the energy-bound constant. A
        float, or one bound per member, shape ``(E,)``, for a stack.

        Exact, with few SVDs. Every matrix ``A`` has ``|A x| / |x| <=
        sigma_1 <= |A|_F`` for any ``x != 0``; here ``x = A^T A r`` for its
        largest row ``r``, two power steps, so the lower end is at least
        that row's norm. Only the nonzero matrices whose Frobenius norm
        reaches the largest lower end can hold the maximum, and only those go
        to `np.linalg.svd`, on their unscaled values: the bound is the one a
        full SVD of every matrix gives, to the bit. The brackets are taken on
        the weights divided by their largest magnitude (one per member), so
        no square overflows and the largest lower end, at least 1, is far
        above any underflow; the 1e-12 relative slack covers their
        rounding."""
        lead, axes = self._flat.shape[:-1], (-3, -2, -1)
        blocks = [W.reshape(lead + (-1,) + W.shape[-2:]) for W in self._runs(self._flat)]
        top = np.max([np.maximum(W.max(axis=axes, initial=0.0), -W.min(axis=axes, initial=0.0))
                      for W in blocks], axis=0)
        # one scale per member, shaped to divide (..., M, F) vectors
        scale = np.where(top > 0.0, top, 1.0)[..., None, None]
        tiny = np.finfo(np.float64).tiny
        fro, lower = [], np.zeros(lead)
        for W in blocks:
            sq = W / scale[..., None]
            np.square(sq, out=sq)
            rows = np.einsum("...ij->...i", sq)
            fro.append(np.sqrt(np.einsum("...i->...", rows)))
            # two power steps from the largest row on the scaled matrices,
            # whose products with a vector are W's divided by the scale
            r = np.take_along_axis(W, rows.argmax(axis=-1)[..., None, None], axis=-2)[..., 0, :]
            Ar = np.einsum("...ij,...j->...i", W, r / scale) / scale
            x = np.einsum("...ij,...i->...j", W, Ar) / scale
            Ax = np.einsum("...ij,...j->...i", W, x) / scale
            stretch = (np.einsum("...i,...i->...", Ax, Ax)
                       / np.maximum(np.einsum("...i,...i->...", x, x), tiny))
            lower = np.maximum(lower, np.sqrt(stretch.max(axis=-1, initial=0.0)))
        bound = np.zeros(lead)
        for W, f in zip(blocks, fro):
            chosen = (f > 0.0) & (f >= (1.0 - 1e-12) * lower[..., None])
            norms = np.zeros(chosen.shape)
            if chosen.any():
                norms[chosen] = np.linalg.svd(W[chosen], compute_uv=False)[:, 0]
            bound = np.maximum(bound, norms.max(axis=-1, initial=0.0))
        return float(bound) if self.members is None else bound


def _view(flat: np.ndarray, entry: tuple) -> np.ndarray:
    """The view into ``flat`` of one `Model._layout` entry ``(start, stop,
    shape)``; a leading member axis of ``flat`` leads the view."""
    a, b, shape = entry
    return flat[..., a:b].reshape(flat.shape[:-1] + shape)


def _member_arrays(model: Model) -> list[np.ndarray]:
    """Every array that `Model.stack` keeps per member besides the parameters,
    in a fixed order: the incidences and records of every level."""
    arrays = []
    for ops in model.operators.values():
        arrays += [ops.B_down, ops.B_up]
        for spec in (ops.spectrum_down, ops.spectrum_up):
            arrays += [spec.eigenvalues, spec.eigenvectors]
    return arrays


def _set_member_arrays(model: Model, arrays) -> None:
    """Give ``model`` new operators that hold ``arrays`` in place of those
    `_member_arrays` lists, in its order."""
    it = iter(arrays)
    operators = {}
    for k, ops in model.operators.items():
        B_down, B_up = next(it), next(it)
        down, up = (replace(spec, eigenvalues=next(it), eigenvectors=next(it))
                    for spec in (ops.spectrum_down, ops.spectrum_up))
        operators[k] = replace(ops, B_down=B_down, B_up=B_up, spectrum_down=down, spectrum_up=up)
    model.operators = operators


def _stack_config(model: Model, arrays: list[np.ndarray]) -> tuple:
    """What the members of one stack must share; ``arrays`` are the model's
    `_member_arrays`. Their last axis is left out: an incidence's is a
    simplex count, compared with the operators' incidence shapes, and a
    record's is its rank, which `_put` pads."""
    return (
        model.widths, model.out_level, model.n_branches, model.activation, model.leaky_slope,
        [(k, ops.B_down.shape, ops.B_up.shape) for k, ops in model.operators.items()],
        [a.shape[:-1] for a in arrays],
    )


def _put(slot: np.ndarray, rows, src: np.ndarray) -> np.ndarray:
    """``slot`` with ``src`` written into its ``rows``, aligned to the end of
    the last axis behind leading zeros; a zero-filled slot narrower than
    ``src`` is first widened with leading zeros. Returns the slot."""
    width = max(slot.shape[-1], src.shape[-1])
    if slot.shape[-1] < width:
        wide = np.zeros(slot.shape[:-1] + (width,))
        wide[..., width - slot.shape[-1]:] = slot
        slot = wide
    slot[rows, ..., width - src.shape[-1]:] = src
    return slot


@dataclass(frozen=True)
class _Inputs:
    """A model's record of its inputs (`Model._record`): ``levels``, each
    level's input, validated and in float64, and ``first``, per level that
    the first layer runs, its `CochainTriple` and, for the continuous family,
    its `_side_inputs` (stacked inputs and record coefficients), else None.
    Only the first layer reads its inputs unchanged through a `train` run,
    so what it needs of them is made once."""

    levels: dict
    first: dict


class _Gradients(Mapping):
    """`Model.backward`'s result: gradients keyed like `params`, in
    ``flat``, which is laid out like the parameter vector; indexing a name
    makes its view."""

    def __init__(self, model: Model, flat: np.ndarray):
        self._model, self.flat = model, flat

    def __getitem__(self, name: str) -> np.ndarray:
        return _view(self.flat, self._model._layout[name])

    def __iter__(self):
        return iter(self._model._layout)

    def __len__(self) -> int:
        return len(self._model._layout)


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
    axis); what the first layer reads of them is recorded once, before the
    first epoch (`Model._record`). ``readout(output, targets)`` returns (loss, dLoss/doutput) and gets
    ``targets`` unchanged, so any head (MSE, candidate cross-entropy) plugs in.
    Each step scales the gradient down to global norm ``clip_norm`` if it is
    longer (norm summed per parameter in sorted order, so runs are
    reproducible across processes), then updates ``v = momentum * v + g`` and
    ``p -= step_size * v`` on the model's parameter vector, of which
    ``model.params`` are views. A ``step_size`` that is not finite and
    ``> 0``, a ``momentum`` outside ``[0, 1)``, a ``clip_norm`` that is
    neither None nor finite and ``> 0`` and ``epochs < 0`` raise `ValueError`
    naming the setting, before the first forward, as such a run would ascend,
    diverge, stall or not clip. So does a parameter that is not finite, such
    as the ``tau = -inf`` of a receptive field at ``t = 0``: such a model is
    forward-only. A loss or parameter that becomes non-finite raises
    `TrainingDivergedError`. Both parameter errors name the first such
    parameter in sorted order.

    A stacked model (`Model.stack`) trains each member on its own: the
    readout returns one loss per member, shape ``(E,)``, and the gradient of
    their sum, which never mixes members; momentum and step are elementwise,
    so member ``e`` follows the path of its own unstacked run. The trace
    records the loss arrays, and the divergence error names the member.
    ``clip_norm`` is refused, because a global norm would couple the members.
    """
    if not 0.0 < config.step_size < math.inf:
        raise ValueError(f"step_size must be finite and > 0, got {config.step_size}")
    if not 0.0 <= config.momentum < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {config.momentum}")
    if config.clip_norm is not None and not 0.0 < config.clip_norm < math.inf:
        raise ValueError(f"clip_norm must be None or finite and > 0, got {config.clip_norm}")
    if config.epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {config.epochs}")
    E = model.members
    if E is not None and config.clip_norm is not None:
        raise ValueError("clip_norm would couple the members of a stacked model")
    theta = model._flat
    velocity = np.zeros_like(theta)
    # the names are read only to clip and to name a non-finite parameter
    names = sorted(model.params) if config.clip_norm is not None else None
    trace = TrainingTrace()

    def blame(values):
        """Member suffix, recent losses and index of the first non-finite
        member of ``values``; no member for an unstacked model."""
        if E is None:
            return "", trace.losses[-5:], None
        e = int(np.argmin(np.isfinite(values).reshape(E, -1).all(axis=1)))
        return f" of member {e}", [float(loss[e]) for loss in trace.losses[-5:]], e

    def first_non_finite():
        """The first non-finite parameter in sorted order, and `blame` of it."""
        name = next(n for n in sorted(model.params) if not np.all(np.isfinite(model.params[n])))
        return name, blame(model.params[name])

    if not np.isfinite(theta).all():
        name, (member, _, _) = first_non_finite()
        raise ValueError(
            f"parameter {name}{member} is not finite before training; a receptive "
            "field at t = 0 or t = inf is forward-only"
        )
    # the first layer's inputs never change: project them and take their
    # record coefficients once
    record = model._record(inputs)
    for epoch in range(config.epochs):
        # the previous epoch's cache is freed only once this forward returns.
        # Freed before it (``del cache`` after the backward), a 10-epoch
        # trajectory fit peaks lower, 96 MB RSS instead of 113, but glibc
        # trims the freed heap and this forward faults it back in: 127k minor
        # faults per fit instead of 24-38k, and the fit runs 17 % slower
        # (2-vCPU x86-64 VM, one BLAS thread)
        out, cache = model.forward(record)
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
        g = grads.flat
        if config.clip_norm is not None:
            gnorm = math.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in names))
            if gnorm > config.clip_norm:
                g *= config.clip_norm / gnorm
        velocity *= config.momentum
        velocity += g
        theta -= config.step_size * velocity
        if not np.isfinite(theta).all():
            name, (member, recent, _) = first_non_finite()
            raise TrainingDivergedError(
                f"parameter {name}{member} became non-finite at epoch {epoch}; "
                f"recent losses: {recent}"
            )
    return trace


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


# the model settings a checkpoint records, and every key of a checkpoint, in
# the order `save_model` writes them; `load_model` reads exactly these keys
_SETTINGS = ("family", "widths", "out_level", "n_branches", "activation", "leaky_slope")
_CHECKPOINT_KEYS = _SETTINGS + ("complex_checksum", "run", "params")


def save_model(model: Model, path, complex_checksum: str, run: dict | None = None) -> None:
    """Write a JSON checkpoint of the `_CHECKPOINT_KEYS`: the model's
    settings, the checksum of its complex, ``run``, the JSON record of the
    run that trained it (null if not given), which `load_model` does not
    read, and the parameters."""
    if model.members is not None:
        raise ValueError("a stacked model has no single complex to checkpoint")
    saved = {
        "complex_checksum": complex_checksum,
        "run": run,
        "params": {
            # strict JSON: a forward-only t = 0 or t = inf is its string
            name: {"shape": list(p.shape),
                   "data": [v if math.isfinite(v) else str(v) for v in p.ravel().tolist()]}
            for name, p in sorted(model.params.items())
        },
    }
    payload = {key: saved[key] if key in saved else getattr(model, key) for key in _CHECKPOINT_KEYS}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_model(path, complex: SimplicialComplex) -> Model:
    """Rebuild a saved model on ``complex``. The checkpoint must be a JSON
    object of exactly the `_CHECKPOINT_KEYS`, saved for a complex of the same
    checksum, with settings that `Model` takes and, for each parameter of the
    model and no other, its shape and the flat data that fills it. Any other
    checkpoint raises `CheckpointError`, which names the key, setting or
    parameter at fault."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    wrong = [f"missing key {key!r}" for key in _CHECKPOINT_KEYS if key not in data]
    wrong += [f"foreign key {key!r}" for key in data if key not in _CHECKPOINT_KEYS]
    if wrong:
        raise CheckpointError(f"checkpoint {path} has {', '.join(wrong)}")
    if data["complex_checksum"] != complex.checksum():
        raise CheckpointError(
            f"checkpoint {path} was trained on complex {data['complex_checksum']}, "
            f"not on the given complex {complex.checksum()}"
        )
    try:
        model = Model.from_complex(complex, **{key: data[key] for key in _SETTINGS})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} holds a setting that Model refuses: {exc}")
    params = data["params"]
    if not isinstance(params, dict):
        raise CheckpointError(f"checkpoint {path} key 'params' is not an object")
    missing = [name for name in model.params if name not in params]
    if missing:
        raise CheckpointError(f"checkpoint lacks model parameter(s) {', '.join(missing)}")
    for name, entry in params.items():
        if name not in model.params:
            raise CheckpointError(f"checkpoint parameter {name} not present in model")
        p = model.params[name]
        try:
            shape, values = tuple(entry["shape"]), np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint parameter {name} is not a shape and its data: {exc!r}")
        if shape != p.shape or values.shape != (p.size,):
            raise CheckpointError(f"checkpoint parameter {name} has shape {list(shape)} and data of "
                                  f"shape {list(values.shape)}; the model's has shape {list(p.shape)}")
        p[...] = values.reshape(p.shape)
    return model
