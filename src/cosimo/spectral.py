"""Symmetric eigendecompositions and closed-form exponential Hodge filters.

The workhorse is `exp_filter`, which applies ``e^{-t L} X W`` through a
(possibly truncated) eigendecomposition: ``V_K (e^{-t lam_K} ⊙ (V_K^T X)) W``.
It filters one input; the continuous-layer kernels in `nn` make one
eigenbasis round-trip per Laplacian with the same `heat_weights`, the only
site of ``e^{-t lam}``, valid for every ``t`` in ``[0, inf]``: ``t = 0`` is
the identity (on the retained modes) and ``t = inf`` is the projection onto
the kernel of ``L``. Kernel modes are the eigenvalues within `ZERO_EIG_TOL`
of zero; their heat weight is pinned to exactly 1, because ``eigh`` returns
them as ``+-1e-16``-sized noise rather than exact zeros. `matrix_exp_oracle`
provides an independent dense route (scaling-and-squaring on a Taylor core)
used to validate the spectral one. `truncate` returns views into the full
spectra that `complexes.HodgeOperators` decompose once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .complexes import HodgeOperators

LOW_FREQUENCY = "low-frequency"
DOMINANT = "dominant"
_POLICIES = (LOW_FREQUENCY, DOMINANT)

# Eigenvalues with |lam| <= ZERO_EIG_TOL * max(1, max |lam|) are kernel modes.
ZERO_EIG_TOL = 1e-9


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


@dataclass(frozen=True)
class HodgeSpectrum:
    """Full spectrum of a symmetric PSD operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class TruncatedSpectrum:
    """K retained eigenpairs of a spectrum of an ``n x n`` operator:
    eigenvalues ``(K,)`` and eigenvectors ``(n, K)``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def K(self) -> int:
        return self.eigenvalues.shape[-1]

    @cached_property
    def rates(self) -> np.ndarray:
        """Heat-kernel decay rates: the eigenvalues with kernel modes set to
        exactly 0, so their weight ``e^{-t * 0}`` and its t-derivative are
        exact."""
        return np.where(kernel_modes(self.eigenvalues), 0.0, self.eigenvalues)


def kernel_modes(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the numerically-zero eigenvalues (see `ZERO_EIG_TOL`). The
    scale is taken per row, so each spectrum of a stack ``(E, K)`` keeps its
    own kernel."""
    w = np.abs(eigenvalues)
    if not w.size:
        return w <= 0.0
    return w <= ZERO_EIG_TOL * np.maximum(1.0, w.max(axis=-1, keepdims=True))


def heat_weights(trunc: TruncatedSpectrum, t) -> np.ndarray:
    """Mode weights ``e^{-t lam}`` of the heat kernel, 1 on kernel modes for
    every t, so ``t = inf`` gives the kernel indicator instead of NaN.

    ``t`` is one time, or one per member, shape ``(E,)``, for a spectrum
    stacked over members (rates ``(E, K)``, weights ``(E, K)``).
    """
    rates = trunc.rates
    # kernel modes see t = 0, so their weight is exactly 1 even at t = inf
    t = np.where(rates == 0.0, 0.0, np.asarray(t, dtype=np.float64)[..., None])
    return np.exp(-(t * rates))


def eig_sym(L: np.ndarray) -> HodgeSpectrum:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention.

    Eigenvalues come out ascending with orthonormal eigenvector columns; each
    column is flipped so its first nonzero component is positive, making the
    decomposition reproducible across runs. Both arrays are read-only.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    if L.size and np.max(np.abs(L - L.T)) > 1e-12:
        raise ValueError(
            f"matrix is not symmetric: max |L - L^T| = {np.max(np.abs(L - L.T)):.3e}"
        )
    try:
        w, V = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc

    # Sign convention: first component with non-negligible magnitude positive.
    if V.size:
        A = np.abs(V)
        nonzero = A > 1e-12 * np.maximum(1.0, A.max(axis=0))
        first = np.argmax(nonzero, axis=0)
        cols = np.arange(V.shape[1])
        flip = nonzero[first, cols] & (V[first, cols] < 0)
        V[:, flip] = -V[:, flip]
    w.flags.writeable = V.flags.writeable = False
    return HodgeSpectrum(eigenvalues=w, eigenvectors=V)


def truncate(
    spectrum: HodgeSpectrum, K: int, policy: str = LOW_FREQUENCY
) -> TruncatedSpectrum:
    """Keep K eigenpairs, as views into ``spectrum``.

    ``low-frequency`` keeps the K smallest eigenvalues (the modes where
    ``e^{-t lam}`` has the largest magnitude); ``dominant`` keeps the K
    largest ones instead.
    """
    n = spectrum.n
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    if policy not in _POLICIES:
        raise ValueError(f"unknown truncation policy {policy!r}, expected {_POLICIES}")
    kept = slice(0, K) if policy == LOW_FREQUENCY else slice(n - K, n)
    return TruncatedSpectrum(
        eigenvalues=spectrum.eigenvalues[kept], eigenvectors=spectrum.eigenvectors[:, kept]
    )


def exp_filter(
    trunc: TruncatedSpectrum,
    t: float,
    X: np.ndarray,
    W: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``e^{-t L} X W`` through the truncated eigendecomposition.

    Valid for ``0 <= t <= inf``; ``t = inf`` projects onto the retained kernel
    modes. X may carry leading batch dimensions; the filter acts on its
    second-to-last axis. W=None means identity weights.
    """
    if t < 0:
        raise ValueError(f"diffusion time must be nonnegative, got {t}")
    X = np.asarray(X, dtype=np.float64)
    V = trunc.eigenvectors
    if X.shape[-2] != V.shape[-2]:
        raise ValueError(f"signal has {X.shape[-2]} rows, operator acts on {V.shape[-2]}")
    Y = V @ (heat_weights(trunc, t)[:, None] * (V.T @ X))
    return Y if W is None else Y @ W


def matrix_exp_oracle(L: np.ndarray, t: float) -> np.ndarray:
    """Dense ``e^{-t L}`` by scaling-and-squaring with a Taylor-series core.

    Independent of any eigendecomposition; accurate to ~1e-12 relative in
    max-norm for ``||t L|| <= 100``.
    """
    if t < 0:
        raise ValueError(f"diffusion time must be nonnegative, got {t}")
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    n = L.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    A = -t * L
    norm = np.linalg.norm(A, np.inf)
    if not np.isfinite(norm) or norm > 1e5:
        raise OverflowError(f"||tL|| = {norm:.3e} too large for the series oracle")
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    A = A / (2.0**s)

    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ A / k
        E = E + term
        if np.max(np.abs(term)) <= 1e-18 * max(1.0, np.max(np.abs(E))):
            break
    for _ in range(s):
        E = E @ E
    return E


def cosimo_filter(
    down: TruncatedSpectrum,
    up: TruncatedSpectrum,
    x_down0: np.ndarray,
    x_up0: np.ndarray,
    x_joint0: np.ndarray,
    t_d: float,
    t_u: float,
) -> np.ndarray:
    """Closed-form solution of the coupled lower/upper heat diffusions.

    Sum of four exponential terms: the independently diffused lower and upper
    initial conditions plus the joint initial condition pushed through both
    kernels.
    """
    return (
        exp_filter(down, t_d, x_down0)
        + exp_filter(up, t_u, x_up0)
        + exp_filter(down, t_d, x_joint0)
        + exp_filter(up, t_u, x_joint0)
    )


def integrate_diffusion(
    L: np.ndarray, x0: np.ndarray, t_end: float, dt: float
) -> np.ndarray:
    """Explicit-Euler integration of ``dx/dt = -L x`` from x0 to t_end.

    Requires ``dt < 2 / lambda_max`` for stability; the last step is shortened
    so the trajectory lands exactly on t_end.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    L = np.asarray(L, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    if t_end == 0:
        return x
    lam_max = float(np.linalg.eigvalsh(L)[-1]) if L.size else 0.0
    if lam_max > 0 and dt >= 2.0 / lam_max:
        raise ValueError(
            f"dt = {dt} is unstable for lambda_max = {lam_max:.6g}; "
            f"need dt < {2.0 / lam_max:.6g}"
        )
    steps = int(math.ceil(t_end / dt))
    for i in range(steps):
        h = min(dt, t_end - i * dt)
        x = x - h * (L @ x)
    return x


# ---------------------------------------------------------------------------
# Per-level spectra bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSpectra:
    """Truncated spectra of one level's lower and upper Laplacians: views
    into the full spectra that its `HodgeOperators` decompose once.

    A missing lower Laplacian (k = 0) is represented by the zero operator, so
    its exponential filter is the identity there.
    """

    level: int
    down: TruncatedSpectrum
    up: TruncatedSpectrum

    @staticmethod
    def from_operators(
        ops: HodgeOperators, K: int | None = None, policy: str = LOW_FREQUENCY
    ) -> "LevelSpectra":
        """K eigenpairs (default all ``ops.n``) of each side, chosen by ``policy``."""
        K = ops.n if K is None else K
        return LevelSpectra(
            level=ops.level,
            down=truncate(ops.spectrum_down, K, policy),
            up=truncate(ops.spectrum_up, K, policy),
        )

