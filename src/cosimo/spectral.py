"""Symmetric eigendecompositions and closed-form exponential Hodge filters.

The workhorse is `exp_filter`, which applies ``e^{-t L} X W`` through an
eigendecomposition. It filters one input; the continuous-layer kernels in `nn`
make one round-trip per Laplacian through its range only
(`HodgeSpectrum.range`, the eigenpairs of its nonzero eigenvalues),
``Y + V_r ((w_r - 1) ⊙ V_r^T Y)`` (`range_heat`, as `exp_filter` on a
range-only record), since ``e^{-t L}`` is the identity on the kernel of ``L``;
a zero operator has an empty range and costs nothing. Both read the same
`heat_weights`, the only site of ``e^{-t lam}``, valid for every
``t`` in ``[0, inf]``: ``t = 0`` is the identity and ``t = inf`` is the
projection onto the kernel of ``L``. Kernel modes are the eigenvalues within
`ZERO_EIG_TOL` of zero; their heat weight is pinned to exactly 1, because
``eigh`` returns them as ``+-1e-16``-sized noise rather than exact zeros.
`matrix_exp_oracle` provides an independent dense route (scaling-and-squaring
on a Taylor core) used to validate the spectral one.

`HodgeSpectrum` is the one spectrum type. An operator record, the spectrum
that `complexes.HodgeOperators` hold for each of their Laplacians, lists every
nonzero eigenpair of its operator with orthonormal columns; its unlisted
modes are kernel. It is one of three kinds:

- a full spectrum, ``eig_sym(L)``, which lists the kernel modes too;
- the zero record of a zero operator, `zero_spectrum`, the bits that
  `eig_sym` returns for it;
- a range-only record (``range_only``), which lists the nonzero eigenpairs
  alone. `range_spectrum` builds it for ``L = A A^T`` from the decomposition
  of the smaller Gram matrix ``A^T A``: the nonzero eigenpairs of ``A A^T``
  are ``(sigma^2, A u / sigma)`` for the eigenpairs ``(sigma^2, u)`` of
  ``A^T A`` (Lim, "Hodge Laplacians on graphs", SIAM Review 2020). So the
  edge-level Laplacians are never decomposed.

`truncate` takes low-frequency views of a full spectrum, which drop nonzero
modes and so are no operator record: `exp_filter` filters through the modes
they keep, and `HodgeSpectrum.range` refuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .complexes import HodgeOperators

# Eigenvalues with |lam| <= ZERO_EIG_TOL * max(1, max |lam|) are kernel modes.
ZERO_EIG_TOL = 1e-9


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


@dataclass(frozen=True)
class HodgeSpectrum:
    """K eigenpairs of a symmetric PSD ``n x n`` operator, eigenvalues
    ascending: eigenvalues ``(K,)`` and eigenvectors ``(n, K)``, with
    ``K = n`` for a full spectrum. ``range_only`` marks a record that lists
    only nonzero eigenpairs: its unlisted modes are kernel, where ``e^{-tL}``
    is the identity (see the module docstring). A stack of records over
    members, ``(E, K)`` and ``(E, n, K)``, pads a row of lower rank with
    leading zero eigenpairs, kernel modes with a zero eigenvector."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    range_only: bool = False

    @property
    def K(self) -> int:
        return self.eigenvalues.shape[-1]

    @cached_property
    def rates(self) -> np.ndarray:
        """Heat-kernel decay rates: the eigenvalues with kernel modes set to
        exactly 0, so their weight ``e^{-t * 0}`` and its t-derivative are
        exact."""
        return np.where(kernel_modes(self.eigenvalues), 0.0, self.eigenvalues)

    @cached_property
    def range(self) -> "HodgeSpectrum":
        """The trailing ``r`` eigenpairs, views into this spectrum, with ``r``
        the largest count of non-kernel modes over the rows of a stack
        ``(E, K)``: the modes where ``e^{-tL}`` differs from the identity.
        A row of lower rank gets kernel modes among them, at rate exactly 0.
        The slice keeps each row's largest eigenvalue, the scale of
        `kernel_modes`, so its `rates` are the slice of these. A range-only
        record is its own range. Refused for a truncated spectrum
        (``K < n`` without ``range_only``), on which ``I - V_r V_r^T`` is not
        the projection onto the kernel."""
        n = self.eigenvectors.shape[-2]
        if self.K < n and not self.range_only:
            raise ValueError(
                f"spectrum keeps {self.K} of {n} modes; filtering through the range "
                "needs an operator record"
            )
        r = int((self.rates != 0.0).sum(axis=-1).max(initial=0))
        return HodgeSpectrum(
            eigenvalues=self.eigenvalues[..., self.K - r:],
            eigenvectors=self.eigenvectors[..., self.K - r:],
            range_only=True,
        )


def kernel_modes(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the numerically-zero eigenvalues (see `ZERO_EIG_TOL`). The
    scale is taken per row, so each spectrum of a stack ``(E, K)`` keeps its
    own kernel."""
    w = np.abs(eigenvalues)
    if not w.size:
        return w <= 0.0
    return w <= ZERO_EIG_TOL * np.maximum(1.0, w.max(axis=-1, keepdims=True))


def heat_weights(spectrum: HodgeSpectrum, t) -> np.ndarray:
    """Mode weights ``e^{-t lam}`` of the heat kernel, 1 on kernel modes for
    every t, so ``t = inf`` gives the kernel indicator instead of NaN.

    ``t`` is one time, or one per member, shape ``(E,)``, for a spectrum
    stacked over members (rates ``(E, K)``, weights ``(E, K)``).
    """
    rates = spectrum.rates
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


def zero_spectrum(n: int) -> HodgeSpectrum:
    """Record of the zero ``n x n`` operator, ``(0, I)``, built without a
    decomposition: the bits `eig_sym` returns for it. Read-only."""
    w, V = np.zeros(n), np.eye(n)
    w.flags.writeable = V.flags.writeable = False
    return HodgeSpectrum(eigenvalues=w, eigenvectors=V)


def range_spectrum(A: np.ndarray, gram: HodgeSpectrum) -> HodgeSpectrum:
    """Range-only record of ``A A^T`` from the spectrum ``gram`` of
    ``A^T A``: ``(sigma^2, A u / sigma)`` for each of its eigenpairs
    ``(sigma^2, u)`` off the kernel, ascending, with orthonormal columns.
    Read-only."""
    keep = ~kernel_modes(gram.eigenvalues)
    w = gram.eigenvalues[keep]
    V = (A @ gram.eigenvectors[:, keep]) / np.sqrt(w)
    w.flags.writeable = V.flags.writeable = False
    return HodgeSpectrum(eigenvalues=w, eigenvectors=V, range_only=True)


def truncate(spectrum: HodgeSpectrum, K: int) -> HodgeSpectrum:
    """Keep the K smallest eigenpairs (the low-frequency modes, where
    ``e^{-t lam}`` has the largest magnitude), as views into ``spectrum``.
    Refused for a range-only record, which lacks the kernel modes."""
    if spectrum.range_only:
        raise ValueError("truncate needs a full spectrum, not a range-only record")
    if not 1 <= K <= spectrum.K:
        raise ValueError(f"K must be in [1, {spectrum.K}], got {K}")
    return HodgeSpectrum(
        eigenvalues=spectrum.eigenvalues[:K], eigenvectors=spectrum.eigenvectors[:, :K]
    )


def exp_filter(
    spectrum: HodgeSpectrum,
    t: float,
    X: np.ndarray,
    W: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``e^{-t L} X W`` through the eigendecomposition ``spectrum``:
    ``V (w ⊙ V^T X) W`` through the modes it lists, or
    ``(X + V ((w - 1) ⊙ V^T X)) W`` for a range-only record, whose unlisted
    modes are kernel. So every operator record gives the heat kernel of its
    operator, and a truncated spectrum its low-frequency approximation.

    Valid for ``0 <= t <= inf``; ``t = inf`` projects onto the kernel modes
    of the operator. X may carry leading batch dimensions; the filter acts on
    its second-to-last axis. W=None means identity weights.
    """
    if t < 0:
        raise ValueError(f"diffusion time must be nonnegative, got {t}")
    X = np.asarray(X, dtype=np.float64)
    V = spectrum.eigenvectors
    if X.shape[-2] != V.shape[-2]:
        raise ValueError(f"signal has {X.shape[-2]} rows, operator acts on {V.shape[-2]}")
    Y = (range_heat(spectrum, t, X)[0] if spectrum.range_only
         else V @ (heat_weights(spectrum, t)[:, None] * (V.T @ X)))
    return Y if W is None else Y @ W


def range_heat(spectrum: HodgeSpectrum, t, Y: np.ndarray):
    """``e^{-tL} Y = Y + V_r ((w_r - 1) ⊙ V_r^T Y)`` through a range-only
    record of L, with ``w_r = heat_weights(spectrum, t)``, and the stash
    ``(V_r^T Y, w_r)`` that the backward in `nn` needs. A rank-0 record
    returns ``Y`` itself and makes no eigenbasis product."""
    if not spectrum.K:
        return Y, None
    V = spectrum.eigenvectors
    w = heat_weights(spectrum, t)
    S = np.swapaxes(V, -1, -2) @ Y
    return Y + V @ ((w - 1.0)[..., None] * S), (S, w)


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
    down: HodgeSpectrum,
    up: HodgeSpectrum,
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
    """Records of one level's lower and upper Laplacians, for callers outside
    the package only: within it, every consumer reads
    ``HodgeOperators.spectrum_down``/``spectrum_up`` themselves.

    A missing lower Laplacian (k = 0) is represented by the zero operator, so
    its exponential filter is the identity there.
    """

    level: int
    down: HodgeSpectrum
    up: HodgeSpectrum

    @staticmethod
    def from_operators(ops: HodgeOperators) -> "LevelSpectra":
        """The records that ``ops`` hold, not copies."""
        return LevelSpectra(level=ops.level, down=ops.spectrum_down, up=ops.spectrum_up)

