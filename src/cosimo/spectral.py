"""Symmetric eigendecompositions and closed-form exponential Hodge filters.

`HodgeSpectrum` is the one spectrum type. An operator record, the spectrum
that `complexes.HodgeOperators` hold for each of their Laplacians, keeps one
contract: it lists every nonzero eigenpair of its operator with orthonormal
columns, and any kernel mode it lists has eigenvalue exactly ``0.0``. The one
rank rule, `kernel_modes` (eigenvalues within `ZERO_EIG_TOL` of zero, which
``eigh`` returns as ``+-1e-16``-sized noise), is applied once, by `eig_sym`,
which sets those eigenvalues to exactly ``0.0``; every other reader tells a
kernel mode by ``lam == 0``. `range_spectrum` builds the record of
``L = A A^T`` from the spectrum of the smaller Gram matrix ``A^T A``: the
nonzero eigenpairs of ``A A^T`` are ``(sigma^2, A u / sigma)`` for the
eigenpairs ``(sigma^2, u)`` of ``A^T A`` (Lim, "Hodge Laplacians on graphs",
SIAM Review 2020), so the edge-level Laplacians are never decomposed.

``e^{-t L}`` is the identity on the kernel of ``L``, so a record filters as
``Y + V ((w - 1) ⊙ V^T Y)`` (`range_heat`, which `exp_filter` and the
continuous-layer kernels in `nn` apply), and an empty record, a zero
operator's, passes its input through at no cost. Both
read `heat_weights`, the only site of ``e^{-t lam}``, valid for every ``t`` in
``[0, inf]``: ``t = 0`` is the identity and ``t = inf`` the projection onto
the kernel of ``L``. `matrix_exp_oracle` provides an independent dense route
(scaling-and-squaring on a Taylor core) used to validate the spectral one.

`truncate` takes low-frequency views of a full spectrum (``truncated``),
which drop nonzero modes and so are no operator record: `exp_filter` filters
through the modes they keep, ``V (w ⊙ V^T X)``, and `nn.Model` refuses
operators that hold one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ascending: eigenvalues ``(K,)`` and eigenvectors ``(n, K)``. An operator
    record (see the module docstring) unless ``truncated``, which marks a
    low-frequency view from `truncate`. A stack of records over members,
    ``(E, K)`` and ``(E, n, K)``, pads a row of lower rank with leading zero
    eigenpairs, kernel modes with a zero eigenvector."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    truncated: bool = False

    @property
    def K(self) -> int:
        return self.eigenvalues.shape[-1]


def kernel_modes(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the numerically-zero eigenvalues (see `ZERO_EIG_TOL`), which
    `eig_sym` sets to exactly 0."""
    w = np.abs(eigenvalues)
    return w <= ZERO_EIG_TOL * max(1.0, w.max(initial=0.0))


def heat_weights(spectrum: HodgeSpectrum, t) -> np.ndarray:
    """Mode weights ``e^{-t lam}`` of the heat kernel, 1 on kernel modes
    (``lam == 0``) for every t, so ``t = inf`` gives the kernel indicator
    instead of NaN.

    ``t`` is one time, or one per member, shape ``(E,)``, for a spectrum
    stacked over members (eigenvalues ``(E, K)``, weights ``(E, K)``).
    """
    w = spectrum.eigenvalues
    # kernel modes see t = 0, so their weight is exactly 1 even at t = inf
    t = np.where(w == 0.0, 0.0, np.asarray(t, dtype=np.float64)[..., None])
    return np.exp(-(t * w))


def signal_norm(x: np.ndarray):
    """Spectral norm ``||x||_2`` of a signal or an error matrix, a vector
    being one column: a float, or one norm per matrix over leading axes.

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


def eig_sym(L: np.ndarray) -> HodgeSpectrum:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention.

    Eigenvalues come out ascending with orthonormal eigenvector columns, and
    those that `kernel_modes` marks are set to exactly 0; each column is
    flipped so its first nonzero component is positive, making the
    decomposition reproducible across runs. Both arrays are read-only.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    D = L - L.T
    asymmetry = np.abs(D, out=D).max(initial=0.0)
    if asymmetry > 1e-12:
        raise ValueError(f"matrix is not symmetric: max |L - L^T| = {asymmetry:.3e}")
    try:
        w, V = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    w[kernel_modes(w)] = 0.0

    # Sign convention: first component with non-negligible magnitude positive.
    if V.size:
        A = np.abs(V)
        nonzero = A > 1e-12 * np.maximum(1.0, A.max(axis=0))
        first = np.argmax(nonzero, axis=0)
        cols = np.arange(V.shape[1])
        flip = nonzero[first, cols] & (V[first, cols] < 0)
        V *= np.where(flip, -1.0, 1.0)
    w.flags.writeable = V.flags.writeable = False
    return HodgeSpectrum(eigenvalues=w, eigenvectors=V)


def zero_spectrum(n: int) -> HodgeSpectrum:
    """Record of the zero ``n x n`` operator, which lists no eigenpair:
    eigenvalues ``(0,)`` and eigenvectors ``(n, 0)``. Read-only."""
    w, V = np.zeros(0), np.zeros((n, 0))
    w.flags.writeable = V.flags.writeable = False
    return HodgeSpectrum(eigenvalues=w, eigenvectors=V)


def record_of(spectrum: HodgeSpectrum) -> HodgeSpectrum:
    """The record of an operator from its full spectrum (`eig_sym`): the
    trailing, nonzero eigenpairs, as views; none for a zero operator."""
    r = spectrum.K - np.count_nonzero(spectrum.eigenvalues)
    return HodgeSpectrum(spectrum.eigenvalues[r:], spectrum.eigenvectors[:, r:])


def range_spectrum(A: np.ndarray, gram: HodgeSpectrum) -> HodgeSpectrum:
    """Record of ``A A^T`` from the spectrum ``gram`` of ``A^T A``:
    ``(sigma^2, A u / sigma)`` for each of its nonzero eigenpairs
    ``(sigma^2, u)``, ascending, with orthonormal columns; none when ``A``
    is zero or empty, eigenvectors ``(n, 0)``. Read-only. ``A`` is an array,
    or anything with its ``@`` (a clean complex's `complexes._RowTable`)."""
    keep = gram.eigenvalues != 0.0
    w = gram.eigenvalues[keep]
    # a dense product's bits follow its operand's layout, so it keeps the
    # column-major copy the mask makes; a table gathers whole rows, from the
    # row-major view of the trailing, nonzero columns (`record_of`)
    U = gram.eigenvectors[:, keep] if isinstance(A, np.ndarray) else record_of(gram).eigenvectors
    V = A @ U
    V /= np.sqrt(w)
    w.flags.writeable = V.flags.writeable = False
    return HodgeSpectrum(eigenvalues=w, eigenvectors=V)


def truncate(spectrum: HodgeSpectrum, K: int) -> HodgeSpectrum:
    """Keep the K smallest eigenpairs (the low-frequency modes, where
    ``e^{-t lam}`` has the largest magnitude), as views into ``spectrum``,
    marked ``truncated``. Refused unless ``spectrum`` lists all ``n`` modes,
    as `eig_sym` gives them."""
    n = spectrum.eigenvectors.shape[-2]
    if spectrum.K != n:
        raise ValueError(f"truncate needs a full spectrum; this one keeps {spectrum.K} of {n} modes")
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    return HodgeSpectrum(spectrum.eigenvalues[:K], spectrum.eigenvectors[:, :K], truncated=True)


def exp_filter(
    spectrum: HodgeSpectrum,
    t: float,
    X: np.ndarray,
    W: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``e^{-t L} X W`` through the eigendecomposition ``spectrum``:
    `range_heat` through an operator record, the heat kernel of its operator,
    or ``V (w ⊙ V^T X) W`` through the modes a truncated view keeps, its
    low-frequency approximation.

    Valid for ``0 <= t <= inf``, not NaN; ``t = inf`` projects onto the
    kernel modes of the operator. X may carry leading batch dimensions; the
    filter acts on its second-to-last axis. W=None means identity weights.
    """
    if not t >= 0:
        raise ValueError(f"diffusion time must be nonnegative, got {t}")
    X = np.asarray(X, dtype=np.float64)
    V = spectrum.eigenvectors
    if X.shape[-2] != V.shape[-2]:
        raise ValueError(f"signal has {X.shape[-2]} rows, operator acts on {V.shape[-2]}")
    Y = (V @ (heat_weights(spectrum, t)[:, None] * (V.T @ X)) if spectrum.truncated
         else range_heat(spectrum, t, X)[0])
    return Y if W is None else Y @ W


def _range_coefficients(spectrum: HodgeSpectrum, Y: np.ndarray):
    """The coefficients ``V^T Y`` of ``Y`` on an operator record, or None
    for an empty record, which filters nothing."""
    if not spectrum.K:
        return None
    return np.swapaxes(spectrum.eigenvectors, -1, -2) @ Y


def range_heat(spectrum: HodgeSpectrum, t, Y: np.ndarray, S=None):
    """``e^{-tL} Y = Y + V ((w - 1) ⊙ V^T Y)`` through an operator record
    of L, with ``w = heat_weights(spectrum, t)``, and the stash
    ``(V^T Y, w)`` that the backward in `nn` needs. ``S`` is
    `_range_coefficients` of ``Y`` when the caller holds them, which saves
    their eigenbasis product. An empty record returns ``Y`` itself and the
    stash None, with no eigenbasis product."""
    if S is None:
        S = _range_coefficients(spectrum, Y)
        if S is None:
            return Y, None
    w = heat_weights(spectrum, t)
    return Y + spectrum.eigenvectors @ ((w - 1.0)[..., None] * S), (S, w)


def matrix_exp_oracle(L: np.ndarray, t: float) -> np.ndarray:
    """Dense ``e^{-t L}`` by scaling-and-squaring with a Taylor-series core.

    Independent of any eigendecomposition; accurate to ~1e-12 relative in
    max-norm for ``||t L|| <= 100``. A NaN ``t`` is refused, and so is
    ``t = inf``, whose ``-t L`` is NaN wherever ``L`` is 0: the filters take
    it as the projection onto the kernel, which a series cannot reach.
    """
    if not t >= 0:
        raise ValueError(f"diffusion time must be nonnegative, got {t}")
    if t == math.inf:
        raise ValueError("diffusion time t = inf is outside the series oracle; "
                         "the filters take it as the kernel projection")
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
    so the trajectory lands exactly on t_end, which must be finite.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
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
    ``HodgeOperators.spectrum_down``/``spectrum_up`` themselves."""

    level: int
    down: HodgeSpectrum
    up: HodgeSpectrum

    @staticmethod
    def from_operators(ops: HodgeOperators) -> "LevelSpectra":
        """The records that ``ops`` hold, not copies; an empty one as ``(0, I)``."""
        down, up = (spec if spec.K else HodgeSpectrum(np.zeros(ops.n), np.eye(ops.n))
                    for spec in (ops.spectrum_down, ops.spectrum_up))
        return LevelSpectra(level=ops.level, down=down, up=up)

