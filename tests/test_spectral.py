"""Eigendecomposition, truncation, exponential filters, diffusion integrator."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimo.analysis import stability_bound
from cosimo.complexes import build_complex, hodge_operators, perturb_incidence, random_points
from cosimo.delaunay import delaunay_complex
from cosimo.spectral import (
    cosimo_filter,
    eig_sym,
    exp_filter,
    integrate_diffusion,
    kernel_modes,
    matrix_exp_oracle,
    truncate,
)

from test_complexes import charpoly_roots_3x3


def random_psd(n, rng, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T) / n


def full_spectrum(L):
    """All eigenpairs of L, through `truncate` at full K."""
    return truncate(eig_sym(L), len(L))


def kernel_projector(tr):
    """Projector onto the eigenvectors whose eigenvalue is numerically zero."""
    lam_max = max(tr.eigenvalues.max(), 1.0)
    cols = tr.eigenvectors[:, tr.eigenvalues <= 1e-10 * lam_max]
    return cols @ cols.T


def svd_kernel_projector(L):
    """Projector onto the null space of L, found by SVD (no eigensolver)."""
    N = scipy.linalg.null_space(L, rcond=1e-9)
    return N @ N.T


def heat_oracle(L, t):
    """Dense ``e^{-tL}`` without an eigendecomposition. Past the norm guard of
    `matrix_exp_oracle` it splits off the kernel projector P and squares
    ``e^{-(t/2^s) L} (I - P)`` s times: that factor's spectrum lies below 1,
    so rounding does not compound the way it does along kernel modes."""
    norm = np.linalg.norm(L, np.inf)
    if t * norm <= 1e5:
        return matrix_exp_oracle(L, t)
    P = svd_kernel_projector(L)
    s = math.ceil(math.log2(t * norm / 1e2))
    M = matrix_exp_oracle(L, t / 2**s) @ (np.eye(len(L)) - P)
    for _ in range(s):
        M = M @ M
    return P + M


_HOLES = (((0.3, 0.3), 0.12), ((0.7, 0.7), 0.12))


def dense_records(ops):
    """``ops`` with records ``eig_sym`` of its dense lower and upper
    Laplacians: full spectra, the oracle for the operators' own records."""
    return replace(ops, spectrum_down=eig_sym(ops.L_down), spectrum_up=eig_sym(ops.L_up))


def mixed_sign_kernel_spectra():
    """Level-1 operators of a 30-point complex with two holes, and the same
    operators with the dense spectra of their Laplacians as records, whose
    numerically-zero eigenvalues come out of eigh with both signs and out of
    `eig_sym` as exactly 0."""
    ops = hodge_operators(delaunay_complex(random_points(30, rng_seed=0), _HOLES), 1)
    dense = dense_records(ops)
    for L, tr in ((ops.L_down, dense.spectrum_down), (ops.L_up, dense.spectrum_up)):
        w = np.linalg.eigvalsh(L)
        zeros = np.abs(w) <= 1e-10
        assert (w[zeros] > 0).any() and (w[zeros] < 0).any()
        assert tr.eigenvalues[zeros].tobytes() == np.zeros(zeros.sum()).tobytes()
    return ops, dense


class TestEigSym:
    def test_hollow_triangle_matches_charpoly(self):
        c = build_complex(edges=[(0, 1), (0, 2), (1, 2)])
        L = hodge_operators(c, 0).L
        spec = eig_sym(L)
        np.testing.assert_allclose(spec.eigenvalues, charpoly_roots_3x3(L), atol=1e-9)

    def test_diagonal_input(self):
        spec = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
        perm = np.abs(spec.eigenvectors)
        np.testing.assert_allclose(perm @ perm.T, np.eye(3), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        L = random_psd(20, rng, scale=5.0)
        spec = eig_sym(L)
        V, w = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs(V.T @ V - np.eye(20))) <= 1e-10
        recon = V @ np.diag(w) @ V.T
        assert np.max(np.abs(recon - L)) <= 1e-8 * np.max(np.abs(L))
        assert w[0] >= -1e-10
        assert np.all(np.diff(w) >= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(1)
        L = random_psd(12, rng)
        a = eig_sym(L)
        b = eig_sym(L.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        for j in range(12):
            col = a.eigenvectors[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTruncate:
    def test_full_k_keeps_every_mode(self):
        rng = np.random.default_rng(2)
        spec = eig_sym(random_psd(8, rng))
        tr = truncate(spec, 8)
        assert tr.K == spec.K == 8
        np.testing.assert_array_equal(tr.eigenvalues, spec.eigenvalues)
        np.testing.assert_array_equal(tr.eigenvectors, spec.eigenvectors)

    def test_policies_on_three_mode_spectrum(self):
        # the one rule keeps the low-frequency modes
        spec = eig_sym(np.diag([0.0, 1.0, 5.0]))
        low = truncate(spec, 2)
        np.testing.assert_allclose(sorted(low.eigenvalues), [0.0, 1.0])

    def test_k_out_of_range(self):
        spec = eig_sym(np.eye(3))
        with pytest.raises(ValueError):
            truncate(spec, 0)
        with pytest.raises(ValueError):
            truncate(spec, 4)

    def test_retained_columns_orthonormal(self):
        rng = np.random.default_rng(3)
        spec = eig_sym(random_psd(10, rng))
        tr = truncate(spec, 4)
        assert np.max(np.abs(tr.eigenvectors.T @ tr.eigenvectors - np.eye(4))) <= 1e-10


class TestExpFilter:
    def test_t_zero_full_k_is_xw(self):
        rng = np.random.default_rng(4)
        L = random_psd(9, rng)
        tr = full_spectrum(L)
        X = rng.standard_normal((9, 3))
        W = rng.standard_normal((3, 2))
        assert np.max(np.abs(exp_filter(tr, 0.0, X, W) - X @ W)) <= 1e-10

    def test_matches_dense_oracle_at_full_k(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(5, 16))
            L = random_psd(n, rng, scale=3.0)
            t = float(rng.uniform(0.0, 2.0))
            X = rng.standard_normal((n, 3))
            W = rng.standard_normal((3, 3))
            got = exp_filter(full_spectrum(L), t, X, W)
            want = matrix_exp_oracle(L, t) @ X @ W
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got - want)) <= 1e-8 * scale

    def test_truncation_error_non_increasing_in_k(self):
        rng = np.random.default_rng(6)
        L = random_psd(14, rng, scale=4.0)
        spec = eig_sym(L)
        X = rng.standard_normal((14, 2))
        W = rng.standard_normal((2, 2))
        dense = matrix_exp_oracle(L, 1.0) @ X @ W
        errs = []
        for K in range(1, 15):
            approx = exp_filter(truncate(spec, K), 1.0, X, W)
            errs.append(np.linalg.norm(approx - dense))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12

    def test_linearity_in_x_and_w(self):
        rng = np.random.default_rng(7)
        L = random_psd(10, rng)
        tr = full_spectrum(L)
        X1, X2 = rng.standard_normal((2, 10, 3))
        W1, W2 = rng.standard_normal((2, 3, 2))
        lhs = exp_filter(tr, 0.7, X1 + 2.0 * X2, W1)
        rhs = exp_filter(tr, 0.7, X1, W1) + 2.0 * exp_filter(tr, 0.7, X2, W1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        lhs = exp_filter(tr, 0.7, X1, W1 + 3.0 * W2)
        rhs = exp_filter(tr, 0.7, X1, W1) + 3.0 * exp_filter(tr, 0.7, X1, W2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        L = random_psd(12, rng, scale=2.0)
        tr = full_spectrum(L)
        X = rng.standard_normal((12, 4))
        once = exp_filter(tr, 0.9, exp_filter(tr, 0.4, X))
        direct = exp_filter(tr, 1.3, X)
        assert np.max(np.abs(once - direct)) <= 1e-8

    def test_infinite_t_is_kernel_projection(self):
        # the operators' records and the dense spectra alike
        ops, dense = mixed_sign_kernel_spectra()
        X = np.random.default_rng(25).standard_normal((ops.n, 3))
        for tr, full in ((ops.spectrum_down, dense.spectrum_down),
                         (ops.spectrum_up, dense.spectrum_up)):
            for record in (tr, full):
                got = exp_filter(record, math.inf, X)
                np.testing.assert_allclose(got, kernel_projector(full) @ X, atol=1e-10)

    def test_rejects_negative_t_and_bad_shapes(self):
        tr = full_spectrum(np.eye(3))
        with pytest.raises(ValueError, match="nonnegative"):
            exp_filter(tr, -0.1, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="rows"):
            exp_filter(tr, 0.1, np.zeros((4, 1)))


class TestMatrixExpOracle:
    def test_identity_at_t_zero(self):
        rng = np.random.default_rng(9)
        L = random_psd(6, rng)
        np.testing.assert_allclose(matrix_exp_oracle(L, 0.0), np.eye(6), atol=1e-14)

    def test_diagonal_operator(self):
        d = np.array([0.0, 0.5, 2.0, 7.0])
        got = matrix_exp_oracle(np.diag(d), 1.3)
        np.testing.assert_allclose(got, np.diag(np.exp(-1.3 * d)), rtol=1e-12)

    def test_agrees_with_eig_route(self):
        rng = np.random.default_rng(10)
        L = random_psd(15, rng, scale=3.0)
        spec = eig_sym(L)
        V, w = spec.eigenvectors, spec.eigenvalues
        for t in (0.3, 1.0, 2.5):
            via_eig = V @ np.diag(np.exp(-t * w)) @ V.T
            assert np.max(np.abs(matrix_exp_oracle(L, t) - via_eig)) <= 1e-10

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            L = random_psd(10, rng, scale=5.0)
            t = float(rng.uniform(0.1, 3.0))
            want = scipy.linalg.expm(-t * L)
            got = matrix_exp_oracle(L, t)
            assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))

    def test_norm_overflow_guard(self):
        with pytest.raises(OverflowError):
            matrix_exp_oracle(np.eye(3) * 1e7, 100.0)

    def test_infinite_time_is_refused_by_name(self):
        # before any arithmetic: -inf * L would be NaN at every zero of L
        L = hodge_operators(delaunay_complex(random_points(12, rng_seed=3)), 0).L_up
        with pytest.raises(ValueError, match=r"t = inf is outside the series oracle"):
            matrix_exp_oracle(L, math.inf)


class TestCosimoFilter:
    @staticmethod
    def _level_one(seed=12, n=20):
        c = delaunay_complex(random_points(n, rng_seed=seed))
        return hodge_operators(c, 1)

    def test_zero_times_reduce_to_sum(self):
        ops = self._level_one()
        rng = np.random.default_rng(13)
        xd, xu, xj = (rng.standard_normal((ops.n, 1)) for _ in range(3))
        got = cosimo_filter(ops.spectrum_down, ops.spectrum_up, xd, xu, xj, 0.0, 0.0)
        np.testing.assert_allclose(got, xd + xu + 2.0 * xj, atol=1e-10)

    def test_large_t_converges_to_kernel_projection(self):
        ops = self._level_one()
        rng = np.random.default_rng(14)
        xd, xu, xj = (rng.standard_normal((ops.n, 1)) for _ in range(3))

        dense = dense_records(ops)
        Pd = kernel_projector(dense.spectrum_down)
        Pu = kernel_projector(dense.spectrum_up)
        want = Pd @ xd + Pu @ xu + Pd @ xj + Pu @ xj
        got = cosimo_filter(ops.spectrum_down, ops.spectrum_up, xd, xu, xj, 1e3, 1e3)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_term_by_term_oracle(self):
        ops = self._level_one(seed=15)
        rng = np.random.default_rng(16)
        xd, xu, xj = (rng.standard_normal((ops.n, 1)) for _ in range(3))
        t_d, t_u = 1.0, 2.0
        Ed = matrix_exp_oracle(ops.L_down, t_d)
        Eu = matrix_exp_oracle(ops.L_up, t_u)
        want = Ed @ xd + Eu @ xu + Ed @ xj + Eu @ xj
        got = cosimo_filter(ops.spectrum_down, ops.spectrum_up, xd, xu, xj, t_d, t_u)
        np.testing.assert_allclose(got, want, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    n_points=st.integers(4, 30),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    t=st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.just(1e6), st.just(math.inf)),
)
def test_heat_kernel_matches_dense_route_for_every_t(n_points, seed, holes, t):
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    for k in (0, 1, 2):
        ops = hodge_operators(cplx, k)
        if ops.n == 0:
            continue
        for L, tr in ((ops.L_down, ops.spectrum_down), (ops.L_up, ops.spectrum_up)):
            got = exp_filter(tr, t, np.eye(ops.n))
            if math.isinf(t):
                np.testing.assert_allclose(got, svd_kernel_projector(L), atol=1e-10)
            else:
                want = heat_oracle(L, t)
                assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def loop_sign_convention(L):
    """Oracle for `eig_sym`: ``eigh``, then one column at a time, flip the
    column whose first non-negligible component is negative."""
    w, V = np.linalg.eigh(L)
    for j in range(V.shape[1]):
        col = V[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))[0]
        if len(nz) and col[nz[0]] < 0:
            V[:, j] = -col
    return w, V


@settings(max_examples=30, deadline=None)
@given(
    n_points=st.integers(3, 30),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    copies=st.integers(1, 2),
)
def test_eig_sym_sign_convention_equals_the_column_loop(n_points, seed, holes, copies):
    # Delaunay Laplacians: zero spectra (L_0,d, and L_2,u or empty levels),
    # large kernels, and with two block copies every eigenvalue degenerate.
    # `eig_sym` also sets the kernel eigenvalues to exactly 0.
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    for k in (0, 1, 2):
        ops = hodge_operators(cplx, k)
        for L in (ops.L_down, ops.L_up, ops.L):
            L = np.kron(np.eye(copies), L)
            got = eig_sym(L)
            w, V = loop_sign_convention(L)
            w[kernel_modes(w)] = 0.0
            assert got.eigenvalues.tobytes() == w.tobytes()
            assert got.eigenvectors.shape == V.shape
            assert got.eigenvectors.tobytes() == V.tobytes()


_CASES = {"holes": _HOLES, "no holes": (), "no triangles": (((0.5, 0.5), 2.0),)}


@settings(max_examples=20, deadline=None)
@given(
    n_points=st.integers(3, 20),
    seed=st.integers(0, 2**16),
    case=st.sampled_from(sorted(_CASES)),
    snr_db=st.one_of(st.none(), st.floats(-20.0, 40.0)),
    data=st.data(),
)
def test_level_spectra_are_read_only_views_of_the_operators_record(
    n_points, seed, case, snr_db, data
):
    # every level's records, on exact or perturbed (``snr_db``) incidences,
    # are eigenpairs of their dense Laplacians. The records of level 0 up,
    # level 2 down and the zero operators are the trailing nonzero eigenpairs
    # of the dense `eig_sym` (none for a zero operator); level 1's
    # come from the same two decompositions, so their eigenvalues are those
    # of level 0 up and level 2 down, bit for bit. `truncate` takes
    # read-only views of a record that lists all n modes, and refuses one
    # that lacks kernel modes
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _CASES[case])
    if case == "no triangles":
        assert cplx.num_simplices(2) == 0
    if snr_db is None:
        ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    else:
        pert = perturb_incidence(cplx, snr_db, snr_db, rng_seed=seed)
        ops = {k: pert.hodge_operators(k) for k in (0, 1, 2)}
    for k, o in ops.items():
        if o.n == 0:
            continue
        K = data.draw(st.integers(1, o.n), label=f"K at level {k}")
        dense = dense_records(o)
        for L, want_full, record in (
            (o.L_down, dense.spectrum_down, o.spectrum_down),
            (o.L_up, dense.spectrum_up, o.spectrum_up),
        ):
            V, w = record.eigenvectors, record.eigenvalues
            assert np.max(np.abs(L @ V - V * w), initial=0.0) <= 1e-8 * max(1.0, np.max(np.abs(L)))
            assert np.max(np.abs(V.T @ V - np.eye(len(w))), initial=0.0) <= 1e-8
            if k != 1:
                tail = o.n - record.K
                assert record.eigenvalues.tobytes() == want_full.eigenvalues[tail:].tobytes()
                assert record.eigenvectors.tobytes() == want_full.eigenvectors[:, tail:].tobytes()
            views = [record]
            if record.K < o.n:
                with pytest.raises(ValueError, match=f"keeps {record.K} of {o.n} modes"):
                    truncate(record, K)
            else:
                got = truncate(record, K)
                assert got.truncated and got.K == K
                assert np.shares_memory(got.eigenvalues, record.eigenvalues)
                assert np.shares_memory(got.eigenvectors, record.eigenvectors)
                views.append(got)
            for spec in views:
                assert not spec.eigenvalues.flags.writeable
                assert not spec.eigenvectors.flags.writeable
    for edge, full in ((ops[1].spectrum_down, ops[0].spectrum_up),
                       (ops[1].spectrum_up, ops[2].spectrum_down)):
        if full.eigenvalues.any():
            assert edge.eigenvalues.tobytes() == full.eigenvalues.tobytes()


class TestIntegrateDiffusion:
    def test_zero_time_returns_initial(self):
        rng = np.random.default_rng(17)
        L = random_psd(8, rng)
        x0 = rng.standard_normal(8)
        np.testing.assert_array_equal(integrate_diffusion(L, x0, 0.0, 0.1), x0)

    def test_kernel_is_fixed_point(self):
        c = build_complex(edges=[(0, 1), (0, 2), (1, 2)])
        L = hodge_operators(c, 0).L
        ones = np.ones(3)
        got = integrate_diffusion(L, ones, 2.0, 0.05)
        np.testing.assert_allclose(got, ones, atol=1e-12)

    def test_first_order_convergence(self):
        c = delaunay_complex(random_points(15, rng_seed=18))
        L = hodge_operators(c, 0).L
        rng = np.random.default_rng(19)
        x0 = rng.standard_normal(L.shape[0])
        exact = matrix_exp_oracle(L, 1.0) @ x0
        dts = [0.08 / 2**i for i in range(4)]
        errs = [np.max(np.abs(integrate_diffusion(L, x0, 1.0, dt) - exact)) for dt in dts]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        for r in ratios:
            assert 1.6 <= r <= 2.4  # halving dt roughly halves the error

    def test_unstable_dt_rejected_with_threshold(self):
        L = np.diag([10.0, 1.0])
        with pytest.raises(ValueError, match="need dt <"):
            integrate_diffusion(L, np.ones(2), 1.0, 0.5)


# each entry point with one time argument ``v``; the filters also take inf
_TIMED_CALLS = {
    "exp_filter": lambda o, p, x, v: exp_filter(o.spectrum_down, v, x),
    "cosimo_filter": lambda o, p, x, v: cosimo_filter(o.spectrum_down, o.spectrum_up,
                                                      x, x, x, 1.0, v),
    "stability_bound": lambda o, p, x, v: stability_bound(o, p, x, x, x, v, 1.0).rhs,
    "matrix_exp_oracle": lambda o, p, x, v: matrix_exp_oracle(o.L, v),
    "integrate_diffusion.t_end": lambda o, p, x, v: integrate_diffusion(o.L, x, v, 0.01),
    "integrate_diffusion.dt": lambda o, p, x, v: integrate_diffusion(o.L, x, 1.0, v),
}


@pytest.mark.parametrize("entry", sorted(_TIMED_CALLS))
def test_a_nan_time_is_refused_as_a_negative_one_is(entry):
    # a NaN time, and an infinite ``t_end``, raise the ValueError of a
    # negative time before any arithmetic; ``t = inf`` stays valid for the
    # filters and the bound
    cplx = delaunay_complex(random_points(12, rng_seed=3))
    ops = hodge_operators(cplx, 1)
    pert = perturb_incidence(cplx, 20.0, 20.0, rng_seed=3)
    x = np.random.default_rng(3).standard_normal((ops.n, 1))
    call = _TIMED_CALLS[entry]
    bad = [-1.0, math.nan] + [math.inf] * (entry == "integrate_diffusion.t_end")
    for v in bad:
        with pytest.raises(ValueError, match="nonnegative|positive"):
            call(ops, pert, x, v)
    if entry in ("exp_filter", "cosimo_filter", "stability_bound"):
        assert not np.isnan(call(ops, pert, x, math.inf)).any()


class TestSpectralIdentities:
    def test_dirichlet_identity_in_eigenbasis(self):
        rng = np.random.default_rng(20)
        c = delaunay_complex(random_points(20, rng_seed=21))
        for k in (0, 1):
            L = hodge_operators(c, k).L
            spec = eig_sym(L)
            for _ in range(20):
                x = rng.standard_normal(L.shape[0])
                xt = spec.eigenvectors.T @ x
                direct = float(x @ L @ x)
                spectral = float(np.sum(spec.eigenvalues * xt**2))
                assert abs(direct - spectral) <= 1e-9 * max(1.0, abs(direct))

    def test_heat_kernel_energy_contraction(self):
        rng = np.random.default_rng(22)
        c = delaunay_complex(random_points(15, rng_seed=23))
        L = hodge_operators(c, 0).L
        spec = eig_sym(L)
        tr = truncate(spec, spec.K)
        lam_max = spec.eigenvalues[-1]
        lam_pos = spec.eigenvalues[spec.eigenvalues > 1e-9 * lam_max][0]
        for _ in range(100):
            x = rng.standard_normal((L.shape[0], 1))
            ex = exp_filter(tr, 1.0, x)
            e_before = float(np.sum(x * (L @ x)))
            e_after = float(np.sum(ex * (L @ ex)))
            assert e_after <= np.exp(-2.0 * lam_pos) * e_before + 1e-12

