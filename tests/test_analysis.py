"""Energy, bound evaluators, entropy selection, permutation equivariance."""

import math

import numpy as np
import pytest

from cosimo.analysis import (
    BoundReport,
    dirichlet_energy,
    energy_trace,
    lambda_max_tilde,
    model_constants,
    operator_extremes,
    oversmoothing_rhs_continuous,
    oversmoothing_rhs_discrete,
    permutation_equivariance_check,
    phi_constant,
    signal_norm,
    spectral_entropy_select,
    stability_bound,
)
from cosimo.complexes import (
    build_complex,
    hodge_operators,
    perturb_incidence,
    random_points,
)
from cosimo.delaunay import delaunay_complex
from cosimo.nn import Model
from cosimo.spectral import LevelSpectra, eig_sym


def quadratic_energy(x, ops):
    """Quadratic-form route ``tr(x^T L x)`` of the Dirichlet energy."""
    return float(np.sum(x * (ops.L @ x)))


@pytest.fixture(scope="module")
def complex10():
    return delaunay_complex(random_points(10, rng_seed=100))


@pytest.fixture(scope="module")
def operators(complex10):
    return {k: hodge_operators(complex10, k) for k in (0, 1, 2)}


class TestDirichletEnergy:
    def test_constant_node_signal_is_harmonic(self, operators):
        ones = np.ones((operators[0].n, 1))
        assert dirichlet_energy(ones, operators[0]) <= 1e-12

    def test_kernel_signals_have_zero_energy(self):
        # Hollow triangle: the level-1 kernel is the one-dimensional cycle space.
        c = build_complex(edges=[(0, 1), (0, 2), (1, 2)])
        ops = hodge_operators(c, 1)
        spec = eig_sym(ops.L)
        kernel = spec.eigenvectors[:, spec.eigenvalues <= 1e-10 * spec.eigenvalues[-1]]
        assert kernel.shape[1] == 1
        x = kernel @ np.ones((1, 1))
        assert dirichlet_energy(x, ops) <= 1e-12

    def test_incidence_equals_quadratic_form(self, operators):
        rng = np.random.default_rng(0)
        for k in (0, 1, 2):
            ops = operators[k]
            if ops.n == 0:
                continue
            for _ in range(10):
                x = rng.standard_normal((ops.n, 3))
                a = dirichlet_energy(x, ops)
                b = quadratic_energy(x, ops)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
                assert a >= -1e-12

    def test_zero_energy_implies_kernel_membership(self, operators):
        ops = operators[1]
        spec = eig_sym(ops.L)
        lam_max = spec.eigenvalues[-1]
        kernel = spec.eigenvectors[:, spec.eigenvalues <= 1e-10 * lam_max]
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((ops.n, 1))
            energy = dirichlet_energy(x, ops)
            residual = x - kernel @ (kernel.T @ x)
            if energy <= 1e-9:
                assert np.linalg.norm(residual) <= 1e-4
            if np.linalg.norm(residual) <= 1e-9:
                assert energy <= 1e-9


class TestOversmoothingBounds:
    def test_zero_signal_gives_zero_on_both_sides(self, operators):
        model = Model(operators, [4, 4, 4], family="discrete", out_level=1,
                      zero_order_weights=False, seed=0)
        inputs = {k: np.zeros((operators[k].n, 4)) for k in (0, 1, 2)}
        trace = energy_trace(model, inputs)
        rep = oversmoothing_rhs_discrete(trace, 0, 1, model_constants(model))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied

    def test_discrete_bound_holds_layerwise_single_realization(self, operators):
        rng = np.random.default_rng(2)
        model = Model(operators, [4] * 21, family="discrete", out_level=1,
                      zero_order_weights=False, seed=3)
        inputs = {k: rng.standard_normal((operators[k].n, 4)) for k in (0, 1, 2)}
        trace = energy_trace(model, inputs)
        consts = model_constants(model)
        for l in range(20):
            rep = oversmoothing_rhs_discrete(trace, l, 1, consts)
            assert rep.satisfied, f"violated at layer {l + 1}: {rep.lhs} > {rep.rhs}"

    def test_continuous_bound_holds_layerwise_single_realization(self, operators):
        rng = np.random.default_rng(4)
        for t in (1e-2, 0.5):
            model = Model(operators, [4] * 21, family="cosimo", out_level=1,
                          learn_t=False, t_init=t, seed=5)
            inputs = {k: rng.standard_normal((operators[k].n, 4)) for k in (0, 1, 2)}
            trace = energy_trace(model, inputs)
            consts = model_constants(model, t, t)
            for l in range(20):
                rep = oversmoothing_rhs_continuous(trace, l, 1, consts)
                assert rep.satisfied, f"t={t}, layer {l + 1}: {rep.lhs} > {rep.rhs}"

    @pytest.mark.parametrize("family", ["discrete", "cosimo"])
    def test_trace_holds_every_level_with_per_matrix_norms(self, operators, family):
        # Widths change with depth, so the batched norms group by shape; they
        # must equal the per-matrix spectral norm to the bit.
        rng = np.random.default_rng(6)
        model = Model(operators, [3, 4, 4, 2, 4], family=family, out_level=0, seed=7)
        inputs = {k: rng.standard_normal((operators[k].n, 3)) for k in (0, 1, 2)}
        trace = energy_trace(model, inputs)
        feats = model.features_per_depth(inputs)
        assert trace.levels == (0, 1, 2) and trace.depth == 4
        for k in trace.levels:
            assert trace.norms[k] == [signal_norm(X[k]) for X in feats]
            assert trace.energies[k] == [dirichlet_energy(X[k], operators[k]) for X in feats]

    def test_report_bookkeeping(self):
        rep = BoundReport(lhs=1.0, rhs=2.0)
        assert rep.satisfied and rep.gap == 1.0
        assert not BoundReport(lhs=2.0, rhs=1.0).satisfied


class TestConstants:
    def test_lambda_max_tilde_is_global_max(self, operators):
        extremes = operator_extremes(operators)
        lam = lambda_max_tilde(extremes)
        check = []
        for ops in operators.values():
            for M in (ops.L_down, ops.L_up):
                if M is not None and M.size:
                    check.append(np.linalg.eigvalsh(M)[-1])
        assert lam == pytest.approx(max(check), rel=1e-12)

    def test_phi_matches_manual_min(self, operators):
        extremes = operator_extremes(operators)
        t_d, t_u = 0.7, 1.3
        phi = phi_constant(extremes, t_d, t_u)
        manual = []
        for (k, side), (mn, _) in extremes.items():
            if mn is not None:
                manual.append((t_d if side == "down" else t_u) * mn)
        assert phi == pytest.approx(min(manual), rel=1e-12)


class TestStabilityBound:
    def test_zero_perturbation_gives_zero_both_sides(self, complex10, operators):
        rng = np.random.default_rng(9)
        ops = operators[1]
        clean = LevelSpectra.from_operators(ops)
        xd = rng.standard_normal((ops.n, 1))
        xu = rng.standard_normal((ops.n, 1))
        xj = rng.standard_normal((ops.n, 1))
        pert = perturb_incidence(complex10, math.inf, math.inf, rng_seed=0)
        rep = stability_bound(clean, pert, xd, xu, xj, 1.0, 2.0)
        assert rep.lhs <= 1e-9 and rep.rhs == 0.0

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 10.0, 20.0])
    def test_bound_holds_across_snr(self, complex10, operators, snr):
        rng = np.random.default_rng(10)
        ops = operators[1]
        clean = LevelSpectra.from_operators(ops)
        x0 = rng.standard_normal((operators[0].n, 1))
        x1 = rng.standard_normal((ops.n, 1))
        x2 = rng.standard_normal((operators[2].n, 1))
        xd = ops.B_down.T @ x0
        xu = ops.B_up @ x2 if ops.B_up is not None else np.zeros_like(x1)
        for seed in range(5):
            pert = perturb_incidence(complex10, snr, snr, rng_seed=seed)
            rep = stability_bound(clean, pert, xd, xu, x1, 1.0, 2.0)
            assert rep.satisfied, f"snr={snr} seed={seed}: {rep.lhs} > {rep.rhs}"

    def test_small_epsilon_linear_scaling(self, complex10, operators):
        # First-order perturbation response: lhs ~ O(eps).
        rng = np.random.default_rng(11)
        ops = operators[1]
        clean = LevelSpectra.from_operators(ops)
        xd = rng.standard_normal((ops.n, 1))
        xu = rng.standard_normal((ops.n, 1))
        xj = rng.standard_normal((ops.n, 1))
        base = perturb_incidence(complex10, 0.0, 0.0, rng_seed=12)
        from cosimo.complexes import PerturbedComplex

        scales = [10.0 ** (-e) for e in range(2, 7)]
        lhs = []
        eps = []
        for s in scales:
            pert = PerturbedComplex(
                base=complex10,
                snr1_db=0.0,
                snr2_db=0.0,
                E_1=base.E_1 * s,
                E_2=base.E_2 * s,
                B_1=base.B_1 - base.E_1 + base.E_1 * s,
                B_2=base.B_2 - base.E_2 + base.E_2 * s,
                epsilon_1=base.epsilon_1 * s,
                epsilon_2=base.epsilon_2 * s,
            )
            rep = stability_bound(clean, pert, xd, xu, xj, 1.0, 2.0)
            lhs.append(rep.lhs)
            eps.append(pert.epsilon_1 + pert.epsilon_2)
        slope = np.polyfit(np.log(eps), np.log(lhs), 1)[0]
        assert abs(slope - 1.0) <= 0.15


class TestSpectralEntropy:
    def test_three_mode_example(self):
        K, H = spectral_entropy_select(np.array([0.0, 1.0, 9.0]), tau=0.05)
        assert K == 2
        p = np.array([0.1, 0.9])
        assert H == pytest.approx(float(-(p * np.log(p)).sum()), abs=1e-12)

    def test_uniform_spectrum_entropy_is_log_n(self):
        for n in (2, 5, 17):
            K, H = spectral_entropy_select(np.full(n, 3.7), tau=0.05)
            assert abs(H - math.log(n)) <= 1e-12

    def test_all_zero_spectrum_reported_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            spectral_entropy_select(np.zeros(4))

    def test_k_non_increasing_in_tau(self):
        rng = np.random.default_rng(13)
        w = np.sort(rng.uniform(0.0, 5.0, size=30))
        ks = [spectral_entropy_select(w, tau)[0] for tau in (0.01, 0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))


@pytest.fixture(scope="module")
def complex30():
    return delaunay_complex(random_points(30, rng_seed=200))


class TestPermutationEquivariance:

    def test_identity_permutation_is_exact(self, complex30):
        ops = {k: hodge_operators(complex30, k) for k in (0, 1, 2)}
        model = Model(ops, [2, 2], family="cosimo", out_level=1, seed=14)
        clone = model.with_operators(ops)
        rng = np.random.default_rng(15)
        inputs = {k: rng.standard_normal((ops[k].n, 2)) for k in (0, 1, 2)}
        a, _ = model.forward(inputs, want_cache=False)
        b, _ = clone.forward(inputs, want_cache=False)
        assert np.max(np.abs(a - b)) == 0.0

    @pytest.mark.parametrize("family", ["cosimo", "discrete"])
    def test_random_permutations_both_families(self, complex30, family):
        ops = {k: hodge_operators(complex30, k) for k in (0, 1, 2)}
        model = Model(ops, [2, 3, 2], family=family, out_level=1, seed=16,
                      zero_order_weights=True)
        dev = permutation_equivariance_check(model, rng_seed=17, n_perms=5)
        assert dev <= 1e-10

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_deviation_tiny_under_either_nonlinearity(self, complex30, activation):
        ops = {k: hodge_operators(complex30, k) for k in (0, 1, 2)}
        model = Model(ops, [2, 2], family="cosimo", out_level=1, seed=18,
                      activation=activation)
        assert permutation_equivariance_check(model, rng_seed=19, n_perms=3) <= 1e-10
