"""Energy, bound evaluators, entropy selection, permutation equivariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimo.analysis import (
    BoundReport,
    EnergyTrace,
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
    hodge_operators_from_incidence,
    perturb_incidence,
    random_points,
)
from cosimo.delaunay import delaunay_complex
from cosimo.nn import Model
from cosimo.spectral import eig_sym

from test_spectral import _HOLES


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


_NORM_SCALES = (1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e160, 1e300)


@settings(max_examples=200, deadline=None)
@given(
    lead=st.sampled_from([(), (3,), (2, 3), (0,)]),
    shape=st.sampled_from([(5,), (7, 3), (3, 7), (78, 4), (4, 78), (6, 1), (1, 6), (1, 1),
                           (0, 4), (4, 0)]),
    kind=st.sampled_from(["normal", "rank one", "some zero", "zero"]),
    seed=st.integers(0, 2**16),
)
def test_signal_norm_is_the_spectral_norm_of_every_matrix(lead, shape, kind, seed):
    """The scaled Gram route equals the SVD's largest singular value per
    matrix, from 1e-300 to 1e300, whichever axis is the smaller; a zero or
    empty matrix has norm 0."""
    rng = np.random.default_rng(seed)
    if len(shape) == 1:
        lead = ()  # a vector is one column
    x = rng.standard_normal(lead + shape)
    if kind == "rank one" and len(shape) == 2:
        x = rng.standard_normal(lead + shape[:1] + (1,)) * rng.standard_normal(lead + (1,) + shape[1:])
    mats = x.reshape((math.prod(lead),) + (shape if len(shape) == 2 else shape + (1,)))
    mats *= rng.choice(_NORM_SCALES, size=len(mats))[:, None, None]
    if kind in ("some zero", "zero"):
        mats[rng.random(len(mats)) < (1.0 if kind == "zero" else 0.5)] = 0.0
    x = mats.reshape(x.shape)
    got = signal_norm(x)
    want = [np.linalg.norm(m, 2) if m.size else 0.0 for m in mats]
    if lead:
        assert isinstance(got, np.ndarray) and got.shape == lead
    else:
        assert type(got) is float
    np.testing.assert_allclose(np.ravel(got), want, rtol=1e-13, atol=0)
    assert np.all(np.ravel(got)[[not m.any() for m in mats]] == 0.0)


class TestOversmoothingBounds:
    def test_zero_signal_gives_zero_on_both_sides(self, operators):
        model = Model(operators, [4, 4, 4], family="discrete", out_level=1, seed=0)
        inputs = {k: np.zeros((operators[k].n, 4)) for k in (0, 1, 2)}
        trace = energy_trace(model, inputs)
        rep = oversmoothing_rhs_discrete(trace, 1, model_constants(model))
        assert rep.lhs.tolist() == rep.rhs.tolist() == [0.0, 0.0] and rep.satisfied.all()

    def test_discrete_bound_holds_layerwise_single_realization(self, operators):
        rng = np.random.default_rng(2)
        model = Model(operators, [4] * 21, family="discrete", out_level=1, seed=3)
        inputs = {k: rng.standard_normal((operators[k].n, 4)) for k in (0, 1, 2)}
        trace = energy_trace(model, inputs)
        rep = oversmoothing_rhs_discrete(trace, 1, model_constants(model))
        assert rep.lhs.shape == rep.rhs.shape == (20,)
        assert rep.satisfied.all(), f"violated at layers {np.flatnonzero(~rep.satisfied) + 1}"

    def test_continuous_bound_holds_layerwise_single_realization(self, operators):
        rng = np.random.default_rng(4)
        for t in (1e-2, 0.5):
            model = Model(operators, [4] * 21, family="cosimo", out_level=1, seed=5)
            model.set_receptive_fields(t, t)
            inputs = {k: rng.standard_normal((operators[k].n, 4)) for k in (0, 1, 2)}
            trace = energy_trace(model, inputs)
            rep = oversmoothing_rhs_continuous(trace, 1, model_constants(model, t, t))
            assert rep.satisfied.all(), f"t={t}, layers {np.flatnonzero(~rep.satisfied) + 1}"

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
            assert trace.norms[k].dtype == trace.energies[k].dtype == np.float64
            assert trace.norms[k].tolist() == [signal_norm(X[k]) for X in feats]
            assert trace.energies[k].tolist() == [
                dirichlet_energy(X[k], operators[k]) for X in feats
            ]

    @settings(max_examples=40, deadline=None)
    @given(
        n_points=st.integers(4, 16),
        seed=st.integers(0, 2**16),
        holes=st.booleans(),
        depth=st.integers(1, 4),
        out_level=st.sampled_from([0, 1, 2]),
        times=st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.just(math.inf)),
            min_size=1, max_size=4,
        ),
        one_complex=st.booleans(),
    )
    def test_stacked_trace_equals_each_members_own_trace(
        self, n_points, seed, holes, depth, out_level, times, one_complex
    ):
        cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
        if cplx.num_simplices(out_level) == 0:
            out_level = 0
        ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}

        def operators_of(e):
            """The shared operators, or member e's own perturbed ones."""
            if one_complex:
                return ops
            pert = perturb_incidence(cplx, 20.0, 20.0, [seed, e])
            return hodge_operators_from_incidence(pert.incidence(1), pert.incidence(2))

        members = [
            Model(operators_of(e), [2] * (depth + 1), out_level=out_level, seed=[seed, e])
            for e in range(len(times))
        ]
        for member, t in zip(members, times):
            member.set_receptive_fields(t, t)
        stacked = Model.stack(members)
        rng = np.random.default_rng(seed)
        inputs = {k: rng.standard_normal((cplx.num_simplices(k), 2)) for k in stacked.levels}
        traces = energy_trace(stacked, inputs)
        assert len(traces) == len(members)
        for trace, member in zip(traces, members):
            own = energy_trace(member, inputs)
            assert trace.levels == own.levels
            for k in own.levels:
                for got, want in ((trace.energies[k], own.energies[k]),
                                  (trace.norms[k], own.norms[k])):
                    assert got.tobytes() == want.tobytes()

    def test_report_bookkeeping(self):
        rep = BoundReport(lhs=1.0, rhs=2.0)
        assert rep.satisfied and rep.gap == 1.0
        assert not BoundReport(lhs=2.0, rhs=1.0).satisfied
        rep = BoundReport(lhs=np.array([1.0, 2.0, 3.0]), rhs=np.array([2.0, 2.0, math.inf]))
        assert rep.satisfied.tolist() == [True, True, True]
        assert rep.gap.tolist() == [1.0, 0.0, math.inf]
        worse = BoundReport(lhs=np.array([1.0, 2.0]), rhs=np.array([0.5, 2.0]))
        assert worse.satisfied.tolist() == [False, True]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        k=st.sampled_from([0, 1, 2]),
        family=st.sampled_from(["discrete", "cosimo"]),
        depth=st.integers(1, 12),
        s=st.floats(0.05, 3.0),
        lam=st.floats(0.05, 4.0),
        F=st.integers(1, 16),
        phi=st.one_of(st.just(0.0), st.floats(1e-4, 20.0), st.just(math.inf)),
    )
    def test_whole_trace_equals_per_layer_formulas(self, data, k, family, depth, s, lam, F, phi):
        # the output level and any of its neighbors that a model may hold
        present = [k] + [j for j in (k - 1, k + 1)
                         if j in (0, 1, 2) and data.draw(st.booleans(), label=f"level {j}")]
        values = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
                          min_size=depth + 1, max_size=depth + 1)
        trace = EnergyTrace(
            tuple(sorted(present)),
            {j: np.array(data.draw(values, label=f"energies {j}")) for j in sorted(present)},
            {j: np.array(data.draw(values, label=f"norms {j}")) for j in sorted(present)},
        )
        constants = {"s": s, "lambda_max": lam, "F": float(F), "phi": phi}
        # some layers put their lhs a hair inside or outside the tolerance of
        # their rhs; layer l's rhs reads only index l, so this runs in order
        for l in range(depth):
            c = data.draw(st.sampled_from([None, -2.0, 0.5, 2.0]), label=f"near {l + 1}")
            if c is not None:
                rhs = _per_layer_rhs(trace, l, k, constants, family)
                trace.energies[k][l + 1] = rhs + c * 1e-9 * max(1.0, rhs)
        evaluate = {"discrete": oversmoothing_rhs_discrete,
                    "cosimo": oversmoothing_rhs_continuous}[family]
        rep = evaluate(trace, k, constants)
        assert rep.lhs.dtype == rep.rhs.dtype == np.float64
        assert rep.lhs.shape == rep.rhs.shape == rep.satisfied.shape == (depth,)
        for l in range(depth):
            lhs, rhs = float(trace.energies[k][l + 1]), _per_layer_rhs(trace, l, k, constants, family)
            assert rep.lhs[l] == lhs
            assert abs(rep.rhs[l] - rhs) <= np.spacing(abs(rhs)), (l, rep.rhs[l], rhs)
            assert rep.satisfied[l] == (lhs <= rhs + 1e-9 * max(1.0, abs(rhs)))


def _per_layer_rhs(trace, l, k, constants, family):
    """Right-hand side of the layerwise energy bound at layer ``l + 1``, one
    layer at a time in Python floats, with an absent level at zero energy and
    norm: the oracle of the whole-trace evaluators."""

    def level(j):
        if j not in trace.energies:
            return 0.0, 0.0
        return float(trace.energies[j][l]), float(trace.norms[j][l])

    (e_km, n_km), (e_k, n_k), (e_kp, n_kp) = (level(j) for j in (k - 1, k, k + 1))
    s, lam, F = constants["s"], constants["lambda_max"], constants["F"]
    if family == "discrete":
        return (
            s * lam**2 * e_k
            + s * lam**3 * (e_km + e_kp)
            + 2.0 * F * s * lam**3.5 * n_k * (n_km + n_kp)
        )
    phi = constants["phi"]
    return (
        s * (math.exp(-2 * phi) + 1.0) * e_k
        + s * math.exp(-2 * phi) * lam * (e_km + e_kp)
        + 2.0 * F * s * (math.exp(-phi) + math.exp(-2 * phi)) * lam**1.5 * n_k * (n_km + n_kp)
        + 2.0 * F * s * math.exp(-phi) * lam * n_k**2
    )


class TestConstants:
    def test_lambda_max_tilde_is_global_max(self, operators):
        extremes = operator_extremes(operators)
        lam = lambda_max_tilde(extremes)
        check = []
        for ops in operators.values():
            for M in (ops.L_down, ops.L_up):
                if M.size:
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
        xd = rng.standard_normal((ops.n, 1))
        xu = rng.standard_normal((ops.n, 1))
        xj = rng.standard_normal((ops.n, 1))
        pert = perturb_incidence(complex10, math.inf, math.inf, rng_seed=0)
        rep = stability_bound(ops, pert, xd, xu, xj, 1.0, 2.0)
        assert rep.lhs <= 1e-9 and rep.rhs == 0.0

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 10.0, 20.0])
    def test_bound_holds_across_snr(self, complex10, operators, snr):
        rng = np.random.default_rng(10)
        ops = operators[1]
        x0 = rng.standard_normal((operators[0].n, 1))
        x1 = rng.standard_normal((ops.n, 1))
        x2 = rng.standard_normal((operators[2].n, 1))
        xd = ops.B_down.T @ x0
        xu = ops.B_up @ x2
        for seed in range(5):
            pert = perturb_incidence(complex10, snr, snr, rng_seed=seed)
            rep = stability_bound(ops, pert, xd, xu, x1, 1.0, 2.0)
            assert rep.satisfied, f"snr={snr} seed={seed}: {rep.lhs} > {rep.rhs}"

    def test_small_epsilon_linear_scaling(self, complex10, operators):
        # First-order perturbation response: lhs ~ O(eps).
        rng = np.random.default_rng(11)
        ops = operators[1]
        xd = rng.standard_normal((ops.n, 1))
        xu = rng.standard_normal((ops.n, 1))
        xj = rng.standard_normal((ops.n, 1))
        base = perturb_incidence(complex10, 0.0, 0.0, rng_seed=12)
        from cosimo.complexes import PerturbedComplex

        scales = [10.0 ** (-e) for e in range(2, 7)]
        lhs = []
        eps = []
        for s in scales:
            pert = PerturbedComplex(complex10, base.E_1 * s, base.E_2 * s)
            rep = stability_bound(ops, pert, xd, xu, xj, 1.0, 2.0)
            lhs.append(rep.lhs)
            eps.append(pert.epsilon(1) + pert.epsilon(2))
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
        model = Model(ops, [2, 3, 2], family=family, out_level=1, seed=16)
        dev = permutation_equivariance_check(model, rng_seed=17, n_perms=5)
        assert dev <= 1e-10

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_deviation_tiny_under_either_nonlinearity(self, complex30, activation):
        ops = {k: hodge_operators(complex30, k) for k in (0, 1, 2)}
        model = Model(ops, [2, 2], family="cosimo", out_level=1, seed=18,
                      activation=activation)
        assert permutation_equivariance_check(model, rng_seed=19, n_perms=3) <= 1e-10
