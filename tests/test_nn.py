"""Layer semantics, manual backprop against finite differences, training."""

import inspect
import json
import math
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cosimo import nn
from cosimo.analysis import permutation_equivariance_check
from cosimo.complexes import (
    build_complex,
    hodge_operators,
    hodge_operators_from_incidence,
    perturb_incidence,
    random_points,
)
from cosimo.delaunay import delaunay_complex
from cosimo.experiments import OversmoothConfig, _realization_complex, scaled_operators
from cosimo.nn import (
    CheckpointError,
    CochainTriple,
    Model,
    TrainConfig,
    TrainingDivergedError,
    _cosimo_backward,
    _contract,
    _cosimo_forward,
    _discrete_backward,
    _discrete_forward,
    _exp_tau,
    _side_inputs,
    activate,
    load_model,
    mse_loss,
    project,
    save_model,
    stacked_mse_loss,
    train,
)
from cosimo.spectral import (
    HodgeSpectrum,
    exp_filter,
    heat_weights,
    matrix_exp_oracle,
    truncate,
)

from test_spectral import (
    _HOLES,
    dense_records,
    kernel_projector,
    mixed_sign_kernel_spectra,
    svd_kernel_projector,
)


@pytest.fixture(scope="module")
def small_complex():
    return delaunay_complex(random_points(12, rng_seed=42))


@pytest.fixture(scope="module")
def operators(small_complex):
    return {k: hodge_operators(small_complex, k) for k in (0, 1, 2)}


class TestProject:
    def test_constant_node_signal_has_zero_gradient(self, operators):
        ops = operators[1]
        ones = np.ones((operators[0].n, 1))
        triple = project(ops, np.zeros((ops.n, 1)), ones, None)
        np.testing.assert_allclose(triple.lower, 0.0, atol=1e-12)

    def test_no_triangles_gives_zero_upper(self):
        c = build_complex(edges=[(0, 1), (1, 2), (0, 2)])
        ops = hodge_operators(c, 1)
        triple = project(ops, np.zeros((3, 2)), None, np.zeros((0, 2)))
        assert not triple.upper.any()

    def test_edge_indicator_lower_projection_by_hand(self):
        c = build_complex(triangles=[(0, 1, 2)])
        ops = hodge_operators(c, 0)
        # Level-0 upper projection of the (0,1) edge indicator is B_1 e_0.
        e0 = np.zeros((3, 1))
        e0[0] = 1.0
        triple = project(ops, np.zeros((3, 1)), None, e0)
        np.testing.assert_allclose(triple.upper[:, 0], [-1.0, 1.0, 0.0])

    def test_shape_mismatch_raises(self, operators):
        with pytest.raises(ValueError, match="rows"):
            project(operators[1], np.zeros((3, 1)))


def layer_weights(theta_d, theta_u, psi_d, psi_u):
    """The four weights of one layer, in the order the kernels take them."""
    return [theta_d, psi_d, psi_u, theta_u]


class TestSimplicialFilter:
    """The polynomial kernel on the own signal alone, with scalar weights, is
    the filter ``(a_0 + a_1 L_down + b_0 + b_1 L_up) x``."""

    @staticmethod
    def polynomial(x, alphas, betas, ops):
        zero = np.zeros((2, 1, 1))
        weights = layer_weights(zero, zero, np.reshape(alphas, (-1, 1, 1)),
                                np.reshape(betas, (-1, 1, 1)))
        triple = CochainTriple(ops.level, x, np.zeros_like(x), np.zeros_like(x))
        return _discrete_forward(triple, weights, ops)[0]

    def test_identity_term_only(self, operators):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((operators[1].n, 1))
        np.testing.assert_array_equal(
            self.polynomial(x, [1.0, 0.0], [0.0, 0.0], operators[1]), x
        )

    def test_first_lower_power(self, operators):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((operators[1].n, 1))
        got = self.polynomial(x, [0.0, 1.0], [0.0, 0.0], operators[1])
        np.testing.assert_allclose(got, operators[1].L_down @ x, atol=1e-12)

    def test_node_level_reduces_to_graph_filter(self, operators):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((operators[0].n, 1))
        betas = [0.5, -0.2]
        got = self.polynomial(x, [0.0, 0.0], betas, operators[0])
        want = betas[0] * x + betas[1] * (operators[0].L @ x)
        np.testing.assert_allclose(got, want, atol=1e-12)


def _triple(ops, rng, f=2):
    return project(
        ops,
        rng.standard_normal((ops.n, f)),
        rng.standard_normal((ops.B_down.shape[0], f)),
        rng.standard_normal((ops.B_up.shape[1], f)),
    )


class TestDiscreteLayer:
    def test_zero_weights_zero_output(self, operators):
        rng = np.random.default_rng(3)
        triple = _triple(operators[1], rng)
        z = np.zeros((2, 2, 3))
        weights = layer_weights(z, z.copy(), z.copy(), z.copy())
        pre, _ = _discrete_forward(triple, weights, operators[1])
        assert not activate(pre, "relu").any()

    def test_order_zero_identity_weights(self, operators):
        rng = np.random.default_rng(4)
        triple = _triple(operators[1], rng)
        eye = np.stack([np.eye(2), np.zeros((2, 2))])
        weights = layer_weights(eye, eye.copy(), eye.copy(), eye.copy())
        out, _ = _discrete_forward(triple, weights, operators[1])
        want = triple.lower + 2.0 * triple.own + triple.upper
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_matches_matrix_polynomial_oracle(self, operators):
        rng = np.random.default_rng(5)
        ops = operators[1]
        triple = _triple(ops, rng)
        theta_d, theta_u, psi_d, psi_u = (rng.standard_normal((2, 2, 2)) for _ in range(4))
        out, _ = _discrete_forward(triple, layer_weights(theta_d, theta_u, psi_d, psi_u), ops)
        I = np.eye(ops.n)
        want = np.zeros((ops.n, 2))
        for M, X, W in (
            (ops.L_down, triple.lower, theta_d),
            (ops.L_down, triple.own, psi_d),
            (ops.L_up, triple.own, psi_u),
            (ops.L_up, triple.upper, theta_u),
        ):
            want += (I @ X) @ W[0] + (M @ X) @ W[1]
        np.testing.assert_allclose(out, want, atol=1e-10)


class TestCosimoLayer:
    def test_zero_time_reduces_to_weighted_sum(self, operators):
        rng = np.random.default_rng(6)
        ops = operators[1]
        triple = _triple(ops, rng)
        eye = np.eye(2)
        weights = layer_weights(eye, eye.copy(), eye.copy(), eye.copy())
        t = _exp_tau(-math.inf)
        out, _ = _cosimo_forward(triple, weights, ops, t, t)
        np.testing.assert_allclose(
            out, triple.lower + triple.upper + 2.0 * triple.own, atol=1e-10
        )

    def test_matches_dense_exponential_route(self, operators):
        rng = np.random.default_rng(7)
        ops = operators[1]
        triple = _triple(ops, rng)
        theta_d, theta_u, psi_d, psi_u = (rng.standard_normal((2, 2)) for _ in range(4))
        out, _ = _cosimo_forward(
            triple, layer_weights(theta_d, theta_u, psi_d, psi_u), ops, 0.7, 1.4
        )
        Ed = matrix_exp_oracle(ops.L_down, 0.7)
        Eu = matrix_exp_oracle(ops.L_up, 1.4)
        want = (
            Ed @ triple.lower @ theta_d
            + Eu @ triple.upper @ theta_u
            + Ed @ triple.own @ psi_d
            + Eu @ triple.own @ psi_u
        )
        scale = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(out - want)) <= 1e-8 * scale

    def test_infinite_time_is_kernel_projection(self):
        # tau = 1e3 saturates to t = inf; the projectors come from the dense
        # spectra, whose kernel modes have both signs.
        ops, dense = mixed_sign_kernel_spectra()
        rng = np.random.default_rng(23)
        triple = _triple(ops, rng)
        theta_d, theta_u, psi_d, psi_u = (rng.standard_normal((2, 2)) for _ in range(4))
        t = _exp_tau(1e3)
        out, _ = _cosimo_forward(
            triple, layer_weights(theta_d, theta_u, psi_d, psi_u), ops, t, t
        )
        Pd, Pu = kernel_projector(dense.spectrum_down), kernel_projector(dense.spectrum_up)
        want = (
            Pd @ triple.lower @ theta_d
            + Pu @ triple.upper @ theta_u
            + Pd @ triple.own @ psi_d
            + Pu @ triple.own @ psi_u
        )
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_first_order_agreement_with_discrete(self, operators):
        # cosimo(t) and the discrete layer with I - tL weights differ at O(t^2).
        rng = np.random.default_rng(9)
        ops = operators[1]
        triple = _triple(ops, rng)
        W = rng.standard_normal((4, 2, 2))
        ts = np.logspace(-3, -1, 7)
        diffs = []
        for t in ts:
            cos, _ = _cosimo_forward(triple, layer_weights(*W), ops, t, t)
            disc, _ = _discrete_forward(
                triple, layer_weights(*(np.stack([w, -t * w]) for w in W)), ops
            )
            diffs.append(np.linalg.norm(cos - disc))
        slope = np.polyfit(np.log(ts), np.log(diffs), 1)[0]
        assert abs(slope - 2.0) <= 0.2


class TestAggregation:
    """`Model`'s branch sum, against its own branch kernels on the route a
    first layer takes: its inputs filtered through their record
    coefficients."""

    @staticmethod
    def one_layer(operators, n_branches):
        model = Model(operators, [2, 3], family="cosimo", out_level=1,
                      n_branches=n_branches, seed=10)
        rng = np.random.default_rng(10)
        inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
        out, _ = model.forward(inputs)
        triple = project(operators[1], inputs[1], inputs[0], inputs[2])
        sides = _side_inputs(triple, model.operators[1])
        branches = []
        for m in range(n_branches):
            weights = layer_weights(*(model.params[f"L0.k1.m{m}.{w}"]
                                      for w in ("theta_d", "theta_u", "psi_d", "psi_u")))
            pre, _ = _cosimo_forward(triple, weights, model.operators[1], 1.0, 1.0, sides)
            branches.append(activate(pre, model.activation, model.leaky_slope))
        return model, out, branches

    def test_single_branch_sum_is_identity(self, operators):
        _, out, (branch,) = self.one_layer(operators, 1)
        np.testing.assert_array_equal(out, branch)

    def test_three_branch_sum(self, operators):
        _, out, branches = self.one_layer(operators, 3)
        np.testing.assert_allclose(out, branches[0] + branches[1] + branches[2], atol=1e-12)


class TestModelForward:
    @pytest.mark.parametrize("family", ["cosimo", "discrete"])
    def test_single_layer_matches_standalone_layer(self, operators, family):
        rng = np.random.default_rng(12)
        model = Model(operators, [2, 3], family=family, out_level=1, seed=1,
                      activation="identity")
        if family == "cosimo":
            model.set_receptive_fields(0.8, 0.8)
        inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
        out, _ = model.forward(inputs)
        triple = project(operators[1], inputs[1], inputs[0], inputs[2])
        weights = layer_weights(
            *(model.params[f"L0.k1.m0.{w}"] for w in ("theta_d", "theta_u", "psi_d", "psi_u"))
        )
        if family == "cosimo":
            want, _ = _cosimo_forward(triple, weights, model.operators[1], 0.8, 0.8)
        else:
            want, _ = _discrete_forward(triple, weights, operators[1])
        np.testing.assert_allclose(out, want, atol=1e-12)

    @pytest.mark.parametrize("kind", ["cosimo", "discrete", "stack"])
    def test_forward_of_inputs_equals_forward_of_their_record(self, small_complex, operators, kind):
        # `train` runs every epoch from one record of its inputs; a dict is
        # recorded on entry, so both give the same bits, backward included
        if kind == "stack":
            model = Model.stack(_perturbed_members(small_complex, 3, (0.0, 10.0), [2, 3, 2],
                                                   out_level=1, n_branches=2), 2)
        else:
            model = Model(operators, [2, 3, 2], family=kind, out_level=1, n_branches=2, seed=5)
        rng = np.random.default_rng(16)
        inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
        record = model._record(inputs)
        out, cache = model.forward(inputs)
        again, record_cache = model.forward(record)
        assert out.tobytes() == again.tobytes()
        G = rng.standard_normal(out.shape)
        grads = model.backward(cache, G)
        assert grads.flat.tobytes() == model.backward(record_cache, G).flat.tobytes()

    def test_two_layer_composition_is_matrix_product(self, operators):
        # Single-level model at t = 0 with identity activation is the linear
        # map X -> X (Psi_d + Psi_u) per layer; two layers must compose.
        model = Model(
            {1: operators[1]}, [2, 2, 2], family="cosimo", out_level=1,
            activation="identity", seed=2,
        )
        model.set_receptive_fields(0.0, 0.0)
        rng = np.random.default_rng(13)
        X = rng.standard_normal((operators[1].n, 2))
        out, _ = model.forward({1: X})
        M1 = model.params["L0.k1.m0.psi_d"] + model.params["L0.k1.m0.psi_u"]
        M2 = model.params["L1.k1.m0.psi_d"] + model.params["L1.k1.m0.psi_u"]
        np.testing.assert_allclose(out, X @ M1 @ M2, atol=1e-10)

    def test_hundred_layer_shape_invariance(self, operators):
        model = Model(operators, [2] * 101, family="cosimo", out_level=1, seed=3)
        rng = np.random.default_rng(14)
        inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
        out, _ = model.forward(inputs, want_cache=False)
        assert out.shape == (operators[1].n, 2)

    @pytest.mark.parametrize("setting, value, message", [
        ("activation", "tanh", "unknown activation 'tanh'"),
        ("n_branches", 0, "n_branches must be an integer >= 1, got 0"),
        # int() would make 2 branches of either
        ("n_branches", 2.7, "n_branches must be an integer >= 1, got 2.7"),
        ("n_branches", "2", "n_branches must be an integer >= 1, got '2'"),
    ])
    def test_refuses_a_setting_it_cannot_run(self, operators, setting, value, message):
        # at construction, not at the first forward
        with pytest.raises(ValueError, match=message):
            Model(operators, [2, 3], **{setting: value})

    @pytest.mark.parametrize("widths, slope, message", [
        ([0, 3], 0.01, r"widths must be integers >= 1, got \[0, 3\]"),
        ([2, -1], 0.01, r"widths must be integers >= 1, got \[2, -1\]"),
        ([2, 0], 0.01, r"widths must be integers >= 1, got \[2, 0\]"),
        ([2, 3], "a", "leaky_slope must be a finite real number, got 'a'"),
    ], ids=["zero-input", "negative", "zero-output", "string-slope"])
    def test_refuses_widths_or_a_slope_it_cannot_run(self, operators, widths, slope, message):
        # by name at construction, not as a numpy or arithmetic error, nor as
        # a model that builds and fails at its first forward
        with pytest.raises(ValueError, match=message):
            Model(operators, widths, activation="leaky_relu", leaky_slope=slope)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_deeper_layer_filters_its_output_whatever_its_widths(self, operators, level):
        # at depth 1, 2 F_in = 4 < F_out = 16: the route is the depth's, the
        # stash records it, and the layer and its gradients match the
        # four-path reference
        t_d, t_u = 0.6, 1.7
        model = Model(operators, [1, 2, 16], out_level=level, activation="identity", seed=17)
        model.set_receptive_fields(t_d, t_u)
        rng = np.random.default_rng(17)
        out, cache = model.forward({k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)})
        first, deeper = cache["depths"]
        assert all(lv["branch_stash"][0][2] is not None for lv in first["levels"].values())
        lv = deeper["levels"][level]
        assert lv["branch_stash"][0][2] is None
        G = rng.standard_normal(out.shape)
        grads = model.backward(cache, G)
        names = [f"L1.k{level}.m0.{w}" for w in ("theta_d", "psi_d", "psi_u", "theta_u")]
        want_pre, want_gweights, _, want_dt = four_path_cosimo(
            lv["triple"], [model.params[n] for n in names], dense_records(operators[level]),
            t_d, t_u, G,
        )

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))

        # the identity's output is its pre-activation
        close(out, want_pre)
        for name, want in zip(names, want_gweights):
            close(grads[name], want)
        for name, t, dt in zip(("L1.m0.tau_d", "L1.m0.tau_u"), (t_d, t_u), want_dt):
            assert grads[name] == pytest.approx(dt * t, rel=1e-9, abs=1e-9)

    def test_batched_forward_matches_loop(self, operators):
        model = Model(operators, [2, 3, 1], family="cosimo", out_level=1, seed=4,
                      n_branches=2)
        rng = np.random.default_rng(15)
        samples = [
            {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
            for _ in range(3)
        ]
        batch = {k: np.stack([s[k] for s in samples]) for k in (0, 1, 2)}
        out_b, _ = model.forward(batch, want_cache=False)
        for i, s in enumerate(samples):
            out_i, _ = model.forward(s, want_cache=False)
            np.testing.assert_allclose(out_b[i], out_i, atol=1e-12)

    @pytest.mark.parametrize("family", ["cosimo", "discrete"])
    @pytest.mark.parametrize("batched, out_level, widths", [(1, 1, [2, 3, 2]), (2, 0, [2, 3, 3, 2])])
    def test_inputs_of_different_batch_shapes_broadcast(self, operators, family, batched, out_level,
                                                        widths):
        # one level holds a batch of three, the others one signal each: the
        # in-place sums fall back to broadcasting, and the run equals one on
        # the repeated signals, forward and backward, also where a level's
        # gradient comes back wider than its features (level 0 at depth 1
        # when only level 2 is batched)
        model = Model(operators, widths, family=family, out_level=out_level, n_branches=2, seed=6)
        rng = np.random.default_rng(6)
        x = {k: rng.standard_normal((3,) * (k == batched) + (operators[k].n, 2)) for k in (0, 1, 2)}
        repeated = {k: np.broadcast_to(v, (3,) + v.shape[-2:]).copy() for k, v in x.items()}
        out, cache = model.forward(x)
        want, want_cache = model.forward(repeated)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
        G = rng.standard_normal(out.shape)
        np.testing.assert_allclose(model.backward(cache, G).flat, model.backward(want_cache, G).flat,
                                   rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------


def _loss_of(model, inputs, target):
    out, _ = model.forward(inputs, want_cache=False)
    return mse_loss(out, target)[0]


def _preactivations(model, cache):
    """``(positive, pre)`` of every branch the cache holds: its cached mask
    and its pre-activation, recomputed through the kernels from the cached
    triple and weights on the route its depth takes."""
    for l, d in enumerate(cache["depths"]):
        for k, lv in d["levels"].items():
            ops, triple, i = model.operators[k], lv["triple"], model.levels.index(k)
            for m, positive in enumerate(lv["branch_positive"]):
                W = d["weights"][i, m]
                if model.family == "discrete":
                    pre, _ = _discrete_forward(triple, W, ops)
                else:
                    sides = _side_inputs(triple, ops) if l == 0 else None
                    pre, _ = _cosimo_forward(triple, W, ops, *d["times"][m], sides)
                yield positive, pre


def _preact_margin(model, cache) -> float:
    """The smallest ``|pre|`` over every cached branch: how far the forward
    ran from a ReLU kink."""
    m = np.inf
    for _, pre in _preactivations(model, cache):
        if pre.size:
            m = min(m, float(np.min(np.abs(pre))))
    return m


def finite_difference_check(model, inputs, target, h=1e-5, rtol=1e-5):
    out, cache = model.forward(inputs)
    loss, grad_out = mse_loss(out, target)
    grads = model.backward(cache, grad_out)
    # Central differences carry O(eps * loss / h) round-off themselves; the
    # absolute floor keeps near-zero coordinates from failing on FD noise.
    atol = 1e-8 * max(1.0, abs(loss))
    failures = []
    for name in sorted(model.params):
        p = model.params[name]
        flat = p.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            lp = _loss_of(model, inputs, target)
            flat[i] = keep - h
            lm = _loss_of(model, inputs, target)
            flat[i] = keep
            fd = (lp - lm) / (2.0 * h)
            an = grads[name].reshape(-1)[i]
            if abs(fd - an) > rtol * max(abs(fd), abs(an)) + atol:
                failures.append((name, i, fd, an))
    return failures


def _random_model_and_data(operators, seed):
    rng = np.random.default_rng(seed)
    family = "cosimo" if rng.random() < 0.6 else "discrete"
    depth = int(rng.integers(1, 3))
    widths = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
    branches = int(rng.choice([1, 3]))
    activation = str(rng.choice(["identity", "leaky_relu", "relu"]))
    t = float(rng.uniform(0.3, 1.5))
    model = Model(
        operators,
        widths,
        family=family,
        out_level=1,
        n_branches=branches,
        activation=activation,
        leaky_slope=0.1,
        seed=int(rng.integers(1 << 30)),
    )
    if family == "cosimo":
        model.set_receptive_fields(t, t)
    inputs = {k: rng.standard_normal((operators[k].n, widths[0])) for k in (0, 1, 2)}
    out, cache = model.forward(inputs)
    target = rng.standard_normal(out.shape)
    return model, inputs, target, cache


class TestGradients:
    def test_zero_loss_gradient_gives_zero_grads(self, operators):
        model = Model(operators, [2, 2], family="cosimo", out_level=1, seed=5)
        rng = np.random.default_rng(16)
        inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
        out, cache = model.forward(inputs)
        grads = model.backward(cache, np.zeros_like(out))
        for g in grads.values():
            assert not np.asarray(g).any()

    def test_tau_gradient_vanishes_on_all_zero_spectrum(self):
        # No triangles: the upper Laplacian at level 1 is zero, so tau_u
        # carries no dependence (-lam e^{-t lam} = 0 on every mode).
        c = build_complex(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        ops = {k: hodge_operators(c, k) for k in (0, 1, 2)}
        model = Model(ops, [1, 1], family="cosimo", out_level=1, seed=6,
                      activation="identity")
        rng = np.random.default_rng(17)
        inputs = {k: rng.standard_normal((ops[k].n, 1)) for k in (0, 1)}
        out, cache = model.forward(inputs)
        grads = model.backward(cache, np.ones_like(out))
        assert float(grads["L0.m0.tau_u"]) == 0.0
        assert abs(float(grads["L0.m0.tau_d"])) > 0.0

    def test_finite_differences_across_random_models(self, operators):
        checked = Counter()
        seed = 0
        while checked.total() < 20 and seed < 200:
            seed += 1
            model, inputs, target, cache = _random_model_and_data(operators, seed)
            if model.activation != "identity" and _preact_margin(model, cache) < 1e-3:
                continue  # too close to a ReLU kink for finite differences
            failures = finite_difference_check(model, inputs, target)
            assert not failures, f"seed {seed}: worst {failures[:3]}"
            checked[model.activation] += 1
        assert checked.total() == 20
        # the kinked activations are checked too, not skipped for a margin
        # that the cache cannot give
        assert checked["relu"] >= 5 and checked["leaky_relu"] >= 5, checked

    def test_batched_gradients_sum_over_samples(self, operators):
        model = Model(operators, [2, 2], family="cosimo", out_level=1, seed=7,
                      activation="identity")
        rng = np.random.default_rng(18)
        samples = [
            {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
            for _ in range(3)
        ]
        batch = {k: np.stack([s[k] for s in samples]) for k in (0, 1, 2)}
        out_b, cache_b = model.forward(batch)
        G = rng.standard_normal(out_b.shape)
        grads_b = model.backward(cache_b, G)
        total = {name: np.zeros_like(p) for name, p in model.params.items()}
        for i, s in enumerate(samples):
            out_i, cache_i = model.forward(s)
            g_i = model.backward(cache_i, G[i])
            for name in total:
                total[name] += g_i[name]
        for name in total:
            np.testing.assert_allclose(grads_b[name], total[name], atol=1e-10)


_SIGNED_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())


# slopes in [0, 1], whose leaky factor is exact arithmetic on the mask (the
# ends, the smallest subnormal, the largest double below 1 and any in between),
# and slopes outside it, -0.0 among them, which read a two-entry table
_SLOPES = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.1, 0.5, 1.0 - 2.0**-53, 1.0, -0.0, -2.0, 3.0, 1e300]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=120)
@given(
    slope=_SLOPES,
    pairs=st.lists(st.tuples(_SIGNED_FLOATS, _SIGNED_FLOATS), min_size=1, max_size=24),
)
def test_activation_derivative_from_the_mask_equals_the_float_derivative(slope, pairs):
    # dLoss/dz, from the cached mask z > 0, has the bits that G times the
    # derivative computed from z itself has, at +-0, infinities and NaN in z
    # or G, also for a G with more leading axes than the mask
    z, G = (np.array(column) for column in zip(*pairs))
    positive = z > 0
    for kind, reference in (("relu", (z > 0).astype(np.float64)),
                            ("leaky_relu", np.where(z > 0, 1.0, slope))):
        for grad in (G, np.stack([G, -G])):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = nn.activate_grad(grad, positive, kind, slope), grad * reference
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert nn.activate_grad(G, None, "identity", slope) is G


@pytest.mark.parametrize("family", ["cosimo", "discrete"])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "identity"])
def test_the_cache_holds_each_branch_as_the_sign_of_its_preactivation(
    operators, family, activation
):
    # a bool mask the shape of the pre-activation per branch, None for the
    # identity, whose derivative the backward never reads; no float copy
    model = Model(operators, [2, 3, 2], family=family, out_level=1, n_branches=2,
                  activation=activation, seed=8)
    rng = np.random.default_rng(8)
    _, cache = model.forward({k: rng.standard_normal((4, operators[k].n, 2)) for k in (0, 1, 2)})
    branches = 0
    for positive, pre in _preactivations(model, cache):
        branches += 1
        if activation == "identity":
            assert positive is None
        else:
            assert positive.dtype == np.bool_ and positive.shape == pre.shape
            np.testing.assert_array_equal(positive, pre > 0)
    assert branches == 2 * sum(len(d["levels"]) for d in cache["depths"])
    for d in cache["depths"]:
        for lv in d["levels"].values():
            assert set(lv) == {"triple", "branch_positive", "branch_stash"}


def _arrays(obj, path=""):
    """``(path, array)`` of every array in a nest of dicts, lists, tuples
    and `CochainTriple`s."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(value, f"{path}/{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _arrays(value, f"{path}/{i}")
    elif isinstance(obj, CochainTriple):
        for slot in ("own", "lower", "upper"):
            yield from _arrays(getattr(obj, slot), f"{path}/{slot}")


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "identity"])
@pytest.mark.parametrize("family, stacked", [("cosimo", False), ("discrete", False), ("cosimo", True)])
def test_no_kernel_writes_into_what_it_reads(operators, family, stacked, activation):
    # the kernels and the branch sums accumulate in place into arrays they
    # made. With the inputs, their record and grad_out read-only, neither
    # pass raises, and the backward leaves every cached array as the forward
    # left it. The identity matters most: its `activate` returns the
    # pre-activation itself, and its backward runs on G itself
    def model(seed):
        return Model(operators, [2, 3, 4, 2], family=family, out_level=1, n_branches=2,
                     activation=activation, leaky_slope=0.2, seed=seed)

    net = Model.stack([model(1), model(2)]) if stacked else model(1)
    rng = np.random.default_rng(9)
    lead = (2,) if stacked else (3,)
    inputs = {k: rng.standard_normal(lead + (operators[k].n, 2)) for k in (0, 1, 2)}
    if stacked:
        inputs[0] = inputs[0][0]  # shared by both members
    record = net._record(inputs)
    for _, a in _arrays([inputs, record.levels, list(record.first.values())]):
        a.setflags(write=False)
    for given in (inputs, record):
        out, cache = net.forward(given)
        grad_out = rng.standard_normal(out.shape)
        grad_out.setflags(write=False)
        before = [(path, a.copy()) for path, a in _arrays(cache)]
        assert any("/triple/lower" in path for path, _ in before)
        net.backward(cache, grad_out)
        after = dict(_arrays(cache))
        for path, a in before:
            assert after[path].tobytes() == a.tobytes(), path


def test_a_nan_receptive_field_runs_as_nan(small_complex, operators, tmp_path):
    # a NaN tau is no t = inf: its heat weights, hence the output, are NaN,
    # set in place or loaded from a checkpoint
    model = Model(operators, [1, 2, 1], seed=33)
    model.params["L0.m0.tau_d"][...] = math.nan
    assert math.isnan(_exp_tau(math.nan))
    assert math.isnan(model.receptive_fields()["L0.m0.tau_d"])
    path = tmp_path / "model.json"
    save_model(model, path, complex_checksum=small_complex.checksum())
    assert '"nan"' in path.read_text()
    loaded = load_model(path, small_complex)
    rng = np.random.default_rng(33)
    inputs = {k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)}
    for m in (model, loaded):
        out, _ = m.forward(inputs, want_cache=False)
        assert np.isnan(out).any()
    model.set_receptive_fields(1.0, 1.0)
    assert np.isfinite(model.forward(inputs, want_cache=False)[0]).all()


class TestTraining:
    @pytest.mark.parametrize("setting, value, message", [
        ("step_size", -0.05, "step_size must be finite and > 0, got -0.05"),
        ("step_size", 0.0, "step_size must be finite and > 0, got 0.0"),
        ("step_size", math.nan, "step_size must be finite and > 0, got nan"),
        ("step_size", math.inf, "step_size must be finite and > 0, got inf"),
        ("clip_norm", -1.0, "clip_norm must be None or finite and > 0, got -1.0"),
        ("clip_norm", 0.0, "clip_norm must be None or finite and > 0, got 0.0"),
        ("clip_norm", math.nan, "clip_norm must be None or finite and > 0, got nan"),
        ("epochs", -3, "epochs must be >= 0, got -3"),
        ("momentum", 1.0, "momentum must lie in [0, 1), got 1.0"),
        ("momentum", 1.5, "momentum must lie in [0, 1), got 1.5"),
        ("momentum", -0.1, "momentum must lie in [0, 1), got -0.1"),
        ("momentum", math.nan, "momentum must lie in [0, 1), got nan"),
    ])
    def test_refuses_a_setting_that_cannot_train(self, operators, setting, value, message):
        # each would ascend, diverge, freeze the parameters, never clip or
        # train nothing; refused by name before the first forward
        model = Model(operators, [1, 1], family="cosimo", out_level=1, seed=8)
        model.forward = lambda *args, **kwargs: pytest.fail("train ran a forward")
        before = model._flat.copy()
        rng = np.random.default_rng(19)
        inputs = {k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)}
        target = rng.standard_normal((operators[1].n, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(model, inputs, target, TrainConfig(**{"epochs": 5, setting: value}))
        np.testing.assert_array_equal(model._flat, before)

    def test_reaches_least_squares_optimum(self, operators):
        # Identity activation at t = 1e-300, whose heat weights are exactly 1,
        # with only the own-signal path active is plain linear regression;
        # gradient descent must reach the closed-form normal-equations
        # solution. dLoss/dtau = t dLoss/dt leaves tau where it is.
        model = Model(
            {1: operators[1]}, [2, 1], family="cosimo", out_level=1,
            activation="identity", seed=9,
        )
        model.set_receptive_fields(1e-300, 1e-300)
        rng = np.random.default_rng(20)
        X = rng.standard_normal((operators[1].n, 2))
        w_true = np.array([[1.5], [-0.7]])
        y = X @ w_true
        trace = train(model, {1: X}, y, TrainConfig(step_size=0.05, epochs=3000))
        w_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
        pred, _ = model.forward({1: X}, want_cache=False)
        np.testing.assert_allclose(pred, X @ w_ls, atol=1e-6)
        assert trace.losses[-1] <= 1e-10

    def test_divergence_guard(self, operators):
        model = Model(operators, [1, 1], family="cosimo", out_level=1, seed=10)
        rng = np.random.default_rng(21)
        inputs = {k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)}
        target = rng.standard_normal((operators[1].n, 1))
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(TrainingDivergedError, match="epoch"):
            train(model, inputs, target, TrainConfig(step_size=1e6, epochs=200))

    def test_divergence_names_first_non_finite_parameter(self, operators):
        # A finite loss with a NaN gradient poisons every parameter that the
        # output reaches; level 0 is dead in a one-layer model read at level 1,
        # so its weights, first in sorted order, stay finite.
        model = Model(operators, [1, 1], family="cosimo", out_level=1, seed=10)
        rng = np.random.default_rng(21)
        inputs = {k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)}
        target = rng.standard_normal((operators[1].n, 1))

        def nan_gradient(out, _):
            return 1.0, np.full_like(out, np.nan)

        assert sorted(model.params)[0] == "L0.k0.m0.psi_d"
        with pytest.raises(
            TrainingDivergedError, match=r"^parameter L0\.k1\.m0\.psi_d became non-finite at epoch 0;"
        ):
            train(model, inputs, target, TrainConfig(epochs=3), readout=nan_gradient)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_refuses_non_finite_parameter_before_the_first_forward(self, operators, stacked):
        # t = 0 writes tau = -inf, whose gradient t dLoss/dt is nan
        models = [Model(operators, [1, 1], family="cosimo", out_level=1, seed=s)
                  for s in (10, 11)]
        models[-1].set_receptive_fields(0.0, 1.0)
        model = Model.stack(models) if stacked else models[-1]
        model.forward = lambda *args, **kwargs: pytest.fail("train ran a forward")
        rng = np.random.default_rng(21)
        inputs = {k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)}
        target = rng.standard_normal(((2,) if stacked else ()) + (operators[1].n, 1))
        member = " of member 1" if stacked else ""
        with pytest.raises(ValueError, match=rf"^parameter L0\.m0\.tau_d{member} is not "
                                             r"finite before training; .* t = 0 "):
            train(model, inputs, target, TrainConfig(epochs=3),
                  readout=stacked_mse_loss if stacked else mse_loss)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_first_layer_inputs_are_projected_once_per_run(
        self, small_complex, operators, stacked, monkeypatch
    ):
        # only the first layer's inputs stay fixed through a run, so its
        # levels are projected once; the second layer's level every epoch
        calls = Counter()

        project_products = nn._project

        def counted(ops, *args):
            calls[ops.level] += 1
            return project_products(ops, *args)

        # the input record and the deeper layers both form the products here
        monkeypatch.setattr(nn, "_project", counted)
        rng = np.random.default_rng(24)
        inputs = {k: rng.standard_normal((operators[k].n, 1)) for k in (0, 1, 2)}
        epochs = 5
        if stacked:
            # a stability cell stack: one width-1 layer on perturbed level-1
            # members, of which only level 1 runs
            model = Model.stack(_perturbed_members(small_complex, 8, (0.0, 10.0, 20.0), [1, 1],
                                                   out_level=1, activation="identity"), 3)
            target, readout, want = rng.standard_normal((3, operators[1].n, 1)), stacked_mse_loss, {1: 1}
        else:
            model = Model(operators, [1, 2, 1], family="cosimo", out_level=1, seed=8)
            target, readout = rng.standard_normal((operators[1].n, 1)), mse_loss
            want = {0: 1, 1: 1 + epochs, 2: 1}
        train(model, inputs, target, TrainConfig(epochs=epochs, momentum=0.9), readout=readout)
        assert calls == want

    def test_clipped_step_is_clip_norm_along_the_gradient(self, operators):
        model = Model(operators, [2, 3, 1], family="cosimo", out_level=1, seed=12)
        rng = np.random.default_rng(23)
        inputs = {k: rng.standard_normal((4, operators[k].n, 2)) for k in (0, 1, 2)}
        target = rng.standard_normal((4, operators[1].n, 1))
        out, cache = model.forward(inputs)
        grads = model.backward(cache, mse_loss(out, target)[1])
        gnorm = math.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in model.params))
        clip_norm, step = 0.25 * gnorm, 0.3
        before = {n: p.copy() for n, p in model.params.items()}
        train(model, inputs, target,
              TrainConfig(step_size=step, epochs=1, momentum=0.9, clip_norm=clip_norm))
        for n in model.params:
            np.testing.assert_allclose(
                before[n] - model.params[n], step * clip_norm * grads[n] / gnorm,
                rtol=1e-12, atol=1e-15,
            )


def test_receptive_fields_refuse_a_negative_or_nan_time(operators):
    model = Model(operators, [1, 1], family="cosimo", out_level=1, seed=5)
    before = model._flat.copy()
    for t_d, t_u, bad in ((-0.5, 1.0, "t_d = -0.5"), (1.0, math.nan, "t_u = nan"),
                          (-0.0, -1e-300, "t_u = -1e-300")):
        with pytest.raises(ValueError, match=f"^receptive field {bad} is not a diffusion time"):
            model.set_receptive_fields(t_d, t_u)
        assert model._flat.tobytes() == before.tobytes()
    stacked = Model.stack([model] * 3)
    with pytest.raises(ValueError, match="t_d = -0.1 "):
        stacked.set_receptive_fields([0.5, -0.1, 2.0], [1.0] * 3)
    stacked.set_receptive_fields([0.0, 0.5, math.inf], [math.inf, 1.0, 0.0])
    fields = stacked.receptive_fields()
    assert fields["L0.m0.tau_d"].tolist() == [0.0, 0.5, math.inf]
    assert fields["L0.m0.tau_u"].tolist() == [math.inf, 1.0, 0.0]


@pytest.mark.parametrize("stacked", [False, True])
def test_receptive_fields_refuse_a_request_of_another_shape(operators, stacked):
    # the shape is checked before anything is written: a mis-shaped t_u
    # must not leave t_d written
    models = [Model(operators, [1, 2, 1], n_branches=2, seed=s) for s in (50, 51, 52)]
    model = Model.stack(models) if stacked else models[0]
    before = model._flat.copy()
    if stacked:
        want = r"t_u has shape \(2,\); expected a float or one per member, shape \(3,\)"
        with pytest.raises(ValueError, match=want):
            model.set_receptive_fields([5.0, 6.0, 7.0], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"t_d has shape \(3, 1\)"):
            model.set_receptive_fields([[5.0], [6.0], [7.0]], 1.0)
    else:
        with pytest.raises(ValueError, match=r"t_u has shape \(2,\); expected a float$"):
            model.set_receptive_fields(0.5, [1.0, 2.0])
    assert model._flat.tobytes() == before.tobytes()


def test_a_discrete_model_refuses_to_set_receptive_fields(operators):
    # it has none, so a request must not pass for one that was written
    model = Model(operators, [1, 2, 1], family="discrete", seed=5)
    before = model._flat.copy()
    with pytest.raises(ValueError, match="^a discrete model has no receptive fields to set$"):
        model.set_receptive_fields(0.5, 2.0)
    assert model._flat.tobytes() == before.tobytes()
    assert model.receptive_fields() == {}


def _per_parameter_draws(model, family, init_std, seed):
    """The weights as one ``rng.normal`` call per parameter drew them, in
    (depth, level, branch, path) order, discrete order 0 zeroed after."""
    rng = np.random.default_rng(seed)
    weights = {}
    for l in range(model.depth):
        f_in, f_out = model.widths[l], model.widths[l + 1]
        std = init_std if init_std is not None else 1.0 / math.sqrt(f_in)
        for k in model.levels:
            for m in range(model.n_branches):
                for wname in ("theta_d", "psi_d", "psi_u", "theta_u"):
                    if family == "cosimo":
                        w = rng.normal(0.0, std, size=(f_in, f_out))
                    else:
                        w = rng.normal(0.0, std, size=(2, f_in, f_out))
                        w[0] = 0.0
                    weights[f"L{l}.k{k}.m{m}.{wname}"] = w
    return weights


@pytest.mark.parametrize("family", ["cosimo", "discrete"])
@pytest.mark.parametrize(
    "widths, branches, init_std",
    [([1, 1], 1, None), ([1, 3, 2], 2, None), ([4] * 6, 1, 0.3), ([2, 7, 7], 3, 2.0)],
)
def test_one_weight_draw_equals_one_draw_per_parameter(
    operators, family, widths, branches, init_std
):
    seed = [3, 1, len(widths)]
    model = Model(operators, widths, family=family, n_branches=branches,
                  init_std=init_std, seed=seed)
    want = _per_parameter_draws(model, family, init_std, seed)
    weights = {n: p for n, p in model.params.items() if not n.endswith(("tau_d", "tau_u"))}
    assert list(weights) == list(want)
    for name, w in want.items():
        assert weights[name].shape == w.shape
        assert weights[name].tobytes() == w.tobytes(), name


class TestParameterBuffers:
    """Parameters are views into one packed vector; no two models, and no two
    gradients, may share memory."""

    def _data(self, operators, seed):
        rng = np.random.default_rng(seed)
        inputs = {k: rng.standard_normal((3, operators[k].n, 2)) for k in (0, 1, 2)}
        return inputs, rng.standard_normal((3, operators[1].n, 1))

    def test_training_a_clone_leaves_the_original_unchanged(self, operators):
        model = Model(operators, [2, 3, 1], family="cosimo", out_level=1, seed=30)
        inputs, target = self._data(operators, 31)
        config = TrainConfig(step_size=0.05, epochs=3, momentum=0.9)
        train(model, inputs, target, config)  # packs the original
        before = {n: p.copy() for n, p in model.params.items()}
        clone = model.with_operators(operators)
        train(clone, inputs, target, config)
        for n, p in model.params.items():
            assert p.tobytes() == before[n].tobytes(), n
        assert any(not np.array_equal(clone.params[n], before[n]) for n in model.params)

    def test_loaded_model_trains_and_saves_bit_for_bit(self, small_complex, operators, tmp_path):
        path = tmp_path / "model.json"
        save_model(Model(operators, [2, 3, 1], n_branches=2,
                         activation="leaky_relu", seed=32), path,
                   small_complex.checksum())
        loaded = load_model(path, small_complex)
        before = {n: p.copy() for n, p in loaded.params.items()}
        inputs, target = self._data(operators, 33)
        train(loaded, inputs, target, TrainConfig(step_size=0.05, epochs=3, momentum=0.9))
        # the last depth runs only the output level
        for n in loaded.params:
            if n.startswith(("L1.k0.", "L1.k2.")):
                assert np.array_equal(loaded.params[n], before[n]), n
            elif n.startswith("L1.k1."):
                assert not np.array_equal(loaded.params[n], before[n]), n
        save_model(loaded, path, small_complex.checksum())
        again = load_model(path, small_complex)
        assert list(again.params) == list(loaded.params)
        for n, p in loaded.params.items():
            assert again.params[n].tobytes() == p.tobytes(), n

    def test_two_backward_calls_return_independent_gradients(self, operators):
        model = Model(operators, [2, 3, 1], family="cosimo", out_level=1, seed=34)
        inputs, target = self._data(operators, 35)
        out, cache = model.forward(inputs)
        grad_out = mse_loss(out, target)[1]
        first = model.backward(cache, grad_out)
        second = model.backward(cache, grad_out)
        assert list(first) == list(second) == list(model.params)
        for n in first:
            assert first[n].tobytes() == second[n].tobytes()
            assert not np.shares_memory(first[n], second[n])
            assert not np.shares_memory(first[n], model.params[n])
            first[n][...] = 7.0
        for n in second:
            assert not np.any(second[n] == 7.0)

    def test_replacing_a_parameter_is_refused(self, operators):
        # `params` is a read-only map of views into the vector that `train`
        # updates, so only a write in place can reach it
        model = Model(operators, [2, 1], family="cosimo", out_level=1, seed=36)
        name = "L0.k1.m0.psi_d"
        with pytest.raises(TypeError):
            model.params[name] = np.zeros_like(model.params[name])
        with pytest.raises(TypeError):
            del model.params[name]
        model.params[name][...] = 0.0
        inputs, target = self._data(operators, 37)
        train(model, inputs, target, TrainConfig(step_size=0.05, epochs=2))
        assert model.params[name].any()


def _assert_one_flat_store(model):
    """Every parameter is a view into ``model._flat`` at its layout slot, the
    slots tile the vector in `params` order, and `params` refuses assignment."""
    flat, lead = model._flat, (() if model.members is None else (model.members,))
    assert flat.dtype == np.float64 and flat.ndim == len(lead) + 1 and flat.shape[:-1] == lead
    assert list(model.params) == list(model._layout)
    stop = 0
    for name, (a, b, shape) in model._layout.items():
        assert a == stop and b - a == math.prod(shape)
        stop = b
        p = model.params[name]
        assert p.shape == lead + shape
        assert np.shares_memory(p, flat)
        assert p.tobytes() == flat[..., a:b].tobytes()
        with pytest.raises(TypeError):
            model.params[name] = p.copy()
    assert stop == flat.shape[-1]


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["cosimo", "discrete"]),
    widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    branches=st.integers(1, 3),
    kind=st.sampled_from(["plain", "clone", "stack, shared operators", "stack, own operators"]),
    members=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_parameters_are_views_into_one_flat_store(
    small_complex, operators, family, widths, branches, kind, members, seed
):
    assume(family == "cosimo" or not kind.startswith("stack"))
    event(kind)
    kwargs = dict(family=family, n_branches=branches)
    model = Model(operators, widths, seed=seed, **kwargs)
    _assert_one_flat_store(model)
    if kind == "clone":
        clone = model.with_operators(operators)
        _assert_one_flat_store(clone)
        assert clone._flat.tobytes() == model._flat.tobytes()
        assert not np.shares_memory(clone._flat, model._flat)
    elif kind.startswith("stack"):
        if kind == "stack, shared operators":
            own = [Model(operators, widths, seed=[seed, e], **kwargs) for e in range(members)]
        else:
            own = list(_perturbed_members(small_complex, seed, [0.0, 10.0, 30.0][:members],
                                          widths, **kwargs))
        stacked = Model.stack(own)
        _assert_one_flat_store(stacked)
        for e, member in enumerate(own):
            assert stacked._flat[e].tobytes() == member._flat.tobytes()
            assert not np.shares_memory(stacked._flat, member._flat)


def _block_entries(model, weights, taus):
    """``(name, entry)`` of every parameter in blocks of `Model._blocks`:
    each weight's ``[..., i, m, path]`` entry and each receptive field's
    ``[..., l, m, side]``, for a model's own blocks or its gradients'."""
    lead = () if model.members is None else (slice(None),)
    for l, W in enumerate(weights):
        for i, k in enumerate(model.levels):
            for m in range(model.n_branches):
                for p, path in enumerate(("theta_d", "psi_d", "psi_u", "theta_u")):
                    yield f"L{l}.k{k}.m{m}.{path}", W[lead + (i, m, p)]
    if model.family == "cosimo":
        for l in range(model.depth):
            for m in range(model.n_branches):
                for j, side in enumerate(("d", "u")):
                    yield f"L{l}.m{m}.tau_{side}", taus[lead + (l, m, j, ...)]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["cosimo", "discrete"]),
    first=st.integers(1, 3),
    runs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    triangles=st.booleans(),
    branches=st.integers(1, 3),
    members=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
)
def test_blocks_are_the_named_parameters_and_gradients(
    small_complex, family, first, runs, triangles, branches, members, seed
):
    # widths in runs of equal width, so consecutive depths share a shape
    assume(family == "cosimo" or members is None)
    widths = [first] + [w for w, n in runs for _ in range(n)]
    cplx = small_complex if triangles else build_complex(
        edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    event(f"{family}, {'triangles' if triangles else 'no triangles'}, members {members}")
    kwargs = dict(family=family, n_branches=branches, activation="leaky_relu")
    model = Model(ops, widths, seed=seed, **kwargs)
    if members is not None:
        model = Model.stack([Model(ops, widths, seed=[seed, e], **kwargs)
                             for e in range(members)])
        model.set_receptive_fields(np.linspace(0.5, 1.5, members), 0.7)
    entries = list(_block_entries(model, *model._blocks(model._flat)))
    assert [name for name, _ in entries] == list(model.params)
    for name, entry in entries:
        p = model.params[name]
        assert entry.shape == p.shape, name
        assert np.shares_memory(entry, model._flat)
        assert np.shares_memory(entry, p), name
        assert entry.tobytes() == p.tobytes(), name
    rng = np.random.default_rng(seed)
    lead = () if members is None else (members,)
    inputs = {k: rng.standard_normal((ops[k].n, widths[0])) for k in model.levels}
    out, cache = model.forward(inputs)
    grads = model.backward(cache, rng.standard_normal(out.shape))
    assert list(grads) == list(model.params)
    gentries = list(_block_entries(model, *model._blocks(grads.flat)))
    assert [name for name, _ in gentries] == list(model.params)
    for name, entry in gentries:
        assert entry.shape == lead + model.params[name].shape[len(lead):], name
        assert np.shares_memory(entry, grads.flat)
        assert entry.tobytes() == grads[name].tobytes(), name
    assert np.any(grads.flat)


def test_a_model_refuses_adjacent_levels_of_different_complexes(operators):
    # a projection through one complex's incidence of another complex's
    # signal: refused where the operators enter, not inside `forward`
    large = {k: hodge_operators(delaunay_complex(random_points(30, rng_seed=42)), k)
             for k in (0, 1, 2)}
    n, N = operators[1].n, large[1].n
    with pytest.raises(ValueError, match=rf"^levels 0 and 1 hold 12 and {N} simplices, but B_1 is "
                                         rf"\(12, {n}\) at level 0 and \(30, {N}\) at level 1$"):
        Model({0: operators[0], 1: large[1]}, [1, 1])
    with pytest.raises(ValueError, match="^levels 1 and 2 hold "):
        Model({1: large[1], 2: operators[2]}, [1, 1])
    model = Model(operators, [1, 1], seed=3)
    with pytest.raises(ValueError, match="^levels 0 and 1 hold 30 and "):
        model.with_operators({**operators, 0: large[0]})
    # levels 0 and 2 are not adjacent: neither projects the other
    Model({0: operators[0], 2: large[2]}, [1, 1], out_level=0)


def test_a_model_never_calls_the_checked_projection(operators, monkeypatch):
    # `Model._record` checks each input against its level, and admission
    # checks the operators between levels, so `project`, which checks both
    # again, is left to callers outside a model
    def refuse(*args):
        raise AssertionError("nn.project was called")

    monkeypatch.setattr(nn, "project", refuse)
    rng = np.random.default_rng(56)
    inputs = {k: rng.standard_normal((3, operators[k].n, 2)) for k in (0, 1, 2)}
    target = rng.standard_normal((3, operators[1].n, 1))
    for family in ("cosimo", "discrete"):
        model = Model(operators, [2, 3, 1], family=family, n_branches=2, seed=56)
        train(model, inputs, target, TrainConfig(epochs=2))
        model.features_per_depth(inputs)
    shared = {k: x[0] for k, x in inputs.items()}
    stacked = Model.stack([Model(operators, [2, 1], seed=s) for s in (57, 58)])
    train(stacked, shared, target[:2], TrainConfig(epochs=2), readout=stacked_mse_loss)
    stacked.features_per_depth(shared)


def test_running_a_model_builds_no_parameter_names(small_complex, operators, monkeypatch):
    # construction, stacking, the receptive fields, the forward and backward,
    # the per-depth features, the weight bound and an unclipped training run
    # address the parameters by position; only a name asks for the name map
    def refuse(self):
        raise AssertionError("the parameter names were built")

    monkeypatch.setattr(Model, "_layout", property(refuse))
    rng = np.random.default_rng(53)
    inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
    for family in ("cosimo", "discrete"):
        model = Model(operators, [2, 3, 3, 1], family=family, n_branches=2, seed=53)
        if family == "cosimo":
            model.set_receptive_fields(0.5, 2.0)
        out, cache = model.forward(inputs)
        model.backward(cache, np.ones_like(out))
        model.features_per_depth(inputs)
        model.spectral_norm_bound()
        train(model, inputs, np.zeros_like(out), TrainConfig(epochs=2))
    stacked = Model.stack([Model(operators, [2, 2], seed=s) for s in (54, 55)])
    stacked.set_receptive_fields([0.5, 1.0], 1.5)
    out, cache = stacked.forward(inputs)
    grads = stacked.backward(cache, np.ones_like(out))
    stacked.features_per_depth(inputs)
    stacked.spectral_norm_bound()
    train(stacked, inputs, np.zeros_like(out), TrainConfig(epochs=2), readout=stacked_mse_loss)
    assert grads.flat.shape == stacked._flat.shape
    with pytest.raises(AssertionError, match="names were built"):
        grads["L0.k1.m0.psi_d"]
    with pytest.raises(AssertionError, match="names were built"):
        stacked.params


class TestCheckpoints:
    def test_round_trip_preserves_forward(self, small_complex, operators, tmp_path):
        model = Model(operators, [2, 3, 1], family="cosimo", out_level=1,
                      n_branches=2, seed=11)
        path = tmp_path / "model.json"
        save_model(model, path, complex_checksum=small_complex.checksum())
        loaded = load_model(path, small_complex)
        rng = np.random.default_rng(22)
        inputs = {k: rng.standard_normal((operators[k].n, 2)) for k in (0, 1, 2)}
        a, _ = model.forward(inputs, want_cache=False)
        b, _ = loaded.forward(inputs, want_cache=False)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_forward_only_receptive_fields_round_trip_as_strict_json(
        self, small_complex, operators, tmp_path
    ):
        model = Model(operators, [1, 1], seed=12)
        model.set_receptive_fields(0.0, math.inf)
        path = tmp_path / "model.json"
        save_model(model, path, complex_checksum=small_complex.checksum())

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        json.loads(path.read_text(), parse_constant=refuse)
        loaded = load_model(path, small_complex)
        assert loaded.receptive_fields() == model.receptive_fields() == {
            "L0.m0.tau_d": 0.0, "L0.m0.tau_u": math.inf}

    def test_refuses_checkpoint_of_another_complex(self, small_complex, operators, tmp_path):
        # Reversed vertex labels: same simplex counts, another complex.
        n = len(small_complex.vertices)
        other = build_complex(
            edges=[[n - 1 - v for v in e] for e in small_complex.edges],
            triangles=[[n - 1 - v for v in t] for t in small_complex.triangles],
        )
        assert [other.num_simplices(k) for k in (0, 1, 2)] == [
            small_complex.num_simplices(k) for k in (0, 1, 2)
        ]
        assert other.checksum() != small_complex.checksum()
        path = tmp_path / "model.json"
        save_model(Model(operators, [1, 1], seed=13), path, small_complex.checksum())
        with pytest.raises(CheckpointError, match="trained on complex"):
            load_model(path, other)

    def test_model_settings_and_checkpoint_keys_are_pinned(self, small_complex, operators, tmp_path):
        # a new setting or checkpoint key needs a deliberate edit here
        assert list(inspect.signature(Model.__init__).parameters)[1:] == [
            "operators", "widths", "family", "out_level", "n_branches", "activation",
            "leaky_slope", "init_std", "seed",
        ]
        path = tmp_path / "model.json"
        save_model(Model(operators, [2, 3], seed=44), path, small_complex.checksum())
        assert list(json.loads(path.read_text())) == [
            "family", "widths", "out_level", "n_branches", "activation", "leaky_slope",
            "complex_checksum", "run", "params",
        ]

    def test_refuses_checkpoint_that_records_learn_t(self, small_complex, operators, tmp_path):
        # the format `save_model` wrote while models took a learn_t setting
        path = tmp_path / "model.json"
        save_model(Model(operators, [2, 3, 1], n_branches=2, seed=45), path,
                   small_complex.checksum())
        payload = json.loads(path.read_text())
        payload["learn_t"] = False
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="has foreign key 'learn_t'$"):
            load_model(path, small_complex)

    # a fault of a saved checkpoint, and the part of the refusal that names
    # it; tests/test_cli.py refuses a list payload, data that does not fill
    # its shape and an unknown activation through `cosimo eval`
    MALFORMED = {
        "data-less-entry": r"L0\.k1\.m0\.psi_d is not a shape and its data: KeyError\('data'\)",
        "params-list": "key 'params' is not an object",
        "no-branch": "holds a setting that Model refuses: n_branches must be an integer >= 1, got 0",
        "fractional-branches": "holds a setting that Model refuses: n_branches must be an integer "
                               ">= 1, got 2.7",
    }

    @pytest.mark.parametrize("fault", list(MALFORMED))
    def test_refuses_a_malformed_checkpoint_by_name(self, small_complex, operators, tmp_path, fault):
        path = tmp_path / "model.json"
        save_model(Model(operators, [2, 3], seed=46), path, small_complex.checksum())
        payload = json.loads(path.read_text())
        if fault == "data-less-entry":
            del payload["params"]["L0.k1.m0.psi_d"]["data"]
        elif fault == "params-list":
            payload["params"] = list(payload["params"].values())
        else:
            payload["n_branches"] = 0 if fault == "no-branch" else 2.7
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=self.MALFORMED[fault]):
            load_model(path, small_complex)

    @pytest.mark.parametrize("setting, value, message", [
        ("widths", [0, 3], "widths must be integers >= 1"),
        ("widths", [2, -1], "widths must be integers >= 1"),
        ("widths", [2, 0], "widths must be integers >= 1"),
        ("leaky_slope", "a", "leaky_slope must be a finite real number"),
    ], ids=["zero-input", "negative", "zero-output", "string-slope"])
    def test_refuses_a_checkpoint_of_widths_or_a_slope_model_refuses(
        self, small_complex, operators, tmp_path, setting, value, message
    ):
        path = tmp_path / "model.json"
        save_model(Model(operators, [2, 3], seed=47), path, small_complex.checksum())
        payload = json.loads(path.read_text())
        payload[setting] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"holds a setting that Model refuses: {message}"):
            load_model(path, small_complex)

    def test_refuses_checkpoint_that_lacks_a_parameter(self, small_complex, operators, tmp_path):
        path = tmp_path / "model.json"
        save_model(Model(operators, [2, 3], out_level=1, seed=42), path, small_complex.checksum())
        payload = json.loads(path.read_text())
        del payload["params"]["L0.k1.m0.psi_u"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"lacks .*L0\.k1\.m0\.psi_u"):
            load_model(path, small_complex)


# ---------------------------------------------------------------------------
# Properties on random complexes
# ---------------------------------------------------------------------------

# (input slot, laplacian side) of the weights theta_d, psi_d, psi_u, theta_u
_FOUR_PATHS = (("lower", "down"), ("own", "down"), ("own", "up"), ("upper", "up"))


def four_path_cosimo(triple, weights, ops, t_d, t_u, Gp):
    """Reference continuous layer that filters each of its four paths on its
    own with `exp_filter` through the records of ``ops``: pre-activation,
    weight gradients, slot gradients and ``(dLoss/dt_d, dLoss/dt_u)`` for
    ``Gp = dLoss/dpre``."""
    sides = {"down": (ops.spectrum_down, t_d), "up": (ops.spectrum_up, t_u)}
    pre = 0.0
    gweights = []
    gslots = {slot: np.zeros_like(getattr(triple, slot)) for slot in ("lower", "own", "upper")}
    dt = {"down": 0.0, "up": 0.0}
    for (slot, side), W in zip(_FOUR_PATHS, weights):
        spec, t = sides[side]
        X = getattr(triple, slot)
        A = exp_filter(spec, t, X)
        pre = pre + A @ W
        gweights.append(np.einsum("bnf,bng->fg", *(a.reshape((-1,) + a.shape[-2:]) for a in (A, Gp))))
        gslots[slot] += exp_filter(spec, t, Gp @ W.T)
        V, w = spec.eigenvectors, heat_weights(spec, t)
        GZ = V.T @ (Gp @ W.T)
        dt[side] += float(np.sum(GZ * (-(spec.eigenvalues * w))[:, None] * (V.T @ X)))
    return pre, gweights, gslots, (dt["down"], dt["up"])


_TIMES = st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.just(math.inf))


# the times of the fused-kernel property: 0, a tiny, a unit and an
# infinite time, and any in between
_KERNEL_TIMES = st.one_of(st.sampled_from([0.0, 1e-12, 1.0, math.inf]), st.floats(0.01, 5.0))


@settings(max_examples=150, deadline=None)
@given(
    n_points=st.integers(4, 25),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    level=st.sampled_from([0, 1, 2]),
    batch=st.sampled_from([(), (3,), (2, 2)]),
    members=st.sampled_from([None, 2]),
    widths=st.tuples(st.integers(1, 3), st.integers(1, 7)),
    truncation=st.sampled_from([None, 0.3, 0.7]),
    t_d=_KERNEL_TIMES,
    t_u=_KERNEL_TIMES,
)
def test_fused_kernel_equals_four_path_reference(
    n_points, seed, holes, level, batch, members, widths, truncation, t_d, t_u
):
    """Both routes of the continuous kernels, the output route of every
    deeper layer and the first layer's input route, from the record
    coefficients of `_side_inputs`, equal the four-path reference whatever
    the widths, also on a member stack (whose second member runs at the
    other side's time). As in the discrete kernel, the neighbor slot of an
    empty side (level 0 down, level 2 up), whose level has no simplices,
    gets no gradient, and its weight's gradient is exactly 0."""
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    n = ops[level].n
    assume(n > 0)
    f_in, f_out = widths
    event("stacked inputs narrower than the output" if 2 * f_in < f_out
          else "output no wider than the stacked inputs")
    rng = np.random.default_rng(seed)
    if members:
        # members on one operator set, which the stack holds once
        event("member stack")
        lead = (members,)
        kernel_ops = Model.stack([Model({level: ops[level]}, [f_in, f_out], out_level=level, seed=e)
                                  for e in range(members)]).operators[level]
        times = [(t_d, t_u), (t_u, t_d)]
        t_args = [np.array(ts) for ts in zip(*times)]
    else:
        lead, kernel_ops, times, t_args = batch, ops[level], [(t_d, t_u)], (t_d, t_u)
    x = {k: rng.standard_normal(lead + (ops[k].n, f_in)) for k in (0, 1, 2)}
    triple = project(ops[level], x[level], x.get(level - 1), x.get(level + 1))
    weights = [rng.standard_normal(lead[:1] * bool(members) + (f_in, f_out)) for _ in range(4)]
    Gp = rng.standard_normal(lead + (n, f_out))
    dense = dense_records(ops[level])
    if truncation is not None:
        # the kernels filter Y + V_r(...) through the range, which a
        # truncated spectrum does not hold: a model refuses it where its
        # operators enter, so no kernel is ever given one
        K = max(1, int(truncation * n))
        assume(K < n)
        truncated = replace(dense, spectrum_down=truncate(dense.spectrum_down, K),
                            spectrum_up=truncate(dense.spectrum_up, K))
        refusal = f"^level {level} spectrum keeps {K} of {n} modes; the kernels need an operator record$"
        with pytest.raises(ValueError, match=refusal):
            Model({level: truncated}, [f_in, f_out], out_level=level)
        model = Model({level: ops[level]}, [f_in, f_out], out_level=level)
        with pytest.raises(ValueError, match=refusal):
            model.with_operators({level: truncated})
        return

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))

    live = {"own"} | {slot for slot, B in (("lower", ops[level].B_down), ("upper", ops[level].B_up))
                      if B.size}
    for sides in (None, _side_inputs(triple, kernel_ops)):
        pre, stash = _cosimo_forward(triple, weights, kernel_ops, *t_args, sides)
        gweights = [np.zeros_like(W) for W in weights]
        gslots = {}
        dt, gY = _cosimo_backward(triple, weights, kernel_ops, stash, Gp, gweights, gslots)
        assert set(gslots) == live
        for empty, g in (("lower", gweights[0]), ("upper", gweights[3])):
            if empty not in live:
                assert not g.any()
        for e, (te_d, te_u) in enumerate(times):
            pick = (lambda a: a[e]) if members else (lambda a: a)
            member = CochainTriple(level, *(pick(getattr(triple, s)) for s in ("own", "lower", "upper")))
            want_pre, want_gweights, want_gslots, want_dt = four_path_cosimo(
                member, [pick(W) for W in weights], dense, te_d, te_u, pick(Gp)
            )
            close(pick(pre), want_pre)
            for got, want in zip(gweights, want_gweights):
                close(pick(got), want)
            for slot in gslots:
                close(pick(gslots[slot]), want_gslots[slot])
            for t, got, want in zip((te_d, te_u), dt, want_dt):
                if math.isinf(t):
                    assert pick(got) == 0.0
                else:
                    assert pick(got) == pytest.approx(want, rel=1e-9, abs=1e-9)

        # without slot buffers (depth 0) the kernel skips the input gradients
        # only: weight and t gradients keep every bit
        bare = [np.zeros_like(W) for W in weights]
        bare_dt, _ = _cosimo_backward(triple, weights, kernel_ops, stash, Gp, bare, None)
        for got, want in zip(bare_dt, dt):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for got, want in zip(bare, gweights):
            assert got.tobytes() == want.tobytes()

        assert gY is None
        if sides is not None:
            continue
        # a narrow layer's output route forms no slot gradient, which
        # `Model.backward` forms over all branches, keeps every other bit and
        # returns its filtered gradients gY_s, whose products with the
        # transposed weights are the slot gradients
        theta_d, psi_d, psi_u, theta_u = (np.swapaxes(W, -1, -2) for W in weights)
        part, part_slots = [np.zeros_like(W) for W in weights], {}
        part_dt, (gY_d, gY_u) = _cosimo_backward(
            triple, weights, kernel_ops, stash, Gp, part, part_slots, True)
        assert not part_slots
        for got, want in zip(part + list(part_dt), gweights + list(dt)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        from_gY = {"lower": gY_d @ theta_d, "own": gY_d @ psi_d + gY_u @ psi_u,
                   "upper": gY_u @ theta_u}
        for slot in gslots:
            close(gslots[slot], from_gY[slot])


def four_path_discrete_forward(triple, weights, ops):
    """Reference discrete layer that runs each of its four paths on its own,
    ``X W[0] + (L_s X) W[1]`` with a dense ``L_s X`` per path, zero
    Laplacians included: the pre-activation and each path's ``(X, L_s X)``."""
    lap = {"down": ops.L_down, "up": ops.L_up}
    pre = None
    inputs = []
    for (slot, side), W in zip(_FOUR_PATHS, weights):
        X = getattr(triple, slot)
        LX = lap[side] @ X
        inputs.append((X, LX))
        term = X @ W[0] + LX @ W[1]
        pre = term if pre is None else pre + term
    return pre, inputs


def four_path_discrete_backward(weights, ops, inputs, Gp, gweights, gslots):
    """Backward of `four_path_discrete_forward`: the weight gradients and
    every slot's ``Gp W[0]^T + L_s (Gp W[1]^T)``, path by path."""
    lap = {"down": ops.L_down, "up": ops.L_up}
    for (slot, side), W, (X, LX), gW in zip(_FOUR_PATHS, weights, inputs, gweights):
        gW[0] += _contract(X, Gp)
        gW[1] += _contract(LX, Gp)
        gslots[slot] += Gp @ W[0].T + lap[side] @ (Gp @ W[1].T)


_NO_TRIANGLES = (((0.5, 0.5), 2.0),)


@settings(max_examples=80, deadline=None)
@given(
    triangles=st.booleans(),
    seed=st.integers(0, 2**16),
    level=st.sampled_from([0, 1, 2]),
    batch=st.sampled_from([(), (3,), (2, 2)]),
    widths=st.tuples(st.integers(1, 3), st.integers(1, 4)),
)
def test_discrete_kernels_equal_the_four_path_oracle(triangles, seed, level, batch, widths):
    """One product per nonempty side equals four products per layer: the
    pre-activation and the weight gradients everywhere, the slot gradients
    of the own slot and of every nonempty side; an empty side's slot, whose
    level has no simplices, gets no gradient."""
    if triangles:
        cplx = delaunay_complex(random_points(20, rng_seed=seed))
    else:
        cplx = delaunay_complex(random_points(10, rng_seed=seed), _NO_TRIANGLES)
        assert cplx.num_simplices(2) == 0
        level = min(level, 1)
    ops = hodge_operators(cplx, level)
    assume(ops.n > 0)
    event(f"level {level}, {'with' if triangles else 'without'} triangles")
    f_in, f_out = widths
    rng = np.random.default_rng(seed)
    triple = project(
        ops,
        rng.standard_normal(batch + (ops.n, f_in)),
        rng.standard_normal(batch + (ops.B_down.shape[-2], f_in)),
        rng.standard_normal(batch + (ops.B_up.shape[-1], f_in)),
    )
    weights = [rng.standard_normal((2, f_in, f_out)) for _ in range(4)]
    Gp = rng.standard_normal(batch + (ops.n, f_out))

    pre, stash = _discrete_forward(triple, weights, ops)
    gweights = [np.zeros_like(W) for W in weights]
    gslots = {slot: np.zeros_like(getattr(triple, slot)) for slot in ("lower", "own", "upper")}
    _discrete_backward(triple, weights, ops, Gp, gweights, gslots)

    want_pre, inputs = four_path_discrete_forward(triple, weights, ops)
    want_gweights = [np.zeros_like(W) for W in weights]
    want_gslots = {slot: np.zeros_like(getattr(triple, slot)) for slot in gslots}
    four_path_discrete_backward(weights, ops, inputs, Gp, want_gweights, want_gslots)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))

    close(pre, want_pre)
    for got, want in zip(gweights, want_gweights):
        close(got, want)
    close(gslots["own"], want_gslots["own"])
    for slot, B in (("lower", ops.B_down), ("upper", ops.B_up)):
        if B.size:
            close(gslots[slot], want_gslots[slot])
        else:
            assert not getattr(triple, slot).any() and not gslots[slot].any()

    # without slot buffers (depth 0) the weight gradients keep every bit
    bare = [np.zeros_like(W) for W in weights]
    _discrete_backward(triple, weights, ops, Gp, bare, None)
    for got, want in zip(bare, gweights):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("triangles", [True, False])
def test_discrete_model_never_forms_a_zero_laplacian(triangles):
    # a fresh complex: its operators form each Laplacian on first read
    if triangles:
        cplx = delaunay_complex(random_points(20, rng_seed=3))
    else:
        cplx = delaunay_complex(random_points(10, rng_seed=3), _NO_TRIANGLES)
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    model = Model(ops, [2, 3, 2], family="discrete", out_level=1, n_branches=2, seed=4)
    assert model.levels == ((0, 1, 2) if triangles else (0, 1))
    rng = np.random.default_rng(5)
    inputs = {k: rng.standard_normal((3, ops[k].n, 2)) for k in model.levels}
    out, cache = model.forward(inputs)
    model.backward(cache, rng.standard_normal(out.shape))
    assert "L_down" not in ops[0].__dict__
    assert "L_down" in ops[1].__dict__
    if triangles:
        assert "L_up" in ops[1].__dict__
        assert "L_up" not in ops[2].__dict__
    else:
        assert "L_up" not in ops[1].__dict__


def dense_cosimo(triple, weights, L_down, L_up, t_d, t_u, Gp):
    """Reference continuous layer on dense heat kernels: `matrix_exp_oracle`
    at a finite time, the SVD kernel projector at ``t = inf``. Returns what
    `four_path_cosimo` returns; ``dLoss/dt_s = sum Gp ⊙ (-L_s e^{-t_s L_s} Y_s)``
    with the mixed ``Y_s`` of each side, 0 at ``t = inf``."""
    theta_d, psi_d, psi_u, theta_u = weights
    lower, own, upper = triple.lower, triple.own, triple.upper
    pre, dt = 0.0, []
    E = {}
    for side, L, t, Y in (("down", L_down, t_d, lower @ theta_d + own @ psi_d),
                          ("up", L_up, t_u, own @ psi_u + upper @ theta_u)):
        E[side] = svd_kernel_projector(L) if math.isinf(t) else matrix_exp_oracle(L, t)
        pre = pre + E[side] @ Y
        dt.append(0.0 if math.isinf(t) else float(np.sum(Gp * -(L @ (E[side] @ Y)))))
    gY = {side: E[side] @ Gp for side in E}
    gweights = [
        np.einsum("bnf,bng->fg", *(a.reshape((-1,) + a.shape[-2:]) for a in (X, gY[side])))
        for X, side in ((lower, "down"), (own, "down"), (own, "up"), (upper, "up"))
    ]
    gslots = {
        "lower": gY["down"] @ theta_d.T,
        "own": gY["down"] @ psi_d.T + gY["up"] @ psi_u.T,
        "upper": gY["up"] @ theta_u.T,
    }
    return pre, gweights, gslots, tuple(dt)


def _run_cosimo_kernels(triple, weights, ops, t_d, t_u, Gp):
    """Forward and backward of the continuous kernels on the records of
    ``ops``: pre-activation, weight gradients, the slot gradients the kernel
    makes and ``(dLoss/dt_d, dLoss/dt_u)``."""
    pre, stash = _cosimo_forward(triple, weights, ops, t_d, t_u)
    gweights = [np.zeros_like(W) for W in weights]
    gslots = {}
    dt, _ = _cosimo_backward(triple, weights, ops, stash, Gp, gweights, gslots)
    return pre, gweights, gslots, dt


_RANGE_TIMES = (0.0, 1e-12, 1.0, 50.0, math.inf)


@pytest.mark.parametrize("case", ["complex", "no triangles", "stack"])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    level=st.sampled_from([0, 1, 2]),
    batch=st.sampled_from([(), (3,)]),
    widths=st.sampled_from([(1, 1), (2, 3), (1, 5), (3, 2)]),
    shift=st.integers(0, len(_RANGE_TIMES) - 1),
)
def test_range_filter_matches_dense_heat_kernels(case, seed, level, batch, widths, shift):
    """The kernels filter only the range of each Laplacian. They agree with
    dense heat kernels at the oracle tolerance at every time of
    `_RANGE_TIMES` on either side: on the zero operators (level 0 down,
    level 2 up, level 1 up without triangles), and on a stack whose members'
    ranks differ. A rank-0 side never reads its eigenvectors. The neighbor
    slot of an empty side is zero, as `project` makes it, and gets no
    gradient."""
    if case == "no triangles":
        cplx = delaunay_complex(random_points(10, rng_seed=seed), (((0.5, 0.5), 2.0),))
        assert cplx.num_simplices(2) == 0
        level = min(level, 1)
    else:
        cplx = delaunay_complex(random_points(30, rng_seed=seed))
    if case == "stack":
        # clean B_1 has rank n_0 - 1; the noise lifts its kernel mode, so the
        # range of the stacked lower operator at level 1 is one mode wider
        # than the clean member's
        level, lead = 1, (2,)
        pert = perturb_incidence(cplx, 30.0, 30.0, rng_seed=seed)
        members = [hodge_operators(cplx, 1), pert.hodge_operators(1)]
        ranks = [np.count_nonzero(ops.spectrum_down.eigenvalues) for ops in members]
        assert ranks == [cplx.num_simplices(0) - 1, cplx.num_simplices(0)]
        # stacked along a leading member axis by `Model.stack`, which pads
        # the narrower record
        kernel_ops = Model.stack([Model({1: ops}, [1, 1], seed=0) for ops in members]).operators[1]
        assert kernel_ops.spectrum_down.K == max(ranks)
    else:
        members = [hodge_operators(cplx, level)]
        kernel_ops, lead = members[0], batch
    n = members[0].n
    f_in, f_out = widths
    rng = np.random.default_rng(seed)
    own, lower, upper = (rng.standard_normal(lead + (n, f_in)) for _ in range(3))
    live = {"own"} | {slot for slot, B in (("lower", members[0].B_down), ("upper", members[0].B_up))
                      if B.size}
    triple = CochainTriple(level, own, *(x if slot in live else np.zeros_like(x)
                                         for slot, x in (("lower", lower), ("upper", upper))))
    weights = [rng.standard_normal(lead[:1] * (case == "stack") + (f_in, f_out)) for _ in range(4)]
    Gp = rng.standard_normal(lead + (n, f_out))

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8 * max(1.0, np.max(np.abs(b))))

    for i, t_d in enumerate(_RANGE_TIMES):
        t_u = _RANGE_TIMES[(i + shift) % len(_RANGE_TIMES)]
        # a stack's second member runs at the other side's time
        times = [(t_d, t_u), (t_u, t_d)][:len(members)]
        t_args = [np.array(ts) for ts in zip(*times)] if case == "stack" else times[0]
        got = _run_cosimo_kernels(triple, weights, kernel_ops, *t_args, Gp)
        for e, (ops, (td, tu)) in enumerate(zip(members, times)):
            pick = (lambda a: a[e]) if case == "stack" else (lambda a: a)
            member = CochainTriple(level, *(pick(getattr(triple, s)) for s in ("own", "lower", "upper")))
            want = dense_cosimo(member, [pick(W) for W in weights], ops.L_down, ops.L_up, td, tu, pick(Gp))
            close(pick(got[0]), want[0])
            for g, w in zip(got[1], want[1]):
                close(pick(g), w)
            assert set(got[2]) == live
            for slot in live:
                close(pick(got[2][slot]), want[2][slot])
            for t, g, w in zip((td, tu), got[3], want[3]):
                if math.isinf(t):
                    assert pick(g) == 0.0
                else:
                    assert pick(g) == pytest.approx(w, rel=1e-8, abs=1e-8)

        # a rank-0 side passes its input through: NaN eigenvectors change nothing
        for side in ("spectrum_down", "spectrum_up"):
            spec = getattr(kernel_ops, side)
            if spec.eigenvalues.any():
                continue
            event(f"rank-0 {side} side")
            blind = replace(kernel_ops, **{side: HodgeSpectrum(
                spec.eigenvalues, np.full_like(spec.eigenvectors, np.nan))})
            again = _run_cosimo_kernels(triple, weights, blind, *t_args, Gp)
            assert np.all(np.isfinite(again[0]))
            for a, b in zip([again[0], *again[1], *again[2].values()],
                            [got[0], *got[1], *got[2].values()]):
                assert a.tobytes() == b.tobytes()
            assert again[3] == got[3]


@settings(max_examples=40, deadline=None)
@given(
    n_points=st.integers(4, 25),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    family=st.sampled_from(["cosimo", "discrete"]),
    perm_seed=st.integers(0, 2**16),
)
def test_both_families_are_permutation_equivariant(n_points, seed, holes, family, perm_seed):
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    assume(ops[1].n > 0)
    model = Model(ops, [2, 3, 2], family=family, out_level=1, n_branches=2,
                  activation="leaky_relu", seed=seed)
    assert permutation_equivariance_check(model, perm_seed, n_perms=3) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n_points=st.integers(4, 25),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    depth=st.integers(1, 3),
    out_level=st.sampled_from([0, 1, 2]),
    family=st.sampled_from(["cosimo", "discrete"]),
    branches=st.sampled_from([1, 3]),
)
def test_forward_runs_only_the_levels_that_reach_the_output(
    n_points, seed, holes, depth, out_level, family, branches
):
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    assume(ops[out_level].n > 0)
    model = Model(ops, [2] + [3] * depth, family=family, out_level=out_level,
                  n_branches=branches, activation="leaky_relu", seed=seed)
    rng = np.random.default_rng(seed)
    inputs = {k: rng.standard_normal((ops[k].n, 2)) for k in model.levels}
    out, cache = model.forward(inputs)
    feats = model.features_per_depth(inputs)

    # every level at every depth for the energy traces ...
    assert len(feats) == depth + 1
    assert all(list(X) == list(model.levels) for X in feats)
    # ... and the same output bits from the pruned forward
    want = feats[-1][out_level]
    assert out.shape == want.shape and out.tobytes() == want.tobytes()

    def live(l, k):
        return abs(k - out_level) <= depth - 1 - l

    for l, dcache in enumerate(cache["depths"]):
        assert list(dcache["levels"]) == [k for k in model.levels if live(l, k)]
    grads = model.backward(cache, rng.standard_normal(out.shape))
    for name, g in grads.items():
        l, k = name.split(".")[:2]
        if k.startswith("k") and not live(int(l[1:]), int(k[1:])):
            assert not g.any(), name


@settings(max_examples=25, deadline=None)
@given(
    n_points=st.integers(4, 25),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    family=st.sampled_from(["cosimo", "discrete"]),
    depth=st.integers(1, 2),
    branches=st.sampled_from([1, 2]),
    trained=st.booleans(),
    mutation=st.one_of(
        st.tuples(st.just("missing"), st.integers(0, 8)),
        st.tuples(st.just("foreign"), st.text(min_size=1, max_size=12).filter(
            lambda key: key not in nn._CHECKPOINT_KEYS)),
    ),
)
def test_checkpoint_round_trip_keeps_the_forward_bit_for_bit(
    n_points, seed, holes, family, depth, branches, trained, mutation
):
    """A saved checkpoint loads to the same parameters and forward bits; the
    same file without one of its keys, or with one foreign key, is refused
    by the key's name."""
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    assume(ops[1].n > 0)
    model = Model(ops, [2] + [3] * depth, family=family, out_level=1, n_branches=branches,
                  seed=seed)
    rng = np.random.default_rng(seed)
    inputs = {k: rng.standard_normal((ops[k].n, 2)) for k in model.levels}
    if trained:
        target = rng.standard_normal((ops[1].n, 3))
        train(model, inputs, target, TrainConfig(step_size=0.01, epochs=2, momentum=0.9))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path, cplx.checksum())
        loaded = load_model(path, cplx)
        payload = json.loads(path.read_text())
        kind, key = mutation
        if kind == "missing":
            key = list(payload)[key]
            del payload[key]
        else:
            payload[key] = None
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"has {kind} key {re.escape(repr(key))}$"):
            load_model(path, cplx)
    for n, p in model.params.items():
        assert loaded.params[n].tobytes() == p.tobytes(), n
    a, _ = model.forward(inputs, want_cache=False)
    b, _ = loaded.forward(inputs, want_cache=False)
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Member axis: models stacked by `Model.stack`
# ---------------------------------------------------------------------------


def _perturbed_members(cplx, seed, snrs, widths, scales=None, **kwargs):
    """One model per SNR, each on its own perturbed incidences of ``cplx``
    (equal simplex counts, different operators), scaled by ``scales[e]``,
    built one at a time."""
    for e, snr in enumerate(snrs):
        pert = perturb_incidence(cplx, snr, snr, [seed, e])
        s = 1.0 if scales is None else scales[e]
        ops = hodge_operators_from_incidence(s * pert.incidence(1), s * pert.incidence(2))
        yield Model(ops, widths, seed=[seed, e], **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    n_points=st.integers(4, 20),
    seed=st.integers(0, 2**16),
    holes=st.booleans(),
    times=st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=4),
    widths=st.sampled_from([[1, 1], [2, 2], [1, 3], [2, 7], [1, 3, 2]]),
    out_level=st.sampled_from([0, 1, 2]),
    branches=st.sampled_from([1, 2]),
    shared_inputs=st.booleans(),
    spread=st.booleans(),
    one_complex=st.booleans(),
)
def test_stacked_model_equals_each_member(
    n_points, seed, holes, times, widths, out_level, branches, shared_inputs, spread, one_complex
):
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _HOLES if holes else ())
    assume(cplx.num_simplices(out_level) > 0)
    E = len(times)
    event("first layer only: input route" if len(widths) == 2
          else "first layer input route, deeper layer output route")
    # with spread, every other member's eigenvalues are 1e10 times larger, so
    # each member must judge its kernel modes on its own scale
    scales = [1e5 if spread and e % 2 else 1.0 for e in range(E)]
    kwargs = dict(out_level=out_level, n_branches=branches, activation="leaky_relu")
    if one_complex:
        # members on one operator set, which the stack holds once
        event("one operator set")
        ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
        members = [Model(ops, widths, seed=[seed, e], **kwargs) for e in range(E)]
    else:
        members = list(_perturbed_members(
            cplx, seed, [math.inf, 0.0, 10.0, 30.0][:E], widths, scales, **kwargs
        ))
    for member, (t_d, t_u) in zip(members, times):
        member.set_receptive_fields(t_d, t_u)
    stacked = Model.stack(iter(members), E)
    rng = np.random.default_rng(seed)
    x = {k: rng.standard_normal((E, cplx.num_simplices(k), widths[0])) for k in stacked.levels}
    own_inputs = [{k: x[k][0 if shared_inputs else e] for k in x} for e in range(E)]
    out, cache = stacked.forward({k: x[k][0] for k in x} if shared_inputs else x)
    G = rng.standard_normal(out.shape)
    grads = stacked.backward(cache, G)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))

    assert out.shape[0] == E
    for e, member in enumerate(members):
        want, own_cache = member.forward(own_inputs[e])
        close(out[e], want)
        own_grads = member.backward(own_cache, G[e])
        assert set(own_grads) == set(grads)
        for name, g in own_grads.items():
            close(grads[name][e], g)


def _per_branch_gradients(model, cache, G):
    """Reference for `Model.backward`: the same pass with every slot
    gradient formed per branch in the kernel, as on a wide layer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "_narrow", lambda *widths: False)
        return model.backward(cache, G).flat


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    widths=st.sampled_from([[1, 16, 16, 1], [2, 8, 2], [3, 3, 3], [1, 5, 2], [2, 3, 4]]),
    branches=st.integers(1, 3),
    activation=st.sampled_from(["relu", "leaky_relu", "identity"]),
    out_level=st.sampled_from([0, 1, 2]),
    triangles=st.booleans(),
    members=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**16),
)
def test_narrow_layers_form_their_input_gradients_over_all_branches(
    small_complex, widths, branches, activation, out_level, triangles, members, seed
):
    # a deeper continuous layer whose branches' filtered gradients, stacked
    # along the feature axis, are narrower than its input forms each input
    # gradient in one product over all branches; every gradient equals the
    # per-branch one
    cplx = small_complex if triangles else build_complex(
        edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assume(cplx.num_simplices(out_level) > 0)
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    # the last layer is narrow when its branches' stacked output is narrower
    # than its input; no deeper 16-to-16 or 3-to-3 layer is
    narrow = branches * widths[-1] < widths[-2]
    event("last layer narrow" if narrow else "last layer wide")
    kwargs = dict(out_level=out_level, n_branches=branches, activation=activation,
                  leaky_slope=0.1)
    model = Model(ops, widths, seed=seed, **kwargs)
    lead = (3,)
    if members is not None:
        model = Model.stack([Model(ops, widths, seed=[seed, e], **kwargs) for e in range(members)])
        model.set_receptive_fields(np.array([0.5, 1.5]), 0.7)
        lead = (members,)
    rng = np.random.default_rng(seed)
    inputs = {k: rng.standard_normal(lead + (ops[k].n, widths[0])) for k in model.levels}
    out, cache = model.forward(inputs)
    G = rng.standard_normal(out.shape)
    calls, over_branches = [], nn._cosimo_narrow_backward
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "_cosimo_narrow_backward", lambda *a: calls.append(a) or over_branches(*a))
        got = model.backward(cache, G).flat
    assert bool(calls) == narrow
    want = _per_branch_gradients(model, cache, G)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))
    assert np.any(got)


@pytest.mark.parametrize("widths", [[1, 1], [1, 3, 1]])
def test_training_a_stack_equals_training_each_member(widths):
    cplx = delaunay_complex(random_points(20, rng_seed=5), _HOLES)
    rng = np.random.default_rng(5)
    x = {k: rng.standard_normal((1, cplx.num_simplices(k), 1)) for k in (0, 1, 2)}
    target = rng.standard_normal((1, cplx.num_simplices(1), widths[-1]))
    snrs = (0.0, 10.0, math.inf)
    kwargs = dict(out_level=1, activation="identity")
    config = TrainConfig(step_size=0.05, epochs=30, momentum=0.9)
    stacked = Model.stack(_perturbed_members(cplx, 5, snrs, widths, **kwargs), len(snrs))
    trace = train(stacked, x, target, config, readout=stacked_mse_loss)
    assert [np.shape(loss) for loss in trace.losses] == [(3,)] * 30
    for e, member in enumerate(_perturbed_members(cplx, 5, snrs, widths, **kwargs)):
        own = train(member, x, target, config)
        np.testing.assert_allclose([loss[e] for loss in trace.losses], own.losses, rtol=1e-10)
        for name, p in member.params.items():
            np.testing.assert_allclose(stacked.params[name][e], p, rtol=1e-10, atol=1e-14)


class TestStackedModel:
    @pytest.fixture
    def stacked(self, small_complex):
        return Model.stack(_perturbed_members(small_complex, 7, (0.0, 10.0, 20.0), [1, 1],
                                              out_level=1), 3)

    @pytest.fixture
    def data(self, small_complex):
        rng = np.random.default_rng(7)
        x = {k: rng.standard_normal((small_complex.num_simplices(k), 1)) for k in (0, 1, 2)}
        return x, rng.standard_normal((small_complex.num_simplices(1), 1))

    def test_holds_every_level_and_shared_arrays_once(self, small_complex):
        # as a stability cell: each member perturbs the output level and
        # shares the clean operators of the other levels
        clean = {k: hodge_operators(small_complex, k) for k in (0, 1, 2)}
        members = []
        for e, snr in enumerate((0.0, 10.0, 20.0)):
            pert = perturb_incidence(small_complex, snr, snr, [7, e])
            members.append(Model({**clean, 1: pert.hodge_operators(1)}, [1, 1], seed=e))
        stacked = Model.stack(members)
        assert stacked.members == 3
        assert all(p.shape[0] == 3 for p in stacked.params.values())

        def arrays(o):
            return [o.B_down, o.B_up] + [a for spec in (o.spectrum_down, o.spectrum_up)
                                         for a in (spec.eigenvalues, spec.eigenvectors)]

        for k, ops in stacked.operators.items():
            for got, want in zip(arrays(ops), zip(*(arrays(m.operators[k]) for m in members))):
                if k != 1:
                    # an empty incidence (B_0, B_3) shares no memory
                    assert got.shape == (1,) + want[0].shape
                    assert np.shares_memory(got, want[0]) or not got.size
                else:
                    assert got.shape[0] == 3
                    for row, w in zip(got, want):
                        # a narrower record is padded with leading zeros
                        pad = row.shape[-1] - w.shape[-1]
                        np.testing.assert_array_equal(row[..., pad:], w)
                        assert not row[..., :pad].any()
            for side in ("L_down", "L_up"):
                got, want = getattr(ops, side), [getattr(m.operators[k], side) for m in members]
                np.testing.assert_array_equal(np.broadcast_to(got, (3,) + want[0].shape),
                                              np.stack(want))

    def test_diverging_parameter_names_its_member(self, stacked, data):
        def nan_in_member_1(out, target):
            losses, grad = stacked_mse_loss(out, target)
            grad[1] = np.nan
            return losses, grad

        with pytest.raises(TrainingDivergedError,
                           match=r"^parameter L0\.k1\.m0\.psi_d of member 1 became non-finite "
                                 r"at epoch 0;"):
            train(stacked, *data, TrainConfig(epochs=3), readout=nan_in_member_1)

    def test_diverging_loss_names_its_member(self, stacked, data):
        def late_nan_in_member_2(out, target):
            losses, grad = stacked_mse_loss(out, target)
            late_nan_in_member_2.calls += 1
            if late_nan_in_member_2.calls == 3:
                losses[2] = np.inf
            return losses, grad

        late_nan_in_member_2.calls = 0
        with pytest.raises(TrainingDivergedError,
                           match=r"^loss of member 2 became inf at epoch 2; recent losses: \[[^\[]*\]$"):
            train(stacked, *data, TrainConfig(epochs=5), readout=late_nan_in_member_2)

    def test_refuses_what_would_couple_or_misread_members(self, stacked, data, tmp_path):
        with pytest.raises(ValueError, match="clip_norm"):
            train(stacked, *data, TrainConfig(epochs=1, clip_norm=1.0),
                  readout=stacked_mse_loss)
        with pytest.raises(ValueError, match="3 losses"):
            train(stacked, *data, TrainConfig(epochs=1))
        with pytest.raises(ValueError):
            save_model(stacked, tmp_path / "m.json", "abc")
        with pytest.raises(ValueError):
            stacked.with_operators(stacked.operators)
        with pytest.raises(ValueError, match="member axis"):
            stacked.forward({k: np.stack([v] * 2) for k, v in data[0].items()})

    def test_members_on_one_operator_set_hold_its_eigenbases_once(self, operators):
        members = [Model(operators, [1, 2, 1], seed=e) for e in range(4)]
        stacked = Model.stack(members)
        for k, ops in stacked.operators.items():
            for B, own in ((ops.B_down, operators[k].B_down), (ops.B_up, operators[k].B_up)):
                # an empty incidence (B_0, B_3) shares no memory
                assert B.shape == (1,) + own.shape and (np.shares_memory(B, own) or not B.size)
            for spec, own in ((ops.spectrum_down, operators[k].spectrum_down),
                              (ops.spectrum_up, operators[k].spectrum_up)):
                # a zero operator's empty record shares no memory
                assert spec.eigenvectors.shape == (1,) + own.eigenvectors.shape
                assert np.shares_memory(spec.eigenvectors, own.eigenvectors) or not spec.eigenvectors.size
                assert np.shares_memory(spec.eigenvalues, own.eigenvalues) or not spec.eigenvalues.size
        assert all(p.shape[0] == 4 for p in stacked.params.values())

    def test_spectral_norm_bound_is_per_member(self, operators):
        members = [Model(operators, [2, 3, 2], init_std=std, seed=e)
                   for e, std in enumerate((0.1, 10.0, 1.0))]
        own = [member.spectral_norm_bound() for member in members]
        got = Model.stack(members).spectral_norm_bound()
        assert got.shape == (3,)
        assert got.tolist() == own
        assert own[0] < own[2] < own[1]

    def test_receptive_fields_are_per_member(self, small_complex):
        members = [Model.from_complex(small_complex, [1, 1], seed=e) for e in range(3)]
        for member, t in zip(members, (0.0, 0.5, math.inf)):
            member.set_receptive_fields(t, 2 * t)
        own = [member.receptive_fields() for member in members]
        got = Model.stack(members).receptive_fields()
        assert list(got) == list(own[0])
        for name, times in got.items():
            assert times.shape == (3,)
            assert times.tolist() == [fields[name] for fields in own]

    def test_refuses_discrete_stacked_and_mismatched_members(self, small_complex, operators):
        with pytest.raises(ValueError, match="discrete"):
            Model.stack([Model(operators, [1, 1], family="discrete")])
        one = Model.stack([Model(operators, [1, 1])])
        with pytest.raises(ValueError, match="stacked"):
            Model.stack([one])
        with pytest.raises(ValueError, match="model 1 differs"):
            Model.stack([Model(operators, [1, 1]), Model(operators, [1, 2])])
        with pytest.raises(ValueError, match="model 1 differs"):
            other = delaunay_complex(random_points(13, rng_seed=42))
            Model.stack([Model(operators, [1, 1]), Model.from_complex(other, [1, 1])])
        with pytest.raises(ValueError, match="expected 3 models"):
            Model.stack(iter([Model(operators, [1, 1])] * 2), 3)
        with pytest.raises(ValueError, match="more than 1"):
            Model.stack(iter([Model(operators, [1, 1])] * 2), 1)

    @pytest.mark.parametrize("models, count", [([], None), (iter([]), 0), ([], -2)],
                             ids=["empty-list", "empty-iterator", "negative-count"])
    def test_refuses_to_stack_fewer_than_one_model(self, models, count):
        # a stack of no member has no configuration to take
        with pytest.raises(ValueError, match=f"^count must be at least 1 to stack models, "
                                             f"got {0 if count is None else count}$"):
            Model.stack(models, count)


def _spectral_norm_bound_oracle(model):
    """The bound as one SVD of every weight matrix, zero matrices included."""
    lead = () if model.members is None else (model.members,)
    by_shape = {}
    for name, p in model.params.items():
        if name.endswith(("theta_d", "psi_d", "psi_u", "theta_u")):
            by_shape.setdefault(p.shape[-2:], []).append(p.reshape(lead + (-1,) + p.shape[-2:]))
    bound = np.max(
        [np.linalg.svd(np.concatenate(mats, axis=-3), compute_uv=False)[..., 0].max(axis=-1)
         for mats in by_shape.values()] or [np.zeros(lead)],
        axis=0,
    )
    return float(bound) if model.members is None else bound


_SCALES = (1e-300, 1e-160, 1.0, 1e160, 1e300)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["cosimo", "discrete"]),
    widths=st.sampled_from([[1, 1], [2, 2], [2, 3, 2], [3, 1, 3, 3]]),
    branches=st.integers(1, 2),
    members=st.sampled_from([None, 1, 3]),
    zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    scales=st.lists(st.sampled_from(_SCALES), min_size=3, max_size=3),
    rank_one=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_spectral_norm_bound_equals_one_svd_of_every_matrix(
    operators, family, widths, branches, members, zero_share, scales, rank_one, seed
):
    # zero some matrices of each member on its own, so that a slot can be
    # zero in one member and not in another; scale each member on its own,
    # to the edges of the float range; rank-1 matrices have sigma_1 equal to
    # their Frobenius norm, the upper end of the bound's bracket
    assume(family == "cosimo" or members is None)
    rng = np.random.default_rng(seed)
    models = [Model(operators, widths, family=family, n_branches=branches, seed=[seed, e])
              for e in range(members or 1)]
    for model, scale in zip(models, scales):
        for name, p in model.params.items():
            if not name.endswith(("tau_d", "tau_u")):
                mats = p.reshape((-1,) + p.shape[-2:])
                if rank_one:
                    mats[...] = (rng.standard_normal(mats.shape[:-1])[..., None]
                                 * rng.standard_normal(mats.shape[:-2] + (1, mats.shape[-1])))
                mats[rng.random(len(mats)) < zero_share] = 0.0
                mats *= scale
    model = models[0] if members is None else Model.stack(models)
    got, want = model.spectral_norm_bound(), _spectral_norm_bound_oracle(model)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _svd_inputs(monkeypatch) -> list[np.ndarray]:
    """Every batch of matrices that `np.linalg.svd` is called with from now
    on, as a list the calls append to."""
    svd, calls = np.linalg.svd, []

    def recording_svd(a, **kwargs):
        calls.append(np.array(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


def test_spectral_norm_bound_skips_the_zero_discrete_order_0(operators, monkeypatch):
    model = Model(operators, [3, 3, 3], family="discrete", n_branches=2, seed=1)
    calls = _svd_inputs(monkeypatch)
    model.spectral_norm_bound()
    mats = np.concatenate(calls)
    # no zero matrix reaches the SVD, and of the 96 matrices at most the
    # 2 depths x 3 levels x 2 branches x 4 paths of order 1 do
    assert np.all(np.any(mats, axis=(-2, -1)))
    assert 0 < len(mats) <= 48


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spectral_norm_bound_of_the_default_oversmooth_models(seed, monkeypatch):
    """The 100-layer, width-4 models of an `oversmooth` realization: the bound
    is the full SVD's to the bit, for the discrete model, the continuous one
    and the continuous stack, and each model sends at most 10 % of its 1200
    nonzero matrices through the SVD."""
    cfg = OversmoothConfig(seed=seed)
    ops = scaled_operators(_realization_complex(cfg.complex, seed, 0), cfg.lambda_target)
    common = dict(out_level=cfg.level, activation="relu",
                  init_std=cfg.init_scale / math.sqrt(cfg.features))
    widths = [cfg.features] * (cfg.layers + 1)
    disc = Model(ops, widths, family="discrete", seed=[seed, 0, 2], **common)
    cos = Model(ops, widths, family="cosimo", seed=[seed, 0, 3], **common)
    calls = _svd_inputs(monkeypatch)
    for model in (disc, cos, Model.stack([cos] * len(cfg.t_grid))):
        nonzero = sum(np.count_nonzero(np.any(p.reshape((-1,) + p.shape[-2:]), axis=(-2, -1)))
                      for name, p in model.params.items() if not name.endswith(("tau_d", "tau_u")))
        calls.clear()
        got = model.spectral_norm_bound()
        svd_rows = sum(len(a) for a in calls)
        want = _spectral_norm_bound_oracle(model)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert nonzero == 1200 * (model.members or 1)
        assert 0 < svd_rows <= 0.1 * nonzero
