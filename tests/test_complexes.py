"""Complex construction, incidence matrices, Hodge operators, perturbations."""

import dataclasses
import functools
import itertools
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.spatial import Delaunay

from cosimo import complexes
from cosimo.analysis import dirichlet_energy
from cosimo.complexes import (
    ComplexError,
    PerturbedComplex,
    SimplicialComplex,
    boundary_matrix,
    build_complex,
    complex_from_dict,
    complex_to_dict,
    hodge_operators,
    hodge_operators_from_incidence,
    load_complex,
    perturb_incidence,
    random_points,
    save_complex,
)
from cosimo.delaunay import TriangulationError, delaunay_complex
from cosimo.experiments import DEFAULT_HOLES
from cosimo.nn import Model, project
from cosimo.spectral import eig_sym, exp_filter, kernel_modes, signal_norm


def charpoly_roots_3x3(L):
    """Brute-force eigenvalues of a 3x3 matrix via its characteristic
    polynomial, independent of any eigensolver."""
    tr = L[0, 0] + L[1, 1] + L[2, 2]
    minors = (
        L[1, 1] * L[2, 2] - L[1, 2] * L[2, 1]
        + L[0, 0] * L[2, 2] - L[0, 2] * L[2, 0]
        + L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0]
    )
    det = np.linalg.det(L)
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)


class TestBuildComplex:
    def test_closure_from_single_triangle(self):
        c = build_complex(triangles=[(0, 1, 2)])
        assert c.vertices == (0, 1, 2)
        assert c.edges == ((0, 1), (0, 2), (1, 2))
        assert c.triangles == ((0, 1, 2),)

    def test_canonical_orientation(self):
        c = build_complex(edges=[(1, 0)])
        assert c.edges == ((0, 1),)

    def test_two_triangle_strip_counts(self):
        # Hand enumeration: vertices {0,1,2,3}, edges (01)(02)(12)(13)(23).
        c = build_complex(triangles=[(0, 1, 2), (1, 2, 3)])
        assert len(c.vertices) == 4
        assert c.edges == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
        assert len(c.triangles) == 2

    def test_duplicate_simplex_rejected_with_report(self):
        with pytest.raises(ComplexError, match=r"duplicate.*\(0, 1\)"):
            build_complex(edges=[(0, 1), (1, 0)])
        with pytest.raises(ComplexError, match="duplicate"):
            build_complex(triangles=[(0, 1, 2), (2, 1, 0)])

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ComplexError, match="degenerate"):
            build_complex(edges=[(3, 3)])
        with pytest.raises(ComplexError):
            build_complex(triangles=[(0, 1, 1)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ComplexError, match="nonnegative"):
            build_complex(edges=[(-1, 0)])

    def test_closure_is_exhaustive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tris = [tuple(rng.choice(12, size=3, replace=False)) for _ in range(6)]
            try:
                c = build_complex(triangles=tris)
            except ComplexError:
                continue
            edge_set = set(c.edges)
            vert_set = set(c.vertices)
            for a, b, t in c.triangles:
                for face in ((a, b), (a, t), (b, t)):
                    assert face in edge_set
            for a, b in c.edges:
                assert a in vert_set and b in vert_set


class TestBoundaryMatrices:
    def test_filled_triangle_b1_columns(self):
        c = build_complex(triangles=[(0, 1, 2)])
        B1 = boundary_matrix(c, 1)
        expected = np.array([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
        np.testing.assert_array_equal(B1, expected)

    def test_chain_complex_identity_exact(self):
        c = build_complex(triangles=[(0, 1, 2)])
        B1 = boundary_matrix(c, 1)
        B2 = boundary_matrix(c, 2)
        assert (B1 @ B2 == 0).all()
        assert B1.dtype == np.int64 and B2.dtype == np.int64

    def test_two_triangle_strip_b2_signs(self):
        # Parity rule by hand for triangles (0,1,2) and (1,2,3) against the
        # edge order (01)(02)(12)(13)(23):
        #   (0,1,2): +1 on (1,2), -1 on (0,2), +1 on (0,1)
        #   (1,2,3): +1 on (2,3), -1 on (1,3), +1 on (1,2)
        c = build_complex(triangles=[(0, 1, 2), (1, 2, 3)])
        B2 = boundary_matrix(c, 2)
        expected = np.array(
            [[1, 0], [-1, 0], [1, 1], [0, -1], [0, 1]]
        )
        assert B2.shape == (5, 2)
        np.testing.assert_array_equal(B2, expected)
        assert (boundary_matrix(c, 1) @ B2 == 0).all()

    def test_unsupported_level(self):
        c = build_complex(edges=[(0, 1)])
        with pytest.raises(ComplexError, match="unsupported"):
            boundary_matrix(c, 3)

    def test_missing_face_rejected(self):
        c = SimplicialComplex(vertices=(0, 1, 2), edges=((0, 1), (1, 2)), triangles=((0, 1, 2),))
        with pytest.raises(ComplexError, match="not closed"):
            boundary_matrix(c, 2)


def boundary_matrix_loop(complex, k):
    """Entry-by-entry oracle for `boundary_matrix`: one Python loop over the
    k-simplices, faces looked up in dictionaries."""
    if k == 1:
        B = np.zeros((len(complex.vertices), len(complex.edges)), dtype=np.int64)
        vidx = {v: i for i, v in enumerate(complex.vertices)}
        for j, (a, b) in enumerate(complex.edges):
            B[vidx[a], j] = -1
            B[vidx[b], j] = 1
        return B
    B = np.zeros((len(complex.edges), len(complex.triangles)), dtype=np.int64)
    eidx = complex.edge_index
    for j, tri in enumerate(complex.triangles):
        for p in range(3):
            face = tuple(v for i, v in enumerate(tri) if i != p)
            B[eidx[face], j] = (-1) ** p
    return B


_SPARSE_ID_COMPLEXES = [
    build_complex(triangles=[(2, 7, 40)]),
    build_complex(triangles=[(2, 7, 40)], vertices=[5]),
    build_complex(edges=[(40, 7), (7, 100), (2, 100)], triangles=[(2, 7, 40)], vertices=[1, 5]),
    build_complex(vertices=[3]),
    build_complex(),
]


@pytest.mark.parametrize(
    "c",
    _SPARSE_ID_COMPLEXES
    + [delaunay_complex(random_points(n, rng_seed=s)) for n, s in ((3, 0), (12, 1), (40, 2))]
    + [delaunay_complex(random_points(60, rng_seed=3), [((0.5, 0.5), 0.25)])],
)
def test_boundary_matrix_matches_loop_oracle(c):
    B = {k: boundary_matrix(c, k) for k in (1, 2)}
    for k in (1, 2):
        want = boundary_matrix_loop(c, k)
        assert B[k].dtype == np.int64
        assert (B[k].shape, B[k].tobytes()) == (want.shape, want.tobytes())
    assert not np.any(B[1] @ B[2])


class TestHodgeOperators:
    def test_hollow_triangle_l0_spectrum(self):
        c = build_complex(edges=[(0, 1), (0, 2), (1, 2)])
        ops = hodge_operators(c, 0)
        roots = charpoly_roots_3x3(ops.L)
        np.testing.assert_allclose(roots, [0.0, 3.0, 3.0], atol=1e-9)
        assert ops.B_down.shape == (0, 3) and not ops.L_down.any()

    def test_filled_triangle_l1_up_by_hand(self):
        c = build_complex(triangles=[(0, 1, 2)])
        ops = hodge_operators(c, 1)
        # B2 = (+1, -1, +1)^T so B2 B2^T has unit diagonal and trace 3.
        np.testing.assert_array_equal(np.diag(ops.L_up), [1.0, 1.0, 1.0])
        assert np.trace(ops.L_up) == 3.0

    def test_no_cofaces_means_zero_upper(self):
        c = build_complex(edges=[(0, 1), (1, 2)])
        ops = hodge_operators(c, 1)
        assert not ops.L_up.any()
        ops2 = hodge_operators(c, 2)
        assert ops2.n == 0

    def test_absent_b2_is_no_triangles(self):
        c = build_complex(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        B1 = boundary_matrix(c, 1)
        for k, got in hodge_operators_from_incidence(B1, np.zeros((B1.shape[1], 0))).items():
            want = hodge_operators(c, k)
            assert (got.n, got.B_down.shape, got.B_up.shape) == (
                want.n, want.B_down.shape, want.B_up.shape)
            np.testing.assert_array_equal(got.L, want.L)

    def test_symmetry_psd_and_annihilation(self):
        pts = random_points(25, rng_seed=3)
        c = delaunay_complex(pts)
        for k in (0, 1, 2):
            ops = hodge_operators(c, k)
            assert np.max(np.abs(ops.L - ops.L.T)) == 0.0
            if ops.n:
                assert np.linalg.eigvalsh(ops.L)[0] >= -1e-10
            if ops.L_up.any():
                prod = ops.L_down @ ops.L_up
                bound = 1e-10 * np.linalg.norm(ops.L_down, 2) * np.linalg.norm(ops.L_up, 2)
                assert np.max(np.abs(prod)) <= bound


def assert_bytes_equal(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(n_points=st.integers(3, 60), seed=st.integers(0, 2**16), triangles=st.booleans())
def test_float_assembly_equals_exact_integer_products(n_points, seed, triangles):
    c = delaunay_complex(random_points(n_points, rng_seed=seed))
    if not triangles:
        c = build_complex(edges=c.edges, vertices=c.vertices)
    # B_0 and B_3 are the zero maps at the ends of the chain
    B = {0: np.zeros((0, c.num_simplices(0)), dtype=np.int64),
         1: boundary_matrix(c, 1), 2: boundary_matrix(c, 2),
         3: np.zeros((c.num_simplices(2), 0), dtype=np.int64)}
    assert B[1].dtype == B[2].dtype == np.int64
    assert not np.any(B[1] @ B[2])
    for k in (0, 1, 2):
        ops = hodge_operators(c, k)
        down, up = B[k], B[k + 1]
        want_up = (up @ up.T).astype(np.float64)
        assert_bytes_equal(ops.L_up, want_up)
        want_down = (down.T @ down).astype(np.float64)
        assert_bytes_equal(ops.L_down, want_down)
        assert_bytes_equal(ops.L, want_down + want_up)
        assert not np.any(ops.L_down @ ops.L_up)


class TestRandomPoints:
    def test_deterministic_per_seed(self):
        a = random_points(30, rng_seed=11)
        b = random_points(30, rng_seed=11)
        np.testing.assert_array_equal(a, b)

    def test_unit_square_range(self):
        p = random_points(100, rng_seed=0)
        assert p.shape == (100, 2)
        assert np.all(p >= 0.0) and np.all(p < 1.0)

    def test_minimum_count(self):
        assert random_points(3, rng_seed=1).shape == (3, 2)
        with pytest.raises(ComplexError, match="at least 3"):
            random_points(2, rng_seed=1)


class TestDelaunay:
    def test_cocircular_square_tie_break(self):
        # Both diagonals are valid Delaunay choices; the canonical flip picks
        # the lexicographically smallest one, (0, 2).
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        c = delaunay_complex(pts)
        assert len(c.triangles) == 2
        assert len(c.edges) == 5
        assert (0, 2) in c.edges
        assert (1, 3) not in c.edges
        assert c.triangles == ((0, 1, 2), (0, 2, 3))

    def test_euler_characteristic_of_disk(self):
        pts = random_points(30, rng_seed=5)
        c = delaunay_complex(pts)
        assert c.euler_characteristic() == 1

    def test_hole_removes_triangles_keeps_edges(self):
        pts = random_points(30, rng_seed=5)
        full = delaunay_complex(pts)
        bary = np.mean(pts[list(full.triangles[0])], axis=0)
        holed = delaunay_complex(pts, hole_disks=[((bary[0], bary[1]), 0.05)])
        assert len(holed.triangles) < len(full.triangles)
        assert holed.edges == full.edges
        assert holed.vertices == full.vertices

    def test_empty_circumcircle_property_brute_force(self):
        for seed in range(5):
            n = 10 + 8 * seed
            pts = random_points(n, rng_seed=seed)
            c = delaunay_complex(pts)
            from cosimo.delaunay import _incircle

            for tri in c.triangles:
                a, b, t = tri
                # Orient counterclockwise before the in-circle test.
                ax, ay = pts[a]
                bx, by = pts[b]
                tx, ty = pts[t]
                ccw = (bx - ax) * (ty - ay) - (by - ay) * (tx - ax) > 0
                order = (a, b, t) if ccw else (a, t, b)
                for d in range(n):
                    if d in tri:
                        continue
                    assert _incircle(pts, *order, d) <= 1e-9

    def test_collinear_inputs_rejected(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        with pytest.raises(TriangulationError, match="collinear"):
            delaunay_complex(pts)

    def test_deterministic_across_insertion_orders(self):
        pts = random_points(40, rng_seed=9)
        base = delaunay_complex(pts)
        for seed in (1, 2, 3):
            shuffled = delaunay_complex(pts, rng_seed=seed)
            assert shuffled.triangles == base.triangles
            assert shuffled.edges == base.edges

    def test_grid_is_one_complex_over_insertion_orders(self):
        # Every unit square of the grid is co-circular; each must end up split
        # by the diagonal from its smallest vertex, whatever the order, which
        # takes hundreds of flips.
        g = 20
        xs, ys = np.meshgrid(np.arange(g), np.arange(g))
        pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
        complexes = [delaunay_complex(pts, rng_seed=s) for s in (None, 1, 2, 3)]
        assert len({c.checksum() for c in complexes}) == 1
        fans = {
            t
            for v in range(g * g)
            if v % g < g - 1 and v // g < g - 1
            for t in ((v, v + 1, v + g + 1), (v, v + g, v + g + 1))
        }
        assert set(complexes[0].triangles) == fans


@settings(max_examples=25, deadline=None)
@given(n_points=st.integers(3, 80), seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**16))
def test_delaunay_invariant_under_insertion_order_and_relabeling(n_points, seed, order_seed):
    pts = random_points(n_points, rng_seed=seed)
    c = delaunay_complex(pts)
    assert delaunay_complex(pts, rng_seed=order_seed).checksum() == c.checksum()
    # Point i of the relabeled set is point perm[i] of the original one.
    perm = np.random.default_rng(order_seed).permutation(n_points)
    relabeled = delaunay_complex(pts[perm])
    back = build_complex(
        edges=[perm[list(e)] for e in relabeled.edges],
        triangles=[perm[list(t)] for t in relabeled.triangles],
        vertices=range(n_points),
    )
    assert (back.edges, back.triangles) == (c.edges, c.triangles)


@functools.cache
def _ours_and_scipy(n, seed):
    pts = random_points(n, rng_seed=seed)
    theirs = {tuple(sorted(map(int, s))) for s in Delaunay(pts).simplices}
    return set(delaunay_complex(pts).triangles), theirs


_SCIPY_SETS = [(n, seed) for n in (10, 30, 100, 300) for seed in range(10)]


def test_triangles_are_a_subset_of_scipy_delaunay():
    for n, seed in _SCIPY_SETS:
        ours, theirs = _ours_and_scipy(n, seed)
        assert ours <= theirs, (n, seed)


@pytest.mark.xfail(
    strict=True,
    reason="the finite super-triangle drops sliver hull triangles, e.g. (23, 70, 72) "
    "at n = 100, seed 4 (CHANGES.md, FOUND: delaunay._bowyer_watson super-triangle)",
)
def test_triangles_equal_scipy_delaunay():
    for n, seed in _SCIPY_SETS:
        ours, theirs = _ours_and_scipy(n, seed)
        assert ours == theirs, (n, seed, sorted(theirs - ours))


class TestPerturbations:
    def test_infinite_snr_is_identity(self):
        c = delaunay_complex(random_points(20, rng_seed=2))
        p = perturb_incidence(c, math.inf, math.inf, rng_seed=0)
        assert not p.E_1.any() and not p.E_2.any()
        assert p.epsilon(1) == 0.0 and p.epsilon(2) == 0.0
        np.testing.assert_array_equal(p.incidence(1), boundary_matrix(c, 1).astype(float))

    def test_zero_db_matches_frobenius_norm(self):
        c = delaunay_complex(random_points(20, rng_seed=2))
        p = perturb_incidence(c, 0.0, 0.0, rng_seed=4)
        B1 = boundary_matrix(c, 1).astype(float)
        assert abs(np.linalg.norm(p.E_1) - np.linalg.norm(B1)) <= 1e-12 * np.linalg.norm(B1)

    @pytest.mark.parametrize("snr1, snr2", [(-math.inf, 10.0), (10.0, -math.inf),
                                            (math.nan, math.inf)])
    def test_an_snr_of_minus_infinity_or_nan_is_refused(self, snr1, snr2):
        # -inf dB is all noise and NaN no level: neither is the exact complex
        c = delaunay_complex(random_points(10, rng_seed=2))
        with pytest.raises(ValueError, match="an SNR must be a number of dB or inf"):
            perturb_incidence(c, snr1, snr2, rng_seed=0)

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 10.0, 20.0])
    def test_measured_snr_within_tolerance(self, snr):
        c = delaunay_complex(random_points(25, rng_seed=6))
        p = perturb_incidence(c, snr, snr, rng_seed=8)
        for B, E in ((boundary_matrix(c, 1), p.E_1), (boundary_matrix(c, 2), p.E_2)):
            measured = 10.0 * math.log10(
                np.linalg.norm(B.astype(float)) ** 2 / np.linalg.norm(E) ** 2
            )
            assert abs(measured - snr) <= 1e-9

    def test_epsilon_is_spectral_norm_and_laplacians_rebuilt(self):
        c = delaunay_complex(random_points(20, rng_seed=3))
        p = perturb_incidence(c, 10.0, 10.0, rng_seed=5)
        assert p.epsilon(1) == pytest.approx(np.linalg.norm(p.E_1, 2))
        ops = p.hodge_operators(1)
        B1, B2 = p.incidence(1), p.incidence(2)
        np.testing.assert_allclose(ops.L_down, (B1.T @ B1), atol=1e-12)
        np.testing.assert_allclose(ops.L_up, (B2 @ B2.T), atol=1e-12)

    def test_holds_only_base_and_errors(self):
        assert [f.name for f in dataclasses.fields(PerturbedComplex)] == ["base", "E_1", "E_2"]
        c = build_complex(triangles=[(0, 1, 2)])
        E = (np.zeros((3, 3)), np.zeros((3, 1)))
        for derived in ("B_1", "epsilon_1", "snr1_db"):
            with pytest.raises(TypeError):
                PerturbedComplex(c, *E, **{derived: 0.0})

    def test_direct_construction_holds_read_only_copies(self):
        # a writeable error given is copied once, so writing into it after
        # the first reads leaves the derived values describing the held one;
        # read-only float64 errors are held as they are
        c = delaunay_complex(random_points(20, rng_seed=3))
        for snr in (math.inf, 10.0):
            p = perturb_incidence(c, snr, snr, rng_seed=5)
            again = PerturbedComplex(c, p.E_1, p.E_2)
            assert again.E_1 is p.E_1 and again.E_2 is p.E_2
            given = (np.array(p.E_1), np.array(p.E_2, dtype=np.float32))
            direct = PerturbedComplex(c, *given)
            for held, a in zip((direct.E_1, direct.E_2), given):
                assert held.dtype == np.float64 and not held.flags.writeable
                assert not np.shares_memory(held, a)
                np.testing.assert_array_equal(held, a)
            B1, eps1 = direct.incidence(1), direct.epsilon(1)
            before = direct.hodge_operators(1).spectrum_down.eigenvalues.copy()
            for a in given:
                a[...] = 1.0
            assert direct.incidence(1) is B1 and direct.epsilon(1) == eps1
            assert_bytes_equal(B1, c.incidence(1) + direct.E_1)
            assert direct.hodge_operators(1).spectrum_down.eigenvalues.tobytes() == before.tobytes()


    @pytest.mark.parametrize("snr", [math.inf, 10.0])
    def test_perturb_incidence_hands_over_read_only_arrays_uncopied(self, monkeypatch, snr):
        c = delaunay_complex(random_points(20, rng_seed=3))
        received = []

        def recording(*args):
            received.extend(args)
            return PerturbedComplex(*args)

        monkeypatch.setattr(complexes, "PerturbedComplex", recording)
        p = perturb_incidence(c, snr, snr, rng_seed=5)
        base, E_1, E_2 = received
        assert base is c
        for name, a in (("E_1", E_1), ("E_2", E_2)):
            assert a.dtype == np.float64 and not a.flags.writeable
            assert getattr(p, name) is a
        for k in (1, 2):
            assert not p.incidence(k).flags.writeable

class TestIncidenceCache:
    def test_each_incidence_is_built_once_and_read_only(self, monkeypatch):
        c = delaunay_complex(random_points(20, rng_seed=2))
        calls = Counter()
        build = complexes.boundary_matrix

        def counted(cplx, k):
            calls[k] += 1
            return build(cplx, k)

        monkeypatch.setattr(complexes, "boundary_matrix", counted)
        for k in (0, 1, 2):
            hodge_operators(c, k)
        perturb_incidence(c, 10.0, 10.0, rng_seed=0)
        assert calls == {1: 1, 2: 1}
        for k in (1, 2):
            B = c.incidence(k)
            assert B is c.incidence(k) and not B.flags.writeable
            assert_bytes_equal(B, build(c, k).astype(np.float64))

    def test_levels_share_each_float64_incidence(self):
        # converted once per complex, or per perturbed complex, and held as
        # the same array by the two levels that read it
        c = delaunay_complex(random_points(20, rng_seed=2))
        p = perturb_incidence(c, 10.0, 10.0, rng_seed=0)
        for assemble in (functools.partial(hodge_operators, c), p.hodge_operators):
            ops = {k: assemble(k) for k in (0, 1, 2)}
            assert ops[0].B_up.dtype == ops[2].B_down.dtype == np.float64
            assert np.shares_memory(ops[0].B_up, ops[1].B_down)
            assert np.shares_memory(ops[1].B_up, ops[2].B_down)


_RECORD_HOLES = {
    "holes": (((0.3, 0.3), 0.12), ((0.7, 0.7), 0.12)),
    "no holes": (),
    "no triangles": (((0.5, 0.5), 2.0),),
    "perturbed": (((0.3, 0.3), 0.12), ((0.7, 0.7), 0.12)),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_points=st.integers(3, 30),
    seed=st.integers(0, 2**16),
    case=st.sampled_from(sorted(_RECORD_HOLES)),
    snr_db=st.floats(-20.0, 30.0),
)
def test_level_records_match_the_dense_decomposition(n_points, seed, case, snr_db):
    """Every level's records against ``eig_sym`` of its dense Laplacians:
    level 1's records hold the nonzero eigenpairs (residual, orthonormality,
    eigenvalues, range projector); the others are the trailing nonzero
    eigenpairs of the dense record, or all of it for a zero operator. A
    stack of clean and perturbed models, whose level-1 ranks differ, equals
    each member's own forward."""
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), _RECORD_HOLES[case])
    if case == "no triangles":
        assert cplx.num_simplices(2) == 0
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    if case == "perturbed":
        clean = ops
        p = perturb_incidence(cplx, snr_db, snr_db, rng_seed=seed)
        ops = hodge_operators_from_incidence(p.incidence(1), p.incidence(2))
    for k, o in ops.items():
        for L, record in ((o.L_down, o.spectrum_down), (o.L_up, o.spectrum_up)):
            dense = eig_sym(L)
            if k != 1 or not L.any():
                tail = o.n - record.K
                assert_bytes_equal(record.eigenvalues, dense.eigenvalues[tail:])
                assert_bytes_equal(record.eigenvectors, dense.eigenvectors[:, tail:])
                continue
            V, w = record.eigenvectors, record.eigenvalues
            assert np.max(np.abs(L @ V - V * w)) <= 1e-8 * max(1.0, np.max(np.abs(L)))
            assert np.max(np.abs(V.T @ V - np.eye(len(w))), initial=0.0) <= 1e-8
            nonzero = dense.eigenvalues != 0.0
            np.testing.assert_allclose(w, dense.eigenvalues[nonzero], rtol=1e-10, atol=0.0)
            P = dense.eigenvectors[:, nonzero]
            np.testing.assert_allclose(V @ V.T, P @ P.T, rtol=0.0, atol=1e-8)

    if case == "perturbed" and ops[1].n:
        # the perturbed member widens the clean one's level-1 record, and the
        # last clean member is padded to it
        members = [Model(o, [1, 2], out_level=1, seed=seed + e)
                   for e, o in enumerate((clean, ops, clean))]
        stacked = Model.stack(members)
        rng = np.random.default_rng(seed)
        x = {k: rng.standard_normal((cplx.num_simplices(k), 1)) for k in stacked.levels}
        out, _ = stacked.forward(x, want_cache=False)
        for e, member in enumerate(members):
            want, _ = member.forward(x, want_cache=False)
            np.testing.assert_allclose(out[e], want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_points=st.integers(3, 12),
    seed=st.integers(0, 2**16),
    holes=st.sampled_from([(), (((0.5, 0.5), 2.0),)]),
    snr_db=st.one_of(st.none(), st.floats(-40.0, 40.0)),
)
def test_one_assembly_per_complex(n_points, seed, holes, snr_db):
    """`hodge_operators_from_incidence` assembles the three levels of a clean
    or perturbed complex (``snr_db`` None or not), with holes covering
    nothing or everything: one ``eig_sym`` per incidence, empty or not, each
    incidence held by the two levels that read it, every array read-only,
    and records that keep the contract: every kernel eigenvalue they list
    is exactly 0, only a zero operator's record lists one, and the nonzero
    eigenpairs are within 1e-8 of the dense decomposition of each
    Laplacian."""
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), holes)
    B = (cplx.incidence(1), cplx.incidence(2))
    if snr_db is not None:
        p = perturb_incidence(cplx, snr_db, snr_db, rng_seed=seed)
        B = (p.incidence(1), p.incidence(2))
    sizes = []

    def counted(L):
        sizes.append(len(L))
        return eig_sym(L)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "eig_sym", counted)
        ops = hodge_operators_from_incidence(*B)
    assert sizes == [len(B[0]), B[1].shape[1]]
    assert ops[0].B_up is B[0] and ops[1].B_down is B[0]
    assert ops[1].B_up is B[1] and ops[2].B_down is B[1]
    for o in ops.values():
        for Bs, L, record in ((o.B_down, o.L_down, o.spectrum_down),
                              (o.B_up, o.L_up, o.spectrum_up)):
            assert not Bs.flags.writeable
            assert not (record.eigenvalues.flags.writeable or record.eigenvectors.flags.writeable)
            w, V = record.eigenvalues, record.eigenvectors
            assert np.all(w[kernel_modes(w)] == 0.0)
            if np.any(L):
                assert np.all(w != 0.0)
            else:
                assert record.K == o.n and not np.any(w)
            dense = eig_sym(L)
            nonzero = dense.eigenvalues != 0.0
            want_w, want_V = dense.eigenvalues[nonzero], dense.eigenvectors[:, nonzero]
            got_w, got_V = w[w != 0.0], V[:, w != 0.0]
            assert len(got_w) == len(want_w)
            scale = max(1.0, float(np.max(np.abs(L), initial=0.0)))
            np.testing.assert_allclose(got_w, want_w, rtol=0.0, atol=1e-8 * scale)
            np.testing.assert_allclose(got_V @ got_V.T, want_V @ want_V.T, rtol=0.0, atol=1e-8)


def _exact_rank(B: np.ndarray) -> int:
    """Rank over the rationals of an integer matrix, by integer row
    elimination: the rows left below each pivot are replaced by integer
    combinations divided by their gcd, so no float tolerance decides it."""
    rows = [[int(v) for v in row] for row in B if row.any()]
    rank = 0
    for c in range(B.shape[1]):
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is None:
            continue
        pivot, rank = rows.pop(i), rank + 1
        reduced = []
        for row in rows:
            if row[c]:
                row = [pivot[c] * a - row[c] * b for a, b in zip(row, pivot)]
                g = math.gcd(*row)
                if not g:
                    continue
                row = [a // g for a in row]
            reduced.append(row)
        rows = reduced
    return rank


# Hand-built closed surfaces: harmonic counts (1, 0, 1) at levels 0, 1, 2.
_CLOSED_SURFACES = {
    "hollow tetrahedron": build_complex(triangles=itertools.combinations(range(4), 3)),
    "octahedron": build_complex(triangles=[(p, a, b) for p in (0, 5)
                                           for a, b in ((1, 2), (2, 3), (3, 4), (4, 1))]),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_points=st.integers(3, 40),
    seed=st.integers(0, 2**16),
    case=st.sampled_from(["no holes", "hole over everything", *_CLOSED_SURFACES]),
)
def test_clean_records_keep_the_hodge_contract(n_points, seed, case):
    """The records of a clean complex against Hodge theory (Lim, "Hodge
    Laplacians on graphs", SIAM Review 2020): at every level the lower and
    upper records list ``rank B_k`` and ``rank B_{k+1}`` nonzero modes, ranks
    taken by exact integer elimination, so the harmonic count is
    ``n_k - rank B_k - rank B_{k+1}``, as the dense ``eig_sym`` of ``L_k``
    counts it too; their ranges are orthogonal; and the heat kernel at
    ``t = inf`` through both records is the projection onto the null space
    of ``[B_k; B_{k+1}^T]``."""
    if case in _CLOSED_SURFACES:
        cplx = _CLOSED_SURFACES[case]
    else:
        holes = () if case == "no holes" else (((0.5, 0.5), 2.0),)
        cplx = delaunay_complex(random_points(n_points, rng_seed=seed), holes)
    n = [cplx.num_simplices(k) for k in (0, 1, 2)]
    rank = [0, _exact_rank(boundary_matrix(cplx, 1)), _exact_rank(boundary_matrix(cplx, 2)), 0]
    harmonic = []
    for k in (0, 1, 2):
        o = hodge_operators(cplx, k)
        if not o.n:
            continue
        down, up = o.spectrum_down, o.spectrum_up
        assert np.count_nonzero(down.eigenvalues) == rank[k]
        assert np.count_nonzero(up.eigenvalues) == rank[k + 1]
        harmonic.append(n[k] - rank[k] - rank[k + 1])
        assert np.count_nonzero(eig_sym(o.L).eigenvalues == 0.0) == harmonic[-1]
        V_d, V_u = (s.eigenvectors[:, s.eigenvalues != 0.0] for s in (down, up))
        assert np.max(np.abs(V_d.T @ V_u), initial=0.0) <= 1e-8
        kernel = exp_filter(up, math.inf, exp_filter(down, math.inf, np.eye(o.n)))
        N = null_space(np.vstack([o.B_down, o.B_up.T]))
        assert N.shape[1] == harmonic[-1]
        np.testing.assert_allclose(kernel, N @ N.T, rtol=0.0, atol=1e-8)
    if case in _CLOSED_SURFACES:
        assert harmonic == [1, 0, 1]


@pytest.mark.xfail(
    strict=True,
    reason="at 80-85 dB perturb_incidence lifts the beta_0 mode of B_1 B_1^T to an "
    "eigenvalue just above the kernel tolerance, and range_spectrum's column B_1^T u / sigma "
    "for it is off unit norm by about 2e-7 (CHANGES.md, FOUND: spectral.range_spectrum)",
)
@pytest.mark.parametrize("seed, snr_db", [(3, 85.0), (2, 80.0)])
def test_perturbed_level1_lower_record_is_orthonormal_near_the_kernel_tolerance(seed, snr_db):
    cplx = delaunay_complex(random_points(30, rng_seed=seed), DEFAULT_HOLES)
    p = perturb_incidence(cplx, snr_db, snr_db, rng_seed=seed)
    V = hodge_operators_from_incidence(p.incidence(1), p.incidence(2))[1].spectrum_down.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_points=st.integers(3, 12),
    seed=st.integers(0, 2**16),
    case=st.sampled_from(["no holes", "hole over everything", "edgeless"]),
)
def test_an_absent_side_is_an_empty_incidence(n_points, seed, case):
    """Every level holds ``B_down = B_k`` ``(n_{k-1}, n_k)`` and
    ``B_up = B_{k+1}`` ``(n_k, n_{k+1})`` as read-only float64 arrays, with
    ``n_{-1} = n_3 = 0``; the two levels that read an incidence hold the same
    object; ``L`` is exactly the dense ``B_k^T B_k + B_{k+1} B_{k+1}^T``; and
    `project` and `dirichlet_energy` give exact zeros on an empty side."""
    holes = () if case == "no holes" else (((0.5, 0.5), 2.0),)
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), holes)
    if case == "edgeless":
        cplx = build_complex(vertices=cplx.vertices)
    n = [0] + [cplx.num_simplices(k) for k in (0, 1, 2)] + [0]  # n[k + 1] = n_k
    ops = {k: hodge_operators(cplx, k) for k in (0, 1, 2)}
    assert ops[0].B_up is ops[1].B_down and ops[1].B_up is ops[2].B_down
    rng = np.random.default_rng(seed)
    for k, o in ops.items():
        sides = ((o.B_down, (n[k], n[k + 1])), (o.B_up, (n[k + 1], n[k + 2])))
        for B, shape in sides:
            assert type(B) is np.ndarray and B.dtype == np.float64
            assert B.shape == shape and not B.flags.writeable
        assert np.array_equal(o.L, o.B_down.T @ o.B_down + o.B_up @ o.B_up.T)

        x = rng.standard_normal((n[k + 1], 2))
        below, above = (rng.standard_normal((m, 2)) for m in (n[k], n[k + 2]))
        triple = project(o, x, below, above)
        for got, B, signal in ((triple.lower, o.B_down.T, below), (triple.upper, o.B_up, above)):
            assert got.shape == x.shape
            if B.shape[1] == 0:
                assert got.tobytes() == np.zeros_like(x).tobytes()
            else:
                assert np.array_equal(got, B @ signal)
        # an empty side adds exactly nothing to the energy
        want = sum(float(np.sum((B @ x) ** 2)) for B in (o.B_down, o.B_up.T) if B.size)
        assert dirichlet_energy(x, o) == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_points=st.integers(3, 12),
    seed=st.integers(0, 2**16),
    case=st.sampled_from(["triangles", "no triangles", "edgeless"]),
    snr_db=st.one_of(st.floats(-40.0, 120.0), st.just(math.inf)),
)
def test_a_perturbed_complex_derives_its_incidences_and_epsilons(n_points, seed, case, snr_db):
    """`perturb_incidence` gives ``(base, E_1, E_2)`` and the rest follows
    from them: ``incidence(k)`` is ``base.incidence(k) + E_k`` bit for bit
    and read-only, ``epsilon(k)`` is ``signal_norm(E_k)`` bit for bit (0 for
    an empty or infinite-SNR error, and for the zero maps ``B_0``, ``B_3``;
    `signal_norm`'s own property test compares it with the SVD), and the
    records are those `hodge_operators_from_incidence` builds on the
    perturbed incidences."""
    holes = () if case == "triangles" else (((0.5, 0.5), 2.0),)
    cplx = delaunay_complex(random_points(n_points, rng_seed=seed), holes)
    if case == "edgeless":
        cplx = build_complex(vertices=cplx.vertices)
    assert (cplx.num_simplices(2) > 0) == (case == "triangles")
    p = perturb_incidence(cplx, snr_db, snr_db, rng_seed=seed)
    for k, E in ((1, p.E_1), (2, p.E_2)):
        B = p.incidence(k)
        assert B is p.incidence(k) and not B.flags.writeable
        assert_bytes_equal(B, cplx.incidence(k) + E)
        want = signal_norm(E)
        assert p.epsilon(k) == want
        if math.isinf(snr_db) or not E.size:
            assert want == 0.0 and not E.any()
    assert p.epsilon(0) == p.epsilon(3) == 0.0
    want = hodge_operators_from_incidence(np.array(p.incidence(1)), np.array(p.incidence(2)))
    for k, o in want.items():
        got = p.hodge_operators(k)
        for a, b in ((got.spectrum_down, o.spectrum_down), (got.spectrum_up, o.spectrum_up)):
            assert_bytes_equal(a.eigenvalues, b.eigenvalues)
            assert_bytes_equal(a.eigenvectors, b.eigenvectors)


def _records_against_the_dense_route(cplx, atol=None):
    """A clean complex's records (its face tables: written Grams, gathered
    level-1 products) against `hodge_operators_from_incidence` of its
    incidences alone (the dense route): byte for byte, signed zeros
    included, or within ``atol`` when given."""
    dense = hodge_operators_from_incidence(cplx.incidence(1), cplx.incidence(2))
    for k, want in dense.items():
        got = hodge_operators(cplx, k)
        for a, b in ((got.spectrum_down, want.spectrum_down), (got.spectrum_up, want.spectrum_up)):
            for x, y in ((a.eigenvalues, b.eigenvalues), (a.eigenvectors, b.eigenvectors)):
                if atol is None:
                    assert_bytes_equal(x, y)
                else:
                    assert x.shape == y.shape
                    np.testing.assert_allclose(x, y, rtol=0.0, atol=atol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_points=st.integers(3, 80),
    seed=st.integers(0, 2**16),
    holes=st.sampled_from([(), DEFAULT_HOLES, (((0.5, 0.5), 2.0),)]),
)
def test_clean_records_equal_the_dense_route_byte_for_byte(n_points, seed, holes):
    """Delaunay complexes with no holes, the default holes or a hole over
    every triangle: every edge of a planar complex lies in at most two
    triangles, so each gathered entry is one rounding, as in the dense
    product, and every record has the dense route's bytes."""
    _records_against_the_dense_route(delaunay_complex(random_points(n_points, rng_seed=seed), holes))


@pytest.mark.parametrize("cplx", [
    build_complex(triangles=[(0, 1, 2)], vertices=[7]),
    build_complex(vertices=[0, 1, 2]),
    build_complex(edges=[(0, 1)]),
    # edge (0, 1) lies in three triangles, the others in one: the table is
    # padded to width three
    build_complex(triangles=[(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
], ids=["isolated vertex", "vertices only", "single edge", "edge in three triangles"])
def test_hand_built_clean_records_equal_the_dense_route(cplx):
    _records_against_the_dense_route(cplx)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_vertices=st.integers(5, 30), seed=st.integers(0, 2**16))
def test_edges_in_many_triangles_match_the_dense_route_to_rounding(n_vertices, seed):
    """Random triangles over few vertices put edges in three or more
    triangles, where a dense product may sum in another order than the
    gather: the records agree within 1e-13, if not to the last bit."""
    rng = np.random.default_rng(seed)
    triangles = {tuple(sorted(rng.choice(n_vertices, 3, replace=False)))
                 for _ in range(3 * n_vertices)}
    cplx = build_complex(triangles=triangles, vertices=range(n_vertices))
    assert np.count_nonzero(boundary_matrix(cplx, 2), axis=1).max() >= 3
    _records_against_the_dense_route(cplx, atol=1e-13)


def test_a_clean_complex_writes_its_grams(monkeypatch):
    """The assembly of a clean complex forms no Gram matrix by a product
    (`complexes._gram`); a perturbed complex's assembly does."""
    calls = Counter()
    gram = complexes._gram

    def counted(A):
        calls["gram"] += 1
        return gram(A)

    monkeypatch.setattr(complexes, "_gram", counted)
    cplx = delaunay_complex(random_points(30, rng_seed=0), DEFAULT_HOLES)
    for k in (0, 1, 2):
        hodge_operators(cplx, k)
    assert calls["gram"] == 0
    perturb_incidence(cplx, 10.0, 10.0, rng_seed=0).hodge_operators(1)
    assert calls["gram"] == 2


class TestSerialization:
    def test_round_trip(self, tmp_path):
        c = delaunay_complex(random_points(15, rng_seed=1))
        path = tmp_path / "complex.json"
        save_complex(c, path)
        loaded = load_complex(path)
        assert loaded.vertices == c.vertices
        assert loaded.edges == c.edges
        assert loaded.triangles == c.triangles
        np.testing.assert_allclose(loaded.positions, c.positions)

    def test_load_recanonicalizes(self):
        data = {"vertices": [0, 1, 2], "edges": [[1, 0]], "triangles": [], "positions": None}
        c = complex_from_dict(data)
        assert c.edges == ((0, 1),)

    def test_load_validates_positions(self):
        data = complex_to_dict(build_complex(triangles=[(0, 1, 2)]))
        data["positions"] = [[0.0, 0.0]]
        with pytest.raises(ComplexError, match="positions"):
            complex_from_dict(data)

    def test_checksum_stable(self):
        c1 = build_complex(triangles=[(0, 1, 2)])
        c2 = build_complex(triangles=[(2, 1, 0)])
        assert c1.checksum() == c2.checksum()
        assert json.dumps(complex_to_dict(c1))  # serializable


_DISK = st.tuples(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), st.floats(0.01, 0.3))


@settings(max_examples=40, deadline=None)
@given(
    n_points=st.integers(3, 40),
    seed=st.integers(0, 2**16),
    holes=st.lists(_DISK, max_size=3),
)
def test_json_round_trip_keeps_simplices_positions_and_checksum(n_points, seed, holes):
    c = delaunay_complex(random_points(n_points, rng_seed=seed), holes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        save_complex(c, path)
        loaded = load_complex(path)
    assert (loaded.vertices, loaded.edges, loaded.triangles) == (c.vertices, c.edges, c.triangles)
    np.testing.assert_array_equal(loaded.positions, c.positions)
    assert loaded.checksum() == c.checksum()
