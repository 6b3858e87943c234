"""Complex construction, incidence matrices, Hodge operators, perturbations."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimo.complexes import (
    ComplexError,
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


class TestHodgeOperators:
    def test_hollow_triangle_l0_spectrum(self):
        c = build_complex(edges=[(0, 1), (0, 2), (1, 2)])
        ops = hodge_operators(c, 0)
        roots = charpoly_roots_3x3(ops.L)
        np.testing.assert_allclose(roots, [0.0, 3.0, 3.0], atol=1e-9)
        assert ops.L_down is None

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
        for k in (0, 1, 2):
            want, got = hodge_operators(c, k), hodge_operators_from_incidence(B1, None, k)
            assert (got.n, got.B_up is None) == (want.n, want.B_up is None)
            np.testing.assert_array_equal(got.L, want.L)
        with pytest.raises(ComplexError, match="needs B_1"):
            hodge_operators_from_incidence(None, None, 0)

    def test_symmetry_psd_and_annihilation(self):
        pts = random_points(25, rng_seed=3)
        c = delaunay_complex(pts)
        for k in (0, 1, 2):
            ops = hodge_operators(c, k)
            assert np.max(np.abs(ops.L - ops.L.T)) == 0.0
            if ops.n:
                assert np.linalg.eigvalsh(ops.L)[0] >= -1e-10
            if ops.L_down is not None and ops.L_up.any():
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
    B = {1: boundary_matrix(c, 1), 2: boundary_matrix(c, 2)}
    assert B[1].dtype == B[2].dtype == np.int64
    assert not np.any(B[1] @ B[2])
    for k in (0, 1, 2):
        ops = hodge_operators(c, k)
        n = c.num_simplices(k)
        down, up = B.get(k), B.get(k + 1)
        want_up = np.zeros((n, n)) if up is None else (up @ up.T).astype(np.float64)
        assert_bytes_equal(ops.L_up, want_up)
        if down is None:
            assert ops.L_down is None
            assert_bytes_equal(ops.L, want_up)
            continue
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


class TestPerturbations:
    def test_infinite_snr_is_identity(self):
        c = delaunay_complex(random_points(20, rng_seed=2))
        p = perturb_incidence(c, math.inf, math.inf, rng_seed=0)
        assert not p.E_1.any() and not p.E_2.any()
        assert p.epsilon_1 == 0.0 and p.epsilon_2 == 0.0
        np.testing.assert_array_equal(p.B_1, boundary_matrix(c, 1).astype(float))

    def test_zero_db_matches_frobenius_norm(self):
        c = delaunay_complex(random_points(20, rng_seed=2))
        p = perturb_incidence(c, 0.0, 0.0, rng_seed=4)
        B1 = boundary_matrix(c, 1).astype(float)
        assert abs(np.linalg.norm(p.E_1) - np.linalg.norm(B1)) <= 1e-12 * np.linalg.norm(B1)

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
        assert p.epsilon_1 == pytest.approx(np.linalg.norm(p.E_1, 2))
        ops = p.hodge_operators(1)
        np.testing.assert_allclose(ops.L_down, (p.B_1.T @ p.B_1), atol=1e-12)
        np.testing.assert_allclose(ops.L_up, (p.B_2 @ p.B_2.T), atol=1e-12)


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
