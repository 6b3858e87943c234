"""Bowyer-Watson Delaunay triangulation of planar point sets, with hole carving.

Live triangles are rows of an integer array. Each inserted point is tested
against all of them at once: one call of the incircle predicate on index
arrays, evaluated in the same float operations as a scalar call would be.
The few bad rows give the cavity boundary, they are dropped with a mask and
the new fan is appended in the boundary's directed-edge order.

Co-circular point groups make the Delaunay diagram non-unique; after the
incremental pass the triangulation is canonicalized by flipping every exactly
co-circular convex quad onto its lexicographically smallest diagonal until no
flip applies, so equal inputs always produce identical complexes.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .complexes import ComplexError, SimplicialComplex


class TriangulationError(ComplexError):
    """Degenerate input for which no triangulation exists."""


# Unitless slack for the incircle / orientation determinants; coordinates are
# rescaled to O(1) before predicates are evaluated.
_PRED_TOL = 1e-12


def _incircle(p: np.ndarray, a, b, c, d) -> float:
    """Determinant that is > 0 iff point d lies strictly inside the
    circumcircle of the counterclockwise triangle (a, b, c).

    The vertices may be indices into ``p`` or equal-shape index arrays, which
    give one determinant per element, bit-identical to the scalar calls."""
    adx, ady = p[a, 0] - p[d, 0], p[a, 1] - p[d, 1]
    bdx, bdy = p[b, 0] - p[d, 0], p[b, 1] - p[d, 1]
    cdx, cdy = p[c, 0] - p[d, 0], p[c, 1] - p[d, 1]
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )


def _orient(p: np.ndarray, a, b, c) -> float:
    """Twice the signed area of triangle (a, b, c); > 0 when counterclockwise.
    Takes indices or index arrays, like `_incircle`."""
    return (p[b, 0] - p[a, 0]) * (p[c, 1] - p[a, 1]) - (p[b, 1] - p[a, 1]) * (
        p[c, 0] - p[a, 0]
    )


def _check_not_collinear(pts: np.ndarray) -> None:
    scale = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])), 1e-300)
    n = len(pts)
    base = pts[0]
    far = int(np.argmax(np.hypot(pts[:, 0] - base[0], pts[:, 1] - base[1])))
    if np.hypot(*(pts[far] - base)) <= _PRED_TOL * scale:
        raise TriangulationError("all points coincide; triangulation is degenerate")
    d = pts[far] - base
    cross = np.abs(d[0] * (pts[:, 1] - base[1]) - d[1] * (pts[:, 0] - base[0]))
    if np.all(cross <= _PRED_TOL * scale * scale * n):
        raise TriangulationError("all points are collinear; triangulation is degenerate")


def _bowyer_watson(pts: np.ndarray, order: np.ndarray) -> np.ndarray:
    n = len(pts)
    span = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])), 1.0)
    cx = float(pts[:, 0].mean())
    cy = float(pts[:, 1].mean())
    super_pts = np.array(
        [
            [cx - 30.0 * span, cy - 15.0 * span],
            [cx + 30.0 * span, cy - 15.0 * span],
            [cx, cy + 30.0 * span],
        ]
    )
    p = np.vstack([pts, super_pts])
    tol = _PRED_TOL * span**4

    # Live triangles, kept counterclockwise throughout, one (i, j, k) row each.
    tris = np.array([[n, n + 1, n + 2]], dtype=np.int64)
    for idx in order.tolist():
        bad = _incircle(p, tris[:, 0], tris[:, 1], tris[:, 2], idx) > tol
        if not bad.any():
            raise TriangulationError(
                f"point {idx} falls in no circumcircle; duplicate or degenerate input"
            )
        # Boundary of the cavity: directed edges (a, b), (b, c), (c, a) of the
        # bad triangles, in row order, whose undirected edge is used once.
        directed = tris[bad][:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).tolist()
        count = Counter((min(u, v), max(u, v)) for u, v in directed)
        fan = [(u, v, idx) for u, v in directed if count[min(u, v), max(u, v)] == 1]
        tris = np.concatenate([tris[~bad], np.array(fan, dtype=np.int64)])
    return tris[(tris < n).all(axis=1)]


def _canonical_cocircular_flips(p: np.ndarray, triangles: np.ndarray, tol: float) -> np.ndarray:
    """Flip exactly co-circular convex quads onto the smallest diagonal.

    Sweeps run until no flip applies; each sweep makes every flip whose two
    triangles no earlier flip of the sweep touched. A flip swaps an edge for a
    lexicographically smaller one, so the sorted edge list strictly decreases
    and the sweeps end. Inside a co-circular polygon the only triangulation
    that admits no flip is the fan from its smallest vertex, so the result
    does not depend on the insertion order or on the order of the flips.
    Returns ascending rows in lexicographic order.
    """
    tris = np.sort(triangles, axis=1)
    while True:
        # Every (triangle, edge) pair: edge (a, b), a < b, and the vertex c
        # opposite it; an inner edge is a key shared by two owners i and j.
        a, b, c = (tris[:, cols].ravel() for cols in ([0, 0, 1], [1, 2, 2], [2, 1, 0]))
        owner = np.repeat(np.arange(len(tris)), 3)
        s = np.argsort(a * len(p) + b, kind="stable")
        shared = (a[s[1:]] == a[s[:-1]]) & (b[s[1:]] == b[s[:-1]])
        i, j = s[:-1][shared], s[1:][shared]
        ai, bi, ci, cj = a[i], b[i], c[i], c[j]
        t1 = tris[owner[i]]
        # The other diagonal (ci, cj) is smaller iff min(ci, cj) < ai; the flip
        # is valid only for a strictly convex quad.
        flip = (
            (np.minimum(ci, cj) < ai)
            & (np.abs(_incircle(p, t1[:, 0], t1[:, 1], t1[:, 2], cj)) <= tol)
            & (_orient(p, ai, bi, ci) * _orient(p, ai, bi, cj) < 0)
            & (_orient(p, ci, cj, ai) * _orient(p, ci, cj, bi) < 0)
        )
        if not flip.any():
            return tris[np.lexsort(tris.T[::-1])]
        used: set[int] = set()
        fans = []
        for o1, o2, u, v, w1, w2 in zip(
            *(x[flip].tolist() for x in (owner[i], owner[j], ai, bi, ci, cj))
        ):
            if o1 in used or o2 in used:
                continue
            used.update((o1, o2))
            fans += [sorted((w1, w2, u)), sorted((w1, w2, v))]
        keep = np.ones(len(tris), dtype=bool)
        keep[list(used)] = False
        tris = np.concatenate([tris[keep], np.array(fans, dtype=np.int64)])


def delaunay_complex(points, hole_disks=(), rng_seed=None) -> SimplicialComplex:
    """Delaunay triangulation of 2-D points as a simplicial 2-complex.

    A triangle is removed when its barycenter lies strictly inside any hole
    disk ``(center, radius)``; its edges and vertices are retained. The seed
    only shuffles the insertion order, the canonical flip pass makes the
    result independent of it.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise TriangulationError(f"expected (n, 2) point array, got {pts.shape}")
    if len(pts) < 3:
        raise TriangulationError(f"need at least 3 points, got {len(pts)}")
    _check_not_collinear(pts)

    order = np.arange(len(pts))
    if rng_seed is not None:
        np.random.default_rng(rng_seed).shuffle(order)

    span = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])), 1.0)
    tris = _bowyer_watson(pts, order)
    tris = _canonical_cocircular_flips(pts, tris, _PRED_TOL * span**4)

    centers = np.array([c for c, _ in hole_disks], dtype=np.float64).reshape(-1, 2)
    radii = np.array([r for _, r in hole_disks], dtype=np.float64)
    bary = pts[tris].mean(axis=1)
    dist2 = ((bary[:, None, :] - centers) ** 2).sum(axis=2)
    kept = ~(dist2 < radii * radii).any(axis=1)

    n = len(pts)
    keys = np.sort((tris[:, [0, 0, 1]] * n + tris[:, [1, 2, 2]]).ravel())
    edges = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
    return SimplicialComplex(
        tuple(range(n)),
        tuple(zip(*(x.tolist() for x in edges))),
        tuple(map(tuple, tris[kept].tolist())),
        pts.copy(),
    )
