"""Oriented simplicial 2-complexes and their boundary / Hodge-Laplacian operators.

Simplices are stored with vertices in strictly ascending id order (canonical
orientation) and in lexicographic order per level, so every derived operator
is reproducible. Incidence matrices are built in integer arithmetic; the
chain-complex identity ``B_1 @ B_2 == 0`` therefore holds exactly.

`hodge_operators_from_incidence` is the one operator-assembly path: it
assembles the three levels of a complex, exact or perturbed, from its two
incidences, with the record of each Laplacian's spectrum (`HodgeOperators`):
its nonzero eigenpairs, which every consumer reads, from one decomposition
per incidence, of its small Gram matrix: no edge-level (``n_1 x n_1``) one.
A complex assembles once, on the float64 incidences it converts once, and
keeps the result (`hodge_operators`). A clean complex also passes the face
tables of its simplex lists (`_face_tables`): its integer Grams are written
and level 1's record columns gathered from them, with the bits of the dense
route, which a perturbed complex keeps: Grams and products by matrix
multiplication. The dense Laplacians are formed on first read, in float64,
exact on exact incidences.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .spectral import (HodgeSpectrum, eig_sym, range_spectrum, record_of, signal_norm,
                       zero_spectrum)


class ComplexError(ValueError):
    """Invalid simplicial complex input (duplicates, degeneracies, bad levels)."""


def _canonical(simplex) -> tuple[int, ...]:
    s = tuple(int(v) for v in simplex)
    if any(v < 0 for v in s):
        raise ComplexError(f"vertex ids must be nonnegative, got {s}")
    if len(set(s)) != len(s):
        raise ComplexError(f"degenerate simplex with repeated vertex: {s}")
    return tuple(sorted(s))


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial 2-complex, closed under taking faces.

    ``positions`` (optional) holds one 2-D coordinate per entry of
    ``vertices``, in the same order.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    positions: np.ndarray | None = None
    _incidences: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _faces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def incidence(self, k: int) -> np.ndarray:
        """``B_k`` (`boundary_matrix`) in float64, built once per complex;
        read-only. The levels of the complex that read it hold this array
        (`hodge_operators`)."""
        if k not in self._incidences:
            self._incidences[k] = _read_only(boundary_matrix(self, k))
        return self._incidences[k]

    def _face_rows(self, k: int) -> np.ndarray:
        """``(n_k, k + 1)`` rows, in the (k-1)-simplex list, of the faces of
        each k-simplex (k = 1 or 2): column ``p`` the face without vertex
        ``p``, on which ``B_k`` carries ``(-1)^p``. Derived once per complex
        from its simplex lists; `boundary_matrix` and the face tables of its
        assembly (`_face_tables`) read it."""
        if k not in self._faces:
            vertices = np.array(self.vertices, dtype=np.int64)

            def keys(simplices) -> np.ndarray:
                # Rows of vertex ids -> integers that sort like the rows, as
                # the simplex lists are sorted.
                pos = _positions(vertices, np.array(simplices, dtype=np.int64).reshape(-1, k))
                return np.ravel_multi_index(tuple(pos.T), (len(vertices),) * k)

            cells = np.array(self.simplices(k), dtype=np.int64).reshape(-1, k + 1)
            faces = keys(self.simplices(k - 1))
            rows = np.stack([_positions(faces, keys(np.delete(cells, p, axis=1)))
                             for p in range(k + 1)], axis=1)
            rows.flags.writeable = False
            self._faces[k] = rows
        return self._faces[k]

    @cached_property
    def _operators(self) -> dict[int, HodgeOperators]:
        return hodge_operators_from_incidence(self.incidence(1), self.incidence(2),
                                              _face_tables(self))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def num_simplices(self, k: int) -> int:
        if k == 0:
            return len(self.vertices)
        if k == 1:
            return len(self.edges)
        if k == 2:
            return len(self.triangles)
        raise ComplexError(f"unsupported simplex level {k}, expected 0, 1 or 2")

    def simplices(self, k: int):
        return (self.vertices, self.edges, self.triangles)[k]

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    def checksum(self) -> str:
        """SHA-256 over the canonical simplex lists and the positions, if the
        complex has them; a complex without positions hashes its simplex
        lists alone."""
        payload = {"v": self.vertices, "e": self.edges, "t": self.triangles}
        if self.positions is not None:
            payload["p"] = self.positions.tolist()
        return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def build_complex(edges=(), triangles=(), vertices=()) -> SimplicialComplex:
    """Build a canonical complex from edge and triangle lists.

    Inputs need not be closed: all faces of every listed simplex are added.
    Duplicate simplices *within* an input list (after canonicalization) are
    rejected; faces regenerated by closure merge silently.
    """
    tri_set: set[tuple[int, ...]] = set()
    dup_tris = []
    for t in triangles:
        c = _canonical(t)
        if len(c) != 3:
            raise ComplexError(f"triangle must have 3 distinct vertices, got {t}")
        if c in tri_set:
            dup_tris.append(c)
        tri_set.add(c)

    edge_set: set[tuple[int, ...]] = set()
    dup_edges = []
    for e in edges:
        c = _canonical(e)
        if len(c) != 2:
            raise ComplexError(f"edge must have 2 distinct vertices, got {e}")
        if c in edge_set:
            dup_edges.append(c)
        edge_set.add(c)

    if dup_edges or dup_tris:
        raise ComplexError(
            "duplicate simplices after canonicalization: "
            f"edges {sorted(set(dup_edges))}, triangles {sorted(set(dup_tris))}"
        )

    # Closure under restriction: every face of a stored simplex is stored.
    for a, b, c in tri_set:
        edge_set.update([(a, b), (a, c), (b, c)])
    vert_set = {int(v) for v in vertices}
    for e in edge_set:
        vert_set.update(e)
    for t in tri_set:
        vert_set.update(t)

    return SimplicialComplex(
        vertices=tuple(sorted(vert_set)),
        edges=tuple(sorted(edge_set)),
        triangles=tuple(sorted(tri_set)),
    )


def _positions(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of ``keys`` in the ascending ``table``; every key must occur."""
    pos = np.searchsorted(table, keys)
    # Keys are nonnegative, so the appended -1 matches none past the end.
    if not np.array_equal(np.append(table, -1)[pos], keys):
        raise ComplexError("complex is not closed under taking faces")
    return pos


def boundary_matrix(complex: SimplicialComplex, k: int) -> np.ndarray:
    """Signed incidence matrix B_k mapping k-simplices to their (k-1)-faces.

    Column j carries (-1)^p on the face obtained by omitting the vertex at
    position p of the (ascending) k-simplex j. So columns of B_1 carry -1 at
    the smaller endpoint and +1 at the larger one, and columns of B_2 carry
    signs (+1, -1, +1) on faces (v1 v2), (v0 v2), (v0 v1). Entries are int64
    so that B_1 @ B_2 == 0 holds exactly.
    """
    if k not in (1, 2):
        raise ComplexError(f"unsupported incidence level {k}, expected 1 or 2")
    rows = complex._face_rows(k)
    B = np.zeros((complex.num_simplices(k - 1), len(rows)), dtype=np.int64)
    cols = np.arange(len(rows))
    for p in range(k + 1):
        B[rows[:, p], cols] = (-1) ** p
    return B


@dataclass(frozen=True)
class HodgeOperators:
    """Lower/upper/full Hodge Laplacians of one simplex level, and the record
    of each Laplacian's spectrum.

    ``B_down = B_k`` ``(n_{k-1}, n_k)`` and ``B_up = B_{k+1}``
    ``(n_k, n_{k+1})`` are read-only float64 arrays at every level, empty on
    an absent side: ``B_0`` ``(0, n_0)``, ``B_3`` ``(n_2, 0)`` (the zero maps
    at the ends of the chain) and ``B_2`` ``(n_1, 0)`` without triangles.
    ``L_down = B_k^T B_k`` and ``L_up = B_{k+1} B_{k+1}^T`` are formed on
    first read, ``L = L_down + L_up`` on each read. A member stack
    (`nn.Model.stack`) holds the same fields with a leading member axis,
    incidences ``(E, ., .)`` or ``(1, ., .)``, so its Laplacians broadcast
    to its members' Laplacians, stacked.

    ``spectrum_down``/``spectrum_up`` are the records of ``L_down``/``L_up``
    (`spectral` module docstring), which `hodge_operators_from_incidence`
    builds for the three levels of a complex from one decomposition per
    incidence, of its small Gram matrix:

    - level 0 up and level 2 down are the nonzero eigenpairs of
      ``eig_sym(B_1 B_1^T)`` and ``eig_sym(B_2^T B_2)``, views into these
      small (``n_0 x n_0``, ``n_2 x n_2``) decompositions; a clean complex
      writes these Grams from its face tables, a perturbed one multiplies;
    - level 1 down and up come from those same two decompositions
      (`spectral.range_spectrum`), so no ``n_1 x n_1`` matrix is decomposed;
      a clean complex gathers their columns ``B_1^T U`` and ``B_2 U`` from
      its face tables, a perturbed one multiplies;
    - the zero operators (level 0 down, level 2 up, level 1 up without
      triangles) list no eigenpair: eigenvalues ``(0,)`` and eigenvectors
      ``(n, 0)`` (`spectral.zero_spectrum`), so no record holds a kernel mode.
    """

    level: int
    n: int
    B_down: np.ndarray
    B_up: np.ndarray
    spectrum_down: HodgeSpectrum
    spectrum_up: HodgeSpectrum

    @cached_property
    def L_down(self) -> np.ndarray:
        return _gram(self.B_down)

    @cached_property
    def L_up(self) -> np.ndarray:
        return _gram(np.swapaxes(self.B_up, -1, -2))

    @property
    def L(self) -> np.ndarray:
        """The Hodge Laplacian ``L_down + L_up``."""
        return self.L_down + self.L_up


def _gram(A: np.ndarray) -> np.ndarray:
    """``A^T A``, symmetrized to kill the round-off asymmetry of float (e.g.
    perturbed) incidences; over the last two axes, so a member stack
    ``(E, ., .)`` gives one Gram matrix per member."""
    M = np.swapaxes(A, -1, -2) @ A
    return (M + np.swapaxes(M, -1, -2)) / 2.0


@dataclass(frozen=True)
class _RowTable:
    """An integer matrix ``(len(cols), n)`` with few nonzeros per row: row
    ``i`` holds ``signs[i, j]`` in column ``cols[i, j]``, columns ascending
    in a row of more than two; a short row is padded with sign 0 at column
    0. `_face_tables` gives a clean complex's ``B_1^T`` and ``B_2`` so."""

    cols: np.ndarray
    signs: np.ndarray
    n: int

    def __matmul__(self, U: np.ndarray) -> np.ndarray:
        """The product with a dense ``(n, K)`` basis, gathered from rows of
        ``U`` and summed as a dense product sums them: from +0, in column
        order. So a row of two entries is rounded once, as in the dense
        product, no entry is -0, and a padded entry adds a zero, which
        changes no sum that starts at +0."""
        U = np.ascontiguousarray(U)  # np.take copies a strided U on every call
        out = np.zeros((len(self.cols), U.shape[1]))
        term = np.empty_like(out)
        for j in range(self.cols.shape[1]):
            np.take(U, self.cols[:, j], axis=0, out=term, mode="clip")
            term *= self.signs[:, j, None]
            out += term
        return out

    def gram(self) -> np.ndarray:
        """``A^T A`` written without a product: each column's count of
        entries on the diagonal, ``s s'`` where two entries of a row meet.
        Exact when two columns share at most one row, as two vertices, or two
        triangles, share at most one edge."""
        G = np.zeros((self.n, self.n))
        G[np.diag_indices(self.n)] = np.bincount(
            self.cols.ravel(), weights=np.square(self.signs).ravel(), minlength=self.n)
        for i, j in itertools.combinations(range(self.cols.shape[1]), 2):
            # padding ends a row, so a row with a j-th entry has an i-th one
            r = self.signs[:, j] != 0.0
            G[self.cols[r, i], self.cols[r, j]] = G[self.cols[r, j], self.cols[r, i]] = (
                self.signs[r, i] * self.signs[r, j])
        return G


def _face_tables(complex: SimplicialComplex) -> tuple[_RowTable, _RowTable]:
    """``B_1^T`` and ``B_2`` of a clean complex as `_RowTable`s, from its
    face rows (`SimplicialComplex._face_rows`): each edge's two vertices with
    signs ``(+1, -1)``, and the triangles that contain each edge, ascending,
    with their signs in ``B_2``."""
    rows_1, rows_2 = complex._face_rows(1), complex._face_rows(2)
    down = _RowTable(rows_1, np.broadcast_to([1.0, -1.0], rows_1.shape), len(complex.vertices))
    n_1, n_2 = len(rows_1), len(rows_2)
    # entries of B_2 by edge: a stable sort of the triangle-major list keeps
    # each edge's triangles ascending
    edge = rows_2.ravel()
    order = np.argsort(edge, kind="stable")
    count = np.bincount(edge, minlength=n_1)
    slot = np.arange(edge.size) - np.repeat(np.cumsum(count) - count, count)
    cols = np.zeros((n_1, count.max(initial=0)), dtype=np.int64)
    signs = np.zeros(cols.shape)
    cols[edge[order], slot] = order // 3
    signs[edge[order], slot] = np.tile([1.0, -1.0, 1.0], n_2)[order]
    return down, _RowTable(cols, signs, n_2)


def hodge_operators_from_incidence(
    B_1: np.ndarray, B_2: np.ndarray, tables: tuple[_RowTable, _RowTable] | None = None
) -> dict[int, HodgeOperators]:
    """Hodge operators of the three levels, ``{0: ..., 1: ..., 2: ...}``, of
    the complex with incidences ``B_1`` and ``B_2`` (``(n_1, 0)``: no
    triangles), and their records (`HodgeOperators`) from one ``eig_sym`` per
    incidence, of ``B_1 B_1^T`` and of ``B_2^T B_2``. Both levels that read an
    incidence, ``B_0`` to ``B_3``, empty or not, hold it as one read-only
    float64 array (`_read_only`), exact on the integer entries of exact
    incidences.

    ``tables``, a clean complex's `_face_tables`, write both Grams and
    gather level 1's record columns, with the bits of the dense route
    (`_gram` and matrix products) that every other caller takes."""
    B_1, B_2 = _read_only(B_1), _read_only(B_2)
    n_0, n_1 = B_1.shape
    if B_2.shape[0] != n_1:
        raise ComplexError(
            f"incidence shape mismatch: B_2 has {B_2.shape[0]} rows, B_1 {n_1} columns"
        )
    n_2 = B_2.shape[1]
    B_0, B_3 = _read_only(np.zeros((0, n_0))), _read_only(np.zeros((n_2, 0)))
    A_1, A_2 = (B_1.T, B_2) if tables is None else tables
    gram = _gram if tables is None else _RowTable.gram
    # each record right after the decomposition it reads: decomposing both
    # Gram matrices first costs 2 MB more peak RSS at 300 points
    gram_0 = eig_sym(gram(A_1))
    ops = {0: HodgeOperators(0, n_0, B_0, B_1, zero_spectrum(n_0), record_of(gram_0))}
    down_1 = range_spectrum(A_1, gram_0)
    gram_2 = eig_sym(gram(A_2))
    ops[1] = HodgeOperators(1, n_1, B_1, B_2, down_1, range_spectrum(A_2, gram_2))
    ops[2] = HodgeOperators(2, n_2, B_2, B_3, record_of(gram_2), zero_spectrum(n_2))
    return ops


def _read_only(a) -> np.ndarray:
    """``a`` as a read-only float64 array: itself if it is one, else a
    read-only copy, which no caller can change under the records built on it."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
    return a


def scale_incidences(operators: dict[int, HodgeOperators], s: float) -> dict[int, HodgeOperators]:
    """The three levels ``operators`` (`hodge_operators_from_incidence`) on
    their incidences times ``s``: each incidence is multiplied once, and
    every record's eigenvalues by ``s^2``, its eigenvectors kept, so nothing
    is decomposed again. The new arrays are read-only."""

    def times(a: np.ndarray, factor: float) -> np.ndarray:
        a = a * factor
        a.flags.writeable = False
        return a

    B = {k: times(o.B_down, s) for k, o in operators.items()}
    B[3] = times(operators[2].B_up, s)
    scaled = {}
    for k, o in operators.items():
        down, up = (replace(spec, eigenvalues=times(spec.eigenvalues, s * s))
                    for spec in (o.spectrum_down, o.spectrum_up))
        scaled[k] = replace(o, B_down=B[k], B_up=B[k + 1], spectrum_down=down, spectrum_up=up)
    return scaled


def hodge_operators(complex: SimplicialComplex, k: int) -> HodgeOperators:
    """Hodge operators of the complex at level k in {0, 1, 2}: a lookup into
    the three levels that it assembles once, on first call, from its float64
    incidences (`hodge_operators_from_incidence`)."""
    if k not in (0, 1, 2):
        raise ComplexError(f"unsupported simplex level {k}, expected 0, 1 or 2")
    return complex._operators[k]


def random_points(n: int, rng_seed) -> np.ndarray:
    """n i.i.d. uniform points in the unit square, reproducible per seed."""
    if n < 3:
        raise ComplexError(f"need at least 3 points, got {n}")
    rng = np.random.default_rng(rng_seed)
    return rng.random((n, 2))


# ---------------------------------------------------------------------------
# Additive incidence perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbedComplex:
    """Complex ``base`` with additive errors ``E_1``, ``E_2`` on its
    incidence matrices, from which the rest is derived once, on first read:
    the perturbed incidences ``B_k = base.incidence(k) + E_k`` (`incidence`),
    the spectral norms ``eps_k = ||E_k||_2`` (`spectral.signal_norm`) that
    the stability bound reads (`epsilon`), and the Hodge operators of the
    perturbed incidences (`hodge_operators`). ``E_1`` and ``E_2`` are held
    read-only in float64, a writeable one given copied once, so what is
    derived always describes them.
    """

    base: SimplicialComplex
    E_1: np.ndarray
    E_2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "E_1", _read_only(self.E_1))
        object.__setattr__(self, "E_2", _read_only(self.E_2))

    @cached_property
    def _incidences(self) -> dict[int, np.ndarray]:
        B = {1: self.base.incidence(1) + self.E_1, 2: self.base.incidence(2) + self.E_2}
        for a in B.values():
            a.flags.writeable = False
        return B

    @cached_property
    def _epsilons(self) -> dict[int, float]:
        return {0: 0.0, 1: signal_norm(self.E_1), 2: signal_norm(self.E_2), 3: 0.0}

    def incidence(self, k: int) -> np.ndarray:
        """Perturbed ``B_k = base.incidence(k) + E_k`` for k in {1, 2}, in
        float64, built once; read-only. The levels that read it hold this
        array (`hodge_operators`). Another k raises as ``base`` does."""
        return self._incidences[k] if k in (1, 2) else self.base.incidence(k)

    def epsilon(self, k: int) -> float:
        """``||E_k||_2`` (`spectral.signal_norm`) for k in {1, 2}, computed
        once; 0 for the exact zero maps ``B_0`` and ``B_3``."""
        if k not in (0, 1, 2, 3):
            raise ComplexError(f"unsupported incidence level {k}, expected 0, 1, 2 or 3")
        return self._epsilons[k]

    @cached_property
    def _operators(self) -> dict[int, HodgeOperators]:
        return hodge_operators_from_incidence(self.incidence(1), self.incidence(2))

    def hodge_operators(self, k: int) -> HodgeOperators:
        """Hodge operators of the perturbed incidence matrices at level k in
        {0, 1, 2}, assembled as `hodge_operators` assembles those of a
        complex; another k raises as it does."""
        return self._operators[k] if k in (0, 1, 2) else hodge_operators(self.base, k)


def _noise_like(B: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Read-only Gaussian error on ``B`` with ``||B||_F / ||E||_F`` at
    ``snr_db``; zeros, drawing nothing, for a zero ``B`` or an SNR of ``inf``."""
    b_fro = np.linalg.norm(B)
    if b_fro == 0.0 or snr_db == math.inf:
        E = np.zeros(B.shape)
    else:
        G = rng.standard_normal(B.shape)
        E = G * (b_fro * 10.0 ** (-snr_db / 20.0) / np.linalg.norm(G))
    E.flags.writeable = False
    return E


def perturb_incidence(
    complex: SimplicialComplex, snr1_db: float, snr2_db: float, rng_seed
) -> PerturbedComplex:
    """Add zero-mean Gaussian noise to B_1 and B_2 at the requested SNRs.

    The noise is scaled so that ``10 log10(||B||_F^2 / ||E||_F^2)`` equals the
    requested value exactly; ``inf`` adds no error, ``-inf`` or NaN raises
    `ValueError`. ``E_1`` is drawn first, then ``E_2``; both are fresh and
    read-only, so `PerturbedComplex` holds them without a copy.
    """
    for snr in (snr1_db, snr2_db):
        if not snr > -math.inf:
            raise ValueError(f"an SNR must be a number of dB or inf, got {snr}")
    rng = np.random.default_rng(rng_seed)
    E1 = _noise_like(complex.incidence(1), snr1_db, rng)
    E2 = _noise_like(complex.incidence(2), snr2_db, rng)
    return PerturbedComplex(complex, E1, E2)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def complex_to_dict(complex: SimplicialComplex) -> dict:
    return {
        "vertices": list(complex.vertices),
        "edges": [list(e) for e in complex.edges],
        "triangles": [list(t) for t in complex.triangles],
        "positions": None
        if complex.positions is None
        else [[float(x), float(y)] for x, y in complex.positions],
    }


def complex_from_dict(data: dict) -> SimplicialComplex:
    """Rebuild (and re-validate) a complex from its JSON payload."""
    built = build_complex(
        edges=data.get("edges", ()),
        triangles=data.get("triangles", ()),
        vertices=data.get("vertices", ()),
    )
    positions = data.get("positions")
    if positions is None:
        return built
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (len(built.vertices), 2):
        raise ComplexError(
            f"positions shape {pos.shape} does not match "
            f"{len(built.vertices)} vertices"
        )
    return SimplicialComplex(built.vertices, built.edges, built.triangles, pos)


def save_complex(complex: SimplicialComplex, path) -> None:
    Path(path).write_text(json.dumps(complex_to_dict(complex), indent=1) + "\n")


def load_complex(path) -> SimplicialComplex:
    return complex_from_dict(json.loads(Path(path).read_text()))
