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
keeps the result (`hodge_operators`). The dense Laplacians are formed on
first read, in float64, exact on exact incidences.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .spectral import HodgeSpectrum, eig_sym, range_spectrum, record_of, zero_spectrum


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

    def incidence(self, k: int) -> np.ndarray:
        """``B_k`` (`boundary_matrix`) in float64, built once per complex;
        read-only. The levels of the complex that read it hold this array
        (`hodge_operators`)."""
        if k not in self._incidences:
            self._incidences[k] = _read_only(boundary_matrix(self, k))
        return self._incidences[k]

    @cached_property
    def _operators(self) -> dict[int, HodgeOperators]:
        return hodge_operators_from_incidence(self.incidence(1), self.incidence(2))

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
    vertices = np.array(complex.vertices, dtype=np.int64)

    def keys(simplices) -> np.ndarray:
        # Rows of vertex ids -> integers that sort like the rows, as the
        # simplex lists are sorted.
        pos = _positions(vertices, np.array(simplices, dtype=np.int64).reshape(-1, k))
        return np.ravel_multi_index(tuple(pos.T), (len(vertices),) * k)

    cells = np.array(complex.simplices(k), dtype=np.int64).reshape(-1, k + 1)
    faces = keys(complex.simplices(k - 1))
    B = np.zeros((len(faces), len(cells)), dtype=np.int64)
    cols = np.arange(len(cells))
    for p in range(k + 1):
        B[_positions(faces, keys(np.delete(cells, p, axis=1))), cols] = (-1) ** p
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
      small (``n_0 x n_0``, ``n_2 x n_2``) decompositions;
    - level 1 down and up come from those same two decompositions
      (`spectral.range_spectrum`), so no ``n_1 x n_1`` matrix is decomposed;
    - the zero operators (level 0 down, level 2 up, level 1 up without
      triangles) are ``(0, I)`` (`spectral.zero_spectrum`), a record that
      lists only kernel modes.
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


def hodge_operators_from_incidence(
    B_1: np.ndarray, B_2: np.ndarray | None
) -> dict[int, HodgeOperators]:
    """Hodge operators of the three levels, ``{0: ..., 1: ..., 2: ...}``, of
    the complex with incidences ``B_1`` and ``B_2`` (None: no triangles), and
    their records (`HodgeOperators`) from one ``eig_sym`` per incidence, of
    ``B_1 B_1^T`` and of ``B_2^T B_2``. Both levels that read an incidence,
    ``B_0`` to ``B_3``, empty or not, hold it as one read-only float64 array
    (`_read_only`), exact on the integer entries of exact incidences."""
    if B_1 is None:
        raise ComplexError("assembly needs B_1")
    B_1 = _read_only(B_1)
    n_0, n_1 = B_1.shape
    B_2 = _read_only(np.zeros((n_1, 0)) if B_2 is None else B_2)
    if B_2.shape[0] != n_1:
        raise ComplexError(
            f"incidence shape mismatch: B_2 has {B_2.shape[0]} rows, B_1 {n_1} columns"
        )
    n_2 = B_2.shape[1]
    B_0, B_3 = _read_only(np.zeros((0, n_0))), _read_only(np.zeros((n_2, 0)))
    # each record right after the decomposition it reads: decomposing both
    # Gram matrices first costs 2 MB more peak RSS at 300 points
    gram_0 = eig_sym(_gram(B_1.T))
    ops = {0: HodgeOperators(0, n_0, B_0, B_1, zero_spectrum(n_0), record_of(gram_0))}
    down_1 = range_spectrum(B_1.T, gram_0)
    gram_2 = eig_sym(_gram(B_2))
    ops[1] = HodgeOperators(1, n_1, B_1, B_2, down_1, range_spectrum(B_2, gram_2))
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
    """Complex with additive Gaussian noise on its incidence matrices.

    ``epsilon_k`` are measured spectral norms of the error matrices, matching
    the ``||E_k|| <= eps_k`` form used by the stability bound. An infinite SNR
    leaves the corresponding incidence matrix untouched. The arrays are held
    read-only in float64, and a writeable one given is copied, so the cached
    records always describe ``B_1`` and ``B_2``.
    """

    base: SimplicialComplex
    snr1_db: float
    snr2_db: float
    E_1: np.ndarray
    E_2: np.ndarray
    B_1: np.ndarray
    B_2: np.ndarray
    epsilon_1: float
    epsilon_2: float

    def __post_init__(self):
        for name in ("E_1", "E_2", "B_1", "B_2"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @cached_property
    def _operators(self) -> dict[int, HodgeOperators]:
        return hodge_operators_from_incidence(self.B_1, self.B_2)

    def hodge_operators(self, k: int) -> HodgeOperators:
        """Hodge operators of the perturbed incidence matrices at level k in
        {0, 1, 2}, assembled as `hodge_operators` assembles those of a
        complex."""
        return self._operators[k]


def _noise_like(B: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    if B.size == 0 or math.isinf(snr_db):
        return np.zeros_like(B, dtype=np.float64)
    b_fro = np.linalg.norm(B)
    if b_fro == 0.0:
        return np.zeros_like(B, dtype=np.float64)
    G = rng.standard_normal(B.shape)
    target = b_fro * 10.0 ** (-snr_db / 20.0)
    return G * (target / np.linalg.norm(G))


def _spectral_norm(E: np.ndarray) -> float:
    """``||E||_2`` (`np.linalg.norm` order 2), 0 for an empty ``E``."""
    return float(np.linalg.svd(E, compute_uv=False).max(initial=0.0))


def perturb_incidence(
    complex: SimplicialComplex, snr1_db: float, snr2_db: float, rng_seed
) -> PerturbedComplex:
    """Add zero-mean Gaussian noise to B_1 and B_2 at the requested SNRs.

    The noise is scaled so that ``10 log10(||B||_F^2 / ||E||_F^2)`` equals the
    requested value exactly; the spectral-norm bounds ``epsilon_k`` are then
    measured from the realized noise. The four arrays are fresh, and made
    read-only here, so `PerturbedComplex` holds them without a copy.
    """
    rng = np.random.default_rng(rng_seed)
    B1 = complex.incidence(1)
    B2 = complex.incidence(2)
    E1 = _noise_like(B1, snr1_db, rng)
    E2 = _noise_like(B2, snr2_db, rng)
    P1, P2 = B1 + E1, B2 + E2
    for a in (E1, E2, P1, P2):
        a.flags.writeable = False
    return PerturbedComplex(
        base=complex,
        snr1_db=float(snr1_db),
        snr2_db=float(snr2_db),
        E_1=E1,
        E_2=E2,
        B_1=P1,
        B_2=P2,
        epsilon_1=_spectral_norm(E1),
        epsilon_2=_spectral_norm(E2),
    )


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
