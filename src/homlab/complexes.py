"""Ordered Delta-complexes, order complexes of posets, free quotients with the
first Stiefel-Whitney cocycle, mod-2 (co)homology, cup powers, and the height
and connectivity invariants.

Simplices are ordered tuples of distinct vertex identifiers; face maps are
tuple deletion (or, for a quotient, given tables), and each complex keeps the
index of every face of every simplex.  Boundaries and coboundaries are read
off that table as sparse bit rows, and all rank and membership questions go
to the one GF(2) elimination in :mod:`homlab.gf2`; no operator is ever stored
as a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FreenessError, InputError, InvariantError, ResourceLimitError
from .gf2 import rank_sparse, reduce, span
from .hom import HomPoset, default_max_elements

__all__ = [
    "OrderedDeltaComplex",
    "CocycleClass",
    "HeightResult",
    "ConnResult",
    "order_complex",
    "order_complex_from_relation",
    "hom_complex",
    "quotient_with_w1",
    "betti_mod2",
    "cup_power",
    "unit_class",
    "is_coboundary",
    "sw_height",
    "w1_height",
    "conn_proxy",
]


class OrderedDeltaComplex:
    """Simplices by dimension, each an ordered tuple of distinct vertices.

    Simplex tuples are unique per dimension.  Without ``faces``, every face
    (obtained by deleting one position) of every simplex must be present and
    is resolved by tuple lookup.  With ``faces`` (one table per dimension, as
    in the ``faces`` attribute), the tuples only name the simplices and the
    tables give the face maps, which must satisfy the simplicial identities;
    a quotient complex is built this way, since its faces are not tuple
    deletions of its names.
    """

    def __init__(self, simplices_by_dim: Sequence[Sequence[tuple]],
                 faces: Optional[Sequence] = None):
        dims = [tuple(tuple(s) for s in level) for level in simplices_by_dim]
        while dims and not dims[-1]:
            dims.pop()
        self.simplices = tuple(dims)
        self._index = []
        for d, level in enumerate(self.simplices):
            idx = {}
            for s in level:
                if len(s) != d + 1:
                    raise InputError(f"simplex {s!r} has wrong length for dimension {d}")
                if len(set(s)) != len(s):
                    raise InputError(f"simplex {s!r} repeats a vertex")
                if s in idx:
                    raise InputError(f"duplicate simplex {s!r}")
                idx[s] = len(idx)
            self._index.append(idx)
        # faces[d][j, i]: index of the face of simplex j of dimension d
        # that omits its vertex i
        self.faces = tuple(self._face_tables() if faces is None
                           else self._checked_faces(faces))

    def _face_tables(self) -> list:
        faces = [np.zeros((self.n_simplices(0), 0), dtype=np.intp)]
        for d in range(1, len(self.simplices)):
            below, table = self._index[d - 1], []
            for s in self.simplices[d]:
                row = []
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face not in below:
                        raise InputError(f"face {face!r} of {s!r} is missing")
                    row.append(below[face])
                table.append(row)
            faces.append(np.array(table, dtype=np.intp))
        return faces

    def _checked_faces(self, faces: Sequence) -> list:
        out = [np.zeros((self.n_simplices(0), 0), dtype=np.intp)]
        for d in range(1, len(self.simplices)):
            table = np.asarray(faces[d], dtype=np.intp)
            if table.shape != (self.n_simplices(d), d + 1):
                raise InputError(f"face table of dimension {d} has shape {table.shape}")
            if table.size and not 0 <= table.min() <= table.max() < self.n_simplices(d - 1):
                raise InputError(f"face table of dimension {d} points outside "
                                 f"dimension {d - 1}")
            if d >= 2:  # d_i d_j = d_{j-1} d_i for i < j
                below = out[-1]
                for j in range(1, d + 1):
                    for i in range(j):
                        if not np.array_equal(below[table[:, j], i],
                                              below[table[:, i], j - 1]):
                            raise InputError(f"face tables of dimension {d} break "
                                             "the simplicial identities")
            out.append(table)
        return out

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def is_empty(self) -> bool:
        return not self.simplices

    def n_simplices(self, d: int) -> int:
        if 0 <= d < len(self.simplices):
            return len(self.simplices[d])
        return 0

    def simplex_index(self, d: int, s: tuple) -> int:
        try:
            return self._index[d][tuple(s)]
        except (IndexError, KeyError):
            raise InputError(f"no {d}-simplex {s!r}") from None

    def export(self, faces: bool = False) -> dict:
        """The simplices by dimension; with ``faces``, also the face tables
        of dimensions 1 and up, which a complex given its tables needs."""
        out = {"simplices": [[list(s) for s in level] for level in self.simplices]}
        if faces:
            out["faces"] = [table.tolist() for table in self.faces[1:]]
        return out


def _boundary_rank(x: OrderedDeltaComplex, d: int) -> int:
    """GF(2) rank of the boundary from d-chains, one bit row per d-simplex."""
    if d <= 0 or d > x.dim:
        return 0
    return rank_sparse(x.faces[d].tolist(), x.n_simplices(d - 1))


def betti_mod2(x: OrderedDeltaComplex, reduced: bool = False) -> tuple:
    """GF(2) Betti numbers b_0..b_dim (reduced variant subtracts one from b_0)."""
    if x.is_empty():
        return ()
    ranks = [_boundary_rank(x, d) for d in range(x.dim + 2)]
    out = [x.n_simplices(d) - ranks[d] - ranks[d + 1] for d in range(x.dim + 1)]
    if reduced:
        out[0] -= 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Order complexes and the staircase Hom complex


def _chains(n: int, above: Callable[[int], list],
            max_chains: Optional[int]) -> OrderedDeltaComplex:
    """Order complex of the poset on 0..n-1 whose up-sets ``above`` lists.

    Simplices are the chains, ordered ascending; raises ResourceLimitError
    beyond the chain cap.  ``above(i)`` is asked on the first chain that
    ends at ``i``, so the cap bounds the up-set work too.
    """
    cap = default_max_elements() if max_chains is None else max_chains
    greater = [None] * n
    levels = []
    count = 0
    chain = []

    def record() -> None:
        nonlocal count
        count += 1
        if count > cap:
            raise ResourceLimitError(f"order complex exceeds the cap of {cap} chains")
        d = len(chain) - 1
        while len(levels) <= d:
            levels.append([])
        levels[d].append(tuple(chain))

    def extend(last: int) -> None:
        record()
        if greater[last] is None:
            greater[last] = above(last)
        for j in greater[last]:
            chain.append(j)
            extend(j)
            chain.pop()

    for i in range(n):
        chain = [i]
        extend(i)
    for level in levels:
        level.sort()
    return OrderedDeltaComplex(levels)


def order_complex_from_relation(n: int, leq: Callable[[int, int], bool],
                                max_chains: Optional[int] = None) -> OrderedDeltaComplex:
    """Order complex of the poset on 0..n-1 under ``leq``; each up-set is a
    scan of ``leq`` over all n elements."""
    return _chains(n, lambda i: [j for j in range(n) if j != i and leq(i, j)],
                   max_chains)


def order_complex(poset: HomPoset,
                  max_chains: Optional[int] = None) -> OrderedDeltaComplex:
    """Order complex of a Hom poset; vertices are element indices and each
    up-set is walked over upper covers by ``HomPoset.above``."""
    return _chains(len(poset), poset.above, max_chains)


def hom_complex(poset: HomPoset,
                max_chains: Optional[int] = None) -> OrderedDeltaComplex:
    """Staircase (Eilenberg-Zilber) triangulation of the Hom complex.

    Each element is a cell, the product of the simplices on its color sets;
    ordering each set by target index triangulates every product by its
    monotone chains.  The vertices are the atoms (element indices of graph
    maps), and the simplices are the chains of atoms that are pairwise
    related under ``HomPoset.atoms_above``, ascending: pointwise order
    implies canonical order, so a chain ascends in index too.  Chains are
    walked in lexicographic order by intersecting up-neighbor bitsets over
    atom positions; raises ResourceLimitError beyond the chain cap.
    """
    cap = default_max_elements() if max_chains is None else max_chains
    atoms = poset.atoms
    slot = {a: k for k, a in enumerate(atoms)}
    up = []
    for a in atoms:
        bits = 0
        for b in poset.atoms_above(a):
            bits |= 1 << slot[b]
        up.append(bits)
    levels = []
    count = 0

    def extend(chain: tuple, candidates: int) -> None:
        nonlocal count
        count += 1
        if count > cap:
            raise ResourceLimitError(f"Hom complex exceeds the cap of {cap} chains")
        if len(levels) < len(chain):
            levels.append([])
        levels[len(chain) - 1].append(chain)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            k = low.bit_length() - 1
            extend(chain + (atoms[k],), candidates & up[k])

    for k, a in enumerate(atoms):
        extend((a,), up[k])
    return OrderedDeltaComplex(levels)


# ---------------------------------------------------------------------------
# Free quotients and the first Stiefel-Whitney cocycle


@dataclass(frozen=True)
class CocycleClass:
    """A GF(2) cocycle representative on a fixed complex and degree."""

    complex: OrderedDeltaComplex
    degree: int
    values: np.ndarray  # uint8, aligned with simplices of that degree

    def is_zero(self) -> bool:
        return not self.values.any()

    def check_cocycle(self) -> bool:
        return not coboundary(self).values.any()

    def export(self) -> dict:
        return {
            "degree": self.degree,
            "support": [int(i) for i in np.nonzero(self.values)[0]],
        }


def coboundary(c: CocycleClass) -> CocycleClass:
    """delta c, a cochain one degree up."""
    x, k = c.complex, c.degree
    if k + 1 > x.dim:
        return CocycleClass(x, k + 1, np.zeros(0, dtype=np.uint8))
    vals = c.values[x.faces[k + 1]].sum(1) & 1
    return CocycleClass(x, k + 1, vals.astype(np.uint8))


def quotient_with_w1(x: OrderedDeltaComplex, tau: dict):
    """Quotient of a free simplicial involution, plus the twist cocycle of the
    resulting double cover.

    ``tau`` maps vertices to vertices; it must be simplicial, of order two,
    and move every simplex entirely off itself.  A quotient simplex is a
    tau-orbit of simplices, named by its representative lift (the one met
    first), and the face of an orbit is the orbit of the lift's face, so the
    quotient carries its face tables.  The vertex lifts are the section of
    the cover; the degree-1 cocycle takes value 1 on an edge orbit with lift
    ``(a, b)`` exactly when one of ``a``, ``b`` is in the section and the
    other is not.
    """
    if x.is_empty():
        return x, CocycleClass(x, 1, np.zeros(0, dtype=np.uint8))
    verts = [s[0] for s in x.simplices[0]]
    vpos = {v: i for i, v in enumerate(verts)}
    for v in verts:
        if tau.get(v) not in vpos:
            raise InputError(f"involution undefined or off-complex at {v!r}")
        if tau[tau[v]] != v:
            raise InputError("involution is not of order two")

    image = tau.__getitem__
    orbit_of = []  # per dim: orbit index of every simplex
    lifts = []  # per dim: index of each orbit's representative lift
    for d, level in enumerate(x.simplices):
        index = x._index[d]
        orbit = [-1] * len(level)
        reps = []
        for j, s in enumerate(level):
            if orbit[j] >= 0:
                continue  # the image of a lift already taken
            ts = tuple(map(image, s))
            t = index.get(ts)
            if t is None:
                raise InputError(f"involution is not simplicial on {s!r}")
            if not set(s).isdisjoint(ts):
                raise FreenessError(f"simplex {s!r} meets its image")
            orbit[j] = orbit[t] = len(reps)
            reps.append(j)
        if 2 * len(reps) != len(level):
            raise InvariantError("free quotient must halve each simplex count")
        orbit_of.append(np.array(orbit, dtype=np.intp))
        lifts.append(np.array(reps, dtype=np.intp))
    quotient = OrderedDeltaComplex(
        [[level[j] for j in reps] for level, reps in zip(x.simplices, lifts)],
        faces=[orbit_of[d - 1][x.faces[d][lifts[d]]] if d else None
               for d in range(len(lifts))])

    # vertex j is in the section iff it is its orbit's lift
    in_section = lifts[0][orbit_of[0]] == np.arange(len(verts))
    if quotient.dim >= 1:
        ends = x.faces[1][lifts[1]]  # the two vertex indices of each edge lift
        w1_vals = (in_section[ends[:, 0]] ^ in_section[ends[:, 1]]).astype(np.uint8)
    else:
        w1_vals = np.zeros(0, dtype=np.uint8)
    w1 = CocycleClass(quotient, 1, w1_vals)
    if not w1.check_cocycle():
        raise InvariantError("w1 representative is not a cocycle")
    return quotient, w1


def unit_class(x: OrderedDeltaComplex) -> CocycleClass:
    """The degree-0 class with value 1 on every vertex."""
    return CocycleClass(x, 0, np.ones(x.n_simplices(0), dtype=np.uint8))


def _front_edges(x: OrderedDeltaComplex, n: int) -> np.ndarray:
    """edges[j, i]: index of the edge (v_i, v_{i+1}) of n-simplex j, n >= 1.

    Read off the face tables: the first n - 1 edges are those of the face
    omitting v_n, and the last is the last edge of the face omitting v_0.
    """
    edges = np.arange(x.n_simplices(1), dtype=np.intp)[:, None]
    for d in range(2, n + 1):
        f = x.faces[d]
        edges = np.hstack([edges[f[:, d]], edges[f[:, 0], -1:]])
    return edges


def cup_power(z: CocycleClass, n: int) -> CocycleClass:
    """n-th cup power of a degree-1 cocycle via the front/back-face product.

    On an n-simplex (v0, ..., vn) the value is the product of z on the
    consecutive edges (v_{i-1}, v_i).  Degrees above the complex dimension
    give the zero class.
    """
    if z.degree != 1:
        raise InputError("cup_power expects a degree-1 cocycle")
    x = z.complex
    if n == 0:
        return unit_class(x)
    if n > x.dim:
        return CocycleClass(x, n, np.zeros(0, dtype=np.uint8))
    vals = z.values[_front_edges(x, n)].min(axis=1)
    out = CocycleClass(x, n, vals)
    if not out.check_cocycle():
        raise InvariantError("cup power of a cocycle failed the cocycle check")
    return out


def is_coboundary(c: CocycleClass) -> bool:
    """True iff delta x = c is solvable over GF(2) (the class of c vanishes)."""
    x, k = c.complex, c.degree
    if c.values.size == 0 or not c.values.any():
        return True
    if k == 0:
        return False  # unreduced: only the zero 0-cochain is a coboundary
    # delta of a (k-1)-simplex: one bit per k-simplex that has it as a face
    cofaces = [0] * x.n_simplices(k - 1)
    for j, row in enumerate(x.faces[k].tolist()):
        for f in row:
            cofaces[f] |= 1 << j
    target = sum(1 << j for j in np.flatnonzero(c.values).tolist())
    return reduce(target, span(cofaces)) == 0


# ---------------------------------------------------------------------------
# Height and connectivity


NEG_INF = -math.inf


@dataclass(frozen=True)
class HeightResult:
    """Largest n with a nonvanishing n-th cup power of w1; -inf when empty.

    ``exact`` is False only for the component method's >= 1 answer, in which
    case ``value`` is a sound lower bound.
    """

    value: float
    exact: bool
    method: str


@dataclass(frozen=True)
class ConnResult:
    """Homological connectivity proxy; exact only in {-inf, -1, 0}."""

    value: float
    exact: bool


def sw_height(poset: HomPoset, method: str = "full",
              max_chains: Optional[int] = None) -> HeightResult:
    """Height of the free involution on a Hom poset.

    ``full`` builds the staircase triangulation (``hom_complex``), takes the
    free quotient, and finds the largest n whose cup power of the twist
    cocycle is not a coboundary.
    ``component`` answers exactly within {-inf, 0, >=1}: >= 1 iff some
    connected component is preserved by the involution.
    """
    if poset.involution is None:
        raise InputError("sw_height requires a poset with an involution")
    if len(poset) == 0:
        return HeightResult(NEG_INF, True, method)
    if method == "component":
        if poset.invariant_components():
            return HeightResult(1, False, method)
        return HeightResult(0, True, method)
    if method != "full":
        raise InputError(f"unknown height method {method!r}")

    try:
        x = hom_complex(poset, max_chains)
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            f"{exc}; use method='component' for large posets"
        ) from None
    _, w1 = quotient_with_w1(x, dict(enumerate(poset.involution)))
    return HeightResult(w1_height(w1), True, "full")


def w1_height(w1: CocycleClass) -> float:
    """Largest n with w1^n not a coboundary on the quotient; -inf when empty."""
    if w1.complex.is_empty():
        return NEG_INF
    n = 0
    while n <= w1.complex.dim and not is_coboundary(cup_power(w1, n + 1)):
        n += 1
    return n


def conn_proxy(x: OrderedDeltaComplex) -> ConnResult:
    """Largest n with vanishing reduced GF(2) homology in degrees <= n.

    Exact for -inf (empty) and for values <= 0 (path-connectivity); values
    >= 1 are heuristic because simple-connectivity is not computed.
    """
    if x.is_empty():
        return ConnResult(NEG_INF, True)
    reduced = betti_mod2(x, reduced=True)
    if reduced[0] != 0:
        return ConnResult(-1, True)
    n = 0
    while n + 1 <= x.dim and reduced[n + 1] == 0:
        n += 1
    if n + 1 > x.dim:
        return ConnResult(math.inf, False)  # homology vanishes in all degrees
    return ConnResult(n, n <= 0)
