"""Mod-2 cell complexes: the Hom complex on its own cells, order complexes of
posets, free quotients with the first Stiefel-Whitney cocycle, mod-2
(co)homology, cup powers, and the height and connectivity invariants.

Every complex is a :class:`CellComplex`: each cell keeps its face list (the
cells of its mod-2 boundary) and its top pairs (which carry the cup
product).  The face lists are the rows of the coboundary tests as they
are; the Betti ranks read their transpose, the coface lists, built for one
dimension at a time and dropped once that rank is taken.  Every rank and
membership question goes to the one GF(2) elimination in
:mod:`homlab.gf2`, and no operator is ever stored as a dense matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (FreenessError, InputError, InvariantError, ResourceLimitError,
                     default_max_elements)
from .gf2 import in_column_span, pivots
from .hom import HomPoset, _find, _row_keys

__all__ = [
    "CellComplex",
    "CocycleClass",
    "HeightResult",
    "ConnResult",
    "order_complex",
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


class Table(NamedTuple):
    """Ragged rows over the cells of one dimension: row ``j`` is
    ``entries[starts[j]:starts[j + 1]]``."""

    starts: np.ndarray
    entries: np.ndarray

    @classmethod
    def empty(cls, n: int, width: tuple = ()) -> "Table":
        """``n`` empty rows; ``width`` is the shape of one entry."""
        return cls(np.zeros(n + 1, dtype=np.intp), np.zeros((0,) + width, dtype=np.intp))

    @classmethod
    def from_owners(cls, owner: np.ndarray, entries: np.ndarray, n: int) -> "Table":
        """Rows from each entry's row index; ``owner`` must be ascending."""
        starts = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=n), out=starts[1:])
        return cls(starts, entries)

    def fits(self, n: int, width: tuple, bounds: list) -> bool:
        """Whether this has ``n`` rows of entries of shape ``width``, each
        column in ``[0, bound)``."""
        starts, entries = self
        return (starts.shape == (n + 1,) and starts[0] == 0
                and starts[-1] == len(entries) and not (np.diff(starts) < 0).any()
                and entries.shape[1:] == width
                and not (entries.size and ((entries < 0).any()
                                           or (entries >= bounds).any())))

    def owner(self) -> np.ndarray:
        """The row index of every entry."""
        return np.repeat(np.arange(len(self.starts) - 1), np.diff(self.starts))

    def rows(self) -> list:
        entries = self.entries.tolist()
        starts = self.starts.tolist()
        return [entries[a:b] for a, b in zip(starts, starts[1:])]


class CellComplex:
    """A finite cell complex over GF(2), its cells named and grouped by
    dimension.

    ``cells[d][j]`` names the d-cell ``j``.  :func:`hom_complex` names each
    cell by its element index, one ascending 1-D integer array per
    dimension; :func:`quotient_with_w1` names each orbit by its lift's
    index; :func:`order_complex` names each d-simplex by its chain, one row
    of a 2-D integer array of shape (n_d, d + 1), the rows in lexicographic
    order.  ``faces[d]`` lists the (d-1)-cells of each d-cell's mod-2
    boundary, and ``tops[d]`` its top pairs ``(f, e)``: a (d-1)-face ``f``
    and the 1-cell ``e`` from the last vertex of ``f`` to the last vertex
    of the cell.  :func:`cup_power` runs on the top pairs.  Both tables are
    empty in dimension 0.
    """

    def __init__(self, cells: Sequence[Sequence], faces: Sequence[Table],
                 tops: Sequence[Table]):
        levels = list(cells)
        while levels and not len(levels[-1]):
            levels.pop()
        self.cells = tuple(levels)
        self.faces = tuple(faces[:len(levels)])
        self.tops = tuple(tops[:len(levels)])
        if not len(self.faces) == len(self.tops) == len(levels):
            raise InputError("a complex needs face and top tables in every dimension")
        for d, (face, top) in enumerate(zip(self.faces, self.tops)):
            n, below = self.n_cells(d), self.n_cells(d - 1)
            if not (face.fits(n, (), [below])
                    and top.fits(n, (2,), [below, self.n_cells(1)])):
                raise InputError(f"cell table of dimension {d} is malformed")

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def is_empty(self) -> bool:
        return not self.cells

    def n_cells(self, d: int) -> int:
        if 0 <= d < len(self.cells):
            return len(self.cells[d])
        return 0

    # an order complex's cells are its simplices
    n_simplices = n_cells


def _simplex_tables(names: Sequence[np.ndarray], parents: Sequence[np.ndarray]) -> tuple:
    """Face and top tables of the ordered simplicial complex whose d-simplex
    ``j``, the row ``names[d][j]``, is the (d-1)-simplex ``parents[d][j]``
    extended by its last vertex.

    A simplex's key is its parent's position and its last vertex
    (``_row_keys``), and the keys of each dimension must ascend strictly.
    The face omitting the last vertex is the parent.  For ``i < d`` the face
    omitting vertex ``i`` is the parent's face ``i`` extended by the same
    last vertex, found by its key; a vertex's one face is the empty simplex,
    the parent of every vertex.  Raises InputError on keys out of order or
    a missing face.
    """
    if not names:
        return [], []
    sizes = [(len(names[d - 1]) if d else 1, len(names[0])) for d in range(len(names))]
    lasts = [level[:, -1] for level in names]
    keys = [_row_keys(pair, size) for pair, size in zip(zip(parents, lasts), sizes)]
    if any((np.diff(k) <= 0).any() for k in keys):
        raise InputError("poset.above must list ascending indices")
    faces, tops = [Table.empty(len(names[0]))], [Table.empty(len(names[0]), (2,))]
    below = np.zeros((len(names[0]), 1), dtype=np.intp)
    for d in range(1, len(names)):
        parent, n = parents[d], len(names[d])
        table = np.empty((n, d + 1), dtype=np.intp)
        table[:, d] = parent
        for i in range(d):
            table[:, i] = _find(keys[d - 1],
                                _row_keys((below[parent, i], lasts[d]), sizes[d - 1]))
        if (table < 0).any():
            j, i = np.argwhere(table < 0)[0]
            s = names[d][j].tolist()
            raise InputError(f"face {tuple(s[:i] + s[i + 1:])} of {tuple(s)} is missing")
        row = np.arange(n)
        # the last edge of (v0..vd) is that of its face omitting v0
        last = row if d == 1 else tops[-1].entries[table[:, 0], 1]
        faces.append(Table(np.arange(n + 1) * (d + 1), table.ravel()))
        tops.append(Table(np.arange(n + 1), np.stack([parent, last], axis=1)))
        below = table
    return faces, tops


def _cofaces(face: Table, n: int) -> Table:
    """The transpose of the face table ``face`` over ``n`` cells one
    dimension down: row ``i`` lists, ascending, the cells with ``i`` among
    their faces."""
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(face.entries, minlength=n), out=starts[1:])
    # narrow, so that the stable sort is a radix sort
    order = np.argsort(face.entries.astype(np.min_scalar_type(n)), kind="stable")
    return Table(starts, face.owner()[order])


def betti_mod2(x: CellComplex) -> tuple:
    """GF(2) Betti numbers b_0..b_dim.

    ``rank ∂_{d+1}`` is taken as the rank of the coboundary ``δ_d``, for
    d = 0 .. dim-1 in ascending order (:func:`homlab.gf2.pivots`), its rows
    the coface lists of the d-cells: the transpose of ``faces[d + 1]``,
    built for one dimension at a time.  Clearing (de Silva, Morozov &
    Vejdemo-Johansson): the pivot ``p`` of a basis row of the d-coboundaries
    is the highest cell of a (d+1)-coboundary, which is a cocycle, so the
    coboundary of ``p`` lies in the span of the coboundaries of lower cells
    and its row is left out one degree up.  The top-dimension cells are
    never rows.  Most rows that stay have a highest coface no earlier row
    has, a new pivot (an apparent pair, as in Bauer's Ripser), and
    ``pivots`` never packs those into bit rows unless an XOR needs them.
    """
    if x.is_empty():
        return ()
    ranks = [0] * (x.dim + 2)
    keep = np.ones(x.n_cells(0), dtype=bool)
    for d in range(x.dim):
        found = pivots(*_cofaces(x.faces[d + 1], x.n_cells(d)), keep)
        ranks[d + 1] = len(found)
        keep = np.ones(x.n_cells(d + 1), dtype=bool)
        keep[found] = False
    return tuple(x.n_cells(d) - ranks[d] - ranks[d + 1] for d in range(x.dim + 1))


# ---------------------------------------------------------------------------
# Order complexes and the Hom complex


def order_complex(poset) -> CellComplex:
    """Order complex of a poset on 0..n-1, n = ``len(poset)``, whose
    ascending up-sets ``poset.above(i)`` lists (a Hom poset reads them off
    the upper covers of its cell relation).

    Simplices are the chains, ordered ascending: ``cells[d]`` holds one
    d-chain per row.  The up-sets are asked once per element, in element
    order, into one table; the d-chains extended by every entry of their
    last element's up-set are the (d+1)-chains, in lexicographic order
    when the d-chains are.  Raises ResourceLimitError beyond the chain cap:
    at once when the elements alone, each a chain, exceed it; while the
    up-sets are asked, since each entry is a 1-chain; and before a level
    past it is built.
    """
    cap = default_max_elements()
    n = len(poset)
    if n > cap:
        raise ResourceLimitError(f"order complex exceeds the cap of {cap} chains")
    ups, pairs = [], 0
    for i in range(n):
        ups.append(poset.above(i))
        pairs += len(ups[-1])
        if n + pairs > cap:
            raise ResourceLimitError(f"order complex exceeds the cap of {cap} chains")
    degree = np.fromiter(map(len, ups), dtype=np.intp, count=n)
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(degree, out=starts[1:])
    above = np.fromiter(itertools.chain.from_iterable(ups), dtype=np.intp, count=starts[-1])
    del ups
    levels, parents, count = [np.arange(n)[:, None]], [np.zeros(n, dtype=np.intp)], n
    # the loop ends on an empty level, which CellComplex trims
    while len(levels[-1]):
        chains = levels[-1]
        fan = degree[chains[:, -1]]
        count += int(fan.sum())
        if count > cap:
            raise ResourceLimitError(f"order complex exceeds the cap of {cap} chains")
        parent = np.repeat(np.arange(len(chains)), fan)
        # extension k of a chain ending at v is above[starts[v] + k]
        at = np.repeat(starts[chains[:, -1]] - (np.cumsum(fan) - fan), fan)
        levels.append(np.column_stack((chains[parent], above[at + np.arange(len(at))])))
        parents.append(parent)
    return CellComplex(levels, *_simplex_tables(levels, parents))


def _graded(dims: np.ndarray, *relations) -> tuple:
    """The cells ``0 .. len(dims) - 1``, cell ``i`` of dimension
    ``dims[i]``, grouped by dimension in their order, and per relation
    ``(owner, entries)``, owners ascending and both naming cells by number,
    one Table per dimension holding positions among the cells of their own
    dimensions."""
    # narrow, so that the stable sorts by dimension are radix sorts
    dims = dims.astype(np.min_scalar_type(dims.max(initial=0)))
    # the position of every cell among the cells of its dimension
    sizes = np.bincount(dims)
    order = np.argsort(dims, kind="stable")
    pos = np.empty(len(dims), dtype=np.intp)
    pos[order] = np.arange(len(dims)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cells = np.split(order, np.cumsum(sizes)[:-1])
    tables = []
    for owner, entries in relations:
        dim = dims[owner]
        by_dim = np.argsort(dim, kind="stable")
        split = np.cumsum(np.bincount(dim, minlength=len(cells)))[:-1]
        tables.append([Table.from_owners(o, e, len(level)) for o, e, level in
                       zip(np.split(pos[owner[by_dim]], split),
                           np.split(pos[entries[by_dim]], split), cells)])
    return cells, *tables


def hom_complex(poset: HomPoset) -> CellComplex:
    """The Hom complex on its own cells (Babson-Kozlov).

    Each element ``eta`` is a cell, the product of the simplices on its
    color sets, named by its index, of dimension ``sum(|eta(v)| - 1)``; the
    vertices are the atoms.  Its faces drop one color from one set of size
    at least 2.  Its top pairs are, for each such set ``eta(v)``, the face
    ``eta - top_v`` dropping the largest color of ``eta(v)`` and the 1-cell
    from ``max(eta - top_v)`` to ``max eta``, where ``max`` takes the
    largest color of every set.  The poset reads these off its elements
    (``HomPoset.cell_relation``); here they are grouped by dimension.
    """
    dims, face_owner, faces, top_owner, tops = poset.cell_relation()
    return CellComplex(*_graded(dims, (face_owner, faces), (top_owner, tops)))


# ---------------------------------------------------------------------------
# Free quotients and the first Stiefel-Whitney cocycle


@dataclass(frozen=True)
class CocycleClass:
    """A GF(2) cocycle representative on a fixed complex and degree."""

    complex: CellComplex
    degree: int
    values: np.ndarray  # uint8, aligned with cells of that degree

    def check_cocycle(self) -> bool:
        return not coboundary(self).values.any()

    def export(self) -> dict:
        return {
            "degree": self.degree,
            "support": [int(i) for i in np.nonzero(self.values)[0]],
        }


def _row_sums(table: Table, values: np.ndarray, n: int) -> np.ndarray:
    """Per row, the mod-2 sum of ``values`` over the row's entries."""
    sums = np.bincount(table.owner(), weights=values, minlength=n)
    return (sums.astype(np.int64) & 1).astype(np.uint8)


def coboundary(c: CocycleClass) -> CocycleClass:
    """delta c, a cochain one degree up."""
    x, k = c.complex, c.degree
    if k + 1 > x.dim:
        return CocycleClass(x, k + 1, np.zeros(0, dtype=np.uint8))
    table = x.faces[k + 1]
    return CocycleClass(x, k + 1, _row_sums(table, c.values[table.entries],
                                            x.n_cells(k + 1)))


def _boundary_squares_to_zero(x: CellComplex) -> bool:
    """Whether every face of a face of each cell is met an even number of
    times, i.e. the mod-2 boundary squares to zero.  A dimension is checked
    in runs of cells holding at most as many such pairs as its face table
    has entries (or one cell), so the check holds little beyond that table."""
    for d in range(2, x.dim + 1):
        outer, inner = x.faces[d], x.faces[d - 1]
        sizes = np.diff(inner.starts)
        # the pairs of the cells before each cell
        pairs = np.cumsum(np.append(0, sizes[outer.entries]))[outer.starts]
        a = 0
        while a < x.n_cells(d):
            b = max(a + 1, int(pairs.searchsorted(pairs[a] + len(outer.entries), "right")) - 1)
            starts = outer.starts[a:b + 1]
            faces = outer.entries[starts[0]:starts[-1]]
            lengths = sizes[faces]
            # entry k of the concatenated face rows of the faces sits at
            # inner.starts[face] + (k - the number of entries before that face)
            before = np.cumsum(lengths) - lengths
            at = np.repeat(inner.starts[faces] - before, lengths)
            grand = inner.entries[at + np.arange(len(at))]
            owner = np.repeat(np.arange(b - a), np.diff(pairs[a:b + 1]))
            if len(_odd_keys(_row_keys((owner, grand), (b - a, x.n_cells(d - 2))))):
                return False
            a = b
    return True


def _odd_keys(keys: np.ndarray) -> np.ndarray:
    """The keys met an odd number of times, ascending."""
    keys = np.sort(keys)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts[np.diff(starts, append=len(keys)) % 2 == 1]]


def quotient_with_w1(poset: HomPoset):
    """The free quotient of the Hom complex by ``poset.involution`` tau, on
    its cells, plus the twist cocycle of the double cover.

    A quotient cell is a tau-orbit of Hom cells, named by its lift, the
    element ``i`` with ``i < tau[i]``, and its faces and top pairs are the
    orbits of its lift's.  Only the lifts' rows of the cell relation are
    built (``HomPoset.cell_relation``); the faces are then sorted by orbit
    within each cell.  The atoms below their images are the section of the
    cover; the degree-1 cocycle takes value 1 on an edge orbit whose lift
    joins an atom of the section to one outside it.

    tau must be an order-two permutation of the elements (InputError)
    fixing none (FreenessError); that it comes from a flipping involution
    of the source and a loopless target, as ``induced_involution``
    guarantees, is taken as given.
    """
    tau, n = poset.involution, len(poset)
    idx = np.arange(n)
    if (tau is None or np.shape(tau) != (n,) or ((tau < 0) | (tau >= n)).any()
            or (tau[tau] != idx).any()):
        raise InputError("the involution is not an order-two permutation of the elements")
    if (tau == idx).any():
        raise FreenessError(f"involution fixes the element {(tau == idx).argmax()}")
    in_section = idx < tau
    lifts = np.flatnonzero(in_section)
    orbit = np.empty(n, dtype=np.intp)
    orbit[lifts] = orbit[tau[lifts]] = np.arange(len(lifts))
    dims, face_owner, faces, top_owner, tops = poset.cell_relation(lifts)
    # the faces of a lift edge are its two atoms
    crossing = np.bincount(face_owner[in_section[faces]], minlength=len(lifts)) & 1
    w1_vals = crossing[dims == 1].astype(np.uint8)
    # Nothing cancels.  On the flipped edge u - gamma(u) of the source, the
    # sets eta(u) and eta(gamma(u)) of a cell eta are disjoint, the target
    # being loopless; a face f below eta with tau(f) below eta too would
    # have f(gamma(u)) inside both, so no cell has two faces in one orbit.
    m = len(lifts)
    face_owner, faces = np.divmod(np.sort(_row_keys((face_owner, orbit[faces]), (m, m))), m)
    cells, face_tables, top_tables = _graded(dims, (face_owner, faces), (top_owner, orbit[tops]))
    # dropped before the checks, which then hold the build's peak
    del dims, face_owner, faces, top_owner, tops, orbit
    quotient = CellComplex([lifts[level] for level in cells], face_tables, top_tables)
    if not _boundary_squares_to_zero(quotient):
        raise InvariantError("the quotient's boundary does not square to zero")
    w1 = CocycleClass(quotient, 1, w1_vals)
    if not w1.check_cocycle():
        raise InvariantError("w1 representative is not a cocycle")
    return quotient, w1


def unit_class(x: CellComplex) -> CocycleClass:
    """The degree-0 class with value 1 on every vertex."""
    return CocycleClass(x, 0, np.ones(x.n_cells(0), dtype=np.uint8))


def cup_power(z: CocycleClass, n: int) -> CocycleClass:
    """n-th cup power of a degree-1 cocycle by the path recursion over top
    pairs: ``P`` is 1 on every vertex, and on a d-cell ``c``
    ``P(c) = sum over the top pairs (f, e) of c of P(f) * z(e)``.

    On an ordered simplex this is the front-face product, ``z`` on the
    consecutive edges.  On a Hom cell it counts the monotone paths through
    the cell's atoms, each weighted by ``z`` on its steps: the staircase
    (Eilenberg-Zilber) triangulation's front-face product pulled back to
    the cell.  Degrees above the complex dimension give the zero class.
    """
    if z.degree != 1:
        raise InputError("cup_power expects a degree-1 cocycle")
    x = z.complex
    if n == 0:
        return unit_class(x)
    if n > x.dim:
        return CocycleClass(x, n, np.zeros(0, dtype=np.uint8))
    vals = unit_class(x).values
    for d in range(1, n + 1):
        top = x.tops[d]
        vals = _row_sums(top, vals[top.entries[:, 0]] & z.values[top.entries[:, 1]],
                         x.n_cells(d))
    out = CocycleClass(x, n, vals)
    if not out.check_cocycle():
        raise InvariantError("cup power of a cocycle failed the cocycle check")
    return out


def is_coboundary(c: CocycleClass) -> bool:
    """True iff delta x = c is solvable over GF(2) (the class of c vanishes).

    The matrix of delta into degree k has the k-cells' face rows as its
    rows, so c is asked as a column of values on those rows: c joins them
    as column 0, below every (k-1)-cell, and is a coboundary exactly when
    0 is not a pivot of their span (otherwise some sum of face rows is a
    k-cycle on which c is 1).  No coface rows are built.  In degree 0 the
    rows are empty, and only the zero cochain is a coboundary.
    """
    x, k = c.complex, c.degree
    if not c.values.any():
        return True
    return in_column_span(*x.faces[k], c.values)


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

    ``full`` builds the free quotient of the Hom complex by tau-orbits of
    cells (``quotient_with_w1``), and finds the largest n whose cup power of
    the twist cocycle is not a coboundary.  It raises ResourceLimitError,
    before building anything, when the Hom complex has more cells than
    ``max_chains`` (by default ``default_max_elements()``).
    ``component`` answers exactly within {-inf, 0, >=1}: >= 1 iff some
    connected component is preserved by the involution.
    """
    if poset.involution is None:
        raise InputError("sw_height requires a poset with an involution")
    if method not in ("full", "component"):
        raise InputError(f"unknown height method {method!r}")
    if len(poset) == 0:
        return HeightResult(NEG_INF, True, method)
    if method == "component":
        if poset.invariant_components():
            return HeightResult(1, False, method)
        return HeightResult(0, True, method)
    cap = default_max_elements() if max_chains is None else max_chains
    if len(poset) > cap:
        raise ResourceLimitError(f"Hom complex exceeds the cap of {cap} cells; "
                                 "use method='component' for large posets")
    _, w1 = quotient_with_w1(poset)
    return HeightResult(w1_height(w1), True, "full")


def w1_height(w1: CocycleClass) -> float:
    """Largest n with w1^n not a coboundary on the quotient; -inf when empty."""
    if w1.complex.is_empty():
        return NEG_INF
    n = 0
    while n <= w1.complex.dim and not is_coboundary(cup_power(w1, n + 1)):
        n += 1
    return n


def conn_proxy(x: CellComplex) -> ConnResult:
    """Largest n with vanishing reduced GF(2) homology in degrees <= n.

    Exact for -inf (empty) and for values <= 0 (path-connectivity); values
    >= 1 are heuristic because simple-connectivity is not computed.
    """
    if x.is_empty():
        return ConnResult(NEG_INF, True)
    betti = betti_mod2(x)
    if betti[0] != 1:
        return ConnResult(-1, True)
    n = 0
    while n + 1 <= x.dim and betti[n + 1] == 0:
        n += 1
    if n + 1 > x.dim:
        return ConnResult(math.inf, False)  # homology vanishes in all degrees
    return ConnResult(n, n <= 0)
