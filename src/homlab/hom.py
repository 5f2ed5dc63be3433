"""Multihomomorphisms, the Hom poset, its induced involution, components,
and single-vertex-move path certificates.

An element of Hom(G, H) is a row of bitmasks over the vertices of H, one
mask per vertex of G in canonical order; a Hom poset holds its elements as
one 2-D numpy array of such rows, and builds them as tuples only on demand.
The canonical element order is lexicographic on the sequence of color sets
(each set read as its sorted tuple of target indices).
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, InvariantError, ResourceLimitError, default_max_elements
from .graphs import (Graph, GraphMap, Z2Graph, _adjacency_masks, _graph_maps, _mask_key,
                     _moves, is_graph_map)

__all__ = [
    "HomPoset",
    "PathCertificate",
    "CertificateCheck",
    "enumerate_hom",
    "induced_map",
    "induced_involution",
    "iter_graph_maps",
    "find_path",
    "verify_certificate",
]

def _atom(target: Graph, row: tuple) -> tuple:
    """A coloring as an atom: one singleton mask per source vertex."""
    return tuple(1 << target.index(w) for w in row)


def _recolorings(moves: Callable[[Sequence, int], int], a: tuple):
    """The atoms one move from ``a``, by vertex and then color order."""
    for v in range(len(a)):
        head, tail = a[:v], a[v + 1:]
        for k in _mask_key(moves(a, v)):
            yield head + (1 << k,) + tail


def _mask_dtype(colors: int) -> np.dtype:
    """The narrowest unsigned integer type with ``colors`` bits; Python ints
    (``object``) beyond 64 colors."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if colors <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    return np.dtype(object)


def _row_keys(columns, sizes) -> np.ndarray:
    """The key of every row of the index columns ``columns``, column ``v``
    in ``range(sizes[v])``: the row read as a mixed-radix number, built by
    Horner's rule one column at a time, so keys order as the rows do
    lexicographically.  int64 when the product of ``sizes`` is below 2**63,
    else Python ints (``object``)."""
    dtype = np.dtype(np.int64) if math.prod(sizes) < 2**63 else np.dtype(object)
    columns = iter(columns)
    keys = next(columns).astype(dtype)
    for column, size in zip(columns, sizes[1:]):
        keys *= size
        keys += column
    return keys


def _find(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Per key of ``wanted``, its position in the ascending ``keys``, or -1."""
    if not len(keys):
        return np.full(len(wanted), -1, dtype=np.intp)
    at = np.searchsorted(keys, wanted)
    np.minimum(at, len(keys) - 1, out=at)
    at[keys[at] != wanted] = -1
    return at


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: it is shared by every copy of a poset."""
    a.flags.writeable = False
    return a


def _hooked_roots(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per node of the graph on ``range(n)`` with edges ``src``-``dst``, the
    smallest node of its component.

    Each round hooks the larger root of every edge whose ends lie in two
    trees onto the smaller one, then jumps pointers until every node points
    at its root.  Nodes only ever point lower, so a root is the smallest
    node of its tree, and the rounds stop when no edge joins two trees.
    """
    root = np.arange(n)
    while True:
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            return root
        a, b = a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped


class _Rows:
    """A Hom poset's elements as one 2-D array of color masks, one row per
    element in canonical order, and what is read off it, each built on
    first use.  Copies of a poset share one, and with it every view.

    Rows are looked up by key: each mask that occurs is ranked in canonical
    set order (``_mask_key``), and a row's key is its ranks read as a number
    in radix the number of ranks (``_row_keys``), so the keys of the rows
    ascend and ``_find`` finds a row's position (``find``).
    """

    def __init__(self, source: Graph, target: Graph, rows: np.ndarray):
        self.source, self.target, self.rows = source, target, rows

    @cached_property
    def elements(self) -> tuple:
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def atoms(self) -> np.ndarray:
        return _frozen(np.flatnonzero(((self.rows & (self.rows - 1)) == 0).all(axis=1)))

    @cached_property
    def rank(self) -> dict:
        """Mask -> its rank among the masks that occur, in canonical order."""
        # a stable sort is a radix sort on narrow masks
        values = np.sort(self.rows, axis=None, kind="stable")
        first = np.ones(len(values), dtype=bool)
        first[1:] = values[1:] != values[:-1]
        canonical = sorted(values[first].tolist(), key=_mask_key)
        return dict(zip(canonical, range(len(canonical))))

    @cached_property
    def ranks(self) -> np.ndarray:
        """``rows`` with each mask replaced by its rank."""
        values = np.array(sorted(self.rank), dtype=self.rows.dtype)
        table = np.array([self.rank[m] for m in values.tolist()],
                         dtype=np.min_scalar_type(max(len(values) - 1, 0)))
        out = np.empty(self.rows.shape, dtype=table.dtype)
        for v in range(out.shape[1]):
            out[:, v] = table[np.searchsorted(values, self.rows[:, v])]
        return out

    @cached_property
    def sizes(self) -> list:
        """The radix of every column of a key."""
        return [len(self.rank)] * self.rows.shape[1]

    def keys(self) -> np.ndarray:
        """The key of every row, ascending."""
        return _row_keys(self.ranks.T, self.sizes)

    def find(self, columns) -> np.ndarray:
        """Per row of ranks, given as one array per vertex, the position of
        the element with them, or -1."""
        return _find(self.keys(), _row_keys(columns, self.sizes))

    def pullback(self, columns: list, codomain: "_Rows") -> np.ndarray:
        """Per row, the position in ``codomain`` of the row made of its ranks
        at ``columns``, or -1; another array's ranks are first looked up
        once per distinct mask, in its ``rank`` dict."""
        ranks = self.ranks
        if codomain is self:
            return self.find(ranks[:, c] for c in columns)
        table = np.array([codomain.rank.get(m, -1) for m in self.rank], dtype=np.intp)
        images = table[ranks[:, columns]]
        at = codomain.find(np.maximum(images, 0).T)
        at[(images < 0).any(axis=1)] = -1
        return at

    @cached_property
    def by_rank(self) -> tuple:
        """Per mask, by rank: its number of faces (its size, 0 for a
        singleton), where they start among the ranks of all the faces (one
        color dropped, by color), those ranks, and the ranks of its largest
        color and of its two largest colors."""
        rank, dtype = self.rank, self.ranks.dtype
        colors = [_mask_key(m) for m in rank]
        count = np.array([len(c) if len(c) > 1 else 0 for c in colors],
                         dtype=np.min_scalar_type(len(self.target.vertices)))
        faces = [rank[m ^ 1 << c] for m, cs in zip(rank, colors) if len(cs) > 1 for c in cs]
        peak = [rank[1 << cs[-1]] for cs in colors]
        pair = [rank[1 << cs[-1] | 1 << cs[-2]] if len(cs) > 1 else 0 for cs in colors]
        return (count, np.cumsum(count, dtype=np.intp) - count,
                *(np.array(a, dtype=dtype) for a in (faces, peak, pair)))

    def cell_relation(self, rows: Optional[np.ndarray] = None) -> tuple:
        """See ``HomPoset.cell_relation``."""
        count, first, drops, peak, pair = self.by_rank
        keys = self.keys()
        own, ranks = (keys, self.ranks) if rows is None else (keys[rows], self.ranks[rows])
        flat = ranks.ravel()
        n, ns = ranks.shape
        # a vertex's place value in a key: the key of its unit row
        weight = _row_keys(np.eye(ns, dtype=np.intp), self.sizes)
        # the faces per element and vertex (flat position element * ns +
        # vertex), then by color; a face changes one rank of its cell, and
        # its key by the change times that vertex's place value
        count = count[flat]
        ends = np.cumsum(count, dtype=np.intp)
        at = np.repeat(np.arange(n * ns), count)
        owner, vertex = np.divmod(at, ns)
        new = drops[np.repeat(first[flat] - ends + count, count) + np.arange(len(at))]
        faces = _find(keys, own[owner] + (new.astype(keys.dtype) - flat[at]) * weight[vertex])
        del at, new, vertex
        # per set of two colors or more: its last face drops its largest
        # color, and its 1-cell takes the largest color of every set but
        # the two largest of this one
        sets = np.flatnonzero(count)
        top_owner, vertex = np.divmod(sets, ns)
        edge = (pair[flat[sets]].astype(keys.dtype) - peak[flat[sets]]) * weight[vertex]
        edge += _row_keys((peak[c] for c in ranks.T), self.sizes)[top_owner]
        tops = np.stack([faces[ends[sets] - 1], _find(keys, edge)], axis=1)
        if (faces < 0).any() or (tops < 0).any():
            raise InvariantError("a face of a Hom cell is not a poset element")
        dims = np.bincount(owner, minlength=n) - np.bincount(top_owner, minlength=n)
        return dims, owner, faces, top_owner, tops

    @cached_property
    def covers(self) -> list:
        """Per element, its upper covers, ascending: the elements that have
        it as a face."""
        _, owner, faces, _, _ = self.cell_relation()
        owner = owner[np.argsort(faces, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(faces, minlength=len(self.rows))).tolist()
        return [owner[a:b] for a, b in zip([0] + ends, ends)]

    @cached_property
    def labels(self) -> np.ndarray:
        """Per element, the index of the smallest atom of its component."""
        atoms, rank, ranks = self.atoms, self.rank, self.ranks
        count, _, _, peak, _ = self.by_rank
        # every element's lowest atom (the lowest color of every set), and
        # the highest atom of each 1-cell (one set of two colors, the others
        # singletons): the two atoms it joins
        low = np.array([rank[m & -m] for m in rank], dtype=ranks.dtype)
        lowest = self.find(low[c] for c in ranks.T)
        ones = np.flatnonzero(count[ranks].sum(axis=1, dtype=np.intp) == 2)
        highest = self.find(peak[ranks[ones, v]] for v in range(ranks.shape[1]))
        number = np.empty(len(ranks), dtype=np.intp)
        number[atoms] = np.arange(len(atoms))
        root = _hooked_roots(len(atoms), number[lowest[ones]], number[highest])
        return _frozen(atoms[root[number[lowest]]])


class HomPoset:
    """All multihomomorphisms from ``source`` to ``target``, pointwise ordered.

    The elements are one 2-D numpy array of color masks, one row per element
    in canonical order (``_Rows``); atoms, components, the involution, the
    Hom complex's cells and the up-sets are computed on it, and elements are
    looked up in it by key.  ``elements`` (bitmask tuples) is a view built
    on first use.  Immutable after construction: ``atoms``, the component
    labels and the optional involution (of order two) are read-only arrays
    of element indices.  ``induced_involution`` attaches an involution to a
    shallow copy, which shares the array and every view built from it.
    """

    def __init__(self, source: Graph, target: Graph, rows: np.ndarray):
        """``rows``: a 2-D array of color masks, one row per element, in
        canonical order."""
        self.source, self.target = source, target
        self._rows = _Rows(source, target, rows)
        self.involution = None

    def __len__(self) -> int:
        return len(self._rows.rows)

    @property
    def elements(self) -> tuple:
        """The elements as bitmask tuples, in canonical order."""
        return self._rows.elements

    @property
    def atoms(self) -> np.ndarray:
        """Indices of the elements that are graph maps (all sets singletons)."""
        return self._rows.atoms

    def leq(self, i: int, j: int) -> bool:
        return not (self._rows.rows[i] & ~self._rows.rows[j]).any()

    def cell_relation(self, rows: Optional[np.ndarray] = None) -> tuple:
        """The Hom complex's cells (see ``complexes.hom_complex``), one per
        element, as element-index arrays ``(dims, face_owner, faces,
        top_owner, tops)``: faces by element, vertex and color, and a row of
        ``tops`` (face, 1-cell) per set of two colors or more, each found by
        the key of its ranks.  Given ``rows``, an array of element indices,
        only those cells: ``dims`` and the owners then count positions in
        ``rows``, while faces and 1-cells stay element indices."""
        return self._rows.cell_relation(rows)

    def above(self, i: int) -> list:
        """Ascending indices of the elements strictly above element ``i``.

        Depth-first walk over upper covers, the transpose of the face
        relation (``cell_relation``), built once per array.  Multihoms are
        closed under shrinking sets, so every element between ``i`` and any
        ``j >= i`` is itself an element, and the walk reaches every ``j``
        above ``i``.
        """
        covers = self._rows.covers
        found, stack = {i}, [i]
        while stack:
            for j in covers[stack.pop()]:
                if j not in found:
                    found.add(j)
                    stack.append(j)
        found.discard(i)
        return sorted(found)

    def index_of_graph_map(self, phi: GraphMap) -> int:
        rank = self._rows.rank
        ranks = [rank.get(m, -1) for m in _atom(self.target, phi.assignment)]
        known = phi.source == self.source and -1 not in ranks
        at = int(self._rows.find(np.array([ranks]).T)[0]) if known else -1
        if at < 0:
            raise InputError("graph map is not an element of this Hom poset")
        return at

    # -- components --------------------------------------------------------

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Component id per element (id = smallest element index in the component).

        Ground truth is the comparability graph.  The poset is the face
        poset of the Hom complex, a regular cell complex whose vertices are
        the atoms, so its components are those of the 1-skeleton: the
        elements with one set of two colors, each joining its two faces,
        its lowest and its highest atom, both found by key.  The atoms are
        joined along these 1-cells by hooking roots (``_hooked_roots``), and
        every element takes the label of its lowest atom (the lowest color
        of every set), found by key; that atom lies below it and comes
        first in canonical order, so the smallest element of a component is
        an atom.  Computed once per array, and shared by its copies.
        """
        return self._rows.labels

    def components(self) -> list:
        """Partition of element indices by connected component, deterministic order."""
        order = np.argsort(self.component_labels, kind="stable")
        cuts = np.flatnonzero(np.diff(self.component_labels[order])) + 1
        return [part.tolist() for part in np.split(order, cuts)] if len(order) else []

    def same_component(self, phi, psi) -> bool:
        i, j = (a if isinstance(a, (int, np.integer)) else self.index_of_graph_map(a)
                for a in (phi, psi))
        return bool(self.component_labels[i] == self.component_labels[j])

    def invariant_components(self) -> list:
        """Component ids mapped to themselves by the involution, ascending."""
        if self.involution is None:
            raise InputError("poset carries no involution")
        # every component holds an atom, and the involution maps atoms to atoms
        labels = self.component_labels[np.stack([self.atoms, self.involution[self.atoms]])]
        return sorted(set(labels[0, labels[0] == labels[1]].tolist()))


def _candidate_sets(allowed: int, has_neighbor: bool, has_loop: bool,
                    adjm: list, limit: float = math.inf) -> list:
    """``(S, common(S))`` for every set a vertex may take, in canonical order,
    or only the first ``limit`` of them.

    ``common(S)`` is the set of colors adjacent to every color of ``S``.  The
    sets ``S`` are the nonempty subsets of ``allowed`` with ``common(S)``
    nonempty when the vertex has a neighbor and ``S`` inside ``common(S)``
    when it has a loop.  Both conditions survive shrinking ``S``, so the
    preorder walk that adds colors in increasing index cuts a branch at its
    first failure; that walk visits sets lexicographically by sorted tuple.
    """
    out = []
    full = (1 << len(adjm)) - 1

    def walk(s: int, common: int, rest: int) -> None:
        while rest and len(out) < limit:
            bit = rest & -rest
            rest ^= bit
            t = s | bit
            c = common & adjm[bit.bit_length() - 1]
            if (has_neighbor and not c) or (has_loop and t & ~c):
                continue
            out.append((t, c))
            walk(t, c, rest)

    walk(0, full, allowed)
    return out


def enumerate_hom(source: Graph, target: Graph) -> HomPoset:
    """Enumerate all multihomomorphisms source -> target, in canonical order.

    Level-wise over the source vertices, on one array of color masks (the
    narrowest unsigned type with |V(target)| bits, Python ints beyond 64).
    Vertex ``i`` takes subsets of ``allowed(i)``, the colors adjacent to
    every color of every earlier neighbor's set; each distinct ``allowed``
    of the rows gets its candidates from a walk over those subsets (see
    ``_candidate_sets``), cached per ``allowed`` and vertex kind, and every
    row is repeated once per candidate.  Candidates arrive in canonical
    order, so the rows stay in it, and the cost follows the candidates
    rather than the 2^|V(target)| color sets.  A vertex's common sets are
    kept only until the last later neighbor has read them.  A level of more
    rows than the element cap, which later vertices may still thin out, is
    extended in halves, depth first, so no level holds much more than the
    cap.  The last level lists each distinct ``allowed``'s candidates only
    as far as the budget the cap leaves, weighted by the rows that share
    it, and raises ResourceLimitError as soon as the running count passes
    the cap, before the level is allocated.
    """
    if not source.vertices:
        raise InputError("enumerate_hom requires a nonempty source vertex set")
    cap = default_max_elements()
    adjm = _adjacency_masks(target)
    full = (1 << len(adjm)) - 1
    dtype = _mask_dtype(len(adjm))

    ns = len(source.vertices)
    earlier = [
        [source.index(u) for u in source.neighbors(v) if source.index(u) < i]
        for i, v in enumerate(source.vertices)
    ]
    last_read = {j: i for i in range(ns) for j in earlier[i]}
    kind = [(bool(source.neighbors(v)), v in source.neighbors(v))
            for v in source.vertices]
    cache = {}

    def candidates(allowed: int, i: int, limit: float = math.inf) -> list:
        key = (allowed, kind[i])
        hit = cache.get(key)
        if hit is None:
            hit = _candidate_sets(allowed, *kind[i], adjm, limit)
            if len(hit) < limit:
                cache[key] = hit
        return hit

    # a stack of (rows, the common sets later vertices read, next vertex)
    stack = [(np.zeros((1, ns), dtype=dtype), {}, 0)]
    blocks, made = [], 0
    while stack:
        rows, commons, i = stack.pop()
        allowed = np.full(len(rows), full, dtype=dtype)
        for j in earlier[i]:
            allowed &= commons[j]
        values, which, shared = np.unique(allowed, return_inverse=True, return_counts=True)
        del allowed
        if i < ns - 1:
            found = [candidates(a, i) for a in values.tolist()]
        else:
            # list each value's candidates only as far as the budget left,
            # weighted by the rows that share the value
            found, budget = [], cap - made
            for a, m in zip(values.tolist(), shared.tolist()):
                found.append(candidates(a, i, budget // m + 1))
                budget -= m * len(found[-1])
                if budget < 0:
                    raise ResourceLimitError(f"Hom poset exceeds the cap of {cap} elements")
        sizes = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
        counts = sizes[which]
        total = int(counts.sum())
        if i < ns - 1 and total > cap and len(rows) > 1:
            # a level past the cap may still die out: extend it in halves,
            # depth first, the first half on top
            half = len(rows) // 2
            for part in (slice(half, None), slice(half)):
                stack.append((rows[part], {j: c[part] for j, c in commons.items()}, i))
            continue
        # new row t extends old row r with candidate t - first[r] of r's list
        starts = np.cumsum(sizes) - sizes
        pick = np.repeat(starts[which] - (np.cumsum(counts) - counts), counts)
        pick += np.arange(total)
        del which
        rows = np.repeat(rows, counts, axis=0)
        rows[:, i] = np.array([m for f in found for m, _ in f], dtype=dtype)[pick]
        commons = {j: np.repeat(c, counts) for j, c in commons.items()
                   if last_read[j] > i}
        if i in last_read:
            commons[i] = np.array([c for f in found for _, c in f], dtype=dtype)[pick]
        del pick, counts
        if i < ns - 1:
            stack.append((rows, commons, i + 1))
        else:
            blocks.append(rows)
            made += total
        del rows, commons
    rows = np.concatenate(blocks or [np.zeros((0, ns), dtype=dtype)])
    return HomPoset(source, target, rows)


def induced_involution(z: Z2Graph, poset: HomPoset) -> HomPoset:
    """Attach the involution eta -> eta o gamma to Hom(T, G).

    Every row is pulled back along gamma into the poset (``_Rows.pullback``),
    so the involution is a read-only array of element indices.
    Returns a shallow copy of ``poset`` carrying it; the copy shares the
    array and every view built from it, which the involution does not
    change.  Requires a loopless target and a flipping involution, which
    together make the action fixed-point-free; an image that is not an
    element, or a fixed element, raises InvariantError, and every element
    is checked.
    """
    if poset.source != z.graph:
        raise InputError("involution belongs to a different graph than the Hom source")
    if not poset.target.is_loopless():
        raise InputError("induced involution requires a loopless target graph")
    if not z.is_flipping:
        raise InputError("induced involution requires a flipping involution")
    perm = poset._rows.pullback([z.graph.index(z.involution(v)) for v in z.graph.vertices],
                                poset._rows)
    bad = np.flatnonzero((perm < 0) | (perm == np.arange(len(perm))))
    if len(bad):
        if perm[bad[0]] < 0:
            raise InvariantError("involution image is not a poset element")
        raise InvariantError(f"induced involution fixes element {bad[0]}")
    out = copy.copy(poset)
    out.involution = _frozen(perm)
    return out


def induced_map(f: GraphMap, poset: HomPoset, codomain: HomPoset) -> np.ndarray:
    """Precomposition with ``f``: Hom(f.target, G) -> Hom(f.source, G).

    ``poset`` must be Hom(f.target, G) and ``codomain`` Hom(f.source, G).
    Returns the index in ``codomain`` of every element's image, an intp
    array pulled back along ``f`` (``_Rows.pullback``).
    """
    if poset.source != f.target:
        raise InputError("poset source does not match the map's target graph")
    if codomain.source != f.source or codomain.target != poset.target:
        raise InputError("codomain poset does not match Hom(f.source, G)")
    at = poset._rows.pullback([f.target.index(f(v)) for v in f.source.vertices],
                              codomain._rows)
    if (at < 0).any():
        raise InvariantError("precomposition image missing from codomain poset")
    return at


# ---------------------------------------------------------------------------
# Path certificates


@dataclass(frozen=True)
class PathCertificate:
    """A sequence of proper colorings, consecutive ones equal or one move
    apart (see ``verify_certificate``); witnesses membership in one
    connected component."""

    source: Graph
    target: Graph
    colorings: tuple  # tuples aligned with source.vertices

    @classmethod
    def build(cls, source: Graph, target: Graph, colorings) -> "PathCertificate":
        rows = []
        for col in colorings:
            if isinstance(col, GraphMap):
                rows.append(col.assignment)
            elif isinstance(col, dict):
                missing = [v for v in source.vertices if v not in col]
                if missing:
                    raise InputError(f"coloring missing vertices {missing!r}")
                rows.append(tuple(col[v] for v in source.vertices))
            else:
                rows.append(tuple(col))
        return cls(source=source, target=target, colorings=tuple(rows))

    def moves(self) -> int:
        return max(0, len(self.colorings) - 1)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    index: Optional[int] = None
    reason: Optional[str] = None


def verify_certificate(cert: PathCertificate) -> CertificateCheck:
    """Check every coloring is a graph map and each step is a move: it
    recolors at most one vertex, along a 1-cell of the Hom complex (the union
    of the two colorings is a multihom).  Reports the first failing index
    and reason."""
    for idx, row in enumerate(cert.colorings):
        if len(row) != len(cert.source.vertices):
            raise InputError(f"coloring {idx} has the wrong length")
        for w in row:
            cert.target.index(w)
        if not is_graph_map(row, cert.source, cert.target):
            return CertificateCheck(False, idx, "coloring is not a graph map")
    moves = _moves(cert.source, cert.target)
    atoms = [_atom(cert.target, row) for row in cert.colorings]
    for idx in range(1, len(atoms)):
        a, b = atoms[idx - 1], atoms[idx]
        changed = [v for v in range(len(a)) if a[v] != b[v]]
        if len(changed) > 1:
            return CertificateCheck(False, idx, f"step changes {len(changed)} vertices")
        if changed and not moves(a, changed[0]) & b[changed[0]]:
            return CertificateCheck(False, idx, "step is not a 1-cell: the union "
                                    "of the two colorings is not a multihom")
    return CertificateCheck(True)


def iter_graph_maps(source: Graph, target: Graph):
    """The graph maps source -> target as assignment tuples, one at a time,
    lexicographic in canonical vertex/color order.  These are the atoms of
    Hom(source, target).  Raises ResourceLimitError on reaching map number
    ``default_max_elements() + 1``."""
    cap = default_max_elements()
    identity = range(len(source.vertices)), range(len(target.vertices))
    for count, row in enumerate(_graph_maps(source, target, *identity), 1):
        if count > cap:
            raise ResourceLimitError(f"more than {cap} graph maps")
        yield tuple(target.vertices[c] for c in row)


def find_path(source: Graph, target: Graph, phi: GraphMap,
              psi: GraphMap) -> Optional[PathCertificate]:
    """Shortest path of moves between two proper colorings, or None.

    A move recolors one vertex along a 1-cell of the Hom complex (see
    ``_moves``), so a path exists exactly when the two colorings share a
    component of Hom(source, target).  Breadth-first search over the atoms;
    among the shortest paths the lexicographically first one (neighbor order
    = vertex canonical order, then color canonical order) is returned.
    """
    for m, nm in ((phi, "start"), (psi, "end")):
        if not is_graph_map(m.assignment, source, target):
            raise InputError(f"{nm} coloring is not a proper coloring")
    moves = _moves(source, target)
    start, goal = _atom(target, phi.assignment), _atom(target, psi.assignment)

    # distances from the goal, then a greedy lexicographic descent from the start
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        cur = queue.popleft()
        if cur == start:
            break
        for nxt in _recolorings(moves, cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    if start not in dist:
        return None

    path = [start]
    while path[-1] != goal:
        d = dist[path[-1]]
        path.append(next(n for n in _recolorings(moves, path[-1])
                         if dist.get(n, -1) == d - 1))
    colors = target.vertices
    return PathCertificate.build(
        source, target, [tuple(colors[m.bit_length() - 1] for m in a) for a in path])
