"""Finite undirected graphs, graph maps, involutions, and the bundled constructions.

Graphs may carry loops but never multi-edges.  Vertex order is fixed at
construction time and drives every deterministic iteration in the package
(search order, canonical solutions, JSON output).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, ResourceLimitError, default_max_elements

__all__ = [
    "Graph",
    "GraphMap",
    "Z2Graph",
    "RetractionWitness",
    "is_graph_map",
    "chromatic_number",
    "find_retraction_to_edge",
    "search_equivariant_map",
    "complete",
    "cycle",
    "paper_T",
    "paper_gamma1",
    "paper_gamma2",
    "paper_f",
    "cycle_reflection",
    "complete_flip",
    "builtin",
    "connected_graphs",
]


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph with loops allowed.

    ``vertices`` is an ordered tuple of distinct identifiers; ``edges`` is a
    frozenset of 2-tuples ``(u, v)`` normalized so that ``index(u) <= index(v)``.
    A loop at ``v`` is stored as ``(v, v)``.
    """

    vertices: tuple
    edges: frozenset

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable) -> "Graph":
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise InputError(f"duplicate vertices in {verts!r}")
        pos = {v: i for i, v in enumerate(verts)}
        norm = set()
        for e in edges:
            u, v = e
            if u not in pos or v not in pos:
                raise InputError(f"edge {e!r} has an undeclared endpoint")
            if pos[u] > pos[v]:
                u, v = v, u
            norm.add((u, v))
        return cls(vertices=verts, edges=frozenset(norm))

    @cached_property
    def _pos(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _adj(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: tuple(sorted(ns, key=self._pos.__getitem__)) for v, ns in adj.items()}

    def index(self, v) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise InputError(f"undeclared vertex {v!r}") from None

    def has_vertex(self, v) -> bool:
        return v in self._pos

    def has_edge(self, u, v) -> bool:
        if self.index(u) > self.index(v):
            u, v = v, u
        return (u, v) in self.edges

    def neighbors(self, v) -> tuple:
        self.index(v)
        return self._adj[v]

    def loops(self) -> tuple:
        return tuple(v for v in self.vertices if (v, v) in self.edges)

    def is_loopless(self) -> bool:
        return not self.loops()

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=lambda e: (self.index(e[0]), self.index(e[1])))

    def __repr__(self) -> str:  # keep failure output readable
        return f"Graph({list(self.vertices)!r}, {self.sorted_edges()!r})"


@dataclass(frozen=True)
class GraphMap:
    """A graph homomorphism: edges of the source map to edges of the target.

    ``assignment`` is a tuple of target vertices aligned with
    ``source.vertices``.  Construction via :meth:`build` validates the
    homomorphism property.
    """

    source: Graph
    target: Graph
    assignment: tuple

    @classmethod
    def build(cls, source: Graph, target: Graph, mapping) -> "GraphMap":
        assignment = _assignment_tuple(source, target, mapping)
        bad = _first_broken_edge(source, target, assignment)
        if bad is not None:
            raise InputError(f"edge {bad!r} does not map to an edge of the target")
        return cls(source=source, target=target, assignment=assignment)

    def __call__(self, v):
        return self.assignment[self.source.index(v)]

    def as_dict(self) -> dict:
        return dict(zip(self.source.vertices, self.assignment))

    def compose(self, inner: "GraphMap") -> "GraphMap":
        """self after inner (``inner`` first)."""
        if inner.target is not self.source and inner.target != self.source:
            raise InputError("composition mismatch: inner.target != self.source")
        assignment = tuple(self(w) for w in inner.assignment)
        return GraphMap(source=inner.source, target=self.target, assignment=assignment)

    def is_identity(self) -> bool:
        return self.source == self.target and self.assignment == self.source.vertices


def _assignment_tuple(source: Graph, target: Graph, mapping) -> tuple:
    if isinstance(mapping, GraphMap):
        mapping = mapping.as_dict()
    if isinstance(mapping, dict):
        missing = [v for v in source.vertices if v not in mapping]
        if missing:
            raise InputError(f"assignment missing vertices {missing!r}")
        extra = [v for v in mapping if not source.has_vertex(v)]
        if extra:
            raise InputError(f"assignment mentions undeclared vertices {extra!r}")
        assignment = tuple(mapping[v] for v in source.vertices)
    else:
        assignment = tuple(mapping)
        if len(assignment) != len(source.vertices):
            raise InputError("assignment length does not match vertex count")
    for w in assignment:
        target.index(w)
    return assignment


def _first_broken_edge(source: Graph, target: Graph, assignment: tuple) -> Optional[tuple]:
    for u, v in source.sorted_edges():
        if not target.has_edge(assignment[source.index(u)], assignment[source.index(v)]):
            return (u, v)
    return None


def is_graph_map(mapping, source: Graph, target: Graph) -> bool:
    """True iff ``mapping`` sends every edge of ``source`` to an edge of ``target``.

    A loop at ``v`` requires a loop at the image of ``v``.  Undeclared
    vertices raise :class:`InputError`.
    """
    assignment = _assignment_tuple(source, target, mapping)
    return _first_broken_edge(source, target, assignment) is None


@dataclass(frozen=True)
class Z2Graph:
    """A graph with an order-two automorphism."""

    graph: Graph
    involution: GraphMap

    @classmethod
    def build(cls, graph: Graph, mapping) -> "Z2Graph":
        inv = GraphMap.build(graph, graph, mapping)
        if not inv.compose(inv).is_identity():
            raise InputError("involution composed with itself is not the identity")
        return cls(graph=graph, involution=inv)

    @property
    def is_flipping(self) -> bool:
        """True iff some vertex is adjacent to its image under the involution."""
        return any(self.graph.has_edge(v, self.involution(v)) for v in self.graph.vertices)


@dataclass(frozen=True)
class RetractionWitness:
    """An edge subgraph together with a retraction of the whole graph onto it."""

    inclusion: GraphMap
    retraction: GraphMap

    def check(self) -> bool:
        return self.retraction.compose(self.inclusion).is_identity()


def _mask_key(mask: int) -> tuple:
    """Sorted tuple of bit positions; the canonical sort key of a color set."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _adjacency_masks(target: Graph) -> list:
    """Per target vertex, the bitmask of its neighbors (itself if looped)."""
    adjm = [0] * len(target.vertices)
    for x, y in target.edges:
        adjm[target.index(x)] |= 1 << target.index(y)
        adjm[target.index(y)] |= 1 << target.index(x)
    return adjm


def _moves(source: Graph, target: Graph) -> Callable[[Sequence, int], int]:
    """``moves(a, v)``: the mask of the colors ``c`` other than ``a[v]``
    for which ``a`` with ``a[v] | c`` at ``v`` is a multihom, for an atom or
    a partial coloring ``a`` (a singleton mask per vertex, 0 where uncolored).
    On an atom each is a 1-cell of the Hom complex from ``a`` to ``a``
    recolored at ``v``.  They are the colors adjacent to the color of every
    neighbor of ``v`` (``v`` itself included when it has a loop) and, when
    ``v`` has a loop, looped.  An uncolored vertex constrains nothing."""
    adjm = _adjacency_masks(target)
    full = (1 << len(adjm)) - 1
    adj = {0: full, **{1 << k: m for k, m in enumerate(adjm)}}
    looped = sum(m & 1 << k for k, m in enumerate(adjm))
    keep = [looped if v in source.neighbors(v) else full for v in source.vertices]
    nbrs = [tuple(map(source.index, source.neighbors(v))) for v in source.vertices]

    def moves(a: Sequence, v: int) -> int:
        m = keep[v] & ~a[v]
        for u in nbrs[v]:
            m &= adj[a[u]]
        return m

    return moves


def _graph_maps(source: Graph, target: Graph, flip: Sequence, target_flip: Sequence):
    """The graph maps ``phi: source -> target`` with ``phi(flip[v]) =
    target_flip[phi(v)]``, as tuples of target indices, lexicographic in
    canonical vertex/color order.  ``flip`` and ``target_flip`` are
    involutions on vertex indices; ``range(n)`` is the identity, under which
    these are all graph maps.

    The first uncolored vertex ``v`` takes each of its move colors (see
    ``_moves``) in ascending order, and its partner ``flip[v]``, which is
    ``v`` or a later vertex, takes the forced color at once when it is one of
    the partner's move colors; a fixed ``v`` needs a fixed color."""
    moves = _moves(source, target)
    partial = [0] * len(source.vertices)

    def extend(v: int):
        while v < len(partial) and partial[v]:
            v += 1
        if v == len(partial):
            yield tuple(m.bit_length() - 1 for m in partial)
            return
        w = flip[v]
        for c in _mask_key(moves(partial, v)):
            partial[v] = 1 << c
            forced = 1 << target_flip[c]
            if forced == partial[w] or (w != v and moves(partial, w) & forced):
                partial[w] = forced
                yield from extend(v + 1)
                partial[w] = 0
        partial[v] = 0

    return extend(0)


def chromatic_number(g: Graph):
    """Least n admitting a graph map into K_n; 0 for the empty graph, inf for loops."""
    if g.loops():
        return math.inf
    fixed = range(len(g.vertices))
    return next(k for k in itertools.count()
                if next(_graph_maps(g, complete(k), fixed, range(k)), None) is not None)


def find_retraction_to_edge(t: Graph) -> Optional[RetractionWitness]:
    """A retraction of ``t`` onto its first edge (u, v), when chi(t) = 2.

    The first graph map onto the edge, composed with the swap of u and v
    when it sends u to v; a graph with an edge has one exactly when chi = 2.
    Returns None when chi != 2 or the edge set is empty.
    """
    if t.loops():
        raise InputError("retraction search requires a loopless graph")
    if not t.edges:
        return None
    u, v = t.sorted_edges()[0]
    edge_graph = Graph.build((u, v), [(u, v)])
    first = next(_graph_maps(t, edge_graph, range(len(t.vertices)), range(2)), None)
    if first is None:
        return None
    ends = (v, u) if first[t.index(u)] else (u, v)
    retraction = GraphMap.build(t, edge_graph, tuple(ends[c] for c in first))
    inclusion = GraphMap.build(edge_graph, t, (u, v))
    return RetractionWitness(inclusion=inclusion, retraction=retraction)


def search_equivariant_map(a: Z2Graph, b: Z2Graph) -> Optional[GraphMap]:
    """The lexicographically first equivariant graph map ``a.graph -> b.graph``
    under canonical vertex order, or None.

    The map phi must satisfy phi(gamma_a(v)) = gamma_b(phi(v)) for all v, on
    top of the homomorphism condition.
    """
    ga, gb = a.graph, b.graph
    flip = [ga.index(a.involution(x)) for x in ga.vertices]
    target_flip = [gb.index(b.involution(y)) for y in gb.vertices]
    first = next(_graph_maps(ga, gb, flip, target_flip), None)
    if first is None:
        return None
    return GraphMap.build(ga, gb, tuple(gb.vertices[c] for c in first))


# ---------------------------------------------------------------------------
# Bundled constructions


def complete(n: int) -> Graph:
    """K_n on vertices 1..n."""
    verts = tuple(range(1, n + 1))
    return Graph.build(verts, itertools.combinations(verts, 2))


def cycle(n: int) -> Graph:
    """C_n on vertices 1..n (n >= 3)."""
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    verts = tuple(range(1, n + 1))
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Graph.build(verts, edges)


_T_LEFT = ("a", "b", "c", "d", "e")
_T_RIGHT = ("a'", "b'", "c'", "d'", "e'")


def paper_T() -> Graph:
    """Two pentagons a-b-c-d-e-a and a'-b'-c'-d'-e'-a' joined by the bridge a-a'."""
    verts = _T_LEFT + _T_RIGHT
    edges = []
    for ring in (_T_LEFT, _T_RIGHT):
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    edges.append(("a", "a'"))
    return Graph.build(verts, edges)


def paper_gamma1() -> Z2Graph:
    """The reflection of T fixing both apexes: b<->e, c<->d on each pentagon."""
    m = {"a": "a", "b": "e", "c": "d", "d": "c", "e": "b"}
    m.update({k + "'": v + "'" for k, v in m.items()})
    return Z2Graph.build(paper_T(), m)


def paper_gamma2() -> Z2Graph:
    """The reflection of T exchanging the two pentagons: x <-> x'."""
    m = {v: v + "'" for v in _T_LEFT}
    m.update({v + "'": v for v in _T_LEFT})
    return Z2Graph.build(paper_T(), m)


def paper_f() -> GraphMap:
    """The bundled 3-coloring of T used by the theorem-2 pipeline."""
    m = {"a": 1, "b": 2, "c": 3, "d": 2, "e": 3,
         "a'": 2, "b'": 3, "c'": 1, "d'": 3, "e'": 1}
    return GraphMap.build(paper_T(), complete(3), m)


def cycle_reflection(n: int) -> Z2Graph:
    """C_n with the reflection fixing vertex 1 (flipping for odd n)."""
    m = {1: 1}
    m.update({i: n + 2 - i for i in range(2, n + 1)})
    return Z2Graph.build(cycle(n), m)


def complete_flip(n: int) -> Z2Graph:
    """K_n with the involution exchanging 1 and 2 and fixing the rest."""
    if n < 2:
        raise InputError("complete_flip needs n >= 2")
    m = {1: 2, 2: 1}
    m.update({i: i for i in range(3, n + 1)})
    return Z2Graph.build(complete(n), m)


def builtin(name: str):
    """Resolve a builtin construction by name.

    Accepts ``complete(n)`` / ``K<n>``, ``cycle(n)`` / ``C<n>``, ``paper_T``,
    ``paper_gamma1`` / ``gamma1``, ``paper_gamma2`` / ``gamma2``, ``paper_f``,
    ``cycle_reflection(n)`` / ``c<n>_reflection``, and
    ``complete_flip(n)`` / ``k<n>_swap``.
    """
    name = name.strip()
    plain = {
        "paper_T": paper_T,
        "paper_gamma1": paper_gamma1,
        "gamma1": paper_gamma1,
        "paper_gamma2": paper_gamma2,
        "gamma2": paper_gamma2,
        "paper_f": paper_f,
        "paper_f_gamma2": lambda: paper_f().compose(paper_gamma2().involution),
    }
    if name in plain:
        return plain[name]()
    param = {
        "complete": complete,
        "cycle": cycle,
        "cycle_reflection": cycle_reflection,
        "complete_flip": complete_flip,
    }
    if "(" in name and name.endswith(")"):
        fn, arg = name[:-1].split("(", 1)
        if fn in param:
            try:
                return param[fn](int(arg))
            except ValueError:
                raise InputError(f"bad builtin parameter in {name!r}") from None
    low = name.lower()
    m = re.fullmatch(r"k(\d+)", low)
    if m:
        return complete(int(m.group(1)))
    m = re.fullmatch(r"c(\d+)", low)
    if m:
        return cycle(int(m.group(1)))
    m = re.fullmatch(r"k(\d+)_swap", low)
    if m:
        return complete_flip(int(m.group(1)))
    m = re.fullmatch(r"c(\d+)_reflection", low)
    if m:
        return cycle_reflection(int(m.group(1)))
    raise InputError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# Small-graph enumeration (bound sweeps)


def connected_graphs(n: int) -> list:
    """All connected loopless graphs on exactly n vertices, up to isomorphism.

    Vertices are 1..n; one representative per isomorphism class, in a
    deterministic order.  Edge sets are bit masks over the vertex pairs, and
    the masks are walked in ascending order: the first mask of a class not
    yet marked is its smallest, so it is the representative; all of its
    images under the n! relabelings are marked at once, and connectivity is
    tested once per class.  Raises InputError for n < 1, and
    ResourceLimitError before it allocates when the 2^(n(n-1)/2) masks are
    over ``default_max_elements()`` (n >= 8 under the default cap).
    """
    if n < 1:
        raise InputError(f"connected graphs need at least one vertex, got n = {n}")
    if n == 1:
        return [Graph.build((1,), [])]
    pairs = list(itertools.combinations(range(n), 2))
    cap = default_max_elements()
    if 1 << len(pairs) > cap:
        raise ResourceLimitError(f"connected graphs on {n} vertices walk 2^{len(pairs)} "
                                 f"edge masks, over the cap of {cap}")
    pair_pos = {p: i for i, p in enumerate(pairs)}
    # per vertex permutation: the bit that each pair's image occupies
    relabel = [
        [1 << pair_pos[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs]
        for perm in itertools.permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        present = [i for i in range(len(pairs)) if mask >> i & 1]
        for bits in relabel:
            seen[sum(bits[i] for i in present)] = 1
        edges = [pairs[i] for i in present]
        if _is_connected(n, edges):
            out.append(Graph.build(tuple(range(1, n + 1)), [(u + 1, v + 1) for u, v in edges]))
    return out


def _is_connected(n: int, edges: list) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n
