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
from typing import Iterable, Optional

from .errors import InputError

__all__ = [
    "Graph",
    "GraphMap",
    "Z2Graph",
    "RetractionWitness",
    "is_graph_map",
    "chromatic_number",
    "k_coloring",
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


def k_coloring(g: Graph, k: int) -> Optional[tuple]:
    """A proper coloring of ``g`` with colors ``0..k-1``, or None.

    Backtracking in vertex order; the first vertex is fixed to color 0 and a
    vertex may only open one color beyond the maximum already used, which
    prunes color permutations.
    """
    if g.loops():
        return None
    n = len(g.vertices)
    if n == 0:
        return ()
    if k <= 0:
        return None
    colors = [-1] * n
    earlier = [
        [g.index(u) for u in g.neighbors(v) if g.index(u) < i]
        for i, v in enumerate(g.vertices)
    ]

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        limit = min(k, used + 1)
        for c in range(limit):
            if all(colors[j] != c for j in earlier[i]):
                colors[i] = c
                if extend(i + 1, max(used, c + 1)):
                    return True
        colors[i] = -1
        return False

    return tuple(colors) if extend(0, 0) else None


def chromatic_number(g: Graph):
    """Least n admitting a graph map into K_n; 0 for the empty graph, inf for loops."""
    if g.loops():
        return math.inf
    n = len(g.vertices)
    if n == 0:
        return 0
    for k in range(1, n + 1):
        if k_coloring(g, k) is not None:
            return k
    raise AssertionError("n colors always suffice")  # pragma: no cover


def find_retraction_to_edge(t: Graph) -> Optional[RetractionWitness]:
    """A retraction of ``t`` onto its first edge, when chi(t) = 2.

    Built from a proper 2-coloring, which a graph with an edge has exactly
    when chi = 2: each color class is sent to one endpoint of the first edge
    in canonical order.  Returns None when chi != 2 or the edge set is
    empty.
    """
    if t.loops():
        raise InputError("retraction search requires a loopless graph")
    if not t.edges:
        return None
    coloring = k_coloring(t, 2)
    if coloring is None:
        return None
    u, v = t.sorted_edges()[0]
    edge_graph = Graph.build((u, v), [(u, v)])
    cu = coloring[t.index(u)]
    retraction = GraphMap.build(
        t, edge_graph, tuple(u if c == cu else v for c in coloring)
    )
    inclusion = GraphMap.build(edge_graph, t, (u, v))
    return RetractionWitness(inclusion=inclusion, retraction=retraction)


def search_equivariant_map(a: Z2Graph, b: Z2Graph) -> Optional[GraphMap]:
    """Exhaustive search for an equivariant graph map ``a.graph -> b.graph``.

    The map phi must satisfy phi(gamma_a(v)) = gamma_b(phi(v)) for all v, on
    top of the homomorphism condition.  Returns the lexicographically first
    solution under canonical vertex order, or None.
    """
    ga, gb = a.graph, b.graph
    n = len(ga.vertices)
    inv_a = [ga.index(a.involution(v)) for v in ga.vertices]
    inv_b = [gb.index(b.involution(w)) for w in gb.vertices]
    adj_a = [[ga.index(u) for u in ga.neighbors(v)] for v in ga.vertices]
    assignment = [-1] * n

    def consistent(i: int, w: int) -> bool:
        for j in adj_a[i]:
            x = w if j == i else assignment[j]  # a loop at i needs one at w
            if x >= 0 and not gb.has_edge(gb.vertices[w], gb.vertices[x]):
                return False
        return True

    def place(i: int, w: int):
        """Assign phi(i)=w and its forced partner; return undo list or None."""
        placed = []
        for k, wk in ((i, w), (inv_a[i], inv_b[w])):
            if assignment[k] >= 0:
                if assignment[k] != wk:
                    for p in placed:
                        assignment[p] = -1
                    return None
                continue
            if not consistent(k, wk):
                for p in placed:
                    assignment[p] = -1
                return None
            assignment[k] = wk
            placed.append(k)
        return placed

    def extend(i: int) -> bool:
        while i < n and assignment[i] >= 0:
            i += 1
        if i == n:
            return True
        for w in range(len(gb.vertices)):
            placed = place(i, w)
            if placed is None:
                continue
            if extend(i + 1):
                return True
            for p in placed:
                assignment[p] = -1
        return False

    if extend(0):
        return GraphMap.build(ga, gb, tuple(gb.vertices[w] for w in assignment))
    return None


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
    tested once per class.  Raises InputError for n < 1.
    """
    if n < 1:
        raise InputError(f"connected graphs need at least one vertex, got n = {n}")
    if n == 1:
        return [Graph.build((1,), [])]
    pairs = list(itertools.combinations(range(n), 2))
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
