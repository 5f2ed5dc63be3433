"""Independent checks for the benchmark's answers.

Nothing here calls into homlab: every expected value comes from a closed
formula, a brute-force count, or a property the mathematics forces.  The
inputs are plain data (bitmask tuples, colour rows, edge lists) read off the
program's results.
"""

from __future__ import annotations

import itertools
import math


class CheckFailed(AssertionError):
    """The program returned an answer that an independent check rejects."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Sizes of Hom posets and their atoms


def hom_complete_size(k: int, m: int) -> int:
    """|Hom(K_k, K_m)|: k pairwise disjoint nonempty subsets of [m].

    Each colour goes to one of the k sets or to none; inclusion-exclusion
    over the sets left empty.
    """
    return sum((-1) ** j * math.comb(k, j) * (k - j + 1) ** m for j in range(k + 1))


def hom_k2_size(n: int) -> int:
    """|Hom(K_2, K_n)| = 3^n - 2^(n+1) + 1."""
    return 3 ** n - 2 ** (n + 1) + 1


def _disjointness(m: int) -> list:
    """Adjacency of the nonempty subsets of [m] under 'disjoint'."""
    subsets = range(1, 1 << m)
    return [[int(a & b == 0) for b in subsets] for a in subsets]


def _matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matpow(a: list, n: int) -> list:
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(n):
        out = _matmul(out, a)
    return out


def hom_cycle_size(n: int, m: int) -> int:
    """|Hom(C_n, K_m)| = trace(A^n), A the disjointness matrix of subsets."""
    p = _matpow(_disjointness(m), n)
    return sum(p[i][i] for i in range(len(p)))


def hom_paper_t_size(m: int) -> int:
    """|Hom(T, K_m)| for two pentagons joined by the bridge a-a'.

    Closed walks of length 5 through the apex set on each side, summed over
    disjoint apex pairs.
    """
    a = _disjointness(m)
    w = _matpow(a, 5)
    size = len(a)
    return sum(a[i][j] * w[i][i] * w[j][j] for i in range(size) for j in range(size))


def chrom_poly_complete(k: int, m: int) -> int:
    return math.perm(m, k)


def chrom_poly_cycle(n: int, m: int) -> int:
    return (m - 1) ** n + (-1) ** n * (m - 1)


def chrom_poly_paper_t(m: int) -> int:
    """Two pentagons glued by a bridge: P(C5)^2 (m-1)/m."""
    return chrom_poly_cycle(5, m) ** 2 * (m - 1) // m


def count_atoms(elements) -> int:
    """Elements whose colour sets are all singletons (the graph maps)."""
    return sum(1 for e in elements if all(x & (x - 1) == 0 for x in e))


def max_rank(elements) -> int:
    """Longest chain length minus one: covers drop one colour from one set."""
    return max(sum(bin(x).count("1") - 1 for x in e) for e in elements)


def components_by_union_find(elements) -> int:
    """Connected components of the poset, joining each element to its covers."""
    index = {e: i for i, e in enumerate(elements)}
    parent = list(range(len(elements)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, e in enumerate(elements):
        for pos, x in enumerate(e):
            for bit in range(x.bit_length()):
                if x >> bit & 1 and x != 1 << bit:
                    j = index[e[:pos] + (x ^ 1 << bit,) + e[pos + 1:]]
                    parent[root(i)] = root(j)
    return sum(1 for i in range(len(elements)) if root(i) == i)


def check_poset_size(poset, size: int, atoms: int, what: str) -> None:
    expect(len(poset.elements) == size,
           f"{what}: {len(poset.elements)} elements, expected {size}")
    expect(count_atoms(poset.elements) == atoms,
           f"{what}: {count_atoms(poset.elements)} graph maps among the elements, "
           f"chromatic polynomial gives {atoms}")
    expect(len(poset.atoms) == atoms,
           f"{what}: poset reports {len(poset.atoms)} atoms, expected {atoms}")


# ---------------------------------------------------------------------------
# Topology


def euler_char(counts) -> int:
    return sum((-1) ** d * c for d, c in enumerate(counts))


def sphere_betti(d: int) -> tuple:
    """Mod-2 Betti numbers of S^d (d >= 1)."""
    return (1,) + (0,) * (d - 1) + (1,)


def check_k2_height(n: int, result) -> None:
    """Hom(K2, Kn) is an (n-2)-sphere with the antipodal action: height n-2."""
    expect(result.value == n - 2 and result.exact,
           f"height of Hom(K2, K{n}) is {result.value} (exact={result.exact}), "
           f"expected exactly {n - 2}")


def check_k2_betti(n: int, betti, simplex_counts) -> None:
    expect(tuple(betti) == sphere_betti(n - 2),
           f"Betti numbers of Hom(K2, K{n}) are {tuple(betti)}, "
           f"expected those of S^{n - 2}: {sphere_betti(n - 2)}")
    check_euler(betti, simplex_counts, f"Hom(K2, K{n})")


def check_euler(betti, simplex_counts, what: str) -> None:
    expect(euler_char(betti) == euler_char(simplex_counts),
           f"{what}: Euler characteristic {euler_char(simplex_counts)} of the "
           f"simplex counts {tuple(simplex_counts)} differs from "
           f"{euler_char(betti)} of the Betti numbers {tuple(betti)}")


# ---------------------------------------------------------------------------
# The paper's graph T and the fig-3 path certificate


PAPER_T_EDGES = (
    [(r[i], r[(i + 1) % 5]) for r in ("abcde", ["a'", "b'", "c'", "d'", "e'"])
     for i in range(5)]
    + [("a", "a'")]
)


def gamma2(v: str) -> str:
    """The reflection of T that exchanges its two pentagons."""
    return v[:-1] if v.endswith("'") else v + "'"


def check_recolouring_path(vertices, colourings, edges=PAPER_T_EDGES,
                           colours=(1, 2, 3)) -> None:
    """Every row is a proper colouring; consecutive rows differ in one vertex;
    the path runs from a colouring f to f composed with gamma2."""
    expect(len(colourings) >= 2, "certificate has fewer than two colourings")
    for k, row in enumerate(colourings):
        col = dict(zip(vertices, row))
        expect(set(col) == {v for e in edges for v in e},
               f"colouring {k} does not cover the vertices of T")
        expect(all(c in colours for c in row), f"colouring {k} uses a foreign colour")
        for u, v in edges:
            expect(col[u] != col[v], f"colouring {k} gives edge {u}-{v} one colour")
        if k:
            changed = sum(a != b for a, b in zip(colourings[k - 1], row))
            expect(changed == 1, f"step {k} changes {changed} vertices, not one")
    first = dict(zip(vertices, colourings[0]))
    last = dict(zip(vertices, colourings[-1]))
    expect(all(last[v] == first[gamma2(v)] for v in vertices),
           "the path does not end at f composed with gamma2")


# ---------------------------------------------------------------------------
# Small graphs


def brute_chromatic_number(n: int, edges) -> int:
    """Least k with a proper k-colouring of the graph on 0..n-1."""
    for k in range(1, n + 1):
        for col in itertools.product(range(k), repeat=n):
            if all(col[u] != col[v] for u, v in edges):
                return k
    return n


def is_connected(n: int, edges) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return len(reach) == n


def canonical_form(n: int, edges) -> tuple:
    """Least sorted edge list over all relabellings; equal iff isomorphic."""
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in itertools.permutations(range(n))
    )


# Connected graphs on n unlabelled vertices, n = 1..5 (OEIS A001349).
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def check_connected_family(n: int, graphs) -> None:
    """``graphs`` holds (vertex count, 0-based edge list) pairs."""
    expect(len(graphs) == CONNECTED_GRAPH_COUNTS[n],
           f"{len(graphs)} connected graphs on {n} vertices, "
           f"expected {CONNECTED_GRAPH_COUNTS[n]}")
    forms = set()
    for nv, edges in graphs:
        expect(nv == n, f"a graph in the n={n} family has {nv} vertices")
        expect(all(u != v for u, v in edges), f"a graph on {n} vertices has a loop")
        expect(is_connected(n, edges), f"a graph on {n} vertices is disconnected")
        forms.add(canonical_form(n, edges))
    expect(len(forms) == len(graphs), f"two graphs on {n} vertices are isomorphic")
