import itertools
import os
from unittest import mock

import numpy as np
import pytest

from homlab import (CellComplex, Graph, GraphMap, complete, complete_flip, cycle,
                    enumerate_hom, induced_involution, paper_T)
from homlab.complexes import (CocycleClass, Table, _boundary_squares_to_zero, _odd_keys,
                               _row_sums)
from homlab.errors import FreenessError, InputError, InvariantError
from homlab.hom import _find, _row_keys


@pytest.fixture(scope="session")
def T():
    return paper_T()


@pytest.fixture(scope="session")
def K2():
    return complete(2)


@pytest.fixture(scope="session")
def K3():
    return complete(3)


@pytest.fixture(scope="session")
def K4():
    return complete(4)


@pytest.fixture(scope="session")
def C5():
    return cycle(5)


@pytest.fixture(scope="session")
def hom_k2_k3(K2, K3):
    return enumerate_hom(K2, K3)


@pytest.fixture(scope="session")
def hom_k2_k4(K2, K4):
    return enumerate_hom(K2, K4)


@pytest.fixture(scope="session")
def hom_T_k3(T, K3):
    return enumerate_hom(T, complete(3))


@pytest.fixture(scope="session")
def hom_k2_k3_swap(hom_k2_k3):
    return induced_involution(complete_flip(2), hom_k2_k3)


@pytest.fixture(scope="session")
def hom_k2_k4_swap(hom_k2_k4):
    return induced_involution(complete_flip(2), hom_k2_k4)


def element_cap(n):
    """A context setting HOMLAB_MAX_ELEMENTS to ``n``, for Hypothesis bodies,
    where a function-scoped monkeypatch trips a health check."""
    return mock.patch.dict(os.environ, {"HOMLAB_MAX_ELEMENTS": str(n)})


def chains(level):
    """A level of cell names as Python values: the rows of a 2-D array (an
    order complex names each chain by one row) as a list of tuples; any
    other level, such as string or integer names, as it is."""
    if isinstance(level, np.ndarray) and level.ndim == 2:
        return list(map(tuple, level.tolist()))
    return level


def dfs_chains(poset):
    """Oracle for the order complex's names: the chains of ``poset``, each
    up-set asked once and the chains walked depth first over them, grouped
    by length as lists of tuples.  The walk meets each length's chains in
    lexicographic order."""
    ups = [poset.above(i) for i in range(len(poset))]
    levels = []

    def walk(chain):
        if len(chain) > len(levels):
            levels.append([])
        levels[len(chain) - 1].append(chain)
        for j in ups[chain[-1]]:
            walk(chain + (j,))
    for i in range(len(poset)):
        walk((i,))
    return levels


def dense_boundary_matrix(x, d):
    """Mod-2 boundary from d-chains to (d-1)-chains of a simplicial complex
    as a dense 0/1 matrix.

    The oracle for the face lists that complexes keep: it resolves each face
    of a simplex by tuple lookup.  Zero-size for d <= 0 and beyond the
    dimension.
    """
    rows = x.n_cells(d - 1) if d >= 1 else 0
    mat = np.zeros((rows, x.n_cells(d)), dtype=np.uint8)
    if 1 <= d <= x.dim:
        index = {s: i for i, s in enumerate(chains(x.cells[d - 1]))}
        for j, s in enumerate(chains(x.cells[d])):
            for i in range(len(s)):
                mat[index[s[:i] + s[i + 1:]], j] ^= 1
    return mat


@pytest.fixture(scope="session")
def boundary_matrix():
    return dense_boundary_matrix


def reduce(row: int, basis: dict) -> int:
    """What is left of the bit row ``row`` after eager elimination by
    ``basis``, a dict from pivot (highest set bit) to row; 0 iff in its span."""
    while row:
        pivot_row = basis.get(row.bit_length() - 1)
        if pivot_row is None:
            return row
        row ^= pivot_row
    return 0


def span(rows) -> dict:
    """Echelon basis of the span of the bit rows ``rows``, keyed by pivot:
    every row is reduced against the rows before it, with no lazy pairs."""
    basis = {}
    for row in rows:
        row = reduce(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def eager_in_column_span(rows, b, ncols):
    """Oracle for ``gf2.in_column_span``: whether ``b`` is a sum of columns
    of the matrix whose rows list their columns (a repeated column set once)
    over ``ncols`` columns.  ``b`` joins as the extra column ``ncols``,
    above every column, and is a sum of columns iff that column's unit
    vector is not in the rows' span."""
    extra = 1 << ncols
    basis = span(sum(1 << int(j) for j in set(row)) | (extra if bit else 0)
                 for row, bit in zip(rows, b))
    return reduce(extra, basis) != 0


def tuple_simplex_tables(levels):
    """Oracle for the face and top tables of an ordered simplicial complex,
    as rows: each face is found by slicing its simplex's tuple and looking
    the slice up in a dict of the dimension below.  A simplex's one top
    pair is its face omitting the last vertex and its last edge."""
    faces, tops, below = [], [], {}
    for d, level in enumerate(levels):
        if d == 0:
            face_rows = top_rows = [[] for _ in level]
        else:
            face_rows = [[below[s[:i] + s[i + 1:]] for i in range(d + 1)]
                         for s in level]
            # the last edge of (v0..vd) is that of its face omitting v0
            top_rows = [[[row[d], j if d == 1 else tops[-1][row[0]][0][1]]]
                        for j, row in enumerate(face_rows)]
        faces.append(face_rows)
        tops.append(top_rows)
        below = {s: j for j, s in enumerate(level)}
    return faces, tops


@pytest.fixture(scope="session")
def simplex_tables():
    return tuple_simplex_tables


def rows_table(rows, width=()):
    """A ``Table`` holding ``rows``, each a list of entries of shape ``width``."""
    starts = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(row) for row in rows], out=starts[1:])
    entries = np.array([e for row in rows for e in row], dtype=np.intp)
    return Table(starts, entries.reshape((len(entries),) + width))


def simplicial_complex(levels):
    """The ordered simplicial complex on the vertex tuples of ``levels``,
    one list per dimension, every face of every simplex present; its tables
    come from the tuple oracle, so ``cup_power`` is the front-face product."""
    faces, tops = tuple_simplex_tables(levels)
    return CellComplex(levels, [rows_table(rows) for rows in faces],
                       [rows_table(rows, (2,)) for rows in tops])


def is_multihom(sets, source, target):
    """Oracle: ``sets``, one color set per source vertex, is a multihom iff
    every edge (u, v) of the source has sets(u) x sets(v) inside the edges
    of the target; a loop at v asks it of sets(v) x sets(v)."""
    return all(target.has_edge(x, y) for u, v in source.edges
               for x in sets[source.index(u)] for y in sets[source.index(v)])


def element_sets(poset, i):
    """Element ``i`` of a Hom poset as its color sets, one frozenset of
    target vertices per source vertex."""
    colors = poset.target.vertices
    return tuple(frozenset(w for b, w in enumerate(colors) if m >> b & 1)
                 for m in poset.elements[i])


def atom_graph_map(poset, i):
    """Atom ``i`` of a Hom poset as the graph map it is."""
    sets = element_sets(poset, i)
    assert all(len(s) == 1 for s in sets), f"element {i} is not an atom"
    return GraphMap.build(poset.source, poset.target, tuple(min(s) for s in sets))


def simplicial_involution(x, vertex_map):
    """The cell map of a vertex map on a simplicial complex: each simplex
    goes to the tuple of its vertices' images, a cell or not."""
    return {s: tuple(vertex_map[v] for v in s) for level in x.cells for s in chains(level)}


def numbered(x, tau):
    """``x`` with its cells named 0, 1, 2, ... in dimension order, and the
    name-keyed map ``tau`` as the integer array ``generic_quotient`` takes:
    entry ``k`` is the number of the image of cell ``k``, -1 for an image
    that is not a cell."""
    names = [name for level in x.cells for name in chains(level)]
    number = {name: k for k, name in enumerate(names)}
    starts = np.cumsum([0] + [len(level) for level in x.cells])
    cells = [np.arange(a, b) for a, b in zip(starts, starts[1:])]
    return (CellComplex(cells, x.faces, x.tops),
            np.array([number.get(tau[name], -1) for name in names], dtype=np.intp))


@pytest.fixture(scope="session")
def on_simplices():
    """``(numbered complex, tau)`` for a vertex map on a simplicial complex."""
    return lambda x, vertex_map: numbered(x, simplicial_involution(x, vertex_map))


def generic_quotient(x, tau):
    """Oracle for ``quotient_with_w1``: the quotient of any cell complex by
    a free cellular involution, plus the twist cocycle of the double cover.

    The cells are named by integers ascending in each dimension, and
    ``tau[name]``, an integer array, names the image of the cell ``name``,
    found among the names of its dimension by key.  tau must send d-cells
    to d-cells, be of order two, fix no cell, and commute with the face
    lists and top pairs.  A quotient cell is a tau-orbit of cells, named by
    its lift (the one of lower index).  Its faces are the orbits of its
    lift's faces, summed mod 2, so two faces in one orbit cancel; its top
    pairs are the orbits of its lift's.  The vertex lifts are the section
    of the cover; the degree-1 cocycle takes value 1 on an edge orbit whose
    lift joins a vertex of the section to one outside it.
    """
    if x.is_empty():
        return x, CocycleClass(x, 1, np.zeros(0, dtype=np.uint8))
    tau = np.asarray(tau)
    if tau.ndim != 1 or tau.dtype.kind not in "iu":
        raise InputError("tau must be an integer array indexed by cell name")
    levels = []
    for d, level in enumerate(x.cells):
        names = np.asarray(level)
        if len(names) and not (names.ndim == 1 and names.dtype.kind in "iu"
                               and 0 <= names[0] and names[-1] < len(tau)
                               and (names[:-1] < names[1:]).all()):
            raise InputError(f"the {d}-cells are not named by ascending indices of tau")
        names = names.astype(np.intp, copy=False)
        img = _find(names, tau[names])
        if (img < 0).any():
            raise InputError(f"tau sends the {d}-cell {names[img.argmin()]} to no {d}-cell")
        idx = np.arange(len(names))
        if (img[img] != idx).any():
            raise InputError("involution is not of order two")
        if (img == idx).any():
            raise FreenessError(f"involution fixes the cell {names[(img == idx).argmax()]}")
        reps = np.flatnonzero(idx < img)
        orbit = np.empty(len(names), dtype=np.intp)
        orbit[reps] = orbit[img[reps]] = np.arange(len(reps))
        levels.append((names[reps], img, orbit, reps))
    named, image, orbit_of, lifts = zip(*levels)

    faces, tops = [Table.empty(len(lifts[0]))], [Table.empty(len(lifts[0]), (2,))]
    for d in range(1, len(lifts)):
        face, top = x.faces[d], x.tops[d]
        face_owner, top_owner = face.owner(), top.owner()
        img, lower = image[d], image[d - 1]
        # tau maps the face rows and top rows onto themselves, as multisets
        sizes = (len(img), len(lower), len(image[1]))
        pairs = [(_row_keys((img[face_owner], lower[face.entries]), sizes[:2]),
                  _row_keys((face_owner, face.entries), sizes[:2])),
                 (_row_keys((img[top_owner], lower[top.entries[:, 0]],
                             image[1][top.entries[:, 1]]), sizes),
                  _row_keys((top_owner, *top.entries.T), sizes))]
        if not all(np.array_equal(np.sort(a), np.sort(b)) for a, b in pairs):
            raise InputError(f"involution does not commute with the faces of "
                             f"the {d}-cells")
        n, m = len(lifts[d]), len(lifts[d - 1])
        # the lift rows' (orbit, face orbit) pairs met an odd number of times
        lift = img[face_owner] > face_owner
        keys = _odd_keys(_row_keys((orbit_of[d][face_owner[lift]],
                                    orbit_of[d - 1][face.entries[lift]]), (n, m)))
        faces.append(Table.from_owners(keys // m, keys % m, n))
        lift = img[top_owner] > top_owner
        tops.append(Table.from_owners(
            orbit_of[d][top_owner[lift]],
            np.stack([orbit_of[d - 1][top.entries[lift, 0]],
                      orbit_of[1][top.entries[lift, 1]]], axis=1), n))
    quotient = CellComplex(named, faces, tops)
    if not _boundary_squares_to_zero(quotient):
        raise InvariantError("the quotient's boundary does not square to zero")

    # a vertex is in the section iff it is its orbit's lift
    in_section = np.arange(x.n_cells(0)) < image[0]
    if quotient.dim >= 1:
        edges = x.faces[1]
        w1_vals = _row_sums(edges, in_section[edges.entries], x.n_cells(1))[lifts[1]]
    else:
        w1_vals = np.zeros(0, dtype=np.uint8)
    w1 = CocycleClass(quotient, 1, w1_vals)
    if not w1.check_cocycle():
        raise InvariantError("w1 representative is not a cocycle")
    return quotient, w1


def element_index(poset):
    """Element tuple -> its index in ``poset``: the tests' own lookup, made
    from the element tuples."""
    return dict(zip(poset.elements, range(len(poset))))


@pytest.fixture(scope="session")
def index_of():
    return element_index


def tuple_hom_cells(poset):
    """Oracle for ``hom_complex``: the Hom complex's cells, face rows and
    top rows, found by walking the element tuples and looking every face
    and 1-cell up in the element index.  Rows hold positions in the
    dimension below (faces) and in dimension 1 (1-cells)."""
    index = element_index(poset)
    dims = [sum(m.bit_count() for m in e) - len(e) for e in poset.elements]
    cells = [[] for _ in range(max(dims, default=-1) + 1)]
    pos = []
    for i, d in enumerate(dims):
        pos.append(len(cells[d]))
        cells[d].append(i)
    faces = [[[] for _ in level] for level in cells]
    tops = [[[] for _ in level] for level in cells]
    for e, d, p in zip(poset.elements, dims, pos):
        peak = tuple(1 << (m.bit_length() - 1) for m in e)
        for v, m in enumerate(e):
            if m == peak[v]:
                continue
            head, tail = e[:v], e[v + 1:]
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                faces[d][p].append(pos[index[head + (m ^ bit,) + tail]])
            # the last face found dropped the largest color, peak[v]
            second = 1 << ((m ^ peak[v]).bit_length() - 1)
            edge = index[peak[:v] + (peak[v] | second,) + peak[v + 1:]]
            tops[d][p].append([faces[d][p][-1], pos[edge]])
    return cells, faces, tops


@pytest.fixture(scope="session")
def hom_cells():
    return tuple_hom_cells


def atom_move_components(poset):
    """Oracle for ``HomPoset.component_labels``: partition the atoms under
    the union-is-multihom relation, then give every element the label of
    its pointwise-lowest atom; each label is the smallest element index of
    its part."""
    atoms = poset.atoms
    parent = {a: a for a in atoms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_pairs = [(poset.source.index(u), poset.source.index(v))
                  for u, v in poset.source.sorted_edges()]
    adjm = [0] * len(poset.target.vertices)
    for x, y in poset.target.edges:
        adjm[poset.target.index(x)] |= 1 << poset.target.index(y)
        adjm[poset.target.index(y)] |= 1 << poset.target.index(x)

    def union_is_multihom(e1, e2):
        for iu, iv in edge_pairs:
            mu, mv = e1[iu] | e2[iu], e1[iv] | e2[iv]
            for c in range(len(adjm)):
                if mu >> c & 1 and mv & ~adjm[c]:
                    return False
        return True

    for ai, i in enumerate(atoms):
        for j in atoms[ai + 1:]:
            if find(i) != find(j) and union_is_multihom(poset.elements[i],
                                                        poset.elements[j]):
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    index = element_index(poset)
    labels = [find(index[tuple(m & -m for m in e)]) for e in poset.elements]
    first = {}
    for i, lab in enumerate(labels):
        first.setdefault(lab, i)
    return tuple(first[lab] for lab in labels)


@pytest.fixture(scope="session")
def atom_components():
    return atom_move_components


def dict_route_involution(z, poset):
    """Oracle for ``induced_involution``: each element tuple precomposed
    with the involution and looked up in the element index (None for an
    image that is not an element)."""
    pos = [z.graph.index(z.involution(v)) for v in z.graph.vertices]

    def image(e):
        return tuple(e[p] for p in pos)
    return tuple(map(element_index(poset).get, map(image, poset.elements)))


@pytest.fixture(scope="session")
def dict_involution():
    return dict_route_involution


@pytest.fixture(scope="session")
def small_graphs():
    """Hypothesis strategy for graphs on at most four vertices."""
    from hypothesis import strategies as st

    @st.composite
    def graphs(draw, min_vertices, loops):
        n = draw(st.integers(min_vertices, 4))
        pairs = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.build(range(n), [e for e, k in zip(pairs, keep) if k])

    return graphs


def brute_connected_graphs(n):
    """Oracle for ``connected_graphs``: every edge mask in ascending order,
    kept when it is connected and the minimum of its images under all n!
    relabelings has not been met before."""
    if n == 1:
        return [Graph.build((1,), [])]
    pairs = list(itertools.combinations(range(n), 2))
    pair_pos = {p: i for i, p in enumerate(pairs)}
    relabel = [
        [1 << pair_pos[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs]
        for perm in itertools.permutations(range(n))
    ]
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        present = [i for i in range(len(pairs)) if mask >> i & 1]
        edges = [pairs[i] for i in present]
        reached, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y in {v for u, v in edges if u == x} | {u for u, v in edges if v == x}:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) < n:
            continue
        canon = min(sum(bits[i] for i in present) for bits in relabel)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(Graph.build(tuple(range(1, n + 1)), [(u + 1, v + 1) for u, v in edges]))
    return out


@pytest.fixture(scope="session")
def connected_oracle():
    return brute_connected_graphs
