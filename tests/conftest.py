import numpy as np
import pytest

from homlab import (Graph, complete, complete_flip, cycle, cycle_reflection,
                    enumerate_hom, induced_involution, paper_T, paper_f,
                    paper_gamma1, paper_gamma2)


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


def dense_boundary_matrix(x, d):
    """Mod-2 boundary from d-chains to (d-1)-chains as a dense 0/1 matrix.

    The oracle for the face table that complexes keep: it resolves each face
    by tuple lookup.  Zero-size for d <= 0 and beyond the dimension.
    """
    rows = x.n_simplices(d - 1) if d >= 1 else 0
    mat = np.zeros((rows, x.n_simplices(d)), dtype=np.uint8)
    if 1 <= d <= x.dim:
        for j, s in enumerate(x.simplices[d]):
            for i in range(len(s)):
                mat[x.simplex_index(d - 1, s[:i] + s[i + 1:]), j] ^= 1
    return mat


@pytest.fixture(scope="session")
def boundary_matrix():
    return dense_boundary_matrix


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
