"""Graph construction, fixture families, and combinatorial predicates."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given

from geb.errors import CycleTooShort, NTooLarge, SelfLoop, VertexOutOfRange
from geb.graphs import (
    Graph,
    adjacency_stack,
    complete,
    complete_bipartite,
    connected_column,
    cycle,
    degree_sequence,
    from_edge_list,
    is_complete_bipartite,
    is_connected,
    is_regular,
    is_triangle_free,
    msb_first,
    pair_count,
    pair_index,
    path,
    petersen,
    triangle_count,
)

from conftest import random_graphs


def test_from_edge_list_k2():
    g = from_edge_list(2, [(0, 1)])
    assert g.n == 2 and g.edge_count == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_from_edge_list_p3():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert degree_sequence(g) == [1, 2, 1]


def test_from_edge_list_c4():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.edge_count == 4
    assert degree_sequence(g) == [2, 2, 2, 2]


def test_from_edge_list_deduplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoop):
        from_edge_list(3, [(1, 1)])


def test_from_edge_list_rejects_bad_vertex():
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(-1, 2)])


def test_vertex_count_limits():
    with pytest.raises(NTooLarge):
        from_edge_list(63, [])
    with pytest.raises(NTooLarge):
        Graph(63, 0)
    with pytest.raises(NTooLarge):
        Graph(0, 0)
    Graph(62, 0)  # boundary is fine: the largest n graph6 writes


def test_graph_rejects_stray_bits():
    with pytest.raises(VertexOutOfRange):
        Graph(3, 1 << 3)  # only 3 pair bits exist for n=3


def test_complete_graphs():
    assert complete(4).edge_count == 6
    assert complete(1).edge_count == 0
    assert is_regular(complete(5))
    assert triangle_count(complete(4)) == 4


def test_complete_bipartite_basics():
    assert complete_bipartite(1, 1).edge_count == 1
    k23 = complete_bipartite(2, 3)
    assert k23.n == 5 and k23.edge_count == 6
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(NTooLarge):
        complete_bipartite(32, 33)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3)])
def test_complete_bipartite_is_connected_triangle_free_bipartite(p, q):
    g = complete_bipartite(p, q)
    assert is_connected(g)
    assert is_triangle_free(g)
    assert is_complete_bipartite(g)
    assert g.edge_count == p * q


def test_cycle_and_path():
    assert cycle(5).edge_count == 5
    assert path(4).edge_count == 3
    assert path(1).edge_count == 0
    with pytest.raises(CycleTooShort):
        cycle(2)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15
    assert is_regular(g) and degree_sequence(g) == [3] * 10
    assert is_connected(g)
    assert triangle_count(g) == 0


def test_petersen_matches_kneser_construction():
    # independent construction: vertices are the 2-element subsets of a
    # 5-set, adjacent exactly when disjoint
    from geb.enumeration import canonical_form

    subsets = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(10), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    kneser = from_edge_list(10, edges)
    assert kneser.edge_count == 15
    assert canonical_form(kneser) == canonical_form(petersen())


def test_degree_and_regularity_examples():
    assert degree_sequence(complete(3)) == [2, 2, 2]
    assert is_regular(complete(3))
    assert not is_regular(path(3))
    assert triangle_count(complete(3)) == 1
    assert triangle_count(cycle(4)) == 0
    assert is_triangle_free(path(3))
    assert not is_triangle_free(complete(3))


def test_connectivity():
    assert is_connected(complete(3))
    assert is_connected(Graph(1, 0))
    lone = from_edge_list(3, [(0, 1)])  # K2 plus an isolated vertex
    assert not is_connected(lone)
    assert not is_connected(Graph(2, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 17, 33, 62])
def test_connected_column_matches_networkx(n):
    # a path in random vertex order has diameter n - 1, the most squarings
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    order = rng.sample(range(n), n)
    long_path = list(zip(order, order[1:]))
    edge_lists = [long_path, long_path[1:], long_path[:-1]] + [
        [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 2 / n]
        for _ in range(20)]
    want = []
    for edges in edge_lists:
        ref = nx.Graph(edges)
        ref.add_nodes_from(range(n))
        want.append(nx.is_connected(ref))
    graphs = [from_edge_list(n, edges) for edges in edge_lists]
    stack = adjacency_stack(n, [g.adj for g in graphs]).astype(np.float32)
    assert connected_column(stack).tolist() == want
    assert [is_connected(g) for g in graphs] == want


def test_complete_bipartite_detection():
    assert is_complete_bipartite(complete_bipartite(2, 3))
    assert is_complete_bipartite(cycle(4))  # C4 is K_{2,2}
    assert not is_complete_bipartite(cycle(5))
    assert not is_complete_bipartite(path(4))
    assert not is_complete_bipartite(complete(3))


def networkx_complete_bipartite(nx, g):
    """The oracle: g is connected, bipartite, and has |X| * |Y| edges."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.has_edge(i, j))
    if ref.number_of_edges() == 0 or not nx.is_connected(ref) or not nx.is_bipartite(ref):
        return False
    side, _ = nx.bipartite.sets(ref)
    return ref.number_of_edges() == len(side) * (g.n - len(side))


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_bipartite_matches_networkx_on_every_graph(n):
    nx = pytest.importorskip("networkx")
    from geb.enumeration import enumerate_graphs

    graphs = enumerate_graphs(n, connected=False)
    assert [is_complete_bipartite(g) for g in graphs] == [
        networkx_complete_bipartite(nx, g) for g in graphs]
    assert any(is_complete_bipartite(g) for g in graphs) == (n >= 2)


def test_complete_bipartite_matches_networkx_at_62_vertices():
    nx = pytest.importorskip("networkx")
    k31 = complete_bipartite(31, 31)
    cases = {
        k31: True,
        complete_bipartite(1, 61): True,
        Graph(62, k31.adj & ~(1 << pair_index(0, 31))): False,  # less one edge
        Graph(62, complete_bipartite(30, 31).adj): False,       # plus an isolated vertex
    }
    for g, want in cases.items():
        assert is_complete_bipartite(g) == networkx_complete_bipartite(nx, g) == want


def test_edges_match_has_edge():
    g = petersen()
    listed = set(g.edges())
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert ((i, j) in listed) == g.has_edge(i, j)


@given(random_graphs(max_n=16))
def test_handshake(g):
    assert sum(degree_sequence(g)) == 2 * g.edge_count


@given(random_graphs(max_n=10))
def test_triangle_count_matches_brute_force(g):
    brute = sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    )
    assert triangle_count(g) == brute


def test_graph_is_immutable():
    g = complete(3)
    with pytest.raises(Exception):
        g.n = 5  # frozen dataclass


def test_msb_first_is_its_own_inverse():
    rng = random.Random(3)
    for n in range(1, 63):
        length = pair_count(n)
        for bits in (0, (1 << length) - 1, 1, rng.getrandbits(length)):
            bits &= (1 << length) - 1
            assert msb_first(n, msb_first(n, bits)) == bits
        if length:
            assert msb_first(n, 1) == 1 << (length - 1)  # pair (0, 1) goes first


def test_edges_and_neighbor_masks_read_the_bitset():
    g = petersen()
    assert isinstance(g.edges(), tuple) and isinstance(g.neighbor_masks(), tuple)
    assert list(g.edges()) == sorted(g.edges(), key=lambda e: (e[1], e[0]))
    assert g.neighbor_masks() == tuple(sum(1 << j for j in range(g.n) if g.has_edge(i, j))
                                       for i in range(g.n))


@pytest.mark.parametrize("n", [1, 2, 12, 62])  # 12 and 62 need more than 63 bits
def test_adjacency_stack_matches_edges(n):
    rng = random.Random(n)
    length = pair_count(n)
    bitsets = [0, (1 << length) - 1] + [rng.getrandbits(length) for _ in range(5)]
    stack = adjacency_stack(n, bitsets)
    assert stack.shape == (len(bitsets), n, n) and stack.dtype == np.uint8
    for bits, adj in zip(bitsets, stack):
        expected = np.zeros((n, n), dtype=np.uint8)
        g = Graph(n, bits)
        for i, j in itertools.combinations(range(n), 2):
            expected[i, j] = expected[j, i] = g.has_edge(i, j)
        assert np.array_equal(adj, expected)
        assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
