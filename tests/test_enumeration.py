"""Canonical forms and exhaustive enumeration, checked against two oracles.

The naive oracle canonicalizes by brute force over all n! vertex
permutations of the edge set; for n <= 5 it and the library must produce
identical isomorphism classes, not just identical counts. The block
permutation oracle walks every labeling that sorts vertices by degree, as
the library once did; the library's least-prefix search, which prunes
non-least prefixes and orders twin vertices, must give the same bits.
"""

import itertools
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geb import enumeration
from geb.cli import main
from geb.errors import NTooLargeForCanonicalization, NTooLargeForEnumeration
from geb.graphs import (
    Graph,
    adjacency_stack,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    is_connected,
    msb_first,
    pair_count,
    path,
    petersen,
)
from geb.graph6 import write_graph6
from geb.enumeration import (
    CanonicalForm,
    _canonical_bits,
    canonical_form,
    enumerate_connected,
    enumerate_graphs,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def naive_key(n, edges):
    """Lexicographically least edge tuple over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))
        if best is None or key < best:
            best = key
    return best


def naive_classes(n, connected_only):
    nx = pytest.importorskip("networkx")
    pairs = list(itertools.combinations(range(n), 2))
    classes = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if connected_only:
            ref = nx.Graph(edges)
            ref.add_nodes_from(range(n))
            if not nx.is_connected(ref):
                continue
        classes.add((n, naive_key(n, edges)))
    return classes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("connected", [True, False])
def test_enumeration_matches_naive_oracle(n, connected):
    ours = enumerate_graphs(n, connected=connected)
    keys = {(g.n, naive_key(g.n, g.edges())) for g in ours}
    assert len(keys) == len(ours), "duplicate isomorphism classes"
    assert keys == naive_classes(n, connected)


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    assert len(enumerate_connected(n)) == count


@pytest.mark.parametrize("n,count", sorted(ALL_COUNTS.items()))
def test_all_graph_counts(n, count):
    assert len(enumerate_graphs(n, connected=False)) == count


@pytest.mark.parametrize("n", range(1, 9))
def test_connected_recursion_matches_filtered_full_recursion(n):
    # the library filters all classes with its own connectivity column, so
    # networkx is the oracle here
    nx = pytest.importorskip("networkx")
    every = enumerate_graphs(n, connected=False)
    oracle = []
    for g in every:
        ref = nx.Graph(g.edges())
        ref.add_nodes_from(range(n))
        if nx.is_connected(ref):
            oracle.append(g)
    assert enumerate_graphs(n, connected=True) == oracle


def test_only_extensions_by_a_greatest_vertex_are_canonicalized(monkeypatch):
    # 156 classes on 6 vertices times 2**6 neighbourhoods give 9984 pairs; in
    # 2690 of them the new vertex has the child's largest degree, and in 2106
    # it also has the largest sum of neighbours' degrees among those vertices
    sizes = []

    def counting(stack):
        sizes.append(stack.shape[:2])
        return _canonical_bits(stack)

    monkeypatch.setattr(enumeration, "_canonical_bits", counting)
    enumeration._classes.cache_clear()
    try:
        assert len(enumerate_graphs(7, connected=False)) == 1044
    finally:
        enumeration._classes.cache_clear()
    assert len(enumerate_graphs(6, connected=False)) << 6 == 9984
    assert sum(count for count, n in sizes if n == 7) == 2106


@lru_cache(maxsize=None)
def degree_filtered_classes(n):
    """The canonical strings of every class on n vertices, ascending, by the recursion
    that canonicalizes each extension whose new vertex has the child's largest degree."""
    if n == 1:
        return (0,)
    parents = adjacency_stack(n - 1, [msb_first(n - 1, s) for s in degree_filtered_classes(n - 1)])
    hoods = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1).astype(np.uint8)
    stack = np.zeros((len(parents), len(hoods), n, n), dtype=np.uint8)
    stack[:, :, :-1, :-1] = parents[:, None]
    stack[:, :, -1, :-1] = stack[:, :, :-1, -1] = hoods
    stack = stack.reshape(-1, n, n)
    degree = stack.sum(axis=2)
    return tuple(sorted(set(_canonical_bits(stack[degree[:, -1] == degree.max(axis=1)]).tolist())))


@pytest.mark.parametrize("n", range(1, 8))
def test_the_sum_of_neighbour_degrees_filter_loses_no_class(n):
    # deleting a vertex that is greatest by (degree, neighbours' degree sum), an
    # isomorphism invariant, leaves some class, and adding it back passes the filter
    assert ([msb_first(n, g.adj) for g in enumerate_graphs(n, connected=False)]
            == list(degree_filtered_classes(n)))


def test_cold_enumeration_runs_in_bounded_memory():
    # the filter masks, the candidate stacks and the connectivity stacks are
    # built in slabs; what remains is the 12346 cached classes on 8 vertices
    enumeration._classes.cache_clear()
    tracemalloc.start()
    try:
        assert len(enumerate_connected(8)) == 11117
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_enumerate_command_rebuilds_connected8(data_dir, tmp_path, capsys):
    out = tmp_path / "connected8.g6"
    assert main(["enumerate", "--n", "8", "--connected", "--out", str(out)]) == 0
    assert out.read_bytes() == (data_dir / "connected8.g6").read_bytes()
    assert capsys.readouterr().out == f"11117 graphs written to {out}\n"


def test_canonical_search_runs_in_bounded_memory():
    # without the twin rule all 10! prefixes of K10 and of the edgeless graph
    # would tie; Petersen has no twins, so only the pruning bounds its search
    for g in (complete(10), Graph(10, 0), complete_bipartite(5, 5), petersen()):
        tracemalloc.start()
        try:
            canonical_form(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_enumerate_rejects_out_of_range():
    with pytest.raises(NTooLargeForEnumeration):
        enumerate_connected(9)
    with pytest.raises(NTooLargeForEnumeration):
        enumerate_graphs(0)


def test_enumerated_graphs_are_connected_and_self_canonical():
    for g in enumerate_connected(5):
        assert is_connected(g)
        assert canonical_form(g) == canonical_form(g)  # stable
        # the representative is already canonically labeled
        length = pair_count(g.n)
        packed = 0
        for k in range(length):
            packed |= (g.adj >> k & 1) << (length - 1 - k)
        assert canonical_form(g) == CanonicalForm(g.n, packed_bytes(g.n, packed))


def packed_bytes(n, value):
    length = pair_count(n)
    nbytes = max(1, -(-length // 8))
    return (value << (8 * nbytes - length)).to_bytes(nbytes, "big")


def test_output_order_is_ascending_canonical():
    for n in (4, 5, 6):
        forms = [canonical_form(g).bits for g in enumerate_connected(n)]
        assert forms == sorted(forms)


def test_enumeration_export_example():
    assert [write_graph6(g) for g in enumerate_connected(3)] == ["BW", "Bw"]


def test_memoized_result_is_isolated():
    first = enumerate_connected(4)
    first.append(Graph(1, 0))
    assert len(enumerate_connected(4)) == 6


def test_canonical_form_identifies_c4_and_k22():
    c4 = cycle(4)
    k22 = complete_bipartite(2, 2)
    scrambled = from_edge_list(4, [(2, 0), (0, 3), (3, 1), (1, 2)])
    assert canonical_form(c4) == canonical_form(k22) == canonical_form(scrambled)


def test_canonical_form_separates_p3_and_k3():
    assert canonical_form(path(3)) != canonical_form(complete(3))


def test_canonical_form_separates_empty_graphs_of_different_order():
    assert canonical_form(Graph(2, 0)) != canonical_form(Graph(3, 0))


def test_paw_graph_has_one_form_over_all_relabelings():
    paw = [(0, 1), (1, 2), (0, 2), (2, 3)]  # triangle plus pendant edge
    forms = set()
    for perm in itertools.permutations(range(4)):
        g = from_edge_list(4, [(perm[i], perm[j]) for i, j in paw])
        forms.add(canonical_form(g))
    assert len(forms) == 1


def test_canonical_form_rejects_large_graphs():
    with pytest.raises(NTooLargeForCanonicalization):
        canonical_form(Graph(11, 0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_relabeling_invariant(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    adj = data.draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    g = Graph(n, adj)
    perm = data.draw(st.permutations(range(n)))
    relabeled = from_edge_list(n, [(perm[i], perm[j]) for i, j in g.edges()])
    assert canonical_form(relabeled) == canonical_form(g)


def test_nonisomorphic_pairs_get_distinct_forms():
    # same degree sequence, different graphs: C6 vs 2x K3 (both 2-regular)
    two_triangles = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(cycle(6)) != canonical_form(two_triangles)


def test_deterministic_across_runs():
    a = [g.adj for g in enumerate_graphs(5, connected=True)]
    b = [g.adj for g in enumerate_graphs(5, connected=True)]
    assert a == b


def test_random_spot_membership():
    # any connected graph must be isomorphic to exactly one representative
    rng = random.Random(11)
    reps = {canonical_form(g) for g in enumerate_connected(5)}
    for _ in range(20):
        mask = rng.randrange(1 << pair_count(5))
        g = Graph(5, mask)
        if is_connected(g):
            assert canonical_form(g) in reps


@lru_cache(maxsize=None)
def all_orders(k):
    """The k! orders of range(k), as rows."""
    return np.array(list(itertools.permutations(range(k))), dtype=np.intp).reshape(-1, k)


def block_labelings(blocks):
    """Every vertex order that permutes each block in place, in chunks of rows.

    A block's first len - 8 places come from Python and the rest from
    ``all_orders``, so no chunk holds more than a few 8! rows.
    """
    if not blocks:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    block, *others = blocks
    for head in itertools.permutations(block, max(0, len(block) - 8)):
        rest = np.array([v for v in block if v not in head], dtype=np.intp)
        tails = rest[all_orders(len(rest))]
        orders = np.hstack([np.tile(np.array(head, dtype=np.intp), (len(tails), 1)), tails])
        for tail in block_labelings(others):
            yield np.hstack([np.repeat(orders, len(tail), axis=0), np.tile(tail, (len(orders), 1))])


def block_permutation_oracle(g):
    """Least MSB-first bit string of ``g`` over every labeling that lists its
    vertices in ascending degree order, found by walking them all: the
    canonicalizer before the least-prefix search."""
    n = g.n
    degree = [mask.bit_count() for mask in g.neighbor_masks()]
    order = sorted(range(n), key=degree.__getitem__)
    blocks = [tuple(block) for _, block in itertools.groupby(order, key=degree.__getitem__)]
    flat = adjacency_stack(n, [g.adj])[0].ravel().astype(np.int64)
    best = 1 << pair_count(n)
    for labels in block_labelings(blocks):
        labels = labels.T  # labels[new] = old vertex, one column per labeling
        value = np.zeros(labels.shape[1], dtype=np.int64)
        for i, j in [(i, j) for j in range(n) for i in range(j)]:  # bitset order
            value = value << 1 | flat[labels[i] * n + labels[j]]
        best = min(best, int(value.min()))
    return packed_bytes(n, best)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_form_matches_block_permutation_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    g = Graph(n, data.draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1)))
    assert canonical_form(g).bits == block_permutation_oracle(g)


@pytest.mark.parametrize("g", [cycle(10), complete_bipartite(5, 5), petersen(), complete(10),
                               Graph(10, 0)], ids=["C10", "K5,5", "petersen", "K10", "edgeless"])
def test_one_block_graphs_match_block_permutation_oracle(g):
    # each has one degree block, so the oracle walks all 10! labelings
    assert canonical_form(g).bits == block_permutation_oracle(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_bits_of_a_mixed_stack_equal_one_graph_results(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    fixtures = [0, (1 << pair_count(n)) - 1] + ([petersen().adj] if n == 10 else [])
    bitsets = fixtures + data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1), max_size=6))
    bitsets = data.draw(st.permutations(bitsets))
    together = _canonical_bits(adjacency_stack(n, bitsets)).tolist()
    assert together == [int(_canonical_bits(adjacency_stack(n, [b]))[0]) for b in bitsets]
