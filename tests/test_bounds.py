"""Closed-form checks for every energy bound, the per-graph report, and the bound table."""

import gc
import hashlib
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graphs
from geb.bounds import (
    BoundReport,
    BoundTable,
    amgm_lower,
    bound_report,
    caporossi_lower,
    conj1_lower,
    conj2_upper,
    cor_nice_lower,
    irregularity,
    main_lower,
    mcclelland_lower,
    mcclelland_upper,
    rank_lower,
)
import geb.bounds as bounds
from geb.errors import EmptyGraph
from geb.graph6 import parse_graph6, write_graph6
from geb.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    is_connected,
    is_regular,
    is_triangle_free,
    packed_groups,
    packed_rows,
    path,
    petersen,
)
from geb.spectral import (
    DEFAULT_ZERO_TOL,
    determinants_exact,
    determinants_of_stacks,
    eigenvalues,
    eigenvalues_batch,
    spectral_stats,
)

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def approx(v, tol=1e-9):
    return pytest.approx(v, abs=tol)


# --- individual bounds -------------------------------------------------------


def test_mcclelland_lower_values():
    assert mcclelland_lower(2, 1, 1) == approx(2.0)
    assert mcclelland_lower(3, 2, 0) == approx(2.0)  # singular: det term drops
    assert mcclelland_lower(4, 6, 3) == approx(math.sqrt(12 + 12 * math.sqrt(3.0)))
    assert mcclelland_lower(4, 6, 3) == approx(5.725784635386361)


def test_mcclelland_upper_values():
    assert mcclelland_upper(2, 1) == approx(2.0)
    assert mcclelland_upper(3, 2) == approx(math.sqrt(12.0))
    assert mcclelland_upper(4, 6) == approx(6.928203230275509)


def test_caporossi_values():
    assert caporossi_lower(1) == approx(2.0)
    assert caporossi_lower(4) == approx(4.0)
    assert caporossi_lower(6) == approx(2 * SQRT6)


def test_main_lower_values():
    assert main_lower(4, 6, 3.0, 1.0) == approx(6.0)
    assert main_lower(10, 15, 3.0, 1.0) == approx(15.0)
    # t = 0 collapses to 2m / lambda1
    assert main_lower(3, 2, SQRT2, 0.0) == approx(2 * SQRT2)


def test_cor_nice_values():
    assert cor_nice_lower(6, SQRT6) == approx(2 * SQRT6)
    assert cor_nice_lower(6, 3.0) == approx(4.0)


def test_amgm_values():
    assert amgm_lower(10, 15, 3.0, 1.0) == approx(15.0)
    assert amgm_lower(4, 6, 3.0, 1.0) == approx(6.0)
    assert amgm_lower(3, 2, SQRT2, 0.0) == 0.0  # singular graphs give nothing


def test_rank_lower_values():
    assert rank_lower(2, 2, SQRT2, SQRT2) == approx(2 * SQRT2)
    assert rank_lower(6, 2, SQRT6, SQRT6) == approx(2 * SQRT6)


def test_irregularity_path_three():
    g = path(3)
    eps, beta = irregularity(g, spectral_stats(eigenvalues(g)))
    assert eps == approx(3 * SQRT2 / 4)
    assert beta == approx(3 * SQRT2 / 4)


def test_irregularity_star():
    g = complete_bipartite(1, 4)
    eps, beta = irregularity(g, spectral_stats(eigenvalues(g)))
    assert eps == approx(1.25)
    assert beta == approx(1.25)


def test_irregularity_is_one_on_regular_graphs():
    for g in (complete(4), cycle(5), petersen()):
        eps, beta = irregularity(g, spectral_stats(eigenvalues(g)))
        assert eps == approx(1.0)
        assert beta == approx(1.0)


def test_conj1_values():
    assert conj1_lower(3, 3 * SQRT2 / 4) == approx(2 * SQRT2)


def test_conj2_values():
    assert conj2_upper(2, SQRT2) == approx(4 / 2**0.25)
    assert conj2_upper(5, 2.0) == approx(10 / SQRT2)


def test_edgeless_inputs_raise():
    with pytest.raises(EmptyGraph):
        main_lower(3, 0, 0.0, 0.0)
    with pytest.raises(EmptyGraph):
        cor_nice_lower(0, 0.0)
    with pytest.raises(EmptyGraph):
        amgm_lower(3, 0, 0.0, 0.0)
    with pytest.raises(EmptyGraph):
        rank_lower(0, 0, 0.0, 0.0)
    with pytest.raises(EmptyGraph):
        conj1_lower(3, 0.0)
    with pytest.raises(EmptyGraph):
        conj2_upper(0, 0.0)
    with pytest.raises(EmptyGraph):
        irregularity(Graph(3, 0), spectral_stats(eigenvalues(Graph(3, 0))))


def test_rank_lower_refuses_each_missing_factor_alone():
    for m, r, lambda1, t_nz in ((1, 0, 1.0, 1.0), (1, 2, 0.0, 1.0), (1, 2, 1.0, 0.0)):
        with pytest.raises(EmptyGraph):
            rank_lower(m, r, lambda1, t_nz)
    assert rank_lower(1, 1, 1.0, 1.0) == 1.5  # one nonzero eigenvalue is enough
    assert rank_lower(1, 2, 1.0, 0.5) == approx(3.0 / 1.5)


# --- bound_report ------------------------------------------------------------


def test_report_petersen():
    r = bound_report(petersen())
    assert r.energy == approx(16.0)
    assert r.main == approx(15.0)
    assert r.cor_nice == approx(10.0)
    assert r.amgm == approx(15.0)
    assert r.rank_bound == approx(15.0)
    assert r.conj1 == approx(10.0)
    assert r.conj2 == approx(30 / math.sqrt(3.0))
    assert r.epsilon == approx(1.0)
    assert r.beta == approx(1.0)
    assert r.is_connected and r.is_regular and r.is_triangle_free
    assert r.det_abs == 48
    assert r.rank == 10
    assert r.slack_main == approx(1.0)
    assert r.slack_cor_nice == approx(6.0)


def test_report_complete_bipartite_is_tight():
    r = bound_report(complete_bipartite(2, 3))
    assert r.energy == approx(2 * SQRT6)
    assert r.cor_nice == approx(2 * SQRT6)
    assert r.main == r.cor_nice              # t = 0 here
    assert r.rank_bound == approx(2 * SQRT6)
    assert r.amgm == 0.0
    assert r.slack_cor_nice == approx(0.0)
    assert r.is_triangle_free and not r.is_regular
    assert r.t == 0.0
    assert r.t_nz == approx(SQRT6)
    assert r.rank == 2


def test_singular_graph_has_t_exactly_zero():
    # the zero eigenvalue of P3 comes out as rounding noise; t must not be it
    r = bound_report(path(3))
    assert r.t == 0.0
    assert r.amgm == 0.0
    assert r.main == r.cor_nice


def test_report_single_edge_everything_tight():
    r = bound_report(complete(2))
    assert r.energy == approx(2.0)
    for bound in (
        r.mcclelland_lower,
        r.caporossi,
        r.main,
        r.cor_nice,
        r.amgm,
        r.rank_bound,
        r.conj1,
        r.mcclelland_upper,
        r.conj2,
    ):
        assert bound == approx(2.0)
    assert r.graph6 == "A_"


def test_report_edgeless_graph():
    r = bound_report(Graph(3, 0))
    assert r.m == 0
    assert r.energy == approx(0.0, tol=1e-12)
    assert r.mcclelland_lower == 0.0
    assert r.caporossi == 0.0
    assert r.mcclelland_upper == 0.0
    for name in ("main", "cor_nice", "amgm", "rank_bound", "conj1", "conj2",
                 "epsilon", "beta", "slack_main", "slack_conj2"):
        assert getattr(r, name) is None
    assert r.graph6 == "B?"
    assert not r.is_connected
    assert r.rank == 0
    assert r.t_nz is None


def test_report_disconnected_has_no_conjectures():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    r = bound_report(g)
    assert not r.is_connected
    assert r.conj1 is None and r.conj2 is None
    assert r.slack_conj1 is None and r.slack_conj2 is None
    # but the degree measures still exist
    assert r.epsilon == approx(1.0)
    assert r.beta == approx(1.0)
    # two disjoint edges: energy 4, several bounds exactly tight
    assert r.energy == approx(4.0)
    assert r.mcclelland_lower == approx(4.0)
    assert r.main == approx(4.0)
    assert r.amgm == approx(4.0)
    assert r.det_abs == 1


def test_report_slack_arithmetic():
    r = bound_report(cycle(5))
    assert r.slack_main == approx(r.energy - r.main, tol=0)
    assert r.slack_caporossi == approx(r.energy - r.caporossi, tol=0)
    assert r.slack_mcclelland_upper == approx(r.mcclelland_upper - r.energy, tol=0)
    assert r.slack_conj2 == approx(r.conj2 - r.energy, tol=0)


def test_report_field_order_matches_header():
    r = bound_report(complete(3))
    d = r._asdict()
    assert tuple(d.keys()) == BoundReport._fields
    assert d["graph6"] == "Bw"
    assert BoundReport._fields[0] == "graph6"
    assert d["n"] == 3 and d["m"] == 3


def test_report_graph6_field_round_trips():
    from geb.graph6 import parse_graph6

    for g in (petersen(), path(4), complete_bipartite(1, 3)):
        r = bound_report(g)
        assert parse_graph6(r.graph6) == g


# --- the bound table against the scalar oracle ---------------------------------


def reference_report(g, spec, det, zero_tol=DEFAULT_ZERO_TOL):
    """One graph's report in Python floats and ``math``, field by field: the test oracle.

    Its arithmetic is the per-graph code that BoundTable's columns replaced,
    so the two must agree to the last bit. Degrees, connectivity, regularity
    and triangles come from networkx, and the edges, in bitset order, from
    ``has_edge``: none of them from geb's own structure columns.
    """
    nx = pytest.importorskip("networkx")
    n, m = g.n, g.edge_count
    edges = [(i, j) for j in range(n) for i in range(j) if g.has_edge(i, j)]
    ref = nx.Graph(edges)
    ref.add_nodes_from(range(n))
    degrees = [ref.degree(v) for v in range(n)]
    nonzero = [abs(v) for v in spec.values if abs(v) > zero_tol]
    rank = len(nonzero)
    t_nz = min(nonzero, default=None)
    t = t_nz if rank == n else 0.0
    lam, energy = spec.values[0], spec.energy
    connected = nx.is_connected(ref)
    mc_lo = mcclelland_lower(n, m, abs(det))  # per graph in BoundTable too
    mc_hi = math.sqrt(2.0 * m * n)
    cap = 2.0 * math.sqrt(m)

    main = cor = am = rank_b = eps = beta = c1 = c2 = None
    if m >= 1:
        main = (2.0 * m + n * lam * t) / (lam + t)
        cor = 2.0 * m / lam
        am = math.sqrt(2.0 * m * n) * math.sqrt(4.0 * lam * t) / (lam + t) if t > 0 else 0.0
        if t_nz is not None:
            rank_b = (2.0 * m + rank * lam * t_nz) / (lam + t_nz)
        edge_sum = sum(math.sqrt(degrees[i] * degrees[j]) for i, j in edges)
        eps = n * edge_sum / (2.0 * m * m)
        beta = lam * n / (2.0 * m)
        if connected:
            c1 = n / eps
            c2 = 2.0 * m / math.sqrt(lam)

    def lo_slack(bound):
        return None if bound is None else energy - bound

    return BoundReport(
        graph6=write_graph6(g), n=n, m=m, is_connected=connected,
        is_regular=min(degrees) == max(degrees),
        is_triangle_free=not any(nx.triangles(ref).values()), energy=energy, lambda1=lam, t=t,
        t_nz=t_nz, rank=rank, det_abs=abs(det), mcclelland_lower=mc_lo, caporossi=cap, main=main,
        cor_nice=cor, amgm=am, rank_bound=rank_b, conj1=c1, mcclelland_upper=mc_hi, conj2=c2,
        epsilon=eps, beta=beta, slack_mcclelland_lower=energy - mc_lo,
        slack_caporossi=energy - cap, slack_main=lo_slack(main), slack_cor_nice=lo_slack(cor),
        slack_amgm=lo_slack(am), slack_rank_bound=lo_slack(rank_b), slack_conj1=lo_slack(c1),
        slack_mcclelland_upper=mc_hi - energy, slack_conj2=None if c2 is None else c2 - energy,
    )


def table_order(graphs):
    """Input indices in a ``packed_groups`` table's row order: grouped by n, first-seen first."""
    return [k for n in dict.fromkeys(g.n for g in graphs) for k, g in enumerate(graphs) if g.n == n]


def assert_rows_match_oracle(graphs, zero_tol=DEFAULT_ZERO_TOL):
    graphs = [graphs[k] for k in table_order(graphs)]
    spectra, dets = eigenvalues_batch(graphs), determinants_exact(graphs)
    table = BoundTable(packed_groups(graphs), zero_tol)
    for i, (g, spec, det) in enumerate(zip(graphs, spectra, dets)):
        got, want = table.report(i)._asdict(), reference_report(g, spec, det, zero_tol)._asdict()
        assert got == want, g
        # the same None pattern, and Python scalars, not numpy ones
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()], g


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(random_graphs(max_n=10), random_graphs(min_n=11, max_n=62)),
                min_size=1, max_size=6))
def test_table_rows_equal_the_scalar_oracle(graphs):
    assert_rows_match_oracle(graphs)


def test_table_rows_equal_the_scalar_oracle_on_families():
    petersen_plus_isolated = Graph(12, petersen().adj)
    families = (
        [Graph(n, 0) for n in (1, 2, 5, 62)]                                  # edgeless
        + [from_edge_list(4, [(0, 1), (2, 3)]), petersen_plus_isolated]       # disconnected
        + [path(3), path(8), complete_bipartite(2, 3), complete_bipartite(31, 31)]  # singular
        + [complete_bipartite(p, q) for p, q in ((1, 1), (1, 7), (3, 5), (20, 42))]
        + [complete(n) for n in (2, 3, 8, 62)] + [cycle(n) for n in (5, 6, 61)] + [petersen()]
    )
    assert_rows_match_oracle(families)
    assert_rows_match_oracle(families, zero_tol=0.5)  # nonzero eigenvalues counted as zero


# sha256 of repr(table.report(i)), one line per row, over each fixture's rows in
# chunks of 1024: frozen from the tables that built every column up front
EAGER_REPORTS = {
    "connected8.g6": "9405897f86d2e1311575694310af2c185ec065b25105c271f0c851a12c807cfd",
    "gnp_small.g6": "4c25d8566d37891e0778f0f417de5e4fdd1ea65828e90cc7999b09ddddde0c40",
}


@pytest.mark.parametrize("name", sorted(EAGER_REPORTS))
def test_table_reports_equal_the_eager_tables_by_repr(data_dir, name):
    graphs = [parse_graph6(line) for line in (data_dir / name).read_text(encoding="ascii").split()]
    digest = hashlib.sha256()
    for k in range(0, len(graphs), 1024):
        chunk = graphs[k : k + 1024]
        table = BoundTable(packed_groups(chunk))
        row = {k: i for i, k in enumerate(table_order(chunk))}
        for i in range(len(chunk)):
            digest.update(repr(table.report(row[i])).encode("ascii") + b"\n")
    assert digest.hexdigest() == EAGER_REPORTS[name]


@pytest.mark.parametrize("name", ["connected8.g6", "gnp_small.g6"])
def test_table_structure_columns_equal_the_per_graph_predicates(data_dir, name):
    graphs = [parse_graph6(line) for line in (data_dir / name).read_text(encoding="ascii").split()]
    graphs = [graphs[k] for k in table_order(graphs)]
    column = BoundTable(packed_groups(graphs)).column
    for field, predicate in (("is_regular", is_regular), ("is_connected", is_connected),
                             ("is_triangle_free", is_triangle_free)):
        assert column[field].tolist() == [predicate(g) for g in graphs], field


def test_table_builds_each_column_group_on_first_read(monkeypatch):
    graphs = [petersen(), path(4), Graph(4, 0), cycle(5)]
    solved, stacks = [], []
    structure = bounds.structure_columns
    monkeypatch.setattr(bounds, "structure_columns",
                        lambda stack: stacks.append(len(stack)) or structure(stack))
    monkeypatch.setattr(bounds, "determinants_of_stacks", lambda stacks, b: solved.append(b)
                        or determinants_of_stacks(stacks, b))
    table = BoundTable(packed_groups(graphs))
    for name in ("main", "cor_nice", "amgm", "rank_bound", "caporossi", "mcclelland_upper"):
        table.column[name], table.column["slack_" + name], table.column[bounds.GATES[name]]
    table.column["beta"], table.column[bounds.GATES["t_nz"]]
    assert (solved, stacks) == ([], [])
    assert table.column[bounds.GATES["conj2"]].tolist() == [True, True, False, True]
    assert table.column["walks3"].tolist() == [0.0, 0.0, 0.0, 0.0]
    table.column["slack_conj1"], table.column["is_regular"]
    assert (solved, sorted(stacks)) == ([], [1, 1, 2])  # one call per vertex count
    assert table.column["det_abs"].tolist() == [48, 1, 0, 2]
    table.column["slack_mcclelland_lower"], table.report(0)
    assert (solved, sorted(stacks)) == ([4], [1, 1, 2])
    with pytest.raises(KeyError):
        table.column["no_such_column"]


def test_a_read_table_is_freed_without_the_cycle_collector():
    # its column groups must not refer back to it, or every chunk's table
    # would wait for a full collection
    graphs = [petersen(), path(4)]
    gc.disable()
    try:
        table = BoundTable(packed_groups(graphs))
        table.report(1), table.column[bounds.GATES["conj1"]]
        freed = weakref.ref(table)
        del table
        assert freed() is None
    finally:
        gc.enable()


def test_graph6_order_is_the_order_of_the_graph6_strings(monkeypatch):
    # groups out of n order, one n in two groups, n = 1 (no pair bits), 2 and 62, and
    # pairs of graphs that differ only in pair 0 or only in the last pair
    rng = random.Random(26)

    def some(n, count):
        bitsets = [rng.getrandbits(n * (n - 1) // 2) for _ in range(count)]
        last = 1 << n * (n - 1) // 2 - 1
        return [Graph(n, b) for b in bitsets + [bitsets[0] ^ 1, bitsets[0] ^ last]]

    groups = [some(62, 3), [Graph(2, 1), Graph(2, 0)], some(8, 4), [Graph(1), Graph(1)],
              some(13, 2), some(8, 3), some(3, 2)]
    table = BoundTable([(g[0].n, packed_rows(g[0].n, [h.adj for h in g])) for g in groups])
    encoded = []
    monkeypatch.setattr(bounds, "write_graph6", lambda g: encoded.append(g) or write_graph6(g))
    order = table.graph6_order()
    assert encoded == []
    names = [write_graph6(g) for group in groups for g in group]
    assert sorted(order.tolist()) == list(range(len(names)))
    assert [names[i] for i in np.argsort(order)] == sorted(names)
