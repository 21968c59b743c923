"""Corpus drivers: summaries, gating, parallel determinism."""

import concurrent.futures
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from concurrent.futures import Executor, Future

import networkx as nx
import numpy as np
import pytest

from geb.bounds import DEFAULT_TOL, BoundTable, bound_report
from geb.enumeration import canonical_form, enumerate_connected
from geb.graph6 import parse_graph6, read_chunks, write_graph6
from geb.graphs import (
    Graph, adjacency_stack, complete, complete_bipartite, cycle, from_edge_list, packed_groups,
    path, petersen, stacks_by_n,
)
from geb.harness import (
    EQUALITY_BOUNDS,
    CorpusSummary,
    Extreme,
    PackedCorpus,
    Violation,
    run_conjectures,
    run_equality,
    run_verify,
)
from geb.spectral import Spectrum, determinants_exact, sequential_sum
import geb.bounds as bounds
import geb.graph6 as graph6
import geb.graphs as graphs
import geb.harness as harness
import geb.spectral as spectral


def small_corpus():
    return [g for n in range(1, 7) for g in enumerate_connected(n)]


def iso(g6):
    return canonical_form(parse_graph6(g6))


# --- run_verify ---------------------------------------------------------------


def test_verify_small_corpus_is_clean():
    summary = run_verify(small_corpus())
    assert summary.graphs_seen == 143
    assert summary.graphs_skipped == 0
    assert summary.violations == []
    for name in ("mcclelland_lower", "caporossi", "main", "cor_nice",
                 "amgm", "rank_bound", "mcclelland_upper"):
        assert name in summary.extremes
        assert summary.extremes[name].slack >= -1e-9
    # several graphs make the headline bound exactly tight
    assert abs(summary.extremes["main"].slack) <= 1e-9


def test_verify_handles_disconnected_and_edgeless():
    graphs = [from_edge_list(4, [(0, 1), (2, 3)]), Graph(2, 0), Graph(1, 0)]
    summary = run_verify(graphs)
    assert summary.graphs_seen == 3
    assert summary.violations == []


def test_verify_empty_corpus():
    summary = run_verify([])
    assert summary.graphs_seen == 0
    assert summary.violations == []
    assert summary.extremes == {}


@pytest.mark.parametrize("visit", [partial(harness._verify, tol=1e-9),
                                   partial(harness._conjectures, tol=1e-9),
                                   partial(harness._equality, bound="main", eps=1e-9)],
                         ids=["verify", "conjectures", "equality"])
def test_visitors_leave_an_empty_table_alone(visit):
    # _run makes no empty chunk, but a table of zero graphs is still a table
    summary = CorpusSummary()
    visit(summary, BoundTable([]))
    assert summaries_equal(summary, CorpusSummary())


def test_verify_negative_tol_forces_violations():
    summary = run_verify([complete(2)], tol=-0.5)
    names = {v.bound_name for v in summary.violations}
    assert {"mcclelland_lower", "caporossi", "main", "cor_nice",
            "mcclelland_upper"} <= names
    assert all(v.graph6 == "A_" for v in summary.violations)
    # the list comes back sorted for reproducibility
    keys = [(v.graph6, v.bound_name) for v in summary.violations]
    assert keys == sorted(keys)


def test_verify_extremes_identify_tight_graph():
    # on the n=4 corpus the caporossi bound is exactly tight at the star and
    # at C4; round-off decides which of the two wins the minimum
    summary = run_verify(enumerate_connected(4))
    ext = summary.extremes["caporossi"]
    assert abs(ext.slack) <= 1e-9
    assert iso(ext.graph6) in {
        canonical_form(cycle(4)),
        canonical_form(complete_bipartite(1, 3)),
    }


def test_every_check_notes_the_least_margin_at_the_smaller_graph6(monkeypatch, data_dir):
    # chunks of 500 of a shuffled connected8 against one table of the whole corpus:
    # each extreme is the least (margin, graph6) over every row its check covers
    with open(data_dir / "connected8.g6", encoding="ascii") as fh:
        corpus = [g for _, g in graph6.stream_corpus(fh)]
    random.Random(26).shuffle(corpus)
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 500)
    summary = run_verify(corpus)
    assert sorted(summary.extremes) == sorted(harness._VERIFY) and len(summary.extremes) == 21
    whole, names = BoundTable(packed_groups(corpus)), [write_graph6(g) for g in corpus]
    for name, ext in summary.extremes.items():
        rows, _, _, margin = harness._margin(whole, name)
        least = min((margin[i], names[i]) for i in np.flatnonzero(rows & ~np.isnan(margin)))
        assert (ext.slack, ext.graph6) == (float(least[0]), least[1]), name


# --- run_conjectures ----------------------------------------------------------


def test_conjectures_clean_on_connected_corpus():
    summary = run_conjectures(small_corpus())
    assert summary.graphs_seen == 143
    assert summary.graphs_skipped == 1  # the one-vertex graph has no edges
    assert summary.violations == []
    assert "conj1" in summary.extremes and "conj2" in summary.extremes
    assert summary.extremes["conj1"].slack >= -1e-9
    assert summary.extremes["conj2"].slack >= -1e-9


def test_conjectures_gate_disconnected_and_edgeless():
    graphs = [from_edge_list(4, [(0, 1), (2, 3)]), complete(3), Graph(1, 0)]
    summary = run_conjectures(graphs)
    assert summary.graphs_seen == 3
    assert summary.graphs_skipped == 2
    assert summary.violations == []


def test_conjecture_violations_carry_spectrum_detail():
    summary = run_conjectures([complete(3)], tol=-1.0)
    assert summary.violations
    for v in summary.violations:
        assert v.bound_name in ("conj1", "conj2")
        assert v.detail is not None and v.detail.startswith("spectrum=[")


# --- run_equality -------------------------------------------------------------


def test_equality_rejects_unknown_bound():
    with pytest.raises(ValueError):
        run_equality([complete(2)], bound="energy")
    with pytest.raises(ValueError):
        run_equality([complete(2)], bound="conj1")


def test_equality_cor_nice_on_five_vertices():
    summary = run_equality(enumerate_connected(5), bound="cor_nice")
    assert summary.graphs_seen == 21
    hits = summary.equality_hits
    assert len(hits) == 2
    assert all(h.is_complete_bipartite for h in hits)
    assert all(abs(h.slack) <= 1e-7 for h in hits)
    found = {iso(h.graph6) for h in hits}
    expected = {canonical_form(complete_bipartite(1, 4)),
                canonical_form(complete_bipartite(2, 3))}
    assert found == expected


def test_equality_main_on_four_vertices():
    summary = run_equality(enumerate_connected(4), bound="main")
    found = {iso(h.graph6): h.is_complete_bipartite for h in summary.equality_hits}
    expected = {
        canonical_form(complete_bipartite(1, 3)): True,
        canonical_form(path(4)): False,
        canonical_form(cycle(4)): True,
        canonical_form(complete(4)): False,
    }
    assert found == expected


def test_equality_caporossi_on_four_vertices():
    summary = run_equality(enumerate_connected(4), bound="caporossi")
    found = {iso(h.graph6) for h in summary.equality_hits}
    assert found == {canonical_form(complete_bipartite(1, 3)),
                     canonical_form(cycle(4))}
    assert all(h.is_complete_bipartite for h in summary.equality_hits)


def test_equality_skips_graphs_without_the_bound():
    summary = run_equality([Graph(3, 0), complete(3)], bound="main")
    assert summary.graphs_seen == 2
    assert summary.graphs_skipped == 1  # the edgeless graph has no main bound


def test_equality_bound_names_are_lower_bounds():
    assert set(EQUALITY_BOUNDS) == {
        "cor_nice", "main", "rank_bound", "caporossi", "mcclelland_lower"
    }
    proven_lower = {name for name, lower, proven, *_ in bounds.BOUNDS if lower and proven}
    assert set(EQUALITY_BOUNDS) <= proven_lower


def test_equality_lists_a_slack_of_exactly_eps():
    # |E - bound| <= eps: a slack equal to eps is a hit, one ulp less eps is not
    eps = abs(bound_report(petersen()).slack_main)
    hits = run_equality([petersen()], bound="main", eps=eps).equality_hits
    assert [hit.graph6 for hit in hits] == [write_graph6(petersen())]
    assert run_equality([petersen()], bound="main", eps=np.nextafter(eps, 0)).equality_hits == []


# --- the bound rows of _CHECKS --------------------------------------------------


@pytest.mark.parametrize("shift", [10 * DEFAULT_TOL, -10 * DEFAULT_TOL])
def test_regular_gutman_flags_cor_nice_off_n_either_way(monkeypatch, shift):
    # Petersen is 3-regular on 10 vertices: cor_nice = 2m/lambda1 = 10 = n, and E = 16.
    # cor_nice moved by 10 tol stays a valid bound, but no longer equals n
    moved = tuple((*row[:4], lambda m, lam, f=row[4]: f(m, lam) + shift, row[5])
                  if row[0] == "cor_nice" else row for row in bounds.BOUNDS)
    monkeypatch.setattr(bounds, "BOUNDS", moved)
    summary = run_verify([petersen()])
    assert [(v.bound_name, v.energy) for v in summary.violations] == [("regular:gutman", 10.0)]
    assert abs(summary.violations[0].bound_value - (10.0 + shift)) <= 1e-12
    assert summary.extremes["cor_nice"].slack > 5


# each bound's row of _CHECKS as it was written out by hand: (relation, detail)
WRITTEN_OUT = {
    **dict.fromkeys(("mcclelland_lower", "caporossi", "main", "cor_nice", "amgm", "rank_bound"),
                    ("<=", None)),
    "mcclelland_upper": (">=", None), "conj1": ("<=", harness._spectrum),
    "conj2": (">=", harness._spectrum),
}


def test_bound_checks_derive_the_written_out_rows(data_dir):
    names = [row[0] for row in bounds.BOUNDS]
    assert [name for name in harness._CHECKS if name in names] == list(WRITTEN_OUT)
    for name, (relation, detail) in WRITTEN_OUT.items():
        _, _, a, rel, b, tol, det = harness._CHECKS[name]
        assert (a, rel, b, tol) == (name, relation, "energy", None), name
        assert det is detail, name
    assert harness._VERIFY == tuple(name for name in harness._CHECKS
                                    if name not in ("conj1", "conj2"))

    # each gate is the mask the rows were written with
    corpus = connected8(data_dir) + [Graph(1), Graph(3, 0), complete(3)]
    table = BoundTable(packed_groups(corpus))  # rows in corpus order: grouped by n already
    m = np.array([g.edge_count for g in corpus])
    rank = np.array([np.linalg.matrix_rank(adjacency_stack(g.n, [g.adj])[0].astype(float))
                     for g in corpus])
    connected = np.array([nx.is_connected(nx.from_numpy_array(adjacency_stack(g.n, [g.adj])[0]))
                          for g in corpus])
    every = np.ones(len(corpus), bool)
    masks = {"mcclelland_lower": every, "caporossi": every, "mcclelland_upper": every,
             "main": m >= 1, "cor_nice": m >= 1, "amgm": m >= 1,
             "rank_bound": (m >= 1) & (rank >= 1), "conj1": (m >= 1) & connected,
             "conj2": (m >= 1) & connected}
    assert sorted(masks) == sorted(names)
    for name, mask in masks.items():
        assert harness._margin(table, name)[0].tolist() == mask.tolist(), name
        assert table.column[bounds.GATES[name]].tolist() == mask.tolist(), name
    assert not connected.all() and not (m >= 1).all()  # both gates leave graphs out


# --- merging and parallelism ----------------------------------------------------


def test_merge_keeps_minimum_extreme_and_sums_counts():
    a = CorpusSummary(graphs_seen=2, extremes={"main": Extreme("A_", 0.5)})
    b = CorpusSummary(
        graphs_seen=3,
        graphs_skipped=1,
        violations=[Violation("Bw", "conj1", 3.0, 2.0)],
        extremes={"main": Extreme("BW", 0.25), "conj1": Extreme("Bw", -1.0)},
    )
    a.merge(b)
    assert a.graphs_seen == 5
    assert a.graphs_skipped == 1
    assert len(a.violations) == 1
    assert a.extremes["main"] == Extreme("BW", 0.25)
    assert a.extremes["conj1"] == Extreme("Bw", -1.0)


def test_merge_ties_break_on_graph6():
    a = CorpusSummary(extremes={"main": Extreme("Bw", 0.25)})
    a.merge(CorpusSummary(extremes={"main": Extreme("BW", 0.25)}))
    assert a.extremes["main"] == Extreme("BW", 0.25)


def summaries_equal(a, b):
    return (
        a.graphs_seen == b.graphs_seen
        and a.graphs_skipped == b.graphs_skipped
        and a.violations == b.violations
        and a.equality_hits == b.equality_hits
        and a.extremes == b.extremes
    )


def test_parallel_runs_match_serial(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 16)
    corpus = small_corpus()
    serial = run_verify(corpus, jobs=1)
    parallel = run_verify(corpus, jobs=2)
    assert summaries_equal(serial, parallel)

    serial_eq = run_equality(corpus, bound="cor_nice", jobs=1)
    parallel_eq = run_equality(corpus, bound="cor_nice", jobs=3)
    assert summaries_equal(serial_eq, parallel_eq)


def test_result_is_input_order_independent(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 16)
    corpus = small_corpus()
    forward = run_verify(corpus)
    backward = run_verify(list(reversed(corpus)))
    assert summaries_equal(forward, backward)


def test_each_graph_is_decoded_once(monkeypatch):
    # reports and chunks unpack their packed rows a group at a time: no graph goes
    # through the one-graph decode, except once for each equality hit's
    # complete-bipartite check
    decoded = []
    decode = graphs._decode
    monkeypatch.setattr(graphs, "_decode", lambda g: decoded.append((g.n, g.adj)) or decode(g))

    bound_report(Graph(10, petersen().adj))  # a fresh graph: nothing decoded yet
    fresh = [Graph(h.n, h.adj) for h in enumerate_connected(5)]  # may decode its own graphs
    run_verify(fresh)
    run_conjectures(fresh)
    assert decoded == []

    hits = {h.graph6 for h in run_equality(fresh, bound="cor_nice").equality_hits}
    assert len(hits) == 2
    assert sorted(decoded) == sorted((g.n, g.adj) for g in fresh if write_graph6(g) in hits)


@pytest.mark.parametrize("run", [run_verify, run_conjectures, partial(run_equality, bound="main")],
                         ids=["verify", "conjectures", "equality"])
def test_each_graph_derives_its_spectral_stats_once(monkeypatch, run):
    # one columnar derivation per chunk, covering each of its graphs once; none per graph
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 8)
    fresh = [Graph(h.n, h.adj) for h in enumerate_connected(5)]
    batches = []
    derive = bounds.spectral_columns
    monkeypatch.setattr(bounds, "spectral_columns",
                        lambda values, energy, *args: batches.append((values, energy))
                        or derive(values, energy, *args))

    def refuse(*args, **kwargs):
        raise AssertionError("a per-graph SpectralStats was derived")

    for module in (harness, bounds, spectral):
        monkeypatch.setattr(module, "spectral_stats", refuse)
    run(fresh)
    assert [len(values) for values, _ in batches] == [8, 8, 5]
    assert ([Spectrum(tuple(row), e) for values, energy in batches
             for row, e in zip(values.tolist(), energy.tolist())]
            == spectral.eigenvalues_batch(fresh))


def connected8(data_dir):
    return [parse_graph6(line) for line in (data_dir / "connected8.g6").read_text(encoding="ascii").split()]


def test_conjectures_and_main_equality_solve_no_determinant(monkeypatch, data_dir):
    corpus = connected8(data_dir)
    runs = (run_conjectures, partial(run_equality, bound="main"))
    want = [run(corpus) for run in runs]

    def refuse(stacks, b):
        raise AssertionError("exact determinants were solved")

    monkeypatch.setattr(harness, "determinants_of_stacks", refuse)
    assert all(summaries_equal(run(corpus), summary) for run, summary in zip(runs, want))


@pytest.mark.parametrize("bound", ["main", "cor_nice", "rank_bound", "caporossi", "mcclelland_lower"])
def test_equality_builds_no_structure_columns(monkeypatch, bound):
    fresh = [Graph(h.n, h.adj) for h in enumerate_connected(5)]
    want = run_equality(fresh, bound=bound)

    def refuse(stack, bits):
        raise AssertionError("structure columns were built")

    monkeypatch.setattr(bounds, "_structure", refuse)
    assert summaries_equal(run_equality(fresh, bound=bound), want)


@pytest.mark.parametrize("run", [run_verify, partial(run_equality, bound="mcclelland_lower")],
                         ids=["verify", "equality"])
def test_determinants_are_solved_once_per_chunk(monkeypatch, data_dir, run):
    corpus = connected8(data_dir)
    solved = []
    solve = harness.determinants_of_stacks

    def noting(stacks, b):
        """Note the call's adjacency matrices, by row."""
        matrices = [None] * b
        for rows, stack in stacks:
            for i, matrix in zip(rows.tolist(), stack):
                matrices[i] = matrix.tobytes()
        solved.append(matrices)
        return solve(stacks, b)

    monkeypatch.setattr(harness, "determinants_of_stacks", noting)
    run(corpus)
    matrices = [matrix.tobytes() for matrix in adjacency_stack(8, [g.adj for g in corpus])]
    assert solved == [matrices[k : k + 1024] for k in range(0, len(corpus), 1024)]


def test_mcclelland_lower_runs_once_per_distinct_row_of_a_chunk(monkeypatch, data_dir):
    corpus = connected8(data_dir)
    calls = []
    lower = bounds.mcclelland_lower
    monkeypatch.setattr(bounds, "mcclelland_lower", lambda *row: calls.append(row) or lower(*row))
    run_verify(corpus)
    rows = [(g.n, g.edge_count, abs(d)) for g, d in zip(corpus, determinants_exact(corpus))]
    assert calls == [row for k in range(0, len(rows), 1024)
                     for row in dict.fromkeys(rows[k : k + 1024])]
    assert len({abs(d) for _, _, d in rows}) == 21 and len(calls) < len(corpus) // 10


def counted_stacks(monkeypatch):
    """Count ``pair_stack`` calls, under every name geb holds it by, as (n, graphs)."""
    calls = []
    build = graphs.pair_stack

    def counted(n, bits):
        calls.append((n, len(bits)))
        return build(n, bits)

    for module in (graphs, spectral, bounds, harness):
        if hasattr(module, "pair_stack"):
            monkeypatch.setattr(module, "pair_stack", counted)
    return calls


def test_each_chunk_builds_one_adjacency_stack_per_vertex_count(monkeypatch, data_dir):
    # verify reads the solve, the determinants and the structure columns: all from one stack
    corpus = connected8(data_dir)
    calls = counted_stacks(monkeypatch)
    run_verify(corpus)
    assert calls == [(8, 1024)] * 10 + [(8, 877)]

    mixed = small_corpus() + [parse_graph6(line) for line in
                              (data_dir / "gnp_small.g6").read_text(encoding="ascii").split()]
    random.Random(5).shuffle(mixed)
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 40)
    calls.clear()
    run_verify(mixed)
    assert calls == [(n, count) for k in range(0, len(mixed), 40)
                     for n, count in Counter(g.n for g in mixed[k : k + 40]).items()]


def rows_of(stacks, g):
    """The rows of a chunk's ``stacks_by_n`` groups that hold graph g."""
    want = adjacency_stack(g.n, [g.adj])[0]
    return [i for rows, stack in stacks if stack.shape[1] == g.n
            for i, matrix in zip(rows.tolist(), stack) if (matrix == want).all()]


def test_in_chunk_ties_go_to_the_smaller_graph6(monkeypatch):
    # two labelings of K_{1,3} given one identical spectrum tie on every slack
    stars = [from_edge_list(4, [(c, v) for v in range(4) if v != c]) for c in (0, 3)]
    values, energy = harness.spectra_of_stacks(stacks_by_n([4], [stars[0].adj]), 1)
    monkeypatch.setattr(harness, "spectra_of_stacks",
                        lambda stacks, b: (values.repeat(b, axis=0), energy.repeat(b)))
    names = sorted(write_graph6(g) for g in stars)
    assert names[0] != names[1]
    for corpus in (stars, stars[::-1]):
        for summary in (run_verify(corpus), run_conjectures(corpus),
                        run_equality(corpus, bound="main")):
            assert summary.extremes
            assert {ext.graph6 for ext in summary.extremes.values()} == {names[0]}


def test_moment_rows_flag_a_perturbed_eigenvalue(monkeypatch):
    solve = harness.spectra_of_stacks
    c5 = write_graph6(cycle(5))

    def perturbed(stacks, b):
        """cycle(5) gets lambda1 = 2 + 1e-4, with its energy unchanged."""
        values, energy = solve(stacks, b)
        for i in rows_of(stacks, cycle(5)):
            values[i, 0] += 1e-4
        return values, energy

    monkeypatch.setattr(harness, "spectra_of_stacks", perturbed)
    summary = run_verify([path(4), cycle(5), petersen(), complete_bipartite(2, 3)])
    assert {v.graph6 for v in summary.violations} == {c5}
    moments = [(v.graph6, v.bound_name) for v in summary.violations
               if v.bound_name.startswith("moment:")]
    assert moments == [(c5, "moment:cubes"), (c5, "moment:fourth"), (c5, "moment:squares"),
                       (c5, "moment:sum")]


def spectrum_rows(summary):
    """The (graph6, name) of each moment:* and spectrum:* violation."""
    return [(v.graph6, v.bound_name) for v in summary.violations
            if v.bound_name.startswith(("moment:", "spectrum:"))]


@pytest.mark.parametrize("shift,names", [
    (0.5, ["spectrum:energy"]),   # E above the sum of the |eigenvalues|
    (-0.5, ["spectrum:energy"]),  # and below it
])
def test_energy_row_violations_are_reported(monkeypatch, shift, names):
    """A shifted energy trips the energy row and no other spectrum row."""
    solve = harness.spectra_of_stacks

    def shifted(stacks, b):
        values, energy = solve(stacks, b)
        return values, energy + shift

    monkeypatch.setattr(harness, "spectra_of_stacks", shifted)
    summary = run_verify([path(4)])
    assert [name for _, name in spectrum_rows(summary)] == names


def reference_energy_rows(spec):
    """The spectrum:energy row of one spectrum: E against its |eigenvalues| added largest first."""
    total = sum(sorted((abs(v) for v in spec.values), reverse=True))
    if abs(total - spec.energy) <= 1e-6:
        return []
    return [("spectrum:energy", repr(total), repr(spec.energy), "energy != sum of |eigenvalues|")]


@pytest.mark.parametrize("shift", [-0.5, -1e-3, 0.0, 1e-3, 0.5])
@pytest.mark.parametrize("g", [path(4), complete_bipartite(2, 3), petersen()],
                         ids=["path4", "K2,3", "petersen"])
def test_energy_rows_match_the_reference_sum(monkeypatch, g, shift):
    """The energy row fires, with its values, exactly where a direct sum of the spectrum says."""
    spec = harness.eigenvalues_batch([g])[0]
    spec = Spectrum(spec.values, spec.energy + shift)
    monkeypatch.setattr(harness, "spectra_of_stacks",
                        lambda stacks, b: (np.array([spec.values]), np.array([spec.energy])))
    summary = run_verify([g])
    got = [(v.bound_name, repr(v.bound_value), repr(v.energy), v.detail)
           for v in summary.violations if v.bound_name.startswith(("moment:", "spectrum:"))]
    assert got == reference_energy_rows(spec)
    assert bool(got) == (abs(shift) > 1e-6)


def test_perron_breach_costs_one_graph(monkeypatch):
    solve = harness.spectra_of_stacks

    def breached(stacks, b):
        """path(4) gets a smallest eigenvalue just past -lambda1."""
        values, energy = solve(stacks, b)
        for i in rows_of(stacks, path(4)):
            row = values[i, :4].tolist()
            row[-1] = -(row[0] + 1e-9)
            values[i, :4] = row
            energy[i] = sum(sorted((abs(v) for v in row), reverse=True))
        return values, energy

    monkeypatch.setattr(harness, "spectra_of_stacks", breached)
    summary = run_verify([path(4), cycle(5)])
    assert summary.graphs_seen == 2
    assert spectrum_rows(summary) == [(write_graph6(path(4)), "spectrum:perron")]


def dense_graphs(n):
    """K_n, K_{n/2,n/2} and a seeded G(n, 0.9)."""
    rng = random.Random(n)
    gnp = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < 0.9])
    return [complete(n), complete_bipartite(n // 2, n - n // 2), gnp]


def test_spectrum_rows_stay_silent_on_large_dense_graphs():
    graphs = [g for n in (20, 40, 62) for g in dense_graphs(n)]
    assert spectrum_rows(run_verify(graphs)) == []
    table = BoundTable(packed_groups(graphs))
    squares = table.values * table.values
    # tr A^4 reaches 61^4 + 61 on K_62: the fourth moment's float error stays
    # well inside its fixed tolerance
    worst = np.abs(sequential_sum(squares * squares) - table.column["walks4"]).max()
    assert worst * 10 <= 1e-6


def test_verify_builds_no_energy_chain(monkeypatch):
    graphs = enumerate_connected(6)
    expected = run_verify(graphs)

    def refuse(*args, **kwargs):
        raise AssertionError("verify built an EnergyChain")

    monkeypatch.setattr(harness, "energy_chain", refuse)
    assert summaries_equal(run_verify(graphs), expected)


# --- worker pool -----------------------------------------------------------------


def inline_pool(monkeypatch, cpus, submitted=None):
    """Stand in for the process pool: run each task at submit, start no process.

    Returns the list of ``max_workers`` values the pool was built with. Each
    task's positional arguments go to ``submitted``, when given.
    """
    sizes = []

    class InlinePool(Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, /, *args, **kwargs):
            if submitted is not None:
                submitted.append(args)
            future = Future()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return sizes


def test_one_process_run_loads_no_multiprocessing():
    # concurrent.futures loads its process pool lazily; only --jobs > 1 needs it
    code = ("import sys, geb.cli; geb.cli.main(['verify', '--enumerate', '4']); "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
            "'concurrent.futures.process'))), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == "[]\n"


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_are_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_verify(small_corpus(), jobs=jobs)


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    sizes = inline_pool(monkeypatch, cpus=3)
    capped = run_verify(small_corpus(), jobs=100_000)
    assert sizes == [3]
    assert summaries_equal(capped, run_verify(small_corpus()))


def test_one_cpu_affinity_runs_two_jobs_in_process(monkeypatch):
    # taskset -c 0 geb verify --jobs 2: two workers would share one CPU
    sizes = inline_pool(monkeypatch, cpus=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert summaries_equal(run_verify(small_corpus(), jobs=2), run_verify(small_corpus()))
    assert sizes == []


def test_workers_are_capped_at_the_cpu_count_without_affinity(monkeypatch):
    sizes = inline_pool(monkeypatch, cpus=3)
    monkeypatch.delattr(os, "sched_getaffinity")
    run_verify(small_corpus(), jobs=4)
    assert sizes == [3]


def test_pool_pulls_a_bounded_window_of_chunks(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 16)
    pulled = [0]

    def corpus():
        for g in itertools.islice(itertools.cycle(small_corpus()), 400):
            pulled[0] += 1
            yield g

    assert_bounded_window(monkeypatch, corpus(), pulled)


def test_pool_pulls_a_bounded_window_of_decode_blocks(monkeypatch):
    # a PackedCorpus chunk is one block of lines: the window is counted in lines read
    monkeypatch.setattr(graph6, "_BLOCK", 16)
    pulled = [0]

    def lines():
        for g in itertools.islice(itertools.cycle(small_corpus()), 400):
            pulled[0] += 1
            yield write_graph6(g) + "\n"

    chunks = ([(n, packed) for n, _, packed in groups] for groups in read_chunks(lines()))
    assert_bounded_window(monkeypatch, PackedCorpus(chunks), pulled)


def assert_bounded_window(monkeypatch, corpus, pulled):
    """Run a two-worker verify and check how much of ``corpus`` it pulled, in chunks of 16.

    ``pulled[0]`` counts the graphs the corpus has handed out so far.
    """
    inline_pool(monkeypatch, cpus=2)
    at_first_merge = []
    merge = CorpusSummary.merge

    def noting_merge(self, other):
        if not at_first_merge:
            at_first_merge.append(pulled[0])
        merge(self, other)

    monkeypatch.setattr(CorpusSummary, "merge", noting_merge)
    summary = run_verify(corpus, jobs=2)
    assert at_first_merge[0] <= (2 * 2 + 1) * 16  # two chunks in flight per worker
    assert pulled[0] == summary.graphs_seen == 400


def test_pool_sends_chunks_as_packed_groups(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 16)
    submitted = []
    inline_pool(monkeypatch, cpus=2, submitted=submitted)
    corpus = small_corpus()  # enumerated graphs, which carry their decode memo
    for run in (run_verify, run_conjectures, partial(run_equality, bound="main")):
        submitted.clear()
        pooled = run(corpus, jobs=2)
        assert summaries_equal(pooled, run(corpus))
        groups = [group for (chunk,) in submitted for group in chunk]
        assert [(n, int.from_bytes(row.tobytes(), "little")) for n, packed in groups
                for row in packed] == [(g.n, g.adj) for g in corpus]
        assert all(type(n) is int and packed.dtype == np.uint8
                   and packed.shape[1] == (n * (n - 1) // 2 + 7) // 8 for n, packed in groups)
