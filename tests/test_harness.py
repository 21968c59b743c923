"""Corpus drivers: summaries, gating, parallel determinism."""

import concurrent.futures
import itertools
import os
import subprocess
import sys
from functools import partial
from concurrent.futures import Executor, Future

import pytest

from geb.bounds import BoundTable, bound_report
from geb.enumeration import canonical_form, enumerate_connected
from geb.graph6 import parse_graph6, write_graph6
from geb.graphs import (
    Graph, complete, complete_bipartite, cycle, from_edge_list, path, petersen,
)
from geb.harness import (
    EQUALITY_BOUNDS,
    CorpusSummary,
    Extreme,
    Violation,
    run_conjectures,
    run_equality,
    run_verify,
)
from geb.errors import InvariantViolation
from geb.gruss import energy_chain
from geb.spectral import Spectrum, spectral_stats
import geb.bounds as bounds
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
    visit(summary, BoundTable([], [], []))
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
    # reports and chunks read adjacency stacks: no bitset goes through the Python
    # decode, except once for each equality hit's complete-bipartite check
    decoded = []
    decode = graphs._decode
    monkeypatch.setattr(graphs, "_decode", lambda g: decoded.append(id(g)) or decode(g))

    bound_report(Graph(10, petersen().adj))  # a fresh graph: nothing decoded yet
    fresh = [Graph(h.n, h.adj) for h in enumerate_connected(5)]  # may decode its own graphs
    run_verify(fresh)
    run_conjectures(fresh)
    assert decoded == []

    hits = {h.graph6 for h in run_equality(fresh, bound="cor_nice").equality_hits}
    assert len(hits) == 2
    assert sorted(decoded) == sorted(id(g) for g in fresh if write_graph6(g) in hits)


@pytest.mark.parametrize("run", [run_verify, run_conjectures, partial(run_equality, bound="main")],
                         ids=["verify", "conjectures", "equality"])
def test_each_graph_derives_its_spectral_stats_once(monkeypatch, run):
    # one columnar derivation per chunk, covering each of its graphs once; none per graph
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 8)
    fresh = [Graph(h.n, h.adj) for h in enumerate_connected(5)]
    batches = []
    derive = bounds.spectral_columns
    monkeypatch.setattr(bounds, "spectral_columns",
                        lambda spectra, *args: batches.append(list(spectra)) or derive(spectra, *args))

    def refuse(*args, **kwargs):
        raise AssertionError("a per-graph SpectralStats was derived")

    for module in (harness, bounds, spectral):
        monkeypatch.setattr(module, "spectral_stats", refuse)
    run(fresh)
    assert [len(batch) for batch in batches] == [8, 8, 5]
    assert [spec for batch in batches for spec in batch] == spectral.eigenvalues_batch(fresh)


def test_in_chunk_ties_go_to_the_smaller_graph6(monkeypatch):
    # two labelings of K_{1,3} given one identical spectrum tie on every slack
    stars = [from_edge_list(4, [(c, v) for v in range(4) if v != c]) for c in (0, 3)]
    spec = harness.eigenvalues_batch(stars[:1])[0]
    monkeypatch.setattr(harness, "eigenvalues_batch", lambda graphs: [spec] * len(graphs))
    names = sorted(write_graph6(g) for g in stars)
    assert names[0] != names[1]
    for corpus in (stars, stars[::-1]):
        for summary in (run_verify(corpus), run_conjectures(corpus),
                        run_equality(corpus, bound="main")):
            assert summary.extremes
            assert {ext.graph6 for ext in summary.extremes.values()} == {names[0]}


def test_moment_rows_flag_a_perturbed_eigenvalue(monkeypatch):
    solve = harness.eigenvalues_batch
    c5 = write_graph6(cycle(5))

    def perturbed(graphs):
        """cycle(5) gets lambda1 = 2 + 1e-4, with its energy unchanged."""
        out = solve(graphs)
        for i, g in enumerate(graphs):
            if g == cycle(5):
                out[i] = Spectrum((out[i].values[0] + 1e-4,) + out[i].values[1:], out[i].energy)
        return out

    monkeypatch.setattr(harness, "eigenvalues_batch", perturbed)
    summary = run_verify([path(4), cycle(5), petersen(), complete_bipartite(2, 3)])
    assert {v.graph6 for v in summary.violations} == {c5}
    moments = [(v.graph6, v.bound_name) for v in summary.violations
               if v.bound_name.startswith("moment:")]
    assert moments == [(c5, "moment:cubes"), (c5, "moment:sum")]


@pytest.mark.parametrize("shift,names", [
    (0.5, ["gruss:chain", "gruss:chain:restricted"]),        # P falls below P_lower
    (-0.5, ["gruss:identity", "gruss:identity:restricted"]),  # P != E^2 - 2m
])
def test_gruss_violations_are_reported(monkeypatch, shift, names):
    solve = harness.eigenvalues_batch

    def shifted(graphs):
        return [Spectrum(s.values, s.energy + shift) for s in solve(graphs)]

    monkeypatch.setattr(harness, "eigenvalues_batch", shifted)
    summary = run_verify([path(4)])
    assert [v.bound_name for v in summary.violations if v.bound_name.startswith("gruss:")] == names


def reference_gruss_rows(g, spec):
    """The gruss:* violations derived from ``gruss.energy_chain`` on one spectrum."""
    stats = spectral_stats(spec)
    target = spec.energy * spec.energy - 2.0 * g.edge_count
    rows = []
    for suffix, restricted in (("", False), (":restricted", True))[:1 + bool(stats.rank)]:
        try:
            chain = energy_chain(spec, stats, restrict_to_nonzero=restricted)
        except InvariantViolation as exc:
            rows.append(("gruss:chain" + suffix, "nan", repr(spec.energy), str(exc)))
            continue
        if abs(chain.P - target) > 1e-6:
            rows.append(("gruss:identity" + suffix, repr(chain.P), repr(target),
                         "P != E^2 - 2m"))
    return sorted(rows)  # the summary sorts its violations by name


@pytest.mark.parametrize("shift", [-0.5, -1e-3, 0.0, 1e-3, 0.5])
@pytest.mark.parametrize("g", [path(4), complete_bipartite(2, 3), petersen()],
                         ids=["path4", "K2,3", "petersen"])
def test_gruss_rows_match_the_reference_chain(monkeypatch, g, shift):
    spec = harness.eigenvalues_batch([g])[0]
    spec = Spectrum(spec.values, spec.energy + shift)
    monkeypatch.setattr(harness, "eigenvalues_batch", lambda graphs: [spec])
    summary = run_verify([g])
    got = [(v.bound_name, repr(v.bound_value), repr(v.energy), v.detail)
           for v in summary.violations if v.bound_name.startswith("gruss:")]
    assert got == reference_gruss_rows(g, spec)


def test_perron_breach_costs_one_graph(monkeypatch):
    solve = harness.eigenvalues_batch

    def breached(graphs):
        """path(4) gets a smallest eigenvalue just past -lambda1."""
        out = solve(graphs)
        for i, g in enumerate(graphs):
            if g == path(4):
                values = out[i].values[:-1] + (-(out[i].values[0] + 1e-9),)
                out[i] = Spectrum(values, sum(sorted((abs(v) for v in values), reverse=True)))
        return out

    monkeypatch.setattr(harness, "eigenvalues_batch", breached)
    summary = run_verify([path(4), cycle(5)])
    assert summary.graphs_seen == 2
    chain = [(v.graph6, v.bound_name) for v in summary.violations
             if v.bound_name.startswith("gruss:chain")]
    p4 = write_graph6(path(4))
    assert chain == [(p4, "gruss:chain"), (p4, "gruss:chain:restricted")]


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


def test_pool_pulls_a_bounded_window_of_chunks(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 16)
    inline_pool(monkeypatch, cpus=2)
    pulled = 0

    def corpus():
        nonlocal pulled
        for g in itertools.islice(itertools.cycle(small_corpus()), 400):
            pulled += 1
            yield g

    at_first_merge = []
    merge = CorpusSummary.merge

    def noting_merge(self, other):
        if not at_first_merge:
            at_first_merge.append(pulled)
        merge(self, other)

    monkeypatch.setattr(CorpusSummary, "merge", noting_merge)
    summary = run_verify(corpus(), jobs=2)
    assert at_first_merge[0] <= (2 * 2 + 1) * 16  # two chunks in flight per worker
    assert pulled == summary.graphs_seen == 400


def test_pool_sends_chunks_as_int_pairs(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 16)
    submitted = []
    inline_pool(monkeypatch, cpus=2, submitted=submitted)
    corpus = small_corpus()  # enumerated graphs, which carry their decode memo
    for run in (run_verify, run_conjectures, partial(run_equality, bound="main")):
        submitted.clear()
        pooled = run(corpus, jobs=2)
        assert summaries_equal(pooled, run(corpus))
        chunks = [chunk for (chunk,) in submitted]
        assert [pair for chunk in chunks for pair in chunk] == [(g.n, g.adj) for g in corpus]
        assert all(type(pair) is tuple and [type(x) for x in pair] == [int, int]
                   for chunk in chunks for pair in chunk)
