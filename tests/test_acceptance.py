"""Top-level acceptance gate.

Each test prints one visible ``ACCEPTANCE k: PASS/FAIL`` line (straight to
the terminal, bypassing capture) so a plain ``pytest`` run shows the verdict
per criterion at a glance.
"""

import contextlib
import random
import time

import pytest

from geb.bounds import bound_report
from geb.cli import main
from geb.enumeration import enumerate_connected
from geb.graph6 import parse_graph6, write_graph6
from geb.graphs import Graph, complete, complete_bipartite, pair_count, path, petersen, triangle_count
from geb.gruss import BoundedVector, chebyshev_functional, dragomir_bound, energy_chain, gruss_bound
from geb.spectral import (
    determinant_exact,
    eigenvalues_batch,
    integer_rank,
    spectral_stats,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _announce(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number}: FAIL - {description}", flush=True)
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE {number}: PASS - {description}", flush=True)

    return _announce


def corpus():
    return [g for n in range(1, 8) for g in enumerate_connected(n)]


def cli_lines(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def summary_value(out, label):
    for line in out.splitlines():
        if line.startswith(label + ": "):
            return int(line.split(": ")[1])
    raise AssertionError(f"missing {label!r} in output:\n{out}")


def test_criterion_1_conjecture_scan(announce, capsys, data_dir):
    with announce(1, "conjecture scan: 853 connected 7-vertex graphs, 0 counterexamples, < 5 min"):
        start = time.monotonic()
        code, out = cli_lines(capsys, "conjectures", "--enumerate", "7")
        elapsed = time.monotonic() - start
        assert code == 0
        assert summary_value(out, "graphs seen") == 853
        assert summary_value(out, "counterexamples") == 0
        assert elapsed < 300.0, f"took {elapsed:.1f} s"

        eight = data_dir / "connected8.g6"
        if eight.exists():
            code, out = cli_lines(capsys, "conjectures", "--corpus", str(eight))
            assert code == 0
            assert summary_value(out, "graphs seen") == 11117
            assert summary_value(out, "counterexamples") == 0


def test_criterion_2_soundness_per_size(announce, capsys):
    with announce(2, "verify passes with the expected class count for n = 1..7"):
        for n, count in CONNECTED_COUNTS.items():
            code, out = cli_lines(capsys, "verify", "--enumerate", str(n))
            assert code == 0, f"verify failed at n={n}"
            assert summary_value(out, "graphs seen") == count
            assert summary_value(out, "violations") == 0


def test_criterion_3_equality_fixtures(announce):
    with announce(3, "tightness on complete bipartite, complete, and rank fixtures"):
        for p in range(1, 7):
            for q in range(p, 7):
                r = bound_report(complete_bipartite(p, q))
                assert abs(r.slack_cor_nice) <= 1e-9, (p, q)
        for n in range(2, 9):
            r = bound_report(complete(n))
            assert abs(r.slack_main) <= 1e-9, n
        for g in (path(3), complete_bipartite(2, 3)):
            r = bound_report(g)
            assert abs(r.slack_rank_bound) <= 1e-9


def test_criterion_4_dominance(announce):
    with announce(4, "bound dominance chain on every connected graph up to 7 vertices"):
        graphs = [g for g in corpus() if g.edge_count]
        specs = eigenvalues_batch(graphs)
        for g, spec in zip(graphs, specs):
            r = bound_report(g, stats=spectral_stats(spec))
            assert r.main >= r.cor_nice - 1e-9, r.graph6
            if r.rank_bound is not None:
                assert r.rank_bound >= r.main - 1e-9, r.graph6
            assert r.amgm <= r.main + 1e-9, r.graph6
            if r.is_triangle_free:
                assert r.cor_nice >= r.caporossi - 1e-9, r.graph6
            if r.is_regular:
                assert abs(r.cor_nice - r.n) <= 1e-9, r.graph6


def test_criterion_5_functional_bounds(announce):
    with announce(5, "10^4 random vector pairs and the product chain on the corpus"):
        rng = random.Random(20260813)
        for _ in range(10_000):
            k = rng.randint(1, 50)
            x = BoundedVector(tuple(rng.uniform(-10, 10) for _ in range(k)))
            y = BoundedVector(tuple(rng.uniform(-10, 10) for _ in range(k)))
            t = chebyshev_functional(x, y)
            d = dragomir_bound(x, y)
            gb = gruss_bound(x, y)
            assert abs(t) <= d + 1e-12
            assert d <= gb + 1e-12

        graphs = [g for g in corpus() if g.edge_count]
        specs = eigenvalues_batch(graphs)
        for g, spec in zip(graphs, specs):
            stats = spectral_stats(spec)
            for restricted in (False, True):
                ch = energy_chain(spec, stats, restrict_to_nonzero=restricted)
                assert abs(ch.P - (spec.energy**2 - 2 * g.edge_count)) <= 1e-6
                assert ch.P >= ch.P_lower - 1e-9


def test_criterion_6_spectral_cross_checks(announce):
    with announce(6, "eigenvalue identities and exact integer cross-checks on the corpus"):
        graphs = corpus()
        specs = eigenvalues_batch(graphs)
        for g, spec in zip(graphs, specs):
            m = g.edge_count
            assert abs(sum(spec.values)) <= 1e-8
            assert abs(sum(v * v for v in spec.values) - 2 * m) <= 1e-7
            assert abs(sum(v**3 for v in spec.values) - 6 * triangle_count(g)) <= 1e-6
            det = determinant_exact(g)
            prod = 1.0
            for v in spec.values:
                prod *= v
            assert abs(prod - det) <= 1e-6 * max(1.0, abs(det))
            assert spectral_stats(spec).rank == integer_rank(g)


def test_criterion_7_format_round_trip(announce):
    with announce(7, "10^4 graph6 round-trips plus golden encodings"):
        rng = random.Random(7)
        for _ in range(10_000):
            n = rng.randint(1, 20)
            g = Graph(n, rng.getrandbits(pair_count(n)))
            assert parse_graph6(write_graph6(g)) == g
        assert parse_graph6("A_") == complete(2)
        assert parse_graph6("Bw") == complete(3)
        assert parse_graph6("A?") == Graph(2, 0)
        assert write_graph6(complete(2)) == "A_"
        assert write_graph6(complete(3)) == "Bw"
        assert write_graph6(Graph(2, 0)) == "A?"


def test_criterion_8_petersen_closed_form(announce):
    with announce(8, "Petersen graph: E = 16, main = 15, cor_nice = 10, amgm = 15"):
        r = bound_report(petersen())
        assert abs(r.energy - 16.0) <= 1e-9
        assert abs(r.main - 15.0) <= 1e-9
        assert abs(r.cor_nice - 10.0) <= 1e-9
        assert abs(r.amgm - 15.0) <= 1e-9
