"""Closed-form checks for every energy bound and the per-graph report."""

import math

import pytest

from geb.bounds import (
    BoundReport,
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
from geb.errors import EmptyGraph
from geb.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    path,
    petersen,
)
from geb.spectral import eigenvalues, spectral_stats

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


def test_report_accepts_precomputed_spectrum():
    g = cycle(6)
    assert bound_report(g, stats=spectral_stats(eigenvalues(g))) == bound_report(g)


def test_report_field_order_matches_header():
    r = bound_report(complete(3))
    d = r.to_dict()
    assert list(d.keys()) == BoundReport.csv_header()
    assert d["graph6"] == "Bw"
    assert BoundReport.csv_header()[0] == "graph6"
    assert d["n"] == 3 and d["m"] == 3


def test_report_graph6_field_round_trips():
    from geb.graph6 import parse_graph6

    for g in (petersen(), path(4), complete_bipartite(1, 3)):
        r = bound_report(g)
        assert parse_graph6(r.graph6) == g
