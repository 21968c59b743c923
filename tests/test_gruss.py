"""Chebyshev-functional bounds and the energy product-sum chain."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geb.errors import (
    EmptyGraph,
    EmptyVector,
    InvariantViolation,
    LengthMismatch,
    NegativeFactor,
    ZeroRank,
)
from geb.enumeration import enumerate_connected
from geb.graphs import Graph, complete, complete_bipartite, path, petersen
from geb.gruss import (
    BoundedVector,
    EnergyChain,
    chebyshev_functional,
    dragomir_bound,
    energy_chain,
    gruss_bound,
)
from geb.spectral import SpectralStats, Spectrum, eigenvalues, eigenvalues_batch, spectral_stats


def chain_for(g, restricted=False, zero_tol=None):
    spec = eigenvalues(g)
    stats = spectral_stats(spec) if zero_tol is None else spectral_stats(spec, zero_tol)
    return energy_chain(spec, stats, restrict_to_nonzero=restricted)


# --- BoundedVector ----------------------------------------------------------


def test_default_bounds_are_entry_extremes():
    v = BoundedVector((3.0, -1.0, 2.0))
    assert v.lower == -1.0
    assert v.upper == 3.0
    assert v.mean == pytest.approx(4.0 / 3.0)


def test_explicit_bounds_must_contain_entries():
    BoundedVector((1.0, 2.0), lower=1.0, upper=2.0)
    with pytest.raises(ValueError):
        BoundedVector((1.0, 2.0), lower=1.5)
    with pytest.raises(ValueError):
        BoundedVector((1.0, 2.0), upper=1.5)


def test_bounds_allow_hairline_roundoff():
    # certified bounds may miss the entries by at most 1e-12
    BoundedVector((1.0,), lower=1.0 + 1e-13, upper=1.0 - 1e-13)
    with pytest.raises(ValueError):
        BoundedVector((1.0,), lower=1.0 + 1e-11)


def test_empty_vector_rejected():
    with pytest.raises(EmptyVector):
        BoundedVector(())


def test_bounded_vector_is_frozen():
    v = BoundedVector((1.0,))
    with pytest.raises(AttributeError):
        v.lower = -5.0


# --- Chebyshev functional ---------------------------------------------------


def test_functional_of_constant_vectors_is_zero():
    c = BoundedVector((2.5, 2.5, 2.5))
    assert chebyshev_functional(c, c) == 0.0


def test_functional_of_sign_vector():
    v = BoundedVector((1.0, -1.0))
    assert chebyshev_functional(v, v) == pytest.approx(1.0)


def test_functional_of_opposed_ramps():
    x = (0.0, 1.0, 2.0)
    y = (2.0, 1.0, 0.0)
    assert chebyshev_functional(x, y) == pytest.approx(-2.0 / 3.0)


def test_functional_accepts_mixed_argument_kinds():
    x = BoundedVector((0.0, 1.0, 2.0))
    assert chebyshev_functional(x, [2.0, 1.0, 0.0]) == pytest.approx(-2.0 / 3.0)


def test_functional_errors():
    with pytest.raises(LengthMismatch):
        chebyshev_functional((1.0, 2.0), (1.0,))
    with pytest.raises(EmptyVector):
        chebyshev_functional((), ())


# --- range and mean-gap bounds ----------------------------------------------


def test_range_bound_sign_vector():
    v = BoundedVector((1.0, -1.0), lower=-1.0, upper=1.0)
    assert gruss_bound(v, v) == pytest.approx(1.0)
    assert dragomir_bound(v, v) == pytest.approx(1.0)


def test_range_bound_constant_is_zero():
    c = BoundedVector((4.0, 4.0))
    assert gruss_bound(c, c) == 0.0
    assert dragomir_bound(c, c) == 0.0


def test_ramp_example():
    x = BoundedVector((0.0, 1.0, 2.0), lower=0.0, upper=2.0)
    y = BoundedVector((2.0, 1.0, 0.0), lower=0.0, upper=2.0)
    assert gruss_bound(x, y) == pytest.approx(1.0)
    assert dragomir_bound(x, y) == pytest.approx(1.0)
    assert abs(chebyshev_functional(x, y)) <= dragomir_bound(x, y)


def test_negative_factor_requires_corrupted_vector():
    # unreachable through the constructor; forge an instance to hit the guard
    bad = object.__new__(BoundedVector)
    object.__setattr__(bad, "values", (0.0,))
    object.__setattr__(bad, "lower", 1.0)
    object.__setattr__(bad, "upper", 2.0)
    ok = BoundedVector((1.5,), lower=1.0, upper=2.0)
    with pytest.raises(NegativeFactor):
        dragomir_bound(bad, ok)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bound_ordering_on_random_vectors(data):
    k = data.draw(st.integers(min_value=1, max_value=50))
    entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    xs = data.draw(st.lists(entries, min_size=k, max_size=k))
    ys = data.draw(st.lists(entries, min_size=k, max_size=k))
    x = BoundedVector(tuple(xs))
    y = BoundedVector(tuple(ys))
    t = chebyshev_functional(x, y)
    d = dragomir_bound(x, y)
    g = gruss_bound(x, y)
    assert abs(t) <= d + 1e-12
    assert d <= g + 1e-12


# --- energy chain -----------------------------------------------------------


def test_chain_single_edge_is_tight():
    ch = chain_for(complete(2))
    assert ch.P == pytest.approx(2.0)
    assert ch.P_lower == pytest.approx(2.0)
    assert ch.gruss_rhs == pytest.approx(0.0, abs=1e-12)


def test_chain_complete_four():
    ch = chain_for(complete(4))
    assert ch.P == pytest.approx(24.0)
    assert ch.P_lower == pytest.approx(24.0)
    assert ch.gruss_rhs == pytest.approx(0.75)  # (3 - 6/4)(6/4 - 1)
    assert ch.x.lower == pytest.approx(1.0)
    assert ch.x.upper == pytest.approx(3.0)


def test_chain_petersen():
    ch = chain_for(petersen())
    assert ch.P == pytest.approx(226.0)        # E^2 - 2m = 256 - 30
    assert ch.P_lower == pytest.approx(222.0)  # 256 + 10*3*1 - 4*16
    assert ch.gruss_rhs == pytest.approx(0.84)  # (3 - 1.6)(1.6 - 1)


def test_chain_restricted_path_three():
    ch = chain_for(path(3), restricted=True)
    assert len(ch.x.values) == 2
    assert ch.P == pytest.approx(4.0)
    assert ch.P_lower == pytest.approx(4.0)
    assert ch.gruss_rhs == pytest.approx(0.0, abs=1e-12)


def test_chain_restricted_complete_bipartite():
    ch = chain_for(complete_bipartite(2, 3), restricted=True)
    assert len(ch.x.values) == 2
    assert ch.P == pytest.approx(12.0)
    assert ch.P_lower == pytest.approx(12.0)


def test_chain_vector_construction():
    g = petersen()
    spec = eigenvalues(g)
    stats = spectral_stats(spec)
    ch = energy_chain(spec, stats)
    assert isinstance(ch, EnergyChain)
    assert ch.x.mean == spec.energy / g.n  # exact: same sum, same division
    assert ch.y.mean == pytest.approx((g.n - 1) * spec.energy / g.n, abs=1e-12)
    assert (ch.x.lower, ch.x.upper) == (stats.t, stats.lambda1)
    assert ch.y.lower == pytest.approx(spec.energy - stats.lambda1)
    assert ch.y.upper == pytest.approx(spec.energy - stats.t)


def test_chain_empty_graph():
    g = Graph(3, 0)
    with pytest.raises(EmptyGraph):
        energy_chain(eigenvalues(g), spectral_stats(eigenvalues(g)))


def test_chain_zero_rank():
    # all eigenvalues under the threshold but energy above it
    spec = Spectrum(values=(0.2,) * 5 + (-0.2,) * 5, energy=2.0)
    stats = SpectralStats(
        energy=2.0, lambda1=0.2, t=0.2, t_nz=None, rank=0, zero_tol=0.5,
    )
    with pytest.raises(ZeroRank):
        energy_chain(spec, stats, restrict_to_nonzero=True)


def test_chain_rejects_inconsistent_energy():
    spec = Spectrum(values=(3.0, 1.0), energy=100.0)
    stats = SpectralStats(
        energy=100.0, lambda1=3.0, t=1.0, t_nz=1.0, rank=2, zero_tol=1e-8,
    )
    with pytest.raises(InvariantViolation):
        energy_chain(spec, stats)


def test_chain_over_small_corpus_both_modes():
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n) if g.edges()]
    specs = eigenvalues_batch(graphs)
    for g, spec in zip(graphs, specs):
        stats = spectral_stats(spec)
        m = len(g.edges())
        for restricted in (False, True):
            ch = energy_chain(spec, stats, restrict_to_nonzero=restricted)
            k = len(ch.x.values)
            assert abs(ch.P - (spec.energy**2 - 2 * m)) <= 1e-6
            assert ch.P >= ch.P_lower - 1e-9
            small = stats.t_nz if restricted else stats.t
            collapsed = (stats.lambda1 - spec.energy / k) * (spec.energy / k - small)
            assert ch.gruss_rhs == pytest.approx(collapsed, abs=1e-12)
            assert dragomir_bound(ch.x, ch.y) <= gruss_bound(ch.x, ch.y) + 1e-12
            t = chebyshev_functional(ch.x, ch.y)
            assert abs(t) <= ch.gruss_rhs + 1e-6
