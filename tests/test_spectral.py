"""Eigensolver accuracy, derived stats, and the exact integer cross-checks.

numpy.linalg is used here purely as an independent oracle; the library code
never calls it.
"""

import ast
import math
import os
import pickle
import platform
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graphs
import geb.spectral
from geb.bounds import BoundReport, bound_report
from geb.enumeration import CanonicalForm, canonical_form, enumerate_connected, enumerate_graphs
from geb.graph6 import parse_graph6
from geb.graphs import (
    MAX_VERTICES,
    Graph,
    adjacency_stack,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    pair_count,
    path,
    petersen,
    stacks_by_n,
    triangle_count,
)
from geb.harness import EqualityHit, Extreme, PackedCorpus, Violation
from geb.spectral import (
    _PRIMES,
    _UNCHECKED_STEPS,
    DEFAULT_ZERO_TOL,
    SpectralStats,
    Spectrum,
    _bareiss_steps,
    _primes_for,
    determinant_exact,
    determinants_exact,
    eigenvalues,
    eigenvalues_batch,
    integer_rank,
    spectra_of_stacks,
    spectral_stats,
)

SQRT2 = math.sqrt(2.0)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def adjacency_matrix(g):
    """g's (n, n) float64 0/1 matrix, for the numpy oracles."""
    return adjacency_stack(g.n, [g.adj])[0].astype(float)


# --- closed-form spectra ---------------------------------------------------


def test_single_edge():
    spec = eigenvalues(complete(2))
    assert close(spec.values[0], 1.0)
    assert close(spec.values[1], -1.0)
    assert close(spec.energy, 2.0)


def test_path_three():
    spec = eigenvalues(path(3))
    assert close(spec.values[0], SQRT2)
    assert close(spec.values[1], 0.0)
    assert close(spec.values[2], -SQRT2)
    assert close(spec.energy, 2 * SQRT2)


def test_complete_graph():
    spec = eigenvalues(complete(4))
    assert close(spec.values[0], 3.0)
    assert all(close(v, -1.0) for v in spec.values[1:])
    assert close(spec.energy, 6.0)


def test_petersen_multiplicities():
    spec = eigenvalues(petersen())
    assert close(spec.values[0], 3.0)
    assert all(close(v, 1.0) for v in spec.values[1:6])
    assert all(close(v, -2.0) for v in spec.values[6:])
    assert close(spec.energy, 16.0)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 6)])
def test_complete_bipartite_spectrum(p, q):
    spec = eigenvalues(complete_bipartite(p, q))
    root = math.sqrt(p * q)
    assert close(spec.values[0], root)
    assert close(spec.values[-1], -root)
    assert all(close(v, 0.0) for v in spec.values[1:-1])
    assert close(spec.energy, 2 * root)


def test_cycle_five_energy():
    assert close(eigenvalues(cycle(5)).energy, 2 + 2 * math.sqrt(5.0))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_cycle_spectrum_is_cosine_lattice(n):
    expected = sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
    spec = eigenvalues(cycle(n))
    assert all(close(a, b) for a, b in zip(spec.values, expected))


def test_values_sorted_descending():
    for g in enumerate_connected(5):
        v = eigenvalues(g).values
        assert all(a >= b for a, b in zip(v, v[1:]))


def test_energy_is_deterministic_abs_sum():
    spec = eigenvalues(petersen())
    assert spec.energy == sum(sorted((abs(v) for v in spec.values), reverse=True))
    assert spec.n == 10


# --- oracle comparison -----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_graphs(max_n=10), random_graphs(min_n=11, max_n=62)))
def test_matches_numpy_eigvalsh(g):
    # small graphs, where the golden transcripts' tight cases live, and large ones
    ours = np.array(eigenvalues(g).values)
    ref = np.sort(np.linalg.eigvalsh(adjacency_matrix(g)))[::-1]
    assert np.abs(ours - ref).max() < 1e-9


TIGHT_FAMILIES = {
    "complete": complete,
    "star": lambda n: complete_bipartite(1, n - 1),
    "balanced_bipartite": lambda n: complete_bipartite(n // 2, n - n // 2),
    "cycle": cycle,
    "path": path,
    "edgeless": lambda n: Graph(n, 0),
    "petersen_plus_isolated": lambda n: Graph(n, petersen().adj),
}


@pytest.mark.parametrize("n,family", [
    (n, family) for n in (3, 6, 8, 10, 11, 20, 40, 62) for family in TIGHT_FAMILIES
    if n >= 10 or family != "petersen_plus_isolated"  # Petersen needs ten vertices
])
def test_tight_families_match_eigvalsh(family, n):
    # closed-form families, the tight complete bipartite and regular cases
    # among them, at the sizes of the golden transcripts and above
    g = TIGHT_FAMILIES[family](n)
    spec = eigenvalues(g)
    ref = np.sort(np.linalg.eigvalsh(adjacency_matrix(g)))[::-1]
    assert np.abs(np.array(spec.values) - ref).max() < 1e-12
    assert abs(spec.energy - np.abs(ref).sum()) < 1e-11


def test_batch_agrees_with_single_calls():
    graphs = [petersen(), path(3), complete(2), cycle(6), Graph(4, 0), path(3)]
    batch = eigenvalues_batch(graphs)
    for g, spec in zip(graphs, batch):
        assert spec == eigenvalues(g)


@pytest.mark.parametrize("corpus", ["connected8.g6", "gnp_small.g6"])
def test_batch_spectra_equal_solo_solves(data_dir, corpus):
    # a matrix's eigenvalues and determinant must not depend on which graphs
    # share its batch; gnp_small mixes n = 10, 20 and 40 in one batch
    with open(data_dir / corpus, encoding="ascii") as fh:
        graphs = [parse_graph6(line) for line, _ in zip(fh, range(300))]
    random.Random(0).shuffle(graphs)
    for g, spec in zip(graphs, eigenvalues_batch(graphs)):
        assert spec == eigenvalues(g)
    assert determinants_exact(graphs) == [determinant_exact(g) for g in graphs]


def test_bisection_freezes_converged_intervals():
    # every adjacency matrix with an edge has r >= 1 and needs 53 or 54 bisection
    # steps, so the freeze only shows next to a matrix with r < 1 (here 0.01
    # times an adjacency matrix), which converges in fewer steps
    small = 0.01 * adjacency_matrix(Graph(11, petersen().adj))
    big = adjacency_matrix(complete(11))
    batch = geb.spectral._tridiagonal_eigenvalues_stack(np.stack([small, big], axis=-1))
    for row, m in zip(batch, (small, big)):
        assert (row == geb.spectral._tridiagonal_eigenvalues_stack(m[..., None].copy())[0]).all()


def test_batch_of_empty_sequence():
    assert eigenvalues_batch([]) == []


# --- solver oracles: the batch-first loops ----------------------------------


def batch_first_householder(a):
    """Householder reduction of a (b, n, n) stack in place, as the solver once ran it.

    Each sum runs along a contiguous last axis, in numpy's pairwise order. The
    solver now runs with the batch last, and must leave the same bytes.
    """
    n = a.shape[1]
    for k in range(n - 2):
        x = a[:, k + 1 :, k]
        scale = np.abs(x).max(axis=1)
        v = x / np.where(scale > 0.0, scale, 1.0)[:, None]
        tail = (v[:, 1:] * v[:, 1:]).sum(axis=1)
        reflect = tail > 0.0
        alpha = -np.copysign(np.sqrt(v[:, 0] * v[:, 0] + tail), v[:, 0])
        v[:, 0] -= alpha
        vv = np.maximum((v * v).sum(axis=1), 1.0)
        tau = np.where(reflect, 2.0 / vv, 0.0)
        a[:, k + 1, k] = np.where(reflect, alpha * scale, x[:, 0])
        a22 = a[:, k + 1 :, k + 1 :]
        p = tau[:, None] * (a22 * v[:, None, :]).sum(axis=2)
        w = p - (0.5 * tau * (p * v).sum(axis=1))[:, None] * v
        a22 -= v[:, :, None] * w[:, None, :] + w[:, :, None] * v[:, None, :]


def row_major_bisection(d, e2):
    """Bisection of (b, n) tridiagonals with the batch first, as the solver once ran it.

    Each row's d and e2 are (b, 1) columns broadcast over the n intervals.
    The solver now runs with the batch last, and must give the same bytes.
    """
    n = d.shape[1]
    idx = np.arange(n)
    r = np.abs(d).max(axis=1) + 2.0 * np.sqrt(e2.max(axis=1))
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=1))[:, None]
    tol = (np.finfo(float).eps * np.maximum(1.0, r))[:, None]
    hi = np.repeat(r[:, None], n, axis=1)
    lo = -hi
    active = hi - lo > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        q = np.ones_like(mid)
        count = np.zeros(mid.shape, dtype=np.intp)
        for i in range(n):
            q = d[:, i : i + 1] - mid - e2[:, i : i + 1] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            count += q < 0.0
        upper = active & (count > idx)
        hi = np.where(upper, mid, hi)
        lo = np.where(active & ~upper, mid, lo)
        active = hi - lo > tol
    return 0.5 * (lo + hi)


def assert_bisection_matches_oracle(stack):
    # both halves of the solver, by bytes: == would take -0.0 for 0.0
    a = np.ascontiguousarray(stack.transpose(1, 2, 0), dtype=float)
    ours = geb.spectral._tridiagonal_eigenvalues_stack(a)
    ref = stack.astype(float)
    batch_first_householder(ref)
    idx = np.arange(len(a))
    d = ref[:, idx, idx]
    e = ref[:, idx[1:], idx[:-1]]
    # the reduction leaves its tridiagonal form in a
    assert a[idx, idx].T.tobytes() == d.tobytes()
    assert a[idx[1:], idx[:-1]].T.tobytes() == e.tobytes()
    e2 = np.zeros_like(d)
    e2[:, 1:] = e**2
    assert ours.shape == d.shape
    assert ours.tobytes() == row_major_bisection(d, e2).tobytes()


def test_mixed_batch_matches_solo_solves_and_the_row_major_loop():
    # edgeless matrices are inactive from step 0, with ends -0.0 and +0.0; the
    # 0.01-scaled Petersen matrix converges before the matrices with edges
    n = 10
    mats = [adjacency_matrix(g) for g in (Graph(n, 0), petersen(), complete(n), path(n), Graph(n, 0))]
    mats[1] *= 0.01
    stack = np.stack(mats)
    assert_bisection_matches_oracle(stack)
    batch = geb.spectral._tridiagonal_eigenvalues_stack(np.ascontiguousarray(stack.transpose(1, 2, 0)))
    for row, m in zip(batch, mats):
        assert row.tobytes() == geb.spectral._tridiagonal_eigenvalues_stack(m[..., None].copy())[0].tobytes()
    assert batch[0].tobytes() == batch[-1].tobytes() == np.zeros(n).tobytes()


@pytest.mark.parametrize("n", [1, 2, 8, 62])
def test_edgeless_spectrum_is_positive_zero(n):
    # by bytes: == would take -0.0 for 0.0
    zeros = np.zeros(n).tobytes()
    mixed = eigenvalues_batch([complete(n), Graph(n, 0), path(n)])
    for spec in (eigenvalues(Graph(n, 0)), mixed[1]):
        assert np.array(spec.values).tobytes() == zeros
        assert np.float64(spec.energy).tobytes() == np.zeros(1).tobytes()


def test_array_spectra_equal_the_spectrum_objects_by_bytes():
    # the corpus path reads the arrays; report and the library read Spectrum objects
    graphs = [complete(62), Graph(1, 0), petersen(), Graph(7, 0), path(3),
              complete_bipartite(31, 31), Graph(1, 0), cycle(5), complete(62)]
    values, energy = spectra_of_stacks(stacks_by_n([g.n for g in graphs], [g.adj for g in graphs]),
                                       len(graphs))
    assert values.shape == (len(graphs), 62) and energy.shape == (len(graphs),)
    for row, e, g, spec in zip(values, energy, graphs, eigenvalues_batch(graphs)):
        assert spec == eigenvalues(g)  # the batch does not change a spectrum
        assert row[: g.n].tobytes() == np.array(spec.values).tobytes()
        assert row[g.n :].tobytes() == np.zeros(62 - g.n).tobytes()  # +0.0 padding
        assert e.tobytes() == np.float64(spec.energy).tobytes()
    assert values[3].tobytes() == np.zeros(62).tobytes()  # the edgeless graph: +0.0 only
    assert values[1].tobytes() == np.zeros(62).tobytes() and energy[1] == 0.0  # n = 1
    empty = spectra_of_stacks(stacks_by_n([], []), 0)
    assert [a.shape for a in empty] == [(0, 1), (0,)]


@pytest.mark.parametrize("b", [1, 3, 1024])
def test_pairwise_sum_keeps_numpys_order(b):
    # the solver's sums over axis 0 must round as np.sum along a contiguous
    # row does; this fails if a numpy release changes its summation scheme
    rng = np.random.default_rng(b)
    for length in range(64):
        scales = 10.0 ** rng.integers(-25, 26, size=(b, length))
        for rows in (rng.standard_normal((b, length)) * scales, np.full((b, length), -0.0)):
            ours = geb.spectral._pairwise_sum(np.ascontiguousarray(rows.T))
            assert ours.tobytes() == rows.sum(axis=-1).tobytes(), length


@pytest.mark.parametrize("corpus", ["connected8.g6", "gnp_small.g6"])
def test_bisection_matches_the_row_major_loop_on_corpora(data_dir, corpus):
    with open(data_dir / corpus, encoding="ascii") as fh:
        graphs = [parse_graph6(line) for line in fh]
    for _, stack in stacks_by_n([g.n for g in graphs], [g.adj for g in graphs]):
        assert_bisection_matches_oracle(stack)
        assert_bisection_matches_oracle(stack[:1])  # a batch of one


def test_bisection_matches_the_row_major_loop_at_every_n():
    rng = random.Random(13)
    for n in range(1, 63):
        bitsets = [0, (1 << (n * (n - 1) // 2)) - 1]  # edgeless and complete
        bitsets += [rng.getrandbits(n * (n - 1) // 2) for _ in range(2)]
        assert_bisection_matches_oracle(adjacency_stack(n, bitsets))
    extremes = [Graph(62, 0), complete_bipartite(1, 61), complete_bipartite(31, 31)]
    assert_bisection_matches_oracle(adjacency_stack(62, [g.adj for g in extremes]))
    for g in extremes:
        assert_bisection_matches_oracle(adjacency_stack(62, [g.adj]))


def test_sturm_counts_fit_every_vertex_count():
    # the bisection counts the eigenvalues below each midpoint, up to n, in a
    # narrow integer type
    assert np.iinfo(geb.spectral._COUNT).max >= MAX_VERTICES
    spec = eigenvalues(complete(MAX_VERTICES))
    assert close(spec.values[0], MAX_VERTICES - 1)
    assert all(close(v, -1.0) for v in spec.values[1:])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=62).flatmap(
    lambda n: st.lists(random_graphs(min_n=n, max_n=n), min_size=1, max_size=5)))
def test_bisection_matches_the_row_major_loop_on_random_batches(graphs):
    assert_bisection_matches_oracle(adjacency_stack(graphs[0].n, [g.adj for g in graphs]))


# --- invariants over the full small corpus ---------------------------------


def test_corpus_spectral_invariants():
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    specs = eigenvalues_batch(graphs)
    for g, spec in zip(graphs, specs):
        m = len(g.edges())
        assert abs(sum(spec.values)) <= 1e-8
        assert abs(sum(v * v for v in spec.values) - 2 * m) <= 1e-7
        assert abs(sum(v**3 for v in spec.values) - 6 * triangle_count(g)) <= 1e-6
        det = determinant_exact(g)
        assert abs(math.prod(spec.values) - det) <= 1e-6 * max(1.0, abs(det))
        # positive-part identity: sum of positive eigenvalues is E/2
        pos = sum(v for v in spec.values if v > 0)
        assert abs(2 * pos - spec.energy) <= 1e-8
        # Perron root of a connected graph is simple
        if g.n > 1:
            assert spec.values[0] - spec.values[1] > 1e-8


def test_disconnected_corpus_invariants():
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n, connected=False)]
    for g, spec in zip(graphs, eigenvalues_batch(graphs)):
        m = len(g.edges())
        assert abs(sum(spec.values)) <= 1e-8
        assert abs(sum(v * v for v in spec.values) - 2 * m) <= 1e-7


# --- derived stats ----------------------------------------------------------


def test_stats_path_three():
    st = spectral_stats(eigenvalues(path(3)))
    assert close(st.lambda1, SQRT2)
    assert close(st.t, 0.0, tol=1e-12)
    assert st.t_nz is not None and close(st.t_nz, SQRT2)
    assert st.rank == 2
    assert st.rank < 3
    assert st.zero_tol == DEFAULT_ZERO_TOL


def test_stats_complete_four():
    st = spectral_stats(eigenvalues(complete(4)))
    assert close(st.lambda1, 3.0)
    assert close(st.t, 1.0)
    assert close(st.t_nz, 1.0)
    assert st.rank == 4
    assert not st.rank < 4


def test_stats_single_edge():
    st = spectral_stats(eigenvalues(complete(2)))
    assert close(st.lambda1, 1.0)
    assert close(st.t, 1.0)
    assert st.rank == 2


@pytest.mark.parametrize("n", [3, 11, 62])
def test_stats_empty_graph_has_rank_zero(n):
    spec = eigenvalues(Graph(n, 0))
    assert all(v == 0.0 for v in spec.values)
    assert spec.energy == 0.0
    stats = spectral_stats(spec)
    assert stats.rank == 0
    assert stats.t_nz is None
    assert stats.lambda1 == 0.0


def test_stats_zero_tol_validation():
    spec = eigenvalues(complete(3))
    with pytest.raises(ValueError):
        spectral_stats(spec, zero_tol=0.0)
    with pytest.raises(ValueError):
        spectral_stats(spec, zero_tol=-1e-9)
    with pytest.raises(ValueError):
        spectral_stats(spec, zero_tol=float("nan"))


def test_stats_huge_zero_tol_zeroes_rank():
    st = spectral_stats(eigenvalues(complete(3)), zero_tol=100.0)
    assert st.rank == 0
    assert st.t_nz is None
    assert st.rank < 3


# --- exact integer companions ----------------------------------------------


def bareiss_determinant(g):
    """Fraction-free Bareiss elimination over Python ints: the determinant oracle."""
    n = g.n
    a = [[int(g.has_edge(i, j)) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), -1)
            if pivot < 0:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(random_graphs(max_n=10), random_graphs(min_n=11, max_n=62)),
                min_size=1, max_size=6))
def test_determinants_match_bareiss(graphs):
    assert determinants_exact(graphs) == [bareiss_determinant(g) for g in graphs]


def cycle_determinant(n):
    return 2 if n % 2 else (0 if n % 4 == 0 else -4)


@pytest.mark.parametrize("n", [11, 18, 19, 20, 21, 40, 62])
def test_determinant_closed_forms(n):
    cases = [
        (complete(n), (-1) ** (n - 1) * (n - 1)),
        (complete_bipartite(1, n - 1), 0),
        (complete_bipartite(n // 2, n - n // 2), 0),
        (cycle(n), cycle_determinant(n)),
        (path(n), 0 if n % 2 else (-1) ** (n // 2)),
        (Graph(n, petersen().adj), 0),
        (Graph(n, 0), 0),
    ]
    graphs, dets = zip(*cases)
    assert determinants_exact(list(graphs)) == list(dets)
    assert [determinant_exact(g) for g in graphs] == list(dets)



def test_complete_graph_determinants_in_one_batch():
    sizes = range(1, MAX_VERTICES + 1)
    assert determinants_exact([complete(n) for n in sizes]) == [(-1) ** (n - 1) * (n - 1) for n in sizes]


def paley(q):
    """The Paley graph on the integers mod a prime q = 1 mod 4: i ~ j when j - i is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return from_edge_list(q, [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares])


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41, 53, 61])
def test_paley_graph_closed_forms(q):
    # eigenvalues (q - 1)/2 once and (-1 +- sqrt q)/2, (q - 1)/2 times each, whose
    # product is -(q - 1)/4; at q = 61 the determinant is 30 * 15**30, about 5.75e36
    g = paley(q)
    half = (q - 1) // 2
    assert determinant_exact(g) == half * (-((q - 1) // 4)) ** half
    assert close(eigenvalues(g).energy, (q - 1) * (1 + math.sqrt(q)) / 2)


def singular_early(n, rng):
    """Singular graphs whose elimination can meet a zero pivot column within its float64 steps."""
    edges = [(i, j) for i in range(2, n) for j in range(i + 1, n) if rng.random() < 0.5]
    shared = [j for j in range(2, n) if rng.random() < 0.5]
    return [
        from_edge_list(n, edges + [(1, j) for j in shared]),  # vertex 0 isolated
        from_edge_list(n, edges + [(v, j) for j in shared for v in (0, 1)]),  # twins 0 and 1
        from_edge_list(n, [(i, n - 1) for i in range(n - 1)]),  # a star, its centre last
    ]


@pytest.mark.parametrize("n", [10, 19, 20, 21, 40, 62])
def test_determinants_with_zero_pivots_raise_no_float_warnings(n):
    # a zero pivot must leave a zero block, never reach a division
    rng = random.Random(n)
    graphs = singular_early(n, rng) + [Graph(n, rng.getrandbits(pair_count(n))) for _ in range(4)]
    graphs += [complete(n), cycle(n), path(n)]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = determinants_exact(graphs)
    assert dets == [bareiss_determinant(g) for g in graphs]
    assert dets[:3] == [0, 0, 0]


def minor_bound_squared(k):
    """M_k^2 for M_k = (k + 1)^((k + 1)/2) / 2^k, Hadamard's bound on |det| of a k x k 0/1 matrix."""
    return Fraction((k + 1) ** (k + 1), 4**k)


def float_steps(graphs):
    """How many Bareiss steps ``_bareiss_steps`` runs in float64 on same-size graphs, as one batch."""
    n = graphs[0].n
    block, _, _ = _bareiss_steps(adjacency_stack(n, [g.adj for g in graphs]).transpose(1, 2, 0))
    return n - len(block)


def test_exact_steps_stay_exact_and_below_every_prime():
    # step s's numerator, pivot S - c r, is a difference of products of s-minors
    assert all(minor_bound_squared(k) < minor_bound_squared(k + 1) for k in range(1, 62))
    assert 2 * minor_bound_squared(_UNCHECKED_STEPS) < 2**52
    # the 18th pivot, a leading 18-minor, is invertible mod every prime
    assert minor_bound_squared(_UNCHECKED_STEPS) < min(_PRIMES) ** 2
    # one step more could not promise that: 18 is the most that runs unchecked
    assert minor_bound_squared(_UNCHECKED_STEPS + 1) >= min(_PRIMES) ** 2
    assert _UNCHECKED_STEPS == 18
    # a 19th step that leaves a 1 x 1 block needs no prime, and its numerators,
    # below 2 M_19^2, pass the check: every n <= 20 finishes in float
    assert 2 * minor_bound_squared(19) < 2**52
    rng = random.Random(18)
    for n in range(1, 63):
        graphs = [Graph(n, rng.getrandbits(pair_count(n)) & rng.getrandbits(pair_count(n))),
                  Graph(n, rng.getrandbits(pair_count(n))), path(n)]
        steps = float_steps(graphs)
        assert steps == n - 1 if n <= 20 else steps >= 18
        assert float_steps([complete(n)]) == n - 1
    # a dense batch stops early, hands its block to the primes, and is exact
    graphs = [Graph(62, rng.getrandbits(pair_count(62))) for _ in range(8)]
    assert 18 <= float_steps(graphs) < 61
    assert determinants_exact(graphs) == [bareiss_determinant(g) for g in graphs]


def float_steps_by_the_rule(graphs):
    """The float steps the exactness rule allows a batch, and the blocks they leave, over Python ints.

    The rule of ``_bareiss_steps``, restated: the first ``_UNCHECKED_STEPS``
    run unchecked; then B starts as the largest |entry|, each step needs
    |P| B + max|c| max|r| < 2**52 and, unless it leaves a 1 x 1 block, |P| below
    every prime, on every matrix, and B becomes that sum over |previous pivot|,
    an exact Fraction here.
    """
    n = graphs[0].n
    blocks = [[[int(g.has_edge(i, j)) for j in range(n)] for i in range(n)] for g in graphs]
    previous, bound = [1] * len(graphs), None
    for k in range(n - 1):
        m = n - 1 - k
        for a in blocks:
            top = next((i for i, row in enumerate(a) if row[0]), 0)
            a[0], a[top] = a[top], a[0]
        if k >= _UNCHECKED_STEPS:
            if bound is None:
                bound = [max(abs(x) for row in a for x in row) for a in blocks]
            sums = [abs(a[0][0]) * b + max(abs(row[0]) for row in a[1:]) * max(abs(x) for x in a[0][1:])
                    for a, b in zip(blocks, bound)]
            if max(sums) >= 2**52 or (m > 1 and max(abs(a[0][0]) for a in blocks) >= min(_PRIMES)):
                return k, blocks
            bound = [Fraction(x, abs(d)) for x, d in zip(sums, previous)]
        for i, a in enumerate(blocks):
            p = a[0][0]
            blocks[i] = [[(p * row[j] - row[0] * a[0][j]) // previous[i] for j in range(1, m + 1)]
                         for row in a[1:]]
            previous[i] = p or 1
    return n - 1, blocks


def disjoint_copies(h, copies, n):
    """``copies`` disjoint copies of h, then isolated vertices up to n."""
    edges = [(c * h.n + i, c * h.n + j) for c in range(copies) for i, j in h.edges()]
    return from_edge_list(n, edges)


def test_float_steps_follow_the_exactness_rule():
    # the batch runs exactly the steps the rule allows, and every entry it
    # leaves for the primes is the exact Bareiss integer
    rng = random.Random(52)
    batches = [[Graph(62, sum(1 << i for i in range(pair_count(62)) if rng.random() < p)) for _ in range(2)]
               for p in (0.1, 0.5, 0.9)]
    batches += [[Graph(40, rng.getrandbits(pair_count(40))) for _ in range(3)], [paley(61)],
                singular_early(40, rng)]
    # six copies of a 10-vertex graph with |det| 16: its 60th pivot is 2**24,
    # above every prime, while the numerators stay below 2**52
    h = Graph(10, 33451426889741)
    assert abs(determinant_exact(h)) == 16
    batches.append([disjoint_copies(h, 6, 62)])
    for graphs in batches:
        n = graphs[0].n
        block, _, _ = _bareiss_steps(adjacency_stack(n, [g.adj for g in graphs]).transpose(1, 2, 0))
        steps, blocks = float_steps_by_the_rule(graphs)
        assert n - len(block) == steps
        assert block.transpose(2, 0, 1).astype(np.int64).tolist() == blocks
    assert steps == 59


def is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def degrees(graphs):
    """The (n, b) row sums of same-size graphs: their squared row norms."""
    return adjacency_stack(graphs[0].n, [g.adj for g in graphs]).sum(axis=1).T


def test_primes_cover_the_hadamard_bound():
    assert all(is_prime(p) and p < 2**24 for p in _PRIMES)
    assert len(set(_PRIMES)) == len(_PRIMES)
    rng = random.Random(15)
    for n in range(1, 63):
        x, y = rng.getrandbits(pair_count(n)), rng.getrandbits(pair_count(n))
        graphs = [Graph(n, x & y), Graph(n, x), Graph(n, x | y), complete(n)]
        for g in graphs:
            # prod p > 2 min(prod sqrt(d_i), M_n), squared; one prime fewer would
            # not do (a graph with an isolated vertex has bound 0 and needs no prime)
            bound = 4 * min(math.prod(degrees([g]).ravel().tolist()), minor_bound_squared(n))
            primes = _primes_for(degrees([g]))
            assert math.prod(primes) ** 2 > bound
            assert not primes or math.prod(primes[:-1]) ** 2 <= bound
        # a group takes the primes of its worst matrix, K_n
        bound = 4 * min((n - 1) ** n, minor_bound_squared(n))
        by_n = next(k for k in range(len(_PRIMES) + 1) if math.prod(_PRIMES[:k]) ** 2 > bound)
        assert _primes_for(degrees(graphs)) == _primes_for(degrees([complete(n)])) == _PRIMES[:by_n]
    dense = [Graph(62, rng.getrandbits(pair_count(62))) for _ in range(32)]
    assert len(_primes_for(degrees([complete(62)]))) == len(_primes_for(degrees(dense))) == 6


def test_kernels_peak_memory_at_62_vertices():
    # each kernel holds about three float64 stacks at once, reused across steps
    rng = random.Random(256)
    graphs = [Graph(62, rng.getrandbits(pair_count(62))) for _ in range(256)]
    stack_bytes = 62 * 62 * 256 * 8
    for kernel in (determinants_exact, eigenvalues_batch):
        tracemalloc.start()
        try:
            kernel(graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * stack_bytes, (kernel.__name__, peak / stack_bytes)


def test_kernels_peak_memory_at_the_corpus8_chunk_shape(data_dir):
    # a corpus8 chunk: 1024 graphs on 8 vertices, where each (n, b) interval
    # buffer is an eighth of a stack. The bounds are the peaks of a bisection
    # that allocated new ends at every step; the in-place one stays below.
    with open(data_dir / "connected8.g6", encoding="ascii") as fh:
        graphs = [parse_graph6(line) for line, _ in zip(fh, range(1024))]
    stack = np.ascontiguousarray(
        adjacency_stack(8, [g.adj for g in graphs]).transpose(1, 2, 0), dtype=float)
    kernels = ((eigenvalues_batch, graphs, 4.44),
               (geb.spectral._tridiagonal_eigenvalues_stack, stack, 3.35))
    for kernel, arg, bound in kernels:
        tracemalloc.start()
        try:
            kernel(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * stack.nbytes, (kernel.__name__, peak / stack.nbytes)


def at_offset(x, offset):
    """A copy of ``x`` whose buffer starts ``offset`` bytes past a 64-byte line."""
    raw = np.empty(x.nbytes + 64, dtype=np.uint8)
    start = (offset - raw.ctypes.data) % 64
    out = raw[start : start + x.nbytes].view(x.dtype).reshape(x.shape)
    out[...] = x
    assert out.ctypes.data % 64 == offset
    return out


def test_no_result_depends_on_where_its_buffer_lies(data_dir):
    # the Householder reduction and the determinants' first copy read the input
    # wherever it lies, 0 to 48 bytes past a cache line; the results must not
    # change in a single bit with its offset
    with open(data_dir / "connected8.g6", encoding="ascii") as fh:
        chunk = [parse_graph6(line) for line, _ in zip(fh, range(1024))]
    rng = random.Random(64)
    groups = [chunk, [Graph(62, rng.getrandbits(pair_count(62))) for _ in range(4)],
              [Graph(30, rng.getrandbits(pair_count(30)))]]
    solve, determinants = geb.spectral._tridiagonal_eigenvalues_stack, geb.spectral._stack_determinants
    for graphs in groups:
        stack = adjacency_stack(graphs[0].n, [g.adj for g in graphs]).transpose(1, 2, 0)
        values, dets = set(), []
        for offset in (0, 16, 32, 48):
            values.add(solve(at_offset(stack.astype(float), offset)).tobytes())
            dets.append(determinants(at_offset(stack, offset)))
        assert len(values) == 1
        assert dets[1:] == dets[:-1]
    assert dets[0] == [bareiss_determinant(g) for g in groups[-1]]


# sha256 of the eigenvalues, energies and |det| of connected8 and of eight seeded
# G(62, 1/2) graphs, as the package computes them
SOLVER_DIGEST = """
import hashlib, random, sys
from pathlib import Path
from geb.graph6 import parse_graph6
from geb.graphs import Graph, pair_count, stacks_by_n
from geb.spectral import determinants_of_stacks, spectra_of_stacks

def solver_digest(connected8):
    rng = random.Random(62)
    digest = hashlib.sha256()
    for graphs in ([parse_graph6(line) for line in Path(connected8).read_text("ascii").split()],
                   [Graph(62, rng.getrandbits(pair_count(62))) for _ in range(8)]):
        stacks = list(stacks_by_n([g.n for g in graphs], [g.adj for g in graphs]))
        values, energy = spectra_of_stacks(stacks, len(graphs))
        dets = [abs(d) for d in determinants_of_stacks(stacks, len(graphs))]
        digest.update(values.tobytes() + energy.tobytes() + repr(dets).encode("ascii"))
    return digest.hexdigest()

if __name__ == "__main__":
    from numpy._core._multiarray_umath import __cpu_features__
    assert not any(__cpu_features__[name] for name in sys.argv[2:]), "dispatch not capped"
    print(solver_digest(sys.argv[1]))
"""


def test_results_do_not_depend_on_numpys_cpu_dispatch(data_dir):
    # the in-house solver exists so that no result depends on the host's SIMD: a process
    # with numpy's dispatch capped at its baseline (X86_V2 on x86-64) must compute the
    # same bits as this one
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("numpy's dispatch is capped at X86_V2 on x86-64 hosts only")
    umath = pytest.importorskip("numpy._core._multiarray_umath", reason="needs numpy 2")
    capped = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not capped:
        pytest.skip("this host runs numpy at its baseline already")
    namespace = {"__name__": "solver_digest"}
    exec(SOLVER_DIGEST, namespace)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(capped), PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(geb.spectral.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SOLVER_DIGEST, str(data_dir / "connected8.g6"),
                           *capped], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == namespace["solver_digest"](data_dir / "connected8.g6")


@pytest.mark.parametrize("n,b", [(1, 1), (7, 853), (8, 883), (30, 1), (62, 32)])
def test_aligned_planes_start_on_cache_lines_and_never_overlap(n, b):
    shapes = [(2 * n + 8, (n, b)), (2, ((n - 1) ** 2 * b,)), (1, (n * n * b,))]
    for count, shape in shapes:  # the bisection's block, the work buffers, a stack copy
        planes = geb.spectral._aligned_planes(count, shape)
        assert planes.shape == (count, *shape) and planes.dtype == np.float64
        for k, plane in enumerate(planes):
            assert plane.ctypes.data % 64 == 0 or not plane.size  # n = 1 has no work buffers
            assert plane.flags.c_contiguous
            plane.fill(k)
        assert all((plane == k).all() for k, plane in enumerate(planes))
    _, copy = geb.spectral._float_batch_last((np.arange(b), adjacency_stack(n, [0] * b)))
    assert copy.shape == (n, n, b) and copy.ctypes.data % 64 == 0 and copy.flags.c_contiguous


@pytest.mark.parametrize(
    "g,det",
    [
        (complete(2), -1),
        (complete(3), 2),
        (cycle(4), 0),
        (complete(4), -3),
        (path(3), 0),
        (petersen(), 48),
    ],
)
def test_determinant_goldens(g, det):
    assert determinant_exact(g) == det


@settings(max_examples=120, deadline=None)
@given(random_graphs(max_n=9))
def test_determinant_matches_numpy(g):
    ref = round(float(np.linalg.det(adjacency_matrix(g))))
    assert determinant_exact(g) == ref


@settings(max_examples=120, deadline=None)
@given(random_graphs(max_n=9))
def test_integer_rank_matches_numpy(g):
    assert integer_rank(g) == np.linalg.matrix_rank(adjacency_matrix(g), tol=1e-8)


def test_integer_rank_agrees_with_float_rank_on_corpus():
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    specs = eigenvalues_batch(graphs)
    for g, spec in zip(graphs, specs):
        assert spectral_stats(spec).rank == integer_rank(g)


@pytest.mark.parametrize("cls, make", [
    pytest.param(Spectrum, lambda: eigenvalues(complete(2)), id="Spectrum"),
    pytest.param(SpectralStats, lambda: spectral_stats(eigenvalues(path(3))), id="SpectralStats"),
    pytest.param(BoundReport, lambda: bound_report(cycle(5)), id="BoundReport"),
    pytest.param(Violation, lambda: Violation("Bw", "main", 2.5, 2.0, "detail"), id="Violation"),
    pytest.param(EqualityHit, lambda: EqualityHit("Bw", "main", 0.0, True), id="EqualityHit"),
    pytest.param(Extreme, lambda: Extreme("Bw", -1e-15), id="Extreme"),
    pytest.param(PackedCorpus, lambda: PackedCorpus(()), id="PackedCorpus"),
    pytest.param(CanonicalForm, lambda: canonical_form(cycle(4)), id="CanonicalForm"),
])
def test_records_are_frozen_hashable_and_picklable(cls, make):
    # a --jobs worker sends Violations, EqualityHits and Extremes back inside a CorpusSummary
    record = make()
    assert type(record) is cls
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    twin = cls(*record)
    assert twin == record and hash(twin) == hash(record)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record


# --- numpy.linalg stays an oracle ------------------------------------------


def linalg_uses(tree):
    """The import statements, attributes and names of ``numpy.linalg`` in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.startswith("numpy.linalg"))
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            yield from (name for name in names if name.startswith("numpy.linalg"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield ast.unparse(node)
        elif isinstance(node, ast.Constant) and node.value in ("linalg", "numpy.linalg"):
            yield node.value


def test_linalg_guard_sees_every_spelling():
    for source in ("import numpy.linalg", "import numpy.linalg as la", "from numpy import linalg",
                   "from numpy.linalg import eigvalsh", "np.linalg.eigvalsh(a)",
                   "importlib.import_module('numpy.linalg')", "getattr(np, 'linalg')"):
        assert list(linalg_uses(ast.parse(source))), source
    assert not list(linalg_uses(ast.parse('"""numpy.linalg is the oracle."""\nimport numpy')))


@pytest.mark.parametrize("module", sorted(Path(geb.spectral.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_library_never_uses_numpy_linalg(module):
    # README: numpy.linalg appears only in the tests, as an independent oracle
    assert list(linalg_uses(ast.parse(module.read_text(encoding="utf-8")))) == []
