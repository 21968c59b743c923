"""Corpus drivers: soundness verification, conjecture checks, equality search.

verify, conjectures and equality fold chunks of graphs into one
CorpusSummary. A chunk is a list of (n, packed rows) groups (see ``graphs``):
one graph6 block of a ``PackedCorpus``, or 1024 Graphs through
``graphs.packed_groups``. It travels as it is, in this process or to a
worker, and becomes one ``bounds.BoundTable``. The verdicts are taken
column-wise: every invariant row and every spectrum row (the moments, the
energy as a sum, Perron's bound, what ``--zero-tol`` drops) is a vector
expression, a least slack is an argmin with exact ties going to the smaller
graph6, and violations and hits are masks. Only the rows a verdict names
become Graphs, for their graph6 and the complete-bipartite test. The merge
is commutative and the final lists are sorted, so the outcome is identical
for any worker count and any chunk order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable

import numpy as np

# bound_report, eigenvalues_batch, energy_chain and spectral_stats are not called here;
# they stay importable from this module because perfbench/tracing.py's sites patch them
from .bounds import BoundTable, bound_report  # noqa: F401
from .graphs import Graph, is_complete_bipartite, packed_groups
from .gruss import energy_chain  # noqa: F401
from .spectral import (DEFAULT_ZERO_TOL, determinants_of_stacks, eigenvalues_batch,  # noqa: F401
                       sequential_sum, spectra_of_stacks, spectral_stats)

DEFAULT_TOL = 1e-9
DEFAULT_EQUALITY_EPS = 1e-7

EQUALITY_BOUNDS = ("cor_nice", "main", "rank_bound", "caporossi", "mcclelland_lower")

_CHUNK_SIZE = 1024
_SPECTRUM_TOL = 1e-6  # fixed: --tol moves no moment:* or spectrum:* row
_PERRON_SLACK = 1e-12  # how far an |eigenvalue| may pass lambda1 by rounding

_PROVEN = ("mcclelland_lower", "caporossi", "main", "cor_nice", "amgm", "rank_bound",
           "mcclelland_upper")


@dataclass(frozen=True)
class Violation:
    graph6: str
    bound_name: str
    bound_value: float
    energy: float
    detail: str | None = None


@dataclass(frozen=True)
class EqualityHit:
    graph6: str
    bound_name: str
    slack: float
    is_complete_bipartite: bool


@dataclass(frozen=True)
class Extreme:
    graph6: str
    slack: float


@dataclass(frozen=True)
class PackedCorpus:
    """A corpus that comes in chunks already: lists of (n, packed rows) groups."""

    chunks: Iterable[list[tuple[int, np.ndarray]]]


@dataclass
class CorpusSummary:
    graphs_seen: int = 0
    graphs_skipped: int = 0
    violations: list[Violation] = field(default_factory=list)
    equality_hits: list[EqualityHit] = field(default_factory=list)
    extremes: dict[str, Extreme] = field(default_factory=dict)

    def note_extreme(self, name: str, graph6: str, slack: float) -> None:
        """Keep the least slack per name; ties go to the smaller graph6."""
        mine = self.extremes.get(name)
        if mine is None or (slack, graph6) < (mine.slack, mine.graph6):
            self.extremes[name] = Extreme(graph6, slack)

    def merge(self, other: "CorpusSummary") -> None:
        self.graphs_seen += other.graphs_seen
        self.graphs_skipped += other.graphs_skipped
        self.violations.extend(other.violations)
        self.equality_hits.extend(other.equality_hits)
        for name, ext in other.extremes.items():
            self.note_extreme(name, ext.graph6, ext.slack)

    def finalize(self) -> "CorpusSummary":
        self.violations.sort(key=lambda v: (v.graph6, v.bound_name))
        self.equality_hits.sort(key=lambda h: (h.graph6, h.bound_name))
        return self


def _flag(summary: CorpusSummary, table: BoundTable, name: str, rows: np.ndarray,
          a: np.ndarray, b: np.ndarray, detail: str | Callable[[int], str] | None) -> None:
    """One ``name`` violation per row where ``rows`` holds, comparing columns a and b.

    ``detail`` is a string, or a function of the row index."""
    for i in np.flatnonzero(rows).tolist():
        summary.violations.append(Violation(table.graph6(i), name, float(a[i]), float(b[i]),
                                            detail(i) if callable(detail) else detail))


def _bound(summary: CorpusSummary, table: BoundTable, name: str, tol: float,
           detail: Callable[[int], str] | None = None) -> np.ndarray:
    """Note bound ``name``'s least slack and flag its slacks below -tol.

    Both run over the rows where the bound applies, which are returned. The
    least slack is an argmin; exact ties go to the smaller graph6.
    """
    rows, slack = table.applies[name], table.column["slack_" + name]
    candidates = np.flatnonzero(rows & ~np.isnan(slack))
    if candidates.size:
        ties = candidates[slack[candidates] == slack[candidates].min()]
        i = min(ties.tolist(), key=table.graph6)
        summary.note_extreme(name, table.graph6(i), float(slack[i]))
    _flag(summary, table, name, rows & (slack < -tol), table.column[name],
          table.column["energy"], detail)
    return rows


def _invariants(table: BoundTable) -> list[tuple]:
    """Cross-bound invariants as columns: (name, rows, a, b, margin, detail).

    An invariant is checked on ``rows`` and holds where its margin is
    nonnegative; a and b are the values it compares.
    """
    c, edged = table.column, table.applies["main"]
    connected = edged & c["is_connected"]
    main, cor, amgm, rank_bound = c["main"], c["cor_nice"], c["amgm"], c["rank_bound"]
    eps, beta = c["epsilon"], c["beta"]
    return [
        ("chain:main_ge_cor_nice", edged, main, cor, main - cor, "main fell below cor_nice"),
        ("chain:amgm_le_main", edged, amgm, main, main - amgm, "amgm exceeded main"),
        ("chain:rank_ge_main", table.applies["rank_bound"], rank_bound, main, rank_bound - main,
         "rank_bound fell below main"),
        ("dominance:triangle_free", edged & c["is_triangle_free"], cor, c["caporossi"],
         cor - c["caporossi"], "cor_nice fell below caporossi"),
        ("regular:gutman", connected & c["is_regular"], cor, c["n"] * 1.0, -np.abs(cor - c["n"]),
         "cor_nice differs from n on a regular graph"),
        ("irregularity:beta_ge_eps", connected, beta, eps, beta - eps, "beta fell below epsilon"),
        ("irregularity:eps_ge_1", connected, eps, np.ones_like(eps), eps - 1.0,
         "epsilon fell below 1"),
    ]


def _check_moments(summary: CorpusSummary, table: BoundTable) -> None:
    """Rows that hold for any spectrum, so that a residual means a wrong one.

    The moments sum(lambda^k), k = 1..4, are 0, 2m, six times the triangles
    and tr A^4; the solver's energy is the sum of the |eigenvalues|, added
    largest first; no |eigenvalue| exceeds lambda1. Where ``rank_bound``
    applies, the eigenvalues ``--zero-tol`` counts as zero, those past the
    rank, have squares that sum to 0. Each row compares its own graph's
    columns, so a wrong spectrum costs only its graph.
    """
    c, values = table.column, table.values
    mags = -np.sort(-np.abs(values), axis=1)
    squares = values * values
    every, zero = np.ones(len(values), bool), np.zeros(len(values))
    dropped = np.where(np.arange(mags.shape[1]) >= c["rank"][:, None], mags * mags, 0.0)
    for name, rows, total, expected, detail in (
        ("moment:sum", every, sequential_sum(values), zero, "sum of eigenvalues != 0"),
        ("moment:squares", every, sequential_sum(squares), 2.0 * c["m"],
         "sum of squared eigenvalues != 2m"),
        ("moment:cubes", every, sequential_sum(squares * values), c["walks3"],
         "sum of cubed eigenvalues != 6 * triangles"),
        ("moment:fourth", every, sequential_sum(squares * squares), c["walks4"],
         "sum of fourth powers of the eigenvalues != tr A^4"),
        ("spectrum:energy", every, sequential_sum(mags), c["energy"],
         "energy != sum of |eigenvalues|"),
        ("spectrum:zero_tol", table.applies["rank_bound"], sequential_sum(dropped), zero,
         f"eigenvalues counted as zero have squares summing past {_SPECTRUM_TOL:g}"),
    ):
        _flag(summary, table, name, rows & (np.abs(total - expected) > _SPECTRUM_TOL), total,
              expected, detail)
    _flag(summary, table, "spectrum:perron", c["lambda1"] < mags[:, 0] - _PERRON_SLACK,
          mags[:, 0], c["lambda1"], "an |eigenvalue| exceeds lambda1")


# Visitors: each takes every verdict of one chunk's BoundTable, plus its own settings.

def _verify(summary: CorpusSummary, table: BoundTable, tol: float) -> None:
    for name in _PROVEN:
        _bound(summary, table, name, tol)
    for name, rows, a, b, margin, detail in _invariants(table):
        _flag(summary, table, name, rows & (margin < -tol), a, b, detail)
    _check_moments(summary, table)


def _conjectures(summary: CorpusSummary, table: BoundTable, tol: float) -> None:
    def spectrum(i: int) -> str:
        values = table.values[i, : table.column["n"][i]].tolist()
        return "spectrum=[" + ", ".join(f"{v:.12g}" for v in values) + "]"

    # both conjectures apply on exactly the connected graphs with an edge
    rows = _bound(summary, table, "conj1", tol, spectrum)
    _bound(summary, table, "conj2", tol, spectrum)
    summary.graphs_skipped += int(np.count_nonzero(~rows))


def _equality(summary: CorpusSummary, table: BoundTable, bound: str, eps: float) -> None:
    rows = _bound(summary, table, bound, math.inf)  # a scan: nothing is a violation
    summary.graphs_skipped += int(np.count_nonzero(~rows))
    slack = table.column["slack_" + bound]
    for i in np.flatnonzero(rows & (np.abs(slack) <= eps)).tolist():
        summary.equality_hits.append(EqualityHit(
            table.graph6(i), bound, float(slack[i]), is_complete_bipartite(table.graph(i))))


def _chunk(visit: Callable[..., None], zero_tol: float,
           chunk: list[tuple[int, np.ndarray]]) -> CorpusSummary:
    """Visit the BoundTable of a chunk of graphs, given as (n, packed rows) groups.

    The solver always terminates. A wrong spectrum costs only its graph,
    through the moment:* and spectrum:* rows of ``verify``.
    """
    summary = CorpusSummary(graphs_seen=sum(len(packed) for _, packed in chunk))
    # both solvers stay this module's globals, read here: tests patch them
    visit(summary, BoundTable(chunk, spectra_of_stacks, determinants_of_stacks, zero_tol))
    return summary


def _run(
    visit: Callable[..., None], graphs: Iterable[Graph] | PackedCorpus, zero_tol: float,
    jobs: int,
) -> CorpusSummary:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # the CPUs this process may run on, where the platform tells; else all of them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1)
    if isinstance(graphs, PackedCorpus):
        chunks = iter(graphs.chunks)
    else:
        source = iter(graphs)
        chunks = iter(lambda: packed_groups(islice(source, _CHUNK_SIZE)), [])
    summary = CorpusSummary()
    if workers == 1:
        for chunk in chunks:
            summary.merge(_chunk(visit, zero_tol, chunk))
    else:  # imported here: a one-process run then loads no multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        # two chunks per worker in flight at most, so memory stays bounded
        with ProcessPoolExecutor(max_workers=workers) as pool:
            remote = partial(_chunk, visit, zero_tol)
            pending = {pool.submit(remote, chunk) for chunk in islice(chunks, 2 * workers)}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    summary.merge(future.result())
                    pending.update(pool.submit(remote, chunk) for chunk in islice(chunks, 1))
    return summary.finalize()


def run_verify(
    graphs: Iterable[Graph] | PackedCorpus,
    tol: float = DEFAULT_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
    jobs: int = 1,
) -> CorpusSummary:
    """Check every proven bound and cross-bound invariant on a corpus."""
    return _run(partial(_verify, tol=tol), graphs, zero_tol, jobs)


def run_conjectures(
    graphs: Iterable[Graph] | PackedCorpus,
    tol: float = DEFAULT_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
    jobs: int = 1,
) -> CorpusSummary:
    """Check both conjectured bounds on the connected graphs of a corpus.

    Disconnected and edgeless graphs are gated out (counted as skipped):
    the conjectures are stated for connected graphs only.
    """
    return _run(partial(_conjectures, tol=tol), graphs, zero_tol, jobs)


def run_equality(
    graphs: Iterable[Graph] | PackedCorpus,
    bound: str,
    eps: float = DEFAULT_EQUALITY_EPS,
    zero_tol: float = DEFAULT_ZERO_TOL,
    jobs: int = 1,
) -> CorpusSummary:
    """Find graphs where |E - bound| <= eps for one named lower bound."""
    if bound not in EQUALITY_BOUNDS:
        raise ValueError(
            f"unknown bound {bound!r}; choose one of {', '.join(EQUALITY_BOUNDS)}"
        )
    return _run(partial(_equality, bound=bound, eps=eps), graphs, zero_tol, jobs)
