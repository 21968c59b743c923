"""Corpus drivers: soundness verification, conjecture checks, equality search.

verify, conjectures and equality fold chunks of graphs into one
CorpusSummary. A chunk is a list of (n, packed rows) groups (see ``graphs``):
one graph6 block of a ``PackedCorpus``, or 1024 Graphs through
``graphs.packed_groups``. It travels as it is, in this process or to a
worker, and becomes one ``bounds.BoundTable``. Every verdict is a row of
one table, ``_CHECKS``: one per row of ``bounds.BOUNDS`` (the bounds and
the conjectures), the cross-bound invariants and the spectrum rows. One
fold, ``_judge``, takes each row column-wise: violations are a mask, and the
least margin is an argmin with exact ties going to the smaller graph6. Only
the rows a verdict names become Graphs, for their graph6 and the
complete-bipartite test. The merge is commutative and the final lists are
sorted, so the outcome is identical for any worker count and any chunk order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, NamedTuple

import numpy as np

# bound_report, eigenvalues_batch and spectral_stats are not called here; they stay
# importable from this module because perfbench/tracing.py's sites patch them
from .bounds import (BOUNDS, DEFAULT_EQUALITY_EPS, DEFAULT_TOL, EQUALITY_BOUNDS,  # noqa: F401
                     GATES, BoundTable, bound_report)
from .graphs import Graph, is_complete_bipartite, packed_groups
from .spectral import (DEFAULT_ZERO_TOL, determinants_of_stacks, eigenvalues_batch,  # noqa: F401
                       spectra_of_stacks, spectral_stats)

_CHUNK_SIZE = 1024
_SPECTRUM_TOL = 1e-6  # fixed: --tol moves no moment:* or spectrum:* row
_PERRON_SLACK = 1e-12  # how far an |eigenvalue| may pass lambda1 by rounding


def __getattr__(name: str):
    """``energy_chain``, which no command calls, loads ``gruss`` only when read: the
    tracer's gruss.energy_chain site reads and patches it here."""
    if name != "energy_chain":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .gruss import energy_chain

    globals()[name] = energy_chain
    return energy_chain


class Violation(NamedTuple):
    graph6: str
    bound_name: str
    bound_value: float
    energy: float
    detail: str | None = None


class EqualityHit(NamedTuple):
    graph6: str
    bound_name: str
    slack: float
    is_complete_bipartite: bool


class Extreme(NamedTuple):
    graph6: str
    slack: float


class PackedCorpus(NamedTuple):
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
        """Keep the least margin per check; ties go to the smaller graph6."""
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


def _spectrum(table: BoundTable, i: int) -> str:
    values = table.values[i, : table.column["n"][i]].tolist()
    return "spectrum=[" + ", ".join(f"{v:.12g}" for v in values) + "]"


# Every check: (name, gates, a, relation, b, tol, detail). a relation b must hold within
# tol (None: the command's) where every bool column named in gates holds; a and b name
# columns or are numbers. The margin is a - b (>=), b - a (<=) or -|a - b| (==): a bound's
# slack. detail is a string, a function of (table, row), or None. The spectrum rows hold
# for any spectrum, so a residual means a wrong one.
_CHECKS = {check[0]: check for check in (
    # each bound's: E lies on its side where its gate holds; a conjecture's shows the spectrum
    *((name, (gate,), name, "<=" if lower else ">=", "energy", None, None if proven else _spectrum)
      for name, lower, proven, gate, _, _ in BOUNDS),
    ("chain:main_ge_cor_nice", ("edged",), "main", ">=", "cor_nice", None,
     "main fell below cor_nice"),
    ("chain:amgm_le_main", ("edged",), "amgm", "<=", "main", None, "amgm exceeded main"),
    ("chain:rank_ge_main", ("edged_ranked",), "rank_bound", ">=", "main", None,
     "rank_bound fell below main"),
    ("dominance:triangle_free", ("edged", "is_triangle_free"), "cor_nice", ">=", "caporossi",
     None, "cor_nice fell below caporossi"),
    ("regular:gutman", ("edged_connected", "is_regular"), "cor_nice", "==", "n", None,
     "cor_nice differs from n on a regular graph"),
    ("irregularity:beta_ge_eps", ("edged_connected",), "beta", ">=", "epsilon", None,
     "beta fell below epsilon"),
    ("irregularity:eps_ge_1", ("edged_connected",), "epsilon", ">=", 1.0, None,
     "epsilon fell below 1"),
    ("moment:sum", (), "moment1", "==", 0.0, _SPECTRUM_TOL, "sum of eigenvalues != 0"),
    ("moment:squares", (), "moment2", "==", "walks2", _SPECTRUM_TOL,
     "sum of squared eigenvalues != 2m"),
    ("moment:cubes", (), "moment3", "==", "walks3", _SPECTRUM_TOL,
     "sum of cubed eigenvalues != 6 * triangles"),
    ("moment:fourth", (), "moment4", "==", "walks4", _SPECTRUM_TOL,
     "sum of fourth powers of the eigenvalues != tr A^4"),
    ("spectrum:energy", (), "abs_sum", "==", "energy", _SPECTRUM_TOL,
     "energy != sum of |eigenvalues|"),
    ("spectrum:perron", (), "abs_max", "<=", "lambda1", _PERRON_SLACK,
     "an |eigenvalue| exceeds lambda1"),
    ("spectrum:zero_tol", ("edged_ranked",), "dropped_squares", "==", 0.0, _SPECTRUM_TOL,
     f"eigenvalues counted as zero have squares summing past {_SPECTRUM_TOL:g}"),
)}
_CONJECTURES = tuple(name for name, _, proven, _, _, _ in BOUNDS if not proven)
_VERIFY = tuple(name for name in _CHECKS if name not in _CONJECTURES)


def _margin(table: BoundTable, name: str) -> tuple[np.ndarray, ...]:
    """Check ``name``'s (rows, a, b, margin) columns on a table."""
    _, gates, a, relation, b, _, _ = _CHECKS[name]
    c = table.column
    rows = np.logical_and.reduce([c[gate] for gate in ("every", *gates)])
    a, b = (c[x] if isinstance(x, str) else np.full(len(rows), x) for x in (a, b))
    return rows, a, b, a - b if relation == ">=" else b - a if relation == "<=" else -np.abs(a - b)


def _judge(summary: CorpusSummary, table: BoundTable, names: Iterable[str], tol: float) -> None:
    """Take the named checks on a table: flag every row with margin < -tol, and note
    each check's least margin and its arg-min; exact ties go to the smaller graph6."""
    for name in names:
        rows, a, b, margin = _margin(table, name)
        bar, detail = _CHECKS[name][5:]
        candidates = np.flatnonzero(rows & ~np.isnan(margin))
        if candidates.size:
            ties = candidates[margin[candidates] == margin[candidates].min()]
            i = ties[np.argmin(table.graph6_order()[ties])] if ties.size > 1 else ties[0]
            summary.note_extreme(name, table.graph6(int(i)), float(margin[i]))
        for i in np.flatnonzero(rows & (margin < -(tol if bar is None else bar))).tolist():
            summary.violations.append(Violation(table.graph6(i), name, float(a[i]), float(b[i]),
                                                detail(table, i) if callable(detail) else detail))


# Visitors: each takes the checks of its command on one chunk's BoundTable.

def _verify(summary: CorpusSummary, table: BoundTable, tol: float) -> None:
    _judge(summary, table, _VERIFY, tol)


def _conjectures(summary: CorpusSummary, table: BoundTable, tol: float) -> None:
    _judge(summary, table, _CONJECTURES, tol)
    summary.graphs_skipped += int(np.count_nonzero(~table.column[GATES[_CONJECTURES[0]]]))


def _equality(summary: CorpusSummary, table: BoundTable, bound: str, eps: float) -> None:
    _judge(summary, table, (bound,), math.inf)  # a scan: nothing is a violation
    rows, slack = table.column[GATES[bound]], table.column["slack_" + bound]
    summary.graphs_skipped += int(np.count_nonzero(~rows))
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
