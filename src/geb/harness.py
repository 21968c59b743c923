"""Corpus drivers: soundness verification, conjecture checks, equality search.

verify, conjectures and equality each fold chunks of graphs into one
CorpusSummary, through one chunk loop. It solves the chunk's spectra and
exact determinants in one batch each, and ``bounds.BoundTable`` evaluates
every bound on them as a numpy column over the chunk. The verdicts are taken
column-wise too: every invariant row, the Grüss product-sum chain and
identity (``gruss.energy_chain``'s arithmetic, bit for bit, without its
vectors) and the spectral moment rows are vector expressions, a least slack
is an argmin with exact ties going to the smaller graph6, and violations and
hits are masks. Only the graphs named in a verdict are encoded as graph6.
Chunks may go to worker processes as (n, edge bitset) pairs; the merge is
commutative and the final lists are sorted, so the outcome is identical for
any worker count and any chunk order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable

import numpy as np

# bound_report, energy_chain and spectral_stats are not called here; they stay
# importable from this module because perfbench/tracing.py's CALL_SITES patch them
from .bounds import BoundTable, bound_report  # noqa: F401
from .graphs import Graph, is_complete_bipartite
from .gruss import _BOUND_SLACK, _CHAIN_TOL, energy_chain  # noqa: F401
from .spectral import (DEFAULT_ZERO_TOL, determinants_exact, eigenvalues_batch,  # noqa: F401
                       sequential_sum, spectral_stats)

DEFAULT_TOL = 1e-9
DEFAULT_EQUALITY_EPS = 1e-7

EQUALITY_BOUNDS = ("cor_nice", "main", "rank_bound", "caporossi", "mcclelland_lower")

_CHUNK_SIZE = 1024
_GRUSS_IDENTITY_TOL = 1e-6  # fixed, like _CHAIN_TOL: --tol moves neither

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


def _check_gruss(summary: CorpusSummary, table: BoundTable) -> None:
    """Grüss chain P >= P_lower and identity P = E^2 - 2m, full and rank-restricted.

    ``gruss.energy_chain``'s arithmetic, bit for bit, on the graphs with an
    edge: column k - 1 of the running sums is P over the k largest
    |eigenvalues|, added left to right. A chain row hides the identity row.
    """
    c = table.column
    energy, lam = c["energy"], c["lambda1"]
    absvals = -np.sort(-np.abs(table.values), axis=1)
    sums = np.cumsum(absvals * (energy[:, None] - absvals), axis=1)
    target = energy * energy - 2.0 * c["m"]
    perron = lam < absvals[:, 0] - _BOUND_SLACK  # BoundedVector's check: no |eigenvalue| > lambda1
    nan = np.full(len(energy), math.nan)
    for suffix, rows, k, small in (("", table.applies["main"], c["n"], c["t"]),
                                   (":restricted", table.applies["rank_bound"], c["rank"], c["t_nz"])):
        P = sums[np.arange(len(k)), k - 1]
        P_lower = energy * energy + k * lam * small - (lam + small) * energy

        def chain_detail(i: int) -> str:
            if perron[i]:
                return f"largest |eigenvalue| {float(absvals[i, 0])} exceeds lambda1 {float(lam[i])}"
            return f"product sum {float(P[i])} fell below its lower bound {float(P_lower[i])}"

        chain = rows & (perron | (P < P_lower - _CHAIN_TOL))
        _flag(summary, table, "gruss:chain" + suffix, chain, nan, energy, chain_detail)
        _flag(summary, table, "gruss:identity" + suffix,
              rows & ~chain & (np.abs(P - target) > _GRUSS_IDENTITY_TOL), P, target,
              "P != E^2 - 2m")


def _check_moments(summary: CorpusSummary, table: BoundTable) -> None:
    """Spectral moments sum(lambda) = 0 and sum(lambda^3) = 6 triangles, on every graph.

    Each holds for any graph, so a residual past the fixed tolerance means a
    wrong spectrum, and costs only its graph.
    """
    values = table.values
    for name, total, expected, detail in (
        ("moment:sum", sequential_sum(values), np.zeros(len(values)), "sum of eigenvalues != 0"),
        ("moment:cubes", sequential_sum(values * values * values), table.walks3,
         "sum of cubed eigenvalues != 6 * triangles"),
    ):
        _flag(summary, table, name, np.abs(total - expected) > _GRUSS_IDENTITY_TOL, total,
              expected, detail)


# Visitors: each takes every verdict of one chunk's BoundTable, plus its own settings.

def _verify(summary: CorpusSummary, table: BoundTable, tol: float) -> None:
    for name in _PROVEN:
        _bound(summary, table, name, tol)
    for name, rows, a, b, margin, detail in _invariants(table):
        _flag(summary, table, name, rows & (margin < -tol), a, b, detail)
    _check_gruss(summary, table)
    _check_moments(summary, table)


def _conjectures(summary: CorpusSummary, table: BoundTable, tol: float) -> None:
    def spectrum(i: int) -> str:
        return "spectrum=[" + ", ".join(f"{v:.12g}" for v in table.spectra[i].values) + "]"

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
            table.graph6(i), bound, float(slack[i]), is_complete_bipartite(table.graphs[i])))


def _chunk(visit: Callable[..., None], zero_tol: float, graphs: list[Graph]) -> CorpusSummary:
    """Solve the chunk's spectra and determinants in one batch each, then visit its BoundTable.

    The solver always terminates. A wrong spectrum costs only its graph,
    through the moment rows and the Grüss identity rows of ``verify``.
    """
    summary = CorpusSummary(graphs_seen=len(graphs))
    # eigenvalues_batch stays this module's global: perfbench's EIG_SITES and tests patch it
    visit(summary, BoundTable(graphs, eigenvalues_batch(graphs), determinants_exact(graphs),
                              zero_tol))
    return summary


def _pair_chunk(visit: Callable[..., None], zero_tol: float,
                pairs: list[tuple[int, int]]) -> CorpusSummary:
    """``_chunk`` on graphs sent as (n, edge bitset) pairs, which pickle small."""
    return _chunk(visit, zero_tol, [Graph(n, adj) for n, adj in pairs])


def _run(
    visit: Callable[..., None], graphs: Iterable[Graph], zero_tol: float, jobs: int
) -> CorpusSummary:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    source = iter(graphs)
    chunks = iter(lambda: list(islice(source, _CHUNK_SIZE)), [])
    summary = CorpusSummary()
    if workers == 1:
        for chunk in chunks:
            summary.merge(_chunk(visit, zero_tol, chunk))
    else:  # imported here: a one-process run then loads no multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        # two chunks per worker in flight at most, so memory stays bounded
        with ProcessPoolExecutor(max_workers=workers) as pool:
            remote = partial(_pair_chunk, visit, zero_tol)
            pairs = ([(g.n, g.adj) for g in chunk] for chunk in chunks)
            pending = {pool.submit(remote, chunk) for chunk in islice(pairs, 2 * workers)}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    summary.merge(future.result())
                    pending.update(pool.submit(remote, chunk) for chunk in islice(pairs, 1))
    return summary.finalize()


def run_verify(
    graphs: Iterable[Graph],
    tol: float = DEFAULT_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
    jobs: int = 1,
) -> CorpusSummary:
    """Check every proven bound and cross-bound invariant on a corpus."""
    return _run(partial(_verify, tol=tol), graphs, zero_tol, jobs)


def run_conjectures(
    graphs: Iterable[Graph],
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
    graphs: Iterable[Graph],
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
