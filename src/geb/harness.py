"""Corpus drivers: soundness verification, conjecture checks, equality search.

Each driver consumes an iterable of graphs, processes them in chunks (so
eigenvalue solves batch across a chunk), and folds the per-chunk results
into one CorpusSummary. One chunk loop serves every driver: it derives each
graph's SpectralStats once, and the BoundReport, the Grüss check and the
verdicts all read that record. Chunks may be farmed out to worker
processes; the merge is commutative and the final lists are sorted, so the
outcome is identical for any worker count and any chunk order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable

from .bounds import BoundReport, bound_report
from .errors import InvariantViolation
from .graphs import Graph, is_complete_bipartite
from .gruss import energy_chain
from .spectral import (DEFAULT_ZERO_TOL, SpectralStats, Spectrum, eigenvalues_batch,
                       spectral_stats)

DEFAULT_TOL = 1e-9
DEFAULT_EQUALITY_EPS = 1e-7

EQUALITY_BOUNDS = ("cor_nice", "main", "rank_bound", "caporossi", "mcclelland_lower")

_CHUNK_SIZE = 1024
_GRUSS_IDENTITY_TOL = 1e-6

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


def _bound(summary: CorpusSummary, report: BoundReport, name: str, tol: float,
           spec: Spectrum | None = None) -> float | None:
    """Note one bound's slack as an extreme and flag it when below -tol.

    Returns the slack, or None when the bound does not apply. A ``spec``
    puts the spectrum into the violation's detail.
    """
    slack = getattr(report, "slack_" + name)
    if slack is None:
        return None
    if slack < -tol:
        detail = None
        if spec is not None:
            detail = "spectrum=[" + ", ".join(f"{v:.12g}" for v in spec.values) + "]"
        summary.violations.append(
            Violation(report.graph6, name, getattr(report, name), report.energy, detail)
        )
    summary.note_extreme(name, report.graph6, slack)
    return slack


def _invariants(r: BoundReport) -> list[tuple[str, float, float, float, str]]:
    """Cross-bound invariants of a graph with edges: (name, a, b, margin, detail).

    An invariant holds when its margin is nonnegative; a and b are the values
    it compares.
    """
    assert r.main is not None and r.cor_nice is not None and r.amgm is not None
    rows = [
        ("chain:main_ge_cor_nice", r.main, r.cor_nice, r.main - r.cor_nice,
         "main fell below cor_nice"),
        ("chain:amgm_le_main", r.amgm, r.main, r.main - r.amgm, "amgm exceeded main"),
    ]
    if r.rank_bound is not None:
        rows.append(("chain:rank_ge_main", r.rank_bound, r.main, r.rank_bound - r.main,
                     "rank_bound fell below main"))
    if r.is_triangle_free:
        rows.append(("dominance:triangle_free", r.cor_nice, r.caporossi,
                     r.cor_nice - r.caporossi, "cor_nice fell below caporossi"))
    if r.is_connected and r.is_regular:
        rows.append(("regular:gutman", r.cor_nice, float(r.n), -abs(r.cor_nice - r.n),
                     "cor_nice differs from n on a regular graph"))
    if r.is_connected:
        assert r.epsilon is not None and r.beta is not None
        rows += [
            ("irregularity:beta_ge_eps", r.beta, r.epsilon, r.beta - r.epsilon,
             "beta fell below epsilon"),
            ("irregularity:eps_ge_1", r.epsilon, 1.0, r.epsilon - 1.0, "epsilon fell below 1"),
        ]
    return rows


def _check_gruss_chain(summary: CorpusSummary, spec: Spectrum, stats: SpectralStats,
                       report: BoundReport) -> None:
    """Product-sum identity and chain soundness, full and rank-restricted."""
    g6 = report.graph6
    target = stats.energy * stats.energy - 2.0 * report.m
    for restricted in (False, True) if stats.rank else (False,):
        suffix = ":restricted" if restricted else ""
        try:
            chain = energy_chain(spec, stats, restrict_to_nonzero=restricted)
        except InvariantViolation as exc:
            summary.violations.append(
                Violation(g6, "gruss:chain" + suffix, float("nan"), stats.energy, str(exc))
            )
            continue
        if abs(chain.P - target) > _GRUSS_IDENTITY_TOL:
            summary.violations.append(
                Violation(g6, "gruss:identity" + suffix, chain.P, target, "P != E^2 - 2m")
            )


# Visitors: each gets (summary, graph, spectrum, stats, report) plus its own settings.

def _verify(summary, g, spec, stats, report, tol: float) -> None:
    for name in _PROVEN:
        _bound(summary, report, name, tol)
    if report.m >= 1:
        for name, a, b, margin, detail in _invariants(report):
            if margin < -tol:
                summary.violations.append(Violation(report.graph6, name, a, b, detail))
        if stats.energy > stats.zero_tol:  # the chain is undefined below the zero threshold
            _check_gruss_chain(summary, spec, stats, report)


def _conjectures(summary, g, spec, stats, report, tol: float) -> None:
    # bound_report leaves both conjectures None off connected graphs with edges
    if _bound(summary, report, "conj1", tol, spec) is None:
        summary.graphs_skipped += 1
        return
    _bound(summary, report, "conj2", tol, spec)


def _equality(summary, g, spec, stats, report, bound: str, eps: float) -> None:
    slack = _bound(summary, report, bound, math.inf)  # a scan: nothing is a violation
    if slack is None:
        summary.graphs_skipped += 1
    elif abs(slack) <= eps:
        summary.equality_hits.append(
            EqualityHit(report.graph6, bound, slack, is_complete_bipartite(g))
        )


def _chunk(visit: Callable[..., None], zero_tol: float, graphs: list[Graph]) -> CorpusSummary:
    """Solve the chunk's spectra in one batch and visit every graph once."""
    summary = CorpusSummary()
    for g, spec in zip(graphs, eigenvalues_batch(graphs)):
        summary.graphs_seen += 1
        stats = spectral_stats(spec, zero_tol)
        visit(summary, g, spec, stats, bound_report(g, stats=stats))
    return summary


def _run(
    visit: Callable[..., None], graphs: Iterable[Graph], zero_tol: float, jobs: int
) -> CorpusSummary:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    process = partial(_chunk, visit, zero_tol)
    source = iter(graphs)
    chunks = iter(lambda: list(islice(source, _CHUNK_SIZE)), [])
    summary = CorpusSummary()
    if workers == 1:
        for chunk in chunks:
            summary.merge(process(chunk))
    else:
        # two chunks per worker in flight at most, so memory stays bounded
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {pool.submit(process, chunk) for chunk in islice(chunks, 2 * workers)}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    summary.merge(future.result())
                    pending.update(pool.submit(process, chunk) for chunk in islice(chunks, 1))
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
