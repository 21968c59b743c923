"""Corpus drivers: soundness verification, conjecture checks, equality search.

Each driver folds chunks of graphs (eigenvalue solves and exact determinants
batch across a chunk) into one CorpusSummary. One chunk loop serves every
driver: it derives each graph's SpectralStats once, the BoundReport copies
them, and every verdict reads that one record. verify checks the Grüss product-sum chain and identity
directly, with ``gruss.energy_chain``'s arithmetic but without its vectors.
Chunks may go to worker processes; the merge is commutative and the final
lists are sorted, so the outcome is identical for any worker count and any
chunk order.
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
from .errors import ConvergenceFailure
from .graph6 import write_graph6
from .graphs import Graph, is_complete_bipartite
# energy_chain is not called here: its one reader is the CALL_SITES entry
# ("geb.harness", "energy_chain") of perfbench/tracing.py
from .gruss import _BOUND_SLACK, _CHAIN_TOL, energy_chain  # noqa: F401
from .spectral import (DEFAULT_ZERO_TOL, Spectrum, determinants_exact, eigenvalues_batch,
                       spectral_stats)

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


def _check_gruss_chain(summary: CorpusSummary, spec: Spectrum, report: BoundReport) -> None:
    """Grüss chain P >= P_lower and identity P = E^2 - 2m, full and rank-restricted.

    ``gruss.energy_chain``'s arithmetic, bit for bit; a chain row hides the identity row."""
    g6, energy, lam = report.graph6, report.energy, report.lambda1
    target = energy * energy - 2.0 * report.m
    absvals = sorted((abs(v) for v in spec.values), reverse=True)
    rows = (("", spec.n, report.t), (":restricted", report.rank, report.t_nz))
    for suffix, k, small in rows if report.rank else rows[:1]:
        P = sum(a * (energy - a) for a in absvals[:k])
        P_lower = energy * energy + k * lam * small - (lam + small) * energy
        chain = None
        if lam < absvals[0] - _BOUND_SLACK:  # BoundedVector's check: no |eigenvalue| > lambda1
            chain = f"largest |eigenvalue| {absvals[0]} exceeds lambda1 {lam}"
        elif P < P_lower - _CHAIN_TOL:
            chain = f"product sum {P} fell below its lower bound {P_lower}"
        if chain is not None:
            summary.violations.append(
                Violation(g6, "gruss:chain" + suffix, math.nan, energy, chain))
        elif abs(P - target) > _GRUSS_IDENTITY_TOL:
            summary.violations.append(
                Violation(g6, "gruss:identity" + suffix, P, target, "P != E^2 - 2m"))


# Visitors: each gets (summary, graph, spectrum, report) plus its own settings.

def _verify(summary, g, spec, report, tol: float) -> None:
    for name in _PROVEN:
        _bound(summary, report, name, tol)
    if report.m >= 1:
        for name, a, b, margin, detail in _invariants(report):
            if margin < -tol:
                summary.violations.append(Violation(report.graph6, name, a, b, detail))
        _check_gruss_chain(summary, spec, report)


def _conjectures(summary, g, spec, report, tol: float) -> None:
    # bound_report sets both conjectures only on connected graphs with an edge
    if _bound(summary, report, "conj1", tol, spec) is None:
        summary.graphs_skipped += 1
        return
    _bound(summary, report, "conj2", tol, spec)


def _equality(summary, g, spec, report, bound: str, eps: float) -> None:
    slack = _bound(summary, report, bound, math.inf)  # a scan: nothing is a violation
    if slack is None:
        summary.graphs_skipped += 1
    elif abs(slack) <= eps:
        summary.equality_hits.append(
            EqualityHit(report.graph6, bound, slack, is_complete_bipartite(g))
        )


def _spectra(graphs: list[Graph]) -> list[Spectrum | ConvergenceFailure]:
    """The chunk's spectra in one batch; after a solver failure, one graph at a time.

    A spectrum does not depend on its batch, so only the failing graphs change:
    each holds its own ConvergenceFailure.
    """
    try:
        return eigenvalues_batch(graphs)
    except ConvergenceFailure as exc:
        if len(graphs) == 1:
            return [exc]
        return [spec for g in graphs for spec in _spectra([g])]


def _chunk(visit: Callable[..., None], zero_tol: float, graphs: list[Graph]) -> CorpusSummary:
    """Solve the chunk's spectra and determinants in one batch each and visit every graph once.

    A graph whose solve does not converge is one ``solver:no_convergence`` violation.
    """
    summary = CorpusSummary()
    for g, spec, det in zip(graphs, _spectra(graphs), determinants_exact(graphs)):
        summary.graphs_seen += 1
        if isinstance(spec, ConvergenceFailure):
            summary.violations.append(
                Violation(write_graph6(g), "solver:no_convergence", math.nan, math.nan, str(spec)))
            continue
        visit(summary, g, spec, bound_report(g, stats=spectral_stats(spec, zero_tol), det=det))
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
