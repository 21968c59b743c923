"""Energy bounds, irregularity measures, and the per-graph bound report.

Lower bounds on the energy E of a graph with n vertices, m edges, largest
eigenvalue lambda1, smallest absolute eigenvalue t, rank r, and smallest
nonzero absolute eigenvalue t_nz:

    mcclelland_lower   sqrt(2m + n(n-1)|det A|^(2/n))
    caporossi_lower    2 sqrt(m)
    main_lower         (2m + n lambda1 t) / (lambda1 + t)
    cor_nice_lower     2m / lambda1          (main_lower at t = 0)
    amgm_lower         sqrt(2mn) * sqrt(4 lambda1 t / (lambda1 + t)^2)
    rank_lower         (2m + r lambda1 t_nz) / (lambda1 + t_nz)
    conj1_lower        n / epsilon           (conjectural, connected only)

and upper bounds sqrt(2mn) (``mcclelland_upper``) and 2m / sqrt(lambda1)
(``conj2_upper``, conjectural, connected only). ``bound_report`` evaluates
everything on one graph and records the slack E - bound (bound - E for
uppers) so tightness scans are threshold checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import EmptyGraph
from .graphs import (
    Graph,
    degree_sequence,
    is_connected,
    is_regular,
    is_triangle_free,
)
from .graph6 import write_graph6
from .spectral import (
    DEFAULT_ZERO_TOL,
    SpectralStats,
    determinant_exact,
    eigenvalues,
    spectral_stats,
)


def mcclelland_lower(n: int, m: int, det_abs: float) -> float:
    """sqrt(2m + n(n-1)|det|^(2/n)), with 0^(2/n) taken as 0."""
    if det_abs > 0:
        det_term = math.exp((2.0 / n) * math.log(det_abs))
    else:
        det_term = 0.0
    return math.sqrt(2.0 * m + n * (n - 1) * det_term)


def mcclelland_upper(n: int, m: int) -> float:
    return math.sqrt(2.0 * m * n)


def caporossi_lower(m: int) -> float:
    return 2.0 * math.sqrt(m)


def main_lower(n: int, m: int, lambda1: float, t: float) -> float:
    """(2m + n lambda1 t)/(lambda1 + t); the headline lower bound."""
    if lambda1 <= 0:
        raise EmptyGraph("main_lower needs at least one edge (lambda1 > 0)")
    return (2.0 * m + n * lambda1 * t) / (lambda1 + t)


def cor_nice_lower(m: int, lambda1: float) -> float:
    """2m / lambda1; the t = 0 specialization of main_lower."""
    if lambda1 <= 0:
        raise EmptyGraph("cor_nice_lower needs at least one edge (lambda1 > 0)")
    return 2.0 * m / lambda1


def amgm_lower(n: int, m: int, lambda1: float, t: float) -> float:
    """sqrt(2mn) scaled by the mean ratio sqrt(4 lambda1 t/(lambda1+t)^2).

    Never exceeds main_lower (arithmetic vs geometric mean of lambda1, t)
    and collapses to 0 on singular graphs.
    """
    if lambda1 <= 0:
        raise EmptyGraph("amgm_lower needs at least one edge (lambda1 > 0)")
    if t <= 0:
        return 0.0
    return math.sqrt(2.0 * m * n) * math.sqrt(4.0 * lambda1 * t) / (lambda1 + t)


def rank_lower(m: int, r: int, lambda1: float, t_nz: float) -> float:
    """(2m + r lambda1 t_nz)/(lambda1 + t_nz); main_lower on the nonzero part."""
    if lambda1 <= 0 or r < 1 or t_nz <= 0:
        raise EmptyGraph("rank_lower needs at least one nonzero eigenvalue")
    return (2.0 * m + r * lambda1 * t_nz) / (lambda1 + t_nz)


def irregularity(g: Graph, stats: SpectralStats) -> tuple[float, float]:
    """(epsilon, beta): degree-based and spectral measures of irregularity.

    epsilon = n * sum over edges of sqrt(d_i d_j) / (2 m^2); beta is
    lambda1 over the average degree. Both equal 1 exactly on regular
    graphs and otherwise exceed 1 on connected graphs.
    """
    m = g.edge_count
    if m == 0:
        raise EmptyGraph("irregularity measures need at least one edge")
    degrees = degree_sequence(g)
    edge_sum = sum(math.sqrt(degrees[i] * degrees[j]) for i, j in g.edges())
    epsilon = g.n * edge_sum / (2.0 * m * m)
    beta = stats.lambda1 * g.n / (2.0 * m)
    return epsilon, beta


def conj1_lower(n: int, epsilon: float) -> float:
    """Conjectured lower bound n / epsilon (connected graphs only)."""
    if epsilon <= 0:
        raise EmptyGraph("conj1_lower needs epsilon > 0")
    return n / epsilon


def conj2_upper(m: int, lambda1: float) -> float:
    """Conjectured upper bound 2m / sqrt(lambda1) (connected graphs only)."""
    if lambda1 <= 0:
        raise EmptyGraph("conj2_upper needs at least one edge (lambda1 > 0)")
    return 2.0 * m / math.sqrt(lambda1)


@dataclass(frozen=True)
class BoundReport:
    """Every bound, slack, and applicability flag for a single graph.

    Fields that need an edge (or connectivity, for the conjectural pair)
    are None when the graph does not qualify. Slacks are E - bound for
    lower bounds and bound - E for upper bounds, so nonnegative slack
    means the bound held and near-zero slack means it is tight.
    """

    graph6: str
    n: int
    m: int
    is_connected: bool
    is_regular: bool
    is_triangle_free: bool
    energy: float
    lambda1: float
    t: float
    t_nz: float | None
    rank: int
    det_abs: int             # exact, from spectral.determinants_exact's modular elimination
    mcclelland_lower: float
    caporossi: float
    main: float | None
    cor_nice: float | None
    amgm: float | None
    rank_bound: float | None
    conj1: float | None
    mcclelland_upper: float
    conj2: float | None
    epsilon: float | None
    beta: float | None
    slack_mcclelland_lower: float
    slack_caporossi: float
    slack_main: float | None
    slack_cor_nice: float | None
    slack_amgm: float | None
    slack_rank_bound: float | None
    slack_conj1: float | None
    slack_mcclelland_upper: float
    slack_conj2: float | None

    def to_dict(self) -> dict:
        """Field-order-preserving plain dict (the CSV column order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def csv_header(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def bound_report(
    g: Graph,
    zero_tol: float = DEFAULT_ZERO_TOL,
    stats: SpectralStats | None = None,
    det: int | None = None,
) -> BoundReport:
    """Evaluate every bound on one graph.

    Corpus drivers pass the ``stats`` of a batch-solved spectrum, ``zero_tol``
    already applied, and the graph's batch-computed exact ``det``; without
    them the graph is solved here.
    """
    if stats is None:
        stats = spectral_stats(eigenvalues(g), zero_tol)
    if det is None:
        det = determinant_exact(g)
    n = g.n
    m = g.edge_count
    connected = is_connected(g)
    det_abs = abs(det)
    energy = stats.energy

    mc_lo = mcclelland_lower(n, m, det_abs)
    mc_hi = mcclelland_upper(n, m)
    cap = caporossi_lower(m)

    main = cor = am = rank_b = eps = beta = c1 = c2 = None
    if m >= 1:
        main = main_lower(n, m, stats.lambda1, stats.t)
        cor = cor_nice_lower(m, stats.lambda1)
        am = amgm_lower(n, m, stats.lambda1, stats.t)
        if stats.t_nz is not None:
            rank_b = rank_lower(m, stats.rank, stats.lambda1, stats.t_nz)
        eps, beta = irregularity(g, stats)
        if connected:
            c1 = conj1_lower(n, eps)
            c2 = conj2_upper(m, stats.lambda1)

    def lo_slack(bound: float | None) -> float | None:
        return None if bound is None else energy - bound

    return BoundReport(
        graph6=write_graph6(g),
        n=n,
        m=m,
        is_connected=connected,
        is_regular=is_regular(g),
        is_triangle_free=is_triangle_free(g),
        energy=energy,
        lambda1=stats.lambda1,
        t=stats.t,
        t_nz=stats.t_nz,
        rank=stats.rank,
        det_abs=det_abs,
        mcclelland_lower=mc_lo,
        caporossi=cap,
        main=main,
        cor_nice=cor,
        amgm=am,
        rank_bound=rank_b,
        conj1=c1,
        mcclelland_upper=mc_hi,
        conj2=c2,
        epsilon=eps,
        beta=beta,
        slack_mcclelland_lower=energy - mc_lo,
        slack_caporossi=energy - cap,
        slack_main=lo_slack(main),
        slack_cor_nice=lo_slack(cor),
        slack_amgm=lo_slack(am),
        slack_rank_bound=lo_slack(rank_b),
        slack_conj1=lo_slack(c1),
        slack_mcclelland_upper=mc_hi - energy,
        slack_conj2=None if c2 is None else c2 - energy,
    )
