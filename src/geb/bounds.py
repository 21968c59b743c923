"""Energy bounds, irregularity measures, and the bound table behind every report.

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
(``conj2_upper``, conjectural, connected only).

``BoundTable`` evaluates everything on a batch of graphs at once, one numpy
column per ``BoundReport`` field, and records the slack E - bound (bound - E
for uppers) so tightness scans are threshold checks. The bound functions
take scalars and columns alike. Only ``mcclelland_lower`` runs per graph, in
``math``: numpy's exp and log may differ from it in the last bit. Sums add
left to right, so every column equals the per-graph arithmetic bit for bit.
``bound_report`` is row 0 of a one-graph table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import Sequence

import numpy as np

from .errors import EmptyGraph
from .graph6 import write_graph6
# degree_sequence, is_connected, is_regular, is_triangle_free and spectral_stats are not
# called here; they stay importable from this module because perfbench/tracing.py's
# CALL_SITES patch them
from .graphs import (Graph, adjacency_stack, degree_sequence, is_connected,  # noqa: F401
                     is_regular, is_triangle_free, pairs_in_order)
from .spectral import (DEFAULT_ZERO_TOL, SpectralStats, Spectrum,  # noqa: F401
                       determinant_exact, eigenvalues, group_by_n, sequential_sum,
                       spectral_columns, spectral_stats)


Value = float | np.ndarray  # a scalar, or a column with one entry per graph


def _require(bad: bool | np.ndarray, message: str) -> None:
    """Raise EmptyGraph when ``bad`` holds, for a scalar or for any entry of a column."""
    if np.any(bad):
        raise EmptyGraph(message)


def mcclelland_lower(n: int, m: int, det_abs: float) -> float:
    """sqrt(2m + n(n-1)|det|^(2/n)), with 0^(2/n) taken as 0."""
    if det_abs > 0:
        det_term = math.exp((2.0 / n) * math.log(det_abs))
    else:
        det_term = 0.0
    return math.sqrt(2.0 * m + n * (n - 1) * det_term)


def mcclelland_upper(n: Value, m: Value) -> Value:
    return np.sqrt(2.0 * m * n)


def caporossi_lower(m: Value) -> Value:
    return 2.0 * np.sqrt(m)


def main_lower(n: Value, m: Value, lambda1: Value, t: Value) -> Value:
    """(2m + n lambda1 t)/(lambda1 + t); the headline lower bound."""
    _require(lambda1 <= 0, "main_lower needs at least one edge (lambda1 > 0)")
    return (2.0 * m + n * lambda1 * t) / (lambda1 + t)


def cor_nice_lower(m: Value, lambda1: Value) -> Value:
    """2m / lambda1; the t = 0 specialization of main_lower."""
    _require(lambda1 <= 0, "cor_nice_lower needs at least one edge (lambda1 > 0)")
    return 2.0 * m / lambda1


def amgm_lower(n: Value, m: Value, lambda1: Value, t: Value) -> Value:
    """sqrt(2mn) scaled by the mean ratio sqrt(4 lambda1 t/(lambda1+t)^2).

    Never exceeds main_lower (arithmetic vs geometric mean of lambda1, t)
    and is exactly 0 on singular graphs, where t = 0.
    """
    _require(lambda1 <= 0, "amgm_lower needs at least one edge (lambda1 > 0)")
    return np.sqrt(2.0 * m * n) * np.sqrt(4.0 * lambda1 * t) / (lambda1 + t)


def rank_lower(m: Value, r: Value, lambda1: Value, t_nz: Value) -> Value:
    """(2m + r lambda1 t_nz)/(lambda1 + t_nz); main_lower on the nonzero part."""
    _require((lambda1 <= 0) | (r < 1) | (t_nz <= 0),
             "rank_lower needs at least one nonzero eigenvalue")
    return (2.0 * m + r * lambda1 * t_nz) / (lambda1 + t_nz)


def _epsilon(n: Value, m: Value, root_sum: Value) -> Value:
    return n * root_sum / (2.0 * m * m)


def _beta(n: Value, m: Value, lambda1: Value) -> Value:
    return lambda1 * n / (2.0 * m)


def irregularity(g: Graph, stats: SpectralStats) -> tuple[float, float]:
    """(epsilon, beta): degree-based and spectral measures of irregularity.

    epsilon = n * sum over edges of sqrt(d_i d_j) / (2 m^2); beta is
    lambda1 over the average degree. Both equal 1 exactly on regular
    graphs and otherwise exceed 1 on connected graphs.
    """
    m = g.edge_count
    _require(m == 0, "irregularity measures need at least one edge")
    root_sum = _structure(adjacency_stack(g.n, [g.adj]))[3][0]
    return _epsilon(g.n, m, root_sum), _beta(g.n, m, stats.lambda1)


def conj1_lower(n: Value, epsilon: Value) -> Value:
    """Conjectured lower bound n / epsilon (connected graphs only)."""
    _require(epsilon <= 0, "conj1_lower needs epsilon > 0")
    return n / epsilon


def conj2_upper(m: Value, lambda1: Value) -> Value:
    """Conjectured upper bound 2m / sqrt(lambda1) (connected graphs only)."""
    _require(lambda1 <= 0, "conj2_upper needs at least one edge (lambda1 > 0)")
    return 2.0 * m / np.sqrt(lambda1)


def _structure(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per graph of a (b, n, n) 0/1 stack: regular, connected, closed 3-walks, root sum.

    Closed 3-walks are six times the triangles. The root sum adds
    sqrt(d_i d_j) over the edges in bitset order, left to right. Connectivity
    squares the matrix of walks of length at most 2 until the length covers
    n - 1. In float32 every count is exact: none exceeds 62**2.
    """
    n = stack.shape[1]
    a = stack.astype(np.float32)
    a2 = a @ a
    walks3 = (a2 * a).sum(axis=(1, 2), dtype=float)
    reach, span = a2 + a + np.eye(n, dtype=np.float32), 2
    while span < n - 1:
        reach = (reach > 0).astype(np.float32)
        reach, span = reach @ reach, 2 * span
    degrees = a.sum(axis=2, dtype=float)
    i, j = np.array(pairs_in_order(n), dtype=np.intp).reshape(-1, 2).T
    root_sum = sequential_sum(np.sqrt(degrees[:, i] * degrees[:, j]) * a[:, i, j])
    regular = degrees.min(axis=1) == degrees.max(axis=1)
    return regular, (reach[:, 0] > 0).all(axis=1), walks3, root_sum


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
    det_abs: int             # exact, from spectral.determinants_exact (float64 Bareiss, then primes)
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


_LOWER = ("mcclelland_lower", "caporossi", "main", "cor_nice", "amgm", "rank_bound", "conj1")
_UPPER = ("mcclelland_upper", "conj2")


class BoundTable:
    """Every BoundReport field of a batch of graphs, one numpy column per field.

    ``column[field]`` holds the field per graph, in the order of ``graphs``.
    ``applies[name]`` marks the graphs where a bound (and its slack), t_nz,
    epsilon or beta is set; elsewhere the column holds nan and a BoundReport
    None. ``values`` holds the spectra, one per row, zero-padded to the
    longest, and ``walks3`` the closed 3-walks, six times the triangles.
    ``graph6(i)`` encodes row i's graph once, when first asked.
    """

    def __init__(self, graphs: Sequence[Graph], spectra: Sequence[Spectrum],
                 dets: Sequence[int], zero_tol: float = DEFAULT_ZERO_TOL):
        self.graphs, self.spectra = graphs, spectra
        self.values, col = spectral_columns(spectra, zero_tol)
        b = len(graphs)
        n = np.array([g.n for g in graphs], dtype=np.int64)
        m = np.array([g.edge_count for g in graphs], dtype=np.int64)
        regular, connected = np.empty(b, bool), np.empty(b, bool)
        self.walks3, root_sum = np.empty(b), np.empty(b)
        for size, rows in group_by_n(n).items():
            stack = adjacency_stack(size, [graphs[i].adj for i in rows])
            regular[rows], connected[rows], self.walks3[rows], root_sum[rows] = _structure(stack)
        energy, lam, t, t_nz, rank = (col[k] for k in ("energy", "lambda1", "t", "t_nz", "rank"))
        edged = m >= 1
        self.applies = dict.fromkeys(("mcclelland_lower", "caporossi", "mcclelland_upper"),
                                     np.ones(b, bool))
        self.applies.update(t_nz=rank >= 1, main=edged, cor_nice=edged, amgm=edged,
                            rank_bound=edged & (rank >= 1), epsilon=edged, beta=edged,
                            conj1=edged & connected, conj2=edged & connected)

        def where(name, bound, *args):
            """bound(*args) on the rows where ``name`` applies, nan elsewhere."""
            out, rows = np.full(b, np.nan), self.applies[name]
            out[rows] = bound(*(arg[rows] for arg in args))
            return out

        det_abs = np.array([abs(d) for d in dets], dtype=object)  # Python ints: |det| may pass 2**63
        epsilon = where("epsilon", _epsilon, n, m, root_sum)
        self.column = col | {
            "n": n, "m": m, "is_connected": connected, "is_regular": regular,
            "is_triangle_free": self.walks3 == 0, "det_abs": det_abs,
            "mcclelland_lower": np.array([mcclelland_lower(*row) for row in
                                          zip(n.tolist(), m.tolist(), det_abs)]),
            "caporossi": caporossi_lower(m),
            "main": where("main", main_lower, n, m, lam, t),
            "cor_nice": where("cor_nice", cor_nice_lower, m, lam),
            "amgm": where("amgm", amgm_lower, n, m, lam, t),
            "rank_bound": where("rank_bound", rank_lower, m, rank, lam, t_nz),
            "conj1": where("conj1", conj1_lower, n, epsilon),
            "mcclelland_upper": mcclelland_upper(n, m),
            "conj2": where("conj2", conj2_upper, m, lam),
            "epsilon": epsilon,
            "beta": where("beta", _beta, n, m, lam),
        }
        for name in _LOWER:
            self.column["slack_" + name] = energy - self.column[name]
        for name in _UPPER:
            self.column["slack_" + name] = self.column[name] - energy
        self.graph6 = cache(lambda i: write_graph6(graphs[i]))

    def report(self, i: int) -> BoundReport:
        """Row i as a BoundReport of Python scalars."""
        row: dict = {"graph6": self.graph6(i)}
        for name in BoundReport.csv_header()[1:]:
            rows = self.applies.get(name.removeprefix("slack_"))
            set_here = rows is None or rows[i]
            row[name] = self.column[name][i : i + 1].tolist()[0] if set_here else None
        return BoundReport(**row)


def bound_report(
    g: Graph, zero_tol: float = DEFAULT_ZERO_TOL, spectrum: Spectrum | None = None
) -> BoundReport:
    """Evaluate every bound on one graph: row 0 of a one-graph BoundTable.

    Without a precomputed ``spectrum`` the graph is solved here.
    """
    spectrum = eigenvalues(g) if spectrum is None else spectrum
    return BoundTable([g], [spectrum], [determinant_exact(g)], zero_tol).report(0)
