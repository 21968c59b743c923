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

``BOUNDS`` holds one row per bound. A bound's column, its slack E - bound
(bound - E for an upper bound), where its ``BoundReport`` fields are None
and its check in ``harness`` all follow from its row, so a new bound is one
row, two ``BoundReport`` fields and a README line.

``BoundTable`` evaluates a chunk of packed rows (see ``graphs``) at once,
one numpy column per ``BoundReport`` field. One adjacency stack per vertex
count feeds the solve, the exact determinants and the structure columns
(connectivity, triangles, epsilon). Those groups, the spectrum's sums and
each bound are built when first read, so a command pays only for what it
reads. The bound functions take scalars and columns alike. Only
``mcclelland_lower`` runs in ``math``, once per distinct (n, m, |det|) of a
chunk: numpy's exp and log may differ from it in the last bit. Sums add
left to right, so every column equals the per-graph arithmetic bit for
bit. ``bound_report`` is row 0 of a one-graph table.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyGraph
from .graph6 import write_graph6
# degree_sequence, determinant_exact, eigenvalues, is_connected, is_regular, is_triangle_free
# and spectral_stats are not called here; they stay importable from this module because
# perfbench/tracing.py's sites patch them
from .graphs import (Graph, degree_sequence, is_connected, is_regular,  # noqa: F401
                     is_triangle_free, packed_groups, packed_rows, pair_bits, pair_stack,
                     pairs_in_order, structure_columns)
from .spectral import (DEFAULT_ZERO_TOL, SpectralStats, determinant_exact,  # noqa: F401
                       determinants_of_stacks, eigenvalues, sequential_sum, spectra_of_stacks,
                       spectral_columns, spectral_stats)

DEFAULT_TOL = 1e-9  # how far below 0 a margin may fall before verify or conjectures flags it
DEFAULT_EQUALITY_EPS = 1e-7  # equality's default tolerance on |E - bound|
EQUALITY_BOUNDS = ("cor_nice", "main", "rank_bound", "caporossi", "mcclelland_lower")

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
    bits = pair_bits(g.n, packed_rows(g.n, [g.adj]))
    root_sum = _structure(pair_stack(g.n, bits), bits)[-1][0]
    return _epsilon(g.n, m, root_sum), _beta(g.n, m, stats.lambda1)


def conj1_lower(n: Value, epsilon: Value) -> Value:
    """Conjectured lower bound n / epsilon (connected graphs only)."""
    _require(epsilon <= 0, "conj1_lower needs epsilon > 0")
    return n / epsilon


def conj2_upper(m: Value, lambda1: Value) -> Value:
    """Conjectured upper bound 2m / sqrt(lambda1) (connected graphs only)."""
    _require(lambda1 <= 0, "conj2_upper needs at least one edge (lambda1 > 0)")
    return 2.0 * m / np.sqrt(lambda1)


def _mcclelland_column(n: np.ndarray, m: np.ndarray, det_abs: np.ndarray) -> np.ndarray:
    """mcclelland_lower once per distinct (n, m, |det|) row; |det| holds Python ints."""
    rows = list(zip(n.tolist(), m.tolist(), det_abs))
    memo = {row: mcclelland_lower(*row) for row in dict.fromkeys(rows)}
    return np.array([memo[row] for row in rows])


# One row per bound: (name, lower, proven, gate, function, columns). The function reads the
# named columns on the graphs where the bool column ``gate`` holds: ``every`` graph, the
# ``edged`` ones (m >= 1), those also ``ranked`` (rank >= 1), or also connected.
BOUNDS = (
    ("mcclelland_lower", True, True, "every", _mcclelland_column, ("n", "m", "det_abs")),
    ("caporossi", True, True, "every", caporossi_lower, ("m",)),
    ("main", True, True, "edged", main_lower, ("n", "m", "lambda1", "t")),
    ("cor_nice", True, True, "edged", cor_nice_lower, ("m", "lambda1")),
    ("amgm", True, True, "edged", amgm_lower, ("n", "m", "lambda1", "t")),
    ("rank_bound", True, True, "edged_ranked", rank_lower, ("m", "rank", "lambda1", "t_nz")),
    ("mcclelland_upper", False, True, "every", mcclelland_upper, ("n", "m")),
    ("conj1", True, False, "edged_connected", conj1_lower, ("n", "epsilon")),
    ("conj2", False, False, "edged_connected", conj2_upper, ("m", "lambda1")),
)
# each BoundReport field that some graphs may leave None, and every bound's, to its gate column
GATES = {"t_nz": "ranked", "epsilon": "edged", "beta": "edged"} | {
    field: gate for name, _, _, gate, _, _ in BOUNDS for field in (name, "slack_" + name)}


def _structure(stack: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per graph of a (b, n, n) 0/1 stack: regular, connected, closed 3- and 4-walks, root sum.

    ``graphs.structure_columns`` gives the degrees, connectivity and walks;
    this adds regularity and the root sum, which adds sqrt(d_i d_j) over the
    edges, the stack's (b, C(n,2)) pair ``bits``, left to right.
    """
    degrees, connected, walks3, walks4 = structure_columns(stack)
    i, j = np.array(pairs_in_order(stack.shape[1]), dtype=np.intp).reshape(-1, 2).T
    root_sum = sequential_sum(np.sqrt(degrees[:, i] * degrees[:, j]) * bits)
    regular = degrees.min(axis=1) == degrees.max(axis=1)
    return regular, connected, walks3, walks4, root_sum


class BoundReport(NamedTuple):
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
    det_abs: int             # exact: float64 Bareiss while provably exact, then primes
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
        return self._asdict()

    @classmethod
    def csv_header(cls) -> list[str]:
        return list(cls._fields)


def _where(rows: np.ndarray, bound: Callable[..., np.ndarray], *args: np.ndarray) -> np.ndarray:
    """bound(*args) on ``rows``, nan elsewhere."""
    out = np.full(len(rows), np.nan)
    out[rows] = bound(*(arg[rows] for arg in args))
    return out


def _bound_columns(row: tuple, c: dict) -> dict[str, np.ndarray]:
    """A ``BOUNDS`` row's bound, nan where its gate fails, and its slack."""
    name, lower, _, gate, function, columns = row
    bound = _where(c[gate], function, *(c[key] for key in columns))
    return {name: bound, "slack_" + name: c["energy"] - bound if lower else bound - c["energy"]}


def _determinant_columns(stacks: list, determinants: Callable, c: dict) -> dict[str, np.ndarray]:
    """|det A| as Python ints: it may pass 2**63."""
    return {"det_abs": np.array([abs(d) for d in determinants(stacks, len(c["n"]))], dtype=object)}


def _structure_columns(stacks: list, bits: list, c: dict) -> dict[str, np.ndarray]:
    """``_structure`` per vertex count, and what needs it: epsilon and ``edged_connected``."""
    b = len(c["n"])
    regular, connected = np.empty(b, bool), np.empty(b, bool)
    walks3, walks4, root_sum = np.empty(b), np.empty(b), np.empty(b)
    for (rows, stack), group_bits in zip(stacks, bits):
        (regular[rows], connected[rows], walks3[rows], walks4[rows],
         root_sum[rows]) = _structure(stack, group_bits)
    return {"is_connected": connected, "is_regular": regular, "is_triangle_free": walks3 == 0,
            "walks3": walks3, "walks4": walks4, "edged_connected": c["edged"] & connected,
            "epsilon": _where(c["edged"], _epsilon, c["n"], c["m"], root_sum)}


def _spectrum_columns(values: np.ndarray, c: dict) -> dict[str, np.ndarray]:
    """What the spectrum checks add up: the power sums sum(lambda^k), k = 1..4, the
    |eigenvalues| largest first and the largest, and the squares of those past the rank."""
    mags = -np.sort(-np.abs(values), axis=1)
    squares = values * values
    dropped = np.where(np.arange(mags.shape[1]) >= c["rank"][:, None], mags * mags, 0.0)
    return {"moment1": sequential_sum(values), "moment2": sequential_sum(squares),
            "moment3": sequential_sum(squares * values),
            "moment4": sequential_sum(squares * squares), "abs_sum": sequential_sum(mags),
            "abs_max": mags[:, 0], "dropped_squares": sequential_sum(dropped)}


_STRUCTURE = ("is_connected", "is_regular", "is_triangle_free", "walks3", "walks4",
              "edged_connected", "epsilon")
_SPECTRUM = ("moment1", "moment2", "moment3", "moment4", "abs_sum", "abs_max", "dropped_squares")


class _OnDemand(dict):
    """A dict that builds a missing key's group on first read and keeps it.

    ``groups`` maps each deferred key to a function that takes this dict and
    returns its group's entries, the key's among them.
    """

    def __init__(self, groups: dict[str, Callable[[dict], dict]], entries: dict):
        super().__init__(entries)
        self._groups = groups

    def __missing__(self, key: str):
        self.update(self._groups[key](self))
        return self[key]


class BoundTable:
    """Every BoundReport field of a chunk of graphs, one numpy column per field.

    Each (n, packed rows) group of the chunk is unpacked once, into pair bits:
    m, its adjacency stack and the root sum read them. ``column[field]`` holds
    the field per graph, group after group, and ``column["walksK"]`` tr A^K
    for K = 2, 3, 4, which the spectrum checks compare with the power sums of
    ``_spectrum_columns``. Gates are bool columns: where ``column[GATES[f]]``
    fails, field f holds nan, and a BoundReport None. ``values`` holds the
    spectra from ``solve(stacks, b)``, one per row, zero-padded to the
    longest. ``graph(i)`` and ``graph6(i)`` build row i's Graph and graph6
    once, when asked, and ``graph6_order()`` each row's place in graph6
    order, with no encoding.

    Built when first read: ``determinants(stacks, b)``, called once at most;
    ``_structure``, with epsilon and ``edged_connected``; the spectrum's sums;
    and each ``BOUNDS`` row's bound and slack. The rest is built here.
    """

    def __init__(self, chunk: Sequence[tuple[int, np.ndarray]],
                 solve: Callable = spectra_of_stacks,
                 determinants: Callable = determinants_of_stacks,
                 zero_tol: float = DEFAULT_ZERO_TOL):
        bits = [pair_bits(size, packed) for size, packed in chunk]
        counts = [len(rows) for rows in bits]
        starts = np.cumsum([0] + counts).tolist()
        n = np.repeat(np.array([size for size, _ in chunk], dtype=np.int64), counts)
        m = np.concatenate([np.zeros(0, np.int64), *(rows.sum(axis=1, dtype=np.int64)
                                                     for rows in bits)])
        stacks = [(np.arange(start, start + len(rows)), pair_stack(size, rows))
                  for (size, _), start, rows in zip(chunk, starts, bits)]
        self.values, energy = solve(stacks, len(n))
        col = spectral_columns(self.values, energy, n, zero_tol)
        edged, ranked = m >= 1, col["rank"] >= 1
        eager = col | {"n": n, "m": m, "walks2": 2.0 * m, "every": np.ones(len(n), bool),
                       "edged": edged, "ranked": ranked, "edged_ranked": edged & ranked,
                       "beta": _where(edged, _beta, n, m, col["lambda1"])}
        # the builders are handed the columns and hold arrays, not the table: no reference
        # cycle keeps a finished chunk's table alive until the next full collection
        groups = {"det_abs": partial(_determinant_columns, stacks, determinants)}
        groups |= dict.fromkeys(_STRUCTURE, partial(_structure_columns, stacks, bits))
        groups |= dict.fromkeys(_SPECTRUM, partial(_spectrum_columns, self.values))
        groups |= {field: partial(_bound_columns, row)
                   for row in BOUNDS for field in (row[0], "slack_" + row[0])}
        self.column = _OnDemand(groups, eager)

        def graph(i: int) -> Graph:
            k = bisect_right(starts, i) - 1
            size, packed = chunk[k]
            return Graph(size, int.from_bytes(packed[i - starts[k]].tobytes(), "little"))
        self.graph = graph = cache(graph)
        self.graph6 = cache(lambda i: write_graph6(graph(i)))

        def graph6_order() -> np.ndarray:
            # each row's place in a stable sort of the keys (n, pair bits with pair 0 first)
            keys = np.zeros((len(n), 1 + max((p.shape[1] for _, p in chunk), default=0)), np.uint8)
            keys[:, 0] = n
            for (rows, _), group_bits in zip(stacks, bits):
                packed = np.packbits(group_bits, axis=1, bitorder="big")
                keys[rows, 1 : 1 + packed.shape[1]] = packed
            return np.argsort(np.argsort(keys.view(f"V{keys.shape[1]}").ravel(), kind="stable"))
        self.graph6_order = cache(graph6_order)

    def report(self, i: int) -> BoundReport:
        """Row i as a BoundReport of Python scalars."""
        c, row = self.column, {"graph6": self.graph6(i)}
        for name in BoundReport.csv_header()[1:]:
            row[name] = c[name][i : i + 1].tolist()[0] if c[GATES.get(name, "every")][i] else None
        return BoundReport(**row)


def bound_report(g: Graph, zero_tol: float = DEFAULT_ZERO_TOL) -> BoundReport:
    """Evaluate every bound on one graph: row 0 of a one-graph BoundTable."""
    return BoundTable(packed_groups([g]), zero_tol=zero_tol).report(0)
