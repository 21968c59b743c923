"""Independent reference for the benchmark's output checks.

Nothing here imports ``geb``: graph6 is encoded and decoded by the few lines
below, spectra come from ``numpy.linalg.eigvalsh``, and the bounds are the
closed forms stated in the ``geb.bounds`` docstring. A program output is
accepted when its verdict counts equal these exactly and its min slacks lie
within ``TOL`` of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9            # the CLI's default --tol
ZERO_TOL = 1e-8       # the CLI's default --zero-tol
EQUALITY_EPS = 1e-7   # the CLI's default --eps

VERIFY_BOUNDS = ("amgm", "caporossi", "cor_nice", "main", "mcclelland_lower",
                 "mcclelland_upper", "rank_bound")
CONJECTURE_BOUNDS = ("conj1", "conj2")


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def encode_graph6(n: int, adj: int) -> str:
    """Short-form graph6; bit k of ``adj`` is the k-th upper-triangle pair, column by column."""
    bits = pair_count(n)
    out = [chr(63 + n)]
    for start in range(0, bits, 6):
        v = 0
        for k in range(6):
            if start + k < bits and adj >> (start + k) & 1:
                v |= 1 << (5 - k)
        out.append(chr(63 + v))
    return "".join(out)


def decode_graph6(line: str) -> tuple[int, int]:
    s = line.strip()
    n = ord(s[0]) - 63
    adj = 0
    bit = 0
    for ch in s[1:]:
        v = ord(ch) - 63
        for k in range(5, -1, -1):
            if v >> k & 1:
                adj |= 1 << bit
            bit += 1
    return n, adj & ((1 << pair_count(n)) - 1)


def random_graph(rng, n: int) -> int:
    """G(n, 1/2) as an edge bitset."""
    return rng.getrandbits(pair_count(n)) if n > 1 else 0


def adjacency_stack(n: int, adjs: list[int]) -> np.ndarray:
    """(len(adjs), n, n) float stack of 0/1 adjacency matrices."""
    stack = np.zeros((len(adjs), n, n))
    count = pair_count(n)
    if count and adjs:
        nbytes = (count + 7) // 8
        raw = b"".join(a.to_bytes(nbytes, "little") for a in adjs)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(adjs), nbytes),
                             axis=1, bitorder="little")[:, :count]
        i_idx, j_idx = np.array([(i, j) for j in range(n) for i in range(j)]).T
        stack[:, i_idx, j_idx] = bits
        stack[:, j_idx, i_idx] = bits
    return stack


def group_by_n(graphs: list[tuple[int, int]]) -> dict[int, list[int]]:
    """Indices of ``graphs`` grouped by vertex count."""
    groups: dict[int, list[int]] = {}
    for idx, (n, _) in enumerate(graphs):
        groups.setdefault(n, []).append(idx)
    return groups


@dataclass(frozen=True)
class Row:
    """Reference quantities of one graph."""

    graph6: str
    n: int
    m: int
    energy: float
    lambda1: float
    connected: bool
    singular: bool
    bounds: dict[str, float]   # bound name -> slack (E - bound, or bound - E for uppers)


def _connected(a: np.ndarray) -> np.ndarray:
    """Per-matrix connectivity of a stack, by repeated squaring of reachability."""
    n = a.shape[1]
    reach = (a > 0) | np.eye(n, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        r = reach.astype(np.float64)
        reach = (r @ r) > 0
    return reach[:, 0, :].all(axis=1)


def reference_rows(graphs: list[tuple[int, int]]) -> list[Row]:
    """One Row per graph, in input order."""
    rows: list[Row] = [None] * len(graphs)  # type: ignore[list-item]
    for n, idx in group_by_n(graphs).items():
        adjs = [graphs[i][1] for i in idx]
        a = adjacency_stack(n, adjs)
        spectra = np.linalg.eigvalsh(a)[:, ::-1]
        dets = np.abs(np.linalg.det(a))
        connected = _connected(a)
        degrees = a.sum(axis=2)
        edge_sums = 0.5 * (a * np.sqrt(degrees[:, :, None] * degrees[:, None, :])).sum(axis=(1, 2))
        for row, i in enumerate(idx):
            rows[i] = _row(n, adjs[row], spectra[row], float(dets[row]),
                           bool(connected[row]), float(edge_sums[row]))
    return rows


def _row(n: int, adj: int, lam: np.ndarray, det: float, connected: bool, edge_sum: float) -> Row:
    m = adj.bit_count()
    absvals = np.abs(lam)
    energy = float(absvals.sum())
    lam1 = float(lam[0])
    t = float(absvals.min())
    nonzero = absvals[absvals > ZERO_TOL]
    rank = int(nonzero.size)
    det_term = math.exp((2.0 / n) * math.log(det)) if rank == n and det > 0 else 0.0
    slack = {
        "mcclelland_lower": energy - math.sqrt(2.0 * m + n * (n - 1) * det_term),
        "caporossi": energy - 2.0 * math.sqrt(m),
        "mcclelland_upper": math.sqrt(2.0 * m * n) - energy,
    }
    if m >= 1:
        slack["main"] = energy - (2.0 * m + n * lam1 * t) / (lam1 + t)
        slack["cor_nice"] = energy - 2.0 * m / lam1
        amgm = math.sqrt(2.0 * m * n) * math.sqrt(4.0 * lam1 * t) / (lam1 + t) if t > 0 else 0.0
        slack["amgm"] = energy - amgm
        if rank:
            t_nz = float(nonzero.min())
            slack["rank_bound"] = energy - (2.0 * m + rank * lam1 * t_nz) / (lam1 + t_nz)
        if connected:
            epsilon = n * edge_sum / (2.0 * m * m)
            slack["conj1"] = energy - n / epsilon
            slack["conj2"] = 2.0 * m / math.sqrt(lam1) - energy
    return Row(encode_graph6(n, adj), n, m, energy, lam1, connected, rank < n, slack)


def isomorphism_classes(n: int, adjs: list[int]) -> int:
    """Number of isomorphism classes among the graphs on ``n`` vertices ``adjs``.

    A graph's class is its least adjacency matrix, read row by row as a
    binary number, over all n! vertex orders."""
    perms = np.array(list(itertools.permutations(range(n))))
    weights = 1 << np.arange(n * n - 1, -1, -1, dtype=np.uint64)
    forms = set()
    for a in adjacency_stack(n, adjs).astype(np.uint64):
        permuted = a[perms[:, :, None], perms[:, None, :]].reshape(len(perms), n * n)
        forms.add(int((permuted * weights).sum(axis=1).min()))
    return len(forms)


def min_slacks(rows: list[Row], names: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in rows:
        for name in names:
            if name in row.bounds:
                out[name] = min(out.get(name, math.inf), row.bounds[name])
    return out


def equality_hits(rows: list[Row], bound: str) -> set[str]:
    return {r.graph6 for r in rows if bound in r.bounds and abs(r.bounds[bound]) <= EQUALITY_EPS}
