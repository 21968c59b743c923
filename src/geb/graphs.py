"""Immutable small-graph representation, fixture families, and predicates.

Graphs are simple and undirected on 1..62 vertices, the sizes graph6 can
write. The edge set is an upper-triangle bitset packed into one Python int:
the unordered pair (i, j) with i < j occupies bit ``j*(j-1)//2 + i``, the
column-by-column order of the graph6 format. Isolated vertices are legal (n
is stored separately from the bits). A corpus chunk holds, per vertex
count, one uint8 row per graph of the bitset's ceil(C(n,2)/8) little-endian
bytes: packed rows. Only this module decodes the bits, with one decoder:
``pair_bits`` and ``pair_stack`` unpack packed rows, ``row_graph`` turns one
back into a Graph, and ``_decode`` is one graph's row; the per-graph
predicates are row 0 of ``structure_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CycleTooShort, NTooLarge, SelfLoop, VertexOutOfRange

MAX_VERTICES = 62
MAX_ENUMERATION_N = 8  # geb.enumeration generates the graphs on at most this many vertices


def pair_index(i: int, j: int) -> int:
    """Bitset position of the unordered pair (i, j) with i != j."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def pairs_in_order(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs in bitset order: (0,1), (0,2), (1,2), (0,3), ..."""
    return tuple((i, j) for j in range(n) for i in range(j))


def msb_first(n: int, bits: int) -> int:
    """Reverse the C(n,2) pair bits of ``bits`` < 2**C(n,2); its own inverse.

    Pair 0 becomes the most significant bit, as graph6 and canonical forms
    order them.
    """
    length = pair_count(n)
    return int(f"{bits:0{length}b}"[::-1], 2) if length else 0


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus an edge bitset."""

    n: int
    adj: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise NTooLarge(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if self.adj < 0 or self.adj >> pair_count(self.n):
            raise VertexOutOfRange("edge bitset has bits outside the upper triangle")

    @property
    def edge_count(self) -> int:
        return self.adj.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return bool(self.adj >> pair_index(i, j) & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (i, j) with i < j, in bitset order."""
        j, i = np.nonzero(np.tril(_decode(self)))  # row-major lower triangle = bitset order
        return tuple(zip(i.tolist(), j.tolist()))

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as n-bit ints."""
        a = _decode(self).astype(np.int64)  # n <= 62: every mask fits in int64
        return tuple((a << np.arange(self.n)).sum(axis=1).tolist())


def _decode(g: Graph) -> np.ndarray:
    """g's (n, n) uint8 0/1 matrix, row 0 of ``adjacency_stack``."""
    return adjacency_stack(g.n, [g.adj])[0]


def packed_rows(n: int, bitsets: Sequence[int]) -> np.ndarray:
    """The (len(bitsets), ceil(C(n,2)/8)) uint8 rows of these bitsets, little-endian."""
    nbytes = (pair_count(n) + 7) // 8  # via bytes, not int64: a bitset can exceed 63 bits
    raw = b"".join(bits.to_bytes(nbytes, "little") for bits in bitsets)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(bitsets), nbytes)


def row_graph(n: int, row: np.ndarray) -> Graph:
    """The n-vertex Graph of one packed row, the inverse of ``packed_rows``."""
    return Graph(n, int.from_bytes(row.tobytes(), "little"))


def packed_groups(graphs: Iterable[Graph]) -> list[tuple[int, np.ndarray]]:
    """Graphs as a chunk: per vertex count, first seen first, n and its ``packed_rows``."""
    bitsets: dict[int, list[int]] = {}
    for g in graphs:
        bitsets.setdefault(g.n, []).append(g.adj)
    return [(n, packed_rows(n, adjs)) for n, adjs in bitsets.items()]


def pair_bits(n: int, packed: np.ndarray) -> np.ndarray:
    """The (k, C(n,2)) uint8 pair bits, in bitset order, of k packed rows."""
    return np.unpackbits(packed, axis=1, count=pair_count(n), bitorder="little")


def pair_stack(n: int, bits: np.ndarray) -> np.ndarray:
    """The (k, n, n) symmetric uint8 0/1 matrices of k rows of pair bits."""
    stack = np.zeros((len(bits), n, n), dtype=np.uint8)
    j, i = np.tril_indices(n, -1)  # row-major lower triangle = pairs_in_order(n)
    stack[:, i, j] = stack[:, j, i] = bits
    return stack


def adjacency_stack(n: int, bitsets: Sequence[int]) -> np.ndarray:
    """The (len(bitsets), n, n) symmetric uint8 0/1 matrices of these bitsets."""
    return pair_stack(n, pair_bits(n, packed_rows(n, bitsets)))


def connected_column(a: np.ndarray, a2: np.ndarray | None = None) -> np.ndarray:
    """Whether each graph of a (b, n, n) float32 0/1 stack is connected: square the
    walks of length <= 2 (``a2`` is ``a @ a``) until the length covers n - 1. In
    float32 every count is exact: none exceeds 62**2."""
    a2 = a @ a if a2 is None else a2
    reach, span = a2 + a + np.eye(a.shape[1], dtype=np.float32), 2
    while span < a.shape[1] - 1:
        reach = (reach > 0).astype(np.float32)
        reach, span = reach @ reach, 2 * span
    return (reach[:, 0] > 0).all(axis=1)


def structure_columns(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per graph of a (b, n, n) 0/1 stack: its (b, n) degrees, connected, closed 3- and 4-walks.

    Closed 3-walks are six times the triangles; closed 4-walks, tr A^4, add
    the squared entries of A^2. In float32 every count is exact.
    """
    a = stack.astype(np.float32)
    a2 = a @ a
    walks3 = (a2 * a).sum(axis=(1, 2), dtype=float)
    walks4 = (a2 * a2).sum(axis=(1, 2), dtype=float)
    return a.sum(axis=2, dtype=float), connected_column(a, a2), walks3, walks4


def stacks_by_n(sizes: Sequence[int], bitsets: Sequence[int]) -> Iterator[tuple[np.ndarray, ...]]:
    """Per vertex count of a batch of graphs, its rows and their (k, n, n) adjacency stack."""
    sizes = np.asarray(sizes, dtype=np.int64)
    for n in dict.fromkeys(sizes.tolist()):  # not np.unique: it imports numpy.ma on first use
        rows = np.flatnonzero(sizes == n)
        yield rows, adjacency_stack(n, [bitsets[i] for i in rows.tolist()])


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered endpoint pairs; duplicates collapse."""
    if not 1 <= n <= MAX_VERTICES:
        raise NTooLarge(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    adj = 0
    for i, j in edges:
        if i == j:
            raise SelfLoop(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise VertexOutOfRange(f"edge ({i},{j}) outside 0..{n - 1}")
        adj |= 1 << pair_index(i, j)
    return Graph(n, adj)


def complete(n: int) -> Graph:
    if not 1 <= n <= MAX_VERTICES:
        raise NTooLarge(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    return Graph(n, (1 << pair_count(n)) - 1)


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: every edge between a p-part and a q-part, none inside."""
    if p < 1 or q < 1:
        raise ValueError("both parts need at least one vertex")
    if p + q > MAX_VERTICES:
        raise NTooLarge(f"p+q must be at most {MAX_VERTICES}, got {p + q}")
    return from_edge_list(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise CycleTooShort(f"cycles need n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise NTooLarge(f"paths need n >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    """Outer 5-cycle, inner pentagram, matching spokes: 3-regular on 10."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


def _structure_of(g: Graph) -> tuple[np.ndarray, ...]:
    """``structure_columns`` of g alone, row 0 of each column."""
    return tuple(column[0] for column in structure_columns(_decode(g)[None]))


def degree_sequence(g: Graph) -> list[int]:
    """Degree of each vertex, in vertex order."""
    return _structure_of(g)[0].astype(np.int64).tolist()


def is_regular(g: Graph) -> bool:
    return len(set(degree_sequence(g))) == 1


def is_connected(g: Graph) -> bool:
    return bool(_structure_of(g)[1])


def triangle_count(g: Graph) -> int:
    """Number of triangles: a sixth of the closed 3-walks."""
    return int(_structure_of(g)[2]) // 6


def is_triangle_free(g: Graph) -> bool:
    return triangle_count(g) == 0


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is K_{p,q} for some p, q >= 1: g has an edge and A = s xor s^T,
    where s, row 0 of A, marks the part without vertex 0."""
    a = _decode(g)
    return g.edge_count >= 1 and bool(np.array_equal(a, a[0][:, None] ^ a[0]))
