"""Canonical labelings and exhaustive generation of small graphs.

The canonical form of a graph is the lexicographically least upper-triangle
bit string (most-significant bit first, column by column) over every
labeling that lists the vertices in ascending degree order. Two graphs are
isomorphic exactly when these bit strings agree: an isomorphism preserves
degrees, so it carries the degree-sorted labelings of one graph onto those
of the other. The least string is found position by position without
walking every labeling. Column j holds the edges between position j and
positions 0..j-1, so it depends only on the first j + 1 vertices placed; a
prefix whose columns are not the least so far cannot begin the least
string, and only the least prefixes are extended. Twins, vertices u and v
with N(u) - {v} = N(v) - {u}, form equivalence classes of equal degree, and
any permutation inside a class is an automorphism; so some least labeling
places each class in ascending vertex order, and a vertex is placed only
after its smaller twins. Without that rule every prefix of K_n ties.

Generation builds the classes on n vertices from those on n - 1 (McKay 1998,
*J. Algorithms* 26): each representative gains one new vertex in every way,
one candidate per neighbourhood of the new vertex (the empty one included),
and the candidates are kept once per canonical form. Only a candidate whose
new vertex is greatest by the key (degree, sum of its neighbours' degrees)
is canonicalized. Two filters apply it: a neighbourhood H of a parent
passes the first when |H| >= deg(u) + [u in H] for every parent vertex u,
on the parents' degrees alone; the second, on each slab of candidate
matrices, drops a candidate where a vertex of the same degree has a larger
neighbour sum. This is complete because the key is an isomorphism
invariant: deleting a vertex of greatest key from any graph leaves a graph
isomorphic to some representative, and adding it back to that
representative gives a candidate whose new vertex has the greatest key and
so passes. The connected classes are the connected members of all classes.
Each class is represented by its canonical labeling, and classes come in
ascending order of the canonical bit string.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import NTooLargeForCanonicalization, NTooLargeForEnumeration
from .graphs import MAX_ENUMERATION_N, Graph, adjacency_stack, connected_column, pair_count

MAX_CANONICAL_N = 10

_SLAB = 1000  # parents filtered, candidates canonicalized or classes tested per numpy step


class CanonicalForm(NamedTuple):
    """Isomorphism-class label: vertex count plus packed canonical bits.

    ``bits`` holds the upper triangle of the canonical adjacency matrix,
    column by column, most-significant bit first, zero-padded at the end to
    whole bytes. Byte-wise comparison therefore matches bit-string order.
    """

    n: int
    bits: bytes


def _canonical_bits(stack: np.ndarray) -> np.ndarray:
    """Least MSB-first, column-by-column bit string of each 0/1 matrix in the
    (C, n, n) ``stack`` over its degree-respecting labelings, as C int64s."""
    count, n, _ = stack.shape
    adj = stack.astype(np.int16)  # columns and vertex sets stay below 2**n <= 2**10
    vertex = np.arange(n, dtype=np.int16)
    bit = 1 << vertex
    degree = adj.sum(axis=2)
    wanted = np.sort(degree, axis=1)
    masks = adj @ bit
    twin = (masks[:, :, None] & ~bit) == (masks[:, None, :] & ~bit[:, None])  # [c, u, v]
    below = twin & (vertex[:, None] < vertex)  # u is a smaller twin of v
    need = np.where(below, bit[:, None], 0).sum(axis=1, dtype=np.int16)  # placed before v
    graph = np.arange(count)  # the graph of each kept prefix, ascending
    placed = np.zeros(count, dtype=np.int16)  # vertices in each prefix, as a bitset
    column = np.zeros((count, n), dtype=np.int16)  # next column if v comes next
    best = np.zeros(count, dtype=np.int64)
    for j in range(n):  # place position j; 1 << n is above every column
        free = (placed[:, None] & (need[graph] | bit)) == need[graph]
        value = np.where(free & (degree[graph] == wanted[graph, j, None]), column, 1 << n)
        starts = np.flatnonzero(np.diff(graph, prepend=-1))
        least = np.minimum.reduceat(value.min(axis=1), starts)
        best = best << j | least
        k, v = np.nonzero(value == least[graph, None])  # the prefixes that tie for least
        graph = graph[k]
        placed = placed[k] | bit[v]
        column = column[k] << 1 | adj[graph, v]
    return best


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of ``g``; equal forms mean isomorphic graphs."""
    n = g.n
    if n > MAX_CANONICAL_N:
        raise NTooLargeForCanonicalization(
            f"canonical form supports at most {MAX_CANONICAL_N} vertices, got {n}"
        )
    value, length = int(_canonical_bits(adjacency_stack(n, [g.adj]))[0]), pair_count(n)
    return CanonicalForm(n, (value << (-length % 8)).to_bytes(max(1, -(-length // 8)), "big"))


@lru_cache(maxsize=None)
def _classes(n: int, connected: bool) -> tuple[Graph, ...]:
    """One canonically labeled representative per class, or connected class, on n vertices."""
    if connected:
        every = _classes(n, False)
        return tuple(compress(every, np.concatenate([  # slabs bound the float32 stacks
            connected_column(adjacency_stack(n, [g.adj for g in every[start:start + _SLAB]])
                             .astype(np.float32)) for start in range(0, len(every), _SLAB)])))
    if n == 1:
        return (Graph(1, 0),)
    parents = adjacency_stack(n - 1, [rep.adj for rep in _classes(n - 1, False)])
    hoods = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1).astype(np.uint8)
    size, degree = hoods.sum(axis=1, keepdims=True), parents.sum(axis=1, dtype=np.uint8)[:, None]
    kept = np.concatenate([  # pairs whose new vertex, of degree |hood|, has the largest degree
        np.flatnonzero((degree[start:start + _SLAB] + hoods <= size).all(axis=2))
        + start * len(hoods) for start in range(0, len(parents), _SLAB)])
    found = []
    for start in range(0, len(kept), _SLAB):
        c = kept[start:start + _SLAB]
        stack = np.zeros((len(c), n, n), dtype=np.uint8)
        stack[:, :-1, :-1] = parents[c // len(hoods)]
        stack[:, -1, :-1] = stack[:, :-1, -1] = hoods[c % len(hoods)]
        # of those, the ones whose new vertex is greatest by (degree, neighbours' degree sum)
        child = stack.sum(axis=1, dtype=np.int16)
        key = child * n * n + (stack @ child[:, :, None])[:, :, 0]  # the sum is below n * n
        found.append(_canonical_bits(stack[key[:, -1] == key.max(axis=1)]))
    found = np.sort(np.concatenate(found))
    found = found[np.diff(found, prepend=-1) != 0]  # once per canonical form
    # pair p is bit C(n, 2) - 1 - p of a canonical string: shifted to the top, unpacked
    # most-significant bit first and repacked little-endian, it lands at bit p
    top = (found.astype(np.uint64) << np.uint64(64 - pair_count(n))).astype(">u8")
    adj = np.packbits(np.unpackbits(top.view(np.uint8).reshape(-1, 8), axis=1), axis=1,
                      bitorder="little").view("<u8").ravel()
    return tuple(Graph(n, a) for a in adj.tolist())


def enumerate_graphs(n: int, connected: bool = True) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, canonically labeled (cached).

    Both lists come from the one recursion over all classes; ``connected``
    keeps its connected members. Representatives come back sorted by their
    canonical bit string. Above ``MAX_ENUMERATION_N`` this refuses to run.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise NTooLargeForEnumeration(
            f"enumeration supports 1..{MAX_ENUMERATION_N} vertices, got {n}"
        )
    return list(_classes(n, connected))


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism (cached)."""
    return enumerate_graphs(n, connected=True)
