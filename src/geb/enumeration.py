"""Canonical labelings and exhaustive generation of small graphs.

The canonical form of a graph is computed by relabeling vertices in
ascending degree order and then taking, over every permutation that only
shuffles vertices of equal degree, the lexicographically least upper-triangle
bit string (most-significant bit first, column by column). Two graphs are
isomorphic exactly when these bit strings agree: any isomorphism between two
degree-sorted labelings must map each degree block onto itself, so the block
permutations reach every degree-sorted labeling of the class.

Generation builds the classes on n vertices from those on n - 1 (McKay 1998,
*J. Algorithms* 26): each representative gains one new vertex in every way,
one candidate per neighbourhood of the new vertex, and the candidates are
kept once per canonical form. This is complete because deleting the last
vertex of any graph leaves a graph isomorphic to some representative. For
connected graphs only the connected classes are extended, and only by
nonempty neighbourhoods: every connected graph on n >= 2 vertices has a
vertex whose removal leaves it connected (a leaf of a spanning tree), and
the new vertex needs a neighbour to keep the graph connected. Each class is
represented by its canonical labeling, and classes come in ascending order
of the canonical bit string.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import NTooLargeForCanonicalization, NTooLargeForEnumeration
from .graphs import Graph, adjacency_stack, msb_first, pair_count, pairs_in_order

MAX_CANONICAL_N = 10
MAX_ENUMERATION_N = 8

_PERM_SLAB = 10_000  # bitsets x permutations relabeled per numpy step


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class label: vertex count plus packed canonical bits.

    ``bits`` holds the upper triangle of the canonical adjacency matrix,
    column by column, most-significant bit first, zero-padded at the end to
    whole bytes. Byte-wise comparison therefore matches bit-string order.
    """

    n: int
    bits: bytes


def _pack_bits(n: int, value: int) -> bytes:
    """MSB-first packing of an upper-triangle bit value into bytes."""
    length = pair_count(n)
    nbytes = max(1, -(-length // 8))
    return (value << (8 * nbytes - length)).to_bytes(nbytes, "big")


def _degree_blocks(degrees: Sequence[int]) -> list[range]:
    """Contiguous runs of equal degree in an ascending degree list."""
    blocks = []
    start = 0
    for i in range(1, len(degrees) + 1):
        if i == len(degrees) or degrees[i] != degrees[start]:
            blocks.append(range(start, i))
            start = i
    return blocks


def _iter_block_perms(blocks: Sequence[range]) -> Iterator[tuple[int, ...]]:
    """All vertex permutations fixing each block setwise (new -> old), lazily."""
    if len(blocks) == 1:
        yield from itertools.permutations(blocks[0])
        return
    for head in itertools.permutations(blocks[0]):
        for tail in _iter_block_perms(blocks[1:]):
            yield head + tail


def _degree_sorted(masks: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Ascending degrees, and the bitset after relabeling vertices in that order."""
    order = sorted(range(len(masks)), key=lambda v: masks[v].bit_count())
    bits = 0
    for k, (i, j) in enumerate(pairs_in_order(len(masks))):
        bits |= (masks[order[j]] >> order[i] & 1) << k
    return tuple(masks[v].bit_count() for v in order), bits


def _least_relabelings(n: int, degrees: tuple[int, ...], bitsets: list[int]) -> list[int]:
    """Least MSB-first bit string of each degree-sorted bitset (all with these
    ascending ``degrees``) over the permutations inside each degree block."""
    length = pair_count(n)
    i, j = np.array(pairs_in_order(n)).T
    adj = adjacency_stack(n, bitsets).astype(np.int64)
    best = np.full(len(bitsets), 1 << length, dtype=np.int64)  # above every value
    perms = _iter_block_perms(_degree_blocks(degrees))
    slab = max(1, _PERM_SLAB // len(bitsets))
    for chunk in iter(lambda: list(itertools.islice(perms, slab)), []):
        p = np.array(chunk, dtype=np.int64).T
        packed = np.zeros((len(bitsets), len(chunk)), dtype=np.int64)
        for k in range(length):  # pair k = (i, j) after relabeling is (p[i], p[j]) before
            packed |= adj[:, p[i[k]], p[j[k]]] << (length - 1 - k)
        np.minimum(best, packed.min(axis=1), out=best)
    return best.tolist()


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of ``g``; equal forms mean isomorphic graphs."""
    n = g.n
    if n > MAX_CANONICAL_N:
        raise NTooLargeForCanonicalization(
            f"canonical form supports at most {MAX_CANONICAL_N} vertices, got {n}"
        )
    if n == 1:
        return CanonicalForm(1, _pack_bits(1, 0))
    degrees, bits = _degree_sorted(g.neighbor_masks())
    return CanonicalForm(n, _pack_bits(n, _least_relabelings(n, degrees, [bits])[0]))


@lru_cache(maxsize=None)
def _classes(n: int, connected: bool) -> tuple[Graph, ...]:
    """One canonically labeled representative per class on n vertices."""
    if n == 1:
        return (Graph(1, 0),)
    new = n - 1
    groups: dict[tuple[int, ...], set[int]] = {}
    for rep in _classes(new, connected):
        masks = rep.neighbor_masks()
        for nbrs in range(1 if connected else 0, 1 << new):
            ext = [m | (nbrs >> v & 1) << new for v, m in enumerate(masks)] + [nbrs]
            degrees, bits = _degree_sorted(ext)
            groups.setdefault(degrees, set()).add(bits)
    found = {best for degrees, members in groups.items()
             for best in _least_relabelings(n, degrees, list(members))}
    return tuple(Graph(n, msb_first(n, best)) for best in sorted(found))


def enumerate_graphs(n: int, connected: bool = True) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, canonically labeled (cached).

    Representatives come back sorted by their canonical bit string. The
    exhaustive construction is only practical for small n; above
    ``MAX_ENUMERATION_N`` this refuses to run.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise NTooLargeForEnumeration(
            f"enumeration supports 1..{MAX_ENUMERATION_N} vertices, got {n}"
        )
    return list(_classes(n, connected))


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism (cached)."""
    return enumerate_graphs(n, connected=True)
