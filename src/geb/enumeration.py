"""Canonical labelings and exhaustive generation of small graphs.

The canonical form of a graph is computed by relabeling vertices in
ascending degree order and then taking, over every permutation that only
shuffles vertices of equal degree, the lexicographically least upper-triangle
bit string (most-significant bit first, column by column). Two graphs are
isomorphic exactly when these bit strings agree: any isomorphism between two
degree-sorted labelings must map each degree block onto itself, so the block
permutations reach every degree-sorted labeling of the class.

Generation works as a sieve over all 2^C(n,2) adjacency bit masks, done in
numpy chunks: keep masks whose labeling is already degree-sorted, optionally
keep only connected ones, then within each degree-sequence group kill every
mask that some block permutation maps to a smaller bit string. What survives
is exactly one canonical representative per isomorphism class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .errors import NTooLargeForCanonicalization, NTooLargeForEnumeration
from .graphs import Graph, degree_sequence, msb_first, pair_count, pairs_in_order

MAX_CANONICAL_N = 10
MAX_ENUMERATION_N = 7

_PERM_SLAB = 100_000
_SIEVE_PERM_SLAB = 4096
_MASK_CHUNK = 1 << 20


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


def _degree_blocks(degrees: list[int]) -> list[range]:
    """Contiguous runs of equal degree in an ascending degree list."""
    blocks = []
    start = 0
    for i in range(1, len(degrees) + 1):
        if i == len(degrees) or degrees[i] != degrees[start]:
            blocks.append(range(start, i))
            start = i
    return blocks


def _iter_block_perms(blocks: list[range]) -> Iterator[tuple[int, ...]]:
    """All vertex permutations fixing each block setwise (new -> old)."""
    per_block = [itertools.permutations(b) for b in blocks]
    for combo in itertools.product(*per_block):
        yield tuple(itertools.chain.from_iterable(combo))


def _block_perm_count(blocks: list[range]) -> int:
    return math.prod(math.factorial(len(b)) for b in blocks)


def _pair_table(perms: np.ndarray, n: int) -> np.ndarray:
    """Map vertex permutations (K, n) to source pair indices (K, L).

    Row a, column k says which pair of the original labeling lands on pair
    k = (i, j) after relabeling by perms[a]: the pair {perms[a,i], perms[a,j]}.
    """
    i, j = np.array(pairs_in_order(n)).T
    lo = np.minimum(perms[:, i], perms[:, j])
    hi = np.maximum(perms[:, i], perms[:, j])
    return hi * (hi - 1) // 2 + lo


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of ``g``; equal forms mean isomorphic graphs."""
    n = g.n
    if n > MAX_CANONICAL_N:
        raise NTooLargeForCanonicalization(
            f"canonical form supports at most {MAX_CANONICAL_N} vertices, got {n}"
        )
    length = pair_count(n)
    if length == 0:
        return CanonicalForm(1, _pack_bits(1, 0))

    degrees = degree_sequence(g)
    order = sorted(range(n), key=degrees.__getitem__)
    masks = g.neighbor_masks()
    base = np.array([masks[order[i]] >> order[j] & 1 for i, j in pairs_in_order(n)],
                    dtype=np.int64)

    blocks = _degree_blocks([degrees[v] for v in order])
    weights = (np.int64(1) << np.arange(length - 1, -1, -1, dtype=np.int64))
    best = 1 << length  # above every packed value
    perm_iter = _iter_block_perms(blocks)
    for slab in iter(lambda: list(itertools.islice(perm_iter, _PERM_SLAB)), []):
        table = _pair_table(np.array(slab, dtype=np.int64), n)
        best = min(best, int((base[table] * weights[None, :]).sum(axis=1).min()))
    return CanonicalForm(n, _pack_bits(n, best))


def _chunk_degrees(masks: np.ndarray, n: int) -> np.ndarray:
    degs = np.zeros((masks.size, n), dtype=np.int16)
    for k, (i, j) in enumerate(pairs_in_order(n)):
        bit = ((masks >> k) & 1).astype(np.int16)
        degs[:, i] += bit
        degs[:, j] += bit
    return degs


def _connected_filter(masks: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of which adjacency masks describe connected graphs."""
    nbrs = [np.zeros(masks.shape, dtype=np.int64) for _ in range(n)]
    for k, (i, j) in enumerate(pairs_in_order(n)):
        bit = (masks >> k) & 1
        nbrs[i] |= bit << j
        nbrs[j] |= bit << i
    reach = np.ones(masks.shape, dtype=np.int64)
    for _ in range(n):
        for v in range(n):
            reach |= nbrs[v] * ((reach >> v) & 1)
    return reach == (1 << n) - 1


def _canonical_survivors(vals: np.ndarray, degree_seq: tuple[int, ...], n: int) -> np.ndarray:
    """Keep exactly the class-minimal masks of one degree-sequence group."""
    length = pair_count(n)
    blocks = _degree_blocks(list(degree_seq))
    total = _block_perm_count(blocks)
    weights = (np.int64(1) << np.arange(length - 1, -1, -1, dtype=np.int64))

    packed_id = np.zeros(vals.shape, dtype=np.int64)
    for k in range(length):
        packed_id |= ((vals >> k) & 1) << (length - 1 - k)

    alive_vals = vals
    alive_packed = packed_id
    perm_iter = _iter_block_perms(blocks)
    slab_size = min(_SIEVE_PERM_SLAB, total)
    while alive_vals.size:
        slab = list(itertools.islice(perm_iter, slab_size))
        if not slab:
            break
        table = _pair_table(np.array(slab, dtype=np.int64), n)
        member_chunk = max(1, 4_000_000 // len(slab))
        keep_parts = []
        for lo in range(0, alive_vals.size, member_chunk):
            part = alive_vals[lo:lo + member_chunk]
            acc = np.zeros((len(slab), part.size), dtype=np.int64)
            for k in range(length):
                acc |= ((part[None, :] >> table[:, k, None]) & 1) << (length - 1 - k)
            keep_parts.append((acc >= alive_packed[lo:lo + member_chunk][None, :]).all(axis=0))
        keep = np.concatenate(keep_parts)
        alive_vals = alive_vals[keep]
        alive_packed = alive_packed[keep]
    return alive_vals


def _sieve(n: int, connected: bool) -> list[Graph]:
    """One canonical representative per isomorphism class on n vertices."""
    if n == 1:
        return [Graph(1, 0)]
    length = pair_count(n)
    groups: dict[tuple[int, ...], list[np.ndarray]] = {}
    for start in range(0, 1 << length, _MASK_CHUNK):
        masks = np.arange(start, min(start + _MASK_CHUNK, 1 << length), dtype=np.int64)
        degs = _chunk_degrees(masks, n)
        ascending = (degs[:, 1:] >= degs[:, :-1]).all(axis=1)
        masks = masks[ascending]
        degs = degs[ascending]
        if connected and masks.size:
            good = _connected_filter(masks, n)
            masks = masks[good]
            degs = degs[good]
        if not masks.size:
            continue
        keys, inverse = np.unique(degs, axis=0, return_inverse=True)
        for row, key in enumerate(keys):
            groups.setdefault(tuple(int(d) for d in key), []).append(masks[inverse == row])

    found: list[int] = []
    for key in sorted(groups):
        vals = np.concatenate(groups[key])
        survivors = _canonical_survivors(vals, key, n)
        found.extend(int(v) for v in survivors)

    found.sort(key=partial(msb_first, n))
    return [Graph(n, mask) for mask in found]


def enumerate_graphs(n: int, connected: bool = True) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, canonically labeled.

    Representatives come back sorted by their canonical bit string. The
    exhaustive sweep is only practical for small n; above
    ``MAX_ENUMERATION_N`` this refuses to run.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise NTooLargeForEnumeration(
            f"enumeration supports 1..{MAX_ENUMERATION_N} vertices, got {n}"
        )
    return _sieve(n, connected)


@lru_cache(maxsize=None)
def _connected_cache(n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_graphs(n, connected=True))


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism (cached)."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise NTooLargeForEnumeration(
            f"enumeration supports 1..{MAX_ENUMERATION_N} vertices, got {n}"
        )
    return list(_connected_cache(n))
