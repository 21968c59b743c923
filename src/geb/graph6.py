"""Bit-exact reader/writer for the graph6 one-line ASCII format.

A line is a size byte ``chr(63 + n)`` (short form, n <= 62 only) followed by
``ceil(n(n-1)/2 / 6)`` payload bytes. Each payload byte carries six bits of
the upper triangle, column by column, most significant bit first, offset by
63 to stay printable; the last byte is zero-padded. An optional
``>>graph6<<`` header may prefix the first line of a file.

One routine, ``_bitsets``, turns payload bytes into edge bitsets, for any
number of lines of one size at once. ``parse_graph6`` is its one-line case.
``stream_corpus`` reads a block of lines ahead, checks size byte, payload
length and byte range for the whole block as numpy masks (Graph's checks,
which its Graphs skip), and unpacks each size's lines in one call. A line
the masks flag (a header, a bad or non-ASCII line) goes through
``parse_graph6``, so every error and skip is the per-line one, in line order.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, TextIO

import numpy as np

from .errors import (
    BadSizeByte,
    ByteOutOfRange,
    CorpusDecodeError,
    Graph6Error,
    HeaderMismatch,
    TruncatedBits,
)
from .graphs import MAX_VERTICES, Graph, msb_first, pair_count, trusted_graphs

HEADER = ">>graph6<<"

_BLOCK = 1024  # lines decoded at once by stream_corpus


def _bitsets(n: int, payload: np.ndarray) -> list[int]:
    """Edge bitsets of a (lines, bytes) uint8 array of n-vertex payloads, less 63.

    The six bits of each byte, most significant first, are the pairs in
    bitset order; the padding after the last pair is dropped. Bitsets of at
    most 64 bits come out through one uint64 view, longer ones per line.
    """
    length = pair_count(n)
    bits = np.unpackbits(payload[:, :, None], axis=2)[:, :, 2:].reshape(len(payload), -1)
    packed = np.packbits(bits[:, :length], axis=1, bitorder="little")
    if length <= 64:
        wide = np.zeros((len(payload), 8), dtype=np.uint8)
        wide[:, : packed.shape[1]] = packed
        return wide.view("<u8").ravel().tolist()
    return [int.from_bytes(row, "little") for row in packed]


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (surrounding whitespace and header allowed)."""
    s = line.strip()
    if s.startswith(">>"):
        if not s.startswith(HEADER):
            raise HeaderMismatch(f"unrecognized header on {s[:12]!r}")
        s = s[len(HEADER):]
    if not s:
        raise BadSizeByte("empty graph6 line")
    size = ord(s[0]) - 63
    if size == 63:
        raise BadSizeByte("long size encoding (n >= 63) is not supported")
    if not 1 <= size <= MAX_VERTICES:
        raise BadSizeByte(f"size byte {s[0]!r} does not encode n in 1..{MAX_VERTICES}")
    payload = s[1:]
    need = (pair_count(size) + 5) // 6
    if len(payload) != need:
        raise TruncatedBits(
            f"n={size} needs {need} payload bytes, got {len(payload)}"
        )
    for ch in payload:
        if not 63 <= ord(ch) <= 126:
            raise ByteOutOfRange(f"payload byte {ch!r} outside graph6 range")
    codes = np.frombuffer(payload.encode("ascii"), dtype=np.uint8) - np.uint8(63)
    return Graph(size, _bitsets(size, codes.reshape(1, need))[0])


def write_graph6(g: Graph) -> str:
    """Encode a graph as a canonical short-form graph6 line (no header)."""
    nbytes = (pair_count(g.n) + 5) // 6
    bits = msb_first(g.n, g.adj) << (6 * nbytes - pair_count(g.n))
    return chr(63 + g.n) + "".join(
        chr(63 + (bits >> 6 * k & 63)) for k in range(nbytes - 1, -1, -1)
    )


def _decode_block(lines: list[str]) -> list[Graph | None]:
    """Each stripped line's Graph where it is a valid short-form line, else None.

    The block is encoded once with surrogateescape, so a line read that way
    keeps its length and a non-ASCII byte fails only its own line's range
    check. A block holding characters that do not encode comes back all None.
    """
    out: list[Graph | None] = [None] * len(lines)
    try:
        raw = "".join(lines).encode("ascii", "surrogateescape")
    except UnicodeEncodeError:
        return out
    buf = np.frombuffer(raw + b"\0", dtype=np.uint8)  # the 0 is an empty last line's size byte
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    starts = np.cumsum(lengths) - lengths
    outside = np.concatenate(([0], np.cumsum((buf < 63) | (buf > 126))))
    size = buf[starts].astype(np.intp) - 63
    ok = ((size >= 1) & (size <= MAX_VERTICES)
          & (lengths == 1 + (size * (size - 1) // 2 + 5) // 6)
          & (outside[starts + lengths] == outside[starts + 1]))
    for n in dict.fromkeys(size[ok].tolist()):  # not np.unique: it imports numpy.ma
        rows = np.flatnonzero(ok & (size == n))
        need = (pair_count(n) + 5) // 6
        payload = buf[starts[rows, None] + np.arange(1, need + 1)] - np.uint8(63)
        for k, g in zip(rows.tolist(), trusted_graphs(n, _bitsets(n, payload))):
            out[k] = g  # the masks made Graph's checks: 1 <= n <= 62, C(n, 2) bits
    return out


def stream_corpus(reader: TextIO, on_bad=None) -> Iterator[tuple[int, Graph]]:
    """Yield (line_number, Graph) for each non-empty line of a reader.

    Decode failures raise CorpusDecodeError naming the line, unless
    ``on_bad`` is given, in which case the line is dropped after calling
    ``on_bad(line_number, exc)``. The ``>>graph6<<`` header is accepted on
    the first line only. Lines are read and decoded a block at a time.
    """
    numbered = enumerate(reader, 1)
    while block := list(islice(numbered, _BLOCK)):
        lines = [raw.strip() for _, raw in block]
        for (lineno, _), line, g in zip(block, lines, _decode_block(lines)):
            if g is not None:
                yield lineno, g
                continue
            if not line or (lineno == 1 and line == HEADER):
                continue
            try:
                if line.startswith(">>") and lineno > 1:
                    raise Graph6Error("header allowed on the first line only")
                yield lineno, parse_graph6(line)
            except Graph6Error as exc:
                if on_bad is None:
                    raise CorpusDecodeError(lineno, str(exc)) from exc
                on_bad(lineno, exc)
