"""Bit-exact reader/writer for the graph6 one-line ASCII format.

A line is a size byte ``chr(63 + n)`` (short form, n <= 62 only) followed by
``ceil(n(n-1)/2 / 6)`` payload bytes. Each payload byte carries six bits of
the upper triangle, column by column, most significant bit first, offset by
63 to stay printable; the last byte is zero-padded. An optional
``>>graph6<<`` header may prefix the first line of a file.

One routine, ``_packed``, turns payload bytes into packed rows (see
``graphs``), for any number of lines of one size at once; ``parse_graph6`` is
its one-line case. ``_decode_block`` checks a block of lines as numpy masks
(``parse_graph6``'s checks: size byte, payload length, byte range) and packs
each size's lines in one call; every valid corpus line, a header-prefixed
first one too, becomes packed rows that way alone. A line the masks flag
cannot parse: ``parse_graph6`` only words its error, the per-line one.
``read_chunks`` yields each block as packed groups and builds no Graph;
``stream_corpus`` yields ``(line number, Graph)`` in line order.
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
from .graphs import MAX_VERTICES, Graph, msb_first, pair_count, row_graph

HEADER = ">>graph6<<"

_BLOCK = 1024  # lines decoded at once


def _packed(n: int, payload: np.ndarray) -> np.ndarray:
    """Packed rows of a (lines, bytes) uint8 array of n-vertex payloads, less 63.

    The six bits of each byte, most significant first, are the pairs in
    bitset order; the padding after the last pair is dropped.
    """
    bits = np.unpackbits(payload[:, :, None], axis=2)[:, :, 2:].reshape(len(payload), -1)
    return np.packbits(bits[:, : pair_count(n)], axis=1, bitorder="little")


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
    return row_graph(size, _packed(size, codes.reshape(1, need))[0])


def write_graph6(g: Graph) -> str:
    """Encode a graph as a canonical short-form graph6 line (no header)."""
    nbytes = (pair_count(g.n) + 5) // 6
    bits = msb_first(g.n, g.adj) << (6 * nbytes - pair_count(g.n))
    return chr(63 + g.n) + "".join(
        chr(63 + (bits >> 6 * k & 63)) for k in range(nbytes - 1, -1, -1)
    )


def _decode_block(block: list[tuple[int, str]]) -> tuple[list[tuple], list[tuple]]:
    """A block of numbered lines as (n, line numbers, packed rows) groups, one per
    vertex count, and as (line number, error) pairs. The block is read as one
    UTF-32 array, a code unit per character, so any character fails only its own
    line's range check; the masks read line 1 without its header. They check
    parse_graph6's rules (size byte, payload length, byte range, header), so a
    line they flag cannot parse: parse_graph6 only words its error.
    """
    first = block[0][0]
    lines = [raw.strip() for _, raw in block]
    if first == 1 and lines[0].startswith(HEADER):
        lines[0] = lines[0][len(HEADER):]
    codes = np.frombuffer(("".join(lines) + "\0").encode("utf-32-le", "surrogatepass"), dtype="<u4")
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    starts = np.cumsum(lengths) - lengths
    outside = np.concatenate(([0], np.cumsum((codes < 63) | (codes > 126))))
    size = codes[starts].astype(np.intp) - 63  # the 0 is an empty last line's size byte
    ok = ((size >= 1) & (size <= MAX_VERTICES)
          & (lengths == 1 + (size * (size - 1) // 2 + 5) // 6)
          & (outside[starts + lengths] == outside[starts + 1]))
    groups = []
    for n in dict.fromkeys(size[ok].tolist()):  # not np.unique: it imports numpy.ma
        rows = np.flatnonzero(ok & (size == n))
        need = (pair_count(n) + 5) // 6
        payload = (codes[starts[rows, None] + np.arange(1, need + 1)] - 63).astype(np.uint8)
        groups.append((n, rows + first, _packed(n, payload)))
    errors = []
    for k in np.flatnonzero(~ok).tolist():
        lineno, line = first + k, block[k][1].strip()  # as read: line 1 with its header
        if not line or (lineno == 1 and line == HEADER):
            continue
        try:
            if line.startswith(">>") and lineno > 1:
                raise Graph6Error("header allowed on the first line only")
            parse_graph6(line)
        except Graph6Error as exc:
            errors.append((lineno, exc))
    return groups, errors


def _blocks(reader: TextIO) -> Iterator[tuple[list[tuple], list[tuple]]]:
    numbered = enumerate(reader, 1)
    while block := list(islice(numbered, _BLOCK)):
        yield _decode_block(block)


def _bad(lineno: int, exc: Graph6Error, on_bad) -> None:
    if on_bad is None:
        raise CorpusDecodeError(lineno, str(exc)) from exc
    on_bad(lineno, exc)


def read_chunks(reader: TextIO, on_bad=None) -> Iterator[list[tuple]]:
    """Yield each block of lines that holds a graph as (n, line numbers, packed rows) groups.

    Lines, errors and ``on_bad`` calls are ``stream_corpus``'s, but a block's
    errors come first, and no Graph is built.
    """
    for groups, errors in _blocks(reader):
        for lineno, exc in errors:
            _bad(lineno, exc, on_bad)
        if groups:
            yield groups


def stream_corpus(reader: TextIO, on_bad=None) -> Iterator[tuple[int, Graph]]:
    """Yield (line_number, Graph) for each non-empty line of a reader.

    Decode failures raise CorpusDecodeError naming the line, unless
    ``on_bad`` is given, in which case the line is dropped after calling
    ``on_bad(line_number, exc)``. The ``>>graph6<<`` header is accepted on
    the first line only. Lines are read and decoded a block at a time.
    """
    for groups, errors in _blocks(reader):
        found: dict[int, Graph | Graph6Error] = dict(errors)
        for n, linenos, packed in groups:
            found.update(zip(linenos.tolist(), (row_graph(n, row) for row in packed)))
        for lineno in sorted(found):
            if isinstance(item := found[lineno], Graph):
                yield lineno, item
            else:
                _bad(lineno, item, on_bad)
