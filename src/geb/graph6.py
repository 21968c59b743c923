"""Bit-exact reader/writer for the graph6 one-line ASCII format.

A line is a size byte ``chr(63 + n)`` (short form, n <= 62 only) followed by
``ceil(n(n-1)/2 / 6)`` payload bytes. Each payload byte carries six bits of
the upper triangle, column by column, most significant bit first, offset by
63 to stay printable; the last byte is zero-padded. An optional
``>>graph6<<`` header may prefix the first line of a file.
"""

from __future__ import annotations

from typing import Iterator, TextIO

from .errors import (
    BadSizeByte,
    ByteOutOfRange,
    CorpusDecodeError,
    Graph6Error,
    HeaderMismatch,
    TruncatedBits,
)
from .graphs import MAX_VERTICES, Graph, msb_first, pair_count

HEADER = ">>graph6<<"


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
    bits = 0
    for ch in payload:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ByteOutOfRange(f"payload byte {ch!r} outside graph6 range")
        bits = bits << 6 | v
    padding = 6 * need - pair_count(size)  # padding bits ignored
    return Graph(size, msb_first(size, bits >> padding))


def write_graph6(g: Graph) -> str:
    """Encode a graph as a canonical short-form graph6 line (no header)."""
    nbytes = (pair_count(g.n) + 5) // 6
    bits = msb_first(g.n, g.adj) << (6 * nbytes - pair_count(g.n))
    return chr(63 + g.n) + "".join(
        chr(63 + (bits >> 6 * k & 63)) for k in range(nbytes - 1, -1, -1)
    )


def stream_corpus(reader: TextIO, on_bad=None) -> Iterator[tuple[int, Graph]]:
    """Yield (line_number, Graph) for each non-empty line of a reader.

    Decode failures raise CorpusDecodeError naming the line, unless
    ``on_bad`` is given, in which case the line is dropped after calling
    ``on_bad(line_number, exc)``. The ``>>graph6<<`` header is accepted on
    the first line only.
    """
    for lineno, raw in enumerate(reader, 1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line == HEADER:
            continue
        try:
            if line.startswith(">>") and lineno > 1:
                raise Graph6Error("header allowed on the first line only")
            yield lineno, parse_graph6(line)
        except Graph6Error as exc:
            if on_bad is None:
                raise CorpusDecodeError(lineno, str(exc)) from exc
            on_bad(lineno, exc)
