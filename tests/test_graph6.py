"""graph6 encoding, decoding, and corpus streaming."""

import dataclasses
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geb.graph6 as graph6
from geb.errors import (
    BadSizeByte,
    ByteOutOfRange,
    CorpusDecodeError,
    Graph6Error,
    HeaderMismatch,
    NTooLarge,
    TruncatedBits,
)
from geb.graphs import Graph, complete, from_edge_list, pair_count
from geb.graph6 import HEADER, parse_graph6, read_chunks, stream_corpus, write_graph6

from conftest import random_graphs

# frozen after cross-checking against networkx's graph6 codec
GOLDEN = {
    "A_": (2, [(0, 1)]),
    "A?": (2, []),
    "Bw": (3, [(0, 1), (0, 2), (1, 2)]),
    "BW": (3, [(0, 2), (1, 2)]),
    "Cl": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}


@pytest.mark.parametrize("text,shape", sorted(GOLDEN.items()))
def test_golden_decode(text, shape):
    n, edges = shape
    assert parse_graph6(text) == from_edge_list(n, edges)


@pytest.mark.parametrize("text,shape", sorted(GOLDEN.items()))
def test_golden_encode(text, shape):
    n, edges = shape
    assert write_graph6(from_edge_list(n, edges)) == text


def test_golden_values_match_networkx():
    nx = pytest.importorskip("networkx")
    for text, (n, edges) in GOLDEN.items():
        ref = nx.from_graph6_bytes(text.encode("ascii"))
        assert set(ref.nodes) == set(range(n))
        assert {tuple(sorted(e)) for e in ref.edges} == {tuple(sorted(e)) for e in edges}


def test_header_accepted_inline():
    assert parse_graph6(">>graph6<<A_") == from_edge_list(2, [(0, 1)])


def test_header_mismatch():
    with pytest.raises(HeaderMismatch):
        parse_graph6(">>sparse6<<:A_")


def test_whitespace_tolerated():
    assert parse_graph6("  Bw \r\n") == complete(3)


@pytest.mark.parametrize(
    "line,exc",
    [
        ("", BadSizeByte),
        ("~???", BadSizeByte),  # long-form size not supported
        (">", BadSizeByte),  # size byte below the printable range
        ("B", TruncatedBits),  # payload missing
        ("BwW", TruncatedBits),  # payload too long
        ("B!", ByteOutOfRange),  # payload byte below offset 63
    ],
)
def test_parse_errors(line, exc):
    with pytest.raises(exc):
        parse_graph6(line)


def test_write_rejects_large_graphs():
    # a graph too large for the short size byte cannot be built at all
    with pytest.raises(NTooLarge):
        Graph(63, 0)
    assert parse_graph6(write_graph6(complete(62))) == complete(62)


@settings(max_examples=300)
@given(random_graphs(max_n=30))
def test_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=100, deadline=None)
@given(random_graphs(max_n=62))
def test_encoding_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    ref = nx.from_graph6_bytes(write_graph6(g).encode("ascii"))
    assert {tuple(sorted(e)) for e in ref.edges} == set(g.edges())
    assert ref.number_of_nodes() == g.n


def test_fixture_lines_re_encode_to_themselves(data_dir):
    lines = (data_dir / "connected8.g6").read_text(encoding="ascii").split()
    assert len(lines) == 11117
    assert [write_graph6(parse_graph6(line)) for line in lines] == lines


@pytest.mark.parametrize("text", ["Bx", "B~"])
def test_set_padding_bits_are_ignored(text):
    # n=3 fills 3 of the 6 payload bits; the other 3 are padding
    assert parse_graph6(text) == complete(3)


def test_stream_corpus_in_order():
    fh = io.StringIO("A_\nBw\nA?\n")
    out = list(stream_corpus(fh))
    assert [lineno for lineno, _ in out] == [1, 2, 3]
    assert [g.n for _, g in out] == [2, 3, 2]


def test_stream_corpus_empty_and_blank_lines():
    assert list(stream_corpus(io.StringIO(""))) == []
    out = list(stream_corpus(io.StringIO("\nA_\n\n")))
    assert [(lineno, g.edge_count) for lineno, g in out] == [(2, 1)]


def test_stream_corpus_header_line():
    out = list(stream_corpus(io.StringIO(">>graph6<<\nA_\n")))
    assert [lineno for lineno, _ in out] == [2]


def test_stream_corpus_reports_bad_line():
    fh = io.StringIO("A_\nnot-a-graph\nBw\n")
    with pytest.raises(CorpusDecodeError) as err:
        list(stream_corpus(fh))
    assert err.value.line_number == 2
    assert "2" in str(err.value)


def test_stream_corpus_skip_bad_counts():
    fh = io.StringIO("A_\n~bad\nBw\n>>late-header<<\nA?\n")
    seen_bad = []
    out = list(stream_corpus(fh, on_bad=lambda ln, exc: seen_bad.append(ln)))
    assert [lineno for lineno, _ in out] == [1, 3, 5]
    assert seen_bad == [2, 4]


def test_payload_length_is_exact():
    # n=5 needs ceil(10/6) = 2 payload bytes: one or three must fail
    with pytest.raises(TruncatedBits):
        parse_graph6("D?")
    with pytest.raises(TruncatedBits):
        parse_graph6("D???")
    assert parse_graph6("D??").n == 5


@settings(max_examples=200)
@given(st.integers(1, 62).flatmap(
    lambda n: st.tuples(st.just(n), st.binary(min_size=(pair_count(n) + 5) // 6,
                                              max_size=(pair_count(n) + 5) // 6))))
def test_decode_matches_big_int_arithmetic(shape):
    # any payload bytes, padding bits set or not: the six-bit groups read as
    # one big-endian integer, padding shifted out, pair 0 first
    n, raw = shape
    payload = bytes(63 + (b & 63) for b in raw)
    value = 0
    for b in payload:
        value = value << 6 | (b - 63)
    value >>= 6 * len(payload) - pair_count(n)
    adj = int(f"{value:0{pair_count(n)}b}"[::-1], 2) if pair_count(n) else 0
    assert parse_graph6(chr(63 + n) + payload.decode("ascii")) == Graph(n, adj)


# --- block decoding against the per-line oracle -------------------------------


def per_line(reader, on_bad=None):
    """stream_corpus one line at a time through parse_graph6: the oracle."""
    for lineno, raw in enumerate(reader, 1):
        line = raw.strip()
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


def outcome(stream, text, skip):
    """Everything a stream shows: its pairs, its error and its on_bad calls, in order."""
    events = []
    on_bad = (lambda lineno, exc: events.append(("bad", lineno, type(exc), str(exc)))) if skip else None
    try:
        for lineno, g in stream(io.StringIO(text, newline=""), on_bad):
            events.append(("graph", lineno, g))
    except CorpusDecodeError as exc:
        events.append(("raised", exc.line_number, type(exc.__cause__), str(exc)))
    return events


@st.composite
def corpus_lines(draw):
    """One corpus line, valid or broken in one of the ways a corpus can be."""
    n = draw(st.integers(1, 62))
    line = write_graph6(Graph(n, draw(st.integers(0, (1 << pair_count(n)) - 1))))
    kind = draw(st.sampled_from(["valid"] * 6 + [
        "padding", "blank", "header", "long", "short", "extra", "low", "high", "surrogate",
        "surrogate_size", "spaces"]))
    if kind == "padding" and 6 * (len(line) - 1) > pair_count(n):
        padding = (1 << 6 * (len(line) - 1) - pair_count(n)) - 1
        line = line[:-1] + chr(63 + (ord(line[-1]) - 63 | padding))
    elif kind == "blank":
        line = draw(st.sampled_from(["", " ", "\t"]))
    elif kind == "header":
        line = draw(st.sampled_from([HEADER, HEADER + line, ">>sparse6<<" + line]))
    elif kind == "long":
        line = "~" + line[1:]
    elif kind == "short":
        line = line[:-1]
    elif kind == "extra":
        line += "?"
    elif kind in ("low", "high", "surrogate") and len(line) > 1:
        k = draw(st.integers(1, len(line) - 1))
        bad = {"low": "!", "high": "\x7f", "surrogate": draw(st.sampled_from("\udc80\udcc3\udcff"))}
        line = line[:k] + bad[kind] + line[k + 1:]
    elif kind == "surrogate_size":
        line = "\udcc3" + line[1:]
    elif kind == "spaces":
        line = " " + line + "  "
    return line + draw(st.sampled_from(["\n", "\r\n"]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["", HEADER + "\n", HEADER + "\r\n"]), st.lists(corpus_lines(), max_size=40),
       st.integers(1, 8), st.booleans())
def test_block_decode_equals_the_per_line_oracle(first, lines, block, skip):
    text = first + "".join(lines)
    with mock.patch.object(graph6, "_BLOCK", block):
        got = outcome(stream_corpus, text, skip)
    assert got == outcome(per_line, text, skip)


def chunk_outcome(text, skip):
    """read_chunks' events: its rows as (line, n, bitset), its error and its on_bad calls."""
    events = []
    on_bad = (lambda lineno, exc: events.append(("bad", lineno, type(exc), str(exc)))) if skip else None
    try:
        for groups in read_chunks(io.StringIO(text, newline=""), on_bad):
            assert len({n for n, _, _ in groups}) == len(groups)  # one group per vertex count
            for n, linenos, packed in groups:
                assert packed.dtype == np.uint8 and packed.shape == (len(linenos), (pair_count(n) + 7) // 8)
                events.extend(("graph", lineno, n, int.from_bytes(row.tobytes(), "little"))
                              for lineno, row in zip(linenos.tolist(), packed))
    except CorpusDecodeError as exc:
        events.append(("raised", exc.line_number, type(exc.__cause__), str(exc)))
    return events


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["", HEADER + "\n", HEADER + "\r\n"]), st.lists(corpus_lines(), max_size=40),
       st.integers(1, 8), st.booleans())
def test_packed_chunks_equal_the_stream(first, lines, block, skip):
    # the same rows, errors and on_bad calls; but a block's errors come before its rows,
    # so an error drops the rows of its own block
    text = first + "".join(lines)
    with mock.patch.object(graph6, "_BLOCK", block):
        got = chunk_outcome(text, skip)
        want = outcome(stream_corpus, text, skip)
    assert [e for e in got if e[0] != "graph"] == [e for e in want if e[0] != "graph"]
    raised = [e[1] for e in want if e[0] == "raised"]
    before = (raised[0] - 1) // block * block + 1 if raised else math.inf  # the failing block
    assert (sorted(e[1:] for e in got if e[0] == "graph")
            == [(e[1], e[2].n, e[2].adj) for e in want if e[0] == "graph" and e[1] < before])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["", HEADER + "\n", HEADER + "\r\n"]), st.lists(corpus_lines(), max_size=40),
       st.integers(1, 8))
def test_block_decoded_graphs_equal_checked_ones(first, lines, block):
    # stream_corpus builds its Graphs from packed rows: they must be
    # indistinguishable from Graph(n, adj)
    with mock.patch.object(graph6, "_BLOCK", block):
        decoded = [g for _, g in stream_corpus(io.StringIO(first + "".join(lines), newline=""),
                                               lambda lineno, exc: None)]
    for g in decoded:
        checked = Graph(g.n, g.adj)
        assert type(g) is Graph and vars(g) == vars(checked) and repr(g) == repr(checked)
        assert g == checked and hash(g) == hash(checked)
        assert g.edges() == checked.edges() and g.neighbor_masks() == checked.neighbor_masks()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.adj = 0


def test_bad_lines_on_both_sides_of_a_block_boundary(data_dir):
    good = (data_dir / "connected8.g6").read_text(encoding="ascii").split()
    lines = good[: 3 * graph6._BLOCK]
    for k, bad in ((0, HEADER), (graph6._BLOCK - 2, "*junk*"), (graph6._BLOCK - 1, "\udcc3x"),
                   (graph6._BLOCK, ">>graph6<<Bw"), (graph6._BLOCK + 1, "G??"),
                   (2 * graph6._BLOCK - 1, "~" + "?" * 326), (2 * graph6._BLOCK, "")):
        lines[k] = bad
    text = "\r\n".join(lines) + "\n"
    for skip in (False, True):
        assert outcome(stream_corpus, text, skip) == outcome(per_line, text, skip)
    skipped = [event[1] for event in outcome(stream_corpus, text, True) if event[0] == "bad"]
    assert skipped == [graph6._BLOCK - 1, graph6._BLOCK, graph6._BLOCK + 1, graph6._BLOCK + 2,
                       2 * graph6._BLOCK]


def test_characters_beyond_one_byte_take_the_per_line_path():
    # a reader not opened as ASCII may hold any character: its block is decoded line by line
    text = "A_\nB\u00e9\nBw\n"
    got = outcome(stream_corpus, text, True)
    assert got == outcome(per_line, text, True)
    assert [event[:2] for event in got] == [("graph", 1), ("bad", 2), ("graph", 3)]


@pytest.mark.parametrize("name", ["connected8.g6", "gnp_small.g6"])
def test_fixture_corpora_never_take_the_per_line_path(data_dir, monkeypatch, name):
    with open(data_dir / name, encoding="ascii", errors="surrogateescape") as fh:
        want = [(lineno, parse_graph6(line)) for lineno, line in enumerate(fh, 1)]
    calls = []

    def counted(line):
        calls.append(line)
        return parse_graph6(line)

    monkeypatch.setattr(graph6, "parse_graph6", counted)
    with open(data_dir / name, encoding="ascii", errors="surrogateescape") as fh:
        assert list(stream_corpus(fh)) == want
    assert len(calls) == 0
