"""graph6 encoding, decoding, and corpus streaming."""

import io

import pytest
from hypothesis import given, settings

from geb.errors import (
    BadSizeByte,
    ByteOutOfRange,
    CorpusDecodeError,
    HeaderMismatch,
    NTooLarge,
    TruncatedBits,
)
from geb.graphs import Graph, complete, from_edge_list
from geb.graph6 import parse_graph6, stream_corpus, write_graph6

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
