"""Byte-for-byte CLI transcripts: the exit code, stdout and stderr of fixed commands.

Each case in ``CASES`` has one JSON file in ``data/cli_golden`` holding what
``main(argv)`` returned and printed. ``{data}`` in an argument stands for the
``tests/data`` directory. A transcript changes only with an intended output
change; ``python tests/test_cli_golden.py`` rewrites every transcript from the
current code and rebuilds the seeded G(n, 1/2) corpus ``data/gnp_small.g6``.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli_golden"
ENV = ("GEB_TOL", "GEB_ZERO_TOL")

GNP_SEED = 2014
GNP_COUNTS = {10: 16, 20: 8, 40: 4}

CASES = {
    "verify_enum6": ["verify", "--enumerate", "6"],
    # a tolerance of -0.5 reaches every proven bound and every invariant row
    "verify_enum6_tol_neg": ["verify", "--enumerate", "6", "--tol", "-0.5"],
    "conjectures_enum6_tol_neg": ["conjectures", "--enumerate", "6", "--tol", "-1"],
    "equality_main_enum6": ["equality", "--bound", "main", "--enumerate", "6"],
    # a zero threshold of 0.5 counts small nonzero eigenvalues as zero, which
    # trips spectrum:zero_tol on the 45 graphs that have one
    "verify_enum6_zero_tol": ["verify", "--enumerate", "6", "--zero-tol", "0.5"],
    "verify_gnp": ["verify", "--corpus", "{data}/gnp_small.g6"],
    "conjectures_gnp_tol_neg": ["conjectures", "--corpus", "{data}/gnp_small.g6",
                                "--tol", "-0.3"],
    # two 9-vertex graphs and the 10-vertex corona of K_{1,4} break conj2
    "conjectures_conj2_counterexamples": ["conjectures", "--corpus",
                                          "{data}/conj2_counterexamples.g6"],
    # the 11117 connected 8-vertex graphs: 51 sit within 1e-6 of a tight bound,
    # where a last-bit or tie-break drift would show
    "verify_connected8": ["verify", "--corpus", "{data}/connected8.g6"],
    "conjectures_connected8": ["conjectures", "--corpus", "{data}/connected8.g6"],
    "equality_main_connected8": ["equality", "--bound", "main", "--corpus",
                                 "{data}/connected8.g6"],
    "report_triangle_json": ["report", "Bw"],
    "report_n10_csv": ["report", "I?qa`xjHW", "--format", "csv"],
    "report_n10_table": ["report", "I?qa`xjHW", "--format", "table"],
    "report_single_vertex": ["report", "@"],
}


def transcript(argv: list[str]) -> dict:
    from geb.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{data}", str(DATA)) for a in argv])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_transcript_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden_transcript(name, monkeypatch):
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert transcript(CASES[name]) == expected


def _write_gnp_corpus() -> None:
    from geb.graph6 import write_graph6
    from geb.graphs import Graph, pair_count

    rng = random.Random(GNP_SEED)
    lines = [write_graph6(Graph(n, rng.getrandbits(pair_count(n))))
             for n, count in GNP_COUNTS.items() for _ in range(count)]
    (DATA / "gnp_small.g6").write_text("\n".join(lines) + "\n", encoding="ascii")


def _regenerate() -> None:
    for var in ENV:
        os.environ.pop(var, None)
    _write_gnp_corpus()
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(transcript(argv), indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    _regenerate()
