"""End-to-end command-line behavior, driven through main(argv)."""

import csv
import io
import json
import subprocess
import sys

import pytest

import geb.bounds as bounds
import geb.cli as cli
from geb.cli import EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS, main
from geb.graphs import Graph, petersen
from geb.harness import CorpusSummary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- report -------------------------------------------------------------------


def test_report_json_triangle(capsys):
    code, out, err = run(capsys, "report", "Bw")
    assert code == EXIT_CLEAN
    data = json.loads(out)
    assert data["graph6"] == "Bw"
    assert data["n"] == 3 and data["m"] == 3
    assert data["energy"] == pytest.approx(4.0)
    assert data["main"] == pytest.approx(4.0)
    assert data["cor_nice"] == pytest.approx(3.0)
    assert data["slack_main"] == pytest.approx(0.0, abs=1e-9)
    assert data["is_regular"] is True


def test_report_single_edge_all_lowers_tight(capsys):
    code, out, _ = run(capsys, "report", "A_")
    data = json.loads(out)
    assert code == EXIT_CLEAN
    for name in ("mcclelland_lower", "caporossi", "main", "cor_nice",
                 "amgm", "rank_bound", "conj1"):
        assert data[name] == pytest.approx(2.0), name


def test_report_from_edge_list(capsys, tmp_path):
    lines = ["10  # vertex count"]
    lines += [f"{i} {j}" for i, j in petersen().edges()]
    f = tmp_path / "petersen.txt"
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "report", "--edges", str(f))
    assert code == EXIT_CLEAN
    data = json.loads(out)
    assert data["energy"] == pytest.approx(16.0)
    assert data["main"] == pytest.approx(15.0)


def test_report_table_format(capsys):
    code, out, _ = run(capsys, "report", "A?", "--format", "table")
    assert code == EXIT_CLEAN
    rows = dict(line.split(None, 1) for line in out.splitlines())
    assert rows["main"].strip() == "-"          # edgeless: bound undefined
    assert rows["is_connected"].strip() == "false"
    assert rows["n"].strip() == "2"


def test_report_csv_format(capsys):
    code, out, _ = run(capsys, "report", "Bw", "--format", "csv")
    assert code == EXIT_CLEAN
    header, row = list(csv.reader(io.StringIO(out)))
    assert header[:3] == ["graph6", "n", "m"]
    assert len(row) == len(header)
    assert row[0] == "Bw"


def test_report_csv_blanks_missing_fields(capsys):
    _, out, _ = run(capsys, "report", "A?", "--format", "csv")
    header, row = list(csv.reader(io.StringIO(out)))
    assert row[header.index("main")] == ""


def test_report_requires_exactly_one_input(capsys, tmp_path):
    f = tmp_path / "e.txt"
    f.write_text("2\n0 1\n")
    code, _, err = run(capsys, "report")
    assert code == EXIT_USAGE and "error:" in err
    code, _, err = run(capsys, "report", "Bw", "--edges", str(f))
    assert code == EXIT_USAGE and "error:" in err


def test_report_bad_graph6(capsys):
    code, _, err = run(capsys, "report", "~~~~")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_report_bad_edge_lists(capsys, tmp_path):
    odd = tmp_path / "odd.txt"
    odd.write_text("3\n0 1 2\n")
    code, _, err = run(capsys, "report", "--edges", str(odd))
    assert code == EXIT_USAGE and "odd number" in err

    alpha = tmp_path / "alpha.txt"
    alpha.write_text("3\n0 x\n")
    code, _, err = run(capsys, "report", "--edges", str(alpha))
    assert code == EXIT_USAGE and "not an integer" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, _, err = run(capsys, "report", "--edges", str(empty))
    assert code == EXIT_USAGE and "empty" in err

    code, _, err = run(capsys, "report", "--edges", str(tmp_path / "missing.txt"))
    assert code == EXIT_USAGE


def test_report_rejects_negative_zero_tol(capsys):
    code, _, err = run(capsys, "report", "Bw", "--zero-tol", "-5")
    assert code == EXIT_USAGE
    assert "error:" in err


# --- verify ---------------------------------------------------------------------


def test_verify_enumerated_five(capsys):
    code, out, err = run(capsys, "verify", "--enumerate", "5")
    assert code == EXIT_CLEAN
    assert "graphs seen: 21" in out
    assert "violations: 0" in out
    assert "min slack main:" in out
    assert "VIOLATION" not in err


def test_verify_enumerate_range_check(capsys):
    code, _, err = run(capsys, "verify", "--enumerate", "9")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_verify_corpus_file(capsys, tmp_path):
    f = tmp_path / "c.g6"
    f.write_text(">>graph6<<A_\nBw\nD?{\n")
    code, out, _ = run(capsys, "verify", "--corpus", str(f))
    assert code == EXIT_CLEAN
    assert "graphs seen: 3" in out


# A bad second line and the error it gives: printable junk, bytes that are not
# ASCII at all (decoded to a lone surrogate), or a header past the first line.
BAD_LINES = pytest.mark.parametrize(
    "bad,message",
    [
        (b"*junk*", "size byte '*' does not encode n in 1..62"),
        (b"\xc3\xa9x", "size byte '\\udcc3' does not encode n in 1..62"),
        (b">>graph6<<Bw", "header allowed on the first line only"),
    ],
    ids=["junk", "non_ascii", "header"],
)


@BAD_LINES
def test_verify_corrupt_corpus_aborts_with_line_number(capsys, tmp_path, bad, message):
    f = tmp_path / "c.g6"
    f.write_bytes(b"A_\n" + bad + b"\nBw\n")
    code, out, err = run(capsys, "verify", "--corpus", str(f))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: line 2: {message}\n"


@BAD_LINES
def test_verify_skip_bad_continues(capsys, tmp_path, bad, message):
    f = tmp_path / "c.g6"
    f.write_bytes(b"A_\n" + bad + b"\nBw\n")
    code, out, err = run(capsys, "verify", "--corpus", str(f), "--skip-bad")
    assert code == EXIT_CLEAN
    assert "graphs seen: 2" in out
    assert "graphs skipped: 1" in out
    assert err == f"skipping line 2: {message}\n"


def test_verify_missing_corpus_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--corpus", str(tmp_path / "nope.g6"))
    assert code == EXIT_USAGE
    assert "error:" in err


def test_verify_jobs_output_is_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "--enumerate", "6")
    code2, out2, _ = run(capsys, "verify", "--enumerate", "6", "--jobs", "2")
    assert code1 == code2 == EXIT_CLEAN
    assert out1 == out2


def test_skip_bad_across_a_decode_block_is_the_same_for_any_jobs(capsys, tmp_path, data_dir):
    # lines 1024 and 1025 sit on either side of the first boundary of the graph6 reader's blocks
    lines = (data_dir / "connected8.g6").read_bytes().split()[:2100]
    for lineno, bad in ((3, b"*junk*"), (1024, b"\xc3\xa9x"), (1025, b">>graph6<<Bw"), (2049, b"G??")):
        lines[lineno - 1] = bad
    f = tmp_path / "c.g6"
    f.write_bytes(b"\n".join(lines) + b"\n")
    runs = [run(capsys, "verify", "--corpus", str(f), "--skip-bad", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == EXIT_CLEAN
    assert "graphs seen: 2096\ngraphs skipped: 4\n" in out
    assert err == ("skipping line 3: size byte '*' does not encode n in 1..62\n"
                   "skipping line 1024: size byte '\\udcc3' does not encode n in 1..62\n"
                   "skipping line 1025: header allowed on the first line only\n"
                   "skipping line 2049: n=8 needs 5 payload bytes, got 2\n")


@pytest.mark.parametrize("argv, checks", [(["verify"], 21), (["conjectures"], 2),
                                          (["equality", "--bound", "main"], 1)],
                         ids=["verify", "conjectures", "equality"])
def test_corpus_commands_build_graphs_only_for_the_rows_a_verdict_names(
        capsys, monkeypatch, data_dir, argv, checks):
    # a row becomes a Graph only to be encoded: a least-slack candidate, a violation, a hit
    built, encoded = [], []
    post_init, write = Graph.__post_init__, bounds.write_graph6
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or post_init(g))
    monkeypatch.setattr(bounds, "write_graph6", lambda g: encoded.append(g) or write(g))
    code, out, _ = run(capsys, *argv, "--corpus", str(data_dir / "connected8.g6"))
    assert code == EXIT_CLEAN and built == encoded
    named = {line.split()[-1] for line in out.splitlines() if line.startswith("min slack")}
    hits = [line.split()[0] for line in out.splitlines() if "  slack=" in line]
    assert named | set(hits) <= {write(g) for g in built}
    assert len(built) <= 11 * checks + len(hits)  # 11117 graphs in 11 chunks


# --- conjectures ------------------------------------------------------------------


def test_conjectures_enumerated_four(capsys):
    code, out, _ = run(capsys, "conjectures", "--enumerate", "4")
    assert code == EXIT_CLEAN
    assert "graphs seen: 6" in out
    assert "counterexamples: 0" in out
    assert "min slack conj1:" in out
    assert "min slack conj2:" in out


def test_conjectures_skip_disconnected(capsys, tmp_path):
    f = tmp_path / "c.g6"
    f.write_text("A?\nBw\n")  # edgeless pair, then triangle
    code, out, _ = run(capsys, "conjectures", "--corpus", str(f))
    assert code == EXIT_CLEAN
    assert "graphs seen: 2" in out
    assert "graphs skipped: 1" in out


def test_conjectures_counterexample_path(capsys):
    # an impossible tolerance manufactures counterexamples and exit code 1
    code, out, err = run(capsys, "conjectures", "--enumerate", "3", "--tol", "-1")
    assert code == EXIT_VIOLATIONS
    assert "VIOLATION" in err
    assert "spectrum=[" in err
    seen = [l for l in out.splitlines() if l.startswith("counterexamples: ")]
    assert seen and int(seen[0].split()[-1]) > 0


# --- equality ----------------------------------------------------------------------


def test_equality_cor_nice_five(capsys):
    code, out, _ = run(capsys, "equality", "--bound", "cor_nice", "--enumerate", "5")
    assert code == EXIT_CLEAN
    hits = [l for l in out.splitlines() if "complete_bipartite=" in l]
    assert len(hits) == 2
    assert all(h.endswith("complete_bipartite=yes") for h in hits)
    assert "equality hits: 2" in out
    assert "graphs seen: 21" in out


def test_equality_requires_known_bound(capsys):
    with pytest.raises(SystemExit):  # argparse rejects the choice itself
        main(["equality", "--bound", "nonsense", "--enumerate", "4"])
    capsys.readouterr()


# --- enumerate ----------------------------------------------------------------------


def test_enumerate_writes_connected_three(capsys, tmp_path):
    out_file = tmp_path / "three.g6"
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--connected",
                       "--out", str(out_file))
    assert code == EXIT_CLEAN
    assert out.strip() == f"2 graphs written to {out_file}"
    assert out_file.read_text().splitlines() == ["BW", "Bw"]


def test_enumerate_all_graphs_on_four(capsys, tmp_path):
    out_file = tmp_path / "four.g6"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(out_file))
    assert code == EXIT_CLEAN
    assert len(out_file.read_text().splitlines()) == 11


def test_enumerate_single_vertex(capsys, tmp_path):
    out_file = tmp_path / "one.g6"
    code, _, _ = run(capsys, "enumerate", "--n", "1", "--out", str(out_file))
    assert code == EXIT_CLEAN
    assert out_file.read_text().splitlines() == ["@"]


def test_enumerate_out_of_range(capsys, tmp_path):
    code, _, err = run(capsys, "enumerate", "--n", "9",
                       "--out", str(tmp_path / "x.g6"))
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "--enumerate", "3", "--jobs", jobs)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_zero_tol_above_the_energy_skips_the_chain(capsys):
    # every graph on 4 vertices has energy below 100: the energy chain is undefined
    code, out, err = run(capsys, "verify", "--enumerate", "4", "--zero-tol", "100")
    assert code == EXIT_CLEAN
    assert out.startswith("graphs seen: 6\ngraphs skipped: 0\nviolations: 0\n")
    assert err == ""


# --- NaN and infinite tolerances -------------------------------------------------------


@pytest.mark.parametrize("argv,env,name", [
    (["verify", "--enumerate", "5", "--tol", "nan"], None, "--tol"),
    (["conjectures", "--enumerate", "5", "--zero-tol", "nan"], None, "--zero-tol"),
    (["report", "Bw", "--zero-tol", "nan"], None, "--zero-tol"),
    (["equality", "--bound", "main", "--enumerate", "4", "--eps", "nan"], None, "--eps"),
    (["conjectures", "--enumerate", "5"], "GEB_TOL", "GEB_TOL"),
    (["verify", "--enumerate", "5"], "GEB_ZERO_TOL", "GEB_ZERO_TOL"),
], ids=["tol", "zero_tol", "report_zero_tol", "eps", "env_tol", "env_zero_tol"])
def test_nan_tolerance_is_usage_error(capsys, monkeypatch, argv, env, name):
    # every slack < -NaN is False, so a NaN tolerance would pass every check
    if env is not None:
        monkeypatch.setenv(env, "nan")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag's value itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == ""
    assert name in err and "not a number: 'nan'" in err


def test_infinite_tolerance_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "4", "--tol", "inf")
    assert code == EXIT_CLEAN and "violations: 0" in out
    code, out, _ = run(capsys, "equality", "--bound", "main", "--enumerate", "4", "--eps", "inf")
    assert code == EXIT_CLEAN and "equality hits: 6" in out


@pytest.mark.parametrize("value", [
    "-1e-9", "-1E+3", "-inf", "-Infinity", "-0.5", "-1", "-.5", "-1.", "-1_000",
])
@pytest.mark.parametrize("flag", ["--tol", "--eps"])
def test_negative_tolerance_after_a_space(capsys, flag, value):
    # argparse's own negative-number pattern has no exponent and no inf, so
    # "--tol -1e-9" once failed with "expected one argument"
    command = ["verify"] if flag == "--tol" else ["equality", "--bound", "main"]
    code, out, err = run(capsys, *command, "--enumerate", "4", flag, value)
    assert code == (EXIT_CLEAN if flag == "--eps" else EXIT_VIOLATIONS), err
    assert run(capsys, *command, "--enumerate", "4", f"{flag}={value}") == (code, out, err)


@pytest.mark.parametrize("value", ["-1e-9", "-1e-3", "-inf", "-0.5"])
@pytest.mark.parametrize("command", [["report", "Bw"], ["verify", "--enumerate", "4"]])
def test_negative_zero_tol_after_a_space_is_refused(capsys, command, value):
    code, out, err = run(capsys, *command, "--zero-tol", value)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: zero_tol must be positive\n"


# --- environment variables ------------------------------------------------------------


def test_env_tol_applies_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("GEB_TOL", "-1")
    code, _, err = run(capsys, "conjectures", "--enumerate", "3")
    assert code == EXIT_VIOLATIONS  # env tolerance forces counterexamples

    code, _, err = run(capsys, "conjectures", "--enumerate", "3", "--tol", "1e-9")
    assert code == EXIT_CLEAN  # explicit flag beats the environment


def test_env_invalid_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GEB_ZERO_TOL", "not-a-number")
    code, _, err = run(capsys, "verify", "--enumerate", "3")
    assert code == EXIT_USAGE
    assert "GEB_ZERO_TOL" in err


def test_env_zero_tol_applies(capsys, monkeypatch):
    monkeypatch.setenv("GEB_ZERO_TOL", "1e-8")
    code, _, _ = run(capsys, "verify", "--enumerate", "3")
    assert code == EXIT_CLEAN


# --- module entry point ------------------------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geb", "report", "A_"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["energy"] == pytest.approx(2.0)


def test_closed_pipe_exits_quietly(data_dir):
    # the reader takes one line and goes away while geb is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "geb", "equality", "--bound", "main", "--eps", "100",
         "--corpus", str(data_dir / "connected8.g6")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == ""
    assert proc.returncode != EXIT_USAGE


@pytest.mark.parametrize("command", ["verify", "conjectures"])
def test_check_commands_call_the_runner_in_the_module(capsys, monkeypatch, command):
    calls = []

    def fake(graphs, **kwargs):
        calls.append(len(list(graphs)))
        return CorpusSummary(graphs_seen=calls[-1])

    monkeypatch.setattr(cli, f"run_{command}", fake)
    code, out, _ = run(capsys, command, "--enumerate", "4")
    assert code == EXIT_CLEAN
    assert calls == [6]
    assert "graphs seen: 6" in out


def test_equality_calls_the_runner_in_the_module(capsys, monkeypatch):
    calls = []

    def fake(graphs, **kwargs):
        calls.append((len(list(graphs)), kwargs["bound"]))
        return CorpusSummary(graphs_seen=calls[-1][0])

    monkeypatch.setattr(cli, "run_equality", fake)
    code, out, _ = run(capsys, "equality", "--bound", "main", "--enumerate", "4")
    assert code == EXIT_CLEAN
    assert calls == [(6, "main")]
    assert "graphs seen: 6" in out


@pytest.mark.parametrize("command", [["verify"], ["conjectures"], ["equality", "--bound", "main"]])
def test_enumerate_option_calls_the_generator_in_the_module(capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "enumerate_connected", lambda n: calls.append(n) or [petersen()])
    code, out, _ = run(capsys, *command, "--enumerate", "4")
    assert code in (EXIT_CLEAN, EXIT_VIOLATIONS)
    assert calls == [4]
    assert "graphs seen: 1" in out
