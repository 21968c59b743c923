"""Workloads of the geb benchmark: seeded inputs, timed passes, output checks.

Two roles, each run in a fresh process by ``run.py``:

    python perfbench/workloads.py setup   WORKLOAD SEED WORKDIR
    python perfbench/workloads.py measure WORKLOAD SEED WORKDIR SECONDS TRACE

``setup`` imports geb and numpy, writes the workload's seeded graph6 input
into WORKDIR and does one warm-up solve. ``measure`` runs passes over that
input for SECONDS, checks every command's output against ``reference``, and
prints one JSON object as its last line. With TRACE 1 the first half of the
time runs untraced passes and the second half traced ones (see ``tracing``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy

from reference import (
    CONJECTURE_BOUNDS,
    TOL,
    VERIFY_BOUNDS,
    decode_graph6,
    encode_graph6,
    equality_hits,
    isomorphism_classes,
    min_slacks,
    random_graph,
    reference_rows,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "data" / "connected8.g6"
BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("corpus8", "gnp_dense", "interactive")
GNP_SIZES = ((10, 512), (20, 256), (40, 64), (62, 32))   # (n, graphs); graph6 stops at 62
REPORT_SIZES = (8, 16, 30)
REPORT_POOL = 4            # seeded report graphs per size; cycle k uses graph k % REPORT_POOL
ENUMERATE_N = 7
ENUMERATE_CLASSES = 853    # connected graphs on 7 vertices
CORPUS8_GRAPHS = 11117
CORPUS8_MAIN_HITS = 6
MIN_PASSES = 5              # so that a median over passes or commands is steady
# 30 commands at least, so that the tail (ten samples beyond it) always lies
# among the --enumerate commands, which are 40% of them
INTERACTIVE_MIN_PASSES = 6
TRACE_MIN_PASSES = 2
IMPORT_PROBES = 3
COMMAND_TIMEOUT_S = 120
CAL_LOOP = 300_000          # the parts of calibrate(), about 50 ms each
CAL_OBJECTS = 20_000
CAL_GRAPH6 = 4_000
CAL_SOLVES = 150
CAL_NOMINAL_S = 0.18       # about the median time of calibrate() on the machine of NOTES.md


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    geb comes from this checkout's ``src``; the tolerance variables the CLI
    reads are cleared so that its defaults apply; BLAS runs one thread.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("GEB_TOL", "GEB_ZERO_TOL")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of work of the benchmark's own.

    The mix touches no geb code: an integer loop, building and sorting
    small objects, the reference graph6 codec and small stacked numpy
    eigensolves, in about equal parts, so that its time tracks the speed the
    shared host gives the benchmark at that moment for work like geb's. A
    command's wall time times CAL_NOMINAL_S over the mean of the calibrations
    just before and after it is its time at the reference speed (see NOTES.md).
    """
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(CAL_LOOP):
        total += i * i % 7
        table[i & 1023] = total
    for base in range(0, CAL_OBJECTS, 1000):   # a small live set: no effect on peak RSS
        items = sorted((i * 7919 % 1009, str(i), [i]) for i in range(base, base + 1000))
        groups: dict[int, list[int]] = {}
        for key, _, box in items:
            groups.setdefault(key, []).append(box[0])
    rng = random.Random(0)
    for _ in range(CAL_GRAPH6):
        decode_graph6(encode_graph6(8, random_graph(rng, 8)))
    stack = (numpy.arange(64 * 8 * 8) * 7919 % 1009 / 1009.0).reshape(64, 8, 8)
    stack = stack + stack.transpose(0, 2, 1)
    for _ in range(CAL_SOLVES):
        numpy.abs(numpy.linalg.eigvalsh(stack)).sum(axis=1)
    return time.perf_counter() - start


def input_path(workdir: Path, workload: str) -> Path:
    return workdir / f"{workload}.g6"


def write_input(workload: str, seed: int, workdir: Path) -> Path:
    rng = random.Random(seed)
    if workload == "corpus8":
        lines = CORPUS.read_text(encoding="ascii").split()
        rng.shuffle(lines)
    elif workload == "gnp_dense":
        lines = [encode_graph6(n, random_graph(rng, n)) for n, count in GNP_SIZES for _ in range(count)]
        rng.shuffle(lines)
    else:
        lines = [encode_graph6(n, random_graph(rng, n)) for n in REPORT_SIZES for _ in range(REPORT_POOL)]
    path = input_path(workdir, workload)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def warm_up(path: Path) -> None:
    """One solve of a batch holding the first graph of each vertex count in the input."""
    from geb import eigenvalues_batch, parse_graph6

    firsts: dict[str, str] = {}
    for line in path.read_text(encoding="ascii").split():
        firsts.setdefault(line[0], line)
    eigenvalues_batch([parse_graph6(line) for line in firsts.values()])


@dataclass
class Command:
    kind: str                 # verify | conjectures | equality | report
    argv: list[str]
    graph6: str | None = None  # the report's input


@dataclass
class Outcome:
    command: Command
    code: int | None
    stdout: str
    stderr: str
    wall_s: float
    graphs: int = 0           # graph checks the command reported
    scale: float = 1.0        # reference speed over the speed measured around the command
    problems: tuple[str, ...] = ()


def pass_commands(workload: str, workdir: Path, index: int) -> list[Command]:
    corpus = str(input_path(workdir, workload))
    if workload == "corpus8":
        return [Command("verify", ["verify", "--corpus", corpus, "--jobs", "1"]),
                Command("conjectures", ["conjectures", "--corpus", corpus, "--jobs", "1"]),
                Command("equality", ["equality", "--bound", "main", "--corpus", corpus, "--jobs", "1"])]
    if workload == "gnp_dense":
        return [Command("verify", ["verify", "--corpus", corpus, "--jobs", "1"])]
    pool = input_path(workdir, workload).read_text(encoding="ascii").split()
    reports = [pool[k * REPORT_POOL + index % REPORT_POOL] for k in range(len(REPORT_SIZES))]
    return ([Command("report", ["report", g6], g6) for g6 in reports]
            + [Command("verify", ["verify", "--enumerate", str(ENUMERATE_N)]),
               Command("conjectures", ["conjectures", "--enumerate", str(ENUMERATE_N)])])


# -- running commands ----------------------------------------------------------


def run_calibrated(commands: list[Command], run_one) -> list[Outcome]:
    """Run ``commands`` one at a time with a calibration before each and
    after the last; each outcome's ``scale`` comes from the two around it."""
    cal = [calibrate()]
    outcomes = []
    for command in commands:
        outcome = run_one(command)
        cal.append(calibrate())
        outcome.scale = CAL_NOMINAL_S / ((cal[-2] + cal[-1]) / 2)
        outcomes.append(outcome)
    return outcomes


def scaled_s(outcome: Outcome) -> float:
    """The outcome's wall time at the reference speed."""
    return outcome.wall_s * outcome.scale


def run_in_process(command: Command, main) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.argv)
        except Exception as exc:  # a crash is one failed operation, not a benchmark abort
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return Outcome(command, code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_fresh(command: Command, trace_out: Path | None) -> Outcome:
    if trace_out is None:
        argv = [sys.executable, "-m", "geb", *command.argv]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_out), "--", *command.argv]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    return Outcome(command, proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


# -- output checks -------------------------------------------------------------


@dataclass
class Expected:
    """What every command of one workload must print."""

    corpus_graphs: int
    corpus_skipped_conj: int
    verify_min: dict[str, float]
    conj_min: dict[str, float]
    main_hits: set[str]
    reports: dict[str, object]  # graph6 -> reference Row
    enum_verify_min: dict[str, float]
    enum_conj_min: dict[str, float]


def expected_for(workload: str, workdir: Path) -> Expected:
    graphs = [decode_graph6(line) for line in input_path(workdir, workload).read_text().split()]
    rows = reference_rows(graphs)
    enum_verify: dict[str, float] = {}
    enum_conj: dict[str, float] = {}
    reports: dict[str, object] = {}
    if workload == "interactive":
        from geb import enumerate_connected

        reports = {row.graph6: row for row in rows}
        # The slacks expected of --enumerate come from geb's enumeration, so
        # check that it holds every class once: as many connected graphs as
        # there are classes, pairwise non-isomorphic.
        enumerated = [(g.n, g.adj) for g in enumerate_connected(ENUMERATE_N)]
        enum_rows = reference_rows(enumerated)
        classes = isomorphism_classes(ENUMERATE_N, [adj for n, adj in enumerated if n == ENUMERATE_N])
        if not (len(enum_rows) == classes == ENUMERATE_CLASSES and all(r.connected for r in enum_rows)):
            raise SystemExit(f"enumerate_connected({ENUMERATE_N}) gave {len(enum_rows)} graphs in "
                             f"{classes} classes, expected {ENUMERATE_CLASSES} connected classes")
        enum_verify = min_slacks(enum_rows, VERIFY_BOUNDS)
        enum_conj = min_slacks(enum_rows, CONJECTURE_BOUNDS)
    hits = equality_hits(rows, "main")
    if workload == "corpus8" and (len(rows) != CORPUS8_GRAPHS or len(hits) != CORPUS8_MAIN_HITS):
        raise SystemExit("connected8.g6 no longer holds the reference corpus")
    return Expected(
        corpus_graphs=len(rows),
        corpus_skipped_conj=sum(1 for r in rows if not r.connected or r.m == 0),
        verify_min=min_slacks(rows, VERIFY_BOUNDS),
        conj_min=min_slacks(rows, CONJECTURE_BOUNDS),
        main_hits=hits,
        reports=reports,
        enum_verify_min=enum_verify,
        enum_conj_min=enum_conj,
    )


def parse_summary(text: str) -> tuple[dict[str, int], dict[str, float], list[str]]:
    """(counts, min slacks, other lines) of a corpus command's stdout."""
    counts: dict[str, int] = {}
    slacks: dict[str, float] = {}
    other: list[str] = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if line.startswith("min slack ") and sep:
            slacks[key[len("min slack "):]] = float(value.split(" at ")[0])
        elif sep and value.strip().isdigit():
            counts[key] = int(value)
        else:
            other.append(line)
    return counts, slacks, other


def _compare_slacks(got: dict[str, float], want: dict[str, float]) -> list[str]:
    if set(got) != set(want):
        return [f"min slack names {sorted(got)} != {sorted(want)}"]
    return [f"min slack {k}: {got[k]!r} differs from reference {want[k]!r} by more than {TOL}"
            for k in sorted(want) if not abs(got[k] - want[k]) <= TOL]


def check(outcome: Outcome, expected: Expected) -> Outcome:
    """Fill ``graphs`` and ``problems`` of one command's outcome."""
    cmd = outcome.command
    problems: list[str] = []
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}")
    graphs = 0
    if cmd.kind == "report":
        if not problems:
            problems += _check_report(outcome.stdout, expected.reports[cmd.graph6])
            graphs = 1
    else:
        enumerated = "--enumerate" in cmd.argv
        total = ENUMERATE_CLASSES if enumerated else expected.corpus_graphs
        counts, slacks, other = parse_summary(outcome.stdout)
        graphs = counts.get("graphs seen", 0)
        want_counts = {"graphs seen": total, "graphs skipped": 0}
        if cmd.kind == "verify":
            want_counts["violations"] = 0
            want_slacks = expected.enum_verify_min if enumerated else expected.verify_min
        elif cmd.kind == "conjectures":
            want_counts["counterexamples"] = 0
            want_counts["graphs skipped"] = 0 if enumerated else expected.corpus_skipped_conj
            want_slacks = expected.enum_conj_min if enumerated else expected.conj_min
        else:
            want_counts["equality hits"] = len(expected.main_hits)
            want_slacks = {}
            hits = {line.split()[0] for line in other if line.strip()}
            if hits != expected.main_hits:
                problems.append(f"equality hits {sorted(hits)} != {sorted(expected.main_hits)}")
        if counts != want_counts:
            problems.append(f"counts {counts} != {want_counts}")
        problems += _compare_slacks(slacks, want_slacks)
    outcome.graphs = graphs
    outcome.problems = tuple(problems)
    return outcome


def _check_report(stdout: str, row) -> list[str]:
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report output is not JSON: {exc}"]
    problems = []
    for key, want in (("graph6", row.graph6), ("n", row.n), ("m", row.m),
                      ("is_connected", row.connected)):
        if data.get(key) != want:
            problems.append(f"report {key} = {data.get(key)!r}, expected {want!r}")
    numeric = {"energy": row.energy, "lambda1": row.lambda1,
               **{f"slack_{k}": v for k, v in row.bounds.items()}}
    if row.singular:
        # amgm uses sqrt(t); on a singular graph t is rounding noise and the
        # program's amgm misses the exact 0 by ~1e-7 (a known defect, see NOTES.md).
        numeric.pop("slack_amgm", None)
    for key, want in numeric.items():
        got = data.get(key)
        if not isinstance(got, (int, float)) or not abs(got - want) <= TOL:
            problems.append(f"report {key} = {got!r}, reference {want!r}")
    return problems


# -- passes --------------------------------------------------------------------


def run_passes(budget_s: float, run_pass, min_passes: int = MIN_PASSES) -> list[tuple[float, list[Outcome]]]:
    """Whole passes until the next one would overrun ``budget_s`` (at least
    ``min_passes``). A pass's time is the sum of its commands' times at the
    reference speed."""
    done: list[tuple[float, list[Outcome]]] = []
    spans: list[float] = []   # real time of each pass, calibrations included
    start = time.perf_counter()
    while True:
        if len(done) >= min_passes:
            if time.perf_counter() - start + statistics.median(spans) > budget_s:
                break
        began = time.perf_counter()
        outcomes = run_pass(len(done))
        spans.append(time.perf_counter() - began)
        done.append((sum(scaled_s(o) for o in outcomes), outcomes))
    return done


@dataclass
class TraceRun:
    passes: list[tuple[float, list[Outcome]]]
    sums: dict                 # merged Tracer.sums()
    eig: dict[str, float]      # merged Tracer.eigvalsh_comparison()
    import_s: list[float]      # ``import geb.cli`` times of the traced fresh processes


def traced_passes(workload: str, workdir: Path, budget_s: float, main) -> TraceRun:
    from tracing import Tracer, merge_sums

    if workload != "interactive":
        tracer = Tracer()
        tracer.install()
        traced_main = tracer.wrap("cli.main", main)
        try:
            done = run_passes(budget_s, lambda i: run_calibrated(
                pass_commands(workload, workdir, i), partial(run_in_process, main=traced_main)),
                TRACE_MIN_PASSES)
        finally:
            tracer.uninstall()
        return TraceRun(done, tracer.sums(), tracer.eigvalsh_comparison(), [])

    dumps: list[dict] = []

    def run_pass(index: int) -> list[Outcome]:
        numbers = itertools.count()

        def run_one(command: Command) -> Outcome:
            out = workdir / f"trace-{index}-{next(numbers)}.json"
            outcome = run_fresh(command, out)
            if out.exists():
                dumps.append(json.loads(out.read_text()))
                outcome.wall_s -= dumps[-1]["post_s"]
            return outcome

        return run_calibrated(pass_commands(workload, workdir, index), run_one)

    done = run_passes(budget_s, run_pass, TRACE_MIN_PASSES)
    sums: dict = {}
    eig = {"eigvalsh_s": 0.0, "max_abs_err": 0.0, "max_energy_err": 0.0}
    for dump in dumps:
        merge_sums(sums, dump)
        eig["eigvalsh_s"] += dump["eig"]["eigvalsh_s"]
        for key in ("max_abs_err", "max_energy_err"):
            eig[key] = max(eig[key], dump["eig"][key])
    return TraceRun(done, sums, eig, [d["import_s"] for d in dumps])


def layer_metrics(run: TraceRun, untraced, workload: str, workdir: Path, main) -> dict[str, float]:
    """Per-layer metrics: times per pass, counts per graph check or per call."""
    count = len(run.passes)
    checks = sum(o.graphs for _, outs in run.passes for o in outs)
    self_s, total_s, calls = (run.sums.get(k, {}) for k in ("self_s", "total_s", "calls"))

    def per_pass(value: float) -> float:
        return value / count

    def per_check(name: str) -> float:
        return calls.get(name, 0) / checks if checks else 0.0

    def layer_self(layer: str) -> float:
        return per_pass(sum(v for k, v in self_s.items() if k.startswith(layer + ".")))

    eig_calls = calls.get("spectral.eigenvalues_batch", 0) + calls.get("spectral.eigenvalues", 0)
    eig_s = per_pass(total_s.get("spectral.eigenvalues_batch", 0.0)
                     + total_s.get("spectral.eigenvalues", 0.0))
    eigvalsh_s = per_pass(run.eig["eigvalsh_s"])
    enum_calls = calls.get("enumeration.enumerate_connected", 0)
    traced_wall = sum(o.wall_s for _, outs in run.passes for o in outs)
    return {
        "spectral.eig_s": eig_s,
        "spectral.eig_graphs_per_call": run.sums.get("eig_graphs", 0) / eig_calls if eig_calls else 0.0,
        "spectral.eigvalsh_s": eigvalsh_s,
        "spectral.eig_over_eigvalsh": eig_s / eigvalsh_s if eigvalsh_s else 0.0,
        "spectral.max_abs_err": run.eig["max_abs_err"],
        "spectral.det_exact_s": per_pass(total_s.get("spectral.determinant_exact", 0.0)),
        "spectral.stats_calls_per_graph": per_check("spectral.spectral_stats"),
        "graphs.predicates_s": layer_self("graphs"),
        "graphs.neighbor_masks_per_graph": per_check("graphs.neighbor_masks"),
        "bounds.report_self_s": per_pass(self_s.get("bounds.bound_report", 0.0)),
        "bounds.irregularity_s": per_pass(total_s.get("bounds.irregularity", 0.0)),
        "gruss.chain_s": per_pass(total_s.get("gruss.energy_chain", 0.0)),
        "gruss.chains_per_graph": per_check("gruss.energy_chain"),
        "graph6.encode_calls_per_graph": per_check("graph6.write_graph6"),
        "graph6.decode_s": per_pass(total_s.get("graph6.stream_corpus", 0.0)
                                    + total_s.get("graph6.parse_graph6", 0.0)),
        "enumeration.enumerate_s": per_pass(total_s.get("enumeration.enumerate_connected", 0.0)),
        "enumeration.classes": calls.get("enumeration.classes", 0) / enum_calls if enum_calls else 0.0,
        "cli.import_s": statistics.median(run.import_s or import_probe(workdir)),
        "cli.self_s": per_pass(self_s.get("cli.main", 0.0)),
        "harness.self_s": layer_self("harness"),
        "harness.chunks": per_pass(calls.get("spectral.eigenvalues_batch", 0)),
        "harness.order_drift": order_drift(run, main) if workload == "corpus8" else 0.0,
        "trace.overhead_frac": (statistics.median(w for w, _ in run.passes)
                                / statistics.median(w for w, _ in untraced) - 1.0),
        # share of traced time in the layers below cli (cli.main is the root span)
        "trace.coverage": (total_s.get("cli.main", 0.0) - self_s.get("cli.main", 0.0)) / traced_wall,
        "src.lines": src_lines(),
    }


def measure(workload: str, seed: int, workdir: Path, seconds: float, trace: bool) -> dict:
    fresh = workload == "interactive"
    main = None
    if not fresh:  # a fresh geb process gains nothing from an import or warm-up here
        import geb.cli

        main = geb.cli.main
        warm_up(input_path(workdir, workload))

    def untraced_pass(index: int) -> list[Outcome]:
        commands = pass_commands(workload, workdir, index)
        if fresh:
            return run_calibrated(commands, partial(run_fresh, trace_out=None))
        return run_calibrated(commands, partial(run_in_process, main=main))

    result: dict = {}
    if trace:  # half the time untraced, half traced, two passes at least in each
        untraced = run_passes(seconds / 2, untraced_pass, TRACE_MIN_PASSES)
    else:
        untraced = run_passes(seconds, untraced_pass, INTERACTIVE_MIN_PASSES if fresh else MIN_PASSES)
    # RSS of the process that ran geb: the largest fresh geb process, or this one
    who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    run = traced_passes(workload, workdir, seconds / 2, main) if trace else None

    expected = expected_for(workload, workdir)
    all_passes = untraced + (run.passes if run else [])
    outcomes = [o for _, outs in all_passes for o in outs]
    problems = [f"{' '.join(o.command.argv)}: {p}" for o in outcomes for p in check(o, expected).problems]
    if run:
        result["layers"] = layer_metrics(run, untraced, workload, workdir, main)
        if not run.eig["max_energy_err"] <= TOL:
            problems.append(f"traced energies differ from eigvalsh by {run.eig['max_energy_err']!r}")
    result.update(
        pass_walls=[w for w, _ in untraced],
        pass_graphs=[sum(o.graphs for o in outs) for _, outs in untraced],
        latencies=[scaled_s(o) for _, outs in untraced for o in outs],
        raw_pass_walls=[sum(o.wall_s for o in outs) for _, outs in untraced],
        scales=[o.scale for _, outs in untraced for o in outs],
        passes=len(all_passes),
        commands_per_pass=sorted({len(outs) for _, outs in all_passes}),
        graphs_per_pass=sorted({sum(o.graphs for o in outs) for _, outs in all_passes}),
        attempted=len(outcomes),
        failed=sum(1 for o in outcomes if o.problems),
        problems=problems,
    )
    return result


def order_drift(run: TraceRun, main) -> float:
    """Largest |min slack difference| between the seeded order and the file order of connected8."""
    seeded: dict[str, float] = {}
    for outcome in run.passes[0][1]:
        seeded.update(parse_summary(outcome.stdout)[1])
    drift = 0.0
    for kind in ("verify", "conjectures"):
        outcome = run_in_process(Command(kind, [kind, "--corpus", str(CORPUS), "--jobs", "1"]), main)
        for name, value in parse_summary(outcome.stdout)[1].items():
            drift = max(drift, abs(value - seeded[name]))
    return drift


def import_probe(workdir: Path) -> list[float]:
    """``import geb.cli`` times of IMPORT_PROBES fresh interpreters."""
    times = []
    for k in range(IMPORT_PROBES):
        out = workdir / f"import-{k}.json"
        subprocess.run([sys.executable, str(BENCH_DIR / "tracing.py"), str(out), "--"],
                       cwd=ROOT, env=child_env(), check=True, timeout=COMMAND_TIMEOUT_S)
        times.append(json.loads(out.read_text())["import_s"])
    return times


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "geb").glob("*.py"))


def _main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    role, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if role == "setup":
        import geb  # noqa: F401  (import cost is part of set-up)
        import numpy  # noqa: F401

        warm_up(write_input(workload, seed, workdir))
        return 0
    result = measure(workload, seed, workdir, float(argv[4]), argv[5] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
