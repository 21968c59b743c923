"""Command-line interface.

Subcommands: ``report`` (per-graph bound report), ``verify`` (proven-bound
soundness over a corpus), ``conjectures`` (conjectured bounds over the
connected graphs of a corpus), ``equality`` (tightness search for one
bound), ``enumerate`` (export one graph6 line per isomorphism class).

Corpora are graph6 files, one graph per line; alternatively --enumerate N
generates the connected graphs on N vertices in-process. Exit codes:
0 clean, 1 violations or counterexamples found, 2 usage or input errors,
141 (as if killed by SIGPIPE) when the reader of stdout goes away early.

Environment: GEB_ZERO_TOL overrides the spectral zero threshold, GEB_TOL
the soundness tolerance; explicit flags win over the environment.

``report`` never loads ``harness`` or ``enumeration``: the names taken from
them (``_LAZY``) are imported by the module ``__getattr__`` when a command
first reads them through ``_lazy``, and are then module attributes like any
other, so a patch of ``geb.cli.run_verify`` is what ``verify`` calls.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
from importlib import import_module
from typing import Iterable, Iterator

from .bounds import DEFAULT_EQUALITY_EPS, DEFAULT_TOL, EQUALITY_BOUNDS, BoundReport, bound_report
from .errors import GebError
from .graphs import MAX_ENUMERATION_N, Graph, from_edge_list
# stream_corpus is not called here; it stays importable from this module
# because perfbench/tracing.py wraps it
from .graph6 import parse_graph6, read_chunks, stream_corpus, write_graph6  # noqa: F401
from .spectral import DEFAULT_ZERO_TOL

_LAZY = {  # name: the module it is imported from when a command first reads it
    "CorpusSummary": "harness", "PackedCorpus": "harness", "run_conjectures": "harness",
    "run_equality": "harness", "run_verify": "harness",
    "enumerate_connected": "enumeration", "enumerate_graphs": "enumeration",
}

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    return value


def _lazy(name: str):
    """This module's attribute ``name``: a patched one, or else the one ``__getattr__`` loads."""
    return getattr(sys.modules[__name__], name)


def _number(text: str) -> float:
    """Parse a tolerance. inf is allowed; NaN is not, since no slack compares below it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative number after an option as its value.

    argparse reads an argument that starts with '-' as an option unless it
    matches the parser's negative-number pattern. The stock pattern has no
    exponent and no inf, so ``--tol -1e-9`` failed with "expected one
    argument". Here '-' before a digit, a '.' or inf starts a value, which
    ``_number`` then parses or refuses. Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf)", re.IGNORECASE)


def _resolve(flag_value: float | None, env_name: str, default: float) -> float:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(env_name)
    if not raw:
        return default
    try:
        return _number(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"environment variable {env_name} is {exc}")


def _read_edge_list(path: str) -> Graph:
    """Edge-list file: first number is n, then one 'i j' pair per edge.

    Whitespace-separated; '#' starts a comment running to end of line.
    """
    tokens: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0]
            for tok in text.split():
                try:
                    tokens.append(int(tok))
                except ValueError:
                    raise _UsageError(f"{path}: not an integer: {tok!r}")
    if not tokens:
        raise _UsageError(f"{path}: empty edge-list file")
    n = tokens[0]
    rest = tokens[1:]
    if len(rest) % 2:
        raise _UsageError(f"{path}: odd number of edge endpoints")
    edges = list(zip(rest[0::2], rest[1::2]))
    return from_edge_list(n, edges)


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_report(report: BoundReport, fmt: str) -> str:
    data = report._asdict()
    if fmt == "json":
        import json

        return json.dumps(data, indent=2)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(BoundReport._fields)
        writer.writerow(["" if v is None else v for v in data.values()])
        return buf.getvalue().rstrip("\n")
    width = max(len(k) for k in data)
    return "\n".join(f"{k:<{width}}  {_format_value(v)}" for k, v in data.items())


def _cmd_report(args: argparse.Namespace) -> int:
    if (args.graph6 is None) == (args.edges is None):
        raise _UsageError("report needs exactly one of: a graph6 string, or --edges FILE")
    if args.edges is not None:
        g = _read_edge_list(args.edges)
    else:
        g = parse_graph6(args.graph6)
    zero_tol = _resolve(args.zero_tol, "GEB_ZERO_TOL", DEFAULT_ZERO_TOL)
    print(_render_report(bound_report(g, zero_tol), args.format))
    return EXIT_CLEAN


class _SkipCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, line_number: int, exc: GebError) -> None:
        self.count += 1
        print(f"skipping line {line_number}: {exc}", file=sys.stderr)


def _corpus_source(args: argparse.Namespace, skips: _SkipCounter) -> list[Graph] | PackedCorpus:
    if args.enumerate is None:
        return _lazy("PackedCorpus")(_corpus_chunks(args.corpus, skips if args.skip_bad else None))
    if not 1 <= args.enumerate <= MAX_ENUMERATION_N:
        raise _UsageError(f"--enumerate accepts 1..{MAX_ENUMERATION_N}")
    return _lazy("enumerate_connected")(args.enumerate)


def _corpus_chunks(path: str, on_bad) -> Iterator[list[tuple]]:
    """The corpus file's chunks, one per block of lines, read as the run pulls them."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for groups in read_chunks(fh, on_bad):
            yield [(n, packed) for n, _lines, packed in groups]


def _print_summary(summary: CorpusSummary, violations_label: str) -> None:
    print(f"graphs seen: {summary.graphs_seen}")
    print(f"graphs skipped: {summary.graphs_skipped}")
    print(f"{violations_label}: {len(summary.violations)}")
    for name in sorted(summary.extremes.keys() & set(BoundReport._fields)):  # bounds only
        ext = summary.extremes[name]
        print(f"min slack {name}: {ext.slack:.12g} at {ext.graph6}")


def _print_violations(summary: CorpusSummary) -> None:
    for v in summary.violations:
        detail = f" {v.detail}" if v.detail else ""
        print(
            f"VIOLATION {v.graph6} {v.bound_name}: bound={v.bound_value:.12g} "
            f"energy={v.energy:.12g}{detail}",
            file=sys.stderr,
        )


def _cmd_check(args: argparse.Namespace) -> int:
    """verify or conjectures; the runner is looked up at call time."""
    run = _lazy(f"run_{args.command}")
    label = {"verify": "violations", "conjectures": "counterexamples"}[args.command]
    tol = _resolve(args.tol, "GEB_TOL", DEFAULT_TOL)
    zero_tol = _resolve(args.zero_tol, "GEB_ZERO_TOL", DEFAULT_ZERO_TOL)
    skips = _SkipCounter()
    summary = run(_corpus_source(args, skips), tol=tol, zero_tol=zero_tol, jobs=args.jobs)
    summary.graphs_skipped += skips.count
    _print_summary(summary, label)
    _print_violations(summary)
    return EXIT_VIOLATIONS if summary.violations else EXIT_CLEAN


def _cmd_equality(args: argparse.Namespace) -> int:
    zero_tol = _resolve(args.zero_tol, "GEB_ZERO_TOL", DEFAULT_ZERO_TOL)
    skips = _SkipCounter()
    summary = _lazy("run_equality")(
        _corpus_source(args, skips), bound=args.bound, eps=args.eps,
        zero_tol=zero_tol, jobs=args.jobs,
    )
    summary.graphs_skipped += skips.count
    for hit in summary.equality_hits:
        print(
            f"{hit.graph6}  {hit.bound_name}  slack={hit.slack:.6e}  "
            f"complete_bipartite={'yes' if hit.is_complete_bipartite else 'no'}"
        )
    print(f"graphs seen: {summary.graphs_seen}")
    print(f"graphs skipped: {summary.graphs_skipped}")
    print(f"equality hits: {len(summary.equality_hits)}")
    return EXIT_CLEAN


def _cmd_enumerate(args: argparse.Namespace) -> int:
    graphs = _lazy("enumerate_graphs")(args.n, connected=args.connected)
    with open(args.out, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(write_graph6(g) + "\n")
    print(f"{len(graphs)} graphs written to {args.out}")
    return EXIT_CLEAN


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", metavar="FILE", help="graph6 file, one graph per line")
    source.add_argument(
        "--enumerate", type=int, metavar="N",
        help=f"use the connected graphs on N vertices (1..{MAX_ENUMERATION_N})",
    )
    parser.add_argument(
        "--skip-bad", action="store_true",
        help="skip undecodable corpus lines instead of aborting",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="K",
        help="worker processes for corpus processing, at most the CPU count (default 1)",
    )
    parser.add_argument(
        "--zero-tol", type=_number, default=None, metavar="T",
        help=f"spectral zero threshold (default {DEFAULT_ZERO_TOL}, env GEB_ZERO_TOL)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geb",
        description="Graph energy bounds: reports, corpus verification, equality search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="bound report for a single graph")
    p_report.add_argument("graph6", nargs="?", help="graph6 string, e.g. 'Bw'")
    p_report.add_argument("--edges", metavar="FILE", help="edge-list file (n, then i j pairs)")
    p_report.add_argument(
        "--format", choices=("json", "table", "csv"), default="json",
        help="output format (default json)",
    )
    p_report.add_argument("--zero-tol", type=_number, default=None, metavar="T")
    p_report.set_defaults(func=_cmd_report)

    for name, help_text, tol_kind in (
        ("verify", "check every proven bound over a corpus", "soundness"),
        ("conjectures", "check the conjectured bounds on connected corpus graphs",
         "comparison"),
    ):
        p_check = sub.add_parser(name, help=help_text)
        _add_corpus_options(p_check)
        p_check.add_argument(
            "--tol", type=_number, default=None, metavar="T",
            help=f"{tol_kind} tolerance (default {DEFAULT_TOL}, env GEB_TOL)",
        )
        p_check.set_defaults(func=_cmd_check)

    p_eq = sub.add_parser("equality", help="list graphs where a bound is tight")
    p_eq.add_argument(
        "--bound", required=True, choices=EQUALITY_BOUNDS,
        help="which lower bound to scan for equality",
    )
    _add_corpus_options(p_eq)
    p_eq.add_argument(
        "--eps", type=_number, default=DEFAULT_EQUALITY_EPS, metavar="E",
        help=f"equality tolerance on |E - bound| (default {DEFAULT_EQUALITY_EPS})",
    )
    p_eq.set_defaults(func=_cmd_equality)

    p_enum = sub.add_parser("enumerate", help="write one graph6 line per isomorphism class")
    p_enum.add_argument("--n", type=int, required=True, metavar="N")
    p_enum.add_argument(
        "--connected", action="store_true", help="connected graphs only"
    )
    p_enum.add_argument("--out", required=True, metavar="FILE")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GebError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
