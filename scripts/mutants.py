"""Mutation testing of geb: does some test fail when one operator of the code changes?

Each mutant changes one thing in one function of a target module:

- a comparison flipped: ``<`` to ``<=`` and to ``>=``, ``==`` to ``!=``, ...;
- an operator swapped: ``&`` and ``|``, ``and`` and ``or``, ``+`` and ``-``,
  ``*`` and ``//``, ``<<`` and ``>>``;
- an integer constant, or a module constant the target names, moved by +-1;
- a slice bound, or a start or stop of ``range``/``arange``, moved by +-1.

The mutant runs the target's own tests with ``-x`` first and, if they pass, the
whole tier-1 suite. Each run may take ``LIMIT`` times as long as the same command
takes on the unmutated code, timed once at the start; a run that passes that limit,
such as a loop that never ends, kills its mutant. A mutant that passes both runs
is a survivor. Each survivor must be listed in ``equivalent_mutants.txt`` beside
this script, with the reason it behaves like the original; the script exits 1 on
a survivor that is not.

Usage: ``python scripts/mutants.py`` from the repository root; it runs every
row of ``TARGETS``. The mutants are run in a copy of the repository under
``$TMPDIR``, never in the checkout itself.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.txt")

# name: (module, functions mutated, tests run first with -x, module constants moved by +-1)
TARGETS = {
    "graph6": ("src/geb/graph6.py", ("_packed", "_decode_block", "parse_graph6", "write_graph6"),
               ("tests/test_graph6.py",), ("MAX_VERTICES",)),
    "graphs": ("src/geb/graphs.py", ("structure_columns", "connected_column", "pair_bits",
                                     "pair_stack", "is_complete_bipartite"),
               ("tests/test_graphs.py", "tests/test_bounds.py"), ()),
    "bounds": ("src/geb/bounds.py", ("mcclelland_lower", "mcclelland_upper", "caporossi_lower",
                                     "main_lower", "cor_nice_lower", "amgm_lower", "rank_lower",
                                     "conj1_lower", "conj2_upper", "_mcclelland_column",
                                     "_epsilon", "_beta", "_where", "_bound_columns",
                                     "_structure_columns"),
               ("tests/test_bounds.py",), ()),
    "spectral": ("src/geb/spectral.py", ("_tridiagonal_eigenvalues_stack", "_tridiagonal",
                                         "_bisection_buffers", "_bisect", "spectra_of_stacks",
                                         "_reduced"),
                 ("tests/test_spectral.py",), ()),
    "harness": ("src/geb/harness.py", ("_margin", "_judge", "_conjectures", "_equality"),
                ("tests/test_harness.py",), ()),
}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
TIER1 = ["--continue-on-collection-errors"]
# a run's time limit, as a multiple of the same command's unmutated time: room for a busy
# host and a slower equivalent mutant, while a mutant that loops forever costs seconds
LIMIT = 5

FLIPS = {ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt), ast.Gt: (ast.GtE, ast.LtE),
         ast.GtE: (ast.Gt, ast.Lt), ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
         ast.In: (ast.NotIn,), ast.NotIn: (ast.In,), ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,)}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
         ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
         ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
         ast.BitXor: ast.BitOr, ast.And: ast.Or, ast.Or: ast.And}
RANGES = {"range", "arange"}


def _moved(node: ast.expr, by: int) -> ast.expr:
    return ast.BinOp(node, ast.Add() if by > 0 else ast.Sub(), ast.Constant(abs(by)))


def _ends_in_constant(node: ast.expr) -> bool:
    """Whether moving node by +-1 is moving one of its constants, which the constant rule does."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        node = node.right
    return isinstance(node, ast.Constant)


def _replacements(node: ast.AST, constants: tuple[str, ...]):
    """Each (node, mutated copy) pair of one AST node."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            for flip in FLIPS[type(op)]:
                new = copy.deepcopy(node)
                new.ops[k] = flip()
                yield node, new
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        new = copy.deepcopy(node)
        new.op = SWAPS[type(node.op)]()
        yield node, new
    elif (isinstance(node, ast.Constant) and type(node.value) is int
          or isinstance(node, ast.Name) and node.id in constants):
        for by in (1, -1):
            yield node, (ast.Constant(node.value + by) if isinstance(node, ast.Constant)
                         else _moved(node, by))
    bounds = []
    if isinstance(node, ast.Slice):
        bounds = [node.lower, node.upper]
    elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in RANGES:
        bounds = node.args[:2]
    for bound in bounds:
        if bound is not None and not _ends_in_constant(bound):
            for by in (1, -1):
                yield bound, _moved(bound, by)


def _sites(function: ast.FunctionDef, constants: tuple[str, ...]):
    """Each (node, mutated copy) of a function's body, in source order; f-strings are skipped."""
    skip = {id(inner) for node in ast.walk(function) if isinstance(node, ast.JoinedStr)
            for inner in ast.walk(node)}
    nodes = [node for statement in function.body for node in ast.walk(statement)
             if id(node) not in skip]
    nodes.sort(key=lambda node: (getattr(node, "lineno", 0), getattr(node, "col_offset", 0)))
    for node in nodes:
        yield from _replacements(node, constants)


def _splice(source: bytes, node: ast.AST, text: str) -> bytes:
    """Source with node's span replaced by text; ast offsets are UTF-8 byte offsets."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    return source[:start] + text.encode() + source[end:]


def mutants(target: str):
    """Each (mutant name, mutated module source) of a target, without duplicates.

    A name is the target, the function, the line counted from its ``def`` and the
    change; the k-th site of the same change on one line gets " #k" from k = 2 on.
    """
    path, functions, _tests, constants = TARGETS[target]
    source = (ROOT / path).read_bytes()
    tree = ast.parse(source)
    seen, names = {ast.dump(tree)}, set()
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef) or function.name not in functions:
            continue
        for node, new in _sites(function, constants):
            mutated = _splice(source, node, f"({ast.unparse(new)})")
            dump = ast.dump(ast.parse(mutated))
            if dump in seen:
                continue
            seen.add(dump)
            name = base = (f"{target} {function.name}+{node.lineno - function.lineno}: "
                           f"{ast.unparse(node)} -> {ast.unparse(new)}")
            k = 1
            while name in names:
                k += 1
                name = f"{base} #{k}"
            names.add(name)
            yield name, mutated


def _equivalent() -> dict[str, str]:
    """The listed survivors: a name line, then its reason on indented lines."""
    listed, name = {}, None
    text = EQUIVALENT.read_text(encoding="utf-8") if EQUIVALENT.exists() else ""
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if line[0].isspace():
            listed[name] += " " + line.strip()
        else:
            name = line
            listed[name] = ""
    return listed


def _passes(workdir: Path, args: list[str], limit: float | None = None) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(PYTEST + args, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=limit).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def _limit(workdir: Path, args: list[str]) -> float | None:
    """``LIMIT`` times the seconds an unmutated run of args takes; None if it fails."""
    start = time.perf_counter()
    return LIMIT * (time.perf_counter() - start) if _passes(workdir, args) else None


def main() -> int:
    listed, verdicts, began = _equivalent(), {}, time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="geb-mutants-") as tmp:
        workdir = Path(tmp) / "repo"
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        tier1 = _limit(workdir, TIER1)
        if tier1 is None:
            print("tier-1 fails before any mutation", file=sys.stderr)
            return 2
        for target, (path, _functions, tests, _constants) in TARGETS.items():
            original = (workdir / path).read_bytes()
            subset = _limit(workdir, list(tests))
            if subset is None:
                print(f"{target}: its tests fail before any mutation", file=sys.stderr)
                return 2
            print(f"{target}: limits {subset:.0f} s for its tests, {tier1:.0f} s for tier-1",
                  flush=True)
            for name, mutated in mutants(target):
                (workdir / path).write_bytes(mutated)
                start = time.perf_counter()
                if not _passes(workdir, list(tests), subset):
                    verdicts[name] = "subset"
                elif not _passes(workdir, TIER1, tier1):
                    verdicts[name] = "tier-1"
                else:
                    verdicts[name] = "listed" if name in listed else "SURVIVED"
                print(f"{verdicts[name]:8} {time.perf_counter() - start:6.1f}s  {name}", flush=True)
            (workdir / path).write_bytes(original)
    counts = {verdict: list(verdicts.values()).count(verdict)
              for verdict in ("subset", "tier-1", "listed", "SURVIVED")}
    print(f"{len(verdicts)} mutants in {time.perf_counter() - began:.0f} s: "
          f"{counts['subset']} killed by the target's tests, {counts['tier-1']} by tier-1, "
          f"{counts['listed']} listed as equivalent, {counts['SURVIVED']} unlisted survivors")
    stale = [name for name in listed if verdicts.get(name) != "listed"]
    for name in stale:
        print(f"listed but not a survivor: {name}")
    return 1 if counts["SURVIVED"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())
