"""The benchmark tracer's patch sites still resolve against the package.

``perfbench/tracing.py`` replaces functions by (module, name) and wraps
``Graph.neighbor_masks`` on the class. A rename or a change of kind there
breaks ``perfbench/run.py --trace 1`` without failing any other test.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import geb.cli
import geb.graphs

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its top level imports only the standard library
    return module


def test_tracer_patch_sites_resolve():
    tracing = load_tracing()
    for module, attr, _span in tracing.CALL_SITES + tracing.EIG_SITES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(geb.cli.stream_corpus)
    assert inspect.isfunction(vars(geb.graphs.Graph)["neighbor_masks"])


def unread_imports(path):
    """The names a module imports on a ``# noqa: F401`` statement and never reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names} - read


def test_unread_imports_are_tracer_sites():
    """Each import kept only for the tracer names a site; once a site goes, so can its import."""
    tracing = load_tracing()
    sites = {(module, attr) for module, attr, _span in tracing.CALL_SITES + tracing.EIG_SITES}
    sites.add(("geb.cli", "stream_corpus"))
    kept = {("geb." + path.stem, name) for path in (ROOT / "src" / "geb").glob("*.py")
            if path.name != "__init__.py" for name in unread_imports(path)}
    assert kept
    assert kept <= sites, sorted(kept - sites)
