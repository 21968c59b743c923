"""The benchmark tracer's patch sites still resolve against the package.

``perfbench/tracing.py`` replaces functions by (module, name) and wraps
``Graph.neighbor_masks`` on the class. A rename or a change of kind there
breaks ``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import geb.cli
import geb.graphs

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
