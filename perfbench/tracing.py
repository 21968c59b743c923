"""Per-layer spans recorded from outside ``geb``.

``Tracer.install`` replaces the public functions each ``geb`` module imports
from another (``harness.eigenvalues_batch``, ``bounds.determinant_exact``,
``Graph.neighbor_masks`` ...) by wrappers that time every call. A span's
name is ``<layer>.<function>``, the layer being the module that defines the
function. Spans nest on a stack: a span's self time is its duration minus
the durations of the spans it encloses. Only per-name sums are kept.

Run as a script, this file is a traced ``geb`` command for fresh-process
workloads::

    python perfbench/tracing.py OUT.json -- report Bw

It times ``import geb.cli`` (numpy included), runs ``geb.cli.main`` under a
tracer and writes the tracer's sums to OUT.json, with ``post_s``, the time
the process spends after ``main`` on the eigvalsh comparison.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (module, attribute, span name). The module is the one that imports the
# function, so calls from inside the defining module are not double-counted.
CALL_SITES = (
    ("geb.cli", "run_verify", "harness.run_verify"),
    ("geb.cli", "run_conjectures", "harness.run_conjectures"),
    ("geb.cli", "run_equality", "harness.run_equality"),
    ("geb.cli", "bound_report", "bounds.bound_report"),
    ("geb.cli", "parse_graph6", "graph6.parse_graph6"),
    ("geb.cli", "enumerate_connected", "enumeration.enumerate_connected"),
    ("geb.harness", "bound_report", "bounds.bound_report"),
    ("geb.harness", "spectral_stats", "spectral.spectral_stats"),
    ("geb.harness", "energy_chain", "gruss.energy_chain"),
    ("geb.harness", "is_complete_bipartite", "graphs.is_complete_bipartite"),
    ("geb.bounds", "spectral_stats", "spectral.spectral_stats"),
    ("geb.bounds", "determinant_exact", "spectral.determinant_exact"),
    ("geb.bounds", "is_connected", "graphs.is_connected"),
    ("geb.bounds", "is_regular", "graphs.is_regular"),
    ("geb.bounds", "is_triangle_free", "graphs.is_triangle_free"),
    ("geb.bounds", "degree_sequence", "graphs.degree_sequence"),
    ("geb.bounds", "write_graph6", "graph6.write_graph6"),
    ("geb.bounds", "irregularity", "bounds.irregularity"),
)
# Solver entry points; their arguments and results are kept for the
# eigvalsh comparison.
EIG_SITES = (
    ("geb.harness", "eigenvalues_batch", "spectral.eigenvalues_batch"),
    ("geb.bounds", "eigenvalues", "spectral.eigenvalues"),
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.eig_graphs = 0         # graphs passed to the solver entry points
        # ((n, adj) per graph, (eigenvalues, energy) per spectrum) per solver call
        self.recorded: list[tuple[list, list]] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function so that each ``next`` is one span."""

        def traced(*args, **kwargs):
            step = self.wrap(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        import geb.cli
        import geb.graphs

        for module, attr, name in CALL_SITES:
            mod = importlib.import_module(module)
            on_result = self._count_classes if name.startswith("enumeration.") else None
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), on_result))
        for module, attr, name in EIG_SITES:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), self._note_eig))
        self._patch(geb.cli, "stream_corpus", self.wrap_iter("graph6.stream_corpus",
                                                              geb.cli.stream_corpus))
        self._patch(geb.graphs.Graph, "neighbor_masks",
                    self.wrap("graphs.neighbor_masks", geb.graphs.Graph.neighbor_masks))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_classes(self, args, result) -> None:
        self.calls["enumeration.classes"] += len(result)

    def _note_eig(self, args, result) -> None:
        graphs = args[0] if isinstance(args[0], list) else [args[0]]
        spectra = result if isinstance(result, list) else [result]
        self.eig_graphs += len(graphs)
        self.recorded.append(([(g.n, g.adj) for g in graphs], [(s.values, s.energy) for s in spectra]))

    # -- results -------------------------------------------------------------

    def eigvalsh_comparison(self) -> dict[str, float]:
        """Time ``numpy.linalg.eigvalsh`` on the recorded solver batches.

        Stacks are grouped by vertex count as the solver groups them; only
        the eigvalsh calls are timed. Also returns the largest eigenvalue
        and energy differences between the two solvers.
        """
        import numpy as np

        from reference import adjacency_stack, group_by_n

        seconds = 0.0
        max_err = 0.0
        max_energy_err = 0.0
        for graphs, spectra in self.recorded:
            for n, idx in group_by_n(graphs).items():
                stack = adjacency_stack(n, [graphs[i][1] for i in idx])
                start = time.perf_counter()
                vals = np.linalg.eigvalsh(stack)
                seconds += time.perf_counter() - start
                vals = vals[:, ::-1]
                mine = np.array([spectra[i][0] for i in idx])
                max_err = max(max_err, float(np.abs(vals - mine).max()))
                energies = np.array([spectra[i][1] for i in idx])
                max_energy_err = max(max_energy_err,
                                     float(np.abs(np.abs(vals).sum(axis=1) - energies).max()))
        return {"eigvalsh_s": seconds, "max_abs_err": max_err, "max_energy_err": max_energy_err}

    def sums(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "eig_graphs": self.eig_graphs}


def merge_sums(into: dict, part: dict) -> dict:
    """Add one ``Tracer.sums()`` dict into another (``into`` may be empty)."""
    for key in ("self_s", "total_s", "calls"):
        bucket = into.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    into["eig_graphs"] = into.get("eig_graphs", 0) + part["eig_graphs"]
    return into


def _traced_command(out: Path, argv: list[str]) -> int:
    start = time.perf_counter()
    import geb.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", geb.cli.main)(argv) if argv else 0
    finished = time.perf_counter()
    result = tracer.sums()
    result["import_s"] = import_s
    result["eig"] = tracer.eigvalsh_comparison()
    result["post_s"] = time.perf_counter() - finished
    out.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracing.py OUT.json -- [geb arguments]")
    sys.exit(_traced_command(Path(sys.argv[1]), sys.argv[3:]))
