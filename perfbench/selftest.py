"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, from the root of a checkout, that

1. BENCHMARK.json names exactly the workloads and metrics ``run.py`` prints,
   with the same units;
2. a one-second smoke run of each workload (five or six passes) passes its output
   checks;
3. a traced run of each workload agrees with the untraced one on its counts
   (commands and graph checks per pass), and two traced runs with different
   seeds agree exactly on every per-layer count metric;
4. in a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.

Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, PER_LAYER
from workloads import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(per-pass counts, result) of a one-second run; raises if the run fails."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counts = json.loads(next(line for line in lines if line.startswith("counts: "))[len("counts: "):])
    return {k: counts[k] for k in ("commands_per_pass", "graphs_per_pass")}, json.loads(lines[-1])


def check_spec() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def check_workload(workload: str) -> list[str]:
    problems = []
    counts, result = run(workload, 1, trace=0)
    if not result["correct"] or result["failed"] or set(result["metrics"]) != set(END_TO_END):
        problems.append(f"{workload}: smoke run {result}")
    traced_counts, first = run(workload, 1, trace=1)
    if traced_counts != counts:
        problems.append(f"{workload}: traced counts {traced_counts} != untraced {counts}")
    _, second = run(workload, 2, trace=1)
    for name, unit in PER_LAYER.items():
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if unit == "count" and a != b:
            problems.append(f"{workload}: count {name} differs between traced runs: {a} vs {b}")
    return problems


def check_outside_checkout() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    problems = check_spec() + check_outside_checkout()
    for workload in WORKLOADS:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
