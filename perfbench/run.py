"""geb benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload corpus8 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; geb is imported from that checkout's
``src``. The command sets up the workload ``SETUPS`` times in fresh
processes (the median is ``setup_s``) and measures it in one more fresh
process, between the first and the second half of the set-ups, for
``--seconds``; every output is checked (see ``workloads.py``). Times are
reported at a reference speed: each set-up and each command is bracketed by
runs of a fixed calibration mix, and its wall time is scaled by how much
slower or faster than nominal the mix ran around it (see ``NOTES.md``).
Informational lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The exit code is 0 when every output check
passed, 1 when one failed, 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CAL_NOMINAL_S, CORPUS, ROOT, SRC, WORKLOADS, calibrate, child_env

SETUPS = 6
DEADLINE_S = 170.0      # every run ends well inside the 180 s allowed
WORKLOADS_PY = Path(__file__).resolve().parent / "workloads.py"

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "cmd_latency_s_p50": "s",
    "cmd_latency_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    "spectral.eig_s": "s",
    "spectral.eig_graphs_per_call": "count",
    "spectral.eigvalsh_s": "s",
    "spectral.eig_over_eigvalsh": "ratio",
    "spectral.max_abs_err": "abs",
    "spectral.det_exact_s": "s",
    "spectral.stats_calls_per_graph": "count",
    "graphs.predicates_s": "s",
    "graphs.neighbor_masks_per_graph": "count",
    "bounds.report_self_s": "s",
    "bounds.irregularity_s": "s",
    "gruss.chain_s": "s",
    "gruss.chains_per_graph": "count",
    "graph6.encode_calls_per_graph": "count",
    "graph6.decode_s": "s",
    "enumeration.enumerate_s": "s",
    "enumeration.classes": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "harness.self_s": "s",
    "harness.chunks": "count",
    "harness.order_drift": "abs",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "src.lines": "count",
}


class ChildFailed(Exception):
    pass


def run_child(argv: list[str], deadline: float) -> str:
    """Run one benchmark process in its own process group; return its stdout.

    On timeout or interrupt the whole group (geb commands) is
    killed and reaped before the exception propagates.
    """
    proc = subprocess.Popen([sys.executable, str(WORKLOADS_PY), *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it. Below 20 samples no percentile above the
    median has ten beyond it, and the median is reported instead."""
    ordered = sorted(samples)
    if len(ordered) < 20:
        return statistics.median(ordered), 50.0, len(ordered) // 2
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), 10


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    rates = [g / w for g, w in zip(result["pass_graphs"], result["pass_walls"])]
    raw_rates = [g / w for g, w in zip(result["pass_graphs"], result["raw_pass_walls"])]
    latency = result["latencies"]
    tail_value, tail_pct, beyond = tail(latency)
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else [rates[0]] * 3
    print(f"graphs_per_s: median {statistics.median(rates):.1f}, quartiles "
          f"{quartiles[0]:.1f} .. {quartiles[2]:.1f}, over {len(rates)} passes; "
          f"unscaled median {statistics.median(raw_rates):.1f}")
    print(f"speed scale per command: median {statistics.median(result['scales']):.3f}, "
          f"range {min(result['scales']):.3f} .. {max(result['scales']):.3f}")
    print(f"cmd_latency_s_tail: p{tail_pct:.1f} of {len(latency)} commands, {beyond} beyond it")
    print(f"setup_s: {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "setup_s": statistics.median(setups),
        "graphs_per_s": statistics.median(rates),
        "cmd_latency_s_p50": statistics.median(latency),
        "cmd_latency_s_tail": tail_value,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "geb" / "__init__.py", CORPUS) if not p.is_file()]
    if missing:
        print(f"error: {missing[0]} not found; run from the root of a geb checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # One CPU for the calibrations and the work they scale (every workload
    # runs one geb process at a time): the host's vCPUs can run at different
    # speeds at the same moment.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = [args.workload, str(args.seed), str(workdir)]
    def set_ups(count: int) -> list[float]:
        """Wall times of ``count`` set-ups at the reference speed, each
        scaled by the calibrations just before and after it."""
        cal = [calibrate()]
        times = []
        for _ in range(count):
            start = time.perf_counter()
            run_child(["setup", *common], deadline)
            wall = time.perf_counter() - start
            cal.append(calibrate())
            times.append(wall * CAL_NOMINAL_S / ((cal[-2] + cal[-1]) / 2))
        return times

    try:
        # Half the set-ups before the measurement and half after, so that
        # their median samples the machine at both ends of the run.
        setups = set_ups(SETUPS // 2)
        out = run_child(["measure", *common, str(args.seconds), str(args.trace)], deadline)
        setups += set_ups(SETUPS - SETUPS // 2)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(out.strip().splitlines()[-1])
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    if args.trace:
        values = result["layers"]
        units = PER_LAYER
    else:
        values = end_to_end(result, setups)
        units = END_TO_END
    counts = {k: result[k] for k in ("passes", "commands_per_pass", "graphs_per_pass")}
    print(f"counts: {json.dumps(counts)}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
