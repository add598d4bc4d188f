"""Command line: one workload per invocation, in a fresh interpreter.

``main`` first re-executes itself with ``PYTHONHASHSEED=0``,
``PYTHONPATH=src`` and a pinned malloc threshold, so hash-ordered
containers, imports and heap layout are the same on every run; the
re-executed process does the work and prints the result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = (
    "cold_mixed_reads",
    "hot_stream_reads",
    "remote_streams",
    "ingest_follow",
)
#: Carries the launcher's start time (CLOCK_MONOTONIC is system-wide)
#: across the re-exec, so ``setup_s`` starts at the first interpreter.
START_ENV = "VSSBENCH_T0"
#: glibc grows its mmap threshold as large blocks are freed and gives every
#: thread an arena of its own, so whether a decoded GOP lives on the heap
#: or in its own mapping — and with it the high-water mark of resident
#: memory — depends on allocation history and thread timing.  Pinning the
#: threshold (4 MiB: a decoded GOP stays on the heap, whole videos and
#: multi-second answers get mappings) and using one arena makes
#: ``peak_rss_mb`` repeat to about 1% without moving the timings.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(4 << 20), "MALLOC_ARENA_MAX": "1"}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/vssbench/run.py",
        description="Run one vssbench workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="how long the timed rounds run (default %(default)s)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1 adds one traced round and prints the per-layer metrics "
        "instead of the end-to-end ones",
    )
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    return parser.parse_args(argv)


def report(result: dict, trace: bool) -> str:
    """Human-readable block followed by the one-line JSON result.

    Which metrics are printed, and their units, is what BENCHMARK.json
    declares.  ``correct`` says that no op delivered a wrong output (frame
    count, bytes, content); ops that raised or fell short of their quality
    tolerance are counted in ``failed`` only.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = declared["per_layer" if trace else "end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"oplist {result['oplist_sha256'][:16]}",
        f"rounds {result['rounds']} ingest_rounds {result['ingest_rounds']} "
        f"read_samples {result['read_samples']}",
        f"round_walls_s {result['round_walls_s']}",
        f"ops_attempted {result['attempted']} ops_failed {result['failed']}",
    ]
    for failure in result["failures"]:
        lines.append(
            f"  failed op {failure['op']} ({failure['kind']}) in "
            f"{failure['rounds']} round(s): "
            f"{failure['class']}: {failure['message']}"
        )
    lines.append(f"round_counts {json.dumps(result['round_counts'])}")
    lines.append(
        f"decode_counts over rounds {json.dumps(result['decode_counts'])}"
    )
    lines.append(f"host_slowdown {result['host_slowdown']!r}")
    for name, value in result["raw_wall_clock"].items():
        lines.append(f"raw_wall_clock.{name} = {value!r}")
    metrics = {}
    for row in table:
        name, unit = row["name"], row["unit"]
        value = values[name]
        lines.append(f"{name} = {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    lines.append(
        json.dumps(
            {
                "correct": result["wrong_outputs"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"vssbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0" or START_ENV not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0", **MALLOC_ENV)
        env[START_ENV] = repr(started)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, str(HERE / "run.py"), *argv],
            env,
        )
    from .harness import NondeterminismError
    from .workloads import run_workload

    try:
        result = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            scale=args.scale,
            trace=bool(args.trace),
            t0=float(os.environ[START_ENV]),
        )
    except NondeterminismError as exc:
        print(f"vssbench: {exc}", file=sys.stderr)
        return 3
    print(report(result, bool(args.trace)))
    return 0
