"""A/A check: do two sets of runs of the *same* code agree within the bounds?

``python3 -m benchmarks.vssbench.aa --runs 5`` interleaves two sets of
full-suite runs (A B A B ...), run ``i`` of either set using seed ``i``.
For every workload/metric pair it prints the gap — how much worse set B's
median is than set A's, as a share of A's median (negative when B happened
to be better) — next to the metric's bound from BENCHMARK.json, and exits
1 when a gap exceeds its bound, when the two sets did not fail the same
number of ops, or when a run reported a wrong output.

It also prints each set's interquartile spread (as a share of its median),
of the reported values and of the plain wall-clock values the runs print
next to them.  The driver that accepts the benchmark holds the spread of
every metric but ``setup_s`` to the bound as well; when only that rule is
broken the exit code is 2.  The document it writes, raw values included,
is committed as ``AA_BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


RAW_LINE = re.compile(r"^raw_wall_clock\.(\S+) = (\S+)$", re.MULTILINE)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark invocation; returns its last-line JSON document, with
    the plain wall-clock values it printed under ``raw``."""
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-500:]}"
        )
    document = json.loads(done.stdout.strip().splitlines()[-1])
    document["raw"] = {
        name: float(value) for name, value in RAW_LINE.findall(done.stdout)
    }
    return document


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.vssbench.aa")
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=None, help="write the JSON document here"
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    values: dict = {
        side: {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
        for side in "AB"
    }
    raw_values = json.loads(json.dumps(values))
    failed_ops = {side: {w: 0 for w in workloads} for side in "AB"}
    incorrect = 0
    began = time.time()
    for index in range(args.runs):
        for side in "AB":
            for workload in workloads:
                document = run_once(
                    spec["command"],
                    workload,
                    args.first_seed + index,
                    spec["run_seconds"],
                )
                failed_ops[side][workload] += document["failed"]
                incorrect += not document["correct"]
                for name, metric in document["metrics"].items():
                    values[side][workload][name].append(metric["value"])
                    raw_values[side][workload][name].append(
                        document["raw"][name]
                    )
        print(
            f"pair {index + 1}/{args.runs} done "
            f"({time.time() - began:.0f} s)",
            file=sys.stderr,
        )

    rows = []
    violations = incorrect
    wide = 0
    for workload in workloads:
        if failed_ops["A"][workload] != failed_ops["B"][workload]:
            violations += 1
            print(f"{workload}: the sets failed different numbers of ops")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = values["A"][workload][name]
            b = values["B"][workload][name]
            gap = worsening(
                statistics.median(a), statistics.median(b), metric["better"]
            )
            bad = abs(gap) > bound
            violations += bad
            spreads = (spread(a), spread(b))
            too_wide = name != "setup_s" and max(spreads) > bound
            wide += too_wide
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "bound": bound,
                    "gap": gap,
                    "spread_a": spreads[0],
                    "spread_b": spreads[1],
                    "raw_spread_a": spread(raw_values["A"][workload][name]),
                    "raw_spread_b": spread(raw_values["B"][workload][name]),
                    "median_a": statistics.median(a),
                    "median_b": statistics.median(b),
                    "ok": not bad,
                    "spread_ok": not too_wide,
                }
            )
    print(f"{'workload':18} {'metric':26} {'bound':>6} {'gap':>8} "
          f"{'spreadA':>8} {'spreadB':>8} {'rawA':>8} {'rawB':>8}")
    for row in rows:
        print(
            f"{row['workload']:18} {row['metric']:26} {row['bound']:6.3f} "
            f"{row['gap']:+8.4f} {row['spread_a']:8.4f} {row['spread_b']:8.4f} "
            f"{row['raw_spread_a']:8.4f} {row['raw_spread_b']:8.4f}"
            f"{'' if row['ok'] else '  GAP > BOUND'}"
            f"{'' if row['spread_ok'] else '  SPREAD > BOUND'}"
        )
    document = {
        "runs_per_set": args.runs,
        "first_seed": args.first_seed,
        "run_seconds": spec["run_seconds"],
        "failed_ops": failed_ops,
        "incorrect_runs": incorrect,
        "violations": violations,
        "spreads_over_bound": wide,
        "pairs": rows,
        "values": values,
        "raw_wall_clock_values": raw_values,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(document, indent=1) + "\n")
    return 1 if violations else 2 if wide else 0


if __name__ == "__main__":
    raise SystemExit(main())
