"""Figure 10: long-read runtime vs number of materialized fragments.

The paper populates the cache with random reads (infinite budget), then
executes a maximal hevc read of an h264 original and compares VSS's
solver-based fragment selection against a dependency-naive greedy baseline
and reading the original directly.  Expected shape: more cached fragments
=> faster reads, with solver <= greedy <= original.  Beside the
wall-clock check at the largest cache, a host-independent one: at every
cache size the exact planner's estimated cost is not above either
baseline's.

Also includes the eta ablation: the same planner with eta = 1 (ignoring
the dependent-frame decode penalty).
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.bench.harness import Series, print_series
from repro.bench.workloads import RandomReadWorkload, populate_cache
from repro.core.cost import CostModel

DURATION = 5.0
CACHE_STEPS = (0, 3, 6, 12)


def _timed_read(session, mode):
    """Seconds taken by one maximal read, and its plan's estimated cost."""
    start = time.perf_counter()
    result = session.read(
        "video", 0.0, DURATION, codec="hevc", cache=False, mode=mode
    )
    return time.perf_counter() - start, result.plan.estimated_cost


def test_fig10_long_read_performance(tmp_path, calibration, vroad_clip, benchmark):
    engine = make_store(tmp_path, calibration, budget_multiple=10_000.0)
    session = engine.session()
    session.write("video", vroad_clip, codec="h264", qp=10, gop_size=30)
    workload = RandomReadWorkload(DURATION, vroad_clip.resolution, seed=4)

    series = {
        mode: Series(f"Fig10 {label}", "# materialized fragments", "read seconds")
        for mode, label in (
            ("solver", "VSS (solver)"),
            ("greedy", "Greedy"),
            ("original", "Read original"),
        )
    }
    eta_series = Series("Fig10 ablation: eta=1 solver", "# fragments", "read seconds")

    fragments = reads_done = 0  # materialized fragments beside the original
    for target in CACHE_STEPS:
        while fragments < target and reads_done <= 60:
            fragments = populate_cache(session, "video", workload, 1) - 1
            reads_done += 1
        costs = {}
        for mode in ("solver", "greedy", "original"):
            seconds, costs[mode] = _timed_read(session, mode)
            series[mode].add(fragments, seconds)
        # Hardware-independent: the workload caches no ROI crops, so every
        # interval of these full-frame reads has one cell; the greedy and
        # original plans are then runs the exact planner also priced, and
        # its estimate is never above theirs.
        for baseline in ("greedy", "original"):
            assert costs["solver"] <= costs[baseline] * (1 + 1e-12), (
                fragments,
                costs,
            )
        # eta ablation: same store, dependency penalty neutralized.
        default_cost = engine.cost_model
        engine.cost_model = CostModel(calibration, eta=1.0)
        try:
            eta_series.add(fragments, _timed_read(session, "solver")[0])
        finally:
            engine.cost_model = default_cost

    print_series(*series.values(), eta_series)

    final_solver = series["solver"].points[-1][1]
    final_original = series["original"].points[-1][1]
    print(
        f"fig10: solver vs read-original improvement at max cache: "
        f"{100 * (1 - final_solver / final_original):.1f}% "
        f"(paper reports up to 54%)"
    )
    benchmark.pedantic(
        _timed_read, args=(session, "solver"), rounds=1, iterations=1
    )
    # Shape: with a populated cache the solver must beat reading the original.
    assert final_solver <= final_original
    engine.close()
