"""Figure 16: full-video read runtime vs storage budget, LRU vs LRU_VSS.

Populates the cache with random short reads under a bounded budget using
either plain LRU or the VSS policy, then times a read of the entire video.
Paper shape: LRU_VSS's anti-fragmentation and redundancy offsets leave a
more useful cache, so the final read is faster at every budget.

Also includes the DESIGN.md gamma/zeta ablation at one budget point.
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.bench.harness import Series, print_series
from repro.bench.workloads import RandomReadWorkload, populate_cache

DURATION = 5.0
BUDGETS = (2.0, 4.0, 8.0)
POPULATE_READS = 12


def _run(tmp_path, calibration, clip, policy, budget, gamma=None, zeta=None):
    engine = make_store(
        tmp_path / f"{policy}-{budget}-{gamma}", calibration,
        cache_policy=policy, budget_multiple=budget,
    )
    if gamma is not None:
        engine.cache.gamma = gamma
    if zeta is not None:
        engine.cache.zeta = zeta
    session = engine.session()
    session.write("video", clip, codec="h264", qp=10, gop_size=30)
    workload = RandomReadWorkload(DURATION, clip.resolution, seed=17)
    fragments = populate_cache(
        session, "video", workload, POPULATE_READS, short=True
    )
    print(f"fig16: {policy} budget x{budget}: {fragments} fragments cached")
    start = time.perf_counter()
    result = session.read("video", 0.0, DURATION, codec="raw", cache=False)
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed, result.plan.estimated_cost


def test_fig16_eviction_policy(tmp_path, calibration, vroad_clip, benchmark):
    lru = Series("Fig16 LRU", "budget multiple", "full-read seconds")
    vss_policy = Series("Fig16 LRU_VSS", "budget multiple", "full-read seconds")
    lru_costs, vss_costs = [], []
    for budget in BUDGETS:
        elapsed, cost = _run(tmp_path, calibration, vroad_clip, "lru", budget)
        lru.add(budget, elapsed)
        lru_costs.append(cost)
        elapsed, cost = _run(tmp_path, calibration, vroad_clip, "vss", budget)
        vss_policy.add(budget, elapsed)
        vss_costs.append(cost)
    print_series(lru, vss_policy)

    # Ablation: weight sweep at the middle budget.
    for gamma, zeta in ((0.0, 1.0), (2.0, 0.0), (4.0, 1.0)):
        elapsed, _cost = _run(
            tmp_path, calibration, vroad_clip, "vss", BUDGETS[1],
            gamma=gamma, zeta=zeta,
        )
        print(f"fig16 ablation gamma={gamma} zeta={zeta}: {elapsed:.3f}s")

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Shape: over the sweep, LRU_VSS leaves a cache from which the final
    # read plans no worse than under plain LRU.  Planned cost is
    # deterministic (eviction decisions are), unlike wall time.
    assert sum(vss_costs) <= sum(lru_costs) * 1.05
