"""Smoke test: every workload at ``--scale tiny``, traced, in one process.

Collected by the tier-1 ``pytest`` run.  It checks the shape of what the
suite emits (names, counts, determinism of the op lists) — never a speed.
"""

from __future__ import annotations

import gc
import json
import re

import numpy as np
import pytest

from .cli import WORKLOAD_NAMES, report
from .harness import ROOT
from .ops import cold_mix, follow_schedule, hot_ops, oplist_sha256
from .workloads import SCALES, run_workload

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def _thaw_heap():
    """The runner freezes the heap before timing; give it back afterwards."""
    yield
    gc.unfreeze()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_every_declared_metric(workload, declared):
    # Rounds whose outcome counts differ raise NondeterminismError here;
    # the traced round is compared with the untraced ones as well.
    result = run_workload(workload, seed=0, seconds=0.0, scale="tiny", trace=True)
    assert result["rounds"] >= 1 and result["ingest_rounds"] >= 1
    # Failed ops are accounted for, not forbidden; wrong outputs are.
    assert result["wrong_outputs"] == 0, result["failures"]
    assert result["failed"] == sum(f["rounds"] for f in result["failures"])
    assert all(f["class"] and f["message"] for f in result["failures"])
    assert result["attempted"] >= result["read_samples"] > 0

    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert set(result["end_to_end"]) == end_to_end
    assert set(result["per_layer"]) == per_layer
    assert all(NAME.fullmatch(name) for name in end_to_end | per_layer)
    assert all(value > 0 for value in result["end_to_end"].values())
    assert result["per_layer"]["trace.spans"] > 0
    assert result["per_layer"]["trace.overhead_ratio"] > 0

    for trace, names in ((False, end_to_end), (True, per_layer)):
        last = json.loads(report(result, trace).splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == names
        assert last["correct"] is True

    assert {w["name"] for w in declared["workloads"]} == set(WORKLOAD_NAMES)


def _oplists(seed: int) -> list[str]:
    hot, cold, follow = (SCALES["full"][key] for key in ("hot", "cold", "follow"))
    names = [f"cam{k}" for k in range(hot["cameras"])]
    return [
        oplist_sha256(
            hot_ops(
                np.random.default_rng(seed),
                names,
                hot["seconds"],
                hot["hot_cameras"],
                hot["hot_seconds"],
                hot["cool_seconds"],
                hot["ops"],
            )
        ),
        oplist_sha256(
            cold_mix(
                np.random.default_rng(seed), "cam0", cold["seconds"], cold["reps"]
            )
        ),
        oplist_sha256(
            follow_schedule(
                np.random.default_rng(seed),
                ["cam0", "cam1"],
                follow["ticks"],
                follow["lookback_every"],
                follow["lookback_seconds"],
                follow["readbacks"],
            )
        ),
    ]


def test_seed_decides_the_op_list():
    assert _oplists(3) == _oplists(3)
    assert all(a != b for a, b in zip(_oplists(3), _oplists(4)))
