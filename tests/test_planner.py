"""The read planner's pass against brute force, and the behaviours it
must keep (paper section 3.1, Figure 4).

A plan picks, per transition interval, one *minimal cover* of the
interval's spatial cells; look-back couples an interval only with the
one before it.  :func:`kernel_oracles.plan_brute_force` prices every run
of minimal covers, and the pass must reach its least cost.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import minimal_covers, plan_brute_force, plan_original
from repro.core.cost import CostModel
from repro.core.read_planner import (
    _cheapest_run,
    _greedy_choice,
    _Interval,
    _minimal_covers,
    _price,
    plan_read,
)
from repro.core.records import Fragment, GopRecord, PhysicalVideo
from repro.core.specs import ReadSpec
from repro.errors import QualityError
from repro.vbench.calibrate import Calibration


def _production(problem: list[dict]):
    """The oracle's problem as the planner's inputs: one object per
    fragment key (shared across intervals, as the planner's fragments
    are), and each cell as the list of objects covering it."""
    objects: dict = {}
    intervals, interval_cells, costs, lookbacks = [], [], [], []
    for index, interval in enumerate(problem):
        fragments = [objects.setdefault(k, object()) for k in interval["fragments"]]
        intervals.append(_Interval(float(index), float(index + 1), fragments))
        interval_cells.append(
            [
                (None, [objects[k] for k in interval["fragments"] if k in cell])
                for cell in interval["cells"]
            ]
        )
        costs.append([interval["cost"][k] for k in interval["fragments"]])
        lookbacks.append([interval["lookback"][k] for k in interval["fragments"]])
    return intervals, interval_cells, costs, lookbacks


def _as_keys(problem: list[dict], selected) -> tuple:
    return tuple(
        tuple(interval["fragments"][p] for p in positions)
        for interval, positions in zip(problem, selected)
    )


def _solve(problem: list[dict]) -> tuple[float, tuple]:
    """The pass's choice on ``problem``: its cost and chosen keys."""
    intervals, interval_cells, costs, lookbacks = _production(problem)
    selected = _cheapest_run(intervals, interval_cells, costs, lookbacks)
    return _price(intervals, selected, costs, lookbacks), _as_keys(problem, selected)


def _interval(cost: dict, lookback: dict | None = None, cells=None) -> dict:
    """One interval over ``cost``'s keys; by default a single cell that
    every key covers, and no look-back."""
    keys = list(cost)
    return {
        "fragments": keys,
        "cells": cells if cells is not None else [set(keys)],
        "cost": cost,
        "lookback": {k: 0.0 for k in keys} | (lookback or {}),
    }


@st.composite
def _problems(draw) -> list[dict]:
    """1-5 intervals over 1-6 fragments and 1-4 cells.  Each cell draws
    its covering fragments independently, so covers overlap; look-backs
    are zero or positive."""
    num_fragments = draw(st.integers(1, 6))
    num_cells = draw(st.integers(1, 4))
    cost = st.floats(0.0, 10.0, allow_nan=False)
    lookback = st.one_of(st.just(0.0), st.floats(0.001, 10.0, allow_nan=False))
    problem = []
    for _ in range(draw(st.integers(1, 5))):
        keys = draw(
            st.lists(
                st.integers(0, num_fragments - 1), min_size=1, unique=True
            ).map(sorted)
        )
        cells = [
            set(draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)))
            for _ in range(num_cells)
        ]
        # Every key the interval lists covers at least one of its cells,
        # as every fragment overlapping a read's ROI does.
        for key in keys:
            if not any(key in cell for cell in cells):
                cells[draw(st.integers(0, num_cells - 1))].add(key)
        problem.append(
            {
                "fragments": keys,
                "cells": cells,
                "cost": {k: draw(cost) for k in keys},
                "lookback": {k: draw(lookback) for k in keys},
            }
        )
    return problem


@settings(deadline=None)
@given(_problems())
def test_pass_matches_brute_force(problem):
    """The pass's cost equals the least over every run of minimal
    covers; where that least is unique by more than 1e-9 (relative),
    the pass chooses the same fragments."""
    cost, chosen = _solve(problem)
    runs = plan_brute_force(problem)
    best, best_run = runs[0]
    assert cost == pytest.approx(best, rel=1e-9, abs=1e-12)
    unique = len(runs) == 1 or runs[1][0] - best > 1e-9 * max(best, 1e-12)
    if unique:
        assert chosen == best_run


@settings(deadline=None)
@given(_problems())
def test_minimal_covers_match_enumeration(problem):
    """Branching on the first uncovered cell finds every irredundant
    cover exactly once: the same sets as enumerating all subsets."""
    for interval in problem:
        positions = [
            frozenset(interval["fragments"].index(k) for k in cell)
            for cell in interval["cells"]
        ]
        found = _minimal_covers(positions)
        assert len(found) == len(set(found))
        keys = {frozenset(interval["fragments"][p] for p in c) for c in found}
        expected = minimal_covers(interval["fragments"], interval["cells"])
        assert keys == {frozenset(c) for c in expected}


def test_recorded_cold_mixed_reads_instance():
    """A plan the branch-and-bound solver got wrong (it bounded a
    fragment covering two cells once per cell): f3 in all three
    intervals, 0.128794, beats f24 first, 0.130898."""
    problem = [
        _interval({"f3": 0.006424, "f24": 0.002215}, {"f3": 0.018662}),
        _interval({"f3": 0.097283}, {"f3": 0.024977}),
        _interval(
            {"f3": 0.006424, "f28": 0.003031},
            {"f3": 0.012348},
            cells=[{"f3"}, {"f3", "f28"}],
        ),
    ]
    cost, chosen = _solve(problem)
    # The recorded costs are rounded to 6 places, so their sums may be
    # 1e-6 off the recorded totals.
    assert cost == pytest.approx(0.128794, abs=2e-6)
    assert chosen == (("f3",), ("f3",), ("f3",))
    runs = dict((run, total) for total, run in plan_brute_force(problem))
    assert runs[(("f24",), ("f3",), ("f3",))] == pytest.approx(0.130898, abs=2e-6)


def _alternating(intervals: int) -> list[dict]:
    """Fragment a costs 10 per interval; b costs 8 but pays a look-back
    of 7 whenever it was not chosen in the interval before."""
    return [_interval({"a": 10.0, "b": 8.0}, {"b": 7.0}) for _ in range(intervals)]


def test_continuity_preferred():
    """Over three intervals the look-back outweighs b's saving:
    all-a costs 30, all-b 24 + 7 = 31."""
    cost, chosen = _solve(_alternating(3))
    assert cost == pytest.approx(30.0)
    assert chosen == (("a",),) * 3


def test_lookback_amortised_over_long_run():
    """Over six intervals b's one look-back amortises: all-b costs
    48 + 7 = 55 against all-a's 60, and b is never re-entered."""
    cost, chosen = _solve(_alternating(6))
    assert cost == pytest.approx(55.0)
    assert chosen == (("b",),) * 6


def test_waived_lookback_keeps_the_fragment():
    """a is the only choice first; staying on a (3, look-back waived)
    beats switching to the cheaper b (1 + 5)."""
    problem = [
        _interval({"a": 0.0}, {"a": 5.0}),
        _interval({"a": 3.0, "b": 1.0}, {"a": 5.0, "b": 5.0}),
    ]
    cost, chosen = _solve(problem)
    assert cost == pytest.approx(5.0 + 3.0)
    assert chosen == (("a",), ("a",))


def test_equal_costs_go_to_the_first_fragment():
    """Ties keep the order states are ranked in: summed transcode cost,
    then fragment order, the first of equal totals winning."""
    problem = [_interval({"a": 2.0, "b": 1.0, "c": 1.0})] * 2
    assert _solve(problem) == (pytest.approx(2.0), (("b",), ("b",)))


def test_fragment_without_a_cell_is_never_chosen():
    """In interval 0, l must be chosen (it alone covers the second
    cell) and then also covers x's only cell.  Adding x would waive its
    look-back in interval 1, but x would supply no cell, so the reader
    would never decode it: states are minimal covers, and the plan pays
    the look-back it runs."""
    problem = [
        _interval(
            {"l": 1.0, "r": 1.0, "x": 1.0},
            {"x": 0.5},
            cells=[{"l", "x"}, {"l"}, {"r"}],
        ),
        _interval({"x": 1.0}, {"x": 4.0}),
    ]
    cost, chosen = _solve(problem)
    # With x held redundantly: 3 + 0.5 + 1 = 4.5; as run: 2 + 1 + 4 = 7.
    assert chosen == (("l", "r"), ("x",))
    assert cost == pytest.approx(7.0)


def test_greedy_ignores_lookback_and_is_charged_for_it():
    """Figure 10's baseline picks per cell by transcode cost alone; its
    estimate still charges every look-back its choice incurs."""
    intervals, interval_cells, costs, lookbacks = _production(_alternating(3))
    selected = _greedy_choice(intervals, interval_cells, costs)
    assert _as_keys(_alternating(3), selected) == (("b",),) * 3
    assert _price(intervals, selected, costs, lookbacks) == pytest.approx(31.0)


# ----------------------------------------------------------------------
# plan_read over fragment records
# ----------------------------------------------------------------------
WIDTH, HEIGHT = 64, 36


class _AcceptAll:
    """A quality model that admits every fragment."""

    def acceptable(self, physical, epsilon_db, pixel_format) -> bool:
        return True


def _fragment(pid: int, start: int, end: int, roi=None, original=False, mse=1.0):
    width, height = (WIDTH, HEIGHT) if roi is None else (roi[2] - roi[0], roi[3] - roi[1])
    physical = PhysicalVideo(
        pid, 1, "h264", "rgb", width, height, 30.0, 10, roi,
        float(start), float(end), 0.0 if original else mse, original, True,
    )
    gops = [
        GopRecord(100 * pid + t, pid, t, float(t), float(t + 1), 30, "I" + "P" * 29, 4000, "p")
        for t in range(start, end)
    ]
    return Fragment(physical, gops)


def _plan(fragments, roi, start=0.0, end=2.0, mode="solver"):
    original = _fragment(1, 0, 4, original=True).physical
    return plan_read(
        ReadSpec("v", start, end, codec="raw", roi=roi),
        fragments,
        original,
        CostModel(Calibration.default()),
        _AcceptAll(),
        mode=mode,
    )


def test_uncovered_cell_raises_quality_error():
    """A crop covering only the left half of the ROI leaves a cell no
    fragment supplies."""
    left = _fragment(2, 0, 2, roi=(0, 0, 32, 36))
    with pytest.raises(QualityError, match="no fragment covers cell"):
        _plan([left], roi=(0, 0, 64, 36))


def test_uncovered_interval_raises_quality_error():
    """Fragments with a gap between them leave an interval uncovered."""
    first, last = _fragment(2, 0, 1), _fragment(3, 2, 3)
    with pytest.raises(QualityError, match="no fragment covers interval"):
        _plan([first, last], roi=None, end=3.0)


def test_every_chosen_fragment_supplies_a_cell_and_is_priced():
    """Over overlapping crops each mode's choices each own a cell, and
    the solver's estimate is what those choices cost: transcode at the
    crop's share of the ROI plus the look-back of every choice that
    charges one.  The solver's estimate is never above the baselines'."""
    roi = (0, 0, 48, 36)
    fragments = [
        _fragment(1, 0, 4, original=True),
        _fragment(2, 0, 2, roi=(0, 0, 24, 36)),
        _fragment(3, 1, 3, roi=(16, 0, 48, 36)),
        _fragment(4, 0, 3, roi=(0, 0, 48, 18)),
    ]
    cost_model = CostModel(Calibration.default())
    plans = {m: _plan(fragments, roi, end=3.0, mode=m) for m in ("solver", "greedy", "original")}
    for plan in plans.values():
        assert all(choice.cells for choice in plan.choices)
    solver = plans["solver"]
    assert solver.estimated_cost == pytest.approx(_priced(solver, roi, cost_model))
    assert solver.estimated_cost <= plans["greedy"].estimated_cost + 1e-12
    assert solver.estimated_cost <= plans["original"].estimated_cost + 1e-12


def _priced(plan, roi, cost_model) -> float:
    """What a plan's choices cost: each at its crop's share of the ROI
    for its interval, plus the look-back of every choice that charges
    one."""
    total = 0.0
    for choice in plan.choices:
        crop = choice.fragment.physical.roi_or((0, 0, WIDTH, HEIGHT))
        width = min(crop[2], roi[2]) - max(crop[0], roi[0])
        height = min(crop[3], roi[3]) - max(crop[1], roi[1])
        share = width * height / ((roi[2] - roi[0]) * (roi[3] - roi[1]))
        total += cost_model.transcode_cost(
            choice.fragment, choice.duration, plan.target, plan.target_fps, share
        )
        if choice.lookback_charged:
            total += cost_model.lookback_cost(choice.fragment, choice.start)
    return total


@st.composite
def _crops(draw) -> list:
    """The original plus 1-5 crops over parts of [0, 3) s, each with its
    own rectangle and quality, so cells are covered by several crops and
    a later, better pick can take an earlier pick's cells."""
    fragments = [_fragment(1, 0, 4, original=True)]
    for pid in range(2, 2 + draw(st.integers(1, 5))):
        start = draw(st.integers(0, 2))
        end = draw(st.integers(start + 1, 3))
        x0 = draw(st.integers(0, 40))
        y0 = draw(st.integers(0, 28))
        x1 = draw(st.integers(x0 + 4, WIDTH))
        y1 = draw(st.integers(y0 + 4, HEIGHT))
        mse = draw(st.sampled_from([0.25, 1.0, 4.0]))
        fragments.append(_fragment(pid, start, end, roi=(x0, y0, x1, y1), mse=mse))
    return fragments


@settings(deadline=None)
@given(fragments=_crops(), roi=st.sampled_from([(0, 0, 48, 36), (8, 4, 64, 36), (0, 0, 64, 36)]))
def test_greedy_prices_the_choices_it_returns(fragments, roi):
    """Figure 10's greedy baseline, over random overlapping crops: its
    estimate is exactly what its choices cost, so no pick that owns no
    cell (and that the reader would never decode) is paid for; every
    choice owns a cell."""
    cost_model = CostModel(Calibration.default())
    plan = _plan(fragments, roi, end=3.0, mode="greedy")
    assert all(choice.cells for choice in plan.choices)
    assert plan.estimated_cost == pytest.approx(_priced(plan, roi, cost_model), rel=1e-12)


@st.composite
def _original_reads(draw):
    """The original split into 1-4 fragments (an evicted GOP leaves a
    gap), crops the mode must ignore, and a random window, ROI, size,
    frame rate and codec."""
    first = draw(st.integers(0, 3))
    last = draw(st.integers(first, 3))
    original = _fragment(1, 0, 4, original=True)
    pieces, run = [], [original.gops[first]]
    for seq in range(first + 1, last + 1):
        cut = draw(st.sampled_from(["join", "split", "evict"]))
        if cut != "join" and run:
            pieces.append(Fragment(original.physical, run))
            run = []
        if cut != "evict" or seq == last:
            run.append(original.gops[seq])
    pieces.append(Fragment(original.physical, run))
    start = draw(st.integers(4 * first, 4 * last + 3)) / 4
    end = draw(st.integers(int(start * 4) + 1, 4 * last + 4)) / 4
    request = ReadSpec(
        "v", start, end,
        codec=draw(st.sampled_from(["raw", "h264", "hevc"])),
        roi=draw(st.sampled_from([None, (0, 0, 48, 36), (8, 4, 64, 36)])),
        resolution=draw(st.sampled_from([None, (32, 18), (64, 36)])),
        fps=draw(st.sampled_from([None, 15.0])),
        mode="original",
    )
    return pieces + draw(_crops())[1:], original.physical, request


@settings(deadline=None)
@given(_original_reads())
def test_original_mode_matches_the_walk(read):
    """``mode="original"`` runs the exact pass over the original's
    fragments; it must choose, split, charge and price exactly as
    :func:`kernel_oracles.plan_original`, the walk it replaced, or fail
    alike."""
    fragments, original, request = read
    args = (
        request, fragments, original, CostModel(Calibration.default()),
        _AcceptAll(),
    )
    try:
        expected = plan_original(*args)
    except QualityError:
        with pytest.raises(QualityError):
            plan_read(*args, mode="original")
        return
    plan = plan_read(*args, mode="original")
    assert plan.estimated_cost == expected.estimated_cost
    assert [
        (c.start, c.end, c.fragment, c.cells, c.lookback_charged)
        for c in plan.choices
    ] == [
        (c.start, c.end, c.fragment, c.cells, c.lookback_charged)
        for c in expected.choices
    ]
