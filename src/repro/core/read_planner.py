"""Read planning: select the least-cost set of materialized fragments.

Implements paper section 3.1:

1. Fragments whose expected quality falls below the read's cutoff are
   rejected (quality model, section 3.2).
2. The start/end points of the surviving fragments form *transition
   points*; between consecutive transition points the planner must pick
   fragment(s) covering the interval (exactly one for full-frame
   fragments; a spatial cover when fragments are ROI crops).
3. Each choice carries a transcode cost ``c_t`` and a look-back cost
   ``c_l`` that is waived when the same fragment was chosen for the
   preceding interval (its dependency frames are already decoded — the
   set Omega of the paper).
4. The paper hands the joint choice to an SMT solver because fragment
   selection is NP-hard in general.  Here look-back couples only
   interval i-1 with interval i, so the problem is a chain, and one
   dynamic-programming pass over the intervals is exact
   (:func:`_cheapest_run`).

An interval's *states* are the minimal covers of its spatial cells: one
per covering fragment for a single-cell interval, and for a multi-cell
one every set of fragments that covers each cell and in which each
member covers a cell no other member does.  These are exactly the plans
the reader can run: a chosen fragment that owns no cell is never
decoded (:func:`_extract_choices` drops it), so it could never waive its
next look-back.  Every member of a minimal cover owns a cell, so the
model prices what executes.  A state costs its members' transcode
costs; entering it charges the look-back of each member the previous
state did not hold.

Ties keep one order: states rank by summed transcode cost, then by
fragment order, and of equal totals the run that ranks first from the
first interval on wins.

``greedy`` (per cell, the cheapest fragment by transcode cost, ignoring
look-back: Figure 10's dependency-naive baseline) and ``original``
(the same pass over the original's fragments only) are the comparison
modes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.cost import CostModel, TargetFormat
from repro.core.quality import QualityModel
from repro.core.records import ROI, Fragment, PhysicalVideo
from repro.core.roi import check_roi, check_roi_bounds
from repro.core.specs import ReadSpec, ViewSpec, check_planner_mode
from repro.errors import OutOfRangeError, QualityError, ReadError

_EPS = 1e-9

#: Maximum length of a view-over-view chain (cycle/runaway guard).
MAX_VIEW_DEPTH = 16

#: ReadSpec construction defaults, used to decide override precedence
#: when folding a view: a request field left at its default defers to
#: the view's value (the view acts like a named set of defaults).
_READ_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ReadSpec)}


def intersect_window(
    request_start: float,
    request_end: float,
    view_start: float | None,
    view_end: float | None,
) -> tuple[float, float]:
    """The request window clamped to the view window (base timeline).

    Views keep the base video's time coordinates, so composition is a
    plain interval intersection; an empty intersection raises
    :class:`OutOfRangeError` (the read asks for time the view excludes).
    """
    start = request_start if view_start is None else max(request_start, view_start)
    end = request_end if view_end is None else min(request_end, view_end)
    if end <= start + _EPS:
        raise OutOfRangeError(
            f"read window [{request_start}, {request_end}) does not "
            f"intersect view window [{view_start}, {view_end})"
        )
    return start, end


def rebase_roi(
    request_roi: ROI | None,
    view_roi: ROI | None,
    view_resolution: tuple[int, int] | None,
) -> ROI | None:
    """Re-base a request ROI (view output coordinates) into the parent's
    coordinates.

    A request ROI against a cropping view addresses pixels of the
    *cropped* frame; folding shifts it by the view's crop origin and
    requires it to stay inside the crop.  A view that *rescales* (its
    ``resolution`` differs from its crop size, or is set without a crop
    so the scale factor is unknowable here) has no pixel-exact inverse
    mapping, so combining it with a request ROI raises
    :class:`ReadError` rather than guessing at rounding.
    """
    if request_roi is None:
        return view_roi
    if view_roi is None and view_resolution is None:
        return request_roi
    if view_resolution is not None:
        crop = (
            None
            if view_roi is None
            else (view_roi[2] - view_roi[0], view_roi[3] - view_roi[1])
        )
        if crop != tuple(view_resolution):
            raise ReadError(
                f"roi {request_roi} is ambiguous on a rescaling view "
                f"(crop {crop} -> resolution {view_resolution}); read the "
                f"whole view or define an unscaled sub-view instead"
            )
    vx0, vy0, vx1, vy1 = view_roi
    rx0, ry0, rx1, ry1 = request_roi
    check_roi(request_roi)
    check_roi_bounds(
        request_roi, vx1 - vx0, vy1 - vy0, what="view's crop"
    )
    return (vx0 + rx0, vy0 + ry0, vx0 + rx1, vy0 + ry1)


def fold_view(request: ReadSpec, view: ViewSpec) -> ReadSpec:
    """Fold one view level into a request: the effective :class:`ReadSpec`
    against ``view.over`` that answers ``request`` against the view.

    Composition rules (property-tested in ``tests/test_views.py``):

    * **window** — intersection of the request and view windows (both in
      the base timeline); empty raises :class:`OutOfRangeError`.
    * **roi** — the request ROI is re-based from view coordinates into
      the parent's via :func:`rebase_roi`; with no request ROI the
      view's crop applies as-is.
    * **resolution/fps/codec/qp/quality_db** — the view supplies
      *defaults*: an explicit request value wins (for ``codec``/``qp``/
      ``quality_db``, "explicit" means differing from the ReadSpec
      construction default, exactly like session defaults), otherwise
      the view's value, otherwise the usual default.
    * everything else (``pixel_format``, ``cache``, ``mode``) passes
      through untouched.
    """
    start, end = intersect_window(
        request.start, request.end, view.start, view.end
    )
    roi = rebase_roi(request.roi, view.roi, view.resolution)
    if request.resolution is not None:
        resolution = request.resolution
    elif request.roi is not None:
        # A sub-crop of the view defaults to the crop's own size, the
        # same default a direct ROI read gets from resolve_target.
        resolution = None
    else:
        resolution = view.resolution
    codec = request.codec
    if view.codec is not None and request.codec == _READ_DEFAULTS["codec"]:
        codec = view.codec
    qp = request.qp
    if view.qp is not None and request.qp == _READ_DEFAULTS["qp"]:
        qp = view.qp
    quality_db = request.quality_db
    if (
        view.quality_db is not None
        and request.quality_db == _READ_DEFAULTS["quality_db"]
    ):
        quality_db = view.quality_db
    return ReadSpec(
        name=view.over,
        start=start,
        end=end,
        codec=codec,
        pixel_format=request.pixel_format,
        resolution=resolution,
        roi=roi,
        fps=request.fps if request.fps is not None else view.fps,
        quality_db=quality_db,
        qp=qp,
        cache=request.cache,
        mode=request.mode,
    )


def merge_views(child: ViewSpec, parent: ViewSpec) -> ViewSpec:
    """Compose two view levels: one :class:`ViewSpec` over ``parent.over``
    equivalent to ``child`` defined over ``parent``.

    Chains are folded view-to-view *before* the request is folded in.
    Unlike a request (whose construction defaults are indistinguishable
    from explicit choices), a view's pins are explicit — ``None`` means
    unset — so a child view that pins ``codec="raw"`` keeps raw output
    even under an h264-pinned ancestor.
    """
    if child.start is None:
        start = parent.start
    elif parent.start is None:
        start = child.start
    else:
        start = max(child.start, parent.start)
    if child.end is None:
        end = parent.end
    elif parent.end is None:
        end = child.end
    else:
        end = min(child.end, parent.end)
    if start is not None and end is not None and end <= start + _EPS:
        raise OutOfRangeError(
            f"view windows [{child.start}, {child.end}) and "
            f"[{parent.start}, {parent.end}) do not intersect"
        )
    roi = rebase_roi(child.roi, parent.roi, parent.resolution)
    if child.resolution is not None:
        resolution = child.resolution
    elif child.roi is not None:
        # A sub-crop defaults to its own size, not the parent's output.
        resolution = None
    else:
        resolution = parent.resolution
    return ViewSpec(
        over=parent.over,
        start=start,
        end=end,
        roi=roi,
        resolution=resolution,
        fps=child.fps if child.fps is not None else parent.fps,
        codec=child.codec if child.codec is not None else parent.codec,
        qp=child.qp if child.qp is not None else parent.qp,
        quality_db=(
            child.quality_db
            if child.quality_db is not None
            else parent.quality_db
        ),
    )




@dataclass
class IntervalChoice:
    """One fragment chosen for one transition interval, with the spatial
    cells (sub-rectangles of the requested ROI) it supplies."""

    start: float
    end: float
    fragment: Fragment
    cells: list[ROI]
    lookback_charged: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ReadPlan:
    """The output of planning: per-interval choices plus cost metadata."""

    request: ReadSpec
    target: TargetFormat
    target_fps: float
    roi: ROI
    choices: list[IntervalChoice]
    estimated_cost: float
    mode: str
    #: (width, height) of the original video's frames; the coordinate space
    #: that ``roi`` and fragment ROIs are expressed in.
    original_resolution: tuple[int, int] = (0, 0)
    #: Tile selectivity over tiled layouts (``repro.tiles``): of the tile
    #: physicals whose time range overlaps the request window,
    #: ``tiles_total`` existed, ``tiles_decoded`` were chosen by the
    #: plan, and ``tile_bytes_skipped`` is the stored bytes of the
    #: unchosen tiles' overlapping GOPs — the decode work tiling saved.
    tiles_total: int = 0
    tiles_decoded: int = 0
    tile_bytes_skipped: int = 0

    @property
    def num_fragments_used(self) -> int:
        return len({id(c.fragment) for c in self.choices})

    def is_stored_answer(self) -> bool:
        """True when one fragment answers the whole plan as it is stored:
        in the requested format, frame rate and crop.

        Its stored frames are then the answer's frames, so serving its
        bytes is exact and caching the answer would store a duplicate.
        A full-frame fragment is no such answer for an ROI read, even at
        the requested resolution.
        """
        if self.num_fragments_used != 1:
            return False
        fragment = self.choices[0].fragment
        physical = fragment.physical
        full: ROI = (0, 0, *self.original_resolution)
        return (
            CostModel.is_format_match(fragment, self.target)
            and abs(physical.fps - self.target_fps) <= _EPS
            and tuple(physical.roi_or(full)) == tuple(self.roi)
        )


@dataclass
class _Interval:
    start: float
    end: float
    fragments: list[Fragment] = field(default_factory=list)


def _clip_roi(roi: ROI, bounds: ROI) -> ROI | None:
    x0 = max(roi[0], bounds[0])
    y0 = max(roi[1], bounds[1])
    x1 = min(roi[2], bounds[2])
    y1 = min(roi[3], bounds[3])
    if x1 <= x0 or y1 <= y0:
        return None
    return (x0, y0, x1, y1)


def _area(roi: ROI) -> int:
    return (roi[2] - roi[0]) * (roi[3] - roi[1])


def resolve_target(
    request: ReadSpec, original: PhysicalVideo
) -> tuple[TargetFormat, float, ROI]:
    """Fill in request defaults from the original video."""
    full: ROI = (0, 0, original.width, original.height)
    roi = request.roi if request.roi is not None else full
    check_roi(roi)
    check_roi_bounds(roi, original.width, original.height, what="original frame")
    if request.resolution is not None:
        width, height = request.resolution
    else:
        width, height = roi[2] - roi[0], roi[3] - roi[1]
    target = TargetFormat(
        codec=request.codec,
        pixel_format=request.pixel_format,
        width=width,
        height=height,
    )
    target_fps = request.fps if request.fps is not None else original.fps
    return target, target_fps, roi


def plan_read(
    request: ReadSpec,
    fragments: list[Fragment],
    original: PhysicalVideo,
    cost_model: CostModel,
    quality_model: QualityModel,
    mode: str = "solver",
) -> ReadPlan:
    """Produce a :class:`ReadPlan` for ``request`` over the available
    fragments.

    ``mode`` selects the planner: ``solver`` (the exact pass over the
    intervals, the paper's approach), ``greedy`` (per-interval minimum
    transcode cost, dependency-naive), or ``original`` (the exact pass
    over the original's fragments alone: the cache ignored).
    """
    check_planner_mode(mode)
    if request.start < original.start_time - _EPS or request.end > original.end_time + _EPS:
        raise OutOfRangeError(
            f"read [{request.start}, {request.end}) outside stored video "
            f"[{original.start_time}, {original.end_time})"
        )
    target, target_fps, roi = resolve_target(request, original)

    candidates = _filter_candidates(
        request, fragments, original, quality_model, roi, mode
    )
    if not candidates:
        raise QualityError(
            f"no fragments meet the {request.quality_db} dB quality cutoff"
        )
    intervals = _build_intervals(request, candidates, roi)
    plan = _optimize(
        request, target, target_fps, roi, intervals, original, cost_model, mode
    )
    plan.original_resolution = (original.width, original.height)
    _attach_tile_stats(plan, request, fragments)
    return plan


def _attach_tile_stats(
    plan: ReadPlan, request: ReadSpec, fragments: list[Fragment]
) -> None:
    """Record tile selectivity on the plan (zeros for untiled stores)."""
    tile_frags = [
        f
        for f in fragments
        if f.physical.tile_group_id is not None
        and f.end_time > request.start + _EPS
        and f.start_time < request.end - _EPS
    ]
    if not tile_frags:
        return
    decoded = {
        c.fragment.physical.id
        for c in plan.choices
        if c.fragment.physical.tile_group_id is not None
    }
    skipped = 0
    for fragment in tile_frags:
        if fragment.physical.id in decoded:
            continue
        skipped += sum(
            g.nbytes
            for g in fragment.gops_overlapping(request.start, request.end)
        )
    plan.tiles_total = len({f.physical.id for f in tile_frags})
    plan.tiles_decoded = len(decoded)
    plan.tile_bytes_skipped = skipped


def _filter_candidates(
    request: ReadSpec,
    fragments: list[Fragment],
    original: PhysicalVideo,
    quality_model: QualityModel,
    roi: ROI,
    mode: str,
) -> list[Fragment]:
    full: ROI = (0, 0, original.width, original.height)
    full_frame = roi == full
    chosen = []
    for fragment in fragments:
        physical = fragment.physical
        if mode == "original" and not physical.is_original:
            continue
        # Tile physicals only compete for genuine ROI requests: gating
        # them out of full-frame reads keeps those reads planning (and
        # serving) byte-identically on tiled and untiled stores.
        if physical.tile_group_id is not None and full_frame:
            continue
        if not quality_model.acceptable(
            physical, request.quality_db, request.pixel_format
        ):
            continue
        if fragment.end_time <= request.start + _EPS:
            continue
        if fragment.start_time >= request.end - _EPS:
            continue
        frag_roi = physical.roi_or(full)
        if _clip_roi(frag_roi, roi) is None:
            continue
        chosen.append(fragment)
    return chosen


def _build_intervals(
    request: ReadSpec, candidates: list[Fragment], roi: ROI
) -> list[_Interval]:
    points = {request.start, request.end}
    for fragment in candidates:
        for t in (fragment.start_time, fragment.end_time):
            if request.start + _EPS < t < request.end - _EPS:
                points.add(t)
    ordered = sorted(points)
    intervals = []
    for t0, t1 in zip(ordered, ordered[1:]):
        covering = [
            f
            for f in candidates
            if f.start_time <= t0 + _EPS and f.end_time >= t1 - _EPS
        ]
        intervals.append(_Interval(t0, t1, covering))
    return intervals


def _spatial_cells(
    interval: _Interval, roi: ROI, original: PhysicalVideo
) -> list[tuple[ROI, list[Fragment]]]:
    """Decompose the requested ROI into atomic cells induced by the
    fragments' ROI boundaries, with the fragments covering each cell."""
    full: ROI = (0, 0, original.width, original.height)
    rois = [f.physical.roi_or(full) for f in interval.fragments]
    if all(_clip_roi(roi, r) == roi for r in rois):
        # Fast path: every fragment covers the whole requested ROI.
        return [(roi, list(interval.fragments))]
    xs = {roi[0], roi[2]}
    ys = {roi[1], roi[3]}
    for r in rois:
        clipped = _clip_roi(r, roi)
        if clipped is None:
            continue
        xs.update((clipped[0], clipped[2]))
        ys.update((clipped[1], clipped[3]))
    xs_sorted, ys_sorted = sorted(xs), sorted(ys)
    cells = []
    for y0, y1 in zip(ys_sorted, ys_sorted[1:]):
        for x0, x1 in zip(xs_sorted, xs_sorted[1:]):
            cell: ROI = (x0, y0, x1, y1)
            covering = [
                f
                for f, r in zip(interval.fragments, rois)
                if _clip_roi(cell, r) == cell
            ]
            cells.append((cell, covering))
    return cells


def _optimize(
    request: ReadSpec,
    target: TargetFormat,
    target_fps: float,
    roi: ROI,
    intervals: list[_Interval],
    original: PhysicalVideo,
    cost_model: CostModel,
    mode: str,
) -> ReadPlan:
    full: ROI = (0, 0, original.width, original.height)
    interval_cells: list[list[tuple[ROI, list[Fragment]]]] = []
    costs: list[list[float]] = []  # [interval][position in its fragments]
    lookbacks: list[list[float]] = []
    for interval in intervals:
        if not interval.fragments:
            raise QualityError(
                f"no fragment covers interval [{interval.start}, {interval.end})"
            )
        cells = _spatial_cells(interval, roi, original)
        for cell, covering in cells:
            if not covering:
                raise QualityError(
                    f"no fragment covers cell {cell} in interval "
                    f"[{interval.start}, {interval.end})"
                )
        interval_cells.append(cells)
        duration = interval.end - interval.start
        costs.append(
            [
                cost_model.transcode_cost(
                    fragment,
                    duration,
                    target,
                    target_fps,
                    _area(_clip_roi(fragment.physical.roi_or(full), roi))
                    / _area(roi),
                )
                for fragment in interval.fragments
            ]
        )
        lookbacks.append(
            [
                cost_model.lookback_cost(fragment, interval.start)
                for fragment in interval.fragments
            ]
        )

    if mode == "greedy":
        selected = _greedy_choice(intervals, interval_cells, costs)
    else:
        selected = _cheapest_run(intervals, interval_cells, costs, lookbacks)
    return ReadPlan(
        request=request,
        target=target,
        target_fps=target_fps,
        roi=roi,
        choices=_extract_choices(intervals, interval_cells, selected),
        estimated_cost=_price(intervals, selected, costs, lookbacks),
        mode=mode,
    )


def _price(
    intervals: list[_Interval],
    selected: list[tuple[int, ...]],
    costs: list[list[float]],
    lookbacks: list[list[float]],
) -> float:
    """The cost of a choice: each chosen fragment's transcode cost, plus
    its look-back unless it was also chosen for the interval before."""
    total = 0.0
    for index in range(len(intervals)):
        for position in selected[index]:
            total += costs[index][position]
            if not _chosen_before(intervals, selected, index, position):
                total += lookbacks[index][position]
    return total


def _positions(
    interval: _Interval, cells: list[tuple[ROI, list[Fragment]]]
) -> list[frozenset[int]]:
    """Each cell as the positions (in ``interval.fragments``) covering it."""
    position = {id(f): p for p, f in enumerate(interval.fragments)}
    return [frozenset(position[id(f)] for f in covering) for _, covering in cells]


def _chosen_before(
    intervals: list[_Interval],
    selected: list[tuple[int, ...]],
    index: int,
    position: int,
) -> bool:
    """Whether the fragment at ``position`` of interval ``index`` was
    also chosen for the interval before (its look-back is waived)."""
    if index == 0:
        return False
    fragment = intervals[index].fragments[position]
    before = intervals[index - 1].fragments
    return any(before[p] is fragment for p in selected[index - 1])


def _minimal_covers(cells: list[frozenset[int]]) -> list[tuple[int, ...]]:
    """Every minimal cover of ``cells``: the sets of positions that cover
    each cell and in which every member covers a cell no other does.

    Branches on the first uncovered cell; a position tried at one branch
    is excluded from its later siblings, so each cover is found once.  A
    member left with no cell of its own never regains one as members
    are added, so its branch stops there.
    """
    covers: list[tuple[int, ...]] = []

    def branch(chosen: frozenset[int], excluded: frozenset[int]) -> None:
        held = [c & chosen for c in cells]
        if {p for h in held if len(h) == 1 for p in h} != chosen:
            return
        uncovered = next((c for c, h in zip(cells, held) if not h), None)
        if uncovered is None:
            covers.append(tuple(sorted(chosen)))
            return
        for position in sorted(uncovered - excluded):
            branch(chosen | {position}, excluded)
            excluded = excluded | {position}

    branch(frozenset(), frozenset())
    return covers


def _cheapest_run(
    intervals: list[_Interval],
    interval_cells: list[list[tuple[ROI, list[Fragment]]]],
    costs: list[list[float]],
    lookbacks: list[list[float]],
) -> list[tuple[int, ...]]:
    """The least-cost choice of one minimal cover per interval.

    An interval's states are its minimal covers, ranked by summed
    transcode cost, then by position.  A pass from the last interval to
    the first keeps, per state, the least cost of the rest of the read
    and the next state reaching it (the first in rank on equal costs);
    a walk from the first interval's best state then reads the choice
    off.  Entering a state charges the look-back of each member the
    previous state did not hold.
    """
    states = []
    for index, interval in enumerate(intervals):
        covers = _minimal_covers(_positions(interval, interval_cells[index]))
        states.append(
            sorted(
                (sum(costs[index][p] for p in cover), cover) for cover in covers
            )
        )

    def entering(index: int, held: set[int], cover: tuple[int, ...]) -> float:
        fragments = intervals[index].fragments
        return sum(
            lookbacks[index][p] for p in cover if id(fragments[p]) not in held
        )

    def cheapest(options: list[float]) -> int:
        return min(range(len(options)), key=options.__getitem__)

    to_go = [cost for cost, _ in states[-1]]
    nexts: list[list[int]] = []
    for index in range(len(intervals) - 2, -1, -1):
        fragments = intervals[index].fragments
        best, step = [], []
        for cost, cover in states[index]:
            held = {id(fragments[p]) for p in cover}
            options = [
                entering(index + 1, held, following) + to_go[k]
                for k, (_, following) in enumerate(states[index + 1])
            ]
            k = cheapest(options)
            best.append(cost + options[k])
            step.append(k)
        to_go = best
        nexts.append(step)
    k = cheapest(
        [
            entering(0, set(), cover) + to_go[k]
            for k, (_, cover) in enumerate(states[0])
        ]
    )
    selected = [states[0][k][1]]
    for index, step in enumerate(reversed(nexts), start=1):
        k = step[k]
        selected.append(states[index][k][1])
    return selected


def _greedy_choice(
    intervals: list[_Interval],
    interval_cells: list[list[tuple[ROI, list[Fragment]]]],
    costs: list[list[float]],
) -> list[tuple[int, ...]]:
    """Dependency-naive baseline: per cell, the cheapest covering
    fragment by transcode cost alone.  A pick a later, better pick took
    every cell from (:func:`_cell_owners`) is dropped: the reader would
    never decode it, so the plan does not pay for it."""
    selected = []
    for index, interval in enumerate(intervals):
        picked: set[int] = set()
        for covering in _positions(interval, interval_cells[index]):
            if not covering & picked:
                picked.add(min(sorted(covering), key=costs[index].__getitem__))
        owners = _cell_owners(
            interval_cells[index], [interval.fragments[p] for p in picked]
        )
        selected.append(
            tuple(
                p for p in sorted(picked)
                if any(o is interval.fragments[p] for o in owners)
            )
        )
    return selected


def _cell_owners(
    cells: list[tuple[ROI, list[Fragment]]], chosen: list[Fragment]
) -> list[Fragment | None]:
    """The chosen fragment that supplies each cell (None where none
    covers it): of those covering it, the highest-quality one (least
    ``mse_estimate``), the first of equals."""
    owners: list[Fragment | None] = []
    for _, covering in cells:
        candidates = [f for f in covering if any(f is c for c in chosen)]
        if len(candidates) > 1:
            candidates = [min(candidates, key=lambda f: f.physical.mse_estimate)]
        owners.append(candidates[0] if candidates else None)
    return owners


def _extract_choices(
    intervals: list[_Interval],
    interval_cells: list[list[tuple[ROI, list[Fragment]]]],
    selected: list[tuple[int, ...]],
) -> list[IntervalChoice]:
    choices: list[IntervalChoice] = []
    for index, interval in enumerate(intervals):
        chosen = [interval.fragments[p] for p in selected[index]]
        cell_map: dict[int, list[ROI]] = {}
        cells = interval_cells[index]
        for (cell, _), owner in zip(cells, _cell_owners(cells, chosen)):
            if owner is not None:
                cell_map.setdefault(id(owner), []).append(cell)
        for position, fragment in zip(selected[index], chosen):
            cells = cell_map.get(id(fragment), [])
            if not cells:
                continue
            choices.append(
                IntervalChoice(
                    interval.start,
                    interval.end,
                    fragment,
                    cells,
                    lookback_charged=not _chosen_before(
                        intervals, selected, index, position
                    ),
                )
            )
    return choices
