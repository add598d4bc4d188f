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
4. The joint optimization is NP-hard, so the paper hands it to an SMT
   solver; we embed the same constraints into the exact branch-and-bound
   optimizer in :mod:`repro.solver`.  A dependency-naive greedy baseline
   (Figure 10's comparison) and a read-the-original mode are also
   provided.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.cost import CostModel, TargetFormat
from repro.core.quality import QualityModel
from repro.core.records import ROI, Fragment, PhysicalVideo
from repro.core.roi import check_roi, check_roi_bounds
from repro.core.specs import ReadSpec, ViewSpec
from repro.errors import OutOfRangeError, QualityError, ReadError
from repro.solver import Optimizer

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
    solver_nodes: int = 0
    optimal: bool = True
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

    ``mode`` selects the planner: ``solver`` (exact optimization, the
    paper's approach), ``greedy`` (per-interval minimum transcode cost,
    dependency-naive), or ``original`` (ignore the cache entirely).
    """
    if mode not in ("solver", "greedy", "original"):
        raise ValueError(f"unknown planning mode {mode!r}")
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
    if mode in ("solver", "greedy"):
        plan = _optimize(
            request, target, target_fps, roi, intervals, cost_model, mode
        )
    else:
        plan = _plan_original(
            request, target, target_fps, roi, intervals, cost_model
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
    cost_model: CostModel,
    mode: str,
) -> ReadPlan:
    original = next(
        (
            f.physical
            for iv in intervals
            for f in iv.fragments
            if f.physical.is_original
        ),
        intervals[0].fragments[0].physical if intervals and intervals[0].fragments else None,
    )
    if original is None:
        raise QualityError("no usable fragments for any interval")

    optimizer = Optimizer()
    variables: dict[tuple[int, int], object] = {}  # (interval idx, frag id)
    frag_by_key: dict[tuple[int, int], Fragment] = {}
    linear_costs: dict[tuple[int, int], float] = {}
    interval_cells: list[list[tuple[ROI, list[Fragment]]]] = []

    for index, interval in enumerate(intervals):
        if not interval.fragments:
            raise QualityError(
                f"no fragment covers interval [{interval.start}, {interval.end})"
            )
        cells = _spatial_cells(interval, roi, original)
        interval_cells.append(cells)
        duration = interval.end - interval.start
        roi_area = _area(roi)
        for fragment in interval.fragments:
            key = (index, id(fragment))
            frag_roi = fragment.physical.roi_or(
                (0, 0, original.width, original.height)
            )
            overlap = _clip_roi(frag_roi, roi)
            fraction = _area(overlap) / roi_area if overlap else 0.0
            cost = cost_model.transcode_cost(
                fragment, duration, target, target_fps, fraction
            )
            var = optimizer.variable(f"f{fragment.physical.id}@{index}")
            variables[key] = var
            frag_by_key[key] = fragment
            linear_costs[key] = cost
            optimizer.add_linear_cost(var, cost)
        if len(cells) == 1:
            optimizer.add_exactly_one(
                [variables[(index, id(f))] for f in cells[0][1]]
            )
        else:
            for cell, covering in cells:
                if not covering:
                    raise QualityError(
                        f"no fragment covers cell {cell} in interval "
                        f"[{interval.start}, {interval.end})"
                    )
                optimizer.add_at_least_one(
                    [variables[(index, id(f))] for f in covering]
                )

    # Look-back coupling between adjacent intervals.
    lookbacks: dict[tuple[int, int], float] = {}
    for index, interval in enumerate(intervals):
        for fragment in interval.fragments:
            key = (index, id(fragment))
            lookback = cost_model.lookback_cost(
                fragment, interval.start, already_decoded=False
            )
            lookbacks[key] = lookback
            if lookback <= 0.0:
                continue
            previous_key = (index - 1, id(fragment))
            unless = variables.get(previous_key)
            optimizer.add_conditional_cost(variables[key], unless, lookback)

    if mode == "solver":
        solution = optimizer.minimize()
        chosen_keys = {
            key for key, var in variables.items() if solution.assignment[var]
        }
        estimated = solution.objective
        nodes = solution.nodes_explored
        optimal = solution.optimal
    else:
        chosen_keys, estimated = _greedy_choice(
            intervals, interval_cells, variables, linear_costs
        )
        # Greedy ignored look-back while choosing; charge what it incurred.
        for index, interval in enumerate(intervals):
            for fragment in interval.fragments:
                key = (index, id(fragment))
                if key not in chosen_keys:
                    continue
                if (index - 1, id(fragment)) in chosen_keys:
                    continue
                estimated += lookbacks.get(key, 0.0)
        nodes = 0
        optimal = False

    choices = _extract_choices(
        intervals, interval_cells, chosen_keys, frag_by_key
    )
    return ReadPlan(
        request=request,
        target=target,
        target_fps=target_fps,
        roi=roi,
        choices=choices,
        estimated_cost=estimated,
        mode=mode,
        solver_nodes=nodes,
        optimal=optimal,
    )


def _greedy_choice(
    intervals: list[_Interval],
    interval_cells: list[list[tuple[ROI, list[Fragment]]]],
    variables: dict,
    linear_costs: dict[tuple[int, int], float],
) -> tuple[set, float]:
    """Dependency-naive baseline: per cell, the cheapest covering
    fragment by transcode cost alone."""
    chosen: set = set()
    total = 0.0
    for index, cells in enumerate(interval_cells):
        picked: set = set()
        for _cell, covering in cells:
            if any(id(f) in picked for f in covering):
                continue
            best = min(covering, key=lambda f: linear_costs[(index, id(f))])
            picked.add(id(best))
        for frag_id in picked:
            key = (index, frag_id)
            chosen.add(key)
            total += linear_costs[key]
    return chosen, total


def _plan_original(
    request: ReadSpec,
    target: TargetFormat,
    target_fps: float,
    roi: ROI,
    intervals: list[_Interval],
    cost_model: CostModel,
) -> ReadPlan:
    choices = []
    total = 0.0
    previous = None
    for interval in intervals:
        originals = [f for f in interval.fragments if f.physical.is_original]
        if not originals:
            raise QualityError(
                f"original video does not cover "
                f"[{interval.start}, {interval.end})"
            )
        fragment = originals[0]
        total += cost_model.transcode_cost(
            fragment, interval.end - interval.start, target, target_fps
        )
        charged = previous is not fragment
        total += cost_model.lookback_cost(
            fragment, interval.start, already_decoded=not charged
        )
        choices.append(
            IntervalChoice(interval.start, interval.end, fragment, [roi], charged)
        )
        previous = fragment
    return ReadPlan(
        request=request,
        target=target,
        target_fps=target_fps,
        roi=roi,
        choices=choices,
        estimated_cost=total,
        mode="original",
    )


def _extract_choices(
    intervals: list[_Interval],
    interval_cells: list[list[tuple[ROI, list[Fragment]]]],
    chosen_keys: set,
    frag_by_key: dict[tuple[int, int], Fragment],
) -> list[IntervalChoice]:
    choices: list[IntervalChoice] = []
    for index, interval in enumerate(intervals):
        selected = [
            frag_by_key[(index, frag_id)]
            for (iv, frag_id) in chosen_keys
            if iv == index
        ]
        selected_ids = {id(f) for f in selected}
        cell_map: dict[int, list[ROI]] = {}
        for cell, covering in interval_cells[index]:
            owners = [f for f in covering if id(f) in selected_ids]
            if not owners:
                continue
            # Prefer the highest-quality owner for each cell.
            owner = min(owners, key=lambda f: f.physical.mse_estimate)
            cell_map.setdefault(id(owner), []).append(cell)
        for fragment in selected:
            cells = cell_map.get(id(fragment), [])
            if not cells:
                continue
            previous_selected = index > 0 and (index - 1, id(fragment)) in chosen_keys
            choices.append(
                IntervalChoice(
                    interval.start,
                    interval.end,
                    fragment,
                    cells,
                    lookback_charged=not previous_selected,
                )
            )
    return choices
