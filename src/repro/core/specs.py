"""Typed request specifications: :class:`ReadSpec` and :class:`WriteSpec`.

One request type is shared by sessions, clients, the planner, the
reader, the writer and the cache-admission path.  A spec is validated
*at construction* — an invalid interval, ROI, codec, or qp fails
immediately, not deep inside a read — and is immutable, so it
can be shared freely across sessions and threads, stored in plans, and
replayed.

``spec.replace(start=5.0)`` derives a new spec with one field changed,
which is the idiomatic way to sweep a parameter::

    base = ReadSpec("traffic", 0.0, 1.0, codec="h264")
    specs = [base.replace(start=t, end=t + 1.0) for t in range(8)]
    session.read_batch(specs)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.core.quality import DEFAULT_EPSILON_DB
from repro.core.records import ROI
from repro.core.roi import check_roi
from repro.errors import FormatError, OutOfRangeError
from repro.video.codec.quant import QP_DEFAULT, QP_MAX, QP_MIN
from repro.video.codec.registry import CODEC_NAMES
from repro.video.frame import PIXEL_FORMATS

#: Planner modes accepted by :attr:`ReadSpec.mode` (None = store default).
PLANNER_MODES = ("solver", "greedy", "original")


def _check_name(name) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"video name must be a non-empty string, got {name!r}")


def _check_codec(codec: str) -> None:
    if codec not in CODEC_NAMES:
        raise FormatError(
            f"unknown codec {codec!r}; expected one of {sorted(CODEC_NAMES)}"
        )


def _check_qp(qp: int) -> None:
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp must be in [{QP_MIN}, {QP_MAX}], got {qp}")


def check_planner_mode(mode: str) -> None:
    if mode not in PLANNER_MODES:
        raise ValueError(
            f"unknown planning mode {mode!r}; expected one of {PLANNER_MODES}"
        )


def _check_finite(field_name: str, value: float) -> None:
    # nan slips through ordinary comparisons (nan <= x is always False),
    # so every float field is explicitly pinned to finite values.
    if not math.isfinite(value):
        raise ValueError(f"{field_name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ReadSpec:
    """One read request (the paper's Figure 1 parameters, typed).

    Temporal (T): ``start``/``end`` seconds and output ``fps``; spatial
    (S): output ``resolution`` and ``roi`` in original coordinates;
    physical (P): ``codec``, ``pixel_format``, output ``qp``, and the
    quality cutoff ``quality_db`` below which cached fragments are
    rejected.  ``cache`` overrides the store's read-caching default and
    ``mode`` overrides its planner (both None = inherit).
    """

    name: str
    start: float
    end: float
    codec: str = "raw"
    pixel_format: str = "rgb"
    resolution: tuple[int, int] | None = None
    roi: ROI | None = None
    fps: float | None = None
    quality_db: float = DEFAULT_EPSILON_DB
    qp: int = QP_DEFAULT
    cache: bool | None = None
    mode: str | None = None

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_finite("start", self.start)
        _check_finite("end", self.end)
        _check_finite("quality_db", self.quality_db)
        if self.fps is not None:
            _check_finite("fps", self.fps)
        if self.end <= self.start:
            raise OutOfRangeError(
                f"empty read interval [{self.start}, {self.end})"
            )
        _check_codec(self.codec)
        if self.pixel_format not in PIXEL_FORMATS:
            raise FormatError(
                f"unknown pixel format {self.pixel_format!r}; expected one "
                f"of {sorted(PIXEL_FORMATS)}"
            )
        if self.resolution is not None:
            width, height = self.resolution
            if width < 1 or height < 1:
                raise ValueError(
                    f"resolution must be positive, got {self.resolution}"
                )
        if self.roi is not None:
            check_roi(self.roi)
        if self.fps is not None and self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        _check_qp(self.qp)
        if self.mode is not None:
            check_planner_mode(self.mode)

    def replace(self, **changes) -> "ReadSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable dict form (the wire protocol)."""
        from repro.core.wire import read_spec_to_dict

        return read_spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReadSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidated;
        unknown keys rejected)."""
        from repro.core.wire import read_spec_from_dict

        return read_spec_from_dict(data)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WriteSpec:
    """One write request: how to encode and store incoming video.

    ``gop_size`` of None uses the codec's default; pre-encoded GOP writes
    ignore the encode knobs (the GOPs are stored as-is).
    """

    name: str
    codec: str = "h264"
    qp: int = QP_DEFAULT
    gop_size: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_codec(self.codec)
        _check_qp(self.qp)
        if self.gop_size is not None and self.gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {self.gop_size}")

    def replace(self, **changes) -> "WriteSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable dict form (the wire protocol)."""
        from repro.core.wire import write_spec_to_dict

        return write_spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WriteSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidated;
        unknown keys rejected)."""
        from repro.core.wire import write_spec_from_dict

        return write_spec_from_dict(data)


@dataclass(frozen=True)
class ViewSpec:
    """The definition of a *derived view*: a named virtual video.

    A view is a transformation over a base video (or over another view):
    ``over`` names the parent, ``start``/``end`` restrict the window (in
    the base timeline), ``roi`` crops (in the parent's output
    coordinates), and ``resolution``/``fps``/``codec``/``qp``/
    ``quality_db`` set the view's materialization defaults.  Every field
    except ``over`` is optional — ``None`` means "inherit from the
    parent / the read".

    Views own no storage: a read against a view is folded into a single
    effective :class:`ReadSpec` against the base video (see
    :func:`repro.core.read_planner.fold_view`), so the planner, reader,
    and caches are reused unchanged and cached fragments are attributed
    to the base logical video.
    """

    over: str
    start: float | None = None
    end: float | None = None
    roi: ROI | None = None
    resolution: tuple[int, int] | None = None
    fps: float | None = None
    codec: str | None = None
    qp: int | None = None
    quality_db: float | None = None

    def __post_init__(self) -> None:
        _check_name(self.over)
        if self.quality_db is not None:
            _check_finite("quality_db", self.quality_db)
        if self.start is not None:
            _check_finite("start", self.start)
        if self.end is not None:
            _check_finite("end", self.end)
        if (
            self.start is not None
            and self.end is not None
            and self.end <= self.start
        ):
            raise OutOfRangeError(
                f"empty view window [{self.start}, {self.end})"
            )
        if self.roi is not None:
            check_roi(self.roi)
        if self.resolution is not None:
            width, height = self.resolution
            if width < 1 or height < 1:
                raise ValueError(
                    f"resolution must be positive, got {self.resolution}"
                )
        if self.fps is not None:
            _check_finite("fps", self.fps)
            if self.fps <= 0:
                raise ValueError(f"fps must be positive, got {self.fps}")
        if self.codec is not None:
            _check_codec(self.codec)
        if self.qp is not None:
            _check_qp(self.qp)

    def replace(self, **changes) -> "ViewSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable dict form (the wire protocol)."""
        from repro.core.wire import view_spec_to_dict

        return view_spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ViewSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidated;
        unknown keys rejected)."""
        from repro.core.wire import view_spec_from_dict

        return view_spec_from_dict(data)


#: Field names callers may pass as session defaults / read overrides.
READ_SPEC_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ReadSpec)
) - {"name", "start", "end"}

#: Field names callers may pass as session defaults / write overrides.
WRITE_SPEC_FIELDS = frozenset(
    f.name for f in dataclasses.fields(WriteSpec)
) - {"name"}


class SpecDefaults:
    """Per-caller spec defaults and the builders that apply them.

    The base of :class:`repro.core.engine.Session` and of the remote
    clients: ``defaults`` may name any non-positional :class:`ReadSpec`
    or :class:`WriteSpec` field, and fill in whatever a call does not
    specify, so a call reads the same against a local engine and a
    remote one.
    """

    def __init__(self, defaults: dict):
        unknown = set(defaults) - (READ_SPEC_FIELDS | WRITE_SPEC_FIELDS)
        if unknown:
            raise TypeError(
                f"unknown default(s) {sorted(unknown)}; expected fields "
                f"of ReadSpec/WriteSpec"
            )
        self._defaults = dict(defaults)
        # Build each spec once so a bad default value fails here, on the
        # line that gave it, not on the first read or write.
        self.read_spec("_", 0.0, 1.0)
        self.write_spec("_")

    @property
    def defaults(self) -> dict:
        return dict(self._defaults)

    def read_spec(
        self, name: str, start: float, end: float, **overrides
    ) -> ReadSpec:
        """A :class:`ReadSpec` from the defaults plus ``overrides``."""
        fields = {
            k: v for k, v in self._defaults.items() if k in READ_SPEC_FIELDS
        }
        fields.update(overrides)
        return ReadSpec(name=name, start=start, end=end, **fields)

    def write_spec(self, name: str, **overrides) -> WriteSpec:
        """A :class:`WriteSpec` from the defaults plus ``overrides``."""
        fields = {
            k: v for k, v in self._defaults.items() if k in WRITE_SPEC_FIELDS
        }
        fields.update(overrides)
        return WriteSpec(name=name, **fields)

    def _coerce_read_spec(
        self, spec_or_name, start, end, overrides
    ) -> ReadSpec:
        if isinstance(spec_or_name, ReadSpec):
            if start is not None or end is not None:
                raise TypeError(
                    "pass either a ReadSpec or (name, start, end), not both"
                )
            spec = spec_or_name
            return spec.replace(**overrides) if overrides else spec
        if start is None or end is None:
            raise TypeError("read(name, ...) requires start and end")
        return self.read_spec(spec_or_name, start, end, **overrides)

    def _coerce_write_spec(self, spec_or_name, overrides) -> WriteSpec:
        if isinstance(spec_or_name, WriteSpec):
            spec = spec_or_name
            return spec.replace(**overrides) if overrides else spec
        return self.write_spec(spec_or_name, **overrides)
