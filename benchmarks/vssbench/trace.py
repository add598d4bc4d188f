"""Span tracing from outside the program.

For the one traced round of a run the tracer swaps the public entry
points of each layer for recording wrappers (and swaps them back
afterwards); nothing under ``src/`` changes on disk.  A span is
``(id, name, start, end, parent, op, thread, n)``: ``parent`` comes from a
thread-local stack, ``op`` is the benchmark op being served on that
thread, and ``n`` is an optional work count (bytes, frames, rows) taken
from the call's arguments or result.  Spans stay in memory until the
benchmark writes them out with :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus its child spans'.
Work a layer hands to executor or admission threads starts a fresh stack
there, so it shows up under its own name with no parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_op(self, op_id: int | None) -> None:
        """Tag spans opened on this thread with the op being served."""
        self._local.op = op_id

    def _begin(self, name: str) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = [
            next(self._ids),
            name,
            0.0,
            0.0,
            stack[-1] if stack else None,
            getattr(local, "op", None),
            threading.current_thread().name,
            0,
        ]
        stack.append(span[0])
        span[2] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, count=None, before=None):
        """``fn`` recorded as ``name``.

        ``count(args, result, before_value)`` fills the span's ``n``;
        ``before(args)`` captures state the call destroys (a file's size
        before it is rewritten).
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prior = before(args) if before is not None else None
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                span[7] = count(args, result, prior)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per resumption: a generator's work happens in ``next``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = self._begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._end(span)
                    yield item
            finally:
                inner.close()

        return wrapper

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def patch_method(self, cls, attr: str, name: str, **measure) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **measure))

    def patch_function(self, module, attr: str, name: str, **measure) -> None:
        """Swap a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **measure)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every layer's entry points for the duration of the block."""
        install_layers(self)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, summed ``n``."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] = (
                    child_time.get(span[4], 0.0) + span[3] - span[2]
                )
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(
                span[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
            )
            duration = span[3] - span[2]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span[0], 0.0)
            row["n"] += span[7]
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write the spans and their summary to ``path`` as JSON."""
        keys = ("id", "name", "start", "end", "parent", "op", "thread", "n")
        document = dict(header)
        document["summary"] = self.summary()
        document["spans"] = [dict(zip(keys, span)) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


def layer_totals(summary: dict[str, dict], prefix: str, field: str) -> float:
    """Sum one summary field over every span name starting with ``prefix``."""
    return sum(
        row[field] for name, row in summary.items() if name.startswith(prefix)
    )


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.core import (
        cache,
        catalog,
        compaction,
        decode_cache,
        deferred,
        engine,
        layout,
        read_planner,
        reader,
        wire,
        writer,
    )
    from repro.jointcomp import manager
    from repro.search import extract
    from repro.video import resample
    from repro.video.codec import blockcodec, raw

    method = tracer.patch_method
    method(engine.VSSEngine, "read", "engine.read")
    method(engine.VSSEngine, "read_stream", "engine.read_stream")
    method(engine.VSSEngine, "write", "engine.write")
    method(engine.ReadStream, "__next__", "engine.stream_next")
    method(engine.HookedStream, "append", "engine.append")
    method(engine.HookedStream, "close", "engine.close_stream")
    tracer.patch_function(read_planner, "plan_read", "planner.plan_read")
    method(reader.Reader, "execute", "reader.execute")
    method(reader.Reader, "iter_output", "reader.iter_output")
    method(decode_cache.DecodeCache, "get", "decode_cache.get")
    method(decode_cache.DecodeCache, "put", "decode_cache.put")
    method(
        cache.CacheManager,
        "enforce_budget",
        "cache.enforce_budget",
        count=lambda args, report, _: len(report.evicted_gop_ids),
    )
    for attr, member in list(catalog.Catalog.__dict__.items()):
        if inspect.isfunction(member) and not attr.startswith("_"):
            method(catalog.Catalog, attr, f"catalog.{attr}")
    method(
        layout.Layout,
        "read_gop",
        "layout.read_gop",
        count=lambda args, gop, _: gop.nbytes,
    )
    method(
        layout.Layout,
        "write_gop",
        "layout.write_gop",
        count=lambda args, result, _: result[1],
    )
    method(
        layout.Layout,
        "compress_gop_file",
        "layout.compress_gop_file",
        before=lambda args: args[0].file_size(args[1]),
        count=lambda args, result, size: size - result[1],
    )
    method(writer.StreamWriter, "append", "writer.append")
    method(writer.StreamWriter, "append_gops", "writer.append_gops")
    method(writer.StreamWriter, "close", "writer.close")
    method(
        deferred.DeferredCompressionManager,
        "compress_one",
        "deferred.compress_one",
    )
    method(
        compaction.Compactor,
        "compact",
        "compaction.compact",
        count=lambda args, merges, _: merges,
    )
    for codec in (blockcodec.BlockCodec, raw.RawCodec):
        method(
            codec,
            "encode_gop",
            "codec.encode",
            count=lambda args, gop, _: gop.num_frames,
        )
        method(codec, "decode_gop", "codec.decode")
        method(codec, "decode_gop_frames", "codec.decode")
    for attr in ("resize_segment", "crop_roi", "resample_fps"):
        tracer.patch_function(resample, attr, f"resample.{attr}")
    tracer.patch_function(
        extract,
        "extract_physical",
        "search.extract_physical",
        count=lambda args, rows, _: rows,
    )
    method(
        manager.JointCompressionManager, "optimize", "jointcomp.optimize"
    )
    tracer.patch_function(wire, "encode_frame", "wire.encode_frame")
    tracer.patch_function(
        wire,
        "parse_frame",
        "wire.parse_frame",
        count=lambda args, frame, _: len(frame[2]),
    )
