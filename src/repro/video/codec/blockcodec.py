"""The core GOP encoder/decoder shared by the ``h264`` and ``hevc`` profiles.

Pipeline per frame:

* I frames: centre pixels at zero, blockwise DCT, quantize, entropy-code.
* P frames: motion-compensate the previous *reconstructed* frame (per the
  profile's estimator), take the residual, then transform/quantize/entropy
  as above.

The encoder tracks its own reconstruction so that decode drift cannot
accumulate — decoding always reproduces exactly what the encoder predicted
from.  Frames within a GOP therefore form a genuine dependency chain: to
decode frame ``k`` every frame ``0..k-1`` must be decoded first, which is
precisely the look-back cost the paper's read planner optimizes around.

Decode fast path
----------------
Only the compensate-add-clip recurrence actually chains frame ``k`` to
frame ``k-1``; every frame's residual reconstruction (inflate -> zigzag
unscan -> dequantize -> inverse DCT) is independent.  ``decode_gop_frames``
exploits this with a two-stage split:

1. a batched residual stage that parses every frame/plane header up front,
   inflates all entropy payloads (optionally fanned across the shared
   :class:`~repro.core.executor.Executor`), stacks each plane shape's
   levels into one int16 tensor, and runs a single fused
   dequantize-inverse-DCT over only the nonzero blocks;
2. a cheap sequential pass that just compensates, adds the precomputed
   residual, and clips, followed by one vectorized rint/uint8 conversion
   over the whole GOP.

Same-shape planes (a GOP's RGB channels, or a YUV pair of chroma planes)
are grouped and move through both stages as one array.  The output is
bit-identical to the per-frame scalar loop, which is retained verbatim as
:meth:`BlockCodec.decode_gop_frames_scalar` — both the fuzz oracle for
that guarantee and the baseline the codec throughput benchmark measures
against.

Encode fast path
----------------
Encoding has the mirror-image dependency.  *On* the chain, inside one GOP:
estimate motion against the previous reconstruction -> compensate ->
forward DCT of the residual -> quantise -> reconstruct (dequantise,
inverse DCT, add, clip) — frame ``k`` cannot start before frame ``k-1``
has been reconstructed.  *Off* the chain: the zigzag scan and deflate of
the quantised levels, which nothing downstream reads, and every other GOP
of the same ``encode_segment`` call, which opens with its own I frame.

``encode_segment`` is one kernel built on exactly that:

1. the calling thread steps up to ``_LOCKSTEP_GOPS`` GOPs in lockstep —
   frame ``k`` of each, stacked per plane group into one ``(gops,
   channels, h, w)`` array, goes through one phase-correlation FFT round,
   one in-place DCT, one quantise and one sparse inverse (the decode
   path's nonzero-block scatter) per step;
2. each step's scanned levels are handed to the shared executor, which
   deflates them (``zlib`` releases the GIL) while the caller computes
   step ``k+1``; payloads are joined after the last step.

``encode_gop`` is the one-GOP case.  Earlier versions fanned whole GOPs
across the executor instead; that scaled 1.15-1.5x on two cores because
the per-frame numpy of two GOPs contends for the GIL, left a one-GOP
encode (every one-second append) on one thread, and is gone: splitting
the work by *stage* keeps the GIL-bound part on one thread and gives the
pool only what runs without it.  Output bytes equal the per-plane loop's,
retained as :meth:`BlockCodec.encode_gop_scalar` and fuzz-compared in
``tests/test_codec.py``.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import CodecError
from repro.video.codec import dct, entropy, motion, quant
from repro.video.codec.container import EncodedGOP
from repro.video.frame import (
    VideoSegment,
    frames_plane_views,
    pixel_format,
    planes_to_frame,
)

_FRAME_HEADER = struct.Struct(">cBB")  # frame type, n motion vectors, n planes
_VECTOR = struct.Struct(">hh")
_PLANE_HEADER = struct.Struct(">HHHHI")  # nby, nbx, height, width, payload size


#: GOPs one lockstep pass steps together.  Wide enough that a step's
#: array calls amortise their dispatch over several frames; narrow enough
#: that a step's float32 working set (about ten arrays of ``gops x
#: frame`` elements) stays near cache size at the frame sizes the store
#: is run with.  Wider segments run as consecutive passes whose deflate
#: tasks still overlap the next pass.
_LOCKSTEP_GOPS = 4


@dataclass
class CodecTimings:
    """Per-stage codec counters, accumulated across the
    ``decode_gop_frames`` / ``encode_segment`` calls that share one
    instance.

    Decode stage attribution: ``entropy_seconds`` covers header parsing,
    inflate, and the zigzag unscan; ``transform_seconds`` the fused
    dequantize-inverse-DCT (including the sparse scatter);
    ``compensate_seconds`` the sequential recurrence plus output packing
    (rint/uint8 and frame assembly).  ``decoded_bytes`` counts *output*
    pixel bytes, so ``decoded_bytes / sum-of-stages`` is the codec's
    decode MB/s.

    Encode attribution: ``encode_recurrence_seconds`` is the calling
    thread's time in the lockstep loop (estimate, compensate, DCT,
    quantise, scan, reconstruct), ``encode_entropy_seconds`` the summed
    run time of the deflate tasks on whichever threads ran them — the
    two overlap when an executor is given, so their sum is work, not
    wall time — and ``frames_encoded`` the frames that went through.
    """

    entropy_seconds: float = 0.0
    transform_seconds: float = 0.0
    compensate_seconds: float = 0.0
    frames_decoded: int = 0
    decoded_bytes: int = 0
    encode_recurrence_seconds: float = 0.0
    encode_entropy_seconds: float = 0.0
    frames_encoded: int = 0


@dataclass(frozen=True)
class CodecProfile:
    """Static parameters distinguishing codec profiles.

    ``motion`` selects the P-frame predictor: ``none`` (frame difference),
    ``global`` (one translation), or ``tiled`` (2x2 grid of translations).
    Better prediction costs more compute and yields smaller output — the
    h264-vs-hevc asymmetry the paper's cost model captures via vbench.
    """

    name: str
    block_size: int
    motion: str
    entropy_level: int
    default_gop_size: int
    #: Quantizer rounding offset; < 0.5 enables a deadzone (see quant.py).
    deadzone: float = 0.5


def _plane_groups(shapes: list) -> list[list[int]]:
    """Group plane indices by identical shape, preserving plane order.

    RGB groups all three planes together; YUV yields the luma plane alone
    plus the two chroma planes as a pair.  Planes within a group move
    through the transform stages as one stacked array.
    """
    groups: dict = {}
    for index, shape in enumerate(shapes):
        groups.setdefault(tuple(shape), []).append(index)
    return list(groups.values())


class BlockCodec:
    """Encoder/decoder for one :class:`CodecProfile`."""

    def __init__(self, profile: CodecProfile):
        if profile.motion not in ("none", "global", "tiled"):
            raise CodecError(f"unknown motion mode {profile.motion!r}")
        self.profile = profile

    @property
    def name(self) -> str:
        return self.profile.name

    is_compressed = True

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_segment(
        self,
        segment: VideoSegment,
        qp: int = quant.QP_DEFAULT,
        gop_size: int | None = None,
        executor=None,
        timings: CodecTimings | None = None,
    ) -> list[EncodedGOP]:
        """Encode a segment as consecutive GOPs of at most ``gop_size``
        frames each, through the lockstep kernel (module docstring,
        "Encode fast path").

        ``executor`` (an :class:`repro.core.executor.Executor`, optional)
        takes the deflate tasks; ``timings`` (optional) accumulates the
        encode counters.  Each GOP's bytes are identical to
        :meth:`encode_gop_scalar` on its slice, with or without either.
        """
        size = gop_size or self.profile.default_gop_size
        if size < 1:
            raise CodecError(f"gop_size must be >= 1, got {size}")
        return self._encode_gops(segment, size, qp, executor, timings)

    def encode_gop(self, segment: VideoSegment, qp: int = quant.QP_DEFAULT) -> EncodedGOP:
        """Encode an entire segment as a single GOP (first frame intra):
        the one-GOP case of :meth:`encode_segment`."""
        if segment.num_frames == 0:
            raise CodecError("cannot encode an empty GOP")
        return self._encode_gops(segment, segment.num_frames, qp, None, None)[0]

    def _encode_gops(
        self,
        segment: VideoSegment,
        size: int,
        qp: int,
        executor,
        timings: CodecTimings | None,
    ) -> list[EncodedGOP]:
        """The encode kernel: GOP ``g`` covers frames ``[g * size,
        (g + 1) * size)`` (the last one may be shorter).

        Up to ``_LOCKSTEP_GOPS`` GOPs advance together: at step ``k``
        frame ``k`` of each is stacked per plane group into one
        ``(gops, channels, h, w)`` array and moves through estimate ->
        compensate -> DCT -> quantise -> reconstruct as one array.  The
        step's scanned levels go to ``executor`` for deflate and are only
        joined after the last step, so entropy coding overlaps the
        recurrence.
        """
        total = segment.num_frames
        if total == 0:
            return []
        profile = self.profile
        block = profile.block_size
        clock = time.perf_counter
        began = clock()
        views = frames_plane_views(
            segment.pixels, segment.pixel_format, segment.height, segment.width
        )
        shapes = [view.shape[1:] for view in views]
        luma_shape = shapes[0]
        groups = _plane_groups(shapes)
        num_gops = -(-total // size)
        vectors: list[list] = [[] for _ in range(num_gops)]  # [gop][step]
        jobs = []  # (first gop, step, plane indices, deflate result)
        handoff_seconds = 0.0

        for first in range(0, num_gops, _LOCKSTEP_GOPS):
            lo = first * size
            hi = min(total, lo + _LOCKSTEP_GOPS * size)
            # Reconstructed planes of the previous step: one float32
            # ``(gops, channels, h, w)`` stack per plane group.
            previous: list[np.ndarray] = []
            for step in range(min(size, total - lo)):
                # Frame ``step`` of every GOP of this pass that has one;
                # only the segment's last GOP can run out early.
                rows = slice(lo + step, hi, size)
                live = len(range(lo + step, hi, size))
                # Per group, the step's planes in a block-aligned float32
                # stack: pixels, then residual, then (in place) DCT
                # coefficients, then the reconstructed residual.
                stacks = []
                for idxs in groups:
                    h, w = shapes[idxs[0]]
                    stack = np.empty(
                        (live, len(idxs), h + (-h) % block, w + (-w) % block),
                        dtype=np.float32,
                    )
                    for channel, plane in enumerate(idxs):
                        stack[:, channel, :h, :w] = views[plane][rows]
                    stacks.append(stack)
                if step:
                    h, w = luma_shape
                    found = motion.estimate_stack(
                        profile.motion, previous[0][:live, 0], stacks[0][:, 0, :h, :w]
                    )
                else:
                    found = [[] for _ in range(live)]
                for offset, frame_vectors in enumerate(found):
                    vectors[first + offset].append(frame_vectors)
                for position, (idxs, stack) in enumerate(zip(groups, stacks)):
                    h, w = shapes[idxs[0]]
                    pixels = stack[:, :, :h, :w]
                    if step:
                        # ``compensate`` returns the reference itself for
                        # all-zero vectors; either way it is read before
                        # ``recon`` is overwritten below.
                        recon = previous[position][:live]
                        predictions = [
                            motion.compensate(recon[gop], found[gop], luma_shape)
                            for gop in range(live)
                        ]
                        for gop, prediction in enumerate(predictions):
                            np.subtract(pixels[gop], prediction, out=pixels[gop])
                    else:
                        np.subtract(pixels, 128.0, out=pixels)
                    dct.replicate_edges(stack, h, w)
                    levels = quant.quantize(
                        dct.forward_dct(stack, block, overwrite=True),
                        qp,
                        block,
                        profile.deadzone,
                    )
                    scanned = entropy.scan_levels(levels, block)
                    planes = scanned.reshape(-1, *scanned.shape[-2:])
                    mark = clock()
                    if executor is None:
                        job = entropy.deflate_planes(
                            planes, profile.entropy_level
                        )
                    else:
                        job = executor.submit(
                            entropy.deflate_planes, planes, profile.entropy_level
                        )
                    handoff_seconds += clock() - mark
                    jobs.append((first, step, idxs, levels.shape[2:4], job))
                    # Reconstruct what the decoder will see, through the
                    # decode path's sparse inverse: only blocks with a
                    # nonzero level are dequantised and transformed.
                    flat = levels.reshape(-1, block * block)
                    nonzero = entropy.nonzero_blocks(flat)
                    residual = dct.inverse_dct_sparse(
                        quant.dequantize(
                            flat[nonzero].reshape(-1, block, block), qp, block
                        ),
                        nonzero.reshape(-1, *levels.shape[2:4]),
                        block,
                    ).reshape(stack.shape)[:, :, :h, :w]
                    if step:
                        for gop, prediction in enumerate(predictions):
                            np.add(prediction, residual[gop], out=recon[gop])
                    else:
                        recon = np.add(residual, 128.0, out=pixels)
                        previous.append(recon)
                    np.maximum(recon, 0, out=recon)
                    np.minimum(recon, 255, out=recon)
        recurrence_seconds = clock() - began - handoff_seconds

        # -- join the deflate tasks; assemble frame payloads ------------
        entropy_seconds = 0.0
        # (gop, step, plane) -> (plane header, entropy payload)
        chunks: dict[tuple[int, int, int], tuple[bytes, bytes]] = {}
        for first, step, idxs, (nby, nbx), job in jobs:
            payloads, seconds = job if executor is None else job.result()
            entropy_seconds += seconds
            h, w = shapes[idxs[0]]
            for position, payload in enumerate(payloads):
                gop, channel = divmod(position, len(idxs))
                chunks[first + gop, step, idxs[channel]] = (
                    _PLANE_HEADER.pack(nby, nbx, h, w, len(payload)),
                    payload,
                )
        encoded = []
        for gop, gop_vectors in enumerate(vectors):
            payloads = []
            for step, frame_vectors in enumerate(gop_vectors):
                parts = [
                    _FRAME_HEADER.pack(
                        b"P" if step else b"I", len(frame_vectors), len(shapes)
                    )
                ]
                parts.extend(_VECTOR.pack(dy, dx) for dy, dx in frame_vectors)
                for plane in range(len(shapes)):
                    parts.extend(chunks[gop, step, plane])
                payloads.append(b"".join(parts))
            encoded.append(
                EncodedGOP(
                    codec=self.name,
                    pixel_format=segment.pixel_format,
                    width=segment.width,
                    height=segment.height,
                    fps=segment.fps,
                    qp=qp,
                    start_time=segment.time_of(gop * size),
                    frame_types="I" + "P" * (len(payloads) - 1),
                    payloads=payloads,
                )
            )
        if timings is not None:
            timings.encode_recurrence_seconds += recurrence_seconds
            timings.encode_entropy_seconds += entropy_seconds
            timings.frames_encoded += total
        return encoded

    def _estimate_motion(
        self, previous: list[np.ndarray], current: list[np.ndarray]
    ) -> list[tuple[int, int]]:
        """One frame's vectors (the scalar reference's estimator): the
        one-pair case of the stacked estimate, on the luma planes."""
        return motion.estimate_stack(
            self.profile.motion, previous[0][None], current[0][None]
        )[0]

    # ------------------------------------------------------------------
    # scalar encode reference
    # ------------------------------------------------------------------
    def encode_gop_scalar(
        self, segment: VideoSegment, qp: int = quant.QP_DEFAULT
    ) -> EncodedGOP:
        """The per-plane encode loop, kept verbatim as the bit-identity
        oracle for the batched :meth:`encode_gop` (fuzz-tested in
        ``tests/test_codec.py``) and as the benchmark baseline."""
        if segment.num_frames == 0:
            raise CodecError("cannot encode an empty GOP")
        block = self.profile.block_size
        payloads: list[bytes] = []
        frame_types: list[str] = []
        previous: list[np.ndarray] | None = None
        for index in range(segment.num_frames):
            planes = [p.astype(np.float32) for p in segment.planes(index)]
            if previous is None:
                payload, reconstructed = self._encode_intra_scalar(
                    planes, qp, block
                )
                frame_types.append("I")
            else:
                payload, reconstructed = self._encode_predicted_scalar(
                    planes, previous, qp, block
                )
                frame_types.append("P")
            payloads.append(payload)
            previous = reconstructed
        return EncodedGOP(
            codec=self.name,
            pixel_format=segment.pixel_format,
            width=segment.width,
            height=segment.height,
            fps=segment.fps,
            qp=qp,
            start_time=segment.start_time,
            frame_types="".join(frame_types),
            payloads=payloads,
        )

    def _encode_intra_scalar(
        self, planes: list[np.ndarray], qp: int, block: int
    ) -> tuple[bytes, list[np.ndarray]]:
        parts = [_FRAME_HEADER.pack(b"I", 0, len(planes))]
        reconstructed = []
        for plane in planes:
            encoded, recon = self._transform_plane(plane - 128.0, qp, block)
            parts.append(encoded)
            reconstructed.append(np.clip(recon + 128.0, 0, 255))
        return b"".join(parts), reconstructed

    def _encode_predicted_scalar(
        self,
        planes: list[np.ndarray],
        previous: list[np.ndarray],
        qp: int,
        block: int,
    ) -> tuple[bytes, list[np.ndarray]]:
        vectors = self._estimate_motion(previous, planes)
        parts = [_FRAME_HEADER.pack(b"P", len(vectors), len(planes))]
        for dy, dx in vectors:
            parts.append(_VECTOR.pack(dy, dx))
        reconstructed = []
        luma_shape = previous[0].shape
        for plane, prior in zip(planes, previous):
            prediction = motion.compensate(prior, vectors, luma_shape)
            encoded, recon_residual = self._transform_plane(
                plane - prediction, qp, block
            )
            parts.append(encoded)
            reconstructed.append(np.clip(prediction + recon_residual, 0, 255))
        return b"".join(parts), reconstructed

    def _transform_plane(
        self, centered: np.ndarray, qp: int, block: int
    ) -> tuple[bytes, np.ndarray]:
        """Transform/quantize one plane; return (encoded bytes, recon)."""
        h, w = centered.shape
        coeffs = dct.forward_dct(centered, block)
        levels = quant.quantize(coeffs, qp, block, self.profile.deadzone)
        payload = entropy.encode_levels(
            levels, block, self.profile.entropy_level
        )
        nby, nbx = levels.shape[0], levels.shape[1]
        header = _PLANE_HEADER.pack(nby, nbx, h, w, len(payload))
        recon = dct.inverse_dct(quant.dequantize(levels, qp, block), h, w)
        return header + payload, recon

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_gop(
        self, gop: EncodedGOP, executor=None, timings: CodecTimings | None = None
    ) -> VideoSegment:
        """Decode every frame of a GOP."""
        return self.decode_gop_frames(
            gop, gop.num_frames, executor=executor, timings=timings
        )

    def decode_gop_frames(
        self,
        gop: EncodedGOP,
        stop: int,
        executor=None,
        timings: CodecTimings | None = None,
    ) -> VideoSegment:
        """Decode frames ``[0, stop)`` via the batched fast path.

        Because P frames chain, decoding any prefix requires decoding from
        the start of the GOP — the caller cannot skip frames.  (This is the
        physical behaviour behind the paper's look-back cost.)

        The residual work for all ``stop`` frames runs first as batched
        array ops (see the module docstring); the frame-to-frame recurrence
        then only compensates, adds, and clips.  ``executor`` (an
        :class:`repro.core.executor.Executor`, optional) fans the zlib
        inflates across worker threads; ``timings`` (optional) accumulates
        per-stage wall time.  Output pixels are bit-identical to
        :meth:`decode_gop_frames_scalar`.
        """
        if gop.codec != self.name:
            raise CodecError(f"GOP was encoded with {gop.codec!r}, not {self.name!r}")
        if not 0 < stop <= gop.num_frames:
            raise CodecError(f"stop={stop} out of range (1..{gop.num_frames})")
        block = self.profile.block_size
        qp = gop.qp
        clock = time.perf_counter
        mark = clock()

        # -- parse every frame and plane header up front ----------------
        frame_vectors: list[list[tuple[int, int]]] = []
        plane_payloads: list[list[bytes]] = []  # [frame][plane]
        shapes: list[tuple[int, int, int, int]] | None = None
        for index in range(stop):
            payload = gop.payloads[index]
            ftype, n_vectors, n_planes = _FRAME_HEADER.unpack_from(payload)
            frame_type = gop.frame_types[index]
            if ftype.decode() != frame_type:
                raise CodecError(
                    f"payload frame type {ftype!r} disagrees with index ({frame_type})"
                )
            if frame_type == "P" and index == 0:
                raise CodecError("P frame encountered without a reference")
            offset = _FRAME_HEADER.size
            end = offset + n_vectors * _VECTOR.size
            vectors = list(_VECTOR.iter_unpack(payload[offset:end]))
            offset = end
            frame_vectors.append(vectors)
            frame_shapes = []
            frame_chunks = []
            for _ in range(n_planes):
                nby, nbx, h, w, size = _PLANE_HEADER.unpack_from(payload, offset)
                offset += _PLANE_HEADER.size
                frame_shapes.append((nby, nbx, h, w))
                frame_chunks.append(payload[offset : offset + size])
                offset += size
            plane_payloads.append(frame_chunks)
            if shapes is None:
                shapes = frame_shapes
        groups = _plane_groups(shapes)
        luma_shape = shapes[0][2:4]

        # -- inflate all entropy payloads (the only C-released stage
        #    worth fanning out: the array math below is already batched) --
        flat = [
            plane_payloads[index][p]
            for idxs in groups
            for index in range(stop)
            for p in idxs
        ]
        if executor is not None and len(flat) > 1:
            raws = executor.map(zlib.decompress, flat)
        else:
            raws = [zlib.decompress(chunk) for chunk in flat]
        entropy_seconds = clock() - mark

        # -- batched residual reconstruction per plane shape ------------
        transform_seconds = 0.0
        residuals: dict[tuple[int, ...], np.ndarray] = {}
        position = 0
        for idxs in groups:
            mark = clock()
            count = stop * len(idxs)
            nby, nbx, h, w = shapes[idxs[0]]
            scanned = entropy.stack_scanned(
                raws[position : position + count], nby * nbx, block
            )
            position += count
            nonzero = entropy.nonzero_blocks(scanned)
            blocks_nz = entropy.unscan_rows(scanned[nonzero], block)
            entropy_seconds += clock() - mark
            mark = clock()
            coeffs = quant.dequantize(blocks_nz, qp, block)
            padded = dct.inverse_dct_sparse(
                coeffs, nonzero.reshape(-1, nby, nbx), block
            )
            residuals[tuple(idxs)] = padded.reshape(
                stop, len(idxs), nby * block, nbx * block
            )[:, :, :h, :w]
            transform_seconds += clock() - mark

        # -- sequential recurrence: compensate, add residual, clip ------
        mark = clock()
        stacks = {
            tuple(idxs): np.empty(
                (stop, len(idxs), *shapes[idxs[0]][2:4]), dtype=np.float32
            )
            for idxs in groups
        }
        for index in range(stop):
            frame_type = gop.frame_types[index]
            vectors = frame_vectors[index]
            for idxs in groups:
                key = tuple(idxs)
                residual = residuals[key][index]
                out = stacks[key][index]
                if frame_type == "I":
                    np.add(residual, 128.0, out=out)
                else:
                    prediction = motion.compensate(
                        stacks[key][index - 1], vectors, luma_shape
                    )
                    np.add(prediction, residual, out=out)
                # Direct ufunc pair: same values as np.clip(out, 0, 255)
                # without the dispatch wrapper, which is measurable at
                # one call per frame per plane group.
                np.maximum(out, 0, out=out)
                np.minimum(out, 255, out=out)

        # -- one vectorized rint/uint8 pass over the whole GOP, written
        #    straight into the output frame buffer through plane views --
        spec = pixel_format(gop.pixel_format)
        frames = np.empty(
            (stop, *spec.frame_shape(gop.height, gop.width)), dtype=np.uint8
        )
        views = frames_plane_views(
            frames, gop.pixel_format, gop.height, gop.width
        )
        for idxs in groups:
            stack = stacks[tuple(idxs)]
            # After rint the clipped values are exact integers in
            # [0, 255], so the unsafe float->uint8 cast truncates to the
            # same bytes astype would produce.
            np.rint(stack, out=stack)
            for channel, plane_index in enumerate(idxs):
                np.copyto(
                    views[plane_index], stack[:, channel], casting="unsafe"
                )
        compensate_seconds = clock() - mark

        if timings is not None:
            timings.entropy_seconds += entropy_seconds
            timings.transform_seconds += transform_seconds
            timings.compensate_seconds += compensate_seconds
            timings.frames_decoded += stop
            timings.decoded_bytes += int(frames.nbytes)
        return VideoSegment(
            pixels=frames,
            pixel_format=gop.pixel_format,
            height=gop.height,
            width=gop.width,
            fps=gop.fps,
            start_time=gop.start_time,
        )

    # ------------------------------------------------------------------
    # scalar decode reference
    # ------------------------------------------------------------------
    def decode_gop_frames_scalar(self, gop: EncodedGOP, stop: int) -> VideoSegment:
        """The per-frame decode loop, kept verbatim as the bit-identity
        oracle for :meth:`decode_gop_frames` (fuzz-tested in
        ``tests/test_codec.py``) and as the throughput-benchmark baseline."""
        if gop.codec != self.name:
            raise CodecError(f"GOP was encoded with {gop.codec!r}, not {self.name!r}")
        if not 0 < stop <= gop.num_frames:
            raise CodecError(f"stop={stop} out of range (1..{gop.num_frames})")
        spec = pixel_format(gop.pixel_format)
        frames = np.empty(
            (stop, *spec.frame_shape(gop.height, gop.width)), dtype=np.uint8
        )
        previous: list[np.ndarray] | None = None
        for index in range(stop):
            planes, previous = self._decode_frame(
                gop.payloads[index], gop.frame_types[index], previous, gop.qp
            )
            frames[index] = planes_to_frame(
                [np.clip(np.rint(p), 0, 255).astype(np.uint8) for p in planes],
                gop.pixel_format,
                gop.height,
                gop.width,
            )
        return VideoSegment(
            pixels=frames,
            pixel_format=gop.pixel_format,
            height=gop.height,
            width=gop.width,
            fps=gop.fps,
            start_time=gop.start_time,
        )

    def _decode_frame(
        self,
        payload: bytes,
        frame_type: str,
        previous: list[np.ndarray] | None,
        qp: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        block = self.profile.block_size
        ftype, n_vectors, n_planes = _FRAME_HEADER.unpack_from(payload)
        if ftype.decode() != frame_type:
            raise CodecError(
                f"payload frame type {ftype!r} disagrees with index ({frame_type})"
            )
        offset = _FRAME_HEADER.size
        vectors = []
        for _ in range(n_vectors):
            vectors.append(_VECTOR.unpack_from(payload, offset))
            offset += _VECTOR.size
        planes = []
        if frame_type == "P" and previous is None:
            raise CodecError("P frame encountered without a reference")
        luma_shape = previous[0].shape if previous is not None else None
        for plane_index in range(n_planes):
            nby, nbx, h, w, size = _PLANE_HEADER.unpack_from(payload, offset)
            offset += _PLANE_HEADER.size
            levels = entropy.decode_levels(
                payload[offset : offset + size], nby, nbx, block
            )
            offset += size
            recon = dct.inverse_dct(quant.dequantize(levels, qp, block), h, w)
            if frame_type == "I":
                planes.append(np.clip(recon + 128.0, 0, 255))
            else:
                prediction = motion.compensate(
                    previous[plane_index], vectors, luma_shape
                )
                planes.append(np.clip(prediction + recon, 0, 255))
        return planes, planes
