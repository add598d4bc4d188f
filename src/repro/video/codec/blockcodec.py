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

Plane payloads
--------------
Each plane of a frame is one entropy payload in the sparse layout of
:mod:`~repro.video.codec.entropy`: a coded-block mask and the zigzag-
scanned levels of only the blocks it marks.  About 85% of the blocks of
a quantised residual on the rendered scenes hold no level, so a plane
inflates to about a seventh of the bytes a full plane of levels takes.  The
frame's type byte carries the layout: ``b"i"`` / ``b"p"`` for sparse
frames, which is all the encoder writes; ``b"I"`` / ``b"P"`` for the
dense layout (every block's scanned row) of stores written before the
mask existed.  Both parse to the same ``(mask, rows)`` pair, so both
decode to the same pixels.  ``EncodedGOP.frame_types``, the container,
the wire and the catalog spell frame types ``"I"`` / ``"P"`` whatever
the layout.

Decode fast path
----------------
Only the compensate-add-clip recurrence actually chains frame ``k`` to
frame ``k-1``; every frame's residual reconstruction (inflate -> zigzag
unscan -> dequantize -> inverse DCT) is independent.  ``decode_gop_frames``
parses every frame and plane header up front, then works through each
plane group in blocks of frames (:func:`~repro.video.frame.frame_blocks`,
two float32 planes' worth per channel):

1. a batched residual stage inflates the block's plane payloads into
   their ``(mask, rows)`` (optionally fanned across the shared
   :class:`~repro.core.executor.Executor`), stacks the masks and coded
   rows, and runs one fused dequantize-inverse-DCT over only the coded
   blocks, scattered into one residual buffer;
2. a sequential pass over the block's frames compensates the group's
   previous reconstruction, adds the residual and clips, and rounds each
   frame straight into the uint8 output.

The residual buffer, and per plane group one float32 reconstruction and
one prediction buffer, are allocated once per call: a whole-GOP float32
stack is 7.5 MB for 30 frames at 192x108, and under vssbench's
allocator settings every call faulted such temporaries in afresh.  The
reconstruction carries from one block to the next, so the blocks only
bound memory.  Same-shape planes (a GOP's RGB channels, or a YUV pair of
chroma planes) are grouped and move through both stages as one array.
The output is bit-identical to the per-frame scalar loop kept in
``tests/kernel_oracles.py`` — both the fuzz oracle for that guarantee and
the baseline the codec throughput benchmark measures against.

Encode fast path
----------------
Encoding has the mirror-image dependency.  *On* the chain, inside one GOP:
estimate motion against the previous reconstruction -> compensate ->
forward DCT of the residual -> quantise -> reconstruct (dequantise,
inverse DCT, add, clip) — frame ``k`` cannot start before frame ``k-1``
has been reconstructed.  *Off* the chain: the mask packing and deflate of
the coded blocks, which nothing downstream reads, and every other GOP of
the same ``encode_segment`` call, which opens with its own I frame.

``encode_segment`` is one kernel built on exactly that:

1. the calling thread steps up to ``LOCKSTEP_GOPS`` GOPs in lockstep —
   frame ``k`` of each, stacked per plane group into one ``(gops,
   channels, h, w)`` array, goes through one phase-correlation FFT round,
   one in-place DCT, one quantise and one sparse inverse (the decode
   path's coded-block scatter) per step; the coded-block mask that
   inverse needs is the payload's mask, and only the blocks it marks are
   zigzag-scanned;
2. each step's masks and scanned rows are handed to the shared executor,
   which packs and deflates them (``zlib`` releases the GIL) while the
   caller computes step ``k+1``; payloads are joined after the last step.

Deflate is :func:`entropy.deflate`, zlib's run-length (``Z_RLE``)
strategy.  The scanned int16 levels are runs of zero bytes broken by a
few small coefficients, so the run is nearly the only match worth
finding: on a cold read mix the default strategy's search (levels 6 and
9 before) took 2.6x and 18x the time for payloads 5% larger.  ``Z_RLE``
has no level to tune, so the ``h264`` and ``hevc`` profiles differ only
in motion mode and deadzone.

``encode_gop`` is the one-GOP case.  Earlier versions fanned whole GOPs
across the executor instead; that scaled 1.15-1.5x on two cores because
the per-frame numpy of two GOPs contends for the GIL, left a one-GOP
encode (every one-second append) on one thread, and is gone: splitting
the work by *stage* keeps the GIL-bound part on one thread and gives the
pool only what runs without it.  Output bytes equal the per-plane loop's
in ``tests/kernel_oracles.py``, fuzz-compared in ``tests/test_codec.py``.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import CodecError
from repro.video.codec import dct, entropy, motion, quant
from repro.video.codec.container import EncodedGOP
from repro.video.frame import (
    VideoSegment,
    frame_blocks,
    frames_plane_views,
    pixel_format,
)

_FRAME_HEADER = struct.Struct(">cBB")  # frame type, n motion vectors, n planes
_VECTOR = struct.Struct(">hh")
_PLANE_HEADER = struct.Struct(">HHHHI")  # nby, nbx, height, width, payload size


#: GOPs one lockstep pass steps together.  Wide enough that a step's
#: array calls amortise their dispatch over several frames; narrow enough
#: that a step's float32 working set (about ten arrays of ``gops x
#: frame`` elements) stays near cache size at the frame sizes the store
#: is run with.  Wider segments run as consecutive passes whose deflate
#: tasks still overlap the next pass.  The reader re-encodes a transcoded
#: answer in blocks of this many GOPs, one pass per block.
LOCKSTEP_GOPS = 4


@dataclass
class CodecTimings:
    """Per-stage codec counters, accumulated across the
    ``decode_gop_frames`` / ``encode_segment`` calls that share one
    instance.

    Decode stage attribution, summed over a call's blocks of frames:
    ``entropy_seconds`` covers header parsing, inflate, and the zigzag
    unscan; ``transform_seconds`` the fused dequantize-inverse-DCT,
    including the per-block scatter of the coded blocks into the
    residual buffer; ``compensate_seconds`` the sequential recurrence
    and rounding each frame into the output.  ``decoded_bytes`` counts
    *output* pixel bytes, so ``decoded_bytes / sum-of-stages`` is the
    codec's decode MB/s.

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
    Every profile shares the one entropy stage (:func:`entropy.deflate`).
    """

    name: str
    block_size: int
    motion: str
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
        encode counters.  Each GOP's bytes are identical to the scalar
        oracle's on its slice, with or without either.
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

        Up to ``LOCKSTEP_GOPS`` GOPs advance together: at step ``k``
        frame ``k`` of each is stacked per plane group into one
        ``(gops, channels, h, w)`` array and moves through estimate ->
        compensate -> DCT -> quantise -> reconstruct as one array.  The
        step's coded-block masks and scanned rows go to ``executor`` for
        deflate and are only joined after the last step, so entropy
        coding overlaps the recurrence.
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

        for first in range(0, num_gops, LOCKSTEP_GOPS):
            lo = first * size
            hi = min(total, lo + LOCKSTEP_GOPS * size)
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
                    # The coded blocks: those with a nonzero level.  Only
                    # they are scanned for the payload (with the mask that
                    # marks them) and dequantised and transformed to
                    # reconstruct what the decoder will see.
                    nby, nbx = levels.shape[2:4]
                    flat = levels.reshape(-1, block * block)
                    nonzero = entropy.nonzero_blocks(flat)
                    coded = flat[nonzero]
                    masks = nonzero.reshape(-1, nby * nbx)
                    scanned = entropy.scan_rows(coded, block)
                    mark = clock()
                    if executor is None:
                        job = entropy.pack_planes(masks, scanned)
                    else:
                        job = executor.submit(entropy.pack_planes, masks, scanned)
                    handoff_seconds += clock() - mark
                    jobs.append((first, step, idxs, (nby, nbx), job))
                    residual = dct.inverse_dct_sparse(
                        quant.dequantize(
                            coded.reshape(-1, block, block), qp, block
                        ),
                        nonzero.reshape(-1, nby, nbx),
                        block,
                        np.empty_like(stack),
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
                        b"p" if step else b"i", len(frame_vectors), len(shapes)
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

        Per plane group and block of frames, the residual work runs as
        batched array ops, then the frame-to-frame recurrence only
        compensates, adds, clips and rounds into the output (see the
        module docstring).  ``executor`` (an
        :class:`repro.core.executor.Executor`, optional) fans each block's
        plane inflates across worker threads; ``timings`` (optional)
        accumulates per-stage wall time.  Either plane layout decodes,
        frame by frame as its type byte says; output pixels are
        bit-identical to the scalar oracle's.
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
        sparse: list[bool] = []  # [frame]: the layout of its planes
        shapes: list[tuple[int, int, int, int]] | None = None
        for index in range(stop):
            payload = gop.payloads[index]
            ftype, n_vectors, n_planes = _FRAME_HEADER.unpack_from(payload)
            frame_type = gop.frame_types[index]
            if ftype.upper().decode() != frame_type:
                raise CodecError(
                    f"payload frame type {ftype!r} disagrees with index ({frame_type})"
                )
            sparse.append(ftype.islower())
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

        entropy_seconds = clock() - mark

        # -- per plane group, one block of frames at a time: inflate and
        #    scatter the block's coded residuals, then step the
        #    recurrence over it --
        def unpack(task):
            chunk, is_sparse, (nby, nbx, _, _) = task
            return entropy.unpack_plane(chunk, nby * nbx, block, is_sparse)

        spec = pixel_format(gop.pixel_format)
        frames = np.empty(
            (stop, *spec.frame_shape(gop.height, gop.width)), dtype=np.uint8
        )
        views = frames_plane_views(
            frames, gop.pixel_format, gop.height, gop.width
        )
        # Blocks of two float32 planes' worth per channel: one for the
        # residual buffer, one for the coded blocks' coefficients.
        layouts = []  # (plane indices, padded shape, frame blocks)
        for idxs in groups:
            nby, nbx = shapes[idxs[0]][:2]
            padded = (nby * block, nbx * block)
            layouts.append(
                (idxs, padded, frame_blocks(stop, *padded, 2 * len(idxs)))
            )
        # The one residual buffer every group's blocks go through.
        residual_buffer = np.empty(
            max(
                (blocks[0][1] - blocks[0][0]) * len(idxs) * padded[0] * padded[1]
                for idxs, padded, blocks in layouts
            ),
            dtype=np.float32,
        )
        transform_seconds = 0.0
        compensate_seconds = 0.0
        for idxs, padded, blocks in layouts:
            channels = len(idxs)
            nby, nbx, h, w = shapes[idxs[0]]
            # The group's reconstruction of the frame just decoded, and
            # the buffer its motion-compensated prediction goes to.
            recon = np.empty((channels, h, w), dtype=np.float32)
            predicted = np.empty_like(recon)
            for lo, hi in blocks:
                mark = clock()
                # Inflate is the only C-released stage worth fanning out.
                tasks = [
                    (plane_payloads[index][p], sparse[index], shapes[p])
                    for index in range(lo, hi)
                    for p in idxs
                ]
                if executor is None:
                    parsed = [unpack(task) for task in tasks]
                else:
                    parsed = executor.map(unpack, tasks)
                nonzero = np.stack([mask for mask, _ in parsed])
                coded = entropy.unscan_rows(
                    np.concatenate([rows for _, rows in parsed]), block
                )
                entropy_seconds += clock() - mark
                mark = clock()
                residuals = dct.inverse_dct_sparse(
                    quant.dequantize(coded, qp, block),
                    nonzero.reshape(-1, nby, nbx),
                    block,
                    residual_buffer[: len(tasks) * padded[0] * padded[1]],
                ).reshape(hi - lo, channels, *padded)[:, :, :h, :w]
                transform_seconds += clock() - mark
                mark = clock()
                for index in range(lo, hi):
                    residual = residuals[index - lo]
                    if gop.frame_types[index] == "I":
                        np.add(residual, 128.0, out=recon)
                    else:
                        # The prediction is ``recon`` itself for all-zero
                        # vectors; adding in place is then still exact.
                        prediction = motion.compensate(
                            recon, frame_vectors[index], luma_shape, predicted
                        )
                        np.add(prediction, residual, out=recon)
                    # Direct ufunc pair: same values as np.clip(recon, 0,
                    # 255) without the dispatch wrapper, which is
                    # measurable at one call per frame per plane group.
                    np.maximum(recon, 0, out=recon)
                    np.minimum(recon, 255, out=recon)
                    # After rint the clipped values are exact integers in
                    # [0, 255], so the unsafe float->uint8 cast stores
                    # the bytes astype would; ``recon`` itself stays
                    # unrounded, the reference of the next frame.
                    for channel, plane in enumerate(idxs):
                        np.rint(
                            recon[channel],
                            out=views[plane][index],
                            casting="unsafe",
                        )
                compensate_seconds += clock() - mark

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
