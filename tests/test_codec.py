"""Tests for the codec stack: DCT, quantization, entropy, motion, GOPs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import Executor
from repro.errors import CodecError, ContainerError
from repro.video.codec import dct, entropy, motion, quant
from repro.video.codec.blockcodec import BlockCodec, CodecProfile, CodecTimings
from repro.video.codec.container import (
    EncodedGOP,
    decode_container,
    encode_container,
)
from repro.video.frame import VideoSegment, pixel_format
from repro.video.codec.registry import (
    CODEC_NAMES,
    codec_for,
    decode_gop,
    encode_gop,
    is_compressed_codec,
)
from repro.video.metrics import segment_psnr
from tests.test_frame import make_segment


class TestDCT:
    def test_roundtrip_exact_without_quantization(self):
        rng = np.random.default_rng(0)
        plane = rng.uniform(-128, 128, (24, 40)).astype(np.float32)
        coeffs = dct.forward_dct(plane, 8)
        recon = dct.inverse_dct(coeffs, 24, 40)
        assert np.abs(recon - plane).max() < 1e-2

    def test_padding_handles_non_multiple_sizes(self):
        plane = np.random.default_rng(1).uniform(0, 255, (13, 21)).astype(np.float32)
        coeffs = dct.forward_dct(plane, 8)
        recon = dct.inverse_dct(coeffs, 13, 21)
        assert recon.shape == (13, 21)
        assert np.abs(recon - plane).max() < 1e-2

    def test_block_tiling_roundtrip(self):
        plane = np.arange(64, dtype=np.float32).reshape(8, 8)
        blocks = dct.to_blocks(dct.pad_to_blocks(plane, 4), 4)
        assert blocks.shape == (2, 2, 4, 4)
        assert np.array_equal(dct.from_blocks(blocks), plane)

    def test_dc_coefficient_is_block_mean_scaled(self):
        plane = np.full((8, 8), 80.0, dtype=np.float32)
        coeffs = dct.forward_dct(plane, 8)
        # Orthonormal 2-D DCT: DC = mean * block for constant blocks.
        assert coeffs[0, 0, 0, 0] == pytest.approx(80.0 * 8)
        assert np.abs(coeffs[0, 0][1:, 1:]).max() < 1e-4


class TestQuantization:
    def test_qstep_doubles_every_six(self):
        assert quant.qstep(6) == pytest.approx(2 * quant.qstep(0))
        assert quant.qstep(18) == pytest.approx(8 * quant.qstep(0))

    def test_qp_range_enforced(self):
        with pytest.raises(ValueError):
            quant.qstep(-1)
        with pytest.raises(ValueError):
            quant.qstep(99)

    def test_weight_matrix_shape_and_monotonicity(self):
        weights = quant.weight_matrix(8)
        assert weights.shape == (8, 8)
        assert weights[0, 0] == pytest.approx(1.0)
        assert weights[7, 7] == pytest.approx(4.0)
        assert (np.diff(weights.diagonal()) >= 0).all()

    def test_roundtrip_error_bounded_by_step(self):
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(-200, 200, (2, 2, 8, 8)).astype(np.float32)
        levels = quant.quantize(coeffs, 0, 8)
        recon = quant.dequantize(levels, 0, 8)
        bound = quant.qstep(0) * quant.weight_matrix(8) / 2 + 1e-4
        assert (np.abs(recon - coeffs) <= bound[None, None]).all()

    def test_higher_qp_coarser(self):
        coeffs = np.random.default_rng(3).uniform(-100, 100, (1, 1, 8, 8)).astype(np.float32)
        fine = quant.dequantize(quant.quantize(coeffs, 0, 8), 0, 8)
        coarse = quant.dequantize(quant.quantize(coeffs, 30, 8), 30, 8)
        assert np.abs(fine - coeffs).mean() < np.abs(coarse - coeffs).mean()

    def test_deadzone_zeroes_more_coefficients(self):
        coeffs = np.random.default_rng(4).uniform(-8, 8, (4, 4, 8, 8)).astype(np.float32)
        plain = quant.quantize(coeffs, 20, 8, deadzone=0.5)
        dead = quant.quantize(coeffs, 20, 8, deadzone=0.2)
        assert (dead == 0).sum() >= (plain == 0).sum()

    def test_deadzone_validation(self):
        with pytest.raises(ValueError):
            quant.quantize(np.zeros((1, 1, 8, 8), dtype=np.float32), 10, 8, deadzone=0.0)


class TestEntropy:
    def test_zigzag_is_permutation(self):
        order = entropy.zigzag_order(8)
        assert sorted(order.tolist()) == list(range(64))

    def test_zigzag_starts_low_frequency(self):
        order = entropy.zigzag_order(4)
        assert order[0] == 0  # DC first
        assert set(order[:3].tolist()) == {0, 1, 4}

    def test_inverse_zigzag(self):
        order = entropy.zigzag_order(8)
        inverse = entropy.inverse_zigzag_order(8)
        flat = np.arange(64)
        assert np.array_equal(flat[order][inverse], flat)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_levels_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        levels = rng.integers(-300, 300, (3, 5, 8, 8)).astype(np.int16)
        payload = entropy.encode_levels(levels, 8)
        back = entropy.decode_levels(payload, 3, 5, 8)
        assert np.array_equal(back, levels)

    def test_sparse_levels_compress_well(self):
        levels = np.zeros((4, 4, 8, 8), dtype=np.int16)
        levels[:, :, 0, 0] = 100
        payload = entropy.encode_levels(levels, 8)
        assert len(payload) < levels.nbytes / 10

    def test_wrong_block_count_rejected(self):
        levels = np.zeros((2, 2, 8, 8), dtype=np.int16)
        payload = entropy.encode_levels(levels, 8)
        with pytest.raises(ValueError, match="blocks"):
            entropy.decode_levels(payload, 3, 3, 8)


class TestMotion:
    def test_phase_correlation_recovers_shift(self):
        rng = np.random.default_rng(5)
        from scipy.ndimage import gaussian_filter

        base = gaussian_filter(rng.uniform(0, 255, (64, 96)), 1.0)
        shifted = motion.shift_plane(base, 5, -7)
        dy, dx = motion.phase_correlate(base, shifted)
        assert (dy, dx) == (5, -7)

    def test_shift_plane_zero_is_noop(self):
        plane = np.random.default_rng(6).uniform(0, 255, (16, 16))
        assert motion.shift_plane(plane, 0, 0) is plane

    def test_shift_plane_replicates_edges(self):
        plane = np.arange(16, dtype=np.float32).reshape(4, 4)
        out = motion.shift_plane(plane, 1, 0)
        assert np.array_equal(out[0], plane[0])  # replicated top row
        assert np.array_equal(out[1], plane[0])

    def test_shift_plane_matches_fancy_index_reference(self):
        """The slice+edge-pad translation must be bit-identical to the
        original clipped fancy-indexing (``plane[src_y][:, src_x]``) for
        every shift, including shifts beyond the plane's extent."""

        def reference(plane, dy, dx):
            h, w = plane.shape
            src_y = np.clip(np.arange(h) - dy, 0, h - 1)
            src_x = np.clip(np.arange(w) - dx, 0, w - 1)
            return plane[src_y][:, src_x]

        rng = np.random.default_rng(11)
        for _ in range(200):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            plane = rng.integers(0, 256, size=(h, w)).astype(np.int16)
            dy = int(rng.integers(-40, 41))
            dx = int(rng.integers(-40, 41))
            out = motion.shift_plane(plane, dy, dx)
            assert np.array_equal(out, reference(plane, dy, dx)), (
                h, w, dy, dx,
            )
        # The max-magnitude corners the estimators can actually emit.
        plane = rng.integers(0, 256, size=(24, 40)).astype(np.int16)
        for dy in (-motion.MAX_SHIFT, 0, motion.MAX_SHIFT):
            for dx in (-motion.MAX_SHIFT, 0, motion.MAX_SHIFT):
                assert np.array_equal(
                    motion.shift_plane(plane, dy, dx),
                    reference(plane, dy, dx),
                )

    def test_shift_window_matches_shift_plane_slice(self):
        """``shift_window`` must equal the corresponding window of the
        full shifted plane for arbitrary windows and shifts."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            plane = rng.integers(0, 256, size=(h, w)).astype(np.int16)
            dy = int(rng.integers(-40, 41))
            dx = int(rng.integers(-40, 41))
            y0 = int(rng.integers(0, h))
            y1 = int(rng.integers(y0 + 1, h + 1))
            x0 = int(rng.integers(0, w))
            x1 = int(rng.integers(x0 + 1, w + 1))
            expected = motion.shift_plane(plane, dy, dx)[y0:y1, x0:x1]
            got = motion.shift_window(plane, dy, dx, y0, y1, x0, x1)
            assert np.array_equal(got, expected), (h, w, dy, dx, y0, y1, x0, x1)

    def test_compensate_tiled_matches_full_plane_reference(self):
        """Tiled compensation computes each tile's region directly; it
        must stay bit-identical to the former implementation (shift the
        whole plane per tile, then copy out that tile) — including
        border pixels pulled in from outside the tile."""

        def reference(plane, vectors):
            h, w = plane.shape
            hy, hx = h // 2, w // 2
            out = plane.copy()
            bounds = (
                (0, hy, 0, hx),
                (0, hy, hx, w),
                (hy, h, 0, hx),
                (hy, h, hx, w),
            )
            for (y0, y1, x0, x1), (dy, dx) in zip(bounds, vectors):
                shifted = motion.shift_plane(plane, dy, dx)
                out[y0:y1, x0:x1] = shifted[y0:y1, x0:x1]
            return out

        rng = np.random.default_rng(13)
        for _ in range(300):
            h = int(rng.integers(2, 40))
            w = int(rng.integers(2, 40))
            plane = rng.integers(0, 256, size=(h, w)).astype(np.int16)
            vectors = [
                (int(rng.integers(-40, 41)), int(rng.integers(-40, 41)))
                for _ in range(4)
            ]
            got = motion.compensate_tiled(plane, vectors)
            assert np.array_equal(got, reference(plane, vectors)), (
                h, w, vectors,
            )
        # Degenerate vector lists leave uncovered tiles unshifted, as
        # the former implementation's zip truncation did.
        plane = rng.integers(0, 256, size=(12, 16)).astype(np.int16)
        for n in (0, 1, 2, 3):
            vectors = [(3, -2)] * n
            assert np.array_equal(
                motion.compensate_tiled(plane, vectors),
                reference(plane, vectors),
            )

    def test_refine_rejects_bad_vector(self):
        rng = np.random.default_rng(7)
        ref = rng.uniform(0, 255, (32, 32)).astype(np.float32)
        tgt = ref + rng.normal(0, 1, (32, 32)).astype(np.float32)
        # A large bogus candidate must be rejected in favour of (0, 0).
        assert motion._refine(ref, tgt, (10, 10)) == (0, 0)

    def test_vector_scaling_for_chroma(self):
        assert motion.scale_vector_for_plane((4, 6), (32, 32), (16, 16)) == (2, 3)

    @staticmethod
    def _estimate_tiled_scalar_reference(reference_luma, target_luma):
        """The pre-vectorization per-tile loop, kept verbatim as the
        bit-identity oracle for the batched implementation."""
        h, w = reference_luma.shape
        hy, hx = h // 2, w // 2
        vectors = []
        for ty in (0, 1):
            for tx in (0, 1):
                ref = reference_luma[
                    ty * hy : (ty + 1) * hy, tx * hx : (tx + 1) * hx
                ]
                tgt = target_luma[
                    ty * hy : (ty + 1) * hy, tx * hx : (tx + 1) * hx
                ]
                if min(ref.shape) < 8:
                    vectors.append((0, 0))
                    continue
                vectors.append(
                    motion._refine(
                        ref, tgt, motion.phase_correlate(ref, tgt)
                    )
                )
        return vectors

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        height=st.integers(4, 72),
        width=st.integers(4, 72),
        dy=st.integers(-6, 6),
        dx=st.integers(-6, 6),
    )
    def test_estimate_tiled_matches_scalar_reference(
        self, seed, height, width, dy, dx
    ):
        # The batched-FFT estimator must return bit-identical vectors to
        # the per-tile loop, including degenerate tiny-tile frames and
        # noisy targets where the correlation peak is ambiguous.
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 255, size=(height, width)).astype(np.float32)
        tgt = (
            motion.shift_plane(ref, dy, dx)
            + rng.normal(0, 2, size=(height, width)).astype(np.float32)
        )
        assert motion.estimate_stack("tiled", ref[None], tgt[None]) == [
            self._estimate_tiled_scalar_reference(ref, tgt)
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        mode=st.sampled_from(["none", "global", "tiled"]),
        height=st.integers(4, 60),
        width=st.integers(4, 60),
        count=st.integers(1, 5),
    )
    def test_estimate_stack_matches_single_pairs(
        self, seed, mode, height, width, count
    ):
        # The encoder estimates frame k of several GOPs in one stacked
        # call; each pair's vectors must equal a call on that pair alone
        # (and, for ``global``, the single-pair ``phase_correlate``).
        rng = np.random.default_rng(seed)
        refs = rng.integers(0, 255, size=(count, height, width)).astype(
            np.float32
        )
        tgts = np.stack(
            [
                motion.shift_plane(ref, int(dy), int(dx))
                for ref, (dy, dx) in zip(refs, rng.integers(-5, 6, (count, 2)))
            ]
        ) + rng.normal(0, 2, size=refs.shape).astype(np.float32)
        stacked = motion.estimate_stack(mode, refs, tgts)
        assert stacked == [
            motion.estimate_stack(mode, refs[i : i + 1], tgts[i : i + 1])[0]
            for i in range(count)
        ]
        if mode == "global" and min(height, width) >= 16:
            for i in range(count):
                dy, dx = motion.phase_correlate(
                    refs[i, ::2, ::2], tgts[i, ::2, ::2]
                )
                assert stacked[i] == [
                    motion._refine(refs[i], tgts[i], (2 * dy, 2 * dx))
                ]

    def test_estimate_tiled_recovers_per_tile_shifts(self):
        # Distinct motion per quadrant: each tile's vector must track its
        # own content, not a single global translation.  Broadband
        # (unsmoothed) content keeps the correlation peaks unambiguous.
        rng = np.random.default_rng(11)
        base = rng.uniform(0, 255, (96, 96)).astype(np.float32)
        tgt = base.copy()
        tgt[:48, :48] = motion.shift_plane(base[:48, :48], 3, 0)
        tgt[48:, 48:] = motion.shift_plane(base[48:, 48:], 0, -4)
        (vectors,) = motion.estimate_stack("tiled", base[None], tgt[None])
        assert vectors[0] == (3, 0)
        assert vectors[3] == (0, -4)


class TestBlockCodec:
    @pytest.mark.parametrize("codec", ["h264", "hevc"])
    def test_roundtrip_high_quality(self, codec, tiny_clip):
        gops = encode_gop(codec, tiny_clip, qp=0, gop_size=12)
        decoded = [decode_gop(g) for g in gops]
        recovered = decoded[0].concatenate(decoded)
        assert segment_psnr(tiny_clip, recovered) >= 40.0

    @pytest.mark.parametrize("codec", ["h264", "hevc"])
    def test_quality_monotone_in_qp(self, codec, tiny_clip):
        qualities = []
        for qp in (0, 20, 40):
            gops = encode_gop(codec, tiny_clip, qp=qp, gop_size=24)
            decoded = decode_gop(gops[0])
            qualities.append(segment_psnr(tiny_clip, decoded))
        assert qualities[0] > qualities[1] > qualities[2]

    @pytest.mark.parametrize("codec", ["h264", "hevc"])
    def test_size_decreases_with_qp(self, codec, tiny_clip):
        sizes = [
            sum(g.nbytes for g in encode_gop(codec, tiny_clip, qp=qp, gop_size=24))
            for qp in (0, 20, 40)
        ]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_hevc_smaller_than_h264_at_same_qp(self, tiny_clip):
        h264 = sum(g.nbytes for g in encode_gop("h264", tiny_clip, qp=14))
        hevc = sum(g.nbytes for g in encode_gop("hevc", tiny_clip, qp=14))
        assert hevc < h264

    def test_gop_structure(self, tiny_clip):
        gops = encode_gop("h264", tiny_clip, qp=14, gop_size=8)
        assert len(gops) == 3
        for gop in gops:
            assert gop.frame_types[0] == "I"
            assert set(gop.frame_types[1:]) <= {"P"}
        assert gops[1].start_time == pytest.approx(8 / 30)

    def test_prefix_decode_matches_full_decode(self, tiny_clip):
        gop = encode_gop("h264", tiny_clip, qp=10, gop_size=24)[0]
        codec = codec_for("h264")
        full = codec.decode_gop(gop)
        prefix = codec.decode_gop_frames(gop, 10)
        assert prefix.num_frames == 10
        assert np.array_equal(prefix.pixels, full.pixels[:10])

    def test_prefix_decode_bounds(self, tiny_clip):
        gop = encode_gop("h264", tiny_clip, qp=10, gop_size=24)[0]
        with pytest.raises(CodecError):
            codec_for("h264").decode_gop_frames(gop, 0)
        with pytest.raises(CodecError):
            codec_for("h264").decode_gop_frames(gop, 99)

    def test_wrong_codec_decode_rejected(self, tiny_clip):
        gop = encode_gop("h264", tiny_clip, qp=10)[0]
        with pytest.raises(CodecError, match="encoded with"):
            codec_for("hevc").decode_gop(gop)

    def test_empty_gop_rejected(self, tiny_clip):
        with pytest.raises(CodecError):
            codec_for("h264").encode_gop(tiny_clip.slice_frames(0, 0))

    @pytest.mark.parametrize("fmt", ["gray", "yuv420", "yuv422"])
    def test_non_rgb_formats_roundtrip(self, fmt, tiny_clip):
        from repro.video.frame import convert_segment

        seg = convert_segment(tiny_clip.slice_frames(0, 6), fmt)
        gop = encode_gop("h264", seg, qp=0, gop_size=6)[0]
        decoded = decode_gop(gop)
        assert decoded.pixel_format == fmt
        assert segment_psnr(seg, decoded) >= 38.0


# ----------------------------------------------------------------------
# batched fast path vs scalar reference
# ----------------------------------------------------------------------
#: (pixel_format, height, width): odd dims for the unsubsampled formats,
#: block-unaligned dims (not a multiple of either block size) for the
#: chroma-subsampled ones (whose packing needs height % 4 == 0 for
#: yuv420 and even height for yuv422).
_GEOMETRIES = [
    ("rgb", 17, 23),
    ("gray", 13, 19),
    ("yuv420", 12, 22),
    ("yuv422", 18, 26),
    # 50x26: neither side a multiple of either block size, tiles large
    # enough for the tiled estimator to run, and (yuv420) chroma planes
    # of 13x25 that do not end on a row of the packed frame.
    ("rgb", 26, 50),
    ("gray", 26, 50),
    ("yuv420", 26, 50),
    ("yuv422", 26, 50),
]


def _drifting_segment(seed, fmt, height, width, n):
    """``n`` frames cropped from one textured canvas with per-frame drift
    plus noise, so P frames carry real motion and real residuals."""
    spec = pixel_format(fmt)
    shape = spec.frame_shape(height, width)
    rng = np.random.default_rng(seed)
    canvas = rng.integers(
        0, 256, (shape[0] + 12, shape[1] + 12, *shape[2:]), dtype=np.int16
    )
    frames = np.empty((n, *shape), dtype=np.uint8)
    for index in range(n):
        oy = 6 + int(rng.integers(-3, 4))
        ox = 6 + int(rng.integers(-3, 4))
        view = canvas[oy : oy + shape[0], ox : ox + shape[1]]
        noise = rng.integers(-6, 7, shape)
        frames[index] = np.clip(view + noise, 0, 255).astype(np.uint8)
    return VideoSegment(frames, fmt, height, width, 30.0)


class TestBatchedFastPathBitIdentity:
    """The GOP-batched encode/decode fast paths must be **bit-identical**
    to the retained scalar references over every profile axis: all three
    motion modes, both block sizes, qp across the quality range, every
    pixel format, odd/unaligned frame dims, 1-frame GOPs, and prefix
    decodes."""

    @staticmethod
    def _codec(motion_mode, block):
        return BlockCodec(
            CodecProfile(
                name="fuzz",
                block_size=block,
                motion=motion_mode,
                entropy_level=6,
                default_gop_size=30,
                deadzone=0.5 if motion_mode != "tiled" else 0.33,
            )
        )

    @pytest.fixture(scope="class")
    def executors(self):
        """The three executor settings a caller can hand the encoder."""
        pools = {None: None, 1: Executor(parallelism=1), 2: Executor(parallelism=2)}
        yield pools
        pools[2].shutdown()

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        motion_mode=st.sampled_from(["none", "global", "tiled"]),
        block=st.sampled_from([8, 16]),
        qp=st.sampled_from([0, 14, 40]),
        geometry=st.sampled_from(_GEOMETRIES),
        num_gops=st.sampled_from([1, 2, 3, 5]),
        gop_size=st.integers(1, 4),
        tail=st.integers(1, 4),
        parallelism=st.sampled_from([None, 1, 2]),
    )
    def test_encode_matches_scalar_reference(
        self, executors, seed, motion_mode, block, qp, geometry,
        num_gops, gop_size, tail, parallelism,
    ):
        # ``num_gops`` GOPs of ``gop_size`` frames, the last one cut to
        # ``tail``: one to five lockstep chains, more than one pass at
        # five, and a chain that runs out before the others.
        fmt, height, width = geometry
        codec = self._codec(motion_mode, block)
        n = (num_gops - 1) * gop_size + min(tail, gop_size)
        seg = _drifting_segment(seed, fmt, height, width, n)
        seg.start_time = 1.25
        gops = codec.encode_segment(
            seg, qp=qp, gop_size=gop_size, executor=executors[parallelism]
        )
        assert len(gops) == num_gops
        for index, gop in enumerate(gops):
            piece = seg.slice_frames(
                index * gop_size, min((index + 1) * gop_size, n)
            )
            scalar = codec.encode_gop_scalar(piece, qp=qp)
            assert gop.start_time == scalar.start_time
            assert gop.frame_types == scalar.frame_types
            assert gop.payloads == scalar.payloads
        # ``encode_gop`` is the same kernel's one-GOP case.
        assert codec.encode_gop(seg, qp=qp).payloads == (
            codec.encode_gop_scalar(seg, qp=qp).payloads
        )

    def test_one_gop_encode_uses_the_pool(self, tiny_clip):
        # A one-GOP encode has no second GOP to overlap with; its deflate
        # tasks must still leave the calling thread.
        codec = codec_for("hevc")
        executor = Executor(parallelism=2)
        try:
            (gop,) = codec.encode_segment(
                tiny_clip, qp=14, gop_size=tiny_clip.num_frames,
                executor=executor,
            )
            assert executor._pool is not None
        finally:
            executor.shutdown()
        # One task per frame (rgb is one plane group), counted by the
        # pool's done-callbacks, so read after the join.
        assert executor.tasks_completed == tiny_clip.num_frames
        assert gop.payloads == codec.encode_gop_scalar(tiny_clip, qp=14).payloads

    def test_encode_from_pool_worker_returns_same_bytes(self, tiny_clip):
        # ``encode_segment`` joins the deflate tasks it submitted.  Called
        # from tasks that occupy every worker of the same pool (cache
        # admission does this), queued subtasks would never start; the
        # executor's in-worker rule runs them inline instead.  A
        # regression hangs here, so the wait is bounded.
        codec = codec_for("h264")
        expected = [
            g.payloads for g in codec.encode_segment(tiny_clip, qp=14, gop_size=6)
        ]
        assert len(expected) == 4
        executor = Executor(parallelism=2)
        try:
            futures = [
                executor.submit(
                    lambda: codec.encode_segment(
                        tiny_clip, qp=14, gop_size=6, executor=executor
                    )
                )
                for _ in range(2)
            ]
            for future in futures:
                gops = future.result(timeout=60)
                assert [g.payloads for g in gops] == expected
        finally:
            executor.shutdown()

    def test_encode_timings_populated(self, tiny_clip):
        codec = codec_for("h264")
        timings = CodecTimings()
        codec.encode_segment(tiny_clip, qp=14, gop_size=8, timings=timings)
        codec.encode_segment(tiny_clip, qp=14, gop_size=8, timings=timings)
        assert timings.frames_encoded == 2 * tiny_clip.num_frames
        assert timings.encode_recurrence_seconds > 0.0
        assert timings.encode_entropy_seconds > 0.0
        assert timings.frames_decoded == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        motion_mode=st.sampled_from(["none", "global", "tiled"]),
        block=st.sampled_from([8, 16]),
        qp=st.sampled_from([0, 14, 40]),
        geometry=st.sampled_from(_GEOMETRIES),
        n=st.integers(1, 5),
        stop=st.integers(1, 5),
    )
    def test_decode_matches_scalar_reference(
        self, seed, motion_mode, block, qp, geometry, n, stop
    ):
        fmt, height, width = geometry
        codec = self._codec(motion_mode, block)
        seg = _drifting_segment(seed, fmt, height, width, n)
        gop = codec.encode_gop(seg, qp=qp)
        stop = min(stop, n)
        fast = codec.decode_gop_frames(gop, stop)
        reference = codec.decode_gop_frames_scalar(gop, stop)
        assert fast.pixels.dtype == reference.pixels.dtype == np.uint8
        assert np.array_equal(fast.pixels, reference.pixels)

    @pytest.mark.parametrize("name", ["h264", "hevc"])
    def test_registry_profiles_match_scalar_on_real_content(
        self, name, tiny_clip
    ):
        codec = codec_for(name)
        seg = tiny_clip.slice_frames(0, 12)
        gop = codec.encode_gop(seg, qp=14)
        scalar_gop = codec.encode_gop_scalar(seg, qp=14)
        assert gop.payloads == scalar_gop.payloads
        fast = codec.decode_gop_frames(gop, 12)
        reference = codec.decode_gop_frames_scalar(gop, 12)
        assert np.array_equal(fast.pixels, reference.pixels)

    def test_executor_fanout_decode_identical(self, tiny_clip):
        codec = codec_for("h264")
        gop = codec.encode_gop(tiny_clip, qp=14)
        executor = Executor(parallelism=4)
        try:
            fanned = codec.decode_gop_frames(
                gop, gop.num_frames, executor=executor
            )
            inline = codec.decode_gop_frames(gop, gop.num_frames)
            assert np.array_equal(fanned.pixels, inline.pixels)
            assert executor.tasks_completed > 0
        finally:
            executor.shutdown()

    def test_decode_from_worker_thread_runs_inline(self, tiny_clip):
        # The reader fans chunk decodes through the shared pool, and each
        # decode fans its entropy inflates through the same pool.  The
        # inner map must detect it is on a worker thread and run inline —
        # otherwise two outer tasks occupying both workers while waiting
        # on queued subtasks would deadlock the pool (this test would
        # hang, not fail).
        codec = codec_for("h264")
        gop = codec.encode_gop(tiny_clip, qp=14)
        baseline = codec.decode_gop_frames(gop, gop.num_frames).pixels
        executor = Executor(parallelism=2)
        try:
            results = executor.map(
                lambda _: codec.decode_gop_frames(
                    gop, gop.num_frames, executor=executor
                ).pixels,
                [0, 1],
            )
            for pixels in results:
                assert np.array_equal(pixels, baseline)
        finally:
            executor.shutdown()

    def test_decode_timings_populated(self, tiny_clip):
        codec = codec_for("h264")
        gop = codec.encode_gop(tiny_clip, qp=14)
        timings = CodecTimings()
        decoded = codec.decode_gop_frames(
            gop, gop.num_frames, timings=timings
        )
        assert timings.frames_decoded == gop.num_frames
        assert timings.decoded_bytes == decoded.pixels.nbytes
        assert timings.entropy_seconds > 0.0
        assert timings.transform_seconds > 0.0
        assert timings.compensate_seconds > 0.0

    def test_timings_accumulate_across_gops(self, tiny_clip):
        codec = codec_for("h264")
        gops = codec.encode_segment(tiny_clip, qp=14, gop_size=8)
        timings = CodecTimings()
        for gop in gops:
            codec.decode_gop(gop, timings=timings)
        assert timings.frames_decoded == tiny_clip.num_frames
        assert timings.decoded_bytes == tiny_clip.pixels.nbytes


class TestRawCodec:
    def test_lossless_roundtrip(self, tiny_clip):
        gops = encode_gop("raw", tiny_clip, gop_size=8)
        decoded = [decode_gop(g) for g in gops]
        recovered = decoded[0].concatenate(decoded)
        assert np.array_equal(recovered.pixels, tiny_clip.pixels)

    def test_all_intra(self, tiny_clip):
        for gop in encode_gop("raw", tiny_clip):
            assert set(gop.frame_types) == {"I"}

    def test_size_matches_raw_bytes(self, tiny_clip):
        gops = encode_gop("raw", tiny_clip, gop_size=tiny_clip.num_frames)
        payload = sum(len(p) for p in gops[0].payloads)
        assert payload == tiny_clip.nbytes


class TestRegistry:
    def test_names(self):
        assert CODEC_NAMES == ("h264", "hevc", "raw")

    def test_compressed_flags(self):
        assert is_compressed_codec("h264")
        assert is_compressed_codec("hevc")
        assert not is_compressed_codec("raw")

    def test_unknown_codec(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            codec_for("av1")


class TestContainer:
    def test_roundtrip(self, tiny_clip):
        gop = encode_gop("h264", tiny_clip, qp=14)[0]
        data = encode_container(gop)
        back = decode_container(data)
        assert back.codec == gop.codec
        assert back.frame_types == gop.frame_types
        assert back.payloads == gop.payloads
        assert back.start_time == gop.start_time

    def test_magic_check(self):
        with pytest.raises(ContainerError, match="magic"):
            decode_container(b"XXXX" + b"\x00" * 32)

    def test_truncation_detected(self, tiny_clip):
        data = encode_container(encode_gop("h264", tiny_clip, qp=14)[0])
        with pytest.raises(ContainerError, match="truncated"):
            decode_container(data[: len(data) // 2])

    def test_gop_must_start_with_i_frame(self):
        with pytest.raises(ContainerError, match="I frame"):
            EncodedGOP("h264", "rgb", 8, 8, 30.0, 10, 0.0, "P", [b"x"])

    def test_bits_per_pixel(self, tiny_clip):
        gop = encode_gop("raw", tiny_clip, gop_size=tiny_clip.num_frames)[0]
        assert gop.bits_per_pixel == pytest.approx(24.0)

    def test_with_start_time(self, tiny_clip):
        gop = encode_gop("h264", tiny_clip, qp=14)[0]
        moved = gop.with_start_time(5.0)
        assert moved.start_time == 5.0
        assert moved.end_time == pytest.approx(5.0 + gop.duration)
        assert gop.start_time == 0.0  # original untouched


@settings(max_examples=10, deadline=None)
@given(qp=st.integers(0, 44), gop_size=st.integers(2, 12))
def test_property_codec_roundtrip_geometry(qp, gop_size):
    """Any qp/gop_size yields a decodable stream with identical geometry."""
    seg = make_segment(n=8, h=16, w=24)
    gops = encode_gop("h264", seg, qp=qp, gop_size=gop_size)
    assert sum(g.num_frames for g in gops) == seg.num_frames
    decoded = [decode_gop(g) for g in gops]
    recovered = decoded[0].concatenate(decoded)
    assert recovered.pixels.shape == seg.pixels.shape
