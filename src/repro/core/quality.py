"""The quality model ``u(f0, f)`` of paper section 3.2.

A fragment's quality relative to the originally written video accumulates
error through two mechanisms:

* **Resampling error** (resolution / frame-rate changes, and pixel-format
  conversion: subsampling chroma to ``yuv420`` or ``yuv422`` resamples two
  planes, and ``gray`` drops them) — measured directly on a sample of
  frames at transcode time (the frames are already decoded in memory, so
  this is nearly free), then *chained* with any error the source fragment
  already carried using the paper's bound

      MSE(f0, f2) <= 2 * (MSE(f0, f1) + MSE(f1, f2)),

  which avoids ever re-decoding the original.

* **Compression error** — not measurable without an expensive decode, so
  it is estimated from the encoder's reported mean bits-per-pixel via the
  vbench-calibrated bpp -> PSNR curve.  :meth:`QualityModel.refine`
  implements the paper's periodic exact sampling that replaces the
  estimate with a measured value.

Raw output in another pixel format is therefore not lossless:
:meth:`QualityModel.compression_mse` of ``raw`` is zero, but the rgb ->
format -> rgb round trip of a sample frame is measured like any other
resample, and refinement compares in the original's pixel format.  The
measured conversion loss is also kept apart as the physical's
``format_mse``: a read that asks for the fragment's own format would pay
it from the original too, so :meth:`QualityModel.acceptable` charges it
only to reads in another format.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import Calibration
from repro.core.records import PhysicalVideo
from repro.video.metrics import mse_from_psnr, psnr_from_mse

#: Default quality threshold for reads (dB).  >= 40 dB is considered
#: lossless by the paper.
DEFAULT_EPSILON_DB = 40.0

#: Baseline-cover threshold tau (dB): a cover of fragments at or above this
#: quality must always survive eviction.
TAU_DB = 40.0


@dataclass
class StepError:
    """Error introduced by a single transformation step."""

    resample_mse: float = 0.0
    compression_mse: float = 0.0

    @property
    def total(self) -> float:
        # The paper sums error from both sources.
        return self.resample_mse + self.compression_mse


class QualityModel:
    """Tracks and combines per-fragment quality estimates."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration

    # ------------------------------------------------------------------
    def compression_mse(self, codec: str, bits_per_pixel: float) -> float:
        """Estimated MSE introduced by compressing at ``bits_per_pixel``."""
        if codec == "raw":
            return 0.0
        db = self.calibration.psnr_for_bpp(codec, bits_per_pixel)
        return mse_from_psnr(db)

    def chain(self, source_mse: float, step_mse: float) -> float:
        """Combine a source fragment's error bound with a new step.

        Uses the paper's derivation: the error of the two-hop chain is
        bounded by twice the sum of the hop errors.  When the source is the
        original (zero error) the step error passes through unchanged.
        """
        if source_mse <= 0.0:
            return step_mse
        if step_mse <= 0.0:
            return source_mse
        return 2.0 * (source_mse + step_mse)

    def quality_db(self, physical: PhysicalVideo) -> float:
        """``u(m0, f)`` in dB for a physical video."""
        return psnr_from_mse(physical.mse_estimate)

    @staticmethod
    def mse_for(physical: PhysicalVideo, pixel_format: str) -> float:
        """``physical``'s MSE bound as a read in ``pixel_format`` sees it.

        A read in the physical's own format pays the conversion to it
        whatever serves it, so it is not charged the physical's
        ``format_mse``; a read in any other format is.
        """
        if pixel_format == physical.pixel_format:
            return physical.own_format_mse
        return physical.mse_estimate

    def acceptable(
        self, physical: PhysicalVideo, epsilon_db: float, pixel_format: str
    ) -> bool:
        """The paper's rejection test: fragments whose expected quality,
        for a read in ``pixel_format``, is below the cutoff are not used
        to answer it."""
        return psnr_from_mse(self.mse_for(physical, pixel_format)) >= epsilon_db

    def meets_tau(self, physical: PhysicalVideo) -> bool:
        """Does this fragment qualify for the lossless baseline cover?"""
        return self.quality_db(physical) >= TAU_DB

    # ------------------------------------------------------------------
    def estimate_after_transcode(
        self,
        source_mse: float,
        resample_mse: float,
        target_codec: str,
        achieved_bpp: float,
    ) -> float:
        """Quality bound for a fragment derived by one read/transcode."""
        step = StepError(
            resample_mse=resample_mse,
            compression_mse=self.compression_mse(target_codec, achieved_bpp),
        )
        return self.chain(source_mse, step.total)
