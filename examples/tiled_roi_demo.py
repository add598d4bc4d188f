"""Tiled physical layout: ROI-selective reads and access-driven re-tiling.

Demonstrates the tiles subsystem (see docs/api.md, "Tiled physical
layout"):

* ``engine.retile(name, rows=2, cols=2)`` re-encodes a stored video as
  independent per-tile streams; an ROI read then decodes **only the
  tiles it intersects**, visible in ``ReadStats.tiles_decoded`` and a
  multi-x drop in ``bytes_read``;
* bit-identity: the tiled store answers the same specs — full-frame and
  ROI — with exactly the bytes the untiled store produced;
* the access-driven policy: after enough ROI reads concentrate in one
  hot region, periodic maintenance re-tiles the layout *around that
  region* on its own, no API call required.

Run:  python examples/tiled_roi_demo.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import VSSEngine
from repro.core.specs import ReadSpec
from repro.synthetic import visualroad
from repro.tiles import RetilePolicy


def roi_spec(name: str, roi: tuple[int, int, int, int]) -> ReadSpec:
    # cache=False keeps every read hitting the physical layout, so the
    # stats below show layout selectivity rather than cache hits.
    return ReadSpec(name, 0.0, 2.0, roi=roi, cache=False)


def main() -> None:
    dataset = visualroad("1K", overlap=0.3, num_frames=60)
    clip = dataset.video(camera=0, start=0, stop=60)
    w, h = clip.width, clip.height
    # The "hot" region a downstream consumer keeps watching: ~17% of the
    # frame area in the upper-left of the scene (inside one 2x2 tile).
    hot = (0, 0, w // 2, h // 3)

    with tempfile.TemporaryDirectory() as root:
        with VSSEngine(root) as engine:
            with engine.session(codec="h264", qp=10, gop_size=15) as s:
                s.write("highway", clip)

            # -- untiled baseline: an ROI read decodes whole frames ----
            untiled = engine.read(roi_spec("highway", hot))
            print(f"frame {w}x{h}, hot roi {hot} "
                  f"(~{100 * (hot[2] - hot[0]) * (hot[3] - hot[1]) // (w * h)}% area)")
            print(f"untiled roi read : {untiled.stats.bytes_read:>10} bytes read")

            # -- explicit tiling: decode only intersecting tiles -------
            group = engine.retile("highway", rows=2, cols=2)
            print(f"retiled 2x2      : grid {group.grid.rects}")
            tiled = engine.read(roi_spec("highway", hot))
            stats = tiled.stats
            print(f"tiled roi read   : {stats.bytes_read:>10} bytes read, "
                  f"{stats.tiles_decoded}/{stats.tiles_total} tiles decoded, "
                  f"{stats.tile_bytes_skipped} stored bytes skipped")
            assert np.array_equal(
                tiled.as_segment().pixels, untiled.as_segment().pixels
            ), "tiled read must be bit-identical"
            print(f"bit-identical, {untiled.stats.bytes_read / stats.bytes_read:.1f}x "
                  "fewer bytes decoded")

            # -- access-driven re-tiling -------------------------------
            # The hot roi straddles all four uniform tiles; the policy
            # notices the concentration and rebuilds the grid around it.
            engine.retile_policy = RetilePolicy(
                min_accesses=6, concentration=0.6
            )
            for _ in range(10):  # maintenance is queued every 8th read
                engine.read(roi_spec("highway", hot))
            # Maintenance runs on the background worker; draining makes
            # the access-driven re-tile below happen deterministically.
            engine.drain_admissions()
            final = engine.read(roi_spec("highway", hot))
            grids = engine.catalog.tile_groups_of_logical(
                engine.catalog.get_logical("highway").id
            )
            print(f"policy re-tiled  : grid {grids[0].grid.rects}")
            # bytes_read counts disk reads; the hot tile's pages are
            # warm in the decode cache by now, so it can drop to 0.
            print(f"hot roi now       {final.stats.tiles_decoded}/"
                  f"{final.stats.tiles_total} tiles, "
                  f"{final.stats.bytes_read} bytes read "
                  f"({final.stats.decode_cache_hits} cache hits)")
            assert hot in grids[0].grid.rects, "hot region isolated as a tile"
            assert final.stats.tiles_decoded == 1
            assert np.array_equal(
                final.as_segment().pixels, untiled.as_segment().pixels
            )

            totals = engine.stats()
            print(f"engine totals    : tiles_decoded={totals.tiles_decoded} "
                  f"tile_bytes_skipped={totals.tile_bytes_skipped} "
                  f"retiles={totals.retiles}")


if __name__ == "__main__":
    main()
