"""Non-blocking streaming writes with prefix reads (paper section 2).

VSS writes are non-blocking: each appended chunk is durable and queryable
immediately, so consumers can read any prefix of a video that is still
being recorded.  A long raw ingest also demonstrates deferred compression
(section 5.2) engaging as the budget fills.

Run:  python examples/streaming_ingest.py
"""

from __future__ import annotations

import tempfile

from repro import VSSEngine
from repro.synthetic import visualroad

CHUNKS = 6
FRAMES_PER_CHUNK = 15


def main() -> None:
    dataset = visualroad("1K", overlap=0.3, num_frames=CHUNKS * FRAMES_PER_CHUNK)
    clip = dataset.video(0, 0, CHUNKS * FRAMES_PER_CHUNK)

    with tempfile.TemporaryDirectory() as root:
        with VSSEngine(root) as engine:
            session = engine.session()
            # Bound the budget so deferred compression has to engage.
            session.create("live", budget_bytes=clip.nbytes // 2)
            stream = engine.open_write_stream(
                "live", codec="raw", pixel_format="rgb",
                width=clip.width, height=clip.height, fps=30.0,
            )
            logical = engine.catalog.get_logical("live")
            for chunk in range(CHUNKS):
                lo = chunk * FRAMES_PER_CHUNK
                stream.append(clip.slice_frames(lo, lo + FRAMES_PER_CHUNK))

                # The just-written prefix is immediately readable, while
                # the stream stays open for more appends.
                end = (lo + FRAMES_PER_CHUNK) / 30.0
                readable = session.read(
                    "live", 0.0, end, codec="raw", cache=False
                )
                compressed_pages = sum(
                    1
                    for g in engine.catalog.gops_of_logical(logical.id)
                    if g.zstd_level > 0
                )
                print(
                    f"chunk {chunk + 1}/{CHUNKS}: prefix of "
                    f"{readable.segment.num_frames} frames readable | "
                    f"budget {100 * engine.cache.usage_fraction(logical):.0f}% "
                    f"used | deferred level "
                    f"{engine.deferred.level(logical)} | "
                    f"{compressed_pages} pages compressed"
                )
            stream.close()
            print("stream sealed:", session.video_stats("live"))


if __name__ == "__main__":
    main()
