"""The paper's end-to-end scenario (sections 2 & 6.4): monitor an
intersection for vehicles of an alert colour.

Three phases over stored video:
  1. indexing  — low-resolution raw reads + vehicle detection;
  2. search    — confirm indexed frames matching the alert colour;
  3. streaming — retrieve reduced-resolution h264 clips of the hits.

The same application runs against VSS and against a bare file system +
decoder to show where the storage manager pays off.

Run:  python examples/traffic_monitoring.py
"""

from __future__ import annotations

import tempfile

from repro import VSSEngine
from repro.apps import MonitoringApp
from repro.baselines import LocalFSStore
from repro.synthetic import visualroad

DURATION = 3.0
FRAMES = int(DURATION * 30)


def run(store, label: str) -> None:
    app = MonitoringApp("intersection")
    detections = app.run_indexing(store, duration=DURATION)
    colors = sorted({entry.color for entry in app.index})
    alert_color = colors[0] if colors else "red"
    hits = app.run_search(store, alert_color, duration=DURATION)
    clips = app.run_streaming(store, hits, duration=DURATION)
    t = app.timings
    print(
        f"{label:>14}: {detections} detections, {len(hits)} '{alert_color}' "
        f"hits, {clips} clips | index {t.indexing:.2f}s, "
        f"search {t.search:.2f}s, stream {t.streaming:.2f}s"
    )


def main() -> None:
    dataset = visualroad("1K", overlap=0.3, num_frames=FRAMES, seed=9)
    clip = dataset.video(0, 0, FRAMES)
    print(f"monitoring {DURATION:.0f}s of traffic at {clip.resolution}")

    with tempfile.TemporaryDirectory() as root:
        with VSSEngine(f"{root}/vss") as engine:
            session = engine.session()
            session.write(
                "intersection", clip, codec="h264", qp=10, gop_size=30
            )
            run(session, "VSS")

        fs = LocalFSStore(f"{root}/fs")
        fs.write("intersection", clip, codec="h264", qp=10, gop_size=30)
        run(fs, "FS + decoder")

    print(
        "\nVSS serves the search phase from the raw fragments its indexing "
        "phase cached,\nand plans the streaming transcodes from the "
        "least-cost cached representation."
    )


if __name__ == "__main__":
    main()
