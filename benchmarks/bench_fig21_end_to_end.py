"""Figure 21: end-to-end application performance (sections 2 / 6.4).

Runs the intersection-monitoring pipeline (index -> search -> stream) over
VSS and the Local-FS/decoder variant for 1 and 2 clients.  Clients are
sequential processes in the paper; here they are sequential loops (the
GIL makes in-process threads meaningless for CPU-bound decode, and the
shapes are about per-client storage work, which is identical either way —
see EXPERIMENTS.md).

Paper shape: indexing is comparable (decode + inference dominate); VSS
wins search (raw reads served from the cache the indexing phase built)
and streaming (least-cost transcode planning).
"""

from __future__ import annotations


from benchmarks.conftest import make_store
from repro.apps import MonitoringApp
from repro.baselines import LocalFSStore
from repro.bench.harness import Table, print_table
from repro.synthetic import visualroad

DURATION = 4.0
FRAMES = int(DURATION * 30)


def _run_clients(store, num_clients: int):
    timings = []
    hits_total = 0
    for client in range(num_clients):
        app = MonitoringApp("cam")
        app.run_indexing(store, duration=DURATION)
        colors = sorted({e.color for e in app.index})
        color = colors[client % len(colors)] if colors else "red"
        hits = app.run_search(store, color, duration=DURATION)
        hits_total += len(hits)
        app.run_streaming(store, hits, duration=DURATION)
        timings.append(app.timings)
    total = lambda attr: sum(getattr(t, attr) for t in timings)  # noqa: E731
    return total("indexing"), total("search"), total("streaming"), hits_total


def test_fig21_end_to_end_application(tmp_path, calibration, benchmark):
    ds = visualroad("2K", overlap=0.3, num_frames=FRAMES, seed=9)
    clip = ds.video(0, 0, FRAMES)

    table = Table(
        "Figure 21: end-to-end application (seconds)",
        ["system", "# clients", "indexing", "search", "streaming", "total"],
    )
    results = {}
    for clients in (1, 2):
        engine = make_store(tmp_path / f"vss{clients}", calibration,
                            budget_multiple=50.0)
        session = engine.session()
        session.write("cam", clip, codec="h264", qp=10, gop_size=30)
        engine.drain_admissions()  # ingest indexing is not a phase
        idx, search, stream, _hits = _run_clients(session, clients)
        results[("vss", clients)] = (idx, search, stream)
        table.add_row("VSS", clients, idx, search, stream, idx + search + stream)
        engine.close()

        fs = LocalFSStore(tmp_path / f"fs{clients}")
        fs.write("cam", clip, codec="h264", qp=10, gop_size=30)
        idx, search, stream, _hits = _run_clients(fs, clients)
        results[("fs", clients)] = (idx, search, stream)
        table.add_row("FS (decoder)", clients, idx, search, stream,
                      idx + search + stream)
    print_table(table)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Shape: VSS wins the search phase (cached raw) and streaming phase
    # (least-cost transcode) once its cache is warm.
    vss_search = results[("vss", 1)][1]
    fs_search = results[("fs", 1)][1]
    assert vss_search < fs_search
    vss_stream = results[("vss", 1)][2]
    fs_stream = results[("fs", 1)][2]
    assert vss_stream < fs_stream * 1.5
