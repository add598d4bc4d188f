"""The four workloads (README "Workloads" says why each one exists)."""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.client import VSSBinaryClient
from repro.core.layout import Layout
from repro.jointcomp import JointCompressionManager
from repro.vbench.calibrate import Calibration

from .harness import (
    OUT,
    PARALLELISM,
    ROOT,
    CheckFailure,
    RoundLog,
    Run,
    TracedRound,
    digest_of,
    end_to_end,
    engine_counters,
    engine_state,
    make_engine,
    open_stream,
    measure_rounds,
    original_bytes,
    peak_rss_mb,
    per_layer,
    render_cameras,
    require_identical,
    timed_read,
    timed_write,
    warm_up,
    write_spec,
)
from .ops import (
    FPS,
    cold_mix,
    follow_schedule,
    hot_ops,
    oplist_sha256,
)
from .trace import Tracer

FRAMES_PER_SECOND = int(FPS)
#: A server that has not drained its background queue by then is stuck.
QUIESCE_TIMEOUT_S = 60.0

#: Sizes per ``--scale``.  ``full`` is what BENCHMARK.json measures; ``tiny``
#: keeps every structural element (cameras, op kinds, epochs, the server
#: subprocess) at smoke-test size.
SCALES = {
    "full": {
        "hot": {
            "cameras": 6,
            "seconds": 10,
            "hot_cameras": 2,
            "hot_seconds": 8,
            "cool_seconds": 4,
            "ops": 240,
            "warm_rounds": 2,
            "min_rounds": 9,
        },
        "cold": {"seconds": 40, "group": 5, "reps": 3, "min_rounds": 3},
        "follow": {
            "ticks": 5,
            "lookback_every": 5,
            "lookback_seconds": 5,
            "readbacks": 5,
            "max_pairs": 8,
            "min_rounds": 5,
        },
    },
    "tiny": {
        "hot": {
            "cameras": 3,
            "seconds": 2,
            "hot_cameras": 1,
            "hot_seconds": 2,
            "cool_seconds": 1,
            "ops": 20,
            "warm_rounds": 1,
            "min_rounds": 1,
        },
        "cold": {"seconds": 4, "group": 2, "reps": 1, "min_rounds": 1},
        "follow": {
            "ticks": 1,
            "lookback_every": 1,
            "lookback_seconds": 1,
            "readbacks": 1,
            "max_pairs": 1,
            "min_rounds": 1,
        },
    },
}


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _store_split(engine, names: list[str], raw_bytes: int) -> dict:
    """Originals vs cached materialisations, per raw byte ingested."""
    total = engine_state(engine, names)["stored_bytes"]
    originals = original_bytes(engine, names)
    return {
        "store.original_bytes_per_raw_byte": originals / raw_bytes,
        "store.cache_bytes_per_raw_byte": (total - originals) / raw_bytes,
    }


def _traced_round(run: Run, one_round) -> TracedRound:
    """Run ``one_round`` once more with every layer wrapped."""
    tracer = Tracer()
    cpu = time.process_time()
    with tracer.installed():
        log = one_round(tracer)
    cpu = time.process_time() - cpu
    tracer.dump(
        OUT / f"trace_{run.workload}.json",
        {"workload": run.workload, "seed": run.seed},
    )
    return TracedRound(tracer, log, cpu)


def _finish(
    run: Run,
    rounds: list[RoundLog],
    ingest: list[list[tuple]],
    raw_bytes: int,
    rss_mb: float,
    traced: TracedRound | None,
    ingest_repeats: bool = False,
    racy_decode: bool = False,
) -> dict:
    logs = rounds + ([traced.log] if traced is not None else [])
    for log in logs:
        for index, failure in run.bad_ops.items():
            log.fail(index, failure)
    counts, decode_counts = [], []
    for log in logs:
        counts.append(log.counts())
        decode_counts.append(log.decode_counts())
        if not racy_decode:
            counts[-1].update(decode_counts[-1])
    require_identical(counts)

    # Rounds fail the same ops (checked above), so list each op once.
    failed_ops = [(-1, kind, 1, exc) for kind, exc in run.write_failures] + [
        (index, logs[0].ops[index].kind, len(logs), exc)
        for index, exc in sorted(logs[0].failures.items())
    ]
    failures = [
        {
            "op": index,
            "kind": kind,
            "rounds": times,
            "class": type(exc).__name__,
            "message": str(exc)[:300],
        }
        for index, kind, times, exc in failed_ops
    ]
    run.clock.probe()
    nominal = run.clock.nominal
    measured = (
        rounds,
        ingest,
        ingest_repeats,
        rounds[-1].state["stored_bytes"],
        raw_bytes,
        rss_mb,
    )
    layers = None
    if traced is not None:
        layers = per_layer(
            traced,
            nominal(*traced.log.window),
            statistics.median(nominal(*log.window) for log in rounds),
        )
    return {
        "workload": run.workload,
        "seed": run.seed,
        "oplist_sha256": run.oplist_sha256,
        "attempted": run.write_attempts + sum(len(log.ops) for log in logs),
        "failed": len(run.write_failures)
        + sum(len(log.failures) for log in logs),
        "wrong_outputs": sum(
            failure["class"] == "CheckFailure" for failure in failures
        ),
        "failures": failures,
        "end_to_end": end_to_end(run, nominal, *measured),
        "raw_wall_clock": end_to_end(run, lambda a, b: b - a, *measured),
        "host_slowdown": run.clock.slowdown(
            rounds[0].window[0], rounds[-1].window[1]
        ),
        "per_layer": layers,
        "round_counts": counts[0],
        "decode_counts": {
            key: sorted({row[key] for row in decode_counts})
            for key in decode_counts[0]
        },
        "rounds": len(rounds),
        "round_walls_s": [
            round(log.window[1] - log.window[0], 3) for log in rounds
        ],
        "ingest_rounds": len(ingest),
        "read_samples": sum(
            1 for log in rounds for value in log.latency if value is not None
        ),
    }


def _read_round(
    run: Run, ops, call, quiesce, state, sources=None, tracer=None
) -> RoundLog:
    """One pass over ``ops`` on the calling thread."""
    log = RoundLog(ops)
    begin = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.set_op(index)
        source = sources[op.camera] if sources is not None else None
        run.clock.maybe_probe()
        timed_read(run, log, index, call, quiesce, source)
    log.window = (begin, time.perf_counter())
    run.clock.maybe_probe()
    log.state = state()
    return log


def _hot_inputs(run: Run):
    """Cameras and op list shared by hot_stream_reads and remote_streams."""
    p = run.params["hot"]
    sources = render_cameras(p["cameras"], p["seconds"] * FRAMES_PER_SECOND)
    names = [f"cam{k}" for k in range(len(sources))]
    ops = hot_ops(
        run.rng,
        names,
        p["seconds"],
        p["hot_cameras"],
        p["hot_seconds"],
        p["cool_seconds"],
        p["ops"],
    )
    run.oplist_sha256 = oplist_sha256(ops)
    raw_bytes = sum(source.nbytes for source in sources)
    return p, sources, names, ops, raw_bytes


# ----------------------------------------------------------------------
# hot_stream_reads
# ----------------------------------------------------------------------
def hot_stream_reads(run: Run) -> dict:
    p, sources, names, ops, raw_bytes = _hot_inputs(run)
    engine = make_engine(run.store_dir("store"))
    try:
        session = engine.session()
        quiesce = engine.drain_admissions
        warm_up(session.write, session.read, session.delete, quiesce, sources[0])
        ingest = [
            [
                timed_write(
                    run,
                    "write",
                    source.num_frames,
                    lambda n=name, s=source: session.write(write_spec(n), s),
                    quiesce,
                )
            ]
            for name, source in zip(names, sources)
        ]

        def call(spec):
            return session.read_stream(spec).collect()

        def one_round(tracer=None, check=None):
            if tracer is not None:
                before = engine_counters(engine)
            log = _read_round(
                run,
                ops,
                call,
                quiesce,
                lambda: engine_state(engine, names),
                check,
                tracer,
            )
            if tracer is not None:
                log.before, log.after = before, engine_counters(engine)
                log.extras = _store_split(engine, names, raw_bytes)
            return log

        # Warm rounds fill the decode cache and the plan cache; the last
        # one also runs the PSNR checks, outside any timed round.
        for warm in range(p["warm_rounds"]):
            one_round(check=sources if warm == p["warm_rounds"] - 1 else None)
        run.setup_done()
        rounds = measure_rounds(run, one_round, p["min_rounds"])
        traced = _traced_round(run, one_round) if run.trace else None
        return _finish(run, rounds, ingest, raw_bytes, peak_rss_mb(), traced)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# remote_streams
# ----------------------------------------------------------------------
class _Server:
    """``python -m repro.server <root> --binary`` as a child process."""

    def __init__(self, root) -> None:
        # Rule 1 for a process we do not construct: the engine loads this
        # file instead of timing the machine.
        Calibration.default().save(Layout(root).calibration_path)
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            PYTHONUNBUFFERED="1",
        )
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                str(root),
                "--binary",
                "--parallelism",
                str(PARALLELISM),
                "--port",
                "0",
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        banner = self.process.stdout.readline()
        match = re.search(r"vss://([\d.]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        """Interrupt the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _remote_quiesce(client: VSSBinaryClient) -> None:
    """Rule 2 across a process boundary: poll ``/metrics`` until the
    server owes no background work."""
    deadline = time.monotonic() + QUIESCE_TIMEOUT_S
    while time.monotonic() < deadline:
        stats = client.metrics()["engine"]
        if (
            stats["admission_queue_depth"] == 0
            and stats["extraction_pending"] == 0
            and stats["admissions_completed"] >= stats["admissions_enqueued"]
        ):
            return
        time.sleep(0.005)
    raise RuntimeError(f"server still busy after {QUIESCE_TIMEOUT_S} s")


def _remote_round(run: Run, ops, client, lanes, names, check=None, tracer=None):
    """Two closed-loop client threads share the op list (op i goes to
    thread i mod 2); the round's read-side time is its wall time."""
    log = RoundLog(ops)

    def lane(first: int) -> None:
        # Lanes write disjoint op indices of the shared log, and never
        # probe the host clock: only the main thread does, between rounds.
        for index in range(first, len(ops), PARALLELISM):
            if tracer is not None:
                tracer.set_op(index)
            source = check[ops[index].camera] if check is not None else None
            timed_read(run, log, index, client.read, lambda: None, source)

    run.clock.probe()
    begin = time.perf_counter()
    list(lanes.map(lane, range(PARALLELISM)))
    log.window = (begin, time.perf_counter())
    log.busy = [log.window]
    run.clock.probe()
    begin = time.perf_counter()
    _remote_quiesce(client)
    log.quiesce = time.perf_counter() - begin
    stats = [client.video_stats(name) for name in names]
    log.state = {
        "stored_bytes": sum(s["total_bytes"] for s in stats),
        "physicals": sum(s["num_physicals"] for s in stats),
    }
    return log


def remote_streams(run: Run) -> dict:
    p, sources, names, ops, raw_bytes = _hot_inputs(run)
    root = run.store_dir("store")
    server = _Server(root)
    client = VSSBinaryClient(
        server.host, server.port, pool_connections=PARALLELISM
    )
    lanes = ThreadPoolExecutor(PARALLELISM, thread_name_prefix="vssbench")
    try:
        quiesce = lambda: _remote_quiesce(client)  # noqa: E731
        warm_up(client.write, client.read, client.delete, quiesce, sources[0])
        ingest = [
            [
                timed_write(
                    run,
                    "write",
                    source.num_frames,
                    lambda n=name, s=source: client.write(write_spec(n), s),
                    quiesce,
                )
            ]
            for name, source in zip(names, sources)
        ]

        def one_round(tracer=None, check=None):
            if tracer is not None:
                before = client.metrics()
            log = _remote_round(run, ops, client, lanes, names, check, tracer)
            if tracer is not None:
                after = client.metrics()
                log.before, log.after = before["engine"], after["engine"]
                gauges = {
                    key: after["server"][key] - before["server"][key]
                    for key in ("served", "rejected")
                }
                rows = [
                    (
                        log.latency[i][1] - log.latency[i][0],
                        log.stats[i].wall_seconds,
                    )
                    for i in range(len(ops))
                    if log.latency[i] is not None
                ]
                latencies = sorted(latency for latency, _ in rows)
                log.extras = {
                    "client.overhead_p50_ms": 1e3
                    * statistics.median(l - w for l, w in rows),
                    "client.read_p95_ms": 1e3
                    * latencies[int(0.95 * (len(latencies) - 1))],
                    "server.served": gauges["served"],
                    "server.rejected": gauges["rejected"],
                    "server.peak_inflight": after["server"]["peak_inflight"],
                }
            return log

        for warm in range(p["warm_rounds"]):
            one_round(check=sources if warm == p["warm_rounds"] - 1 else None)
        run.setup_done()
        rounds = measure_rounds(run, one_round, p["min_rounds"])
        traced = _traced_round(run, one_round) if run.trace else None
    finally:
        lanes.shutdown()
        client.close()
        server.stop()
    rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)

    # Byte identity: the same specs answered in-process from the store
    # the server just released must hash to what the clients received.
    engine = make_engine(root)
    try:
        session = engine.session()
        for index, remote in sorted(rounds[-1].digests.items()):
            local = digest_of(session.read_stream(ops[index].spec).collect())
            if local != remote:
                run.bad_ops[index] = CheckFailure(
                    "remote bytes differ from the in-process answer"
                )
        if traced is not None:
            traced.log.extras.update(_store_split(engine, names, raw_bytes))
    finally:
        engine.close()
    return _finish(run, rounds, ingest, raw_bytes, rss_mb, traced)


# ----------------------------------------------------------------------
# cold_mixed_reads
# ----------------------------------------------------------------------
def _ingest_by_appends(run: Run, engine, name, source, group: int) -> list:
    """Stream-ingest ``source`` in one-second appends; every ``group``
    appends (plus the close, on the last group) form one ingest round."""
    stream = open_stream(engine, name, source)
    seconds = source.num_frames // FRAMES_PER_SECOND
    rounds = []
    for first in range(0, seconds, group):
        last = min(first + group, seconds)

        def action(first=first, last=last):
            for second in range(first, last):
                stream.append(
                    source.slice_frames(
                        second * FRAMES_PER_SECOND,
                        (second + 1) * FRAMES_PER_SECOND,
                    )
                )
                engine.drain_admissions()
            if last == seconds:
                stream.close()

        rounds.append(
            [
                timed_write(
                    run,
                    "append",
                    (last - first) * FRAMES_PER_SECOND,
                    action,
                    engine.drain_admissions,
                )
            ]
        )
    return rounds


def cold_mixed_reads(run: Run) -> dict:
    p = run.params["cold"]
    (source,) = render_cameras(1, p["seconds"] * FRAMES_PER_SECOND)
    name = "cam0"
    ops = cold_mix(run.rng, name, p["seconds"], p["reps"])
    run.oplist_sha256 = oplist_sha256(ops)
    template = run.store_dir("template")
    engine = make_engine(template)
    try:
        session = engine.session()
        warm_up(
            session.write,
            session.read,
            session.delete,
            engine.drain_admissions,
            source,
        )
        ingest = _ingest_by_appends(run, engine, name, source, p["group"])
    finally:
        engine.close()
    root = run.store_dir("epoch")

    def epoch(tracer=None):
        """Replay the op list against a fresh copy of the ingested store.

        The first epoch also carries the PSNR checks: they run between
        ops, outside every timed window.
        """
        shutil.copytree(template, root)
        engine = make_engine(root)
        try:
            session = engine.session()
            before = engine_counters(engine) if tracer is not None else None
            check = [source] if run.setup_window is None else None
            run.setup_done()
            log = _read_round(
                run,
                ops,
                session.read,
                engine.drain_admissions,
                lambda: engine_state(engine, [name]),
                check,
                tracer,
            )
            if tracer is not None:
                log.before, log.after = before, engine_counters(engine)
                log.extras = _store_split(engine, [name], source.nbytes)
        finally:
            engine.close()
            shutil.rmtree(root)
        return log

    rounds = measure_rounds(run, epoch, p["min_rounds"])
    traced = _traced_round(run, epoch) if run.trace else None
    return _finish(
        run, rounds, ingest, source.nbytes, peak_rss_mb(), traced,
        racy_decode=True,
    )


# ----------------------------------------------------------------------
# ingest_follow
# ----------------------------------------------------------------------
def ingest_follow(run: Run) -> dict:
    p = run.params["follow"]
    sources = render_cameras(2, p["ticks"] * FRAMES_PER_SECOND)
    names = ["cam0", "cam1"]
    steps = follow_schedule(
        run.rng,
        names,
        p["ticks"],
        p["lookback_every"],
        p["lookback_seconds"],
        p["readbacks"],
    )
    run.oplist_sha256 = oplist_sha256(steps)
    raw_bytes = sum(source.nbytes for source in sources)
    read_ops = [step.op for step in steps if step.action == "read"]

    engine = make_engine(run.store_dir("warmup"))
    try:
        session = engine.session()
        warm_up(
            session.write,
            session.read,
            session.delete,
            engine.drain_admissions,
            sources[0],
        )
    finally:
        engine.close()
    ingest: list[list[tuple]] = []
    root = run.store_dir("epoch")

    def epoch(tracer=None):
        """Ingest, follow, close, jointly compress and read back, once,
        on a fresh store.  The first epoch carries the PSNR checks."""
        engine = make_engine(root)
        try:
            session = engine.session()
            quiesce = engine.drain_admissions
            before = engine_counters(engine) if tracer is not None else None
            streams = [
                open_stream(engine, name, source)
                for name, source in zip(names, sources)
            ]
            log = RoundLog(read_ops)
            report = None
            writes: list[tuple] = []
            index = 0
            check = sources if run.setup_window is None else None
            run.setup_done()
            begin = time.perf_counter()
            for step in steps:
                if step.action == "read":
                    if tracer is not None:
                        tracer.set_op(index)
                    source = check[step.op.camera] if check else None
                    run.clock.maybe_probe()
                    timed_read(run, log, index, session.read, quiesce, source)
                    index += 1
                    continue
                if step.action == "append":
                    lo = step.tick * FRAMES_PER_SECOND
                    piece = sources[step.camera].slice_frames(
                        lo, lo + FRAMES_PER_SECOND
                    )
                    frames, action = FRAMES_PER_SECOND, (
                        lambda: streams[step.camera].append(piece)
                    )
                elif step.action == "close":
                    frames, action = 0, (
                        lambda: [stream.close() for stream in streams]
                    )
                else:

                    def action():
                        nonlocal report
                        report = JointCompressionManager(
                            engine, merge="mean"
                        ).optimize(max_pairs=p["max_pairs"])

                    frames = 0
                writes.append(
                    timed_write(run, step.action, frames, action, quiesce)
                )
            log.window = (begin, time.perf_counter())
            log.state = engine_state(engine, names)
            log.state["frames_written"] = sum(step[0] for step in writes)
            if report is not None:
                log.state["pairs_compressed"] = report.pairs_compressed
            if tracer is None:
                ingest.append(writes)
            else:
                log.before, log.after = before, engine_counters(engine)
                log.extras = _store_split(engine, names, raw_bytes)
                if report is not None:
                    log.extras.update(
                        {
                            "jointcomp.pairs_compressed": report.pairs_compressed,
                            "jointcomp.pairs_rejected": report.pairs_rejected,
                            "jointcomp.savings_fraction": report.savings_fraction,
                        }
                    )
        finally:
            engine.close()
            shutil.rmtree(root)
        return log

    rounds = measure_rounds(run, epoch, p["min_rounds"])
    traced = _traced_round(run, epoch) if run.trace else None
    return _finish(
        run, rounds, ingest, raw_bytes, peak_rss_mb(), traced, ingest_repeats=True
    )


WORKLOADS = {
    "cold_mixed_reads": cold_mixed_reads,
    "hot_stream_reads": hot_stream_reads,
    "remote_streams": remote_streams,
    "ingest_follow": ingest_follow,
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    scale: str = "full",
    trace: bool = False,
    t0: float | None = None,
) -> dict:
    """Run one workload and return its result document."""
    run = Run(
        name,
        seed,
        seconds,
        SCALES[scale],
        trace,
        time.monotonic() if t0 is None else t0,
    )
    try:
        return WORKLOADS[name](run)
    finally:
        run.cleanup()
