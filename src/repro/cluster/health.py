"""Shard liveness: cheap probes plus a background health checker.

Both VSS transports expose a liveness hook that does **no engine
work** — the binary server answers a ``FRAME_PING`` frame inline on the
event loop, the HTTP server serves ``GET /healthz`` without touching
the store — so a saturated or wedged engine never reads as a dead
process, and probing never competes for an admission slot.

:class:`HealthChecker` runs one daemon thread over a set of shard-like
objects (anything with ``name``, ``up``, ``mark_up()``,
``mark_down(reason)`` — the router's ``_Shard``).  Each cycle it probes
every shard; one probe is itself retried with exponential backoff
before the shard is declared down, so a single dropped SYN doesn't
flap a healthy shard.  Down shards keep being probed every cycle and
flip back up on the first success — the request path marks a shard
down the moment a connection dies under it, and this thread is what
brings it back.
"""

from __future__ import annotations

import socket
import threading
import time
from http.client import HTTPConnection

from repro.core.wire import FRAME_PING, FRAME_PONG, encode_frame, read_frame

#: Per-attempt probe timeout: long enough for a loaded loop to answer,
#: short enough that a dead shard can't stall a health cycle.
DEFAULT_PROBE_TIMEOUT = 2.0

#: Connection attempts per probe, with exponential backoff between.
DEFAULT_PROBE_RETRIES = 2
PROBE_BACKOFF_BASE = 0.1


def binary_ping(host: str, port: int, timeout: float = DEFAULT_PROBE_TIMEOUT) -> bool:
    """One PING/PONG round-trip against a binary server; True = alive."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            for buffer in encode_frame(FRAME_PING, {}):
                sock.sendall(buffer)
            with sock.makefile("rb") as rfile:
                return read_frame(rfile)[0] == FRAME_PONG
    except Exception:  # noqa: BLE001 - any failure means "not alive"
        return False


def http_healthz(host: str, port: int, timeout: float = DEFAULT_PROBE_TIMEOUT) -> bool:
    """One ``GET /healthz`` against an HTTP server; True = alive."""
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except Exception:  # noqa: BLE001 - any failure means "not alive"
        return False
    finally:
        conn.close()


def probe_with_retry(
    probe,
    host: str,
    port: int,
    timeout: float = DEFAULT_PROBE_TIMEOUT,
    retries: int = DEFAULT_PROBE_RETRIES,
) -> bool:
    """Run ``probe`` up to ``1 + retries`` times with backoff between.

    True on the first success; False only after every attempt failed.
    """
    for attempt in range(retries + 1):
        if probe(host, port, timeout):
            return True
        if attempt < retries:
            time.sleep(PROBE_BACKOFF_BASE * (2 ** attempt))
    return False


class HealthChecker:
    """Background liveness sweeps over the router's shards.

    ``shards`` is any iterable of shard-like objects (see the module
    docs for the required surface; ``shard.address`` yields the
    ``(host, port)`` the probe dials).  The checker never *serves*
    requests — it only flips shard state, and the request path consults
    that state before picking a replica.
    """

    def __init__(
        self,
        shards,
        interval: float = 1.0,
        timeout: float = DEFAULT_PROBE_TIMEOUT,
        retries: int = DEFAULT_PROBE_RETRIES,
        probe=binary_ping,
    ):
        self.shards = list(shards)
        self.interval = interval
        self.timeout = timeout
        self.retries = retries
        self.probe = probe
        self.cycles = 0
        self._wake = threading.Event()
        self._stopped = False
        self._thread: threading.Thread | None = None

    def start(self) -> "HealthChecker":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="vss-health", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def check_now(self) -> None:
        """Probe every shard once, synchronously (tests, startup)."""
        for shard in self.shards:
            self._check_one(shard)
        self.cycles += 1

    def _check_one(self, shard) -> None:
        host, port = shard.address
        alive = probe_with_retry(
            self.probe, host, port, timeout=self.timeout, retries=self.retries
        )
        if alive:
            shard.mark_up()
        else:
            shard.mark_down("health probe failed")

    def _run(self) -> None:
        while not self._stopped:
            self.check_now()
            self._wake.wait(timeout=self.interval)
