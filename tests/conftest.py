"""Shared fixtures.

Test media is deliberately tiny (64x36) so the full suite stays fast; the
synthetic scene generator provides deterministic, feature-rich content.
VSS stores under test use the canned default calibration instead of timing
the local machine, keeping cost-model-dependent assertions stable.
"""

from __future__ import annotations

import json
import socket
from http.client import HTTPResponse

import numpy as np
import pytest

from repro.core.engine import Session, VSSEngine
from repro.core.wire import (
    FRAME_END,
    FRAME_ERROR,
    FRAME_REPLY,
    FRAME_REQUEST,
    frame_to_bytes,
    read_frame,
)
from repro.synthetic.scene import RoadScene
from repro.vbench.calibrate import Calibration
from repro.video.frame import VideoSegment


@pytest.fixture(scope="session")
def calibration() -> Calibration:
    return Calibration.default()


def _render_clip(num_frames: int, height: int = 36, width: int = 64,
                 seed: int = 7) -> VideoSegment:
    scene = RoadScene(world_width=width + 32, height=height, seed=seed,
                      num_vehicles=4)
    stack = np.empty((num_frames, height, width, 3), dtype=np.uint8)
    for t in range(num_frames):
        stack[t] = scene.render_world(t)[:, :width]
    return VideoSegment(stack, "rgb", height, width, fps=30.0)


@pytest.fixture(scope="session")
def tiny_clip() -> VideoSegment:
    """24 frames (0.8 s) of 64x36 textured traffic video."""
    return _render_clip(24)


@pytest.fixture(scope="session")
def three_second_clip() -> VideoSegment:
    """90 frames (3 s) for read-planner and cache tests."""
    return _render_clip(90)


@pytest.fixture()
def store(tmp_path, calibration) -> Session:
    """A default session on a fresh engine (``store.engine``)."""
    with VSSEngine(tmp_path / "store", calibration=calibration) as engine:
        with engine.session() as session:
            yield session


@pytest.fixture()
def loaded_store(store, three_second_clip) -> Session:
    """A store with one 3-second h264 original named 'traffic'."""
    store.create("traffic")
    store.write("traffic", three_second_clip, codec="h264", qp=10, gop_size=30)
    return store


class RawAnswer:
    """One data-plane request sent by hand, its answer read frame by frame.

    ``transport`` is ``"http"`` (the ``REQUEST`` frame is the body of
    ``POST /v1/<op>``; the answer is de-chunked by a bare
    ``HTTPResponse``) or ``"binary"`` (the frame goes out as it is).
    Either way the answer is parsed by :func:`repro.core.wire.read_frame`
    — the comparison the frame-parity tests are about.  ``rcvbuf``
    shrinks the receive buffer *before* connecting, which pins the TCP
    window: a server streaming more than the window must block in its
    backpressure path until we read.
    """

    def __init__(self, transport, address, op, params, payload=None,
                 rcvbuf=None):
        self.transport = transport
        #: The HTTP status once the answer began (``None`` over binary).
        self.status: int | None = None
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(30.0)
        self.sock.connect(tuple(address))
        request = frame_to_bytes(FRAME_REQUEST, {"op": op, **params}, payload)
        if transport == "http":
            request = (
                f"POST /v1/{op} HTTP/1.1\r\nHost: vss\r\n"
                f"Content-Length: {len(request)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode() + request
        self.sock.sendall(request)

    def frames(self):
        """Yield ``(type, header, payload bytes)`` up to the frame that
        ends the answer.  An HTTP error status yields its JSON envelope
        as the one ``ERROR`` frame the binary transport would send."""
        if self.transport == "http":
            rfile = HTTPResponse(self.sock, method="POST")
            rfile.begin()
            self.status = rfile.status
            if rfile.status != 200:
                yield FRAME_ERROR, json.loads(rfile.read()), b""
                return
        else:
            rfile = self.sock.makefile("rb")
        with rfile:
            while True:
                frame_type, header, payload = read_frame(rfile)
                yield frame_type, header, bytes(payload)
                if frame_type in (FRAME_END, FRAME_REPLY, FRAME_ERROR):
                    break
            if self.transport == "http":
                assert rfile.read() == b""  # nothing but frames in the body

    def close(self) -> None:
        self.sock.close()


@pytest.fixture()
def raw_answer():
    """Factory of :class:`RawAnswer` conversations, closed at teardown."""
    opened: list[RawAnswer] = []

    def ask(*args, **kwargs) -> RawAnswer:
        opened.append(RawAnswer(*args, **kwargs))
        return opened[-1]

    yield ask
    for answer in opened:
        answer.close()
