"""The VSS network service: HTTP and binary servers over a :class:`VSSEngine`.

Start one in-process (tests, notebooks)::

    from repro.server import VSSServer

    with VSSServer(root="/data/store", port=0) as server:
        host, port = server.address
        ...

or from a shell::

    python -m repro.server /data/store --port 8720
    python -m repro.server /data/store --binary --port 8721

Clients talk to it with :class:`repro.client.VSSClient` (HTTP) or
:class:`repro.client.VSSBinaryClient` (binary frames), whose surfaces
mirror :class:`repro.core.engine.Session` so code runs unchanged
against local or remote engines.  :class:`VSSBinaryServer` is the
high-throughput peer of the HTTP server: a single asyncio event loop
multiplexing persistent connections speaking length-prefixed frames;
it writes pixel payloads to the socket from the answer's own arrays
(copying only what the kernel refuses), and a client reads each frame
once, off the socket into the answer it returns.  See ``docs/api.md``
for the endpoint table, wire schemas, and backpressure semantics.
"""

from repro.server.binary import VSSBinaryServer
from repro.server.http import (
    DEFAULT_MAX_INFLIGHT,
    ServiceGauges,
    VSSRequestHandler,
    VSSServer,
)

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "ServiceGauges",
    "VSSBinaryServer",
    "VSSRequestHandler",
    "VSSServer",
]
