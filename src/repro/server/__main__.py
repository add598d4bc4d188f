"""CLI entry point: ``python -m repro.server /path/to/store``.

Three modes:

* ``python -m repro.server /path/to/store`` — HTTP server over a store;
* ``python -m repro.server /path/to/store --binary`` — binary frames;
* ``python -m repro.server --router --shards host:port,host:port`` —
  cluster router over running binary shard servers (serves **both**
  transports: ``--port`` binary, ``--http-port`` HTTP).

``python -m repro.server /path/to/store --check`` serves nothing: it
prints the store's ``engine.check()`` report as JSON and exits 1 when
the report lists any file, 0 when it is clean (:func:`check_offline`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.server.binary import VSSBinaryServer
from repro.server.http import DEFAULT_MAX_INFLIGHT, VSSServer


def check_offline(root: str | Path) -> dict[str, list[str]]:
    """The ``engine.check()`` report of a store, without opening an
    engine and without removing or creating a file.

    An engine's open sweeps the files no catalog row names, which are
    the orphans the report exists to list; this reads the catalog and
    the files directly (:func:`repro.core.engine.diff_store`).  A store
    without a catalog is not given one (the next engine open would then
    sweep every file): each of its files is reported as an orphan.
    Nothing is locked, so on a store a server has open, a file written
    just before its row commits may show up as an orphan; ask that
    server instead (``GET /v1/check``, ``client.check()``).
    """
    from repro.core.catalog import Catalog
    from repro.core.engine import diff_store
    from repro.core.layout import Layout

    layout = Layout(root)
    if not layout.catalog_path.exists():
        return {
            "orphans": sorted(layout.stored_files()),
            "dangling": [],
            "mismatched": [],
            "pending": [],
        }
    catalog = Catalog(layout.catalog_path)
    try:
        return diff_store(layout, catalog)
    finally:
        catalog.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description=(
            "Serve a VSS store over HTTP (default) or binary frames, "
            "or route a cluster of shard servers (--router)."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="store directory (created if missing); omit with --router",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen port (default 8720 HTTP, 8721 binary, 8731 router)",
    )
    parser.add_argument(
        "--binary",
        action="store_true",
        help="serve the binary frame protocol instead of HTTP",
    )
    parser.add_argument(
        "--router",
        action="store_true",
        help="serve as a cluster router over --shards (no local store)",
    )
    parser.add_argument(
        "--shards",
        default=None,
        help="comma-separated binary shard endpoints (host:port,...)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        help="copies kept per video across shards (router mode, "
        "default %(default)s)",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="router's HTTP listen port (default 8730)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        help="concurrent heavy requests before busy rejection "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="engine worker threads (default: core count)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="print the store's consistency report as JSON and exit "
        "(1 on any finding); removes nothing, and on a store a server has "
        "open, files mid-write may show as orphans",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.router:
        if not args.shards:
            parser.error("--router requires --shards host:port,...")
        if args.root is not None or args.check:
            parser.error("--router takes no store directory (or --check)")
        from repro.cluster import VSSRouter

        router = VSSRouter(
            [s.strip() for s in args.shards.split(",") if s.strip()],
            replication=args.replication,
            host=args.host,
            port=args.port if args.port is not None else 8731,
            http_port=args.http_port if args.http_port is not None else 8730,
            max_inflight=args.max_inflight,
            verbose=not args.quiet,
        ).start()
        print(
            f"routing {len(router.engine.shards)} shard(s) on "
            f"{router.url} (binary) and {router.http_url} (HTTP)"
        )
        try:
            router.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            router.close()
        return 0

    if args.root is None:
        parser.error("a store directory is required (unless --router)")
    if args.check:
        if not Path(args.root).is_dir():
            parser.error(f"{args.root}: no such store directory")
        report = check_offline(args.root)
        print(json.dumps(report, indent=2))
        return 1 if any(report.values()) else 0
    if args.binary:
        server = VSSBinaryServer(
            root=args.root,
            host=args.host,
            port=args.port if args.port is not None else 8721,
            max_inflight=args.max_inflight,
            verbose=not args.quiet,
            parallelism=args.parallelism,
        )
    else:
        server = VSSServer(
            root=args.root,
            host=args.host,
            port=args.port if args.port is not None else 8720,
            max_inflight=args.max_inflight,
            verbose=not args.quiet,
            parallelism=args.parallelism,
        )
    host, port = server.address
    print(f"serving VSS store {args.root!r} on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
