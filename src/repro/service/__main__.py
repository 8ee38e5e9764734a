"""CLI for the analysis service.

Run a server::

    PYTHONPATH=src python -m repro.service serve \\
        --port 8753 --workers 4 --store results/service/cache

Submit a request (JSON payload on the command line or stdin)::

    PYTHONPATH=src python -m repro.service request \\
        --port 8753 --kind specflow \\
        --payload '{"program": "sanity_safe_arith", "model": "spectre"}'

Query server health::

    PYTHONPATH=src python -m repro.service status --port 8753
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..reliability.atomic_io import atomic_write_text
from .client import request_sync, status_sync
from .server import build_service, serve


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Fault-tolerant analysis job server with a "
        "content-addressed result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    srv = sub.add_parser("serve", help="run the job server")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 picks a free port, printed on start)")
    srv.add_argument("--workers", type=int, default=2,
                     help="pool worker processes (default 2)")
    srv.add_argument("--store", default="results/service/cache",
                     help="result-store directory")
    srv.add_argument("--journal", default=None,
                     help="drain-journal path (enables SIGTERM resume)")
    srv.add_argument("--resume", action="store_true",
                     help="replay the journal's pending requests on start")
    srv.add_argument("--max-depth", type=int, default=64,
                     help="admission queue depth before shedding")
    srv.add_argument("--per-client-cap", type=int, default=None,
                     help="max queued requests per client id")
    srv.add_argument("--deadline", type=float, default=None,
                     help="default per-request deadline in seconds")
    srv.add_argument("--max-attempts", type=int, default=3,
                     help="retry budget per request (default 3)")
    srv.add_argument("--max-rss", default=None,
                     help="per-worker RSS ceiling, e.g. 512M")
    srv.add_argument("--heartbeat-timeout", type=float, default=60.0)
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     help="grace for in-flight work on SIGTERM")
    srv.add_argument("--ready-file", default=None,
                     help="write 'host port' here once listening (for "
                     "scripts that need the auto-picked port)")

    req = sub.add_parser("request", help="submit one request")
    req.add_argument("--host", default="127.0.0.1")
    req.add_argument("--port", type=int, required=True)
    req.add_argument("--kind", required=True,
                     choices=("sim", "specflow", "fuzz"))
    req.add_argument("--payload", default="-",
                     help="JSON payload ('-' reads stdin)")
    req.add_argument("--client", default="cli")
    req.add_argument("--lane", default="interactive",
                     choices=("interactive", "batch"))
    req.add_argument("--deadline", type=float, default=None)
    req.add_argument("--nocache", action="store_true")
    req.add_argument("--retries", type=int, default=0,
                     help="retry explicit sheds this many times, honoring "
                     "retry_after_s with decorrelated jitter")
    req.add_argument("--transport-retries", type=int, default=1,
                     help="retry transport failures on a fresh connection "
                     "(idempotent; default 1)")

    sta = sub.add_parser("status", help="query server health")
    sta.add_argument("--host", default="127.0.0.1")
    sta.add_argument("--port", type=int, required=True)
    return parser


_SIZE_SUFFIXES = {"K": 2**10, "M": 2**20, "G": 2**30}


def _parse_size(text):
    if text is None:
        return None
    text = text.strip().upper()
    suffix = text[-1:]
    if suffix in _SIZE_SUFFIXES:
        return int(float(text[:-1]) * _SIZE_SUFFIXES[suffix])
    return int(text)


def _cmd_serve(args):
    service = build_service(
        store_dir=args.store,
        workers=args.workers,
        max_depth=args.max_depth,
        per_client_cap=args.per_client_cap,
        max_rss=_parse_size(args.max_rss),
        heartbeat_timeout=args.heartbeat_timeout,
        default_deadline_s=args.deadline,
        journal_path=args.journal,
        max_attempts=args.max_attempts,
    )

    def ready(host, port):
        print(f"serving on {host}:{port}", flush=True)
        if args.ready_file:
            # Atomic: a watcher polls for the file and reads it at once.
            atomic_write_text(args.ready_file, f"{host} {port}\n")

    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        origin = loop.run_until_complete(
            serve(
                service,
                host=args.host,
                port=args.port,
                ready_callback=ready,
                resume=args.resume,
                drain_timeout=args.drain_timeout,
            )
        )
    finally:
        loop.close()
    print(f"drained ({origin})", flush=True)
    return 0


def _cmd_request(args):
    if args.payload == "-":
        payload = json.load(sys.stdin)
    else:
        payload = json.loads(args.payload)
    response = request_sync(
        args.host, args.port, args.kind, payload,
        client=args.client, lane=args.lane,
        deadline_s=args.deadline, nocache=args.nocache,
        retries=args.retries, transport_retries=args.transport_retries,
    )
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("status") == "ok" else 1


def _cmd_status(args):
    response = status_sync(args.host, args.port)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("status") == "ok" else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "request":
        return _cmd_request(args)
    return _cmd_status(args)


if __name__ == "__main__":
    sys.exit(main())
