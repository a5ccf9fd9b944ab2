"""Argument wiring and run loop for ``repro serve``.

Kept here so :mod:`repro.cli` stays a thin command table; the main CLI
adds the subparser via :func:`configure_parser` and runs the loop via
:func:`run_serve` inside its usual observation context — meaning
``repro serve --trace-out trace.jsonl`` produces one run record whose
roots are the per-request ``service.request`` spans, readable with
``repro trace summarize`` and exportable with
``repro trace export --format chrome``.
"""

from __future__ import annotations

import argparse

from ..obs.expose import TelemetryServer
from .api import FillService
from .server import ServiceServer

__all__ = ["configure_parser", "run_serve"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Add the ``repro serve`` arguments to a subparser."""
    transport = parser.add_argument_group("transport (pick one)")
    transport.add_argument(
        "--socket",
        metavar="PATH",
        help="serve on a Unix-domain socket at PATH (default: repro.sock)",
    )
    transport.add_argument(
        "--port",
        type=int,
        metavar="N",
        help="serve on localhost TCP port N instead (0 picks a free port)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        metavar="N",
        help="open sessions kept before LRU eviction (default: 8)",
    )
    telemetry = parser.add_argument_group("live telemetry")
    telemetry.add_argument(
        "--metrics-port",
        type=int,
        metavar="N",
        help="also serve HTTP GET /metrics (Prometheus text format) and "
        "/healthz on localhost port N (0 picks a free port)",
    )
    telemetry.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="emit a warning event with the request's span tree inline "
        "for any request slower than MS milliseconds",
    )
    telemetry.add_argument(
        "--profile-ms",
        type=float,
        metavar="MS",
        help="sample the thread running each request at this period; "
        "folded stacks land in the run record (--trace-out) for "
        "`repro trace export --format folded`",
    )


def run_serve(args: argparse.Namespace) -> int:
    """Start the service and serve until a client sends ``shutdown``."""
    if args.socket is not None and args.port is not None:
        raise SystemExit("repro serve: pass only one of --socket/--port")
    socket_path = args.socket if args.port is None else None
    if socket_path is None and args.port is None:
        socket_path = "repro.sock"

    service = FillService(
        max_sessions=args.max_sessions,
        slow_ms=args.slow_ms,
        profile_ms=args.profile_ms,
    )
    with service:
        telemetry = None
        if args.metrics_port is not None:
            telemetry = TelemetryServer(
                service.render_metrics,
                health=service.health,
                port=args.metrics_port,
            ).start()
        server = ServiceServer(service, socket_path=socket_path, port=args.port)
        try:
            with server:
                print(
                    f"serving on {server.address} "
                    f"(sessions<={args.max_sessions}); send op=shutdown to stop",
                    flush=True,
                )
                if telemetry is not None:
                    print(
                        f"metrics on {telemetry.address}/metrics "
                        f"(health: {telemetry.address}/healthz)",
                        flush=True,
                    )
                server.wait_shutdown()
        finally:
            if telemetry is not None:
                telemetry.stop()
    print("shutdown requested; server stopped", flush=True)
    return 0
