#!/usr/bin/env python3
"""Drive a running ``repro serve`` instance through a mixed batch.

The reference client for the fill service (and the script CI's
service-smoke job runs): connects to the serve socket, opens a session,
submits one batch of eight mixed requests — full fill, scores, DRC
audits, and two incremental ECO patches — and writes every GDSII the
service returns, so the results can be byte-compared against serial
``repro fill`` / ``repro eco`` invocations of the same inputs.

Run:  python -m repro serve --socket repro.sock &
      python examples/service_client.py repro.sock demo.gds out/
      python examples/service_client.py repro.sock demo.gds out/ --shutdown
"""

import argparse
import json
import sys
from pathlib import Path

from repro.service import SocketClient

#: the two ECO patches, also written as JSON specs for `repro eco`
ECO_1 = {"1": [[100, 100, 400, 140]]}
ECO_2 = {"1": [[700, 700, 800, 760]], "2": [[100, 700, 200, 760]]}

#: engine knobs matching the CLI defaults (`repro fill` uses eta 0.2)
CONFIG = {"eta": 0.2}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("socket", help="path of the repro serve socket")
    parser.add_argument("input", type=Path, help="unfilled GDSII")
    parser.add_argument("outdir", type=Path, help="directory for result GDSII")
    parser.add_argument("--windows", type=int, default=4)
    parser.add_argument(
        "--shutdown", action="store_true", help="stop the server afterwards"
    )
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    with SocketClient(socket_path=args.socket) as client:
        pong = client.request("ping")
        print(f"connected: {pong['sessions']} sessions open")

        session = client.request(
            "open_session",
            gds=args.input.read_bytes(),
            windows=args.windows,
            config=CONFIG,
        )
        sid = session["session"]
        print(f"opened {sid}: {session['wires']} wires on {session['layers']} layers")

        responses = client.batch(
            [
                {"op": "fill", "session": sid},
                {"op": "score", "session": sid},
                {"op": "drc_audit", "session": sid},
                {"op": "eco_delta", "session": sid, "wires": ECO_1},
                {"op": "score", "session": sid},
                {"op": "drc_audit", "session": sid},
                {"op": "eco_delta", "session": sid, "wires": ECO_2},
                {"op": "drc_audit", "session": sid},
            ]
        )
        failures = [r for r in responses if not r.get("ok")]
        if failures:
            for failure in failures:
                print(f"request failed: {failure['error']}", file=sys.stderr)
            return 1

        results = [r["result"] for r in responses]
        (args.outdir / "fill.gds").write_bytes(results[0]["gds"])
        (args.outdir / "eco1.gds").write_bytes(results[3]["gds"])
        (args.outdir / "eco2.gds").write_bytes(results[6]["gds"])
        (args.outdir / "eco1.json").write_text(json.dumps(ECO_1))
        (args.outdir / "eco2.json").write_text(json.dumps(ECO_2))

        print(results[0]["summary"])
        print(results[3]["summary"])
        print(results[6]["summary"])
        print(f"score after fill: {results[1]['scores']['score']:.3f}")
        print(f"score after eco:  {results[4]['scores']['score']:.3f}")
        audits = [results[2]["count"], results[5]["count"], results[7]["count"]]
        print(f"drc audits: {audits}")
        if any(audits):
            print("DRC violations in service output", file=sys.stderr)
            return 2

        if args.shutdown:
            client.shutdown()
            print("server shutdown requested")
    return 0


if __name__ == "__main__":
    sys.exit(main())
