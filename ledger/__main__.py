"""Command line: ``python -m ledger run|compare|bench`` (see ledger/README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ledger import SRC


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="all workloads, R rounds, traced pass")
    run.add_argument("--out", required=True, help="directory for ledger.json")
    run.add_argument("--seed", type=int, default=0, help="0 keeps the published seeds")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")

    compare = sub.add_parser("compare", help="judge record B against baseline A")
    compare.add_argument("baseline")
    compare.add_argument("current")

    bench = sub.add_parser("bench", help="one workload for a fixed time")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), required=True)
    bench.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser


def _require_program() -> None:
    """The ledger measures ``src/repro``; without it nothing can run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: the program is missing ({SRC / 'repro'} not found)")
    sys.path.insert(0, str(SRC))


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        from ledger import metrics

        records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.baseline, args.current)]
        rows = metrics.compare(*records)
        print(metrics.format_compare(rows))
        probes = [r["host_probe_ms"]["value"] for r in records]
        print(
            f"host probe: A {probes[0]:.2f} ms, B {probes[1]:.2f} ms "
            f"({probes[1] / probes[0] - 1:+.1%}: the host itself; timings are scaled by it)"
        )
        worse = [r for r in rows if r["verdict"] == "worse"]
        unresolved = [r for r in rows if r["verdict"] == "unresolved"]
        print(f"{len(rows)} metrics: {len(worse)} worse, {len(unresolved)} unresolved")
        return 1 if worse else 0

    _require_program()
    from ledger import runner

    if args.command == "run":
        record = runner.run(
            seed=args.seed,
            scale=args.scale,
            progress=lambda line: print(line, flush=True),
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "ledger.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(runner.format_record(record))
        print(f"wrote {path}")
        return 0 if record["correct"] else 1

    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(runner.WORKLOADS)})")
    result = runner.bench(
        args.workload, args.seed, args.seconds, bool(args.trace), scale=args.scale
    )
    wall = result.pop("wall")
    for name, m in result["metrics"].items():
        raw = f" (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{raw}")
    for check in result.pop("checks"):
        print(f"check failed: {check}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
