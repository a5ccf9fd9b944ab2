"""BENCH record CLI: ``python -m repro.bench`` / ``repro bench``.

Subcommands:

* ``run --set NAME --out DIR`` — fill every benchmark of a named set
  and write one :class:`~repro.bench.tracker.BenchRecord` per benchmark
  to ``DIR/BENCH_<name>.json``.
* ``gate BASE_DIR HEAD_DIR`` — pair the two directories' records by
  name and fail on any gated value the head made worse, by any amount.

Exit codes: ``0`` ok, ``1`` a head value is worse than its base, ``2``
usage errors, unreadable records, or record sets that differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .tracker import (
    BENCH_SETS,
    BenchRecordError,
    format_gate,
    gate_dirs,
    run_benchmark,
    write_record,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Record and gate the values a fill decides.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark set and write its records")
    run.add_argument(
        "--set",
        dest="bench_set",
        choices=sorted(BENCH_SETS),
        default="smoke",
        help="named benchmark set to execute (default: smoke)",
    )
    run.add_argument(
        "--out",
        type=Path,
        default=Path("."),
        help="directory for the BENCH_<name>.json records",
    )

    gate = sub.add_parser(
        "gate", help="fail when a head record is worse than its base"
    )
    gate.add_argument("base", type=Path, metavar="BASE_DIR")
    gate.add_argument("head", type=Path, metavar="HEAD_DIR")
    gate.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    header = f"{'bench':<14}{'quality':>9}{'fills':>8}{'bytes':>9}"
    print(header)
    print("-" * len(header))
    for name in BENCH_SETS[args.bench_set]:
        record = run_benchmark(name)
        path = write_record(args.out, record)
        print(
            f"{name:<14}{record.scores['quality']:>9.4f}"
            f"{record.num_fills:>8d}{record.gds_bytes:>9d}   -> {path}"
        )
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    results = gate_dirs(args.base, args.head)
    regressed = any(r.regressed for r in results)
    if args.format == "json":
        payload = {"regressed": regressed, "results": [r.to_dict() for r in results]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for result in results:
            print(format_gate(result))
            print()
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_gate(args)
    except (OSError, BenchRecordError) as exc:
        print(f"repro.bench: {exc}", file=sys.stderr)
        return 2
