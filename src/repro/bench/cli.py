"""Benchmark trajectory CLI: ``python -m repro.bench`` / ``repro bench``.

Subcommands:

* ``run --set NAME`` — execute a named benchmark set under full obs
  instrumentation, append one :class:`~repro.bench.tracker.BenchRecord`
  per benchmark to its ``BENCH_<name>.json`` trajectory file, and print
  a summary table.
* ``gate TRAJECTORY...`` — compare the newest record of each trajectory
  against a baseline record (``--baseline``) or the previous entry,
  with per-metric relative thresholds (``--threshold seconds=0.25``)
  and optional per-stage thresholds (``--threshold stage.sizing=0.40``);
  a runtime regression is attributed to the ``stage_seconds`` entries
  that grew.
* ``prune TRAJECTORY... --keep N`` — cap each trajectory at the newest
  N records per config hash (the per-configuration baselines survive).

Exit codes: ``0`` ok, ``1`` regression detected, ``2`` usage or
unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .tracker import (
    BENCH_SETS,
    BenchRecord,
    GateResult,
    TrajectoryError,
    append_record,
    format_gate,
    gate_records,
    load_trajectory,
    prune_trajectory,
    run_benchmark,
    trajectory_path,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Record and gate benchmark score/perf trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a benchmark set and append trajectory records"
    )
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
        help="directory for BENCH_<name>.json trajectory files",
    )
    run.add_argument(
        "--worst-k",
        type=int,
        default=5,
        help="windows per attribution list (default: 5)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers for the sharded engine stages "
        "(recorded in the config hash; default: 1)",
    )
    run.add_argument(
        "--parallel",
        choices=("process", "serial"),
        default="process",
        help="execution backend when --workers != 1 (default: process)",
    )

    gate = sub.add_parser(
        "gate", help="fail when the newest record regressed past thresholds"
    )
    gate.add_argument(
        "trajectories",
        nargs="+",
        type=Path,
        metavar="TRAJECTORY",
        help="BENCH_<name>.json trajectory file(s)",
    )
    gate.add_argument(
        "--baseline",
        type=Path,
        help="trajectory whose newest record is the baseline "
        "(default: the previous entry of each trajectory)",
    )
    gate.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="METRIC=PCT",
        help="override a relative threshold, e.g. seconds=0.25 "
        "(repeatable)",
    )
    gate.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    prune = sub.add_parser(
        "prune", help="cap trajectories at N records per config hash"
    )
    prune.add_argument(
        "trajectories",
        nargs="+",
        type=Path,
        metavar="TRAJECTORY",
        help="BENCH_<name>.json trajectory file(s) to prune in place",
    )
    prune.add_argument(
        "--keep",
        type=int,
        default=20,
        help="newest records to keep per config hash (default: 20)",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from ..core import FillConfig
    from .contest import CONTEST_ETA

    config = FillConfig(
        eta=CONTEST_ETA,
        workers=args.workers,
        parallel=args.parallel,
    )
    header = f"{'bench':<8}{'score':>8}{'quality':>9}{'seconds':>9}{'rss MB':>8}{'fills':>8}"
    print(header)
    print("-" * len(header))
    for name in BENCH_SETS[args.bench_set]:
        record = run_benchmark(name, config=config, worst_k=args.worst_k)
        path = trajectory_path(args.out, name)
        length = append_record(path, record)
        print(
            f"{name:<8}{record.scores['score']:>8.4f}"
            f"{record.scores['quality']:>9.4f}{record.seconds:>9.2f}"
            f"{record.peak_rss_mb:>8.1f}{record.num_fills:>8d}"
            f"   -> {path} (record {length})"
        )
    return 0


def _parse_thresholds(pairs: Sequence[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        metric, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(
                f"repro.bench: bad --threshold {pair!r} (expected METRIC=PCT)"
            )
        try:
            out[metric] = float(value)
        except ValueError:
            raise SystemExit(
                f"repro.bench: bad --threshold value {value!r}"
            ) from None
    return out


def _newest(path: Path) -> BenchRecord:
    records = load_trajectory(path)
    if not records:
        raise TrajectoryError(f"{path}: trajectory has no records")
    return records[-1]


def _cmd_gate(args: argparse.Namespace) -> int:
    thresholds = _parse_thresholds(args.threshold)
    baseline_record: Optional[BenchRecord] = None
    if args.baseline is not None:
        baseline_record = _newest(args.baseline)
    results: List[GateResult] = []
    skipped: List[str] = []
    for path in args.trajectories:
        records = load_trajectory(path)
        if not records:
            raise TrajectoryError(f"{path}: trajectory has no records")
        current = records[-1]
        baseline = baseline_record
        if baseline is None:
            if len(records) < 2:
                skipped.append(
                    f"{path}: single record, nothing to gate against"
                )
                continue
            baseline = records[-2]
        results.append(gate_records(baseline, current, thresholds))
    regressed = any(r.regressed for r in results)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "regressed": regressed,
                    "results": [r.to_dict() for r in results],
                    "skipped": skipped,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for note in skipped:
            print(note)
        for result in results:
            print(format_gate(result))
            print()
    return 1 if regressed else 0


def _cmd_prune(args: argparse.Namespace) -> int:
    for path in args.trajectories:
        kept, removed = prune_trajectory(path, args.keep)
        print(f"{path}: kept {kept} record(s), removed {removed}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "prune":
            return _cmd_prune(args)
        return _cmd_gate(args)
    except (OSError, TrajectoryError) as exc:
        print(f"repro.bench: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if exc.code and not isinstance(exc.code, int):
            print(exc.code, file=sys.stderr)
            return 2
        raise
