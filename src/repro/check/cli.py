"""Command-line entry point: ``python -m repro.check [paths...]``.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .findings import render_github, render_json, render_text
from .rules import RULE_REGISTRY, all_rule_codes, select_rules
from .runner import analyze_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description=(
            "Codebase-aware static analysis for the dummy-fill engine: "
            "integer-dbu discipline, DRC parameter provenance, density "
            "comparison hygiene and export consistency."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format: text, json, or github (GitHub Actions "
        "::error/::warning workflow commands that render as inline PR "
        "annotations) (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule counts to text output",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in all_rule_codes():
            cls = RULE_REGISTRY[code]
            scope = ", ".join(cls.scopes) if cls.scopes else "all files"
            print(f"{code}  [{cls.default_severity}]  {cls.summary}  ({scope})")
        return 0

    try:
        rules = select_rules(_split_codes(args.select), _split_codes(args.ignore))
    except KeyError as exc:
        print(f"repro.check: {exc.args[0]}", file=sys.stderr)
        return 2

    result = analyze_paths(args.paths, rules=rules)
    if result.checked_files == 0:
        print("repro.check: no Python files found", file=sys.stderr)
        return 2

    findings = result.findings

    if args.format == "json":
        print(
            render_json(
                findings,
                checked_files=result.checked_files,
                suppressed=result.suppressed,
                suppressed_by_code=result.suppressed_by_code,
            )
        )
    elif args.format == "github":
        output = render_github(findings)
        if output:
            print(output)
    else:
        print(render_text(findings))
        print(
            f"checked {result.checked_files} file(s), "
            f"{result.suppressed} finding(s) suppressed by noqa"
        )
        if args.statistics:
            counts: dict = {}
            for f in findings:
                counts[f.code] = counts.get(f.code, 0) + 1
            for code in sorted(counts):
                print(f"{code}: {counts[code]}")
            for code in sorted(result.suppressed_by_code):
                print(f"{code}: {result.suppressed_by_code[code]} suppressed")

    return 1 if findings else 0
