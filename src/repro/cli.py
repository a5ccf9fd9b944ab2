"""Command-line interface: ``python -m repro <command>``.

The contest tools were command-line binaries (GDSII in, GDSII out);
this CLI exposes the same workflow:

* ``generate`` — synthesise a benchmark layout and write it as GDSII,
* ``info``     — print a GDSII file's layers, shape counts, densities,
* ``fill``     — insert dummy fill into a GDSII file (the main tool),
* ``score``    — score a filled GDSII against contest-style weights,
* ``drc``      — check the fills of a GDSII for rule violations,
* ``eco``      — commit new wires to a filled GDSII and incrementally
  re-fill only the windows the change dirtied (:mod:`repro.eco`),
* ``serve``    — run the persistent fill service: sessions, batch
  requests, NDJSON socket protocol (:mod:`repro.service`),
* ``trace``    — render/diff/export run records written by
  ``--trace-out`` (forwards to ``python -m repro.obs``),
* ``bench``    — record the values a fill decides and gate a head
  against a base (forwards to ``python -m repro.bench``).

Every command reads and writes real GDSII byte streams, so the CLI
composes with any external layout tooling.  ``generate``, ``fill``,
``score``, ``drc`` and ``eco`` accept ``--trace-out PATH`` to write a
:mod:`repro.obs` run record (JSONL) of the command, ``--log-level`` /
``--events PATH`` to tune the structured event log, and ``--profile``
(``--profile-ms MS``) to attach the sampling profiler, whose folded
stacks land in the run record for
``repro trace export --format folded``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from . import obs
from .bench.contest import CONTEST_ETA
from .bench.generator import LayoutSpec, generate_layout
from .bench.suite import DEFAULT_BETAS, calibrate_weights
from .core import DummyFillEngine, FillConfig, stream_fill
from .density import compute_metrics, metal_density_map, score_layout, wire_density_map
from .gdsii import file_size_mb, gdsii_bytes, layout_from_gdsii
from .geometry import Rect
from .layout import DrcRules, Layout, WindowGrid
from .layout.drc import REQUEST_RULE_DEFAULTS

__all__ = ["main", "build_parser"]


def _add_rules_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("DRC rules")
    defaults = REQUEST_RULE_DEFAULTS
    group.add_argument("--min-spacing", type=int, default=defaults["min_spacing"])
    group.add_argument("--min-width", type=int, default=defaults["min_width"])
    group.add_argument("--min-area", type=int, default=defaults["min_area"])
    group.add_argument("--max-fill", type=int, default=defaults["max_fill"], help="max fill edge")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    group.add_argument("--eta", type=float, default=CONTEST_ETA, help="overlay weight")
    group.add_argument("--lambda", dest="lambda_factor", type=float, default=1.1)
    group.add_argument("--gamma", type=float, default=1.0)
    group.add_argument(
        "--solver",
        choices=("mcf-ssp", "lp"),
        default="mcf-ssp",
        help="sizing LP backend: mcf-ssp solves each pass through its dual "
        "min-cost flow (one-fill windows of a column batch in one closed "
        "form), lp builds every window's LP and solves it with scipy's HiGHS "
        "(the reference)",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process workers of the band sweep: analysis, candidate "
        "generation and sizing run each band's window columns in up to "
        "N parts (1 = serial, 0 = one per CPU; output is identical for "
        "any N)",
    )


def _config_from(args: argparse.Namespace) -> "FillConfig":
    return FillConfig(
        eta=args.eta,
        lambda_factor=args.lambda_factor,
        gamma=args.gamma,
        solver=args.solver,
        workers=args.workers,
    )


def _parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (powers of 1024)."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, value in (("k", 1024), ("m", 1024**2), ("g", 1024**3)):
        if raw.endswith(suffix):
            multiplier = value
            raw = raw[: -len(suffix)]
            break
    try:
        count = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. 268435456, 256M, 1G)"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("size must be positive")
    return count * multiplier


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("streaming")
    group.add_argument(
        "--stream",
        action="store_true",
        help="run out-of-core: stream the GDSII through per-band spill "
        "files and fill one window-column band at a time (bounded "
        "peak memory; output bytes identical to the in-memory path)",
    )
    group.add_argument(
        "--memory-budget",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="byte budget for --stream, with optional K/M/G suffix "
        "(default: 256M); sizes the number of bands",
    )
    group.add_argument(
        "--bands",
        type=int,
        default=None,
        metavar="N",
        help="explicit band count for --stream (overrides the budget)",
    )
    group.add_argument(
        "--format",
        choices=("gdsii", "oasis"),
        default="gdsii",
        help="output format (default: gdsii)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace-out",
        type=Path,
        metavar="PATH",
        help="write a run record (JSONL spans, metrics, peak RSS) to PATH",
    )
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="event-log verbosity (default: warning)",
    )
    group.add_argument(
        "--events",
        type=Path,
        metavar="PATH",
        help="append structured JSON event lines to PATH instead of stderr",
    )


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("profiling")
    group.add_argument(
        "--profile",
        action="store_true",
        help="attach the sampling profiler for the command; folded "
        "stacks land in the run record (--trace-out) for "
        "`repro trace export --format folded`",
    )
    group.add_argument(
        "--profile-ms",
        type=float,
        default=10.0,
        metavar="MS",
        help="sampling period in milliseconds (default: 10.0)",
    )


@contextlib.contextmanager
def _observed(args: argparse.Namespace, label: str) -> Iterator[None]:
    """Apply the observability/profiling flags around one command.

    Event-log level and destination come from ``--log-level`` /
    ``--events`` (all diagnostics flow through ``repro.obs.events``;
    stdlib ``repro.*`` loggers are bridged in).  ``--trace-out``
    records the command; ``--profile`` arms the sampling profiler
    *inside* the recorded region so the profile publishes onto the
    record's tracer before the record closes.
    """
    obs.events.configure(
        level=args.log_level,
        path=str(args.events) if getattr(args, "events", None) else None,
    )
    with contextlib.ExitStack() as stack:
        if args.trace_out is not None:
            stack.enter_context(obs.record_run(args.trace_out, label=label))
        if getattr(args, "profile", False):
            stack.enter_context(obs.profiled(period_ms=args.profile_ms))
        yield
    if args.trace_out is not None:
        print(f"wrote run record {args.trace_out}")


def _rules_from(args: argparse.Namespace) -> DrcRules:
    return DrcRules(
        min_spacing=args.min_spacing,
        min_width=args.min_width,
        min_area=args.min_area,
        max_fill_width=args.max_fill,
        max_fill_height=args.max_fill,
    )


def _grid_from(args: argparse.Namespace, layout: Layout) -> WindowGrid:
    return WindowGrid(layout.die, args.windows, args.windows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dummy fill insertion with coupling and uniformity "
        "constraints (DAC 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a benchmark layout")
    gen.add_argument("output", type=Path, help="output GDSII path")
    gen.add_argument("--die", type=int, default=4000, help="die edge in dbu")
    gen.add_argument("--layers", type=int, default=3)
    gen.add_argument("--seed", type=int, default=2014)
    gen.add_argument("--wires", type=int, default=450, help="cell rects per layer")
    _add_rules_args(gen)
    _add_obs_args(gen)
    _add_profile_args(gen)

    info = sub.add_parser("info", help="inspect a GDSII layout")
    info.add_argument("input", type=Path)
    info.add_argument("--windows", type=int, default=8, help="grid edge count")
    _add_rules_args(info)

    fill = sub.add_parser("fill", help="insert dummy fill into a GDSII")
    fill.add_argument("input", type=Path)
    fill.add_argument("output", type=Path)
    fill.add_argument("--windows", type=int, default=8)
    _add_engine_args(fill)
    fill.add_argument(
        "--report",
        type=Path,
        help="write a markdown run report to this path",
    )
    _add_stream_args(fill)
    _add_rules_args(fill)
    _add_obs_args(fill)
    _add_profile_args(fill)

    score = sub.add_parser("score", help="score a filled GDSII")
    score.add_argument("input", type=Path, help="filled layout")
    score.add_argument(
        "--reference",
        type=Path,
        help="unfilled layout used to calibrate the score weights "
        "(defaults to the input with fills stripped)",
    )
    score.add_argument("--windows", type=int, default=8)
    _add_rules_args(score)
    _add_obs_args(score)
    _add_profile_args(score)

    drc = sub.add_parser("drc", help="check fills against the rule deck")
    drc.add_argument("input", type=Path)
    _add_rules_args(drc)
    _add_obs_args(drc)
    _add_profile_args(drc)

    eco = sub.add_parser(
        "eco",
        help="commit new wires to a filled GDSII and re-fill only the "
        "dirtied windows",
    )
    eco.add_argument("input", type=Path, help="filled GDSII")
    eco.add_argument(
        "wires",
        type=Path,
        help='JSON wire spec: {"<layer>": [[xl, yl, xh, yh], ...], ...}',
    )
    eco.add_argument("output", type=Path, help="patched GDSII path")
    eco.add_argument("--windows", type=int, default=8)
    _add_engine_args(eco)
    _add_stream_args(eco)
    _add_rules_args(eco)
    _add_obs_args(eco)
    _add_profile_args(eco)

    serve = sub.add_parser(
        "serve",
        help="run the persistent fill service (NDJSON over a local socket)",
    )
    from .service.cli import configure_parser as _configure_serve

    _configure_serve(serve)
    _add_obs_args(serve)

    # listed for `repro --help`; main() forwards their arguments unparsed
    sub.add_parser(
        "trace",
        help="render or diff run records (see `repro trace --help`)",
        add_help=False,
    )
    sub.add_parser(
        "bench",
        help="record/gate BENCH records (see `repro bench --help`)",
        add_help=False,
    )

    return parser


# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    with _observed(args, label="repro generate"):
        spec = LayoutSpec(
            name=args.output.stem,
            die_size=args.die,
            num_layers=args.layers,
            seed=args.seed,
            num_cell_rects=args.wires,
            rules=_rules_from(args),
        )
        with obs.span("generate"):
            layout = generate_layout(spec)
        with obs.span("io.write"):
            args.output.write_bytes(gdsii_bytes(layout))
        print(
            f"wrote {args.output}: {layout.num_wires} wires on "
            f"{layout.num_layers} layers, {args.output.stat().st_size} bytes"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    layout = layout_from_gdsii(args.input.read_bytes(), _rules_from(args))
    grid = _grid_from(args, layout)
    print(f"{args.input}: die {layout.die}, {layout.num_layers} layers")
    for layer in layout.layers:
        wires = compute_metrics(wire_density_map(layer, grid))
        total = compute_metrics(metal_density_map(layer, grid))
        print(
            f"  layer {layer.number}: {layer.num_wires} wires, "
            f"{layer.num_fills} fills; wire density {wires.mean:.3f} "
            f"(sigma {wires.sigma:.4f}), total {total.mean:.3f} "
            f"(sigma {total.sigma:.4f})"
        )
    return 0


def _cmd_stream(
    args: argparse.Namespace,
    label: str,
    eco_wires: Optional[Mapping[int, Sequence[Rect]]] = None,
) -> int:
    """``fill``/``eco`` with ``--stream``: the out-of-core driver."""
    with _observed(args, label=label):
        report = stream_fill(
            str(args.input),
            str(args.output),
            _rules_from(args),
            cols=args.windows,
            rows=args.windows,
            config=_config_from(args),
            memory_budget=args.memory_budget,
            bands=args.bands,
            eco_wires=eco_wires,
            output_format=args.format,
        )
        print(report.summary())
        print(
            f"streamed {report.bands} bands: kept {report.kept_fills} input fills, "
            f"removed {report.removed_fills}, spilled {report.bytes_spilled} bytes "
            f"in {report.chunks} chunks"
        )
        print(
            f"wrote {args.output}: {report.kept_fills + report.num_fills} fills, "
            f"{report.bytes_written} bytes, {len(report.violations)} DRC violations"
        )
    return 0 if not report.violations else 2


def _cmd_fill(args: argparse.Namespace) -> int:
    if args.stream:
        if args.report is not None:
            print("--report is not supported with --stream", file=sys.stderr)
            return 2
        return _cmd_stream(args, "repro fill")
    with _observed(args, label="repro fill"):
        with obs.span("io.read"):
            layout = layout_from_gdsii(args.input.read_bytes(), _rules_from(args))
        grid = _grid_from(args, layout)
        report = DummyFillEngine(_config_from(args)).run(layout, grid)
        with obs.span("drc"):
            violations = layout.check_drc()
        with obs.span("io.write"):
            size = args.output.write_bytes(_serialised(layout, args.format))
        print(report.summary())
        if args.report is not None:
            from .report import render_report

            args.report.write_text(render_report(layout, grid, report))
            print(f"wrote report {args.report}")
        print(
            f"wrote {args.output}: {layout.num_fills} fills, "
            f"{size} bytes, {len(violations)} DRC violations"
        )
    return 0 if not violations else 2


def _serialised(layout: Layout, output_format: str) -> bytes:
    if output_format == "oasis":
        from .oasis import oasis_bytes

        return oasis_bytes(layout)
    return gdsii_bytes(layout)


def _cmd_score(args: argparse.Namespace) -> int:
    with _observed(args, label="repro score"):
        with obs.span("io.read"):
            layout = layout_from_gdsii(args.input.read_bytes(), _rules_from(args))
        grid = _grid_from(args, layout)
        if args.reference is not None:
            reference = layout_from_gdsii(
                args.reference.read_bytes(), _rules_from(args)
            )
        else:
            reference = layout.copy_without_fills()
        ref_grid = WindowGrid(reference.die, args.windows, args.windows)
        with obs.span("calibrate"):
            weights = calibrate_weights(reference, ref_grid, *DEFAULT_BETAS)
        size = file_size_mb(args.input.stat().st_size)
        with obs.span("score"):
            card = score_layout(layout, grid, weights, file_size=size)
        for name, value in card.as_row().items():
            print(f"  {name:<10} {value:.3f}")
    return 0


def _cmd_drc(args: argparse.Namespace) -> int:
    with _observed(args, label="repro drc"):
        with obs.span("io.read"):
            layout = layout_from_gdsii(args.input.read_bytes(), _rules_from(args))
        with obs.span("drc"):
            violations = layout.check_drc()
        for v in violations[:50]:
            print(f"  {v}")
        print(f"{len(violations)} violations")
    return 0 if not violations else 2


def _cmd_eco(args: argparse.Namespace) -> int:
    if args.stream:
        from .eco import wires_from_json

        return _cmd_stream(
            args, "repro eco", wires_from_json(json.loads(args.wires.read_text()))
        )
    with _observed(args, label="repro eco"):
        from .eco import apply_eco, wires_from_json

        with obs.span("io.read"):
            layout = layout_from_gdsii(args.input.read_bytes(), _rules_from(args))
            new_wires = wires_from_json(json.loads(args.wires.read_text()))
        grid = _grid_from(args, layout)
        report = apply_eco(layout, grid, new_wires, _config_from(args))
        with obs.span("drc"):
            violations = layout.check_drc()
        with obs.span("io.write"):
            size = args.output.write_bytes(_serialised(layout, args.format))
        print(report.summary())
        print(
            f"wrote {args.output}: {layout.num_fills} fills, "
            f"{size} bytes, {len(violations)} DRC violations"
        )
    return 0 if not violations else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.cli import run_serve

    with _observed(args, label="repro serve"):
        return run_serve(args)


def _cmd_trace(argv: Sequence[str]) -> int:
    from .obs.cli import main as obs_main

    return obs_main(argv)


def _cmd_bench(argv: Sequence[str]) -> int:
    from .bench.cli import main as bench_main

    return bench_main(argv)


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "fill": _cmd_fill,
    "score": _cmd_score,
    "drc": _cmd_drc,
    "eco": _cmd_eco,
    "serve": _cmd_serve,
}

#: commands whose arguments go to another module's CLI as they are (an
#: ``argparse.REMAINDER`` positional would refuse a leading ``--help``)
_FORWARDED = {
    "trace": _cmd_trace,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _FORWARDED:
        return _FORWARDED[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
