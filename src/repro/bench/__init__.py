"""Benchmark generation, the scaled s/b/m suite, contest harness, BENCH records."""

from .contest import (
    TEAMS,
    ContestEntry,
    format_table,
    headline,
    run_contest,
    run_team,
)
from .generator import LayoutSpec, generate_layout
from .suite import (
    SUITE_SPECS,
    Benchmark,
    benchmark_names,
    calibrate_weights,
    load_benchmark,
)
from .tracker import (
    BENCH_SETS,
    BenchRecord,
    BenchRecordError,
    Column,
    GateResult,
    MetricDelta,
    TableArtifact,
    format_gate,
    gate_dirs,
    gate_records,
    load_records,
    run_benchmark,
    write_record,
)

__all__ = [
    "TEAMS",
    "ContestEntry",
    "format_table",
    "headline",
    "run_contest",
    "run_team",
    "LayoutSpec",
    "generate_layout",
    "SUITE_SPECS",
    "Benchmark",
    "benchmark_names",
    "calibrate_weights",
    "load_benchmark",
    "BENCH_SETS",
    "BenchRecord",
    "BenchRecordError",
    "Column",
    "GateResult",
    "MetricDelta",
    "TableArtifact",
    "format_gate",
    "gate_dirs",
    "gate_records",
    "load_records",
    "run_benchmark",
    "write_record",
]
