"""Benchmark trajectory records and the perf/quality regression gate.

The paper's headline claims are quantitative — Table 3 quality/score,
the Fig. 4-6 runtime and memory curves — so the repo needs more than a
text table per run: it needs a machine-readable *trajectory* of those
numbers over time, and a gate that fails a PR when one of them slides.
This module turns the :mod:`repro.obs` primitives (spans, metrics, run
records, the RSS sampler) into exactly that:

* :func:`run_benchmark` executes one named benchmark under a full
  :func:`repro.obs.record_run` and distils the result into a
  schema-versioned :class:`BenchRecord`: git sha, config hash, every
  Eqn. (3) :class:`~repro.density.scoring.ScoreCard` component,
  per-stage wall-clock read off the ``engine.run`` span tree, peak RSS
  from the sampler thread, fill count, GDSII bytes — plus the K worst
  windows by density deviation and by overlay contribution
  (:func:`repro.density.scoring.worst_windows`), so a regression points
  at a window and a stage, not just a number.
* :func:`append_record` / :func:`load_trajectory` maintain one
  ``BENCH_<name>.json`` trajectory file per benchmark (newest record
  last).
* :func:`gate_records` compares two records metric by metric with
  per-metric relative thresholds (:data:`GATE_METRICS`) and reports
  which ones regressed; ``repro bench gate`` turns that into an exit
  code for CI.
* :class:`TableArtifact` is the structured form of every
  ``benchmarks/bench_*.py`` reproduction table: the ``results/*.txt``
  files are its :meth:`~TableArtifact.render` output and the
  ``results/BENCH_*.json`` files its :meth:`~TableArtifact.to_dict`
  output — one record, two renderings.

See ``docs/OBSERVABILITY.md`` ("Benchmark trajectory") for the record
schema and the CI workflow.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..core import DummyFillEngine, FillConfig, stream_fill
from ..density.scoring import score_layout, worst_windows
from ..gdsii import file_size_mb, gdsii_bytes, layout_from_gdsii
from ..layout import Layout, WindowGrid
from ..obs.record import _git_sha
from .generator import LayoutSpec, generate_layout
from .suite import SUITE_SPECS, calibrate_weights, load_benchmark

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "TrajectoryError",
    "BenchRecord",
    "BENCH_SETS",
    "bench_set_names",
    "run_benchmark",
    "trajectory_path",
    "load_trajectory",
    "append_record",
    "prune_records",
    "prune_trajectory",
    "GATE_METRICS",
    "MetricDelta",
    "StageDelta",
    "GateResult",
    "gate_records",
    "format_gate",
    "Column",
    "TableArtifact",
]

#: version of the BENCH_*.json record layout; bump on breaking change
BENCH_SCHEMA_VERSION = 1


class TrajectoryError(ValueError):
    """A trajectory file is malformed, or two records are incomparable."""


# ----------------------------------------------------------------------
# the record
# ----------------------------------------------------------------------
@dataclass
class BenchRecord:
    """One benchmark run, distilled to its trajectory-worthy numbers."""

    bench: str
    git_sha: Optional[str]
    created_at: str
    config: Dict[str, Any]
    config_hash: str
    #: every ScoreCard component plus quality/score (Table 3 row)
    scores: Dict[str, float]
    #: raw (unnormalised) Eqn. (4) inputs
    raw: Dict[str, float]
    #: seconds of each engine stage, read off the engine.run span tree
    stage_seconds: Dict[str, float]
    seconds: float
    peak_rss_mb: float
    num_fills: int
    gds_bytes: int
    #: K worst windows by density deviation / overlay contribution
    worst_windows: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["schema"] = BENCH_SCHEMA_VERSION
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        payload = dict(data)
        schema = payload.pop("schema", None)
        if schema != BENCH_SCHEMA_VERSION:
            raise TrajectoryError(
                f"unsupported BENCH record schema {schema!r} "
                f"(expected {BENCH_SCHEMA_VERSION})"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise TrajectoryError(f"malformed BENCH record: {exc}") from exc

    def metric(self, name: str) -> float:
        """A gateable metric by name (score component or run stat)."""
        if name in self.scores:
            return float(self.scores[name])
        if name in ("seconds", "peak_rss_mb", "num_fills", "gds_bytes"):
            return float(getattr(self, name))
        raise KeyError(f"unknown benchmark metric {name!r}")


def _config_digest(config: Mapping[str, Any]) -> str:
    """Stable short hash of a benchmark configuration dict."""
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ----------------------------------------------------------------------
# named benchmarks and sets
# ----------------------------------------------------------------------
#: tiny generated layout for CI: seconds, not minutes (mirrors the
#: trace-smoke job's `repro generate demo.gds --die 1600 --wires 120`)
_SMOKE_SPEC = LayoutSpec(
    name="smoke",
    die_size=1600,
    seed=7,
    num_cell_rects=120,
    num_bus_bundles=1,
    num_macros=1,
    rules=SUITE_SPECS["s"][0].rules,
)
_SMOKE_WINDOWS = (4, 4)
_SMOKE_BETAS = (60.0, 1024.0)
#: bands for the streaming smoke case — >1 so the spill path is exercised
_STREAM_SMOKE_BANDS = 2

#: named benchmark sets `repro bench run --set <name>` executes
BENCH_SETS: Dict[str, Tuple[str, ...]] = {
    "smoke": ("smoke", "stream-smoke"),
    "s": ("s",),
    "suite": ("s", "b"),
    "full": ("s", "b", "m"),
}


def bench_set_names() -> Tuple[str, ...]:
    return tuple(BENCH_SETS)


def _load_case(name: str) -> Tuple[Layout, WindowGrid, Any]:
    """A fresh unfilled layout, its grid and calibrated weights."""
    if name == "smoke":
        layout = generate_layout(_SMOKE_SPEC)
        grid = WindowGrid(layout.die, *_SMOKE_WINDOWS)
        weights = calibrate_weights(layout, grid, *_SMOKE_BETAS)
        return layout, grid, weights
    bench = load_benchmark(name)
    return bench.fresh_layout(), bench.grid, bench.weights


def run_benchmark(
    name: str,
    *,
    config: Optional[FillConfig] = None,
    worst_k: int = 5,
) -> BenchRecord:
    """Run one named benchmark under full obs instrumentation.

    The engine runs inside :func:`repro.obs.record_run` (fresh tracer
    and metrics registry, RSS sampler thread), solution GDSII
    serialization included in the measured time as in the contest; the
    resulting :class:`BenchRecord` carries the Eqn. (3) score card
    computed with the run's own wall clock and peak RSS, and the stage
    clocks of the run's ``engine.run`` span.

    ``stream-smoke`` fills the ``smoke`` case through the out-of-core
    :func:`repro.core.stream_fill` path instead (bands > 1, so the
    spill path is exercised), so the trajectory gates the streamed
    stage clocks and peak RSS alongside the in-memory ones.  Scores
    are computed on the re-parsed streamed output — byte-identical to
    the in-memory result by construction, so quality metrics must match
    ``smoke`` exactly.
    """
    from .contest import CONTEST_ETA

    if config is None:
        config = FillConfig(eta=CONTEST_ETA)
    streamed = name == "stream-smoke"
    layout, grid, weights = _load_case("smoke" if streamed else name)
    config_dict: Dict[str, Any] = {
        **asdict(config),
        "windows": [grid.cols, grid.rows],
        "bench": name,
    }
    if streamed:
        raw = gdsii_bytes(layout)
        config_dict["bands"] = _STREAM_SMOKE_BANDS
    with obs.record_run(label=f"bench {name}") as recorder:
        if streamed:
            out = io.BytesIO()
            stream_fill(
                raw,
                out,
                layout.rules,
                cols=grid.cols,
                rows=grid.rows,
                config=config,
                weights=weights,
                bands=_STREAM_SMOKE_BANDS,
            )
            gds = out.getvalue()
        else:
            DummyFillEngine(config, weights=weights).run(layout, grid)
            with obs.span("io.write"):
                gds = gdsii_bytes(layout)
    if streamed:
        layout = layout_from_gdsii(gds, layout.rules)
    record = recorder.record
    assert record is not None
    seconds = float(record.summary["seconds"])
    peak = record.summary.get("peak_rss_mb")
    peak_mb = float(peak) if peak is not None else 0.0
    card = score_layout(
        layout,
        grid,
        weights,
        file_size=file_size_mb(len(gds)),
        runtime=seconds,
        memory=peak_mb,
    )
    return BenchRecord(
        bench=name,
        git_sha=record.meta.get("git_sha"),
        created_at=_utc_now(),
        config=config_dict,
        config_hash=_config_digest(config_dict),
        scores=card.as_row(),
        raw=asdict(card.raw),
        stage_seconds=record.stage_seconds("engine.run"),
        seconds=seconds,
        peak_rss_mb=peak_mb,
        num_fills=layout.num_fills,
        gds_bytes=len(gds),
        worst_windows=worst_windows(layout, grid, k=worst_k),
        label=record.label,
    )


# ----------------------------------------------------------------------
# trajectory files
# ----------------------------------------------------------------------
def trajectory_path(out_dir: Union[str, Path], name: str) -> Path:
    return Path(out_dir) / f"BENCH_{name}.json"


def load_trajectory(path: Union[str, Path]) -> List[BenchRecord]:
    """All records of one trajectory file, oldest first."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TrajectoryError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != "trajectory":
        raise TrajectoryError(f"{path}: not a benchmark trajectory file")
    if data.get("schema") != BENCH_SCHEMA_VERSION:
        raise TrajectoryError(
            f"{path}: unsupported trajectory schema {data.get('schema')!r}"
        )
    records = data.get("records")
    if not isinstance(records, list):
        raise TrajectoryError(f"{path}: missing records list")
    return [BenchRecord.from_dict(r) for r in records]


def _write_trajectory(
    path: Path, bench: str, records: Sequence[BenchRecord]
) -> None:
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "trajectory",
        "bench": bench,
        "records": [r.to_dict() for r in records],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def append_record(path: Union[str, Path], record: BenchRecord) -> int:
    """Append ``record`` to the trajectory at ``path``; returns its length."""
    path = Path(path)
    records = load_trajectory(path) if path.exists() else []
    records.append(record)
    _write_trajectory(path, record.bench, records)
    return len(records)


def prune_records(
    records: Sequence[BenchRecord], keep: int
) -> List[BenchRecord]:
    """Keep only the newest ``keep`` records *per config hash*.

    Trajectories grow one record per CI run; pruning caps their size
    without losing the per-configuration baselines the gate compares
    against — the newest record of every configuration ever measured
    survives, so ``repro bench gate --baseline`` keeps working after a
    config change.  Relative record order is preserved.
    """
    if keep < 1:
        raise TrajectoryError(f"--keep must be at least 1, got {keep}")
    seen: Dict[str, int] = {}
    keep_flags = [False] * len(records)
    for idx in range(len(records) - 1, -1, -1):
        digest = records[idx].config_hash
        if seen.get(digest, 0) < keep:
            seen[digest] = seen.get(digest, 0) + 1
            keep_flags[idx] = True
    return [r for r, kept in zip(records, keep_flags) if kept]


def prune_trajectory(path: Union[str, Path], keep: int) -> Tuple[int, int]:
    """Prune the trajectory file in place; returns ``(kept, removed)``."""
    path = Path(path)
    records = load_trajectory(path)
    pruned = prune_records(records, keep)
    removed = len(records) - len(pruned)
    if removed:
        bench = pruned[-1].bench if pruned else records[-1].bench
        _write_trajectory(path, bench, pruned)
    return len(pruned), removed


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
#: gated metrics: name -> (direction, default relative threshold).
#: ``higher`` metrics regress when they *drop* by more than the
#: threshold, ``lower`` metrics when they *grow*.  Wall clock and RSS
#: get generous thresholds — CI machines are noisy; the quality scores
#: are deterministic and gated tightly.
GATE_METRICS: Dict[str, Tuple[str, float]] = {
    "score": ("higher", 0.02),
    "quality": ("higher", 0.02),
    "overlay": ("higher", 0.05),
    "variation": ("higher", 0.05),
    "line": ("higher", 0.05),
    "outlier": ("higher", 0.05),
    "size": ("higher", 0.05),
    "seconds": ("lower", 0.50),
    "peak_rss_mb": ("lower", 0.50),
    "gds_bytes": ("lower", 0.10),
}

#: relative-change denominators are floored so near-zero baselines
#: (a 0.02 s smoke run, an RSS sample that caught nothing) do not
#: manufacture infinite regressions
_DENOM_FLOORS: Dict[str, float] = {
    "seconds": 0.5,
    "peak_rss_mb": 16.0,
    "gds_bytes": 4096.0,
}


#: floor for a stage's relative-change denominator: sub-10ms stages on
#: a smoke run would otherwise read as huge regressions from noise
_STAGE_DENOM_FLOOR = 0.05

#: prefix for per-stage threshold overrides (``--threshold stage.sizing=0.4``)
_STAGE_PREFIX = "stage."


@dataclass(frozen=True)
class StageDelta:
    """One ``stage_seconds`` entry compared across two records.

    This is the *attribution* half of the runtime gate: when the
    ``seconds`` metric regresses, the stage deltas say which engine
    stage (analysis, candidates, sizing, ...) the extra wall clock
    landed in.  A stage only *gates* (sets ``regressed``) when an
    explicit ``stage.<name>`` threshold was supplied.
    """

    stage: str
    baseline: float
    current: float
    #: absolute seconds added by this stage (positive = slower)
    delta: float
    #: relative change against the floored baseline
    change: float
    threshold: Optional[float]
    regressed: bool

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _stage_deltas(
    baseline: BenchRecord,
    current: BenchRecord,
    thresholds: Mapping[str, float],
) -> List[StageDelta]:
    names = sorted(set(baseline.stage_seconds) | set(current.stage_seconds))
    deltas: List[StageDelta] = []
    for name in names:
        base = float(baseline.stage_seconds.get(name, 0.0))
        cur = float(current.stage_seconds.get(name, 0.0))
        delta = cur - base
        change = delta / max(base, _STAGE_DENOM_FLOOR)
        threshold = thresholds.get(_STAGE_PREFIX + name)
        deltas.append(
            StageDelta(
                stage=name,
                baseline=base,
                current=cur,
                delta=delta,
                change=change,
                threshold=threshold,
                regressed=threshold is not None and change > threshold,
            )
        )
    deltas.sort(key=lambda d: d.delta, reverse=True)
    return deltas


@dataclass(frozen=True)
class MetricDelta:
    """One gated metric compared across two records."""

    metric: str
    direction: str
    baseline: float
    current: float
    #: relative change, signed so that positive means *degraded*
    change: float
    threshold: float
    regressed: bool

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class GateResult:
    """Outcome of gating one record against a baseline."""

    bench: str
    baseline_sha: Optional[str]
    current_sha: Optional[str]
    config_changed: bool
    deltas: List[MetricDelta]
    #: runtime attribution: stage_seconds compared entry by entry,
    #: largest absolute slowdown first
    stage_deltas: List[StageDelta] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(d.regressed for d in self.deltas) or any(
            d.regressed for d in self.stage_deltas
        )

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def stage_regressions(self) -> List[StageDelta]:
        return [d for d in self.stage_deltas if d.regressed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "kind": "gate",
            "bench": self.bench,
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "config_changed": self.config_changed,
            "regressed": self.regressed,
            "deltas": [d.to_dict() for d in self.deltas],
            "stage_deltas": [d.to_dict() for d in self.stage_deltas],
        }


def gate_records(
    baseline: BenchRecord,
    current: BenchRecord,
    thresholds: Optional[Mapping[str, float]] = None,
) -> GateResult:
    """Compare ``current`` against ``baseline`` metric by metric.

    ``thresholds`` overrides the default relative threshold of listed
    metrics (fractions: ``{"seconds": 0.25}`` allows +25%).  Keys of
    the form ``stage.<name>`` gate an individual ``stage_seconds``
    entry instead (``{"stage.sizing": 0.40}`` fails the gate when the
    sizing stage alone slows by more than 40%); without such a key the
    stage deltas are attribution only.  Records of different
    benchmarks are incomparable and raise :class:`TrajectoryError`;
    differing config hashes are allowed but flagged on the result.
    """
    if baseline.bench != current.bench:
        raise TrajectoryError(
            f"cannot gate benchmark {current.bench!r} against "
            f"baseline {baseline.bench!r}"
        )
    overrides = dict(thresholds or {})
    stage_names = set(baseline.stage_seconds) | set(current.stage_seconds)
    known_stage_keys = {_STAGE_PREFIX + name for name in stage_names}
    unknown = set(overrides) - set(GATE_METRICS) - known_stage_keys
    if unknown:
        raise TrajectoryError(
            f"unknown gate metric(s): {', '.join(sorted(unknown))}"
        )
    deltas: List[MetricDelta] = []
    for metric, (direction, default_threshold) in GATE_METRICS.items():
        threshold = float(overrides.get(metric, default_threshold))
        base = baseline.metric(metric)
        cur = current.metric(metric)
        denom = max(abs(base), _DENOM_FLOORS.get(metric, 1e-12))
        degraded = (base - cur) if direction == "higher" else (cur - base)
        change = degraded / denom
        deltas.append(
            MetricDelta(
                metric=metric,
                direction=direction,
                baseline=base,
                current=cur,
                change=change,
                threshold=threshold,
                regressed=change > threshold,
            )
        )
    return GateResult(
        bench=current.bench,
        baseline_sha=baseline.git_sha,
        current_sha=current.git_sha,
        config_changed=baseline.config_hash != current.config_hash,
        deltas=deltas,
        stage_deltas=_stage_deltas(baseline, current, overrides),
    )


def format_gate(result: GateResult) -> str:
    """Human-readable gate report (the text twin of ``to_dict``)."""
    lines = [
        f"bench gate: {result.bench}  "
        f"(baseline git {str(result.baseline_sha or '?')[:10]} -> "
        f"current git {str(result.current_sha or '?')[:10]})"
    ]
    if result.config_changed:
        lines.append(
            "warning: config hash changed between records — "
            "deltas compare different configurations"
        )
    header = (
        f"{'metric':<12}{'baseline':>12}{'current':>12}"
        f"{'change':>9}{'allowed':>9}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for d in result.deltas:
        worse = "-" if d.direction == "higher" else "+"
        lines.append(
            f"{d.metric:<12}{d.baseline:>12.4f}{d.current:>12.4f}"
            f"{d.change:>8.1%}{worse}{d.threshold:>8.0%}{worse}  "
            f"{'REGRESSED' if d.regressed else 'ok'}"
        )
    seconds_regressed = any(
        d.metric == "seconds" and d.regressed for d in result.deltas
    )
    gated_stages = [d for d in result.stage_deltas if d.threshold is not None]
    if result.stage_deltas and (
        seconds_regressed or gated_stages or result.stage_regressions
    ):
        lines.append("runtime attribution (stage_seconds, slowest-growing first):")
        for d in result.stage_deltas:
            allowed = f"{d.threshold:>7.0%}+" if d.threshold is not None else "       -"
            status = "REGRESSED" if d.regressed else "ok"
            lines.append(
                f"  {d.stage:<12}{d.baseline:>10.4f}{d.current:>10.4f}"
                f"{d.delta:>+9.4f}s{d.change:>8.1%}{allowed}  {status}"
            )
    regressed_names = [d.metric for d in result.regressions] + [
        _STAGE_PREFIX + d.stage for d in result.stage_regressions
    ]
    verdict = (
        f"REGRESSION: {', '.join(regressed_names)}"
        if result.regressed
        else "ok: no metric degraded past its threshold"
    )
    lines.append(verdict)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# table artifacts (the bench_*.py reproduction tables)
# ----------------------------------------------------------------------
_WIDTH_RE = re.compile(r"[<>^=]?(\d+)")


@dataclass(frozen=True)
class Column:
    """One column of a :class:`TableArtifact`: key, format, header."""

    key: str
    fmt: str = ">12"
    header: Optional[str] = None

    @property
    def title(self) -> str:
        return self.header if self.header is not None else self.key

    @property
    def align(self) -> str:
        return self.fmt[0] if self.fmt[:1] in ("<", ">", "^") else ">"

    @property
    def width(self) -> int:
        match = _WIDTH_RE.match(self.fmt)
        width = int(match.group(1)) if match and match.group(1) else 0
        return max(width, len(self.title) + 1)


@dataclass
class TableArtifact:
    """A reproduction table as data: rows first, text second.

    Every ``benchmarks/bench_*.py`` report builds one of these; the
    committed ``results/<name>.txt`` is :meth:`render` and the
    machine-readable ``results/BENCH_<name>.json`` is :meth:`to_dict`
    — the text table is a *rendering* of the record, never a separate
    code path.
    """

    name: str
    columns: Sequence[Column]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def _cell(self, value: Any, col: Column) -> str:
        if value is None:
            return format("-", f"{col.align}{col.width}")
        try:
            return format(value, col.fmt)
        except (TypeError, ValueError):
            return format(str(value), f"{col.align}{col.width}")

    def render(self) -> str:
        lines: List[str] = []
        if self.columns:
            header = "".join(
                format(c.title, f"{c.align}{c.width}") for c in self.columns
            )
            lines += [header, "-" * len(header)]
            for row in self.rows:
                lines.append(
                    "".join(self._cell(row.get(c.key), c) for c in self.columns)
                )
        if self.notes:
            if lines:
                lines.append("")
            lines.extend(self.notes)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "kind": "table",
            "name": self.name,
            "git_sha": _git_sha(),
            "created_at": _utc_now(),
            "columns": [
                {"key": c.key, "header": c.title} for c in self.columns
            ],
            "rows": self.rows,
            "notes": self.notes,
        }

    def write(self, results_dir: Union[str, Path]) -> Path:
        """Persist the JSON record; returns its path."""
        path = Path(results_dir) / f"BENCH_{self.name}.json"
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path
