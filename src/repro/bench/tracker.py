"""BENCH records of what a fill decides, and the base-vs-head gate.

Eqn. (3) sums five quality components that are pure functions of the
output file (overlay, σ, line and outlier hotspots, file size) and two
that depend on the host (runtime, memory).  This module records and
gates only the first kind, so its gate needs no threshold:

* :func:`run_benchmark` fills one named benchmark and distils it into a
  schema-versioned :class:`BenchRecord`: git sha, config hash, the
  deterministic :class:`~repro.density.scoring.ScoreCard` components
  and their raw inputs, fill count, GDSII bytes, and the K worst
  windows by density deviation and by overlay contribution
  (:func:`repro.density.scoring.worst_windows`).  Two records of one
  commit differ only in ``created_at``.
* :func:`write_record` / :func:`load_records` keep one
  ``BENCH_<name>.json`` per benchmark in a directory.
* :func:`gate_dirs` pairs a base and a head directory's records by name
  and flags every :data:`GATE_METRICS` value the head made worse, by
  any amount; ``repro bench gate`` turns that into an exit code for CI.
* :class:`TableArtifact` is the structured form of every
  ``benchmarks/bench_*.py`` reproduction table: the ``results/*.txt``
  files are its :meth:`~TableArtifact.render` output and the
  ``results/BENCH_*.json`` files its :meth:`~TableArtifact.to_dict`
  output — one record, two renderings.

Runtime and memory verdicts need medians and spread over repeats, so
they come from the performance ledger (``python -m ledger``), not from
here.  See ``docs/OBSERVABILITY.md`` ("BENCH records") for the schema.
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

from ..core import DummyFillEngine, FillConfig, stream_fill
from ..density.scoring import score_layout, worst_windows
from ..gdsii import file_size_mb, gdsii_bytes, layout_from_gdsii
from ..layout import Layout, WindowGrid
from ..obs.record import _git_sha
from .generator import LayoutSpec, generate_layout
from .suite import DEFAULT_BETAS, SUITE_SPECS, calibrate_weights, load_benchmark

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecordError",
    "BenchRecord",
    "SCORE_KEYS",
    "RAW_KEYS",
    "BENCH_SETS",
    "run_benchmark",
    "write_record",
    "load_records",
    "GATE_METRICS",
    "MetricDelta",
    "GateResult",
    "gate_records",
    "gate_dirs",
    "format_gate",
    "Column",
    "TableArtifact",
]

#: version of the BENCH_*.json record layout; bump on breaking change
BENCH_SCHEMA_VERSION = 2

#: version of the :class:`TableArtifact` JSON layout, versioned apart
#: from the BENCH record
_TABLE_SCHEMA_VERSION = 1

#: the deterministic Eqn. (3) components a record keeps, each in
#: [0, 1]: the five quality terms and their weighted sum
SCORE_KEYS: Tuple[str, ...] = (
    "overlay",
    "variation",
    "line",
    "outlier",
    "size",
    "quality",
)

#: the raw (unnormalised) Eqn. (4) inputs of those components
RAW_KEYS: Tuple[str, ...] = ("overlay", "variation", "line", "outlier", "file_size")


class BenchRecordError(ValueError):
    """A BENCH record is unreadable, or two records are incomparable."""


# ----------------------------------------------------------------------
# the record
# ----------------------------------------------------------------------
@dataclass
class BenchRecord:
    """One benchmark fill, distilled to the values the fill decides."""

    bench: str
    git_sha: Optional[str]
    created_at: str
    config: Dict[str, Any]
    config_hash: str
    #: the :data:`SCORE_KEYS` components of the fill's ScoreCard
    scores: Dict[str, float]
    #: the :data:`RAW_KEYS` inputs behind those scores
    raw: Dict[str, float]
    num_fills: int
    gds_bytes: int
    #: K worst windows by density deviation / overlay contribution
    worst_windows: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["schema"] = BENCH_SCHEMA_VERSION
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "BenchRecord":
        if not isinstance(data, Mapping):
            raise BenchRecordError("a BENCH record is a JSON object")
        payload = dict(data)
        schema = payload.pop("schema", None)
        if schema != BENCH_SCHEMA_VERSION:
            raise BenchRecordError(
                f"unsupported BENCH record schema {schema!r} "
                f"(expected {BENCH_SCHEMA_VERSION})"
            )
        try:
            record = cls(**payload)
        except TypeError as exc:
            raise BenchRecordError(f"malformed BENCH record: {exc}") from exc
        missing = [f"scores.{k}" for k in SCORE_KEYS if k not in record.scores]
        missing += [f"raw.{k}" for k in RAW_KEYS if k not in record.raw]
        if missing:
            raise BenchRecordError(
                f"malformed BENCH record: missing {', '.join(missing)}"
            )
        return record


def _config_digest(config: Mapping[str, Any]) -> str:
    """Stable short hash of a benchmark configuration dict."""
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ----------------------------------------------------------------------
# named benchmarks and sets
# ----------------------------------------------------------------------
#: tiny generated layout for CI: seconds, not minutes.  It shares die,
#: seed and cell-rect count with CI's `repro generate demo.gds --die
#: 1600 --wires 120 --seed 7` but not its wires: the CLI keeps
#: LayoutSpec's 4 bus bundles and 2 macros (546 wires), this spec sets
#: 1 and 1 (459 wires).  The ledger's smoke scale copies this spec.
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
#: bands for the streaming smoke case — >1 so the spill path is exercised
_STREAM_SMOKE_BANDS = 2

#: named benchmark sets `repro bench run --set <name>` executes
BENCH_SETS: Dict[str, Tuple[str, ...]] = {
    "smoke": ("smoke", "stream-smoke"),
    "s": ("s",),
    "suite": ("s", "b"),
    "full": ("s", "b", "m"),
}


def _load_case(name: str) -> Tuple[Layout, WindowGrid, Any]:
    """A fresh unfilled layout, its grid and calibrated weights."""
    if name == "smoke":
        layout = generate_layout(_SMOKE_SPEC)
        grid = WindowGrid(layout.die, *_SMOKE_WINDOWS)
        weights = calibrate_weights(layout, grid, *DEFAULT_BETAS)
        return layout, grid, weights
    bench = load_benchmark(name)
    return bench.fresh_layout(), bench.grid, bench.weights


def run_benchmark(name: str, *, worst_k: int = 5) -> BenchRecord:
    """Fill one named benchmark and record what the fill decided.

    The engine runs with the contest configuration, and the record
    carries the Eqn. (3) score card of the written GDSII.  Nothing is
    timed: runtime and memory are the ledger's to measure.

    ``stream-smoke`` fills the ``smoke`` case through the out-of-core
    :func:`repro.core.stream_fill` path instead (bands > 1, so the
    spill path is exercised) and scores the re-parsed output.  Streamed
    output is byte-identical to the in-memory result by construction,
    so every gated value must match ``smoke`` exactly.
    """
    from .contest import CONTEST_ETA

    config = FillConfig(eta=CONTEST_ETA)
    streamed = name == "stream-smoke"
    layout, grid, weights = _load_case("smoke" if streamed else name)
    config_dict: Dict[str, Any] = {
        **asdict(config),
        "windows": [grid.cols, grid.rows],
        "bench": name,
    }
    if streamed:
        config_dict["bands"] = _STREAM_SMOKE_BANDS
        out = io.BytesIO()
        stream_fill(
            gdsii_bytes(layout),
            out,
            layout.rules,
            cols=grid.cols,
            rows=grid.rows,
            config=config,
            weights=weights,
            bands=_STREAM_SMOKE_BANDS,
        )
        gds = out.getvalue()
        layout = layout_from_gdsii(gds, layout.rules)
    else:
        DummyFillEngine(config, weights=weights).run(layout, grid)
        gds = gdsii_bytes(layout)
    card = score_layout(layout, grid, weights, file_size=file_size_mb(len(gds)))
    row = card.as_row()
    return BenchRecord(
        bench=name,
        git_sha=_git_sha(),
        created_at=_utc_now(),
        config=config_dict,
        config_hash=_config_digest(config_dict),
        scores={key: row[key] for key in SCORE_KEYS},
        raw={key: getattr(card.raw, key) for key in RAW_KEYS},
        num_fills=layout.num_fills,
        gds_bytes=len(gds),
        worst_windows=worst_windows(card.maps, k=worst_k),
    )


# ----------------------------------------------------------------------
# record files
# ----------------------------------------------------------------------
_PREFIX = "BENCH_"


def _write_json(path: Path, payload: Mapping[str, Any]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def write_record(out_dir: Union[str, Path], record: BenchRecord) -> Path:
    """Write ``record`` to ``out_dir/BENCH_<bench>.json``; returns the path."""
    return _write_json(
        Path(out_dir) / f"{_PREFIX}{record.bench}.json", record.to_dict()
    )


def load_records(directory: Union[str, Path]) -> Dict[str, BenchRecord]:
    """Every ``BENCH_<name>.json`` record in ``directory``, keyed by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise BenchRecordError(f"{directory}: no such directory")
    records: Dict[str, BenchRecord] = {}
    for path in sorted(directory.glob(f"{_PREFIX}*.json")):
        try:
            records[path.stem[len(_PREFIX):]] = BenchRecord.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except json.JSONDecodeError as exc:
            raise BenchRecordError(f"{path}: not JSON: {exc}") from exc
        except BenchRecordError as exc:
            raise BenchRecordError(f"{path}: {exc}") from exc
    if not records:
        raise BenchRecordError(f"{directory}: no {_PREFIX}*.json records")
    return records


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
#: every gated value and the direction that is better: the scores, their
#: raw inputs (``raw.*``) and the output's exact size.  All are pure
#: functions of the output file, so the gate has no threshold.
GATE_METRICS: Dict[str, str] = {
    **{key: "higher" for key in SCORE_KEYS},
    **{f"raw.{key}": "lower" for key in RAW_KEYS},
    "gds_bytes": "lower",
}


def _gated_values(record: BenchRecord) -> Dict[str, float]:
    values = {key: record.scores[key] for key in SCORE_KEYS}
    values.update({f"raw.{key}": record.raw[key] for key in RAW_KEYS})
    values["gds_bytes"] = record.gds_bytes
    return values


@dataclass(frozen=True)
class MetricDelta:
    """One gated value compared across a base and a head record."""

    metric: str
    #: ``higher`` or ``lower``: the direction that is better
    better: str
    base: float
    head: float
    worse: bool


@dataclass
class GateResult:
    """One benchmark's head record gated against its base record."""

    bench: str
    base_sha: Optional[str]
    head_sha: Optional[str]
    config_changed: bool
    deltas: List[MetricDelta]

    @property
    def regressed(self) -> bool:
        return any(d.worse for d in self.deltas)

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "regressed": self.regressed}


def gate_records(base: BenchRecord, head: BenchRecord) -> GateResult:
    """Compare ``head`` against ``base`` on every :data:`GATE_METRICS` value.

    A value fails when the head moved it the wrong way by any amount.
    Records of different benchmarks are incomparable and raise
    :class:`BenchRecordError`; differing config hashes are allowed but
    flagged on the result.
    """
    if base.bench != head.bench:
        raise BenchRecordError(
            f"cannot gate benchmark {head.bench!r} against base {base.bench!r}"
        )
    base_values, head_values = _gated_values(base), _gated_values(head)
    deltas: List[MetricDelta] = []
    for metric, better in GATE_METRICS.items():
        b, h = base_values[metric], head_values[metric]
        worse = h < b if better == "higher" else h > b
        deltas.append(MetricDelta(metric, better, b, h, worse))
    return GateResult(
        bench=head.bench,
        base_sha=base.git_sha,
        head_sha=head.git_sha,
        config_changed=base.config_hash != head.config_hash,
        deltas=deltas,
    )


def gate_dirs(
    base_dir: Union[str, Path], head_dir: Union[str, Path]
) -> List[GateResult]:
    """Gate every head record against the base record of the same name.

    Both directories must hold the same set of records: a benchmark on
    one side only would go ungated, so it raises
    :class:`BenchRecordError` instead.
    """
    base, head = load_records(base_dir), load_records(head_dir)
    if set(base) != set(head):
        raise BenchRecordError(
            f"record sets differ: {base_dir} has {sorted(base)}, "
            f"{head_dir} has {sorted(head)}"
        )
    return [gate_records(base[name], head[name]) for name in sorted(base)]


def format_gate(result: GateResult) -> str:
    """Human-readable gate report (the text twin of ``to_dict``)."""
    lines = [
        f"bench gate: {result.bench}  "
        f"(base git {str(result.base_sha or '?')[:10]} -> "
        f"head git {str(result.head_sha or '?')[:10]})"
    ]
    if result.config_changed:
        lines.append("note: config hash differs between base and head")
    header = f"{'value':<16}{'base':>24}{'head':>24}  status"
    lines += [header, "-" * len(header)]
    for d in result.deltas:
        status = "WORSE" if d.worse else "same" if d.head == d.base else "better"
        lines.append(f"{d.metric:<16}{d.base!r:>24}{d.head!r:>24}  {status}")
    worse = [d.metric for d in result.deltas if d.worse]
    lines.append(
        f"REGRESSION: {', '.join(worse)}" if worse else "ok: no value worse than base"
    )
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
            "schema": _TABLE_SCHEMA_VERSION,
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
        return _write_json(
            Path(results_dir) / f"{_PREFIX}{self.name}.json", self.to_dict()
        )
