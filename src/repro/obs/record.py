"""Run records: one JSONL event stream + summary per measured run.

A *run record* is the durable artifact of one observed run: what ran
(git sha, argv, user metadata), the span tree with per-stage wall
times and counters, a snapshot of every metric, and a summary line
with total seconds and peak RSS.  Records are written as JSONL — one
self-describing event per line — so they stream, concatenate, and
grep well:

    {"event": "meta",    "schema": 1, "git_sha": ..., "argv": [...]}
    {"event": "span",    "name": "engine.run", "depth": 0, "seconds": ...}
    {"event": "span",    "name": "analysis",   "depth": 1, "seconds": ...}
    ...
    {"event": "metrics", "metrics": {"sizing.lp_solves": {...}, ...}}
    {"event": "profile", "period_ms": 10.0, "samples": 412, "folded": {...}}
    {"event": "summary", "seconds": ..., "peak_rss_mb": ..., "status": "ok"}

(The ``profile`` event only appears when a sampling profiler ran —
see :mod:`repro.obs.profile`.)

:func:`record_run` wraps a region of code: it installs a fresh span
tracer and metrics registry (so the record describes exactly this
run), optionally starts the RSS sampler thread, and on exit emits the
record — to ``path`` when given, and always onto the returned
:class:`RunRecorder` for in-process consumption.  :func:`read_record`
parses a record back; ``python -m repro.obs`` renders and diffs them.

:func:`measure` is the lightweight sibling for benchmark harnesses
that only need wall time + peak memory of a region without a full
event stream (see :mod:`repro.bench.contest`).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from .metrics import MetricsRegistry, set_registry
from .rss import PeakRssSampler
from .spans import Span, Tracer, set_tracer

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "RunRecorder",
    "RecordError",
    "record_run",
    "read_record",
    "Measurement",
    "measure",
]

SCHEMA_VERSION = 1


class RecordError(ValueError):
    """A run-record file is malformed or uses an unknown schema."""


@dataclass
class RunRecord:
    """Parsed (or freshly captured) contents of one run record."""

    meta: Dict[str, Any] = field(default_factory=dict)
    #: flat pre-order span list; nesting encoded by each dict's "depth"
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)
    #: optional sampling-profiler payload ({"period_ms", "samples",
    #: "folded"}); absent on unprofiled runs — readers must tolerate None
    profile: Optional[Dict[str, Any]] = None

    @property
    def label(self) -> str:
        return str(self.meta.get("label", "run"))

    def stage_seconds(self, parent: Optional[str] = None) -> Dict[str, float]:
        """Seconds of the direct children of ``parent`` (roots if None).

        With ``parent`` given, returns the children of the first span
        of that name — e.g. ``stage_seconds("engine.run")`` recovers
        the engine's five-stage timing table.
        """
        if parent is None:
            return {
                s["name"]: float(s["seconds"])
                for s in self.spans
                if s.get("depth", 0) == 0
            }
        out: Dict[str, float] = {}
        parent_depth: Optional[int] = None
        for s in self.spans:
            depth = int(s.get("depth", 0))
            if parent_depth is None:
                if s["name"] == parent:
                    parent_depth = depth
                continue
            if depth <= parent_depth:
                break  # left the parent's subtree
            if depth == parent_depth + 1:
                out[s["name"]] = out.get(s["name"], 0.0) + float(s["seconds"])
        return out

    def to_events(self) -> List[Dict[str, Any]]:
        """The record as its JSONL event list."""
        events: List[Dict[str, Any]] = [
            {"event": "meta", "schema": SCHEMA_VERSION, **self.meta}
        ]
        for s in self.spans:
            events.append({"event": "span", **s})
        events.append({"event": "metrics", "metrics": self.metrics})
        if self.profile is not None:
            events.append({"event": "profile", **self.profile})
        events.append({"event": "summary", **self.summary})
        return events

    def write_jsonl(self, path: Union[str, Path]) -> None:
        lines = [json.dumps(e, sort_keys=True) for e in self.to_events()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _flatten(roots: List[Span]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for root in roots:
        for depth, sp in root.walk():
            out.append(sp.as_dict(depth))
    return out


class RunRecorder:
    """Handle yielded by :func:`record_run`.

    During the run it exposes the dedicated :attr:`tracer` and
    :attr:`registry`; after the ``with`` block exits, :attr:`record`
    holds the finished :class:`RunRecord` (also written to
    :attr:`path` when one was given).
    """

    def __init__(
        self,
        path: Optional[Path],
        tracer: Tracer,
        registry: MetricsRegistry,
    ):
        self.path = path
        self.tracer = tracer
        self.registry = registry
        self.record: Optional[RunRecord] = None


@contextmanager
def record_run(
    path: Optional[Union[str, Path]] = None,
    *,
    label: str = "run",
    meta: Optional[Dict[str, Any]] = None,
    sample_rss: bool = True,
) -> Iterator[RunRecorder]:
    """Record every span and metric emitted inside the block.

    Installs a fresh tracer and metrics registry for the duration (so
    concurrent or earlier runs do not leak into the record), samples
    peak RSS on a background thread unless ``sample_rss`` is false,
    and emits the record on exit — even when the block raises, in
    which case the summary is tagged with the exception type before
    the exception propagates.
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    recorder = RunRecorder(Path(path) if path is not None else None, tracer, registry)
    restore_tracer = set_tracer(tracer)
    restore_registry = set_registry(registry)
    sampler = PeakRssSampler() if sample_rss else None
    start = time.perf_counter()
    status = "ok"
    error: Optional[str] = None
    if sampler is not None:
        sampler.__enter__()
    try:
        yield recorder
    except BaseException as exc:
        status = "error"
        error = type(exc).__name__
        raise
    finally:
        seconds = time.perf_counter() - start
        if sampler is not None:
            sampler.__exit__()
        restore_registry()
        restore_tracer()
        spans = _flatten(tracer.roots)
        summary: Dict[str, Any] = {
            "status": status,
            "seconds": seconds,
            "peak_rss_mb": sampler.peak_mb if sampler is not None else None,
            "num_spans": len(spans),
        }
        if error is not None:
            summary["error"] = error
        record = RunRecord(
            meta={
                "label": label,
                "git_sha": _git_sha(),
                "argv": list(sys.argv),
                "python": sys.version.split()[0],
                **(meta or {}),
            },
            spans=spans,
            metrics=registry.snapshot(),
            summary=summary,
            profile=getattr(tracer, "profile", None),
        )
        recorder.record = record
        if recorder.path is not None:
            record.write_jsonl(recorder.path)


def read_record(path: Union[str, Path]) -> RunRecord:
    """Parse a JSONL run record back into a :class:`RunRecord`."""
    record = RunRecord()
    saw_meta = saw_summary = False
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if not isinstance(event, dict) or "event" not in event:
            raise RecordError(f"{path}:{lineno}: missing 'event' field")
        kind = event.pop("event")
        if kind == "meta":
            schema = event.pop("schema", None)
            if schema != SCHEMA_VERSION:
                raise RecordError(
                    f"{path}:{lineno}: unsupported schema {schema!r} "
                    f"(expected {SCHEMA_VERSION})"
                )
            record.meta = event
            saw_meta = True
        elif kind == "span":
            if "name" not in event or "seconds" not in event:
                raise RecordError(f"{path}:{lineno}: span missing name/seconds")
            record.spans.append(event)
        elif kind == "metrics":
            record.metrics = event.get("metrics", {})
        elif kind == "profile":
            record.profile = event
        elif kind == "summary":
            record.summary = event
            saw_summary = True
        else:
            raise RecordError(f"{path}:{lineno}: unknown event {kind!r}")
    if not saw_meta or not saw_summary:
        raise RecordError(f"{path}: truncated record (missing meta or summary)")
    return record


@dataclass
class Measurement:
    """Wall time + peak memory of one :func:`measure` block."""

    seconds: float = 0.0
    peak_rss_mb: float = 0.0


@contextmanager
def measure(*, sample_rss: bool = True) -> Iterator[Measurement]:
    """Measure a region's wall time and peak memory, sans event stream.

    ``sample_rss`` polls the working set on a background thread
    (cheap, default).  The yielded :class:`Measurement` is filled in on
    exit.
    """
    result = Measurement()
    sampler = PeakRssSampler() if sample_rss else None
    start = time.perf_counter()
    try:
        if sampler is not None:
            with sampler:
                yield result
        else:
            yield result
    finally:
        result.seconds = time.perf_counter() - start
        if sampler is not None:
            result.peak_rss_mb = sampler.peak_mb
