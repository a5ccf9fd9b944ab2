"""Export run records to external trace viewers.

:func:`chrome_trace` converts a :class:`~repro.obs.record.RunRecord`
into the Chrome ``trace_event`` JSON format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Every span becomes
a complete ("X") event; ``start_offset`` and ``seconds`` map to the
microsecond ``ts``/``dur`` fields, and the span's counters and
attributes ride along under ``args`` so the viewer's selection panel
shows them.

Run records store a *flat pre-order* span list with a ``depth`` per
span — concurrency is implicit (requests served on separate
connections become sibling roots that overlap in time).  The exporter
reconstructs lanes: root spans are greedily packed onto synthetic
"tracks" (one ``tid`` per track) so overlapping requests render side
by side while sequential stages share a row, exactly how a flame
chart should read.

:func:`folded_stacks` exports the same record in the folded-stack
format flamegraph.pl consumes (``outer;inner;leaf count`` lines).
When the record carries a sampling-profiler payload (a ``profile``
event) those exact sample counts are used; otherwise the stacks are
synthesized from the span tree's *self time* (each span's seconds
minus its direct children's), so any saved run record — profiled or
not — renders as a flamegraph.

CLI: ``repro trace export RECORD.jsonl --format chrome|folded -o out``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .record import RunRecord

__all__ = ["chrome_trace", "chrome_trace_json", "folded_stacks"]

_PID = 1


def _lane_assignment(roots: List[Dict[str, Any]]) -> List[int]:
    """Pack root spans onto the fewest lanes with no overlap per lane.

    Roots are processed in record order (already sorted by start for a
    single tracer; re-sorting would break ties nondeterministically
    for adopted subtrees).  Each root goes to the first lane whose
    previous occupant ended before it starts.
    """
    lane_free_at: List[float] = []
    lanes: List[int] = []
    for root in roots:
        start = float(root.get("start_offset", 0.0))
        end = start + float(root.get("seconds", 0.0))
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= start + 1e-12:
                lane_free_at[lane] = end
                lanes.append(lane)
                break
        else:
            lane_free_at.append(end)
            lanes.append(len(lane_free_at) - 1)
    return lanes


def chrome_trace(record: RunRecord) -> Dict[str, Any]:
    """The record as a Chrome ``trace_event`` JSON object (dict form)."""
    # group the flat span list into root subtrees
    subtrees: List[List[Dict[str, Any]]] = []
    for span in record.spans:
        if int(span.get("depth", 0)) == 0:
            subtrees.append([span])
        elif subtrees:
            subtrees[-1].append(span)
    lanes = _lane_assignment([tree[0] for tree in subtrees])

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": record.label},
        }
    ]
    for lane in sorted(set(lanes)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": lane,
                "args": {"name": f"track {lane}"},
            }
        )
    for tree, lane in zip(subtrees, lanes):
        for span in tree:
            args: Dict[str, Any] = {}
            if span.get("attrs"):
                args.update(span["attrs"])
            if span.get("counters"):
                args.update(span["counters"])
            if span.get("status") not in (None, "ok"):
                args["status"] = span["status"]
                if span.get("error"):
                    args["error"] = span["error"]
            event: Dict[str, Any] = {
                "name": str(span["name"]),
                "ph": "X",
                "pid": _PID,
                "tid": lane,
                "ts": round(float(span.get("start_offset", 0.0)) * 1e6, 3),
                "dur": round(float(span["seconds"]) * 1e6, 3),
                "cat": "span",
            }
            if args:
                event["args"] = args
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": record.label,
            "git_sha": record.meta.get("git_sha"),
            "total_seconds": record.summary.get("seconds"),
        },
    }


def chrome_trace_json(record: RunRecord) -> str:
    """:func:`chrome_trace` serialized to a compact JSON string."""
    return json.dumps(chrome_trace(record), sort_keys=True)


def _folded_from_spans(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Folded stacks from the span tree, weighted by self time in µs.

    Each span contributes one stack (its ancestor path joined with
    ``;``) weighted by its wall time minus its direct children's — the
    flamegraph then shows exactly the tree `trace summarize` prints,
    with frame widths matching the stage-seconds table.  Weights are
    clamped to ≥1 µs so zero-self-time parents stay visible.
    """
    folded: Dict[str, int] = {}
    path: List[Dict[str, Any]] = []  # open ancestor spans, by depth
    self_seconds: Dict[int, float] = {}  # id(span dict) -> running self time

    def flush(span: Dict[str, Any], ancestors: List[Dict[str, Any]]) -> None:
        stack = ";".join([a["name"] for a in ancestors] + [str(span["name"])])
        micros = max(1, int(round(self_seconds[id(span)] * 1e6)))
        folded[stack] = folded.get(stack, 0) + micros

    for span in spans:
        depth = int(span.get("depth", 0))
        while len(path) > depth:
            done = path.pop()
            flush(done, path)
        if path:
            parent = path[-1]
            self_seconds[id(parent)] -= float(span["seconds"])
        self_seconds[id(span)] = float(span["seconds"])
        path.append(span)
    while path:
        done = path.pop()
        flush(done, path)
    return folded


def folded_stacks(record: RunRecord) -> str:
    """The record as flamegraph.pl folded-stack lines.

    Prefers the record's sampling-profiler counts; falls back to
    span-tree self-time weights for unprofiled records.  Lines are
    sorted by stack path, each ``"<f1>;<f2>;...;<leaf> <count>"``.
    """
    if record.profile is not None and record.profile.get("folded"):
        folded = {str(k): int(v) for k, v in record.profile["folded"].items()}
    else:
        folded = _folded_from_spans(record.spans)
    lines = [f"{stack} {count}" for stack, count in sorted(folded.items())]
    return "\n".join(lines) + "\n" if lines else ""
