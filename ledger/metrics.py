"""Metric definitions, medians with quartiles, and the compare verdicts.

Everything here is plain arithmetic over the records the children
return; the clock readings were taken by the ledger itself
(``time.perf_counter``, ``resource.getrusage``), never by ``repro.obs``.
A timing metric's value is in reference-host time (``norm_s``, see
:mod:`ledger.host`); its ``wall`` is the same summary of the plain
wall-clock samples.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ledger import ROOT

#: every end-to-end metric of ``run``: name -> (unit, better, bound).
#: ``compare`` judges with these bounds.  Two records of one commit have
#: one seed, so their deterministic metrics must match exactly.  The
#: bounds in BENCHMARK.json are wider: they hold short ``bench`` runs at
#: ten different seeds, whose inputs differ, taken minutes apart on a
#: host whose speed drifts (ledger/README.md).  BENCHMARK.json lists the metrics that
#: ``bench`` reports on every workload; the others exist only on some.
E2E_METRICS: Dict[str, tuple] = {
    "latency_p50_ms": ("ms", "lower", 0.10),
    "latency_p90_ms": ("ms", "lower", 0.10),
    "cycle_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "out_mb": ("MB", "lower", 0.0),
    "setup_s": ("s", "lower", 0.10),
    "drc_p50_ms": ("ms", "lower", 0.10),
    "score_p50_ms": ("ms", "lower", 0.10),
    "quality": ("score", "higher", 0.0),
    "fail_ratio": ("ratio", "lower", 0.0),
}

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def _p90(samples: Sequence[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def summarize(
    runs: Sequence[Sequence[float]], stat: Callable[[Sequence[float]], float] = statistics.median
) -> Dict[str, Any]:
    """``stat`` over every sample pooled, with run-to-run quartiles.

    ``runs`` holds each run's samples (a run is one child: one ledger
    round).  The value is ``stat`` of all samples; ``q1``/``q3`` are the
    quartiles (``statistics.quantiles``, n=4) of ``stat`` per run, the
    spread that decides whether two records can be told apart.
    """
    pooled = [float(v) for run in runs for v in run]
    per_run = sorted(stat(run) for run in runs if run)
    q1, _, q3 = statistics.quantiles(per_run, n=4) if len(per_run) > 1 else (per_run[0],) * 3
    return {"value": stat(pooled), "q1": q1, "q3": q3, "n": len(pooled), "runs": per_run}


# ----------------------------------------------------------------------
# end-to-end metrics of one workload
# ----------------------------------------------------------------------
def _ok(op: Mapping[str, Any]) -> bool:
    return op.get("error") is None


def _clean(cycle: Mapping[str, Any]) -> bool:
    return all(_ok(op) for op in cycle["ops"])


def primary_op(kind: str) -> str:
    """The op whose latency is ``latency_p50_ms``."""
    return {"fill": "fill", "stream": "stream", "service": "eco_delta"}[kind]


def end_to_end(
    kind: str,
    children: Sequence[Mapping[str, Any]],
    setups: Sequence[Sequence[Mapping[str, Any]]],
    quality: Optional[float] = None,
) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric of one workload from its children.

    ``children`` ran cycles, one child per run (their ops already carry
    the parent's failure verdicts); ``setups`` are each run's children
    whose set-up times count.  Failed ops are counted in ``fail_ratio``
    and left out of every timing sample; a cycle with a failed op is
    left out of ``cycle_s``.
    """
    ops = [[op for cy in c["cycles"] for op in cy["ops"]] for c in children]
    clean = [[cy for cy in c["cycles"] if _clean(cy)] for c in children]

    def latencies(name: str, key: str = "norm_s") -> List[List[float]]:
        return [[op[key] * 1000.0 for op in run if op["op"] == name and _ok(op)] for run in ops]

    out: Dict[str, Dict[str, Any]] = {}

    def put(
        name: str,
        runs: Sequence[Sequence[float]],
        wall: Optional[Sequence[Sequence[float]]] = None,
        stat: Any = statistics.median,
    ) -> None:
        if any(runs):
            unit, better, _ = E2E_METRICS[name]
            out[name] = {"unit": unit, "better": better, **summarize(runs, stat)}
            if wall is not None:
                out[name]["wall"] = summarize(wall, stat)

    def timing(name: str, op: str, stat: Any = statistics.median) -> None:
        put(name, latencies(op), latencies(op, "s"), stat)

    primary = primary_op(kind)
    timing("latency_p50_ms", primary)
    if sum(map(len, latencies(primary))) * 0.1 >= TAIL_SAMPLES:
        timing("latency_p90_ms", primary, _p90)
    put(
        "cycle_s",
        [[cy["norm_s"] for cy in run] for run in clean],
        [[cy["t1"] - cy["t0"] for cy in run] for run in clean],
    )
    put("peak_rss_mb", [[c["rss_mb"]] for c in children])
    put("out_mb", [[run[0]["out_bytes"] / 1e6] for run in clean if run])
    put(
        "setup_s",
        [[s["setup_s"] for s in run] for run in setups],
        [[s["setup_wall_s"] for s in run] for run in setups],
    )
    if kind == "service":
        timing("drc_p50_ms", "drc_audit")
        timing("score_p50_ms", "score")
    if quality is not None:
        put("quality", [[quality]])
    # the mean of per-op failure flags: failed ops / attempted ops
    put("fail_ratio", [[float(not _ok(op)) for op in run] for run in ops], stat=statistics.fmean)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_values(cycle: Mapping[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of one cycle: totals per cycle, 0 where the
    workload bypasses the layer."""
    spans = cycle.get("spans", {})

    def get(layer: str, key: str = "self_s") -> float:
        return float(spans.get(layer, {}).get(key, 0.0))

    def rate(nbytes: float, seconds: float) -> float:
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    read_s = get("gdsii.read")
    write_s = get("gdsii.write") + get("service.encode")
    candidates = get("candidates.generate", "candidates")
    solves = get("netflow.solve", "calls")
    stream = cycle.get("stream") or {}
    stages = stream.get("stages", {})
    requests = [op for op in cycle["ops"] if "s" in op] if "queue_wait" in cycle else []
    wait_sum, wait_count = cycle.get("queue_wait", (0.0, 0.0))
    wrapped = sum(acc["self_s"] for acc in spans.values())
    return {
        "gdsii.read_s": read_s,
        "gdsii.read_mb_s": rate(get("gdsii.read", "bytes"), read_s),
        "gdsii.write_s": write_s,
        "gdsii.write_mb_s": rate(
            get("gdsii.write", "bytes") + get("service.encode", "bytes"), write_s
        ),
        "density.analyze_s": get("density.analyze"),
        "density.refresh_s": get("density.refresh"),
        "planner.plan_s": get("planner.plan"),
        "candidates.generate_s": get("candidates.generate"),
        "candidates.count": candidates,
        "candidates.kept_ratio": (
            get("sizing.size", "fills") / candidates if candidates else 0.0
        ),
        "sizing.size_s": get("sizing.size"),
        "sizing.lp_solves": get("sizing.size", "lp_solves"),
        "sizing.dropped_fills": get("sizing.size", "dropped_fills"),
        "netflow.solve_calls": solves,
        "netflow.solve_s": get("netflow.solve"),
        "netflow.vars_per_call": get("netflow.solve", "variables") / solves if solves else 0.0,
        "parallel.calls": get("parallel.run", "calls"),
        "parallel.wall_s": get("parallel.run", "seconds"),
        "parallel.overhead_s": get("parallel.run", "overhead_s"),
        "parallel.worker_cpu_s": get("parallel.run", "worker_cpu_s"),
        "drc.check_s": get("drc.check"),
        "spill.mb": stream.get("bytes_spilled", 0) / 1e6,
        "spill.chunks": float(stream.get("chunks", 0)),
        "spill.bucket_s": stages.get("bucket", 0.0),
        "stream.scan_s": stages.get("scan", 0.0),
        "stream.analysis_s": stages.get("analysis", 0.0),
        "stream.candidates_s": stages.get("candidates", 0.0),
        "stream.sizing_s": stages.get("sizing", 0.0),
        "stream.drc_s": stages.get("drc", 0.0),
        "stream.write_s": stages.get("io.write", 0.0),
        "stream.bands": float(stream.get("bands", 0)),
        "eco.apply_s": get("eco.apply"),
        "eco.fill_index_s": get("eco.fill_index"),
        "eco.affected_windows": get("eco.apply", "affected_windows"),
        "service.queue_wait_ms": wait_sum / wait_count * 1000.0 if wait_count else 0.0,
        "service.encode_s": get("service.encode"),
        "service.other_ms": (
            (sum(op["s"] for op in requests) - wrapped) / len(requests) * 1000.0
            if requests
            else 0.0
        ),
        "scoring.score_s": get("scoring.score"),
        "scoring.overlay_s": get("scoring.overlay"),
        "scoring.calibrate_s": get("scoring.calibrate"),
    }


def _primary_ms(kind: str, cycles: Sequence[Mapping[str, Any]]) -> Optional[float]:
    """Median reference-host latency of the primary op over ``cycles``."""
    name = primary_op(kind)
    samples = [
        op["norm_s"] * 1000.0 for cy in cycles for op in cy["ops"] if op["op"] == name and _ok(op)
    ]
    return statistics.median(samples) if samples else None


def per_layer(kind: str, children: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Medians over the wrapped cycles of every per-layer metric.

    Traced children wrap every other cycle (:func:`ledger.child.run`);
    a workload without wrapped cycles (the stream, whose numbers come
    from its own report) uses all of them.  ``ledger.trace_overhead_pct``
    compares the primary op's latency in the wrapped cycles with the
    bare cycles after the cold first one, in the same children.
    """
    units = layer_units()
    every = [cy for c in children for cy in c["cycles"]]
    wrapped = [cy for cy in every if cy.get("traced")]
    rows = [layer_values(cy) for cy in wrapped or every]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    kernels = [c["kernels"] for c in children if "kernels" in c]
    for kernel in ("rect", "raster"):
        values[f"density.{kernel}_window_us"] = (
            statistics.median(k[f"{kernel}_window_us"] for k in kernels) if kernels else 0.0
        )
    bare = [cy for c in children for cy in c["cycles"][1:] if not cy.get("traced")]
    with_trace, without = _primary_ms(kind, wrapped), _primary_ms(kind, bare)
    values["ledger.trace_overhead_pct"] = (
        (with_trace / without - 1) * 100 if with_trace and without else 0.0
    )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _degradation(base: float, cur: float, better: str) -> float:
    """Relative change of ``cur`` against ``base``, positive = worse."""
    delta = (cur - base) if better == "lower" else (base - cur)
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else (float("inf") if delta > 0 else float("-inf"))


def verdict(a: Mapping[str, Any], b: Mapping[str, Any], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    Unresolved when the baseline's run-to-run quartile spread exceeds
    the bound, unless every run of ``b`` beats every run of ``a``.
    Worse when the median degrades by more than the bound; better when
    it improves by more than both the bound and the baseline's spread.
    """
    base = a["value"]
    spread = (a["q3"] - a["q1"]) / abs(base) if base else 0.0
    lower = better == "lower"
    all_better = (
        max(b["runs"]) < min(a["runs"]) if lower else min(b["runs"]) > max(a["runs"])
    )
    change = _degradation(base, b["value"], better)
    if spread > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < 0 and -change > max(bound, spread):
        return "better"
    return "unchanged"


def compare(a: Mapping[str, Any], b: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both records."""
    rows: List[Dict[str, Any]] = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None or name not in E2E_METRICS:
                continue
            _, better, bound = E2E_METRICS[name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": ma["unit"],
                    "bound": bound,
                    "a": ma,
                    "b": mb,
                    "change": _degradation(ma["value"], mb["value"], better),
                    "verdict": verdict(ma, mb, better, bound),
                }
            )
    return rows


def format_compare(rows: Iterable[Mapping[str, Any]]) -> str:
    lines = [
        f"{'workload':<11}{'metric':<16}{'A median [q1, q3]':>32}"
        f"{'B median [q1, q3]':>32}{'worse by':>10}{'bound':>7}  verdict"
    ]
    for r in rows:
        cells = []
        for side in ("a", "b"):
            m = r[side]
            cells.append(f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] {r['unit']}")
        lines.append(
            f"{r['workload']:<11}{r['metric']:<16}{cells[0]:>32}{cells[1]:>32}"
            f"{r['change']:>10.1%}{r['bound']:>7.0%}  {r['verdict']}"
        )
    return "\n".join(lines)
