"""One workload child: import the program, run cycles, report one JSON line.

The parent starts this module in a fresh interpreter for every round,
so each child's peak RSS is its own and the first cycle is as cold as a
command-line user's.  The child first pins itself to the job's CPUs,
where the parent's host meter runs.  Nothing from the program is
imported before the ``ready`` marker: the parent times child start to
that marker as the set-up cost.  Protocol on stdout, one line each:

* ``ready`` after ``import repro.cli``;
* ``served`` (service workload only) after service start, ``open_session``
  and the first ``fill``;
* the result as one JSON object, last.

A cycle is the unit the medians are taken over: one fill op for the
fill and stream workloads, one seeded block of requests for the service.
An op that raises, reports DRC violations or gets a non-ok response is
recorded as failed with its error and left out of the timing samples.
Ops and cycles carry their ``time.perf_counter`` start, so the parent
can match them to its host meter (:mod:`ledger.host`).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional


def _mark(word: str) -> None:
    sys.stdout.write(word + "\n")
    sys.stdout.flush()


def children_cpu_s() -> float:
    """CPU seconds of this process's waited-for children (pool workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def eco_block(
    seed: int, block: int, die: List[int], layers: int, counts: List[int]
) -> List[Dict[str, Any]]:
    """The seeded request block ``block`` of the service workload.

    ``counts`` is ``[eco, drc, score]``: each ``eco_delta`` adds one
    random 300x40 or 40x300 wire on a random layer, a ``drc_audit``
    follows every ``eco // drc`` ECOs and the ``score`` requests close
    the block.
    """
    eco, drc, score = counts
    rng = random.Random(seed * 1_000_003 + block)
    xl, yl, xh, yh = die
    every = max(1, eco // max(1, drc))
    requests: List[Dict[str, Any]] = []
    audits = 0
    for k in range(eco):
        w, h = (300, 40) if rng.random() < 0.5 else (40, 300)
        x = rng.randrange(xl, xh - w)
        y = rng.randrange(yl, yh - h)
        layer = rng.randint(1, layers)
        requests.append(
            {"op": "eco_delta", "wires": {str(layer): [[x, y, x + w, y + h]]}}
        )
        if (k + 1) % every == 0 and audits < drc:
            requests.append({"op": "drc_audit"})
            audits += 1
    requests += [{"op": "drc_audit"}] * (drc - audits)
    requests += [{"op": "score"}] * score
    return requests


class InjectedFailure(RuntimeError):
    """Raised in place of the op the job names in ``fail_op``."""


class OpCounter:
    """Numbers ops across cycles and raises at the injected one."""

    def __init__(self, fail_op: Optional[int]):
        self.fail_op = fail_op
        self.count = 0

    def start(self) -> None:
        index = self.count
        self.count += 1
        if index == self.fail_op:
            raise InjectedFailure(f"injected failure at op {index}")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class FillWorkload:
    """In-memory engine: read .gds -> fill -> DRC -> encode -> write."""

    def __init__(self, job: Dict[str, Any]):
        from repro.core import DummyFillEngine, FillConfig
        from repro.density.scoring import ScoreWeights
        from repro.gdsii import gdsii_bytes, layout_from_gdsii
        from repro.layout import DrcRules, WindowGrid

        self.job = job
        self.rules = DrcRules(**job["rules"])
        weights = job.get("weights")
        self.engine = DummyFillEngine(
            FillConfig(**job["config"]),
            weights=ScoreWeights(**weights) if weights is not None else None,
        )
        self.grid_of = WindowGrid
        #: the codec calls the op makes, traced as the gdsii layer
        self.api = SimpleNamespace(read=layout_from_gdsii, write=gdsii_bytes)
        self.output = Path(job["out_dir"]) / "out.gds"

    def setup(self) -> Dict[str, Any]:
        return {}

    def cycle(self, k: int, ops: OpCounter) -> Dict[str, Any]:
        cols, rows = self.job["windows"]
        cpu0 = children_cpu_s()
        t0 = time.perf_counter()
        try:
            ops.start()
            layout = self.api.read(Path(self.job["input"]).read_bytes(), self.rules)
            self.engine.run(layout, self.grid_of(layout.die, cols, rows))
            violations = len(layout.check_drc())
            data = self.api.write(layout)
            with open(self.output, "wb") as fh:
                fh.write(data)
        except Exception as exc:  # an op failure is data, not a crash
            t1 = time.perf_counter()
            return {"t0": t0, "t1": t1, "ops": [{"op": "fill", "t0": t0, "error": _error(exc)}]}
        t1 = time.perf_counter()
        op = {
            "op": "fill",
            "t0": t0,
            "s": t1 - t0,
            "error": f"{violations} DRC violations" if violations else None,
            "children_cpu_s": children_cpu_s() - cpu0,
        }
        return {
            "t0": t0,
            "t1": t1,
            "ops": [op],
            "digest": hashlib.sha256(data).hexdigest(),
            "out_bytes": len(data),
        }

    def finish(self) -> Dict[str, Any]:
        return {"output": str(self.output)}


class StreamWorkload:
    """Out-of-core driver: ``stream_fill`` from file to file."""

    def __init__(self, job: Dict[str, Any]):
        from repro.core import FillConfig, stream_fill
        from repro.layout import DrcRules

        self.job = job
        self.rules = DrcRules(**job["rules"])
        self.config = FillConfig(**job["config"])
        self.stream_fill = stream_fill
        self.api = SimpleNamespace()
        self.output = Path(job["out_dir"]) / "out.gds"

    def setup(self) -> Dict[str, Any]:
        return {}

    def cycle(self, k: int, ops: OpCounter) -> Dict[str, Any]:
        cols, rows = self.job["windows"]
        t0 = time.perf_counter()
        try:
            ops.start()
            report = self.stream_fill(
                self.job["input"],
                str(self.output),
                self.rules,
                cols=cols,
                rows=rows,
                config=self.config,
                memory_budget=self.job["memory_budget"],
            )
        except Exception as exc:
            t1 = time.perf_counter()
            return {"t0": t0, "t1": t1, "ops": [{"op": "stream", "t0": t0, "error": _error(exc)}]}
        t1 = time.perf_counter()
        data = self.output.read_bytes()
        violations = len(report.violations)
        return {
            "t0": t0,
            "t1": t1,
            "ops": [
                {
                    "op": "stream",
                    "t0": t0,
                    "s": t1 - t0,
                    "error": f"{violations} DRC violations" if violations else None,
                }
            ],
            "digest": hashlib.sha256(data).hexdigest(),
            "out_bytes": len(data),
            "stream": {
                "stages": dict(report.stage_seconds),
                "bytes_spilled": report.bytes_spilled,
                "chunks": report.chunks,
                "bands": report.bands,
            },
        }

    def finish(self) -> Dict[str, Any]:
        return {"output": str(self.output)}


class ServiceWorkload:
    """Closed loop, one client: an in-process FillService session."""

    def __init__(self, job: Dict[str, Any]):
        from repro.service import FillService, ServiceClient
        from repro.service.jobs import JobError

        self.job = job
        self.service = FillService()
        self.client = ServiceClient(self.service)
        self.job_error = JobError
        self.api = SimpleNamespace()
        self.session = ""
        self.describe: Dict[str, Any] = {}
        self.last_gds = b""
        self.eco_wires = 0
        self.output = Path(job["out_dir"]) / "out.gds"

    def setup(self) -> Dict[str, Any]:
        self.service.start()
        self.describe = self.client.request(
            "open_session",
            gds=Path(self.job["input"]).read_bytes(),
            windows=self.job["windows"][0],
            config=self.job["config"],
        )
        self.session = self.describe["session"]
        filled = self.client.request("fill", session=self.session)
        self.last_gds = filled["gds"]
        _mark("served")
        return {
            "fill_digest": hashlib.sha256(filled["gds"]).hexdigest(),
            "fill_drc": filled["drc_violations"],
        }

    def _queue_wait(self) -> List[float]:
        """``[sum_s, count]`` of the service's queue-wait histogram."""
        found = {"sum": 0.0, "count": 0.0}
        for line in self.service.render_metrics().splitlines():
            for key in found:
                if line.startswith(f"repro_service_queue_wait_s_{key} "):
                    found[key] = float(line.split()[1])
        return [found["sum"], found["count"]]

    def cycle(self, k: int, ops: OpCounter) -> Dict[str, Any]:
        requests = eco_block(
            self.job["seed"],
            k,
            self.describe["die"],
            self.describe["layers"],
            self.job["block"],
        )
        wait0 = self._queue_wait()
        records: List[Dict[str, Any]] = []
        block_gds = b""
        t0 = time.perf_counter()
        for request in requests:
            op = request["op"]
            params = {key: v for key, v in request.items() if key != "op"}
            r0 = time.perf_counter()
            try:
                ops.start()
                result = self.client.request(op, session=self.session, **params)
            except (self.job_error, InjectedFailure) as exc:
                records.append({"op": op, "t0": r0, "error": _error(exc)})
                continue
            record: Dict[str, Any] = {"op": op, "t0": r0, "s": time.perf_counter() - r0, "error": None}
            if op == "eco_delta":
                block_gds = self.last_gds = result["gds"]
                self.eco_wires += result["new_wires"]
            elif op == "drc_audit" and result["count"]:
                record["error"] = f"{result['count']} DRC violations"
            records.append(record)
        t1 = time.perf_counter()
        wait1 = self._queue_wait()
        return {
            "t0": t0,
            "t1": t1,
            "ops": records,
            "digest": hashlib.sha256(block_gds).hexdigest(),
            "out_bytes": len(block_gds),
            "queue_wait": [b - a for a, b in zip(wait0, wait1)],
        }

    def finish(self) -> Dict[str, Any]:
        self.service.stop()
        self.output.write_bytes(self.last_gds)
        return {"output": str(self.output), "eco_wires": self.eco_wires}


KINDS = {"fill": FillWorkload, "stream": StreamWorkload, "service": ServiceWorkload}


def _kernel_costs(job: Dict[str, Any]) -> Dict[str, Any]:
    """Per-window analysis cost of each density kernel on the input.

    One ``analyze_layout`` call per kernel, outside every timed cycle;
    the two analyses must agree exactly (the raster kernel's contract).
    """
    import numpy as np

    from repro.core import FillConfig
    from repro.density.analysis import analyze_layout
    from repro.gdsii import layout_from_gdsii
    from repro.layout import DrcRules, WindowGrid

    rules = DrcRules(**job["rules"])
    layout = layout_from_gdsii(Path(job["input"]).read_bytes(), rules)
    grid = WindowGrid(layout.die, *job["windows"])
    margin = FillConfig(**job["config"]).effective_margin(rules.min_spacing)
    per_window = grid.num_windows * layout.num_layers
    out: Dict[str, Any] = {}
    results = {}
    for kernel in ("rect", "raster"):
        t0 = time.perf_counter()
        results[kernel] = analyze_layout(layout, grid, margin, kernel=kernel)
        out[f"{kernel}_window_us"] = (time.perf_counter() - t0) / per_window * 1e6
    out["agree"] = all(
        np.array_equal(results["rect"][n].lower, results["raster"][n].lower)
        and np.array_equal(results["rect"][n].upper, results["raster"][n].upper)
        for n in results["rect"]
    )
    return out


def _peak_rss_mb() -> float:
    """Peak RSS of this process's own address space (``VmHWM``).  Not
    ``ru_maxrss``: on Linux that keeps the parent's high-water mark
    across fork and exec, so every child would read at least the
    parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


#: a traced child's fewest cycles: the cold one, one wrapped, one bare
TRACED_MIN_CYCLES = 3


def _done(job: Dict[str, Any], cycles: List[Dict[str, Any]], started: float) -> bool:
    """Fixed cycle count, or time: stop before a cycle that would end
    past ``seconds`` (cycle length = mean so far), after at least one
    cycle (``TRACED_MIN_CYCLES`` when traced)."""
    if job["cycles"] is not None:
        return len(cycles) >= job["cycles"]
    if len(cycles) < (TRACED_MIN_CYCLES if job["traced"] else 1):
        return False
    elapsed = time.perf_counter() - started
    return elapsed * (len(cycles) + 1) / len(cycles) > job["seconds"]


def run(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute ``job`` after the ``ready`` marker; returns the result.

    ``rss_mb`` is the peak after set-up and the first cycle: what one
    cold command-line op costs, independent of how many cycles fit.

    A traced child runs its cycles bare and wrapped in turn: cycle 0
    (cold) bare, then odd cycles wrapped.  The wrapped cycles give the
    per-layer spans; the bare ones after cycle 0 are the base of the
    tracing overhead, taken in the same process so host drift cancels.
    """
    workload = KINDS[job["kind"]](job)
    setup = workload.setup()
    result: Dict[str, Any] = {"setup": setup, "cycles": []}
    if job["setup_only"]:
        workload.finish()
        result["rss_mb"] = _peak_rss_mb()
        return result
    recorder = None
    if job["traced"]:
        from ledger.trace import Recorder

        recorder = Recorder()
    restored = True
    ops = OpCounter(job.get("fail_op"))
    cycles: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while not _done(job, cycles, started):
        wrap = recorder if len(cycles) % 2 == 1 else None
        if wrap is not None:
            wrap.install(workload.api)
        try:
            cycle = workload.cycle(len(cycles), ops)
        finally:
            if wrap is not None:
                restored = wrap.restore() and restored
        if wrap is not None:
            cycle["spans"] = wrap.totals(cycle["t0"], cycle["t1"])
        cycle["traced"] = wrap is not None
        cycles.append(cycle)
        if len(cycles) == 1:
            result["rss_mb"] = _peak_rss_mb()
    result.update(workload.finish())
    if recorder is not None:
        result["restored"] = restored
        result["kernels"] = _kernel_costs(job)
    result["cycles"] = cycles
    return result


def main(argv: List[str]) -> int:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    os.sched_setaffinity(0, job["cpus"])
    import repro.cli  # noqa: F401  (the import a command-line user pays)

    _mark("ready")
    sys.stdout.write(json.dumps(run(job)) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
