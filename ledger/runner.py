"""Orchestration: child processes, the host meter, correctness, result records.

Each measurement is a fresh child (:mod:`ledger.child`); the parent only
generates inputs, times child start-up, meters the host
(:mod:`ledger.host`) and judges outputs.  An op counts as failed, and
leaves the timing samples, when it raised, returned DRC violations or a
non-ok response, when its output sha256 differs from the workload's
reference, or when a 2-worker fill ran no worker process (the pool fell
back to serial).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ledger import ROOT, SRC, child, metrics
from ledger.host import HostMeter, child_cpus
from ledger.workloads import ORDER, RULES, WORKLOADS, prepare

#: set-up-only children per measurement, besides the measured child
SETUP_REPEATS = {"fill": 2, "stream": 1, "service": 1}

#: rounds of ``run``.  Host noise comes in stretches that can cover a
#: whole round; with 5 rounds the exclusive q3 sits between the two
#: highest
ROUNDS = 10

#: cycles of a traced child in ``run``: the cold one, then two
#: wrapped/bare pairs
TRACED_CYCLES = 5

#: a bench invocation must end well inside three minutes
BENCH_DEADLINE_S = 170.0


class LedgerError(RuntimeError):
    """A child crashed or hung: the program could not be measured."""


@contextlib.contextmanager
def workspace(root: Optional[Path] = None) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    base = root if root is not None else ROOT / ".ledger_work"
    work = base / f"{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _host_scaled(result: Dict[str, Any], meter: HostMeter, start: float, ready: float) -> None:
    """Put a reference-host time (``norm_s``) next to every wall time of
    a child's result, and the child's mean probe (``probe_ms``)."""
    result["setup_wall_s"] = ready - start
    result["setup_s"] = (ready - start) * meter.scale(start, ready)
    result["probe_ms"] = meter.probe_ms(start, meter.starts[-1])
    for cycle in result["cycles"]:
        cycle["norm_s"] = (cycle["t1"] - cycle["t0"]) * meter.scale(cycle["t0"], cycle["t1"])
        for op in cycle["ops"]:
            if "s" in op:
                op["norm_s"] = op["s"] * meter.scale(op["t0"], op["t0"] + op["s"])


class Children:
    """Starts workload children in ``work`` and collects their results."""

    def __init__(self, work: Path, deadline: Optional[float] = None):
        self.work = work
        self.deadline = deadline
        self.count = 0
        tmp = work / "tmp"
        tmp.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(ROOT), self.env.get("PYTHONPATH")) if p
        )
        # spill files and pool scratch stay inside the checkout
        self.env["TMPDIR"] = str(tmp)
        # measure the production configuration, never the sanitizer
        self.env.pop("REPRO_SANITIZE", None)

    def spawn(
        self,
        base: Mapping[str, Any],
        *,
        cycles: Optional[int] = None,
        seconds: Optional[float] = None,
        traced: bool = False,
        setup_only: bool = False,
        fail_op: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run one child to completion under a host meter; returns its
        result with wall and reference-host times (``setup_s`` is child
        start to ``ready``, or to ``served``)."""
        self.count += 1
        out_dir = self.work / f"child{self.count}"
        out_dir.mkdir()
        cpus = child_cpus(base["config"].get("workers", 1))
        job = {
            **base,
            "cpus": cpus,
            "out_dir": str(out_dir),
            "cycles": cycles,
            "seconds": seconds,
            "traced": traced,
            "setup_only": setup_only,
            "fail_op": fail_op,
        }
        job_path = out_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = 3600.0
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise LedgerError("time budget spent before the next child")
        marks: Dict[str, float] = {}
        last = ""
        with HostMeter(cpus) as meter, open(out_dir / "stderr.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "ledger.child", str(job_path)],
                stdout=subprocess.PIPE,
                stderr=log,
                cwd=ROOT,
                env=self.env,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                for raw in proc.stdout:  # type: ignore[union-attr]
                    now = time.perf_counter()
                    line = raw.decode("utf-8").strip()
                    if line in ("ready", "served"):
                        marks[line] = now
                    elif line:
                        last = line
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()  # type: ignore[union-attr]
        if proc.returncode != 0 or "ready" not in marks:
            tail = (out_dir / "stderr.log").read_text(errors="replace")[-2000:]
            raise LedgerError(
                f"{base['workload']} child exited with {proc.returncode}:\n{tail}"
            )
        result: Dict[str, Any] = json.loads(last)
        _host_scaled(result, meter, start, marks.get("served", marks["ready"]))
        return result


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def _clean(cycle: Mapping[str, Any]) -> bool:
    return "digest" in cycle and all(op.get("error") is None for op in cycle["ops"])


@dataclass
class Reference:
    """What a workload's outputs must be.

    ``every``: the sha256 of every cycle's output (the fill and stream
    workloads repeat one op).  ``cycles``: the sha256 of block ``k``
    (the service: round 1's blocks).  ``fill``: the sha256 of the
    service's first ``fill``.
    """

    every: Optional[str] = None
    cycles: Dict[int, str] = field(default_factory=dict)
    fill: Optional[str] = None

    def digest(self, k: int) -> Optional[str]:
        return self.every if self.every is not None else self.cycles.get(k)

    @classmethod
    def of_service(cls, c: Mapping[str, Any]) -> "Reference":
        return cls(
            cycles={k: cy["digest"] for k, cy in enumerate(c["cycles"]) if _clean(cy)},
            fill=c["setup"]["fill_digest"],
        )


def judge(c: Mapping[str, Any], reference: Reference, pool: bool = False) -> None:
    """Mark ops failed whose cycle output differs from the reference, or
    (``pool``) whose fill ran no worker process."""
    for k, cycle in enumerate(c["cycles"]):
        expected = reference.digest(k)
        mismatch = expected is not None and cycle.get("digest", expected) != expected
        for op in cycle["ops"]:
            if op.get("error") is not None:
                continue
            if mismatch:
                op["error"] = "output sha256 differs from the reference"
            elif pool and not op.get("children_cpu_s"):
                op["error"] = "no worker CPU: the pool fell back to serial"


def check_output(path: str, expected_wires: int) -> Optional[str]:
    """Re-read an output file as a user would: wires survive, fills
    exist, lie inside the die and pass a full DRC (which also covers
    the streamed path's cross-band fill pairs).  Returns the first
    problem found, if any."""
    from repro.gdsii import layout_from_gdsii

    layout = layout_from_gdsii(Path(path).read_bytes(), RULES)
    if layout.num_wires != expected_wires:
        return f"output has {layout.num_wires} wires, expected {expected_wires}"
    if not layout.num_fills:
        return "output has no fills"
    if not all(layout.die.contains(f) for layer in layout.layers for f in layer.fills):
        return "a fill escapes the die"
    violations = layout.check_drc()
    if violations:
        return f"output has {len(violations)} DRC violations"
    return None


def serial_digest(job: Mapping[str, Any], work: Path) -> str:
    """Output sha256 of the workload's op run by the serial in-memory
    engine, in this process.  It is the reference of the fill workloads
    at any worker count, and of the stream workload, whose bytes must be
    identical to the in-memory engine's (both use the default planner
    objective when the job has no weights)."""
    config = {k: v for k, v in job["config"].items() if k not in ("workers", "parallel")}
    out = work / f"serial-{job['workload']}"
    out.mkdir()
    workload = child.FillWorkload({**job, "config": config, "out_dir": str(out)})
    cycle = workload.cycle(0, child.OpCounter(None))
    if not _clean(cycle):
        raise LedgerError(f"{job['workload']}: the serial reference fill failed: {cycle['ops']}")
    return str(cycle["digest"])


def _fail_child(c: Mapping[str, Any], reason: str) -> None:
    for cycle in c["cycles"]:
        for op in cycle["ops"]:
            if op.get("error") is None:
                op["error"] = reason


def _counts(children: Sequence[Mapping[str, Any]]) -> Tuple[int, int]:
    ops = [op for c in children for cy in c["cycles"] for op in cy["ops"]]
    return len(ops), sum(op.get("error") is not None for op in ops)


def _failures(children: Sequence[Mapping[str, Any]]) -> List[str]:
    return sorted(
        {op["error"] for c in children for cy in c["cycles"] for op in cy["ops"] if op.get("error")}
    )


def measure(
    children: Children,
    job: Mapping[str, Any],
    reference: Reference,
    *,
    cycles: Optional[int] = None,
    seconds: Optional[float] = None,
    traced: bool = False,
) -> Dict[str, Any]:
    """One measurement of ``job``, judged against ``reference``.

    Untraced, ``SETUP_REPEATS`` set-up-only children come first: set-up
    time is short and noisy, so each measurement's sample is the median
    of several.  Traced, the child wraps every other cycle, except the
    stream workload's, whose layer numbers are its own report.  Every
    op is judged and the output file is checked.  Returns ``child``,
    ``setups`` (every child's result, the measured one last) and
    ``checks`` (failed checks that are not one op's).
    """
    name, kind = job["workload"], job["kind"]
    setups = [] if traced else [
        children.spawn(job, setup_only=True) for _ in range(SETUP_REPEATS[kind])
    ]
    c = children.spawn(job, cycles=cycles, seconds=seconds, traced=traced and kind != "stream")
    setups.append(c)
    checks: List[str] = []
    judge(c, reference, pool=job["config"].get("workers", 1) > 1)
    if kind == "service":
        fills = {s["setup"]["fill_digest"] for s in setups}
        if len(fills | ({reference.fill} if reference.fill else set())) > 1:
            checks.append(f"{name}: the first fill differs between processes")
        if any(s["setup"]["fill_drc"] for s in setups):
            checks.append(f"{name}: the first fill has DRC violations")
    if not c.get("restored", True):
        checks.append(f"{name}: a wrapped attribute was not restored")
    if not c.get("kernels", {}).get("agree", True):
        checks.append(f"{name}: rect and raster density analyses differ")
    problem = check_output(c["output"], job["input_wires"] + c.get("eco_wires", 0))
    if problem:
        _fail_child(c, problem)
    return {"child": c, "setups": setups, "checks": checks}


# ----------------------------------------------------------------------
# ``bench``: one workload for a fixed time
# ----------------------------------------------------------------------
def bench(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    work_root: Optional[Path] = None,
) -> Dict[str, Any]:
    """Measure one workload for ``seconds``; returns the result line.

    Untraced: every end-to-end metric of BENCHMARK.json; traced: every
    per-layer metric.  The fill workloads are judged against a serial
    fill made here.  The stream workload's comparison with the
    in-memory engine takes longer than the run and is left to ``run``.
    """
    deadline = time.monotonic() + BENCH_DEADLINE_S
    kind = WORKLOADS[name].kind
    with workspace(work_root) as work:
        children = Children(work, deadline)
        job = prepare(name, scale, seed, work)
        reference = Reference(every=serial_digest(job, work)) if kind == "fill" else Reference()
        m = measure(children, job, reference, seconds=seconds, traced=trace)
        c = m["child"]
        if trace:
            values = metrics.per_layer(kind, [c])
        else:
            values = metrics.end_to_end(kind, [c], [m["setups"]])
        wanted = [
            spec["name"] for spec in metrics.benchmark_spec()["per_layer" if trace else "end_to_end"]
        ]
        attempted, failed = _counts([c])
        checks = m["checks"] + _failures([c])
        return {
            "correct": failed == 0 and not checks,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                n: {"value": values[n]["value"], "unit": values[n]["unit"]}
                for n in wanted
                if n in values
            },
            "checks": checks,
            "wall": {n: values[n]["wall"]["value"] for n in wanted if "wall" in values.get(n, {})},
        }


# ----------------------------------------------------------------------
# the ledger: every workload, R rounds, traced pass, quality
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip() or None


def run(
    seed: int = 0,
    rounds: int = ROUNDS,
    scale: str = "full",
    work_root: Optional[Path] = None,
    progress: Callable[[str], None] = lambda line: None,
) -> Dict[str, Any]:
    """Run the whole ledger; returns the result record.

    Each round measures every workload once, in fresh children, in a
    fixed order, so slow host drift lands on all workloads alike.  After
    the rounds, one traced child per engine workload gives the per-layer
    numbers (the stream workload's come from its own reports).
    """
    with workspace(work_root) as work:
        children = Children(work)
        jobs: Dict[str, Dict[str, Any]] = {}
        references: Dict[str, Reference] = {}
        # the fill workloads share one input file, so fill-m-w2 is held
        # to fill-m's serial output
        serial: Dict[str, str] = {}
        for name in ORDER:
            job = jobs[name] = prepare(name, scale, seed, work)
            if job["kind"] == "service":
                references[name] = Reference()
                continue
            if job["input"] not in serial:
                serial[job["input"]] = serial_digest(job, work)
            references[name] = Reference(every=serial[job["input"]])
        timed: Dict[str, List[Dict[str, Any]]] = {name: [] for name in ORDER}
        for r in range(rounds):
            for name in ORDER:
                m = measure(
                    children, jobs[name], references[name],
                    cycles=WORKLOADS[name].cycles_per_round,
                )
                if r == 0 and jobs[name]["kind"] == "service":
                    references[name] = Reference.of_service(m["child"])
                timed[name].append(m)
                progress(
                    f"round {r + 1}/{rounds} {name}: "
                    + ", ".join(f"{cy['t1'] - cy['t0']:.3f}s" for cy in m["child"]["cycles"])
                    + f" (probe {m['child']['probe_ms']:.2f} ms)"
                )
        traced: Dict[str, Dict[str, Any]] = {}
        for name in ORDER:
            if jobs[name]["kind"] != "stream":
                traced[name] = measure(
                    children, jobs[name], references[name], cycles=TRACED_CYCLES, traced=True
                )
                progress(f"traced {name}")
        progress("scoring the fill-m output (untimed)")
        quality = _quality(jobs["fill-m"], timed["fill-m"][0]["child"])

        whys = {w["name"]: w["why"] for w in metrics.benchmark_spec()["workloads"]}
        checks = [chk for ms in timed.values() for m in ms for chk in m["checks"]]
        checks += [chk for m in traced.values() for chk in m["checks"]]
        workloads: Dict[str, Any] = {}
        for name in ORDER:
            kind = jobs[name]["kind"]
            runs = [m["child"] for m in timed[name]]
            layers = [traced[name]["child"]] if name in traced else runs
            every = runs + layers if name in traced else runs
            attempted, failed = _counts(every)
            workloads[name] = {
                "why": whys[name],
                "attempted": attempted,
                "failed": failed,
                "failures": _failures(every),
                "metrics": metrics.end_to_end(
                    kind,
                    runs,
                    [m["setups"] for m in timed[name]],
                    quality=quality if kind == "fill" else None,
                ),
                "per_layer": metrics.per_layer(kind, layers),
            }
        failed_total = sum(w["failed"] for w in workloads.values())
        probes = [[timed[name][r]["child"]["probe_ms"] for name in ORDER] for r in range(rounds)]
        return {
            "schema": 1,
            "kind": "ledger",
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": _git_sha(),
            "seed": seed,
            "rounds": rounds,
            "scale": scale,
            "correct": failed_total == 0 and not checks,
            "checks": checks,
            "host_probe_ms": metrics.summarize(probes),
            "workloads": workloads,
        }


def _quality(job: Mapping[str, Any], c: Mapping[str, Any]) -> float:
    """Eqn. (3) quality of a fill-m output, with its calibrated weights."""
    from repro.density.scoring import ScoreWeights, score_layout
    from repro.gdsii import file_size_mb, layout_from_gdsii
    from repro.layout import WindowGrid

    layout = layout_from_gdsii(Path(c["output"]).read_bytes(), RULES)
    size = next(cy["out_bytes"] for cy in c["cycles"] if "out_bytes" in cy)
    card = score_layout(
        layout,
        WindowGrid(layout.die, *job["windows"]),
        ScoreWeights(**job["weights"]),
        file_size=file_size_mb(size),
    )
    return float(card.quality)


def format_record(record: Mapping[str, Any]) -> str:
    """Every metric by name with its unit, workload by workload."""
    lines = [
        f"ledger  seed={record['seed']} rounds={record['rounds']} "
        f"scale={record['scale']} git={str(record.get('git_sha') or '?')[:10]} "
        f"correct={record['correct']} host_probe={record['host_probe_ms']['value']:.2f}ms"
    ]
    for check in record["checks"]:
        lines.append(f"  CHECK FAILED: {check}")
    for name, w in record["workloads"].items():
        lines.append(f"{name}  ({w['attempted']} ops, {w['failed']} failed)")
        for failure in w["failures"]:
            lines.append(f"  failure: {failure}")
        for metric, m in w["metrics"].items():
            wall = ""
            if "wall" in m:
                raw = m["wall"]
                wall = f"  wall {raw['value']:.6g} [{raw['q1']:.6g}, {raw['q3']:.6g}]"
            lines.append(
                f"  {metric:<16}{m['value']:>14.6g} {m['unit']:<6}"
                f"[{m['q1']:.6g}, {m['q3']:.6g}]  n={m['n']}{wall}"
            )
        for metric, m in w["per_layer"].items():
            lines.append(f"    {metric:<26}{m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)
