"""The traced pass: thin timing wrappers around the program's layers.

Each wrapper replaces one module attribute that callers resolve at call
time, records a span (layer, start, end, time of wrapped calls nested
inside it) in memory, and calls the original.  Nothing is added to the
program; :meth:`Recorder.restore` puts every original back and reports
whether each attribute is the original object again.  A layer's self
time is its span's duration minus the nested wrapped spans.

Spans are kept per thread (the service runs requests on worker
threads) and read once, after the timed cycles.  Pool workers forked
during a traced call inherit the wrappers, but their spans stay in the
worker, so per-call solver numbers come from serial runs only.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ledger.child import children_cpu_s

#: ``counter(args, result, token)`` -> counts attached to the span
Counter = Callable[[tuple, Any, Any], Dict[str, float]]


def _count_candidates(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    return {
        "candidates": sum(len(r) for per in result.values() for r in per.values())
    }


def _count_sizing(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    sized, stats = result
    return {
        "fills": sum(len(r) for per in sized.values() for r in per.values()),
        "lp_solves": stats.lp_solves,
        "dropped_fills": stats.dropped_fills,
    }


def _count_variables(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    return {"variables": args[0].num_variables}


def _count_affected(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    return {"affected_windows": len(result.affected_windows)}


def _count_bytes_in(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    return {"bytes": len(args[0])}


def _count_bytes_out(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    return {"bytes": len(result)}


def _shard_siblings() -> List[Any]:
    """Where ``run_sharded`` grafts its shard spans: the open span's
    children, or the tracer roots when no span is open."""
    from repro import obs

    parent = obs.current_span()
    return parent.children if parent is not None else obs.active_tracer().roots


def _before_sharded() -> Tuple[List[Any], int, float]:
    siblings = _shard_siblings()
    return siblings, len(siblings), children_cpu_s()


def _count_sharded(args: tuple, result: Any, token: Any) -> Dict[str, float]:
    siblings, start, cpu0 = token
    shards = [s.seconds for s in siblings[start:] if s.name.endswith("]")]
    return {
        "slowest_shard_s": max(shards, default=0.0),
        # pool workers are joined inside run_sharded, so their CPU has
        # been added to this process's RUSAGE_CHILDREN by now
        "worker_cpu_s": children_cpu_s() - cpu0,
    }


#: (owner, attribute, layer, counter, before) — owners are module paths,
#: or ``module:Class`` for a method
TARGETS: Tuple[Tuple[str, str, str, Optional[Counter], Optional[Callable[[], Any]]], ...] = (
    ("repro.core.engine", "analyze_layout", "density.analyze", None, None),
    ("repro.core.engine", "plan_targets", "planner.plan", None, None),
    ("repro.core.engine", "generate_candidates", "candidates.generate", _count_candidates, None),
    ("repro.core.engine", "size_fills", "sizing.size", _count_sizing, None),
    ("repro.core.sizing", "solve_dual_mcf", "netflow.solve", _count_variables, None),
    ("repro.parallel", "run_sharded", "parallel.run", _count_sharded, _before_sharded),
    ("repro.layout:Layout", "check_drc", "drc.check", None, None),
    ("repro.service.api", "apply_eco", "eco.apply", _count_affected, None),
    ("repro.service.api", "build_fill_indexes", "eco.fill_index", None, None),
    ("repro.service.api", "gdsii_bytes", "service.encode", _count_bytes_out, None),
    ("repro.service.api", "score_layout", "scoring.score", None, None),
    ("repro.service.api", "calibrate_weights", "scoring.calibrate", None, None),
    ("repro.eco", "refresh_analysis", "density.refresh", None, None),
    ("repro.density.scoring", "fill_overlay_area", "scoring.overlay", None, None),
)

#: the ledger's own codec calls (``api.read``/``api.write`` of a workload)
API_TARGETS = (
    ("read", "gdsii.read", _count_bytes_in),
    ("write", "gdsii.write", _count_bytes_out),
)


def resolve_owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Recorder:
    """In-memory span recorder that patches and restores layer entry points."""

    def __init__(self) -> None:
        #: finished spans: [layer, start, end, nested seconds, counts]
        self.spans: List[List[Any]] = []
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        counter: Optional[Counter] = None,
        before: Optional[Callable[[], Any]] = None,
    ) -> Callable[..., Any]:
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            token = before() if before is not None else None
            span: List[Any] = [layer, time.perf_counter(), 0.0, 0.0, {}]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += span[2] - span[1]
                spans.append(span)
            if counter is not None:
                span[4] = counter(args, result, token)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        counter: Optional[Counter] = None,
        before: Optional[Callable[[], Any]] = None,
    ) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, original, counter, before))
        self._patched.append((owner, attr, original))

    def install(self, api: Any) -> None:
        """Wrap every program target plus the workload's own codec calls."""
        for path, attr, layer, counter, before in TARGETS:
            self.patch(resolve_owner(path), attr, layer, counter, before)
        for attr, layer, counter in API_TARGETS:
            if hasattr(api, attr):
                self.patch(api, attr, layer, counter)

    def restore(self) -> bool:
        """Put every original back; True when each is restored by identity."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in patched)

    def totals(self, t0: float, t1: float) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``seconds``, ``self_s`` and summed counts of
        the spans that started in ``[t0, t1)``."""
        out: Dict[str, Dict[str, float]] = {}
        for layer, start, end, nested, counts in self.spans:
            if not t0 <= start < t1:
                continue
            acc = out.setdefault(layer, {"calls": 0, "seconds": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["seconds"] += end - start
            acc["self_s"] += end - start - nested
            for key, value in counts.items():
                if key == "slowest_shard_s":
                    acc["overhead_s"] = acc.get("overhead_s", 0.0) + (end - start - value)
                else:
                    acc[key] = acc.get(key, 0) + value
        return out
