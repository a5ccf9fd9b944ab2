"""The fill service: request handlers, dispatch, in-process client.

:class:`FillService` serves requests against the sessions of a
:class:`~repro.service.session.SessionStore`.  Every request runs on
the thread that sent it — the caller of :meth:`FillService.handle`, or
a ``repro serve`` connection thread.  Requests come in two kinds:

* **control ops** (``ping``, ``open_session``, ``close_session``,
  ``sessions``, ``stats``, ``metrics``) only touch the store and
  read-only telemetry;
* **compute ops** (``fill``, ``score``, ``drc_audit``, ``eco_delta``)
  take their session's turn (:meth:`FillSession.serving`), so requests
  on one session run one at a time; the heavy stages inside each
  still run the engine's parts on :mod:`repro.parallel` per the
  session's :class:`~repro.core.FillConfig`.

Every compute request runs under its own ``service.request`` span on
the service's tracer (the one active when :meth:`FillService.start`
ran — a ``--trace-out`` run record when serving from the CLI) and
feeds the per-op latency histograms ``service.latency.<op>`` plus
``service.queue.wait_s`` (the wait for the session's turn), so
``repro trace summarize`` reads service percentiles with no extra
plumbing.

Compute semantics are *replayable*: ``fill`` always starts from the
session's wire geometry (existing fill is replaced), so any number of
concurrent identical requests — and a fresh ``repro fill`` of the same
bytes — produce byte-identical GDSII.  ``eco_delta`` commits wires and
re-fills only the dirtied windows via the session caches
(:func:`repro.eco.apply_eco`), bit-identical to the cold CLI path.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..bench.suite import DEFAULT_BETAS, calibrate_weights
from ..core import DummyFillEngine, FillConfig
from ..density import score_layout
from ..eco import apply_eco, build_fill_indexes, wires_from_json
from ..gdsii import file_size_mb, gdsii_bytes, layout_from_gdsii, measure_file_size
from ..layout import DrcRules, WindowGrid
from ..layout.drc import REQUEST_RULE_DEFAULTS
from .protocol import ServiceError
from .session import FillSession, SessionStore

__all__ = [
    "COMPUTE_OPS",
    "CONTROL_OPS",
    "FillService",
    "ServiceClient",
    "rules_from_mapping",
]

#: ops that take their session's turn
COMPUTE_OPS = ("fill", "score", "drc_audit", "eco_delta")
#: ops that touch only the session store and telemetry
CONTROL_OPS = (
    "ping",
    "open_session",
    "close_session",
    "sessions",
    "stats",
    "metrics",
)


def _integer(key: str, value: Any) -> int:
    """A request's integer value; a float, bool or string raises, naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def rules_from_mapping(mapping: Mapping[str, Any]) -> DrcRules:
    """Build a rule deck from a request dict, CLI flag defaults applied.

    Accepted keys mirror the CLI: ``min_spacing``, ``min_width``,
    ``min_area`` and ``max_fill`` (one edge cap for both dimensions).
    Unknown keys raise, like :meth:`FillConfig.from_mapping`, and so
    does a value that is not an integer.
    """
    unknown = sorted(set(mapping) - set(REQUEST_RULE_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown rules keys {unknown} (known: {sorted(REQUEST_RULE_DEFAULTS)})"
        )
    merged = {
        key: _integer(key, value) for key, value in {**REQUEST_RULE_DEFAULTS, **mapping}.items()
    }
    return DrcRules(
        min_spacing=merged["min_spacing"],
        min_width=merged["min_width"],
        min_area=merged["min_area"],
        max_fill_width=merged["max_fill"],
        max_fill_height=merged["max_fill"],
    )


class FillService:
    """Persistent fill sessions, each request run on the thread that sent it."""

    def __init__(
        self,
        *,
        max_sessions: int = 8,
        slow_ms: Optional[float] = None,
        profile_ms: Optional[float] = None,
    ):
        self.store = SessionStore(max_sessions=max_sessions)
        #: requests slower than this (milliseconds) emit a warning
        #: event carrying the request's span tree inline
        self.slow_ms = slow_ms
        self._tracer = obs.active_tracer()
        self._registry = obs.metrics.active_registry()
        #: rolling per-op latency quantiles over the last 256 requests,
        #: exposed next to the cumulative histograms on /metrics
        self.telemetry = obs.RollingQuantiles()
        #: per-request sampling profiler (one shared collector so the
        #: whole service lifetime folds into a single flamegraph)
        self._profile = (
            obs.ProfileCollector(period_ms=profile_ms)
            if profile_ms is not None
            else None
        )
        self._started = False
        self._started_offset = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "FillService":
        """Capture the active tracer and registry the requests report to.

        Call inside the observation context the service should report
        into (e.g. a ``record_run``): a connection thread does not
        inherit context variables, so every request installs the
        tracer and registry captured here.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._tracer = obs.active_tracer()
        self._registry = obs.metrics.active_registry()
        self._started_offset = obs.current_offset(self._tracer)
        self._started = True
        return self

    def stop(self) -> None:
        """Refuse further compute requests and close every session."""
        self._started = False
        self.store.close_all()
        if self._profile is not None and self._profile.samples:
            # folded request samples land in the service's run record
            obs.profile.publish(self._profile, tracer=self._tracer)

    def __enter__(self) -> "FillService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- protocol entry ------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request on this thread; never raises.

        Returns ``{"ok": True, "result": ...}`` or ``{"ok": False,
        "error": {"type": ..., "message": ...}}`` — the body of a
        protocol response.  ``batch`` checks every request's op and
        session first, then runs them in order and reports each
        outcome.
        """
        op = str(request.get("op"))
        params = {k: v for k, v in request.items() if k not in ("op", "id")}
        try:
            if op == "batch":
                return _ok({"responses": self._handle_batch(params)})
            if op in CONTROL_OPS:
                return _ok(self._control(op, params))
            return self._execute(*self._check(request))
        except Exception as exc:
            return _err(type(exc).__name__, str(exc))

    def _handle_batch(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        requests = params.get("requests")
        if not isinstance(requests, (list, tuple)) or not requests:
            raise ValueError("batch needs a non-empty 'requests' list")
        checked = [self._check(request) for request in requests]
        return [self._execute(*request) for request in checked]

    def _check(
        self, request: Mapping[str, Any]
    ) -> Tuple[str, FillSession, Dict[str, Any]]:
        """A compute request's op, session (LRU-touched) and params."""
        if not self._started:
            raise RuntimeError("service is not running")
        op = str(request.get("op"))
        if op not in COMPUTE_OPS:
            raise ValueError(f"unknown compute op {op!r} (one of {COMPUTE_OPS})")
        params = {k: v for k, v in request.items() if k not in ("op", "id")}
        return op, self.store.get(str(params.get("session"))), params

    # -- control ops ---------------------------------------------------
    def _control(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True, "sessions": len(self.store)}
        if op == "open_session":
            return self._open_session(params)
        if op == "close_session":
            session_id = str(params.get("session"))
            self.store.close(session_id)
            self._registry.counter("service.sessions.closed").inc()
            return {"closed": session_id}
        if op == "sessions":
            return {"sessions": self.store.describe()}
        if op == "stats":
            return self.stats()
        if op == "metrics":
            return {"text": self.render_metrics()}
        raise ValueError(f"unknown control op {op!r}")

    # -- telemetry surface ---------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live service counters: the ``stats`` op and ``/healthz`` body.

        Reads the registry's existing instruments (never creates any,
        so polling stats does not mint zero-valued metrics).
        """
        requests: Dict[str, float] = {}
        errors = 0.0
        for name, inst in self._registry.instruments().items():
            if name.startswith("service.requests."):
                requests[name[len("service.requests."):]] = inst.value
            elif name == "service.errors":
                errors = inst.value
        return {
            "uptime_s": round(
                max(0.0, obs.current_offset(self._tracer) - self._started_offset),
                3,
            ),
            "sessions": len(self.store),
            "requests": requests,
            "errors": errors,
            "latency": self.telemetry.snapshot(),
            "profiling": (
                {
                    "period_ms": self._profile.period_ms,
                    "samples": self._profile.samples,
                }
                if self._profile is not None
                else None
            ),
        }

    def render_metrics(self) -> str:
        """The service registry in Prometheus text format (``/metrics``)."""
        return obs.render_prometheus(self._registry, rolling=self.telemetry)

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body: liveness plus the cheap gauges."""
        return {
            "status": "ok" if self._started else "stopped",
            "sessions": len(self.store),
        }

    def _open_session(self, params: Dict[str, Any]) -> Dict[str, Any]:
        data = params.get("gds")
        path = params.get("gds_path")
        if (data is None) == (path is None):
            raise ValueError("open_session needs exactly one of gds/gds_path")
        if data is None:
            data = Path(str(path)).read_bytes()
        if not isinstance(data, bytes):
            raise ValueError("gds payload must be bytes")
        rules = rules_from_mapping(params.get("rules") or {})
        config = FillConfig.from_mapping(params.get("config") or {})
        layout = layout_from_gdsii(data, rules)
        windows = _integer("windows", params.get("windows", 8))
        grid = WindowGrid(layout.die, windows, windows)
        session = self.store.open(layout, grid, config)
        self._registry.counter("service.sessions.opened").inc()
        self._registry.gauge("service.sessions.evicted").set(self.store.evicted)
        return session.describe()

    # -- compute execution (the calling thread) ------------------------
    def _execute(
        self, op: str, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run one checked compute request; returns its response body.

        The service's tracer and registry are installed for the request:
        a connection thread starts from the context-variable defaults,
        and without them its spans and metrics would land in the
        process-wide fallback instruments, missing the run record.
        """
        restore_tracer = obs.set_tracer(self._tracer)
        restore_registry = obs.set_registry(self._registry)
        samples_before = self._profile.samples if self._profile is not None else 0
        error: Optional[Exception] = None
        try:
            with obs.span("service.request", op=op, session=session.id) as sp:
                asked = taken = obs.current_offset(self._tracer)
                try:
                    with self._maybe_profiled(), session.serving():
                        taken = obs.current_offset(self._tracer)
                        result = _COMPUTE_HANDLERS[op](self, session, params)
                except Exception as exc:
                    error = exc
                    self._registry.counter("service.errors").inc()
                    sp.annotate(error_type=type(exc).__name__)
                else:
                    self._registry.counter(f"service.requests.{op}").inc()
                # the wait for the session's turn; the ledger's
                # service.queue_wait_ms reads this histogram
                self._registry.histogram("service.queue.wait_s").observe(taken - asked)
                sp.annotate(queue_wait_s=round(taken - asked, 6))
            if self._profile is not None:
                sp.annotate(profile_samples=self._profile.samples - samples_before)
            self._registry.histogram(f"service.latency.{op}").observe(sp.seconds)
            self.telemetry.observe(op, sp.seconds)
            self._report_request(sp, op, session.id, error is not None)
        finally:
            restore_registry()
            restore_tracer()
        if error is not None:
            return _err(type(error).__name__, str(error))
        return _ok(result)

    def _maybe_profiled(self) -> Any:
        """Sampler over this thread for one request, if armed."""
        if self._profile is None:
            return contextlib.nullcontext()
        return obs.profile.attached(self._profile)

    def _report_request(
        self, sp: "obs.Span", op: str, session_id: str, failed: bool
    ) -> None:
        """Emit the request's completion event; escalate slow requests.

        A request over ``slow_ms`` emits a warning-level event carrying
        the request's whole span tree inline, so the offending stages
        are in the event stream without fishing out the run record.
        """
        seconds = sp.seconds
        slow = self.slow_ms is not None and seconds * 1000.0 >= self.slow_ms
        if slow:
            self._registry.counter("service.requests.slow").inc()
            obs.events.emit(
                "slow_request",
                level="warning",
                op=op,
                session=session_id,
                seconds=round(seconds, 6),
                threshold_ms=self.slow_ms,
                failed=failed,
                span_tree=[s.as_dict(d) for d, s in sp.walk()],
            )
        else:
            obs.events.emit(
                "request",
                level="info",
                op=op,
                session=session_id,
                seconds=round(seconds, 6),
                failed=failed,
            )

    # -- compute handlers (inside session.serving) ---------------------
    def _handle_fill(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        session.ensure_caches()
        work = session.layout.copy_without_fills()
        engine = DummyFillEngine(session.config)
        report = engine.run(work, session.grid, analysis=session.analysis)
        violations = work.check_drc()
        data = gdsii_bytes(work)
        session.layout = work
        session.last_report = report
        return {
            "gds": data,
            "summary": report.summary(),
            "num_fills": work.num_fills,
            "drc_violations": len(violations),
        }

    def _handle_score(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        layout = session.layout
        grid = session.grid
        reference = layout.copy_without_fills()
        ref_grid = WindowGrid(reference.die, grid.cols, grid.rows)
        weights = calibrate_weights(reference, ref_grid, *DEFAULT_BETAS)
        size = file_size_mb(measure_file_size(layout))
        card = score_layout(layout, grid, weights, file_size=size)
        return {"scores": dict(card.as_row())}

    def _handle_drc_audit(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        violations = session.layout.check_drc()
        return {
            "count": len(violations),
            "violations": [str(v) for v in violations[:50]],
        }

    def _handle_eco_delta(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        wires = wires_from_json(params.get("wires") or {})
        if not wires:
            raise ValueError("eco_delta needs a non-empty 'wires' mapping")
        session.ensure_caches()
        report = apply_eco(
            session.layout,
            session.grid,
            wires,
            session.config,
            analysis=session.analysis,
            fill_indexes=build_fill_indexes(session.layout),
        )
        if report.analysis is not None:
            session.analysis = report.analysis
        data = gdsii_bytes(session.layout)
        return {
            "gds": data,
            "summary": report.summary(),
            "new_wires": report.new_wires,
            "removed_fills": report.removed_fills,
            "new_fills": report.new_fills,
            "affected_windows": len(report.affected_windows),
        }


_COMPUTE_HANDLERS = {
    "fill": FillService._handle_fill,
    "score": FillService._handle_score,
    "drc_audit": FillService._handle_drc_audit,
    "eco_delta": FillService._handle_eco_delta,
}


def _ok(result: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "result": result}


def _err(error_type: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"type": error_type, "message": message}}


class ServiceClient:
    """In-process client: the same request surface as the socket client.

    Used by tests and benchmarks to drive a :class:`FillService`
    without a socket; results carry raw ``bytes`` where the wire
    protocol would carry base64.
    """

    def __init__(self, service: FillService):
        self.service = service

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Execute one op; returns its result or raises :class:`ServiceError`."""
        response = self.service.handle({"op": op, **params})
        if response["ok"]:
            result: Dict[str, Any] = response["result"]
            return result
        error = response["error"]
        raise ServiceError(error["type"], error["message"])

    def batch(self, requests: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Submit a batch; returns per-request response dicts in order."""
        result = self.request("batch", requests=list(requests))
        responses: List[Dict[str, Any]] = result["responses"]
        return responses
