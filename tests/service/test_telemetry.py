"""Tests for the service telemetry surface: stats/metrics ops, slow
requests, per-request profiling."""

import contextlib
import io
import json
import re

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.service import FillService, ServiceClient

from .conftest import CONFIG_MAPPING, RULES_MAPPING


@pytest.fixture(autouse=True)
def fresh_obs():
    """Isolate each test's instruments from the process-wide registry."""
    restore_reg = obs.set_registry(MetricsRegistry())
    restore_tr = obs.set_tracer(Tracer())
    yield
    restore_tr()
    restore_reg()


def open_session(client, gds_bytes, **overrides):
    params = {
        "gds": gds_bytes,
        "windows": 4,
        "rules": RULES_MAPPING,
        "config": CONFIG_MAPPING,
    }
    params.update(overrides)
    return client.request("open_session", **params)["session"]


@contextlib.contextmanager
def captured_events(level="info"):
    """Route the process-wide event log into a buffer for one block."""
    buf = io.StringIO()
    obs.events.configure(level=level, stream=buf)
    try:
        yield buf
    finally:
        obs.events.configure(level="warning", stream=io.StringIO())


def events_of(buf, name):
    return [
        rec
        for rec in (json.loads(line) for line in buf.getvalue().splitlines())
        if rec["event"] == name
    ]


class TestStatsOp:
    def test_fresh_service_stats(self, gds_bytes):
        with FillService() as svc:
            client = ServiceClient(svc)
            stats = client.request("stats")
        assert sorted(stats) == ["errors", "latency", "profiling", "requests", "sessions", "uptime_s"]
        assert stats["sessions"] == 0
        assert stats["requests"] == {}
        assert stats["errors"] == 0.0
        assert stats["latency"] == {}
        assert stats["profiling"] is None
        assert stats["uptime_s"] >= 0.0

    def test_stats_after_requests(self, gds_bytes):
        with FillService() as svc:
            client = ServiceClient(svc)
            sid = open_session(client, gds_bytes)
            client.request("fill", session=sid)
            client.request("fill", session=sid)
            client.request("score", session=sid)
            stats = client.request("stats")
        assert stats["sessions"] == 1
        assert stats["requests"]["fill"] == 2
        assert stats["requests"]["score"] == 1
        lat = stats["latency"]
        assert lat["fill"]["window"] == 2
        assert lat["fill"]["p50"] > 0.0
        assert lat["score"]["window"] == 1

    def test_stats_does_not_mint_instruments(self, gds_bytes):
        with FillService() as svc:
            client = ServiceClient(svc)
            before = set(svc._registry.names())
            client.request("stats")
            client.request("stats")
            assert set(svc._registry.names()) == before


class TestMetricsOp:
    def test_metrics_op_returns_exposition_text(self, gds_bytes):
        with FillService() as svc:
            client = ServiceClient(svc)
            sid = open_session(client, gds_bytes)
            client.request("fill", session=sid)
            text = client.request("metrics")["text"]
        assert text.endswith("\n")
        assert "repro_service_requests_fill_total 1" in text
        assert "# TYPE repro_service_latency_fill histogram" in text
        assert re.search(
            r'repro_service_latency_fill_bucket\{le="\+Inf"\} 1', text
        )
        # rolling-window gauges ride along
        assert 'repro_fill_window{quantile="0.5"}' in text

    def test_render_matches_op(self, gds_bytes):
        with FillService() as svc:
            client = ServiceClient(svc)
            sid = open_session(client, gds_bytes)
            client.request("score", session=sid)
            assert client.request("metrics")["text"] == svc.render_metrics()


class TestHealth:
    def test_health_tracks_lifecycle(self, gds_bytes):
        svc = FillService()
        with svc:
            client = ServiceClient(svc)
            open_session(client, gds_bytes)
            live = svc.health()
        assert live == {"status": "ok", "sessions": 1}
        assert svc.health()["status"] == "stopped"


class TestSlowRequests:
    def test_slow_request_event_carries_span_tree(self, gds_bytes):
        with captured_events(level="info") as buf:
            with FillService(slow_ms=0.0) as svc:
                client = ServiceClient(svc)
                sid = open_session(client, gds_bytes)
                client.request("fill", session=sid)
        (slow,) = events_of(buf, "slow_request")
        assert slow["level"] == "warning"
        assert slow["op"] == "fill"
        assert slow["threshold_ms"] == 0.0
        assert slow["failed"] is False
        tree = slow["span_tree"]
        assert tree[0]["name"] == "service.request"
        assert any(node["name"] == "engine.run" for node in tree)

    def test_fast_requests_emit_info_only(self, gds_bytes):
        with captured_events(level="info") as buf:
            with FillService(slow_ms=60000.0) as svc:
                client = ServiceClient(svc)
                sid = open_session(client, gds_bytes)
                client.request("fill", session=sid)
        assert events_of(buf, "slow_request") == []
        (req,) = events_of(buf, "request")
        assert req["op"] == "fill" and req["failed"] is False
        assert "job" not in req

    def test_slow_counter_increments(self, gds_bytes):
        with FillService(slow_ms=0.0) as svc:
            client = ServiceClient(svc)
            sid = open_session(client, gds_bytes)
            client.request("fill", session=sid)
            client.request("score", session=sid)
            stats = client.request("stats")
        assert stats["requests"]["slow"] == 2

    def test_no_threshold_no_slow_accounting(self, gds_bytes):
        with FillService() as svc:
            client = ServiceClient(svc)
            sid = open_session(client, gds_bytes)
            client.request("fill", session=sid)
            stats = client.request("stats")
        assert "slow" not in stats["requests"]


class TestRequestProfiling:
    def test_stats_reports_arming(self, gds_bytes):
        with FillService(profile_ms=5.0) as svc:
            client = ServiceClient(svc)
            stats = client.request("stats")
        assert stats["profiling"] == {"period_ms": 5.0, "samples": 0}

    def test_profile_published_to_service_tracer(self, gds_bytes):
        with obs.record_run(label="profiled service") as rec:
            svc = FillService(profile_ms=1.0)
            with svc:
                client = ServiceClient(svc)
                sid = open_session(client, gds_bytes)
                # repeat until the sampler lands at least one hit; each
                # fill runs for a few ms against the 1 ms period
                for _ in range(50):
                    client.request("fill", session=sid)
                    if svc._profile.samples:
                        break
        record = rec.record
        if not svc._profile.samples:
            pytest.skip("sampler never fired on this machine")
        assert record.profile is not None
        assert record.profile["period_ms"] == 1.0
        assert record.profile["samples"] >= 1
        assert all(
            key.startswith("service.request")
            for key in record.profile["folded"]
        )

    def test_disarmed_service_records_no_profile(self, gds_bytes):
        with obs.record_run(label="plain service") as rec:
            with FillService() as svc:
                client = ServiceClient(svc)
                sid = open_session(client, gds_bytes)
                client.request("fill", session=sid)
        assert rec.record.profile is None
