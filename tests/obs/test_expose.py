"""Tests for Prometheus exposition: grammar, buckets, HTTP scrape.

The grammar tests lint every emitted line against the text-format 0.0.4
shapes (HELP/TYPE comments, `name{labels} value`), so a malformed line
fails with the offending text in the assertion message — the closest a
unit test gets to running a real scraper over the output.
"""

import json
import math
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.expose import (
    RollingQuantiles,
    TelemetryServer,
    metric_name,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    restore = obs.set_registry(reg)
    yield reg
    restore()


# Prometheus text format 0.0.4 line shapes.  Values allow integers,
# floats, scientific notation and +/-Inf; label values here are only
# ever le="..." / quantile="..." so a tight pattern is fine.
_VALUE = r"[+-]?(?:Inf|\d+(?:\.\d+)?(?:e[+-]?\d+)?)"
_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP {_NAME} .+$")
_TYPE_RE = re.compile(rf"^# TYPE {_NAME} (?:counter|gauge|histogram|summary|untyped)$")
_SAMPLE_RE = re.compile(
    rf'^{_NAME}(?:\{{{_NAME}="[^"\\\n]*"(?:,{_NAME}="[^"\\\n]*")*\}})? {_VALUE}$'
)


def lint(text):
    """Assert every line of an exposition body matches the grammar."""
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        ok = (
            _HELP_RE.match(line)
            or _TYPE_RE.match(line)
            or _SAMPLE_RE.match(line)
        )
        assert ok, f"line violates text-format grammar: {line!r}"


class TestMetricName:
    def test_dotted_to_underscored(self):
        assert metric_name("service.latency.fill") == "repro_service_latency_fill"

    def test_illegal_chars_replaced(self):
        assert metric_name("a b-c/d") == "repro_a_b_c_d"

    def test_no_namespace(self):
        assert metric_name("x.y", namespace="") == "x_y"


class TestRenderGrammar:
    def test_every_line_matches_grammar(self, registry):
        obs.metrics.counter("service.requests.fill").inc(3)
        obs.metrics.gauge("service.sessions.evicted").set(2)
        h = obs.metrics.histogram("lp.solve.seconds")
        for v in [0.004, 0.02, 0.5, 7.0]:
            h.observe(v)
        rolling = RollingQuantiles(window=8)
        rolling.observe("fill", 0.25)
        rolling.observe("fill", 0.75)
        lint(render_prometheus(registry, rolling=rolling))

    def test_counter_gets_total_suffix(self, registry):
        obs.metrics.counter("service.requests").inc()
        text = render_prometheus(registry)
        assert "repro_service_requests_total 1\n" in text
        assert "# TYPE repro_service_requests_total counter" in text

    def test_empty_registry_renders_empty(self, registry):
        assert render_prometheus(registry) == ""

    def test_active_registry_default(self, registry):
        obs.metrics.counter("c").inc()
        assert "repro_c_total 1" in render_prometheus()


class TestHistogramExposition:
    def test_buckets_cumulative_and_le_sorted(self, registry):
        h = obs.metrics.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in [0.05, 0.5, 0.5, 5.0, 50.0]:
            h.observe(v)
        text = render_prometheus(registry)
        bucket_re = re.compile(r'repro_lat_bucket\{le="([^"]+)"\} (\d+)')
        pairs = [
            (math.inf if le == "+Inf" else float(le), int(n))
            for le, n in bucket_re.findall(text)
        ]
        assert [le for le, _ in pairs] == [0.1, 1.0, 10.0, math.inf]
        counts = [n for _, n in pairs]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts == [1, 3, 4, 5]
        assert "repro_lat_count 5" in text
        assert "repro_lat_sum " in text

    def test_inf_bucket_equals_count(self, registry):
        h = obs.metrics.histogram("x")
        for v in range(20):
            h.observe(float(v))
        text = render_prometheus(registry)
        m = re.search(r'repro_x_bucket\{le="\+Inf"\} (\d+)', text)
        assert m and int(m.group(1)) == 20


class TestRollingQuantiles:
    def test_window_bounds_history(self):
        rq = RollingQuantiles(window=4)
        for v in [100.0, 100.0, 100.0, 1.0, 2.0, 3.0, 4.0]:
            rq.observe("op", v)
        snap = rq.snapshot()["op"]
        assert snap["window"] == 4
        assert snap["p50"] == pytest.approx(2.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RollingQuantiles(window=0)

    def test_rendered_as_quantile_gauges(self, registry):
        rq = RollingQuantiles(window=8)
        rq.observe("fill", 2.0)
        text = render_prometheus(registry, rolling=rq)
        assert 'repro_fill_window{quantile="0.5"} 2' in text
        assert 'repro_fill_window{quantile="0.99"} 2' in text
        assert "repro_fill_window_size 1" in text
        lint(text)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


class TestTelemetryServer:
    def test_metrics_and_healthz(self, registry):
        obs.metrics.counter("hits").inc(7)
        with TelemetryServer(
            lambda: render_prometheus(registry),
            health=lambda: {"status": "ok", "workers": 2},
        ) as srv:
            status, headers, body = _get(f"{srv.address}/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
            assert "repro_hits_total 7" in body
            lint(body)
            status, _, body = _get(f"{srv.address}/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok", "workers": 2}

    def test_unknown_path_404(self, registry):
        with TelemetryServer(lambda: "") as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(f"{srv.address}/nope")
            assert exc.value.code == 404

    def test_scrape_during_active_writes(self, registry):
        """Scrapes stay well-formed while instruments mutate concurrently."""
        h = obs.metrics.histogram("busy.seconds")
        c = obs.metrics.counter("busy.ops")
        stop = threading.Event()

        def hammer():
            v = 0
            while not stop.is_set():
                c.inc()
                h.observe((v % 100) / 10.0)
                v += 1

        writer = threading.Thread(target=hammer, daemon=True)
        writer.start()
        try:
            with TelemetryServer(lambda: render_prometheus(registry)) as srv:
                for _ in range(20):
                    _, _, body = _get(f"{srv.address}/metrics")
                    lint(body)
                    assert "repro_busy_ops_total" in body
        finally:
            stop.set()
            writer.join(timeout=5)
