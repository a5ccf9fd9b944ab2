"""Tests for the sampling profiler: collector algebra, sampling, publish.

The profiler's hard guarantee — profiling never changes engine output —
is covered end to end in tests/test_cli.py (byte-identical GDS with and
without --profile); these tests pin down the collector/ sampler
mechanics that guarantee rests on.
"""

import threading
import time

import pytest

from repro import obs
from repro.obs.profile import (
    ProfileCollector,
    SamplingProfiler,
    active_collector,
    attached,
    profiled,
    publish,
)
from repro.obs.spans import Tracer


class TestProfileCollector:
    def test_add_and_snapshot(self):
        c = ProfileCollector()
        c.add("a;b")
        c.add("a;b")
        c.add("a;c")
        assert c.samples == 3
        assert c.folded_snapshot() == {"a;b": 2, "a;c": 1}

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            ProfileCollector(period_ms=0)

    def test_merge_folded_with_prefix(self):
        c = ProfileCollector()
        c.merge_folded({"sizing.shard[0];work": 5}, prefix="engine.run;sizing")
        assert c.folded_snapshot() == {"engine.run;sizing;sizing.shard[0];work": 5}
        assert c.samples == 5

    def test_merge_folded_accumulates(self):
        c = ProfileCollector()
        c.add("x")
        c.merge_folded({"x": 2})
        assert c.folded_snapshot() == {"x": 3}

    def test_stage_sample_counts(self):
        c = ProfileCollector()
        c.merge_folded(
            {
                "engine.run;sizing;f": 4,
                "engine.run;sizing;g;h": 2,
                "engine.run;candidates;f": 3,
                "engine.run": 1,  # no child segment: not attributed
                "other.root;sizing;f": 9,
            }
        )
        assert c.stage_sample_counts("engine.run") == {
            "sizing": 6,
            "candidates": 3,
        }

    def test_as_dict_sorted_json_ready(self):
        c = ProfileCollector(period_ms=5.0)
        c.add("b")
        c.add("a")
        d = c.as_dict()
        assert d["period_ms"] == 5.0
        assert d["samples"] == 2
        assert list(d["folded"]) == ["a", "b"]


def _busy_beacon(stop):
    """A distinctive frame the sampler should catch."""
    while not stop.is_set():
        sum(range(500))


class TestSamplingProfiler:
    def test_samples_own_thread_frames(self):
        stop = threading.Event()
        collector = ProfileCollector(period_ms=1.0)
        worker_ready = threading.Event()
        idents = {}

        def work():
            idents["worker"] = threading.get_ident()
            worker_ready.set()
            _busy_beacon(stop)

        t = threading.Thread(target=work, daemon=True)
        t.start()
        worker_ready.wait(5)
        profiler = SamplingProfiler(collector, target_ident=idents["worker"])
        profiler.start()
        time.sleep(0.15)
        profiler.stop()
        stop.set()
        t.join(5)
        assert collector.samples > 0
        assert any("_busy_beacon" in key for key in collector.folded_snapshot())

    def test_span_prefix_on_samples(self):
        tracer = Tracer()
        restore = obs.set_tracer(tracer)
        collector = ProfileCollector(period_ms=1.0)
        try:
            with obs.span("engine.run"):
                with obs.span("sizing"):
                    profiler = SamplingProfiler(collector).start()
                    try:
                        deadline = time.monotonic() + 2.0
                        while (
                            collector.samples < 5
                            and time.monotonic() < deadline
                        ):
                            sum(range(500))
                    finally:
                        profiler.stop()
        finally:
            restore()
        keys = list(collector.folded_snapshot())
        assert keys and all(k.startswith("engine.run;sizing;") for k in keys)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(ProfileCollector(period_ms=50.0))
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_idempotent(self):
        profiler = SamplingProfiler(ProfileCollector(period_ms=50.0))
        profiler.start()
        profiler.stop()
        profiler.stop()


class TestContextPlumbing:
    def test_attached_sets_active_collector(self):
        assert active_collector() is None
        collector = ProfileCollector(period_ms=50.0)
        with attached(collector):
            assert active_collector() is collector
        assert active_collector() is None

    def test_publish_sets_tracer_profile(self):
        tracer = Tracer()
        tracer.finish(tracer.start("a"))
        c = ProfileCollector(period_ms=5.0)
        c.add("a;b")
        publish(c, tracer=tracer)
        assert tracer.profile["samples"] == 1
        assert tracer.profile["folded"] == {"a;b": 1}

    def test_publish_folds_only_span_rooted_stacks(self):
        # A sample taken between spans is keyed by Python frames; it
        # counts as a sample but never reaches the folded profile.
        tracer = Tracer()
        tracer.finish(tracer.start("engine.run"))
        c = ProfileCollector(period_ms=1.0)
        c.add("engine.run;repro.core.engine.run")
        c.add("repro.cli.main;repro.cli._cmd_fill")
        publish(c, tracer=tracer)
        assert tracer.profile["samples"] == 2
        assert tracer.profile["folded"] == {"engine.run;repro.core.engine.run": 1}

    def test_publish_twice_merges(self):
        tracer = Tracer()
        for name in ("a", "b"):
            tracer.finish(tracer.start(name))
        c1 = ProfileCollector(period_ms=5.0)
        c1.add("a")
        c2 = ProfileCollector(period_ms=5.0)
        c2.add("a")
        c2.add("b")
        publish(c1, tracer=tracer)
        publish(c2, tracer=tracer)
        assert tracer.profile["samples"] == 3
        assert tracer.profile["folded"] == {"a": 2, "b": 1}

    def test_profiled_publishes_to_active_tracer(self):
        tracer = Tracer()
        restore = obs.set_tracer(tracer)
        try:
            with profiled(period_ms=1.0) as collector, obs.span("work"):
                deadline = time.monotonic() + 2.0
                while collector.samples < 3 and time.monotonic() < deadline:
                    sum(range(500))
        finally:
            restore()
        profile = tracer.profile
        assert profile["period_ms"] == 1.0
        assert profile["samples"] >= 3
        assert profile["folded"]
