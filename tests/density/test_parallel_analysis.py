"""Tests for the engine's column-part density analysis: the part spans
and merged counters a run record shows.

The analysis runs a band's window columns as contiguous parts and
copies each part's columns into the result in part order, so it is
bit-identical to one serial :func:`analyze_layout` of the whole die;
``tests/test_differential.py`` pins the output bytes that rest on it at
every worker count and backend.
"""

import random

import pytest

from repro import obs
from repro.core import DummyFillEngine, FillConfig
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid

from ..conftest import TEST_BACKENDS

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def wired_layout(windows=3):
    rng = random.Random(5)
    layout = Layout(Rect(0, 0, 1200, 1200), num_layers=4, rules=RULES)
    for n in layout.layer_numbers:
        for _ in range(50):
            x, y = rng.randrange(0, 1080), rng.randrange(0, 1160)
            w, h = rng.randrange(30, 120), rng.randrange(15, 40)
            layout.layer(n).add_wire(Rect(x, y, x + w, y + h))
    return layout, WindowGrid(layout.die, windows, windows)


class TestAnalyzeLayoutParity:
    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_fewer_columns_than_workers(self, backend):
        # one part per column, never an empty part
        layout, grid = wired_layout(windows=2)
        tracer = obs.Tracer()
        restore = obs.set_tracer(tracer)
        try:
            DummyFillEngine(FillConfig(workers=4, parallel=backend)).analyze(layout, grid)
        finally:
            restore()
        assert [span.name for span in tracer.roots] == ["analysis.part[0]", "analysis.part[1]"]


class TestAnalysisSharding:
    def test_shard_spans_under_analysis_stage(self):
        layout, grid = wired_layout()
        tracer = obs.Tracer()
        restore = obs.set_tracer(tracer)
        try:
            DummyFillEngine(FillConfig(workers=2, parallel="serial")).run(
                layout, grid
            )
        finally:
            restore()
        (run_root,) = [r for r in tracer.roots if r.name == "engine.run"]
        analysis = run_root.child("analysis")
        names = [c.name for c in analysis.children]
        assert names == ["analysis.part[0]", "analysis.part[1]"]
        # three window columns: two in the first part, one in the second
        assert [c.attrs["items"] for c in analysis.children] == [2, 1]

    def test_stage_seconds_worker_agnostic(self):
        layout, grid = wired_layout()
        report = DummyFillEngine(FillConfig(workers=2, parallel="serial")).run(
            layout, grid
        )
        assert "analysis" in report.stage_seconds
        assert report.stage_seconds["analysis"] > 0.0

    def test_layer_counter_merged(self):
        layout, grid = wired_layout()
        registry = obs.MetricsRegistry()
        restore = obs.set_registry(registry)
        try:
            DummyFillEngine(FillConfig(workers=2, parallel="serial")).analyze(layout, grid)
        finally:
            restore()
        assert registry.counter("analysis.layers").value == layout.num_layers
