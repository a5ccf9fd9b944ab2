"""Parity tests for the engine's column-part density analysis.

The contract (see ``docs/PERFORMANCE.md``): the engine's analysis
(:meth:`DummyFillEngine.analyze`, the sweep's analysis stage) is
*bit-identical* to one serial :func:`analyze_layout` of the whole die
for every worker count and backend — same layer key order, equal
``lower``/``upper`` arrays down to the bit, equal per-window fill
regions — because the parts are contiguous runs of whole window
columns and each part's columns are copied into the result in part
order.
"""

import os
import random

import numpy as np
import pytest

from repro import obs
from repro.core import DummyFillEngine, FillConfig
from repro.density import analyze_layout
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid
from repro.parallel import BACKENDS

#: REPRO_TEST_BACKEND narrows the parametrized suites to one backend
#: (the CI process-pool pass sets it to "process").
TEST_BACKENDS = (
    (os.environ["REPRO_TEST_BACKEND"],)
    if "REPRO_TEST_BACKEND" in os.environ
    else BACKENDS
)

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def wired_layout(num_layers=4, seed=5, die=1200, windows=3, empty_layers=()):
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, die, die), num_layers=num_layers, rules=RULES)
    for n in layout.layer_numbers:
        if n in empty_layers:
            continue
        for _ in range(50):
            x, y = rng.randrange(0, die - 120), rng.randrange(0, die - 40)
            w, h = rng.randrange(30, 120), rng.randrange(15, 40)
            layout.layer(n).add_wire(Rect(x, y, x + w, y + h))
    return layout, WindowGrid(layout.die, windows, windows)


def serial_analysis(layout, grid, config):
    return analyze_layout(layout, grid, config.effective_margin(RULES.min_spacing))


def assert_same_analysis(result, base):
    assert list(result) == list(base)  # same layers, same key order
    for n in base:
        assert result[n].layer_number == base[n].layer_number
        assert np.array_equal(result[n].lower, base[n].lower)
        assert np.array_equal(result[n].upper, base[n].upper)
        assert result[n].fill_regions == base[n].fill_regions


def part_names(config, layout, grid):
    """Span names of the parts one engine analysis ran in."""
    tracer = obs.Tracer()
    restore = obs.set_tracer(tracer)
    try:
        DummyFillEngine(config).analyze(layout, grid)
    finally:
        restore()
    return [span.name for span in tracer.roots]


class TestAnalyzeLayoutParity:
    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_for_any_worker_count(self, backend, workers):
        layout, grid = wired_layout()
        config = FillConfig(workers=workers, parallel=backend)
        base = serial_analysis(layout, grid, config)
        result = DummyFillEngine(config).analyze(layout, grid)
        assert_same_analysis(result, base)

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_nonzero_window_margin(self, backend):
        layout, grid = wired_layout(seed=8)
        config = FillConfig(window_margin=7, workers=3, parallel=backend)
        base = analyze_layout(layout, grid, window_margin=7)
        result = DummyFillEngine(config).analyze(layout, grid)
        assert_same_analysis(result, base)

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_empty_layer(self, backend):
        layout, grid = wired_layout(empty_layers={2})
        config = FillConfig(workers=4, parallel=backend)
        base = serial_analysis(layout, grid, config)
        result = DummyFillEngine(config).analyze(layout, grid)
        assert_same_analysis(result, base)
        assert np.all(base[2].lower == 0.0)

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_single_layer_fewer_layers_than_workers(self, backend):
        layout, grid = wired_layout(num_layers=1)
        config = FillConfig(workers=4, parallel=backend)
        base = serial_analysis(layout, grid, config)
        result = DummyFillEngine(config).analyze(layout, grid)
        assert_same_analysis(result, base)

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_fewer_columns_than_workers(self, backend):
        layout, grid = wired_layout(windows=2)
        config = FillConfig(workers=4, parallel=backend)
        base = serial_analysis(layout, grid, config)
        result = DummyFillEngine(config).analyze(layout, grid)
        assert_same_analysis(result, base)
        # one part per column, never an empty part
        assert part_names(config, layout, grid) == ["analysis.part[0]", "analysis.part[1]"]

    def test_workers_zero_means_per_core(self):
        layout, grid = wired_layout(seed=2)
        config = FillConfig(workers=0, parallel="serial")
        base = serial_analysis(layout, grid, config)
        result = DummyFillEngine(config).analyze(layout, grid)
        assert_same_analysis(result, base)


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
