"""Tests for the shard executor and the engine's parallel band sweep.

Each stage runs a band's window columns as contiguous parts and the
results merge in part order, so parallelism can only change wall
clock, never bytes; ``tests/test_differential.py`` pins the bytes at
every worker count and backend.  These tests pin what the bytes cannot
show: the partition rule, the executor's error handling, and the part
spans and worker counters merged into the caller's run record.
"""

import multiprocessing  # repro: noqa[REP008] (exercises the executor's own pool)
import os
import random

import pytest

from repro import obs
from repro.core import DummyFillEngine, FillConfig
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid
from repro.parallel import (
    ParallelConfigError,
    resolve_workers,
    run_sharded,
    shard_bounds,
)

from ..conftest import TEST_BACKENDS

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def demo_layout(num_layers=3, seed=11, die=1200, windows=3):
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, die, die), num_layers=num_layers, rules=RULES)
    for n in layout.layer_numbers:
        for _ in range(40):
            x, y = rng.randrange(0, die - 100), rng.randrange(0, die - 50)
            w, h = rng.randrange(30, 120), rng.randrange(15, 40)
            layout.layer(n).add_wire(Rect(x, y, min(die, x + w), min(die, y + h)))
    return layout, WindowGrid(layout.die, windows, windows)


def shard_items(items, num_shards):
    """``items`` cut into contiguous chunks by the ``shard_bounds`` rule."""
    return [list(items[start:end]) for start, end in shard_bounds(len(items), num_shards)]


def run_filled(config, seed=11):
    layout, grid = demo_layout(seed=seed)
    report = DummyFillEngine(config).run(layout, grid)
    return layout, grid, report


class TestShardItems:
    """The partition rule that cuts columns into bands and bands into parts."""

    def test_partition_preserves_order(self):
        items = list(range(10))
        shards = shard_items(items, 3)
        assert [x for shard in shards for x in shard] == items

    def test_balanced_sizes(self):
        sizes = [len(s) for s in shard_items(list(range(10)), 3)]
        assert sizes == [4, 3, 3]

    def test_more_shards_than_items(self):
        shards = shard_items([1, 2], 5)
        assert shards == [[1], [2]]

    def test_empty(self):
        assert shard_items([], 4) == []

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            shard_items([1], 0)


class TestResolveWorkers:
    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_zero_counts_the_cpus_the_process_may_run_on(self, monkeypatch):
        # pinned to one CPU of an eight-core host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(0) == 1
        assert FillConfig(workers=0).effective_workers() == 1
        # platforms without an affinity mask fall back to the core count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers(0) == 8

    def test_negative_rejected(self):
        with pytest.raises(ParallelConfigError):
            resolve_workers(-1)


def _double_shard(shared, shard):
    obs.metrics.counter("double.items").inc(len(shard))
    with obs.span("double.inner"):
        return [shared * x for x in shard]


class TestRunSharded:
    def test_results_in_shard_order(self):
        shards = shard_items(list(range(8)), 3)
        out = run_sharded(
            _double_shard, 10, shards, workers=3, backend="serial"
        )
        assert [x for vals in out for x in vals] == [10 * x for x in range(8)]

    def test_unknown_backend(self):
        with pytest.raises(ParallelConfigError):
            run_sharded(_double_shard, 1, [[1]], workers=2, backend="magic")

    def test_empty_shards(self):
        assert run_sharded(_double_shard, 1, [], workers=4) == []

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_spans_and_metrics_merged_in_shard_order(self, backend):
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        restore_t = obs.set_tracer(tracer)
        restore_r = obs.set_registry(registry)
        try:
            with obs.span("outer"):
                run_sharded(
                    _double_shard,
                    2,
                    shard_items(list(range(6)), 3),
                    workers=3,
                    backend=backend,
                    label="double.shard",
                )
            (outer,) = tracer.roots
            names = [child.name for child in outer.children]
            assert names == ["double.shard[0]", "double.shard[1]", "double.shard[2]"]
            assert all(
                child.children and child.children[0].name == "double.inner"
                for child in outer.children
            )
            assert registry.counter("double.items").value == 6
        finally:
            restore_r()
            restore_t()


def _raise_oserror(shared, shard):
    raise OSError("shard exploded")


def _raise_in_worker_only(shared, shard):
    if multiprocessing.parent_process() is not None:
        raise OSError("worker-only failure")
    return list(shard)


def _process_pool_works():
    from concurrent.futures import ProcessPoolExecutor  # repro: noqa[REP008]

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result() == 1
    except (OSError, PermissionError):
        return False


class TestShardErrorPropagation:
    """A shard fn's own errors must propagate, never trigger the
    silent serial re-execution reserved for pool *startup* failures."""

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_shard_fn_oserror_propagates(self, backend):
        with pytest.raises(OSError, match="shard exploded"):
            run_sharded(
                _raise_oserror, None, [[1], [2]], workers=2, backend=backend
            )

    def test_worker_error_not_masked_by_serial_rerun(self):
        # The fn fails only inside a pool worker and would succeed if
        # re-run in the parent — the old fallback swallowed the worker
        # OSError and returned the parent's results as if nothing broke.
        if not _process_pool_works():
            pytest.skip("process pools unavailable in this sandbox")
        with pytest.raises(OSError, match="worker-only failure"):
            run_sharded(
                _raise_in_worker_only,
                None,
                [[1], [2]],
                workers=2,
                backend="process",
            )

    def test_pool_startup_failure_still_falls_back(self, monkeypatch):
        from repro.parallel import executor

        def broken_start(fn, shared, workers):
            raise OSError("no semaphores")

        monkeypatch.setattr(executor, "_start_pool", broken_start)
        out = run_sharded(
            _double_shard,
            10,
            shard_items(list(range(4)), 2),
            workers=2,
            backend="process",
        )
        assert [x for vals in out for x in vals] == [10 * x for x in range(4)]


class TestEngineDeterminism:
    def test_stage_tree_shape_unchanged(self):
        _, _, base_report = run_filled(FillConfig(workers=1))
        _, _, report = run_filled(FillConfig(workers=4))
        assert set(report.stage_seconds) == set(base_report.stage_seconds)

    def test_shard_spans_grafted_under_stage_spans(self):
        tracer = obs.Tracer()
        restore = obs.set_tracer(tracer)
        try:
            run_filled(FillConfig(workers=2, parallel="serial"))
        finally:
            restore()
        (run_root,) = [r for r in tracer.roots if r.name == "engine.run"]
        stages = {c.name: c for c in run_root.children}
        analysis_children = [c.name for c in stages["analysis"].children]
        cand_children = [c.name for c in stages["candidates"].children]
        sizing_children = [c.name for c in stages["sizing"].children]
        assert analysis_children == ["analysis.part[0]", "analysis.part[1]"]
        assert cand_children == ["candidates.part[0]", "candidates.part[1]"]
        assert sizing_children == ["sizing.part[0]", "sizing.part[1]"]
        for child in (
            stages["analysis"].children
            + stages["candidates"].children
            + stages["sizing"].children
        ):
            assert child.start_offset >= run_root.start_offset

    def test_worker_counters_survive_merge(self):
        registry = obs.MetricsRegistry()
        restore = obs.set_registry(registry)
        try:
            layout, grid, _ = run_filled(FillConfig(workers=3, parallel="serial"))
        finally:
            restore()
        assert registry.counter("candidates.windows").value == grid.num_windows
        assert registry.counter("analysis.layers").value == layout.num_layers


class TestConfigValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            FillConfig(workers=-1)

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "thread"):
            with pytest.raises(ValueError):
                FillConfig(parallel=backend)

    def test_effective_workers(self):
        assert FillConfig(workers=5).effective_workers() == 5
        assert FillConfig(workers=0).effective_workers() >= 1
