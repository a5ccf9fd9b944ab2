"""Candidate plans and sized fills as box arrays, through every hand-off.

Every :data:`~repro.core.CandidatePlan` and
:data:`~repro.core.sizing.SizedFills` entry is an ``(k, 4)`` int64 box
array, ``(0, 4)`` when the window layer has none: out of
:func:`~repro.core.generate_candidates` and
:func:`~repro.core.size_fills` (read-only there), back from a worker
pool and after a :class:`~repro.core.stream.SpillBands` keep/take round
trip.  Read as rects, the entries equal the scalar oracles' lists
(``test_candidates_batch.py``, ``test_sizing_batch.py``), and
:func:`~repro.core.candidates.candidate_area_maps` is the per-rect area
sum.
"""

import random

import numpy as np
import pytest

from repro.core import DummyFillEngine, FillConfig, generate_candidates, size_fills
from repro.core.candidates import candidate_area_maps
from repro.core.engine import _ResidentBand
from repro.core.stream import SpillBands
from repro.geometry import Rect, boxes, rects_of
from repro.layout import BandPlan, ShapeSpill, WindowGrid

from ..conftest import TEST_BACKENDS
from . import candidates_oracle
from .plans import assert_box_entries, box_plan, rect_plan
from .test_candidates_batch import make_case as candidate_case
from .test_sizing_batch import _config as sizing_config
from .test_sizing_batch import make_case as sizing_case


def _assert_read_only_entries(plans):
    entries = []
    for plan in plans:
        assert_box_entries(plan)
        entries += [box for per in plan.values() for box in per.values()]
    assert all(not box.flags.writeable for box in entries)
    # both kinds occur: empty window layers and filled ones
    assert any(box.shape == (0, 4) for box in entries)
    assert any(len(box) for box in entries)


def _assert_same_plan(got, want):
    assert list(got) == list(want)
    for key, per in want.items():
        assert list(got[key]) == list(per), key
        for n, box in per.items():
            assert got[key][n].dtype == np.int64 and got[key][n].shape[1:] == (4,)
            assert np.array_equal(got[key][n], box), (key, n)


def test_generated_entries_are_read_only_box_arrays():
    plans = []
    for seed in range(4):
        layout, grid, analysis, plan, config = candidate_case(seed)
        plans.append(generate_candidates(layout, grid, plan, analysis, config))
        assert rect_plan(plans[-1]) == candidates_oracle.generate_candidates(
            layout, grid, plan, analysis, config
        )
    _assert_read_only_entries(plans)


def test_sized_entries_are_read_only_box_arrays():
    plans = []
    for seed in range(4):
        layout, grid, plan, targets = sizing_case(seed)
        config = sizing_config(seed, "mcf-ssp", 2)
        plans.append(size_fills(layout, grid, box_plan(plan), targets, config)[0])
        # a window whose candidates are all empty maps to (0, 4) arrays
        for key, per in plan.items():
            if not any(per.values()):
                assert all(box.shape == (0, 4) for box in plans[-1][key].values()), key
    _assert_read_only_entries(plans)


class _Recorded(_ResidentBand):
    """A resident band that keeps a copy of the candidate plan it holds."""

    def keep(self, what, band, value):
        if what == "candidates":
            self.candidates = value
        super().keep(what, band, value)


@pytest.mark.parametrize("backend", TEST_BACKENDS)
def test_plans_cross_the_worker_pool(backend):
    layout, grid, _, _, _ = candidate_case(2)

    def sweep(config):
        source = _Recorded(layout, grid)
        DummyFillEngine(config).sweep(source)
        return source.candidates, source.sized

    serial = sweep(FillConfig())
    pooled = sweep(FillConfig(workers=2, parallel=backend))
    for got, want in zip(pooled, serial):
        assert_box_entries(got)
        _assert_same_plan(got, want)


def test_spill_round_trip_keeps_box_arrays(tmp_path):
    layout, grid, analysis, plan, config = candidate_case(3)
    candidates = generate_candidates(layout, grid, plan, analysis, config)
    bands = BandPlan(grid, 2)
    spill = ShapeSpill(bands, str(tmp_path), "fills")
    source = SpillBands(bands, spill, spill, layout.rules, layout.num_layers, {}, str(tmp_path), 16)
    source.keep("candidates", 1, candidates)
    back = source.take("candidates", 1)
    assert_box_entries(back)
    _assert_same_plan(back, candidates)


@pytest.mark.parametrize("seed", range(6))
def test_candidate_area_maps_is_the_rect_area_sum(seed):
    rng = random.Random(f"area-{seed}")
    grid = WindowGrid(Rect(0, 0, 900, 600), 3, 2)
    numbers = [1, 2, 3]
    plan = {}
    for i, j, window in grid:
        if rng.random() < 0.2:
            continue  # a window outside the plan
        per = {}
        for n in numbers:
            if rng.random() < 0.2:
                continue  # a layer the window does not list
            rects = []
            for _ in range(rng.choice((0, 0, 1, 5, 40))):
                x, y = rng.randrange(window.xl, window.xh - 50), rng.randrange(window.yl, window.yh - 50)
                rects.append(Rect(x, y, x + rng.randrange(1, 50), y + rng.randrange(1, 50)))
            per[n] = boxes(rects, len(rects))
        plan[(i, j)] = per
    maps = candidate_area_maps(plan, grid, numbers)
    for n in numbers:
        assert maps[n].shape == (grid.cols, grid.rows) and maps[n].dtype == np.float64
        want = np.zeros((grid.cols, grid.rows))
        for (i, j), per in plan.items():
            want[i, j] = float(sum(r.area for r in rects_of(per.get(n, boxes([], 0)))))
        assert np.array_equal(maps[n], want), n
    assert all(not m.any() for m in candidate_area_maps({}, grid, numbers).values())
