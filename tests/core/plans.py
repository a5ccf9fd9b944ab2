"""Helpers for candidate plans and sized fills held as box arrays.

:data:`~repro.core.CandidatePlan` and :data:`~repro.core.sizing.SizedFills`
map each window to a mapping of layer to an ``(k, 4)`` int64 box array;
the scalar oracles return the same mappings with rect lists.
"""

import numpy as np

from repro.geometry import boxes, rects_of


def rect_plan(plan):
    """``plan`` with every box array as its rect list, keys in order."""
    return {key: {n: rects_of(box) for n, box in per.items()} for key, per in plan.items()}


def box_plan(plan):
    """``plan`` with every rect list as its box array, keys in order."""
    return {key: {n: boxes(rects, len(rects)) for n, rects in per.items()} for key, per in plan.items()}


def assert_box_entries(plan):
    """Every entry of ``plan`` is an ``(k, 4)`` int64 array."""
    for key, per in plan.items():
        for n, box in per.items():
            assert isinstance(box, np.ndarray), (key, n)
            assert box.dtype == np.int64 and box.ndim == 2 and box.shape[1] == 4, (key, n)
