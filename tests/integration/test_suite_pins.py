"""The serial engine's fills of suites s, b and m, pinned.

``tests/test_differential.py`` compares execution modes with one
another, so a change that moves every mode's bytes alike passes it.
These pins hold the output itself: the full sha256 of each suite's
GDSII after a ``FillConfig(eta=0.2)`` fill, and the fill's
:class:`~repro.core.SizingStats` as ``(lp_solves, variables,
constraints, dropped_fills, windows)``.  The fill's Alg. 1 output is
pinned too, so a candidate change that sizing absorbs still shows: the
sha256 of its :data:`~repro.core.CandidatePlan` (:func:`plan_digest`)
and ``FillReport.num_candidates``.  The greedy and coupling-LP
baselines' fills of suite s are pinned the same way.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import coupling_lp_fill, greedy_fill
from repro.bench.generator import generate_layout
from repro.bench.suite import SUITE_SPECS
from repro.core import DummyFillEngine, FillConfig, engine
from repro.gdsii import gdsii_bytes
from repro.layout import WindowGrid

PINS = {
    "s": (
        "2938b50a6219f1b493721f8be8e99c8aa4aa953e757abb0651cf8dc41101b267",
        (167, 10222, 5111, 23, 64),
    ),
    "b": (
        "5137faa3edac31adb88c4b219639f68845bb83b98faa1a93ec3471ed24c93546",
        (846, 60628, 30314, 474, 256),
    ),
    "m": (
        "b73681e22f7c5c550a2808b33496f318195fc749506f929e5dff3d160d6f8ac0",
        (1892, 136438, 68219, 1043, 576),
    ),
}


#: suite -> (sha256 of the CandidatePlan, FillReport.num_candidates)
CANDIDATE_PINS = {
    "s": ("9ab2dd1f592ec7412a79186c3cfa644e206fbcf0bb2751393f145f1250e69d0a", 2047),
    "b": ("37d591156fa5662487b4d3a360e46b6557225bc48b2ac1ad01a78254918bf4f4", 9637),
    "m": ("2f60fa920d3f851f166f1242c6884bf84315e7398fcdb9c86f634cec060a2854", 21895),
}


def plan_digest(plans):
    """sha256 over candidate plans in order: per window and layer, the
    row ``(i, j, layer, count)`` and then one ``(xl, yl, xh, yh)`` row
    per rect, as int64."""
    rows = []
    for plan in plans:
        for (i, j), per_layer in plan.items():
            for layer, rects in per_layer.items():
                rows.append((i, j, layer, len(rects)))
                rows.extend((r.xl, r.yl, r.xh, r.yh) for r in rects)
    return hashlib.sha256(np.array(rows, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("suite", sorted(PINS))
def test_suite_fill_is_pinned(suite, monkeypatch):
    spec, (cols, rows), _, _ = SUITE_SPECS[suite]
    layout = generate_layout(spec)
    plans = []

    def recorded(*args, **kwargs):
        plans.append(generate(*args, **kwargs))
        return plans[-1]

    generate = engine.generate_candidates
    monkeypatch.setattr(engine, "generate_candidates", recorded)
    report = DummyFillEngine(FillConfig(eta=0.2)).run(
        layout, WindowGrid(layout.die, cols, rows)
    )
    s = report.sizing
    digest, stats = PINS[suite]
    assert (s.lp_solves, s.variables, s.constraints, s.dropped_fills, s.windows) == stats
    assert hashlib.sha256(gdsii_bytes(layout)).hexdigest() == digest
    assert (plan_digest(plans), report.num_candidates) == CANDIDATE_PINS[suite]


BASELINE_PINS = {
    "greedy": (greedy_fill, "9647bbc370dc39403fbd9f813c29f67508f0e643ee1807d686e133a366d077d6"),
    "coupling_lp": (
        coupling_lp_fill,
        "f853d8123feb6395332d2f989ac1af6e29fb8c38bf67b2ddc7cb71b37e78eeee",
    ),
}


@pytest.mark.parametrize("baseline", sorted(BASELINE_PINS))
def test_baseline_fill_is_pinned(baseline):
    spec, (cols, rows), _, _ = SUITE_SPECS["s"]
    layout = generate_layout(spec)
    fill, digest = BASELINE_PINS[baseline]
    fill(layout, WindowGrid(layout.die, cols, rows))
    assert hashlib.sha256(gdsii_bytes(layout)).hexdigest() == digest
