"""The serial engine's fills of suites s, b and m, pinned.

``tests/test_differential.py`` compares execution modes with one
another, so a change that moves every mode's bytes alike passes it.
These pins hold the output itself: the full sha256 of each suite's
GDSII after a ``FillConfig(eta=0.2)`` fill, and the fill's
:class:`~repro.core.SizingStats` as ``(lp_solves, variables,
constraints, dropped_fills, windows)``.  The greedy and coupling-LP
baselines' fills of suite s are pinned the same way.
"""

import hashlib

import pytest

from repro.baselines import coupling_lp_fill, greedy_fill
from repro.bench.generator import generate_layout
from repro.bench.suite import SUITE_SPECS
from repro.core import DummyFillEngine, FillConfig
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


@pytest.mark.parametrize("suite", sorted(PINS))
def test_suite_fill_is_pinned(suite):
    spec, (cols, rows), _, _ = SUITE_SPECS[suite]
    layout = generate_layout(spec)
    report = DummyFillEngine(FillConfig(eta=0.2)).run(
        layout, WindowGrid(layout.die, cols, rows)
    )
    s = report.sizing
    digest, stats = PINS[suite]
    assert (s.lp_solves, s.variables, s.constraints, s.dropped_fills, s.windows) == stats
    assert hashlib.sha256(gdsii_bytes(layout)).hexdigest() == digest


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
