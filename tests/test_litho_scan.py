"""The array litho scan and per-layer repair against the scalar oracle."""

import random

import pytest

from repro.geometry import Rect, boxes
from repro.layout import DrcRules, Layout
from repro.litho import LithoRules, _lateral_pairs, check_litho, repair_litho

from . import litho_oracle as oracle

DRC = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def _seeded_litho_layout(seed, num_layers=1):
    """Fills on a pitch lattice with jitter, so facing pairs land inside,
    on the bounds of and outside the forbidden ranges; some overlap,
    some repeat, some meet only at a corner."""
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, 1000, 1000), num_layers=num_layers, rules=DRC)
    for n in layout.layer_numbers:
        fills = []
        for gx in range(0, 900, 90):
            for gy in range(0, 900, 90):
                if rng.random() < 0.3:
                    continue
                x, y = gx + rng.randrange(0, 40), gy + rng.randrange(0, 40)
                fills.append(Rect(x, y, x + rng.randrange(10, 60), y + rng.randrange(10, 60)))
        fills += rng.choices(fills, k=3)
        for rect in fills:
            layout.layer(n).add_fill(rect)
    return layout


DECKS = [
    LithoRules(),
    LithoRules(forbidden_pitches=((9, 12),)),
    LithoRules(forbidden_pitches=((20, 30), (31, 33), (60, 70)), min_edge=15),
    LithoRules(forbidden_pitches=((0, 4),)),
    LithoRules(forbidden_pitches=()),
]


class TestMatchesScalarOracle:
    """The array pitch scan returns the scalar oracle's violations in its
    order, and the per-layer repair leaves the fills the whole-layout
    scan leaves."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("deck", range(len(DECKS)))
    def test_check(self, seed, deck):
        layout = _seeded_litho_layout(seed, num_layers=2)
        got = check_litho(layout, DECKS[deck])
        assert got == oracle.check_litho(layout, DECKS[deck])
        assert [type(v.measured) for v in got] == [int] * len(got)

    @pytest.mark.parametrize("seed", range(6))
    def test_lateral_pairs(self, seed):
        fills = _seeded_litho_layout(seed).layer(1).fills
        for max_gap in (0, 12, 55):
            i, j, gap = _lateral_pairs(boxes(fills, len(fills)), max_gap)
            want = [(a, b, g) for a, b, g, _axis in oracle._lateral_pairs(fills, max_gap)]
            assert list(zip(i.tolist(), j.tolist(), gap.tolist())) == want

    @pytest.mark.parametrize("deck", range(len(DECKS)))
    def test_three_layer_repair(self, deck):
        layout = _seeded_litho_layout(deck, num_layers=3)
        expected = layout.copy()
        assert repair_litho(layout, DECKS[deck]) == oracle.repair_litho(expected, DECKS[deck])
        for n in layout.layer_numbers:
            assert layout.layer(n).fills == expected.layer(n).fills
        assert check_litho(layout, DECKS[deck]) == []
