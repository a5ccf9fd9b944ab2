"""Tests for the DRC rule deck and checker (Eqns. (9e)-(9g))."""

import random
from functools import lru_cache

import pytest

from repro.geometry import Rect, boxes
from repro.layout import DrcRules, check_fills

from . import drc_oracle as oracle


def _box(rects):
    """The rects as the int64 box array ``check_fills`` takes."""
    return boxes(rects, len(rects))


RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


class TestRules:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            DrcRules(min_spacing=0)
        with pytest.raises(ValueError):
            DrcRules(min_width=-1)

    def test_max_must_admit_min(self):
        with pytest.raises(ValueError):
            DrcRules(min_width=50, min_area=2500, max_fill_width=20)

    def test_min_width_for_height_eqn12(self):
        # Eqn. (12): w >= max(wm, am/h0).
        assert RULES.min_width_for_height(100) == 10  # area rule slack
        assert RULES.min_width_for_height(10) == 20  # 200/10
        assert RULES.min_width_for_height(15) == 14  # ceil(200/15)

    def test_min_width_for_height_invalid(self):
        with pytest.raises(ValueError):
            RULES.min_width_for_height(0)

    def test_is_legal_fill(self):
        assert RULES.is_legal_fill(Rect(0, 0, 20, 20))
        assert not RULES.is_legal_fill(Rect(0, 0, 9, 50))  # width
        assert not RULES.is_legal_fill(Rect(0, 0, 12, 12))  # area
        assert not RULES.is_legal_fill(Rect(0, 0, 150, 20))  # max size


class TestChecker:
    def test_clean_solution(self):
        fills = [Rect(0, 0, 20, 20), Rect(40, 0, 60, 20)]
        assert check_fills(_box(fills), _box([]), RULES) == []

    def test_min_width_violation(self):
        violations = check_fills(_box([Rect(0, 0, 5, 50)]), _box([]), RULES)
        assert any(v.rule == "min_width" for v in violations)

    def test_min_area_violation(self):
        violations = check_fills(_box([Rect(0, 0, 13, 13)]), _box([]), RULES)
        assert any(v.rule == "min_area" for v in violations)

    def test_max_size_violation(self):
        violations = check_fills(_box([Rect(0, 0, 150, 50)]), _box([]), RULES)
        assert any(v.rule == "max_size" for v in violations)

    def test_spacing_violation_between_fills(self):
        fills = [Rect(0, 0, 20, 20), Rect(25, 0, 45, 20)]  # gap 5 < 10
        violations = check_fills(_box(fills), _box([]), RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_spacing_exactly_at_rule_is_clean(self):
        fills = [Rect(0, 0, 20, 20), Rect(30, 0, 50, 20)]  # gap 10
        assert check_fills(_box(fills), _box([]), RULES) == []

    def test_diagonal_spacing_euclidean(self):
        # Corner gap 6-8-10: Euclidean distance exactly 10 — legal.
        fills = [Rect(0, 0, 20, 20), Rect(26, 28, 46, 48)]
        assert check_fills(_box(fills), _box([]), RULES) == []
        # Corner gap 5-5: distance ~7.07 < 10 — violation.
        fills = [Rect(0, 0, 20, 20), Rect(25, 25, 45, 45)]
        violations = check_fills(_box(fills), _box([]), RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_overlapping_fills_flagged(self):
        fills = [Rect(0, 0, 20, 20), Rect(10, 10, 30, 30)]
        violations = check_fills(_box(fills), _box([]), RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_fill_to_wire_spacing(self):
        fills = [Rect(0, 0, 20, 20)]
        wires = [Rect(25, 0, 60, 20)]  # gap 5 < 10
        violations = check_fills(_box(fills), _box(wires), RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_each_pair_reported_once(self):
        fills = [Rect(0, 0, 20, 20), Rect(25, 0, 45, 20)]
        violations = [
            v for v in check_fills(_box(fills), _box([]), RULES) if v.rule == "min_spacing"
        ]
        assert len(violations) == 1

    def test_violation_str(self):
        v = check_fills(_box([Rect(0, 0, 5, 50)]), _box([]), RULES)[0]
        assert "min_width" in str(v)


def _shifted(rect, dx, dy, grow=0):
    return Rect(rect.xl + dx, rect.yl + dy, rect.xh + dx + grow, rect.yh + dy + grow)


def _seeded_fills(seed):
    """Fills that hit every rule, as ``(fills, wires)``: overlaps,
    corner gaps just under, at and over ``sm``, fill-wire gaps, narrow,
    small and oversized fills, and duplicates."""
    rng = random.Random(seed)
    fills, wires = [], []
    for _ in range(rng.randint(20, 60)):
        x, y = rng.randrange(-200, 800), rng.randrange(-200, 800)
        fills.append(Rect(x, y, x + rng.randrange(1, 130), y + rng.randrange(1, 130)))
    for w, h in ((12, 13), (4, 60), (60, 7), (140, 30)):  # small, narrow, oversized
        x, y = rng.randrange(-200, 800), rng.randrange(-200, 800)
        fills.append(Rect(x, y, x + w, y + h))
    for _ in range(rng.randint(0, 8)):  # corner neighbours: 6-8-10 is legal at sm 10
        f = rng.choice(fills)
        dx, dy = rng.choice([(6, 8), (8, 6), (6, 7), (7, 7), (6, 9), (10, 0), (9, 0), (0, 0)])
        fills.append(Rect(f.xh + dx, f.yh + dy, f.xh + dx + 20, f.yh + dy + 20))
    fills += rng.choices(fills, k=rng.randint(0, 4))  # duplicates: measured 0
    for _ in range(rng.randint(0, 30)):
        x, y = rng.randrange(-200, 800), rng.randrange(-200, 800)
        if rng.random() < 0.2:  # die-long wire
            wires.append(Rect(-300, y, 900, y + rng.randrange(1, 20)))
        else:
            wires.append(Rect(x, y, x + rng.randrange(1, 60), y + rng.randrange(1, 60)))
    rng.shuffle(fills)
    return fills, wires


@lru_cache(maxsize=1)
def _filled_suite_b():
    from repro.bench.suite import SUITE_SPECS
    from repro.bench.generator import generate_layout
    from repro.core import DummyFillEngine, FillConfig
    from repro.layout import WindowGrid

    spec, (cols, rows), _, _ = SUITE_SPECS["b"]
    layout = generate_layout(spec)
    DummyFillEngine(FillConfig(eta=0.2)).run(layout, WindowGrid(layout.die, cols, rows))
    return layout


class TestMatchesScalarOracle:
    """The array checker returns the scalar oracle's violations element
    for element: same rules, shapes, measures and order."""

    @staticmethod
    def _same(fills, wires, rules=RULES):
        got = check_fills(_box(fills), _box(wires), rules)
        want = oracle.check_fills(fills, wires, rules)
        assert got == want
        assert [type(v.measured) for v in got] == [type(v.measured) for v in want]
        return got

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded(self, seed):
        fills, wires = _seeded_fills(seed)
        got = self._same(fills, wires)
        assert {v.rule for v in got} == {"min_width", "min_area", "max_size", "min_spacing"}

    def test_corner_gaps_around_sm(self):
        # 20x20 fills in pairs 500 dbu apart; shifting one by 26, 28
        # leaves corner gaps of 6 and 8
        shifts = [(26, 28), (28, 26), (26, 27), (27, 27), (30, 0), (29, 0), (0, 30), (0, 29)]
        fills = []
        for k, shift in enumerate(shifts):
            base = Rect(500 * k, 0, 500 * k + 20, 20)
            fills += [base, _shifted(base, *shift)]
        got = self._same(fills, [])
        # 6-8, 8-6 and straight gaps of 10 are exactly sm apart: legal
        assert [fills.index(v.shape) // 2 for v in got] == [2, 3, 5, 7]
        assert [v.measured for v in got] == [85 ** 0.5, 98 ** 0.5, 9.0, 9.0]

    def test_overlaps_duplicates_and_wires(self):
        fills = [Rect(0, 0, 20, 20), Rect(10, 10, 30, 30), Rect(0, 0, 20, 20), Rect(60, 0, 80, 20)]
        wires = [Rect(85, 0, 200, 20), Rect(40, 40, 45, 45), Rect(-500, 39, 500, 41)]
        got = self._same(fills, wires)
        assert [(fills.index(v.shape), v.measured) for v in got[:3]] == [(0, 0.0), (0, 0.0), (1, 0.0)]
        assert any(v.other == wires[0] and v.measured == 5.0 for v in got)

    def test_no_fills_or_no_wires(self):
        fills, wires = _seeded_fills(3)
        assert self._same([], wires) == []
        self._same(fills, [])
        assert self._same([], []) == []

    def test_filled_suite_b_with_perturbed_fills(self):
        layout = _filled_suite_b()
        rng = random.Random(5)
        layer = layout.layers[1]
        fills = list(layer.fills)
        for _ in range(300):
            f = rng.choice(layer.fills)
            fills.append(_shifted(f, rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(-6, 6)))
        assert self._same(list(layer.fills), layer.wires, layout.rules) == []
        assert len(self._same(fills, layer.wires, layout.rules)) > 300
