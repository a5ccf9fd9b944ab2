"""Tests for the DRC rule deck and checker (Eqns. (9e)-(9g))."""

import pytest

from repro.geometry import Rect
from repro.layout import DrcRules, check_fills


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
        assert check_fills(fills, [], RULES) == []

    def test_min_width_violation(self):
        violations = check_fills([Rect(0, 0, 5, 50)], [], RULES)
        assert any(v.rule == "min_width" for v in violations)

    def test_min_area_violation(self):
        violations = check_fills([Rect(0, 0, 13, 13)], [], RULES)
        assert any(v.rule == "min_area" for v in violations)

    def test_max_size_violation(self):
        violations = check_fills([Rect(0, 0, 150, 50)], [], RULES)
        assert any(v.rule == "max_size" for v in violations)

    def test_spacing_violation_between_fills(self):
        fills = [Rect(0, 0, 20, 20), Rect(25, 0, 45, 20)]  # gap 5 < 10
        violations = check_fills(fills, [], RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_spacing_exactly_at_rule_is_clean(self):
        fills = [Rect(0, 0, 20, 20), Rect(30, 0, 50, 20)]  # gap 10
        assert check_fills(fills, [], RULES) == []

    def test_diagonal_spacing_euclidean(self):
        # Corner gap 6-8-10: Euclidean distance exactly 10 — legal.
        fills = [Rect(0, 0, 20, 20), Rect(26, 28, 46, 48)]
        assert check_fills(fills, [], RULES) == []
        # Corner gap 5-5: distance ~7.07 < 10 — violation.
        fills = [Rect(0, 0, 20, 20), Rect(25, 25, 45, 45)]
        violations = check_fills(fills, [], RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_overlapping_fills_flagged(self):
        fills = [Rect(0, 0, 20, 20), Rect(10, 10, 30, 30)]
        violations = check_fills(fills, [], RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_fill_to_wire_spacing(self):
        fills = [Rect(0, 0, 20, 20)]
        wires = [Rect(25, 0, 60, 20)]  # gap 5 < 10
        violations = check_fills(fills, wires, RULES)
        assert any(v.rule == "min_spacing" for v in violations)

    def test_each_pair_reported_once(self):
        fills = [Rect(0, 0, 20, 20), Rect(25, 0, 45, 20)]
        violations = [
            v for v in check_fills(fills, [], RULES) if v.rule == "min_spacing"
        ]
        assert len(violations) == 1

    def test_violation_str(self):
        v = check_fills([Rect(0, 0, 5, 50)], [], RULES)[0]
        assert "min_width" in str(v)
