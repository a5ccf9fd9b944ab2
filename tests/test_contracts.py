"""Runtime contract helpers: rectangle, density and rule-deck guards."""

import numpy as np
import pytest

from repro import (
    ContractViolation,
    DrcRules,
    Rect,
    check_density,
    check_drc_params,
    check_rect,
)
from repro.contracts import check_boxes
from repro.layout import Layer


class TestCheckRect:
    def test_valid_rect_passes_through(self):
        r = Rect(0, 0, 10, 10)
        assert check_rect(r) is r

    def test_float_coordinate_rejected(self):
        # a frozen dataclass happily constructs with floats; the
        # contract is the guard that catches it at the boundary
        bad = Rect(0.5, 0, 10.5, 10)
        with pytest.raises(ContractViolation, match="not an integer"):
            check_rect(bad)

    def test_numpy_integer_accepted(self):
        r = Rect(np.int64(0), np.int64(0), np.int64(5), np.int64(5))
        assert check_rect(r) is r

    def test_name_appears_in_message(self):
        with pytest.raises(ContractViolation, match="fill.xl"):
            check_rect(Rect(1.5, 0, 2.5, 1), name="fill")


class TestCheckBoxes:
    """Box arrays whose dtype does not cast to int64 safely."""

    def test_object_ints_convert(self):
        got = check_boxes(np.array([[0, 0, 5, 5], [9, 0, 12, 5]], dtype=object))
        assert got.dtype == np.int64
        assert got.tolist() == [[0, 0, 5, 5], [9, 0, 12, 5]]

    def test_inverted_object_row_named(self):
        bad = np.array([[0, 0, 5, 5], [9, 0, 5, 5]], dtype=object)
        with pytest.raises(ContractViolation, match=r"malformed: \(9,0,5,5\)"):
            Layer(3).add_fills(bad)

    def test_object_row_beyond_int64(self):
        bad = np.array([[0, 0, 5, 5], [0, 0, 2**70, 5]], dtype=object)
        with pytest.raises(ContractViolation, match="beyond int64"):
            Layer(3).add_fills(bad)

    def test_float_row_message_unchanged(self):
        bad = np.array([[0, 0, 5, 5], [0, 0, 5.5, 5]])
        message = r"^fill on layer 3\.xh = 5\.5 is not an integer dbu coordinate$"
        with pytest.raises(ContractViolation, match=message):
            Layer(3).add_fills(bad)


class TestCheckDensity:
    def test_scalar_in_range(self):
        assert check_density(0.5) == 0.5
        assert check_density(0.0) == 0.0
        assert check_density(1.0) == 1.0

    def test_map_in_range(self):
        arr = np.array([[0.0, 0.25], [0.5, 1.0]])
        assert check_density(arr) is arr

    def test_roundoff_slack(self):
        # assembled from integer-area ratios, 1.0 + 1 ulp must pass
        assert check_density(np.nextafter(1.0, 2.0)) is not None

    def test_above_one_rejected(self):
        with pytest.raises(ContractViolation, match="outside"):
            check_density(np.array([0.2, 1.2]))

    def test_negative_rejected(self):
        with pytest.raises(ContractViolation):
            check_density(-0.01)

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation, match="non-finite"):
            check_density(np.array([0.5, np.nan]))

    def test_empty_map_passes(self):
        check_density(np.zeros((0, 0)))


class TestCheckDrcParams:
    def test_default_deck_passes(self):
        rules = DrcRules()
        assert check_drc_params(rules) is rules

    def test_float_parameter_rejected(self):
        # bypass __post_init__ validation the way a deserialiser could
        rules = DrcRules()
        object.__setattr__(rules, "min_spacing", 10.5)
        with pytest.raises(ContractViolation, match="min_spacing"):
            check_drc_params(rules)

    def test_nonpositive_rejected(self):
        rules = DrcRules()
        object.__setattr__(rules, "min_area", 0)
        with pytest.raises(ContractViolation, match="positive"):
            check_drc_params(rules)

    def test_inconsistent_caps_rejected(self):
        rules = DrcRules()
        object.__setattr__(rules, "max_fill_width", 5)
        with pytest.raises(ContractViolation, match="max_fill_width"):
            check_drc_params(rules)


class TestEngineWiring:
    def test_engine_rejects_corrupt_deck(self):
        from repro import FillConfig, Layout, WindowGrid, insert_fills

        layout = Layout(Rect(0, 0, 2000, 2000), num_layers=1)
        layout.layer(1).add_wire(Rect(100, 100, 900, 200))
        object.__setattr__(layout.rules, "min_width", 10.0)
        grid = WindowGrid(layout.die, cols=2, rows=2)
        with pytest.raises(ContractViolation):
            insert_fills(layout, grid, FillConfig())
