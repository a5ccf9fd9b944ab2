"""Tests for FillConfig validation and derived knobs."""

import pytest

from repro.core import FillConfig


class TestValidation:
    def test_defaults_valid(self):
        FillConfig()

    def test_lambda_below_one_rejected(self):
        # Alg. 1 line 8: λ >= 1.
        with pytest.raises(ValueError):
            FillConfig(lambda_factor=0.9)

    def test_lambda_exactly_one_allowed(self):
        FillConfig(lambda_factor=1.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            FillConfig(gamma=-0.1)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            FillConfig(eta=-1)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            FillConfig(sizing_iterations=-1)

    def test_unknown_solver_rejected(self):
        for solver in ("gurobi", "mcf-simplex", "mcf-costscaling"):
            with pytest.raises(ValueError):
                FillConfig(solver=solver)

    def test_removed_kernel_field_rejected(self):
        # the analysis picks the density kernel per layer, the spill
        # budget is a stream_fill argument, REPRO_SANITIZE=shard is the
        # shard sanitizer's one switch, the sizing step is derived from
        # the maximum fill size and the window margin from the spacing;
        # the planner's td step, Case I steering and the even-layer
        # stagger are fixed parts of the method
        for field, value in (
            ("kernel", "raster"),
            ("memory_budget", 1 << 20),
            ("sanitize", True),
            ("sizing_step", 7),
            ("window_margin", 7),
            ("td_step", 0.05),
            ("stagger_even_layers", False),
            ("case1_steering", False),
        ):
            with pytest.raises(TypeError):
                FillConfig(**{field: value})
            with pytest.raises(ValueError, match=f"'{field}'"):
                FillConfig.from_mapping({field: value})

    @pytest.mark.parametrize("field", ["workers", "sizing_iterations"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_non_integer_value_rejected(self, field, value):
        # a float, bool or string in an integer field names the field
        # instead of being truncated or failing later in the engine
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FillConfig.from_mapping({field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FillConfig(**{field: value})

    def test_integer_fields_accept_ints_and_unset_optionals(self):
        config = FillConfig.from_mapping({"workers": 2, "sizing_iterations": 1})
        assert (config.workers, config.sizing_iterations) == (2, 1)
        assert FillConfig.from_mapping({"workers": 0}).workers == 0


class TestDerivedKnobs:
    def test_effective_margin_default_half_spacing(self):
        assert FillConfig().effective_margin(10) == 5
        assert FillConfig().effective_margin(11) == 6  # ceil

    def test_effective_step_default_quarter_cell(self):
        assert FillConfig().effective_step(100, 100) == 25
        assert FillConfig().effective_step(200, 100) == 25

    def test_effective_step_floor(self):
        assert FillConfig().effective_step(4, 4) == 2

    def test_frozen(self):
        config = FillConfig()
        with pytest.raises(Exception):
            config.eta = 2.0
