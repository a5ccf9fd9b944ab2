"""Tests for the contest harness (Table 3 machinery).

Full contest runs live in ``benchmarks/``; here the harness mechanics
are exercised on a deliberately small benchmark.
"""

import pytest

from repro.bench import TEAMS, format_table, headline, run_contest, run_team
from repro.bench.suite import Benchmark, calibrate_weights
from repro.bench.generator import LayoutSpec, generate_layout
from repro.layout import DrcRules, WindowGrid


@pytest.fixture(scope="module")
def tiny_benchmark():
    spec = LayoutSpec(
        name="tiny",
        die_size=1600,
        seed=5,
        num_cell_rects=80,
        num_bus_bundles=1,
        num_macros=1,
        hotspot_columns=(),
        cold_windows=0,
        rules=DrcRules(
            min_spacing=10,
            min_width=10,
            min_area=400,
            max_fill_width=150,
            max_fill_height=150,
        ),
    )
    layout = generate_layout(spec)
    grid = WindowGrid(layout.die, 4, 4)
    weights = calibrate_weights(layout, grid, 60.0, 1024.0)
    from repro.gdsii import file_size_mb, measure_file_size

    return Benchmark(
        name="tiny",
        layout=layout,
        grid=grid,
        weights=weights,
        input_size_mb=file_size_mb(measure_file_size(layout)),
    )


class TestRunTeam:
    def test_teams_registered(self):
        assert set(TEAMS) == {
            "ours",
            "greedy(T1)",
            "tile-lp(T2)",
            "mc(T3)",
            "cpl[11]",
        }

    def test_ours_entry(self, tiny_benchmark):
        entry = run_team(tiny_benchmark, "ours")
        assert entry.team == "ours"
        assert entry.num_fills > 0
        assert entry.seconds > 0
        assert entry.file_size_mb > 0
        assert 0.0 <= entry.card.quality <= 1.0
        assert 0.0 <= entry.card.total <= 1.0

    def test_memory_tracing(self, tiny_benchmark):
        entry = run_team(tiny_benchmark, "greedy(T1)")
        assert entry.memory_mb > 0

    def test_benchmark_layout_untouched(self, tiny_benchmark):
        before = tiny_benchmark.layout.num_fills
        run_team(tiny_benchmark, "greedy(T1)")
        assert tiny_benchmark.layout.num_fills == before


class TestContest:
    @pytest.fixture(scope="class")
    def results(self, tiny_benchmark):
        return {
            "tiny": run_contest(tiny_benchmark, teams=["ours", "greedy(T1)"])
        }

    def test_selected_teams_only(self, results):
        assert set(results["tiny"]) == {"ours", "greedy(T1)"}

    def test_format_table(self, results):
        table = format_table(results)
        assert "Quality" in table
        assert "ours" in table
        assert "greedy(T1)" in table
        assert "tiny" in table

    def test_headline(self, results):
        q_gain, s_gain = headline(results)
        assert isinstance(q_gain, float)
        assert isinstance(s_gain, float)

    def test_headline_without_baselines(self, tiny_benchmark):
        only_ours = {"tiny": run_contest(tiny_benchmark, teams=["ours"])}
        assert headline(only_ours) == (0.0, 0.0)
