"""Ablation A4: the quality-score area weight γ (Eqn. (8)).

The candidate quality score q = -overlay/area + γ·area/aw trades
overlay avoidance against preferring large fills.  γ = 0 ranks purely
by overlay; large γ ranks purely by size.  The sweep measures the
candidate-stage overlay and the mean candidate size on benchmark ``s``.
"""

import pytest
from conftest import emit

from repro.bench import Column, TableArtifact
from repro.core import FillConfig
from repro.core.candidates import generate_candidates
from repro.core.planner import plan_targets, PlannerObjective
from repro.density import analyze_layout
from repro.geometry import intersection_area

_GAMMAS = [0.0, 0.5, 1.0, 4.0]
_rows = {}


def _candidate_stats(bench, gamma):
    layout = bench.fresh_layout()
    config = FillConfig(gamma=gamma)
    margin = config.effective_margin(layout.rules.min_spacing)
    analysis = analyze_layout(layout, bench.grid, window_margin=margin)
    plan = plan_targets(analysis, PlannerObjective.from_score_weights(bench.weights))
    cands = generate_candidates(layout, bench.grid, plan, analysis, config)
    overlay = 0
    count = 0
    area = 0
    for key, per_layer in cands.items():
        numbers = sorted(per_layer)
        for lo, hi in zip(numbers, numbers[1:]):
            overlay += intersection_area(per_layer[lo], per_layer[hi])
        for rects in per_layer.values():
            count += len(rects)
            area += sum(r.area for r in rects)
    stats = (overlay, count, area // max(count, 1))
    _rows[gamma] = stats
    return stats


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_gamma_sweep(benchmark, benchmarks_cache, gamma):
    bench = benchmarks_cache("s")
    overlay, count, mean_area = benchmark.pedantic(
        _candidate_stats, args=(bench, gamma), rounds=1, iterations=1
    )
    assert count > 0


def test_gamma_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = TableArtifact(
        "ablation_gamma",
        [
            Column("gamma", ">7.1f"),
            Column("cand_overlay", ">14d", "cand overlay"),
            Column("num_cands", ">8d", "#cands"),
            Column("mean_area", ">11d", "mean area"),
        ],
    )
    for gamma in _GAMMAS:
        overlay, count, mean_area = _rows[gamma]
        table.add_row(
            gamma=gamma, cand_overlay=overlay, num_cands=count, mean_area=mean_area
        )
    table.note(
        "(gamma=1 is the paper's setting: 'we set it to 1 in the experiment')"
    )
    emit(results_dir, table)
