"""The planner's array joint search against the scalar loop it replaced.

Every family is seeded; values sit on a coarse quantum so different
combinations often score exactly alike, and the array search must break
those ties as the loop's strict ``>`` does.  The whole plan must match:
``td``, case, score and the target map, bit for bit, and the number of
combinations scored.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.planner import _MAX_COMBINATIONS, PlannerObjective, _candidate_tds, plan_targets
from repro.density.analysis import LayerDensity

from .planner_oracle import plan_targets as oracle_plan_targets


def _layer(rng, n, cols, rows, quantum, *, constrained):
    levels = int(round(1 / quantum))
    lower = rng.integers(0, levels // 2 + 1, (cols, rows)) * quantum
    upper = np.minimum(1.0, lower + rng.integers(0, levels // 2 + 1, (cols, rows)) * quantum)
    if not constrained:
        upper = np.maximum(upper, lower.max())
    else:
        lower.flat[0] = max(lower.flat[0], 0.5)
        upper.flat[0] = max(upper.flat[0], lower.flat[0])
        upper.flat[-1] = min(upper.flat[-1], 0.2)
        lower.flat[-1] = min(lower.flat[-1], upper.flat[-1])
    return LayerDensity(n, lower, upper, fill_regions={})


def _all_tied(n):
    """A Case II layer whose every candidate td clamps to one map."""
    return LayerDensity(
        n, np.array([[0.5, 0.0], [0.5, 0.1]]), np.array([[0.6, 0.3], [0.7, 0.3]]), fill_regions={}
    )


def _case1(rng):
    return {n: _layer(rng, n, 4, 3, 0.1, constrained=False) for n in (1, 2, 3)}, 0.02


def _one_layer(rng):
    return {1: _layer(rng, 1, 5, 4, 0.05, constrained=True)}, 0.02


def _ties(rng):
    base = _layer(rng, 1, 3, 3, 0.1, constrained=True)
    twin = LayerDensity(2, base.lower.copy(), base.upper.copy(), fill_regions={})
    return {1: base, 2: twin, 3: _all_tied(3)}, 0.02


def _three_to_five(rng):
    count = int(rng.integers(3, 6))
    return {
        n: _layer(rng, n, 4, 4, 0.1, constrained=bool(rng.integers(0, 2)))
        for n in range(1, count + 1)
    }, 0.05


def _coarsened(rng):
    return {n: _layer(rng, n, 4, 4, 0.05, constrained=True) for n in (1, 2, 3)}, 0.004


FAMILIES = {
    "case1": _case1,
    "one-layer": _one_layer,
    "ties": _ties,
    "three-to-five": _three_to_five,
    "coarsened": _coarsened,
}


def _planned(analysis, objective, td_step):
    counter = obs.metrics.counter("planner.combinations")
    before = counter.value
    plan = plan_targets(analysis, objective, td_step)
    return plan, counter.value - before


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_scalar_loop(family, seed):
    rng = np.random.default_rng(seed)
    analysis, td_step = FAMILIES[family](rng)
    objective = PlannerObjective(alpha_outlier=float(rng.choice([0.15, 0.0])))
    plan, combinations = _planned(analysis, objective, td_step)
    expected, expected_combinations = oracle_plan_targets(analysis, objective, td_step)
    assert combinations == expected_combinations
    assert plan.score == expected.score
    assert plan.layers.keys() == expected.layers.keys()
    for n, want in expected.layers.items():
        got = plan.layers[n]
        assert (got.td, type(got.td), got.case) == (want.td, type(want.td), want.case)
        assert got.target.dtype == want.target.dtype
        assert got.target.tobytes() == want.target.tobytes()


def test_family_shapes():
    rng = np.random.default_rng(0)
    assert {ld.has_constrained_window for ld in _case1(rng)[0].values()} == {False}
    analysis, td_step = _coarsened(rng)
    full = np.prod([len(_candidate_tds(ld, td_step)) for ld in analysis.values()])
    _, combinations = oracle_plan_targets(analysis, None, td_step)
    assert full > _MAX_COMBINATIONS >= combinations > 1000


def test_all_tied_layer_takes_the_first_td():
    ld = _all_tied(1)
    plan = plan_targets({1: ld})
    assert plan.layers[1].case == "II"
    assert plan.td(1) == ld.min_upper
