"""Scalar oracle of the planner's joint search.

:func:`plan_targets` builds the per-layer options exactly as
:func:`repro.core.plan_targets` does, then walks every combination
through ``itertools.product``: three sums and one
``objective.score`` per combination, keeping the first strictly better
one.  The library scores the whole combination grid as arrays and must
return the same :class:`~repro.core.planner.DensityPlan`, bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.planner import (
    _MAX_COMBINATIONS,
    DensityPlan,
    LayerPlan,
    PlannerObjective,
    _candidate_tds,
    _clamped_map,
    _combination_count,
    _evaluate,
)
from repro.density.analysis import LayerDensity


def plan_targets(
    analysis: Mapping[int, LayerDensity],
    objective: Optional[PlannerObjective] = None,
    td_step: float = 0.02,
) -> Tuple[DensityPlan, int]:
    """The plan and the number of combinations scored."""
    if objective is None:
        objective = PlannerObjective()
    numbers = sorted(analysis)
    options: Dict[int, List[Tuple[float, float, float, float]]] = {}
    cases: Dict[int, str] = {}
    for n in numbers:
        ld = analysis[n]
        if not ld.has_constrained_window:
            cases[n] = "I"
            td = ld.max_lower
            options[n] = [(td,) + _evaluate(ld, td)]
        else:
            cases[n] = "II"
            options[n] = [(td,) + _evaluate(ld, td) for td in _candidate_tds(ld, td_step)]
    while _combination_count(options) > _MAX_COMBINATIONS:
        for n in numbers:
            if len(options[n]) > 2:
                options[n] = options[n][::2]

    best_combo = None
    best_score = -np.inf
    combinations = 0
    for combo in itertools.product(*(options[n] for n in numbers)):
        combinations += 1
        sigma_sum = sum(c[1] for c in combo)
        line_sum = sum(c[2] for c in combo)
        outlier_sum = sum(c[3] for c in combo)
        score = objective.score(sigma_sum, line_sum, outlier_sum)
        if score > best_score:
            best_score = score
            best_combo = combo
    assert best_combo is not None
    layers = {
        n: LayerPlan(
            layer_number=n,
            td=choice[0],
            target=_clamped_map(analysis[n], choice[0]),
            case=cases[n],
        )
        for n, choice in zip(numbers, best_combo)
    }
    return DensityPlan(layers=layers, score=float(best_score)), combinations
