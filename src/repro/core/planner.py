"""Target density planning (paper §3.1).

Reduces the per-window density assignment to a single scalar *target
layout density* ``td`` per layer (Definition 1): every window aims for
``td`` clamped into its feasible band ``[l(i,j), u(i,j)]`` (Eqn. (5)).

* **Case I** — every window can reach the layout's largest wire density:
  the optimum is closed-form, ``td = max l(k,n)`` (Eqn. (6)), a
  perfectly uniform density map.
* **Case II** — some window's upper bound is below that (Eqn. (7)):
  the planner grid-searches td combinations across layers "with small
  steps" between ``min u(k,n)`` and ``max l(k,n)`` and keeps the
  combination with the best density score.

The density score optimised here is the σ/line/outlier part of
Eqn. (3).  The planner uses the *unclamped* linear surrogate
``Σ α_k · (−x_k/β_k)`` — monotone-equivalent to Eqn. (4) wherever any
score is positive, but still discriminative when a raw value
overshoots its β.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..density.analysis import LayerDensity
from ..density.metrics import line_hotspots, outlier_hotspots, variation
from ..density.scoring import ScoreWeights

__all__ = ["PlannerObjective", "LayerPlan", "DensityPlan", "plan_targets"]

_MAX_COMBINATIONS = 400_000


@dataclass(frozen=True)
class PlannerObjective:
    """Weights for the planning surrogate score.

    Defaults weigh the three metrics per the contest α ratios with
    neutral normalisers; :meth:`from_score_weights` adopts a
    benchmark's actual α/β coefficients.
    """

    alpha_sigma: float = 0.2
    alpha_line: float = 0.2
    alpha_outlier: float = 0.15
    beta_sigma: float = 1.0
    beta_line: float = 1.0
    beta_outlier: float = 1.0

    @classmethod
    def from_score_weights(cls, weights: ScoreWeights) -> "PlannerObjective":
        return cls(
            alpha_sigma=weights.alpha_variation,
            alpha_line=weights.alpha_line,
            alpha_outlier=weights.alpha_outlier,
            beta_sigma=weights.beta_variation,
            beta_line=weights.beta_line,
            beta_outlier=weights.beta_outlier,
        )

    def score(self, sigma_sum: float, line_sum: float, outlier_sum: float) -> float:
        """Higher is better; Eqn. (3) restricted to density terms.

        The outlier term uses the paper's product form σ_total · oh_total.
        """
        return (
            -self.alpha_sigma * sigma_sum / self.beta_sigma
            - self.alpha_line * line_sum / self.beta_line
            - self.alpha_outlier * (sigma_sum * outlier_sum) / self.beta_outlier
        )


@dataclass
class LayerPlan:
    """Planning result for one layer."""

    layer_number: int
    td: float
    target: np.ndarray  # clamp(td, l, u) per window — Eqn. (5)
    case: str  # "I" or "II"

    def target_fill_area(
        self, lower: np.ndarray, window_area: np.ndarray
    ) -> np.ndarray:
        """Fill area each window must gain to hit its target."""
        return np.maximum(0.0, self.target - lower) * window_area


@dataclass
class DensityPlan:
    """Planning result for a whole layout."""

    layers: Dict[int, LayerPlan]
    score: float

    def td(self, layer_number: int) -> float:
        return self.layers[layer_number].td

    def target(self, layer_number: int) -> np.ndarray:
        return self.layers[layer_number].target


def _clamped_map(ld: LayerDensity, td: float) -> np.ndarray:
    """Eqn. (5): window density under target ``td``."""
    return np.clip(td, ld.lower, ld.upper)


def _candidate_tds(ld: LayerDensity, step: float) -> List[float]:
    """Case II search grid between min u(k,n) and max l(k,n) (§3.1)."""
    hi = ld.max_lower
    lo = min(ld.min_upper, hi)
    if hi - lo < step:
        return [lo, hi] if hi > lo else [hi]
    count = int((hi - lo) / step) + 1
    tds = [lo + k * step for k in range(count)]
    if tds[-1] < hi:
        tds.append(hi)
    return tds


def _evaluate(ld: LayerDensity, td: float) -> Tuple[float, float, float]:
    d = _clamped_map(ld, td)
    return variation(d), line_hotspots(d), outlier_hotspots(d)


def plan_targets(
    analysis: Mapping[int, LayerDensity],
    objective: Optional[PlannerObjective] = None,
    td_step: float = 0.02,
) -> DensityPlan:
    """Choose a target density per layer maximising the density score.

    Layers whose windows all admit ``max l(k,n)`` take the Case I
    closed form directly; the remaining layers are searched jointly
    (their scores couple through the summed-σ and σ·oh terms of
    Eqn. (3)).  The joint search is capped at a combination budget by
    coarsening the step, preserving the paper's "small steps" behaviour
    on realistic layer counts.
    """
    if objective is None:
        objective = PlannerObjective()
    if not analysis:
        raise ValueError("no layers to plan")

    numbers = sorted(analysis)
    options: Dict[int, List[Tuple[float, float, float, float]]] = {}
    cases: Dict[int, str] = {}
    for n in numbers:
        ld = analysis[n]
        if not ld.has_constrained_window:
            cases[n] = "I"
            td = ld.max_lower  # Eqn. (6): uniform at the largest wire density
            sigma, line, outlier = _evaluate(ld, td)
            options[n] = [(td, sigma, line, outlier)]
        else:
            cases[n] = "II"
            tds = _candidate_tds(ld, td_step)
            options[n] = [(td,) + _evaluate(ld, td) for td in tds]

    # Coarsen if the joint grid explodes (many constrained layers).
    while _combination_count(options) > _MAX_COMBINATIONS:
        for n in numbers:
            if len(options[n]) > 2:
                options[n] = options[n][::2]

    # Score every combination at once, in an array with one axis per
    # layer; raveled, it is in ``itertools.product`` order, so argmax's
    # first maximum is the choice of a loop keeping a strict ``>``.
    columns = [np.array(options[n]) for n in numbers]
    scores = np.ravel(objective.score(*(_grid_sum(columns, metric) for metric in (1, 2, 3))))
    best = int(np.argmax(scores))
    combinations = scores.size
    obs.metrics.counter("planner.combinations").inc(combinations)
    obs.metrics.counter("planner.case2_layers").inc(
        sum(1 for c in cases.values() if c == "II")
    )
    obs.count("planner.combinations", combinations)

    layers = {}
    choices = np.unravel_index(best, [len(options[n]) for n in numbers])
    for n, choice in zip(numbers, choices):
        td = options[n][choice][0]
        layers[n] = LayerPlan(
            layer_number=n,
            td=td,
            target=_clamped_map(analysis[n], td),
            case=cases[n],
        )
    return DensityPlan(layers=layers, score=float(scores[best]))


def _grid_sum(columns: Sequence[np.ndarray], metric: int) -> np.ndarray:
    """``sum(option[metric] for option in combination)`` for every
    combination of one option row per layer, one axis per layer.

    The columns are added in layer order, as ``sum`` adds a
    combination's options, so each float equals the loop's.
    """
    total = np.zeros([1] * len(columns))
    for axis, column in enumerate(columns):
        shape = [1] * len(columns)
        shape[axis] = -1
        total = total + column[:, metric].reshape(shape)
    return total


def _combination_count(options: Mapping[int, Sequence]) -> int:
    total = 1
    for opts in options.values():
        total *= max(1, len(opts))
    return total
