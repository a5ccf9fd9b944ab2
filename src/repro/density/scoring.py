"""ICCAD 2014 contest scoring (paper §2.3 and §4).

Implements the combined objective of Eqn. (3):

    score = α_ov·s_ov + α_σ·s_σ + α_lh·s_lh + α_oh·s_oh + α_fs·s_fs
            (+ α_rt·s_rt + α_mem·s_mem for the full testcase score)

with every component scored by Eqn. (4):  f(x) = max(0, 1 − x/β).

Raw component values follow the paper exactly:

* overlay   — Σ over adjacent layer pairs of fill overlay area,
* variation — Σ over layers of σ(l),
* line      — Σ over layers of lh(l),
* outlier   — (Σ_l σ(l)) · (Σ_l oh(l))   (the product form in Eqn. (3)),
* file size — bytes of the output GDSII,
* runtime / memory — wall seconds and peak MB (testcase score only).

The first four are reductions of per-window arrays built once per
score (:class:`ScoreMaps`): each layer's total-metal density map and
each adjacent pair's overlay map.

**Testcase Quality** is the weighted sum of the first five (solution
quality); **Testcase Score** additionally includes runtime and memory —
the two right-most columns of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Tuple

import numpy as np

from ..layout import Layout, WindowGrid
from .analysis import fill_overlay_area, metal_density_map
from .metrics import compute_metrics

__all__ = [
    "ScoreWeights",
    "RawComponents",
    "ScoreMaps",
    "ScoreCard",
    "component_score",
    "score_maps",
    "measure_raw_components",
    "score_layout",
    "worst_windows",
]


def component_score(x: float, beta: float) -> float:
    """Eqn. (4): f(x) = max(0, 1 − x/β)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return max(0.0, 1.0 - x / beta)


@dataclass(frozen=True)
class ScoreWeights:
    """α and β coefficients for one benchmark (one row of Table 2).

    The default α values are the contest weights shared by all three
    benchmarks; β values are benchmark-specific and must be supplied.
    """

    beta_overlay: float
    beta_variation: float
    beta_line: float
    beta_outlier: float
    beta_size: float
    beta_runtime: float
    beta_memory: float
    alpha_overlay: float = 0.2
    alpha_variation: float = 0.2
    alpha_line: float = 0.2
    alpha_outlier: float = 0.15
    alpha_size: float = 0.05
    alpha_runtime: float = 0.15
    alpha_memory: float = 0.05

    @property
    def quality_weight(self) -> float:
        """Total α mass of the five quality components."""
        return (
            self.alpha_overlay
            + self.alpha_variation
            + self.alpha_line
            + self.alpha_outlier
            + self.alpha_size
        )


@dataclass(frozen=True)
class RawComponents:
    """Raw (unnormalised) values entering Eqn. (4)."""

    overlay: float
    variation: float
    line: float
    outlier: float
    file_size: float = 0.0
    runtime: float = 0.0
    memory: float = 0.0


@dataclass(frozen=True)
class ScoreMaps:
    """The per-window arrays every raw component is reduced from.

    ``density`` maps each layer number, in layer order, to the layer's
    total-metal density d(i, j) (wires plus fills, each point once);
    ``overlay`` maps each adjacent ``(lower, upper)`` pair to its int64
    fill-induced overlay area per window
    (:func:`~repro.density.analysis.overlay_map`).  Both count only
    area inside the grid's die.
    """

    density: Dict[int, np.ndarray] = field(default_factory=dict)
    overlay: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class ScoreCard:
    """Per-component scores plus the Table 3 aggregates.

    ``maps`` keeps the per-window arrays :func:`score_layout` reduced
    the raw components from (:func:`worst_windows` ranks them; a card
    built by hand has none); it takes no part in :meth:`as_row`,
    equality or the repr.
    """

    weights: ScoreWeights
    raw: RawComponents
    overlay: float
    variation: float
    line: float
    outlier: float
    size: float
    runtime: float
    memory: float
    maps: ScoreMaps = field(default_factory=ScoreMaps, compare=False, repr=False)

    @property
    def quality(self) -> float:
        """Testcase Quality: weighted sum excluding runtime and memory."""
        w = self.weights
        return (
            w.alpha_overlay * self.overlay
            + w.alpha_variation * self.variation
            + w.alpha_line * self.line
            + w.alpha_outlier * self.outlier
            + w.alpha_size * self.size
        )

    @property
    def total(self) -> float:
        """Testcase Score: quality plus runtime and memory terms."""
        w = self.weights
        return (
            self.quality
            + w.alpha_runtime * self.runtime
            + w.alpha_memory * self.memory
        )

    def as_row(self) -> Dict[str, float]:
        """Flat dict in Table 3 column order."""
        return {
            "overlay": self.overlay,
            "variation": self.variation,
            "line": self.line,
            "outlier": self.outlier,
            "size": self.size,
            "runtime": self.runtime,
            "memory": self.memory,
            "quality": self.quality,
            "score": self.total,
        }

    def __str__(self) -> str:
        row = self.as_row()
        cells = " ".join(f"{k}={v:.3f}" for k, v in row.items())
        return f"ScoreCard({cells})"


def score_maps(layout: Layout, grid: WindowGrid) -> ScoreMaps:
    """Build each layer's metal density map and each pair's overlay map once."""
    return ScoreMaps(
        density={layer.number: metal_density_map(layer, grid) for layer in layout.layers},
        overlay=fill_overlay_area(layout, grid),
    )


def _reduce_maps(maps: ScoreMaps) -> RawComponents:
    sigma_sum = 0.0
    line_sum = 0.0
    outlier_sum = 0.0
    for density in maps.density.values():
        metrics = compute_metrics(density)
        sigma_sum += metrics.sigma
        line_sum += metrics.line
        outlier_sum += metrics.outlier
    return RawComponents(
        overlay=float(sum(int(per_window.sum()) for per_window in maps.overlay.values())),
        variation=sigma_sum,
        line=line_sum,
        # Eqn. (3): s_oh = f_oh( Σσ(l) · Σoh(l) )
        outlier=sigma_sum * outlier_sum,
    )


def measure_raw_components(layout: Layout, grid: WindowGrid) -> RawComponents:
    """Measure overlay/variation/line/outlier on a (filled) layout.

    Density metrics are computed on the *total* metal density (wires
    plus fills) per layer; overlay sums the fill overlay of every
    adjacent layer pair (§2.1).  Both are reductions of
    :func:`score_maps`, so only area inside the grid's die counts:
    overlay equals the die-wide :func:`~repro.density.analysis.overlay_area`
    sum when every fill lies inside the die.
    """
    return _reduce_maps(score_maps(layout, grid))


def worst_windows(maps: ScoreMaps, k: int = 5) -> Dict[str, List[Dict[str, Any]]]:
    """The K worst windows by density deviation and overlay contribution.

    A regressed Variation* or Overlay* score is a number; this is the
    pointer that goes with it.  Ranks the arrays of a score's
    :class:`ScoreMaps` (``ScoreCard.maps``) into two lists of
    plain-JSON entries:

    * ``by_deviation`` — per (layer, window): total metal density, the
      layer mean, and ``|density - mean|``, worst first.  These are the
      windows dragging σ(l) (and usually the outlier product) up.
    * ``by_overlay`` — per (layer pair, window): the window's share of
      the pair's fill-induced overlay area, worst first.  Windows with
      zero overlay are omitted.

    ``k`` bounds each list independently and must be non-negative.
    """
    if k < 0:
        raise ValueError(f"worst_windows needs k >= 0, got {k}")
    by_deviation: List[Dict[str, Any]] = []
    for number, density in maps.density.items():
        mean = float(density.mean())
        cols, rows = density.shape
        # k-bounded attribution reporting, not a hot path
        for i in range(cols):  # repro: noqa[REP015]
            for j in range(rows):
                value = float(density[i, j])
                by_deviation.append(
                    {
                        "layer": number,
                        "window": [i, j],
                        "density": value,
                        "layer_mean": mean,
                        "deviation": abs(value - mean),
                    }
                )
    by_deviation.sort(key=lambda e: (-e["deviation"], e["layer"], e["window"]))

    by_overlay: List[Dict[str, Any]] = []
    for (lo, hi), per_window in maps.overlay.items():
        total = int(per_window.sum())
        if total <= 0:
            continue
        cols, rows = per_window.shape
        for i in range(cols):  # repro: noqa[REP015]
            for j in range(rows):
                area = int(per_window[i, j])
                if area <= 0:
                    continue
                by_overlay.append(
                    {
                        "layers": [lo, hi],
                        "window": [i, j],
                        "overlay_area": area,
                        "share": area / total,
                    }
                )
    by_overlay.sort(key=lambda e: (-e["overlay_area"], e["layers"], e["window"]))
    return {"by_deviation": by_deviation[:k], "by_overlay": by_overlay[:k]}


def score_layout(
    layout: Layout,
    grid: WindowGrid,
    weights: ScoreWeights,
    *,
    file_size: float = 0.0,
    runtime: float = 0.0,
    memory: float = 0.0,
) -> ScoreCard:
    """Full Eqn. (3) score card for a filled layout.

    ``file_size`` is in the same unit as ``beta_size`` (the contest uses
    megabytes), ``runtime`` in seconds, ``memory`` in MB.
    """
    maps = score_maps(layout, grid)
    raw = replace(
        _reduce_maps(maps),
        file_size=file_size,
        runtime=runtime,
        memory=memory,
    )
    return ScoreCard(
        weights=weights,
        raw=raw,
        overlay=component_score(raw.overlay, weights.beta_overlay),
        variation=component_score(raw.variation, weights.beta_variation),
        line=component_score(raw.line, weights.beta_line),
        outlier=component_score(raw.outlier, weights.beta_outlier),
        size=component_score(raw.file_size, weights.beta_size),
        runtime=component_score(raw.runtime, weights.beta_runtime),
        memory=component_score(raw.memory, weights.beta_memory),
        maps=maps,
    )
