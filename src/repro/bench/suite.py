"""The scaled benchmark suite: ``s``, ``b``, ``m`` (Table 2 substitute).

The ICCAD 2014 benchmarks have 382K / 8.1M / 31.8M polygons; the scaled
suite keeps the three-point size progression, the 3-layer stack and the
structural features (buses, macros, gradients, hotspot stripes, cold
windows) at sizes a laptop-scale pure-Python run can sweep (see
DESIGN.md §3 for the substitution rationale).

β coefficients are *calibrated* per benchmark the way the contest
organisers did — against reference measurements — so every score lands
in a meaningful (0, 1) band:

* ``β_variation`` / ``β_line`` — the metrics of the **unfilled** layout
  (each score reads as the fraction of raw non-uniformity removed),
* ``β_outlier`` — a quarter of the unfilled σ (outlier mass at which
  the score reaches zero),
* ``β_overlay`` — the expected overlay of *random* fill placement at
  the Case I target density (overlay-aware placement scores by how far
  below random it lands),
* ``β_size`` — the bytes of a reference dense solution (input plus a
  maximal-cell packing of the free space),
* ``β_runtime`` / ``β_memory`` — generous per-size budgets for the
  pure-Python engine.

The α weights are the contest's (Table 2): 0.2/0.2/0.2/0.15/0.05 for
quality and 0.15/0.05 for runtime/memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..density.analysis import metal_density_map
from ..density.metrics import compute_metrics
from ..density.scoring import ScoreWeights
from ..gdsii import file_size_mb, measure_file_size, predict_fill_bytes
from ..layout import DrcRules, Layout, WindowGrid
from .generator import LayoutSpec, generate_layout

__all__ = [
    "Benchmark",
    "SUITE_SPECS",
    "load_benchmark",
    "benchmark_names",
    "calibrate_weights",
    "DEFAULT_BETAS",
]

_RULES = DrcRules(
    min_spacing=10,
    min_width=10,
    min_area=400,
    max_fill_width=150,
    max_fill_height=150,
)

#: Scaled stand-ins for the contest `s` / `b` / `m` benchmarks.
SUITE_SPECS: Dict[str, Tuple[LayoutSpec, Tuple[int, int], float, float]] = {
    # name: (layout spec, (cols, rows) windows, runtime beta s, memory beta MB)
    "s": (
        LayoutSpec(
            name="s",
            die_size=4000,
            seed=20141,
            num_cell_rects=450,
            num_bus_bundles=3,
            num_macros=1,
            hotspot_columns=(0.25,),
            cold_windows=1,
            rules=_RULES,
        ),
        (8, 8),
        60.0,
        1024.0,
    ),
    "b": (
        LayoutSpec(
            name="b",
            die_size=8000,
            seed=20142,
            num_cell_rects=1800,
            num_bus_bundles=6,
            num_macros=3,
            hotspot_columns=(0.2, 0.6),
            cold_windows=2,
            rules=_RULES,
        ),
        (16, 16),
        600.0,
        2048.0,
    ),
    "m": (
        LayoutSpec(
            name="m",
            die_size=12000,
            seed=20143,
            num_cell_rects=4200,
            num_bus_bundles=9,
            num_macros=5,
            hotspot_columns=(0.15, 0.5, 0.8),
            cold_windows=3,
            rules=_RULES,
        ),
        (24, 24),
        1200.0,
        4096.0,
    ),
}

@dataclass
class Benchmark:
    """A loaded benchmark: layout, windows, calibrated score weights."""

    name: str
    layout: Layout
    grid: WindowGrid
    weights: ScoreWeights
    input_size_mb: float

    @property
    def num_wires(self) -> int:
        return self.layout.num_wires

    def fresh_layout(self) -> Layout:
        """An unfilled copy — each filler gets its own."""
        return self.layout.copy_without_fills()


#: Runtime (s) and memory (MB) β of a layout scored outside the suite:
#: ``repro score``, the service's ``score`` and the tracker's smoke case.
DEFAULT_BETAS = (60.0, 1024.0)


def calibrate_weights(
    layout: Layout,
    grid: WindowGrid,
    runtime_beta: float,
    memory_beta: float,
) -> ScoreWeights:
    """Derive per-benchmark β coefficients from the unfilled layout.

    * density βs: the unfilled layout's own metrics, so every density
      score reads as "fraction of the raw non-uniformity removed";
    * overlay β: the expected overlay of *random* fill placement at
      the Case I target density — Σ over adjacent pairs of
      ``t_l · t_{l+1} · die_area`` with ``t_l = max wire density``;
      overlay-aware placement scores by how far below random it lands;
    * size β: the bytes of a reference dense solution (input plus two
      maximal fill cells per free-area quantum), so compact geometric
      solutions score high and tile-style fill floods score near zero.
    """
    sigma_sum = line_sum = 0.0
    targets = []
    means = []
    for layer in layout.layers:
        density = metal_density_map(layer, grid)
        m = compute_metrics(density)
        sigma_sum += m.sigma
        line_sum += m.line
        targets.append(float(density.max()))
        means.append(m.mean)
    die_area = layout.die.area
    overlay_beta = sum(
        targets[k] * targets[k + 1] * die_area for k in range(len(targets) - 1)
    )
    input_bytes = measure_file_size(layout)
    # Fill volume reference: the free space at mean density, packed with
    # maximal cells; the factor 3 covers sliver fills and window-edge
    # partial cells of realistic solutions.
    free_area = sum(max(0.0, 1.0 - mean) * die_area for mean in means)
    max_cell = layout.rules.max_fill_width * layout.rules.max_fill_height
    reference_fills = int(3 * free_area / max_cell)
    size_beta_mb = file_size_mb(
        input_bytes + predict_fill_bytes(reference_fills)
    )
    return ScoreWeights(
        beta_overlay=max(overlay_beta, 1.0),
        beta_variation=max(sigma_sum, 1e-9),
        beta_line=max(line_sum, 1e-9),
        # The filled layout's σ is small, so its 3σ band is tight and
        # unreachable windows surface as outliers; a quarter of the raw
        # σ is the outlier mass at which the score hits zero.
        beta_outlier=max(0.25 * sigma_sum, 1e-9),
        beta_size=max(size_beta_mb, 1e-6),
        beta_runtime=runtime_beta,
        beta_memory=memory_beta,
    )


def load_benchmark(name: str) -> Benchmark:
    """Generate a suite benchmark and calibrate its score weights."""
    try:
        spec, (cols, rows), runtime_beta, memory_beta = SUITE_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {benchmark_names()}"
        ) from None
    layout = generate_layout(spec)
    grid = WindowGrid(layout.die, cols, rows)
    weights = calibrate_weights(layout, grid, runtime_beta, memory_beta)
    size_mb = file_size_mb(measure_file_size(layout))
    return Benchmark(
        name=name,
        layout=layout,
        grid=grid,
        weights=weights,
        input_size_mb=size_mb,
    )


def benchmark_names() -> Tuple[str, ...]:
    return tuple(SUITE_SPECS)
