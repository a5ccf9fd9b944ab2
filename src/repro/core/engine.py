"""End-to-end dummy fill insertion engine (paper Fig. 3).

Runs the full flow on a layout:

1. **density analysis** — wire densities, feasible fill regions and
   density bounds per window (§2.2, §3.1 preliminaries),
2. **density planning** — per-layer target density td (§3.1),
3. **candidate fill generation** — Alg. 1 (§3.2),
4. **density planning, second round** — re-plan against what the
   candidates can actually deliver ("another round of density planning
   is performed due to the inconsistency between candidate fills and
   initial plans"),
5. **dummy fill insertion** — shrink candidates to final sizes via the
   alternating LP / dual-MCF relaxation (§3.3) and commit them to the
   layout.

The flow is one **band sweep** (:meth:`DummyFillEngine.sweep`): the die
is cut into contiguous window-column bands, and each stage visits the
bands in order through its public function (:func:`analyze_layout`,
:func:`plan_targets`, :func:`generate_candidates`, :func:`replan`,
:func:`size_fills`).  A :class:`BandSource` supplies each band's
geometry and holds what one stage hands to the next.  A resident
:class:`~repro.layout.Layout` is a single band (:meth:`DummyFillEngine.run`);
the out-of-core driver (:func:`repro.core.stream.stream_fill`) feeds
halo-routed bands from disk, one resident at a time.  Both open the same
``engine.run`` span tree.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..contracts import check_drc_params, check_rect
from ..density.analysis import (
    LayerDensity,
    analyze_layout,
    fill_density_map,
    window_area_map,
)
from ..density.scoring import ScoreWeights
from ..geometry import GridIndex, Rect
from ..layout import BandPlan, DrcViolation, Layout, WindowGrid
from .candidates import (
    CandidatePlan,
    build_wire_indexes,
    candidate_area_maps,
    generate_candidates,
)
from .config import FillConfig
from .planner import DensityPlan, PlannerObjective, plan_targets
from .sizing import SizingStats, size_fills

__all__ = [
    "BandSource",
    "FillReport",
    "DummyFillEngine",
    "engine_span",
    "insert_fills",
    "replan",
]

logger = logging.getLogger(__name__)

WindowKey = Tuple[int, int]
#: sized fills per window, per layer, in grid order
SizedFills = Dict[WindowKey, Dict[int, List[Rect]]]


@dataclass
class FillReport:
    """Everything the engine learned while filling a layout.

    The plans are ``None`` only when nothing was re-filled (an ECO whose
    wires dirty no window).  The fields after ``stage_seconds`` describe
    the out-of-core driver's run and keep their defaults in memory.
    """

    initial_plan: Optional[DensityPlan]
    final_plan: Optional[DensityPlan]
    num_candidates: int
    num_fills: int
    sizing: SizingStats
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: window-column bands the die was swept in
    bands: int = 1
    #: fill DRC of the written layout
    violations: List[DrcViolation] = field(default_factory=list)
    #: input fills written through, and those an ECO ripped up
    kept_fills: int = 0
    removed_fills: int = 0
    bytes_spilled: int = 0
    chunks: int = 0
    bytes_written: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def summary(self) -> str:
        stages = ", ".join(
            f"{name}={secs:.2f}s" for name, secs in self.stage_seconds.items()
        )
        return (
            f"fills={self.num_fills} (from {self.num_candidates} candidates), "
            f"LP solves={self.sizing.lp_solves}, dropped={self.sizing.dropped_fills}; "
            f"{stages}"
        )


@contextmanager
def engine_span() -> Iterator[obs.Span]:
    """The ``engine.run`` root span every fill driver runs under.

    With a sampling profiler active, the span records its period and
    each stage gets the number of samples that landed inside it
    (shard workers included): CPU attribution next to the wall time.
    """
    collector = obs.profile.active_collector()
    with obs.span("engine.run") as run_span:
        if collector is not None:
            run_span.annotate(profile_period_ms=collector.period_ms)
        yield run_span
        if collector is not None:
            per_stage = collector.stage_sample_counts("engine.run")
            for child in run_span.children:
                child.annotate(profile_samples=per_stage.get(child.name, 0))


class BandSource:
    """Where the band sweep reads geometry and parks per-band state.

    ``plan`` cuts the grid into bands.  :meth:`layout` returns a layout
    holding every wire within query reach of the band's windows, so
    each stage answers those windows exactly as on the whole die.
    :meth:`keep`/:meth:`take` hold what one stage hands to the next
    (per-band analysis, then candidates); this base keeps them in
    memory, a spilling source on disk.
    """

    def __init__(self, plan: BandPlan):
        self.plan = plan
        self._held: Dict[Tuple[str, int], Any] = {}

    def windows(self, band: int) -> List[WindowKey]:
        """The band's window keys in grid order."""
        rows = range(self.plan.grid.rows)
        return [(i, j) for i in self.plan.columns(band) for j in rows]

    def keep(self, what: str, band: int, value: Any) -> None:
        self._held[what, band] = value

    def take(self, what: str, band: int) -> Any:
        return self._held.pop((what, band))

    def layout(self, band: int) -> Layout:
        raise NotImplementedError

    def wire_indexes(self, band: int) -> Dict[int, GridIndex[int]]:
        """Per-layer wire indexes of :meth:`layout`, shared by the stages."""
        raise NotImplementedError

    def fill_density(self) -> Dict[int, np.ndarray]:
        """Density of the fill already present, per layer that has any."""
        raise NotImplementedError

    def commit(self, band: int, sized: SizedFills) -> None:
        """Take the band's sized fills (grid order) once sizing is done."""
        raise NotImplementedError


class _ResidentBand(BandSource):
    """A loaded layout: the whole die as one band."""

    def __init__(
        self,
        layout: Layout,
        grid: WindowGrid,
        kernel: str,
        wire_indexes: Optional[Dict[int, GridIndex[int]]],
    ):
        super().__init__(BandPlan(grid, 1))
        self._layout = layout
        self._kernel = kernel
        self._indexes = wire_indexes
        self.sized: SizedFills = {}

    def layout(self, band: int) -> Layout:
        return self._layout

    def wire_indexes(self, band: int) -> Dict[int, GridIndex[int]]:
        if self._indexes is None:
            self._indexes = build_wire_indexes(self._layout)
        return self._indexes

    def fill_density(self) -> Dict[int, np.ndarray]:
        grid = self.plan.grid
        return {
            layer.number: fill_density_map(layer, grid, kernel=self._kernel)
            for layer in self._layout.layers
            if layer.num_fills
        }

    def commit(self, band: int, sized: SizedFills) -> None:
        self.sized = sized


def replan(
    grid: WindowGrid,
    analysis: Mapping[int, LayerDensity],
    candidate_area: Mapping[int, np.ndarray],
    fill_density: Mapping[int, np.ndarray],
    objective: PlannerObjective,
    td_step: float,
) -> Tuple[DensityPlan, Dict[int, np.ndarray]]:
    """Second planning round and the fill area each window should keep.

    The round re-plans with candidate-limited upper bounds.  A window
    can deliver its candidates *plus* any fill already committed to it
    (``fill_density``) — the latter matters in the window-restricted
    (ECO) mode, where untouched windows carry their existing fill and
    must not read as zero-capacity, which would drag the re-planned
    target below the surrounding density.

    The targets are ``dt(l)·aw`` of Eqn. (9b) per window: one
    ``max(0, dt − l) · aw`` array per layer, as :func:`size_fills`
    consumes them.
    """
    area = window_area_map(grid)
    float_area = area.astype(np.float64)
    updated: Dict[int, LayerDensity] = {}
    for n, ld in analysis.items():
        upper = np.minimum(
            1.0, ld.lower + fill_density.get(n, 0.0) + candidate_area[n] / float_area
        )
        updated[n] = LayerDensity(
            layer_number=n,
            lower=ld.lower,
            upper=upper,
            fill_regions=ld.fill_regions,
        )
    plan = plan_targets(updated, objective, td_step=td_step)
    targets = {
        n: np.maximum(0.0, plan.target(n) - analysis[n].lower) * area for n in analysis
    }
    return plan, targets


class DummyFillEngine:
    """The high-performance fill insertion framework of the paper.

    Construct with a :class:`~repro.core.config.FillConfig` (and
    optionally the benchmark's :class:`~repro.density.ScoreWeights`,
    which tune the density planner's objective), then call :meth:`run`
    on a layout.  The engine mutates the layout by adding fills and
    returns a :class:`FillReport`.
    """

    def __init__(
        self,
        config: Optional[FillConfig] = None,
        weights: Optional[ScoreWeights] = None,
    ):
        self.config = config if config is not None else FillConfig()
        self.objective = (
            PlannerObjective.from_score_weights(weights)
            if weights is not None
            else PlannerObjective()
        )

    def run(
        self,
        layout: Layout,
        grid: WindowGrid,
        windows: Optional[Sequence[WindowKey]] = None,
        *,
        analysis: Optional[Mapping[int, LayerDensity]] = None,
        wire_indexes: Optional[Mapping[int, "GridIndex[int]"]] = None,
    ) -> FillReport:
        """Execute the Fig. 3 flow; fills are committed to ``layout``.

        ``windows`` restricts candidate generation, sizing and
        insertion to the given window keys while density analysis and
        target planning stay global — the incremental mode the ECO
        flow (:mod:`repro.eco`) uses to re-fill only changed windows.

        ``analysis`` supplies a precomputed global density analysis
        (one that matches the layout's wires and this config's
        ``effective_margin``) and skips the analysis stage entirely;
        ``wire_indexes`` supplies prebuilt per-layer wire indexes for
        candidate generation and sizing.  Both are the session-reuse
        hooks of :mod:`repro.service` — with valid caches the output
        is bit-identical to a cold run.
        """
        check_drc_params(layout.rules, name="layout.rules")
        with engine_span() as run_span:
            source = _ResidentBand(
                layout,
                grid,
                self.config.kernel,
                dict(wire_indexes) if wire_indexes else None,
            )
            report = self.sweep(source, windows=windows, analysis=analysis)
            with obs.span("insertion"):
                for per_layer in source.sized.values():
                    for layer_number, rects in per_layer.items():
                        layout.layer(layer_number).add_fills(
                            check_rect(r, name=f"fill on layer {layer_number}")
                            for r in rects
                        )
                        report.num_fills += len(rects)
                obs.count("engine.fills", report.num_fills)
        report.stage_seconds = {c.name: c.seconds for c in run_span.children}
        return report

    def sweep(
        self,
        source: BandSource,
        *,
        windows: Optional[Collection[WindowKey]] = None,
        analysis: Optional[Mapping[int, LayerDensity]] = None,
    ) -> FillReport:
        """Analysis through sizing over every band of ``source``.

        Each stage is one span and one pass over the bands; sized fills
        go to :meth:`BandSource.commit`, so the report's ``num_fills``
        is left for the caller to count.  ``windows`` and ``analysis``
        are :meth:`run`'s; a precomputed analysis needs a one-band
        source.
        """
        config = self.config
        plan = source.plan
        grid = plan.grid
        selected = set(windows) if windows is not None else None
        if analysis is not None and plan.num_bands != 1:
            raise ValueError("a precomputed analysis needs a one-band source")

        with obs.span("analysis") as analysis_span:
            analysis_span.annotate(kernel=config.kernel)
            if analysis is None:
                lower: Dict[int, np.ndarray] = {}
                upper: Dict[int, np.ndarray] = {}
                for band in range(plan.num_bands):
                    layout = source.layout(band)
                    band_analysis = analyze_layout(
                        layout,
                        grid,
                        window_margin=config.effective_margin(layout.rules.min_spacing),
                        workers=config.effective_workers(),
                        parallel=config.parallel,
                        sanitize=config.sanitize,
                        kernel=config.kernel,
                        windows=source.windows(band),
                    )
                    # windows outside the band are zero: adding merges exactly
                    for n, ld in band_analysis.items():
                        lower[n] = lower.get(n, 0.0) + ld.lower
                        upper[n] = upper.get(n, 0.0) + ld.upper
                    source.keep("analysis", band, band_analysis)
                analysis = {n: LayerDensity(n, lower[n], upper[n], {}) for n in lower}
            else:
                analysis_span.annotate(reused=True)
                source.keep("analysis", 0, analysis)
            obs.count("engine.layers", len(analysis))
            obs.count("engine.windows", grid.num_windows)

        with obs.span("planning"):
            initial_plan = plan_targets(analysis, self.objective, td_step=config.td_step)
        logger.info(
            "planned targets: %s",
            {n: round(p.td, 3) for n, p in initial_plan.layers.items()},
        )

        with obs.span("candidates"):
            candidate_area: Dict[int, np.ndarray] = {}
            num_candidates = 0
            for band in range(plan.num_bands):
                keys = source.windows(band)
                if selected is not None:
                    keys = [key for key in keys if key in selected]
                candidates: CandidatePlan = generate_candidates(
                    source.layout(band),
                    grid,
                    initial_plan,
                    source.take("analysis", band),
                    config,
                    windows=keys,
                    wire_indexes=source.wire_indexes(band),
                )
                for n, area in candidate_area_maps(candidates, grid, list(analysis)).items():
                    candidate_area[n] = candidate_area.get(n, 0.0) + area
                num_candidates += sum(
                    len(rects)
                    for per_layer in candidates.values()
                    for rects in per_layer.values()
                )
                source.keep("candidates", band, candidates)
            obs.count("engine.candidates", num_candidates)
        logger.info("generated %d candidate fills", num_candidates)

        with obs.span("replanning"):
            final_plan, targets = replan(
                grid,
                analysis,
                candidate_area,
                source.fill_density(),
                self.objective,
                config.td_step,
            )

        with obs.span("sizing"):
            stats = SizingStats()
            for band in range(plan.num_bands):
                sized, band_stats = size_fills(
                    source.layout(band),
                    grid,
                    source.take("candidates", band),
                    targets,
                    config,
                    wire_indexes=source.wire_indexes(band),
                )
                stats.merge(band_stats)
                source.commit(band, sized)
            obs.count("engine.lp_solves", stats.lp_solves)
            obs.count("engine.dropped_fills", stats.dropped_fills)
        logger.info(
            "sizing: %d LP solves, %d fills dropped",
            stats.lp_solves,
            stats.dropped_fills,
        )
        return FillReport(
            initial_plan=initial_plan,
            final_plan=final_plan,
            num_candidates=num_candidates,
            num_fills=0,
            sizing=stats,
        )


def insert_fills(
    layout: Layout,
    grid: WindowGrid,
    config: Optional[FillConfig] = None,
    weights: Optional[ScoreWeights] = None,
) -> FillReport:
    """One-call convenience API: fill ``layout`` in place."""
    return DummyFillEngine(config, weights).run(layout, grid)
