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

The sweep is also where the engine goes parallel, and the only place:
analysis, candidate generation and sizing each run a band's window
columns as ``min(workers, columns)`` contiguous **parts**, cut by the
rule that cuts the die into bands (:func:`repro.parallel.shard_bounds`).
Windows are independent under the fixed dissection, so a run of whole
columns is a complete unit of work; more than one part runs on the
:mod:`repro.parallel` backend, and the results merge in part order,
which is grid order.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Collection, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .. import obs, parallel
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
    #: input fills written through, and those replaced or ripped up
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
        wire_indexes: Optional[Dict[int, GridIndex[int]]],
    ):
        super().__init__(BandPlan(grid, 1))
        self._layout = layout
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
            layer.number: fill_density_map(layer, grid)
            for layer in self._layout.layers
            if layer.num_fills
        }

    def commit(self, band: int, sized: SizedFills) -> None:
        self.sized = sized


@dataclass(frozen=True)
class _AnalysisStage:
    """Density analysis of one band (the shared state of its parts)."""

    layout: Layout
    grid: WindowGrid
    margin: int

    def run(self, keys: List[WindowKey]) -> Dict[int, LayerDensity]:
        return analyze_layout(self.layout, self.grid, self.margin, windows=keys)


@dataclass(frozen=True)
class _CandidateStage:
    """Alg. 1 over one band; ``selected`` keeps an ECO's windows only."""

    layout: Layout
    grid: WindowGrid
    config: FillConfig
    wire_indexes: Dict[int, GridIndex[int]]
    plan: DensityPlan
    analysis: Mapping[int, LayerDensity]
    selected: Optional[Collection[WindowKey]]

    def run(self, keys: List[WindowKey]) -> CandidatePlan:
        if self.selected is not None:
            keys = [key for key in keys if key in self.selected]
        return generate_candidates(
            self.layout,
            self.grid,
            self.plan,
            self.analysis,
            self.config,
            windows=keys,
            wire_indexes=self.wire_indexes,
        )


@dataclass(frozen=True)
class _SizingStage:
    """Sizing of one band's candidates against the re-planned targets."""

    layout: Layout
    grid: WindowGrid
    config: FillConfig
    wire_indexes: Dict[int, GridIndex[int]]
    candidates: CandidatePlan
    targets: Mapping[int, np.ndarray]

    def run(self, keys: List[WindowKey]) -> Tuple[SizedFills, SizingStats]:
        candidates = {key: self.candidates[key] for key in keys if key in self.candidates}
        return size_fills(
            self.layout,
            self.grid,
            candidates,
            self.targets,
            self.config,
            wire_indexes=self.wire_indexes,
        )


_Stage = Union[_AnalysisStage, _CandidateStage, _SizingStage]


def _run_part(stage: _Stage, columns: range) -> Any:
    """Shard worker: one stage over one part, a run of whole window columns."""
    rows = range(stage.grid.rows)
    return stage.run([(i, j) for i in columns for j in rows])


def replan(
    grid: WindowGrid,
    analysis: Mapping[int, LayerDensity],
    candidate_area: Mapping[int, np.ndarray],
    fill_density: Mapping[int, np.ndarray],
    objective: PlannerObjective,
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
    plan = plan_targets(updated, objective)
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

    def analyze(self, layout: Layout, grid: WindowGrid) -> Dict[int, LayerDensity]:
        """The global density analysis of a resident layout.

        The sweep's analysis of a one-band source, parts and all: what
        a :class:`repro.service` session caches and hands back to
        :meth:`run` as ``analysis``.
        """
        return self._analyze_band(layout, grid, range(grid.cols))

    def _over_parts(self, label: str, stage: _Stage, columns: range) -> List[Tuple[range, Any]]:
        """Run ``stage`` over the parts of a band's ``columns``, in part order.

        The columns are cut into ``min(workers, len(columns))``
        contiguous parts.  One part runs inline; more run on the
        ``config.parallel`` backend, one shard per part, under
        ``<label>.part[k]`` spans.
        """
        config = self.config
        parts = [
            columns[start:end]
            for start, end in parallel.shard_bounds(len(columns), config.effective_workers())
        ]
        if len(parts) == 1:
            return [(parts[0], _run_part(stage, parts[0]))]
        results = parallel.run_sharded(
            _run_part,
            stage,
            parts,
            workers=len(parts),
            backend=config.parallel,
            label=f"{label}.part",
        )
        return list(zip(parts, results))

    def _analyze_band(
        self, layout: Layout, grid: WindowGrid, columns: range
    ) -> Dict[int, LayerDensity]:
        """One band's analysis, joined from its parts by copying their columns."""
        stage = _AnalysisStage(
            layout, grid, self.config.effective_margin(layout.rules.min_spacing)
        )
        joined: Dict[int, LayerDensity] = {}
        for part, part_analysis in self._over_parts("analysis", stage, columns):
            cols = slice(part.start, part.stop)
            for n, ld in part_analysis.items():
                if n not in joined:
                    joined[n] = LayerDensity(
                        n, np.zeros_like(ld.lower), np.zeros_like(ld.upper), {}
                    )
                joined[n].lower[cols] = ld.lower[cols]
                joined[n].upper[cols] = ld.upper[cols]
                joined[n].fill_regions.update(ld.fill_regions)
        obs.metrics.counter("analysis.layers").inc(len(joined))
        return joined

    def _generate_band(
        self,
        source: BandSource,
        band: int,
        plan: DensityPlan,
        selected: Optional[Collection[WindowKey]],
    ) -> CandidatePlan:
        """One band's candidates, concatenated from its parts.

        The stage lives only for this call, so a streamed band's layout
        and inputs are freed before the next band loads.
        """
        stage = _CandidateStage(
            source.layout(band),
            source.plan.grid,
            self.config,
            source.wire_indexes(band),
            plan,
            source.take("analysis", band),
            selected,
        )
        candidates: CandidatePlan = {}
        for _, part_candidates in self._over_parts(
            "candidates", stage, source.plan.columns(band)
        ):
            candidates.update(part_candidates)
        return candidates

    def _size_band(
        self, source: BandSource, band: int, targets: Mapping[int, np.ndarray]
    ) -> Tuple[SizedFills, SizingStats]:
        """One band's sized fills and statistics, merged from its parts
        (the stage lives only for this call, as in :meth:`_generate_band`)."""
        stage = _SizingStage(
            source.layout(band),
            source.plan.grid,
            self.config,
            source.wire_indexes(band),
            source.take("candidates", band),
            targets,
        )
        sized: SizedFills = {}
        stats = SizingStats()
        for _, (part_sized, part_stats) in self._over_parts(
            "sizing", stage, source.plan.columns(band)
        ):
            sized.update(part_sized)
            stats.merge(part_stats)
        return sized, stats

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

        A whole-die run replaces any fill the layout already holds.
        ``windows`` restricts candidate generation, sizing and
        insertion to the given window keys while density analysis and
        target planning stay global — the incremental mode the ECO
        flow (:mod:`repro.eco`) uses to re-fill only changed windows;
        fills outside them stay.

        ``analysis`` supplies a precomputed global density analysis
        (one that matches the layout's wires and this config's
        ``effective_margin``) and skips the analysis stage entirely;
        ``wire_indexes`` supplies prebuilt per-layer wire indexes for
        candidate generation and sizing.  Both are the session-reuse
        hooks of :mod:`repro.service` — with valid caches the output
        is bit-identical to a cold run.
        """
        check_drc_params(layout.rules, name="layout.rules")
        if windows is None:
            layout.clear_fills()
        with engine_span() as run_span:
            source = _ResidentBand(
                layout, grid, dict(wire_indexes) if wire_indexes else None
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

        Each stage is one span and one pass over the bands, each band
        run in parts (:meth:`_over_parts`) whose results merge in part
        order; sized fills go to :meth:`BandSource.commit`, so the
        report's ``num_fills`` is left for the caller to count.
        ``windows`` and ``analysis`` are :meth:`run`'s; a precomputed
        analysis needs a one-band source.
        """
        plan = source.plan
        grid = plan.grid
        selected = set(windows) if windows is not None else None
        if analysis is not None and plan.num_bands != 1:
            raise ValueError("a precomputed analysis needs a one-band source")

        with obs.span("analysis") as analysis_span:
            if analysis is None:
                lower: Dict[int, np.ndarray] = {}
                upper: Dict[int, np.ndarray] = {}
                for band in range(plan.num_bands):
                    band_analysis = self._analyze_band(
                        source.layout(band), grid, plan.columns(band)
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
            initial_plan = plan_targets(analysis, self.objective)
        logger.info(
            "planned targets: %s",
            {n: round(p.td, 3) for n, p in initial_plan.layers.items()},
        )

        with obs.span("candidates"):
            candidate_area: Dict[int, np.ndarray] = {}
            num_candidates = 0
            for band in range(plan.num_bands):
                candidates = self._generate_band(source, band, initial_plan, selected)
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
            )

        with obs.span("sizing"):
            stats = SizingStats()
            for band in range(plan.num_bands):
                sized, band_stats = self._size_band(source, band, targets)
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
