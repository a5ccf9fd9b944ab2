"""Contest harness: run fillers, score them, print Table 3.

For each benchmark and each "team" (our engine, the three contest-team
stand-ins, and the coupling-constrained prior art [11, 12]), the
harness:

1. takes a fresh unfilled copy of the benchmark layout,
2. runs the filler under a wall clock and a peak-memory tracer,
3. writes the solution GDSII (file I/O is part of the measured runtime,
   as in the contest — the paper notes 40% of total runtime on
   benchmark ``b`` is file I/O),
4. computes every Eqn. (3) component with the benchmark's calibrated
   α/β and assembles the Table 3 row (Overlay*, Variation*, Line*,
   Outlier*, Size*, Run-time*, Memory*, Testcase Quality, Testcase
   Score).

:func:`format_table` renders the same layout as the paper's Table 3;
:func:`headline` computes the paper's summary claim (quality / score
improvement of ours over the best baseline).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..baselines import greedy_fill, monte_carlo_fill, tile_lp_fill
from ..core import DummyFillEngine, FillConfig
from ..density.scoring import ScoreCard, score_layout
from ..gdsii import file_size_mb, write_gdsii
from ..layout import Layout, WindowGrid
from .suite import Benchmark

__all__ = [
    "ContestEntry",
    "TEAMS",
    "run_team",
    "run_contest",
    "format_table",
    "headline",
]


@dataclass
class ContestEntry:
    """One Table 3 row: a team's scored run on one benchmark."""

    benchmark: str
    team: str
    card: ScoreCard
    num_fills: int
    seconds: float
    memory_mb: float
    file_size_mb: float

    def row(self) -> Dict[str, float]:
        return self.card.as_row()


#: η used for contest runs, and the default of ``repro fill --eta``.
#: The paper's η=1 equates one dbu² of overlay
#: with one dbu² of density gap under its own normalisation; under the
#: calibrated contest β of this suite, density is worth several times
#: more per unit area, so the engine runs with the contest-tuned value
#: (the A3 ablation benchmark sweeps this trade-off).
CONTEST_ETA = 0.2


def _run_ours(layout: Layout, grid: WindowGrid, benchmark: Benchmark) -> None:
    engine = DummyFillEngine(
        FillConfig(eta=CONTEST_ETA), weights=benchmark.weights
    )
    engine.run(layout, grid)


def _run_greedy(layout: Layout, grid: WindowGrid, benchmark: Benchmark) -> None:
    greedy_fill(layout, grid)


def _run_tile_lp(layout: Layout, grid: WindowGrid, benchmark: Benchmark) -> None:
    tile_lp_fill(layout, grid, r=4)


def _run_monte_carlo(layout: Layout, grid: WindowGrid, benchmark: Benchmark) -> None:
    monte_carlo_fill(layout, grid)


def _run_coupling_lp(layout: Layout, grid: WindowGrid, benchmark: Benchmark) -> None:
    from ..baselines import coupling_lp_fill

    coupling_lp_fill(layout, grid)


#: Registered teams: our engine, the three contest-team stand-ins (see
#: DESIGN.md §3 for which team each baseline models), plus the
#: coupling-constrained prior art of refs. [11, 12] as extra context.
TEAMS: Dict[str, Callable[[Layout, WindowGrid, Benchmark], None]] = {
    "greedy(T1)": _run_greedy,
    "tile-lp(T2)": _run_tile_lp,
    "mc(T3)": _run_monte_carlo,
    "cpl[11]": _run_coupling_lp,
    "ours": _run_ours,
}


def run_team(benchmark: Benchmark, team: str) -> ContestEntry:
    """Run one team on one benchmark and score the result.

    Timing and peak-memory measurement delegate to
    :func:`repro.obs.measure`, which samples peak RSS on a background
    thread.
    """
    filler = TEAMS[team]
    layout = benchmark.fresh_layout()
    with obs.measure() as measured, obs.span(f"contest.{team}", benchmark=benchmark.name):
        filler(layout, benchmark.grid, benchmark)
        # Solution file I/O is part of the measured runtime.
        buf = io.BytesIO()
        size_bytes = write_gdsii(layout, buf)
    seconds = measured.seconds
    memory_mb = measured.peak_rss_mb
    size_mb = file_size_mb(size_bytes)
    card = score_layout(
        layout,
        benchmark.grid,
        benchmark.weights,
        file_size=size_mb,
        runtime=seconds,
        memory=memory_mb,
    )
    return ContestEntry(
        benchmark=benchmark.name,
        team=team,
        card=card,
        num_fills=layout.num_fills,
        seconds=seconds,
        memory_mb=memory_mb,
        file_size_mb=size_mb,
    )


def run_contest(
    benchmark: Benchmark, teams: Optional[Sequence[str]] = None
) -> Dict[str, ContestEntry]:
    """Run all (or selected) teams on one benchmark."""
    names = list(teams) if teams is not None else list(TEAMS)
    return {name: run_team(benchmark, name) for name in names}


_COLUMNS = (
    "overlay",
    "variation",
    "line",
    "outlier",
    "size",
    "runtime",
    "memory",
    "quality",
    "score",
)


def format_table(results: Mapping[str, Mapping[str, ContestEntry]]) -> str:
    """Render contest results in the layout of the paper's Table 3."""
    header = (
        f"{'Design':<8}{'Team':<12}"
        + "".join(f"{c.capitalize() + '*':>11}" for c in _COLUMNS[:7])
        + f"{'Quality':>11}{'Score':>11}{'#Fills':>9}"
    )
    lines = [header, "-" * len(header)]
    for bench_name, teams in results.items():
        for team, entry in teams.items():
            row = entry.row()
            cells = "".join(f"{row[c]:>11.3f}" for c in _COLUMNS)
            lines.append(
                f"{bench_name:<8}{team:<12}{cells}{entry.num_fills:>9}"
            )
        lines.append("-" * len(header))
    return "\n".join(lines)


def headline(
    results: Mapping[str, Mapping[str, ContestEntry]],
    ours: str = "ours",
) -> Tuple[float, float]:
    """The paper's summary claim, measured on these results.

    Returns ``(quality_gain, score_gain)``: the average relative margin
    of our quality / overall score over the best baseline per
    benchmark.  The paper reports 13% and 10%.
    """
    quality_gains: List[float] = []
    score_gains: List[float] = []
    for teams in results.values():
        our = teams[ours]
        others = [e for name, e in teams.items() if name != ours]
        if not others:
            continue
        best_quality = max(e.card.quality for e in others)
        best_score = max(e.card.total for e in others)
        if best_quality > 0:
            quality_gains.append(our.card.quality / best_quality - 1.0)
        if best_score > 0:
            score_gains.append(our.card.total / best_score - 1.0)
    avg = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return avg(quality_gains), avg(score_gains)
