"""Markdown run reports for fill jobs.

Production fill tools emit a signoff report alongside the filled
layout; this module renders one from the engine's
:class:`~repro.core.engine.FillReport` plus measurements taken on the
result: per-layer density metrics before/after, per-stage timings,
DRC status, and (when score weights are supplied) the full contest
score card.  The CLI's ``fill --report`` writes it next to the output
GDSII.
"""

from __future__ import annotations

from typing import List, Optional

from .core.engine import FillReport
from .density import (
    ScoreWeights,
    compute_metrics,
    metal_density_map,
    score_layout,
    wire_density_map,
)
from .gdsii import file_size_mb, measure_file_size
from .layout import Layout, WindowGrid

__all__ = ["render_report"]


def _metrics_table(layout: Layout, grid: WindowGrid) -> List[str]:
    lines = [
        "| Layer | Wire density | Wire σ | Total density | Total σ | lh | oh | #Fills |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for layer in layout.layers:
        wires = compute_metrics(wire_density_map(layer, grid))
        total = compute_metrics(metal_density_map(layer, grid))
        lines.append(
            f"| {layer.number} | {wires.mean:.3f} | {wires.sigma:.4f} "
            f"| {total.mean:.3f} | {total.sigma:.4f} "
            f"| {total.line:.3f} | {total.outlier:.4f} "
            f"| {layer.num_fills} |"
        )
    return lines


def render_report(
    layout: Layout,
    grid: WindowGrid,
    report: FillReport,
    *,
    weights: Optional[ScoreWeights] = None,
    title: str = "Dummy fill run report",
) -> str:
    """Render a markdown report for a completed fill run.

    ``layout`` must be the *filled* layout the ``report`` describes.
    """
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        f"Layout `{layout.name}`: die {layout.die}, "
        f"{layout.num_layers} layers, {layout.num_wires} wires; "
        f"window grid {grid.cols}x{grid.rows}."
    )
    lines.append("")

    lines.append("## Result")
    lines.append("")
    lines.append(
        f"* fills inserted: **{report.num_fills}** "
        f"(from {report.num_candidates} candidates, "
        f"{report.sizing.dropped_fills} dropped)"
    )
    lines.append(
        f"* sizing: {report.sizing.lp_solves} LP solves over "
        f"{report.sizing.variables} variables / "
        f"{report.sizing.constraints} constraints"
    )
    size_bytes = measure_file_size(layout)
    lines.append(
        f"* solution GDSII: {size_bytes} bytes "
        f"({file_size_mb(size_bytes):.3f} MB)"
    )
    violations = layout.check_drc()
    status = "clean" if not violations else f"**{len(violations)} violations**"
    lines.append(f"* DRC: {status}")
    lines.append("")

    lines.append("## Target densities")
    lines.append("")
    lines.append("| Layer | Initial plan td | Final plan td | Case |")
    lines.append("|---|---|---|---|")
    initial_plan, final_plan = report.initial_plan, report.final_plan
    assert initial_plan is not None and final_plan is not None  # every run() plans
    for n in sorted(final_plan.layers):
        initial = initial_plan.layers[n]
        final = final_plan.layers[n]
        lines.append(
            f"| {n} | {initial.td:.3f} | {final.td:.3f} | {final.case} |"
        )
    lines.append("")

    lines.append("## Density metrics (after fill)")
    lines.append("")
    lines.extend(_metrics_table(layout, grid))
    lines.append("")

    lines.append("## Stage timings")
    lines.append("")
    lines.append("| Stage | Seconds |")
    lines.append("|---|---|")
    for stage, secs in report.stage_seconds.items():
        lines.append(f"| {stage} | {secs:.3f} |")
    lines.append(f"| **total** | **{report.total_seconds:.3f}** |")
    lines.append("")

    if weights is not None:
        card = score_layout(
            layout,
            grid,
            weights,
            file_size=file_size_mb(size_bytes),
            runtime=report.total_seconds,
        )
        lines.append("## Contest score card")
        lines.append("")
        lines.append("| Component | Score |")
        lines.append("|---|---|")
        for name, value in card.as_row().items():
            lines.append(f"| {name} | {value:.3f} |")
        lines.append("")
    return "\n".join(lines)
