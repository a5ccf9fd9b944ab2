"""Candidate fill region generation (paper §3.2, Alg. 1).

Given per-window fill regions and target densities, generate candidate
dummy fills so that every window reaches at least ``λ · td`` — an upper
bound the sizing stage (§3.3) later shrinks.

The multi-layer strategy follows Alg. 1:

* **odd layers first** — when the region free on *both* layer ``l`` and
  ``l+1`` (``intersect(fr(l), fr(l+1))``, Region 3 of Figs. 4/5) is
  large enough for both layers' density gaps, fills are steered into it
  (the Case I zero-overlay arrangement); otherwise candidates are taken
  largest-area first,
* **even layers second** — candidates are ranked by the quality score of
  Eqn. (8), ``q = −overlay/area + γ·area/aw``, where overlay is
  measured against the adjacent layers' wires and the already-chosen
  odd-layer candidates.

Candidate geometry itself is a maximal grid of fill cells inside each
free rectangle at legal pitch (fill size capped by the DRC deck); even
layers' grids are phase-shifted by half a pitch so fills on adjacent
layers interleave instead of stacking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..density.analysis import LayerDensity
from ..geometry import GridIndex, Rect, intersection_area, rect_set_intersect
from ..geometry.interval import normalize as _iv_normalize
from ..layout import DrcRules, Layout, WindowGrid
from .config import FillConfig
from .planner import DensityPlan

__all__ = [
    "grid_candidates",
    "quality_score",
    "CandidatePlan",
    "build_wire_indexes",
    "generate_candidates",
    "candidate_area_maps",
]

WindowKey = Tuple[int, int]
#: candidates[window][layer] -> list of candidate fill rects
CandidatePlan = Dict[WindowKey, Dict[int, List[Rect]]]


def grid_candidates(
    region: Sequence[Rect],
    rules: DrcRules,
    *,
    stagger: bool = False,
    anchor: Optional[Rect] = None,
    prefer: Optional[Sequence[Rect]] = None,
) -> List[Rect]:
    """Generate candidate fills on a global tile grid over a free region.

    The plane is cut into tiles of the DRC maximum fill size at legal
    pitch (cell + min spacing), anchored at ``anchor`` (the window; the
    region's bounding box when omitted).  Each tile contributes at most
    **one** candidate: the largest legal rectangle of the free region
    inside it.  Consequences, by construction:

    * candidates on one layer are pairwise at legal spacing (distinct
      tiles are a pitch apart, and each tile holds one rectangle),
    * a completely free tile yields one maximal fill cell — the "few
      large fills" property that gives the geometric approach its
      file-size advantage,
    * with ``stagger=True`` the grid is phase-shifted by half a pitch
      so even-layer candidates interleave with odd-layer ones (the
      Fig. 4(b) zero-overlay arrangement),
    * with ``prefer`` set (the doubly-free Region 3 of Figs. 4/5), each
      tile first looks for a legal candidate inside the preferred
      region and only falls back to the full free region when none
      exists — candidates are *shaped* to dodge the neighbour layers'
      wires, not merely re-ordered.
    """
    rects = [r for r in region if not r.is_degenerate]
    if not rects:
        return []
    from ..geometry import bounding_box

    preferred = (
        [r for r in prefer if not r.is_degenerate] if prefer else None
    )
    frame = anchor if anchor is not None else bounding_box(rects)
    sm = rules.min_spacing
    pitch_x = rules.max_fill_width + sm
    pitch_y = rules.max_fill_height + sm
    off_x = pitch_x // 2 if stagger else 0
    off_y = pitch_y // 2 if stagger else 0
    out: List[Rect] = []
    x = frame.xl - (pitch_x - off_x) % pitch_x
    while x < frame.xh:
        y = frame.yl - (pitch_y - off_y) % pitch_y
        while y < frame.yh:
            tile = Rect(x, y, x + rules.max_fill_width, y + rules.max_fill_height)
            best = None
            if preferred is not None:
                best = _best_piece(preferred, tile, rules)
            if best is None:
                best = _best_piece(rects, tile, rules)
            if best is not None:
                out.append(best)
            y += pitch_y
        x += pitch_x
    return out


def _best_piece(
    region: Sequence[Rect], tile: Rect, rules: DrcRules
) -> Optional[Rect]:
    """Largest legal rectangle of ``region`` inside ``tile``, if any.

    Region rects that don't overlap the tile cannot contribute to the
    intersection, and the canonical form of a region is unique, so
    dropping them up front leaves the scanline output unchanged while
    skipping most of the sweep for large regions.
    """
    touching = [
        r
        for r in region
        if r.xl < tile.xh and r.xh > tile.xl and r.yl < tile.yh and r.yh > tile.yl
    ]
    if not touching:
        return None
    if len(touching) == 1:
        # One overlapping region rect: the intersection is a single
        # rectangle (already canonical), so the sweep is pure overhead.
        # This is the common fully-open-area case where the tile sits
        # inside one maximal free slab.
        piece = touching[0].intersection(tile)
        assert piece is not None  # touching guarantees positive overlap
        return piece if rules.is_legal_fill(piece) else None
    clips = [r.intersection(tile) for r in touching]
    best = _largest_clip_piece(clips)  # type: ignore[arg-type]
    return best if rules.is_legal_fill(best) else None


def _largest_clip_piece(clips: Sequence[Rect]) -> Rect:
    """Largest canonical piece of a union of tile-clipped rectangles.

    The canonical decomposition of a rectilinear region — the output of
    :func:`repro.geometry.rect_set_intersect` — is a geometric
    invariant: maximal vertical runs of constant x-cross-section.  This
    computes the same pieces directly from the clipped rects (slab per
    y-edge interval, normalised x-spans, runs merged while the span
    repeats), so the selected maximum matches the sweep's result
    exactly while touching an order of magnitude fewer objects for the
    few-rect sets a tile produces.
    """
    ys = sorted({v for c in clips for v in (c.yl, c.yh)})
    best: Optional[Rect] = None
    best_key = (0, 0, 0)

    def close(xl: int, xh: int, ylo: int, yhi: int) -> None:
        nonlocal best, best_key
        piece = Rect(xl, ylo, xh, yhi)
        key = (piece.area, xl, ylo)
        if best is None or key > best_key:
            best = piece
            best_key = key

    runs: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for ylo, yhi in zip(ys, ys[1:]):
        spans = _iv_normalize(
            (c.xl, c.xh) for c in clips if c.yl <= ylo and c.yh >= yhi
        )
        nxt: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for span in spans:
            old = runs.pop(span, None)
            if old is not None and old[1] == ylo:
                nxt[span] = (old[0], yhi)
            else:
                if old is not None:
                    close(span[0], span[1], old[0], old[1])
                nxt[span] = (ylo, yhi)
        for span, run in runs.items():
            close(span[0], span[1], run[0], run[1])
        runs = nxt
    for span, run in runs.items():
        close(span[0], span[1], run[0], run[1])
    assert best is not None  # clips are non-empty with positive area
    return best


def quality_score(
    fill: Rect,
    neighbor_shapes: Sequence[Rect],
    window_area: int,
    gamma: float,
) -> float:
    """Eqn. (8): q = −overlay/area + γ · area/aw.

    ``neighbor_shapes`` is the metal (wires plus already-selected
    candidates) on the layers directly above and below.
    """
    if fill.area <= 0:
        raise ValueError("quality score of a degenerate fill")
    overlay = sum(fill.intersection_area(s) for s in neighbor_shapes)
    return -overlay / fill.area + gamma * fill.area / window_area


@dataclass(frozen=True)
class _SharedState:
    """Read-only inputs every window of a generation run shares.

    Built once per :func:`generate_candidates` call; the per-layer wire
    indexes replace the old per-window O(windows x wires) rescan of
    :func:`_neighbor_shapes`.
    """

    rules: DrcRules
    config: FillConfig
    numbers: Tuple[int, ...]
    num_layers: int
    wire_indexes: Dict[int, GridIndex[int]]


@dataclass
class _WindowContext:
    """Per-window working state shared across layers during Alg. 1."""

    key: WindowKey
    area: int
    regions: Dict[int, List[Rect]]  # fr(l)
    wire_density: Dict[int, float]  # dw(l)
    targets: Dict[int, float]  # dt(l)
    selected: Dict[int, List[Rect]]  # chosen candidates per layer


def _covered(candidate: Rect, region: Sequence[Rect]) -> bool:
    """True when the candidate lies entirely inside the region union."""
    return intersection_area([candidate], list(region)) == candidate.area


def _select_until(
    candidates: List[Rect],
    need_area: float,
    window: Optional[Rect] = None,
) -> List[Rect]:
    """Take candidates in ranked order until their area reaches
    ``need_area``, spread across the window's quadrants.

    Pure rank order concentrates the selection wherever free space (or
    quality) clusters, leaving intra-window density gradients that the
    fixed dissection cannot see but a sliding-window (multi-phase)
    audit flags immediately.  With a window given, selection
    round-robins over the four quadrants, taking each quadrant's
    candidates in rank order — same candidates, spatially balanced.
    """
    if window is None:
        ordered = candidates
    else:
        cx, cy = window.center
        buckets: List[List[Rect]] = [[], [], [], []]
        for cand in candidates:
            fx, fy = cand.center
            buckets[(fx >= cx) * 2 + (fy >= cy)].append(cand)
        ordered = []
        cursors = [0] * 4
        while len(ordered) < len(candidates):
            for q in range(4):
                if cursors[q] < len(buckets[q]):
                    ordered.append(buckets[q][cursors[q]])
                    cursors[q] += 1
    out: List[Rect] = []
    acc = 0
    for cand in ordered:
        if acc >= need_area:
            break
        out.append(cand)
        acc += cand.area
    return out


def _neighbor_shapes(
    shared: _SharedState,
    ctx: _WindowContext,
    layer_number: int,
    window: Rect,
    margin: int,
) -> List[Rect]:
    """Wires and selected candidates on layers l−1 and l+1 near a window.

    Wires come from the per-layer :class:`GridIndex` built once per
    run, not a scan of the whole layer: the index query returns
    exactly the wires whose closed box touches the expanded window —
    the same set (in the same insertion order) whose intersection with
    it is non-``None``.
    """
    shapes: List[Rect] = []
    frame = window.expanded(margin)
    for adj in (layer_number - 1, layer_number + 1):
        if adj < 1 or adj > shared.num_layers:
            continue
        for wire, _ in shared.wire_indexes[adj].query(frame):
            clipped = wire.intersection(frame)
            if clipped is not None:
                shapes.append(clipped)
        shapes.extend(ctx.selected.get(adj, []))
    return shapes


def _window_candidates(
    shared: _SharedState, ctx: _WindowContext, window: Rect
) -> Dict[int, List[Rect]]:
    """Run Alg. 1 for one window, filling ``ctx.selected``."""
    rules = shared.rules
    config = shared.config
    lam = config.lambda_factor
    numbers = shared.numbers
    # --- odd layers (Alg. 1 lines 9-19) -------------------------------
    for l in (n for n in numbers if n % 2 == 1):
        dt = ctx.targets[l]
        dw = ctx.wire_density[l]
        need = max(0.0, lam * dt - dw) * ctx.area
        if need <= 0:
            continue
        # Region 3: free on this layer AND on every existing
        # adjacent layer.  Alg. 1 writes intersect(fr(l), fr(l+1));
        # for the top odd layer of an odd stack the relevant
        # neighbour is l-1 instead.
        shared_region = ctx.regions[l]
        dg_sum = max(0.0, dt - dw)
        has_neighbor = False
        for adj in (l + 1, l - 1):
            if adj in ctx.regions and adj >= 1:
                shared_region = rect_set_intersect(
                    shared_region, ctx.regions[adj]
                )
                dg_sum += max(
                    0.0, ctx.targets[adj] - ctx.wire_density[adj]
                )
                has_neighbor = True
        if not has_neighbor:
            shared_region = []
        shared_area = sum(r.area for r in shared_region)
        case_one = bool(shared_region) and shared_area >= dg_sum * ctx.area
        # Case I (Alg. 1 line 13): both gaps fit in the doubly-free
        # region — shape candidates inside it (Fig. 4(b)) and take
        # the shaped ones first.  Case II: largest fills first
        # (Alg. 1 line 16).
        cands = grid_candidates(
            ctx.regions[l],
            rules,
            anchor=window,
            prefer=shared_region if case_one else None,
        )
        if not cands:
            continue
        if case_one:
            cands.sort(key=lambda c: (not _covered(c, shared_region), -c.area))
        else:
            cands.sort(key=lambda c: -c.area)
        ctx.selected[l] = _select_until(cands, need, window)
    # --- even layers (Alg. 1 lines 20-24) -----------------------------
    for l in (n for n in numbers if n % 2 == 0):
        dt = ctx.targets[l]
        dw = ctx.wire_density[l]
        need = max(0.0, lam * dt - dw) * ctx.area
        if need <= 0:
            continue
        # Grid phase: when the free space left over by the adjacent
        # layers' fills can host this layer's need, an *aligned*
        # grid lets the quality score pick exactly the empty tiles
        # (the Fig. 4(b) interleaving -> zero fill-fill overlay).
        # Only when the layers must fill nearly everything does a
        # half-pitch stagger reduce the unavoidable per-pair overlap.
        region_area = sum(r.area for r in ctx.regions[l])
        adj_fill_area = sum(
            r.area
            for adj in (l - 1, l + 1)
            if adj in ctx.selected
            for r in ctx.selected[adj]
        )
        use_stagger = need > max(0, region_area - adj_fill_area)
        cands = grid_candidates(
            ctx.regions[l],
            rules,
            stagger=use_stagger,
            anchor=window,
        )
        if not cands:
            continue
        neighbors = _neighbor_shapes(
            shared, ctx, l, window, rules.min_spacing
        )
        index: GridIndex[int] = GridIndex(
            max(64, rules.max_fill_width + rules.min_spacing)
        )
        for k, s in enumerate(neighbors):
            index.insert(s, k)
        scored = [
            (
                quality_score(
                    c,
                    [r for r, _ in index.query_overlapping(c)],
                    ctx.area,
                    config.gamma,
                ),
                c,
            )
            for c in cands
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        # No quadrant spread here: the quality ranking itself must
        # decide (a spread would pull overlay-heavy candidates in
        # ahead of clean ones); the odd layers' spread already
        # balances where the empty tiles are.
        ctx.selected[l] = _select_until([c for _, c in scored], need)
    return ctx.selected


def build_wire_indexes(layout: Layout) -> Dict[int, GridIndex[int]]:
    """One spatial index per layer over its wires, built up front.

    Replaces the per-window full-layer wire scans; every part of a
    band reads the band's indexes.  Also the cache a
    :class:`repro.service` session keeps alive across requests — pass
    it back into :func:`generate_candidates` (or
    :meth:`repro.core.DummyFillEngine.run`) via ``wire_indexes`` to
    skip the rebuild.  Insertion order is the layer's wire order, so a
    cached index extended in wire-commit order stays identical to a
    rebuild.
    """
    cell = max(64, min(layout.die.width, layout.die.height) // 16)
    out: Dict[int, GridIndex[int]] = {}
    for layer in layout.layers:
        index: GridIndex[int] = GridIndex(cell)
        for k, wire in enumerate(layer.wires):
            index.insert(wire, k)
        out[layer.number] = index
    return out


def _wire_indexes_for(
    layout: Layout, wire_indexes: Optional[Dict[int, GridIndex[int]]]
) -> Dict[int, GridIndex[int]]:
    """Prebuilt wire indexes after a staleness check, or a fresh build."""
    if wire_indexes is None:
        return build_wire_indexes(layout)
    for layer in layout.layers:
        index = wire_indexes.get(layer.number)
        if index is None or len(index) != layer.num_wires:
            have = "missing" if index is None else f"{len(index)} wires"
            raise ValueError(
                f"stale wire index for layer {layer.number}: {have}, "
                f"layer has {layer.num_wires}"
            )
    return wire_indexes


def generate_candidates(
    layout: Layout,
    grid: WindowGrid,
    plan: DensityPlan,
    analysis: Mapping[int, LayerDensity],
    config: Optional[FillConfig] = None,
    windows: Optional[Sequence[WindowKey]] = None,
    *,
    wire_indexes: Optional[Dict[int, GridIndex[int]]] = None,
) -> CandidatePlan:
    """Run Alg. 1 over every window of the layout.

    Returns the candidate plan: per window, per layer, the list of
    candidate fill rectangles whose total density is at least
    ``λ · td`` (when the free space allows it).

    ``windows`` restricts generation to the given window keys: one
    part of a band in the engine's sweep, and only the windows a
    change touched in the ECO flow.  ``wire_indexes`` supplies prebuilt
    per-layer wire indexes (see :func:`build_wire_indexes`); they must
    cover exactly the layout's current wires.
    """
    if config is None:
        config = FillConfig()
    numbers = tuple(layout.layer_numbers)
    shared = _SharedState(
        rules=layout.rules,
        config=config,
        numbers=numbers,
        num_layers=layout.num_layers,
        wire_indexes=_wire_indexes_for(layout, wire_indexes),
    )
    selected_windows = set(windows) if windows is not None else None
    out: CandidatePlan = {}
    for i, j, window in grid:
        key = (i, j)
        if selected_windows is not None and key not in selected_windows:
            continue
        ctx = _WindowContext(
            key=key,
            area=grid.window_area(i, j),
            regions={n: analysis[n].fill_regions.get(key, []) for n in numbers},
            wire_density={n: float(analysis[n].lower[i, j]) for n in numbers},
            targets={n: float(plan.target(n)[i, j]) for n in numbers},
            selected={n: [] for n in numbers},
        )
        selected = out[key] = _window_candidates(shared, ctx, window)
        obs.metrics.counter("candidates.windows").inc()
        for l, chosen in selected.items():
            if chosen:
                round_name = "odd" if l % 2 == 1 else "even"
                obs.metrics.counter(f"candidates.round.{round_name}").inc(len(chosen))
    obs.count("candidates.windows_selected", len(out))
    return out


def candidate_area_maps(
    candidates: CandidatePlan, grid: WindowGrid, layer_numbers: Sequence[int]
) -> Dict[int, np.ndarray]:
    """Total candidate fill area per window per layer.

    Feeds the second density-planning round (Fig. 3): after candidate
    generation the achievable upper bound of each window is the wire
    density plus what the candidates can actually deliver.
    """
    maps = {
        n: np.zeros((grid.cols, grid.rows), dtype=np.float64)
        for n in layer_numbers
    }
    for (i, j), per_layer in candidates.items():
        for n, rects in per_layer.items():
            maps[n][i, j] = float(sum(r.area for r in rects))
    return maps
