"""Scalar oracle of Alg. 1: one window at a time, one tile at a time.

This is the per-tile implementation ``repro.core.candidates`` replaced
with column batches of int64 arrays.  Every tile sweeps the ``Rect``
clips of the free region inside it (:func:`_largest_clip_piece`),
Region 3 is one ``rect_set_intersect`` fold per window and layer, Case
I's coverage test is an exact union-area query (:func:`_covered`), and
the even-layer quality score (Eqn. (8)) queries a per-window
:class:`~repro.geometry.GridIndex` of the neighbour shapes once per
candidate.  The tests hold the library's ``generate_candidates`` and
``grid_candidates`` to this module's: the same rects, in the same
order.

:data:`ROUTES` counts the branches the oracle took, so a test can show
that its inputs reach every route of the algorithm; a test that reads
it swaps in a fresh ``Counter`` first.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import FillConfig, quality_score
from repro.core.candidates import CandidatePlan, _wire_indexes_for
from repro.core.planner import DensityPlan
from repro.density.analysis import LayerDensity
from repro.geometry import GridIndex, Rect, bounding_box, intersection_area, rect_set_intersect
from repro.geometry.interval import normalize as _iv_normalize
from repro.layout import DrcRules, Layout, WindowGrid

WindowKey = Tuple[int, int]

#: route name -> times taken
ROUTES: Counter = Counter()


def grid_candidates(
    region: Sequence[Rect],
    rules: DrcRules,
    *,
    stagger: bool = False,
    anchor: Optional[Rect] = None,
    prefer: Optional[Sequence[Rect]] = None,
) -> List[Rect]:
    """One candidate per tile of the pitch lattice: the largest legal
    piece of ``prefer`` inside the tile, else of ``region``."""
    rects = [r for r in region if not r.is_degenerate]
    if not rects:
        return []
    preferred = [r for r in prefer if not r.is_degenerate] if prefer else None
    frame = anchor if anchor is not None else bounding_box(rects)
    sm = rules.min_spacing
    pitch_x = rules.max_fill_width + sm
    pitch_y = rules.max_fill_height + sm
    off_x = pitch_x // 2 if stagger else 0
    off_y = pitch_y // 2 if stagger else 0
    if stagger:
        ROUTES["stagger"] += 1
    out: List[Rect] = []
    x = frame.xl - (pitch_x - off_x) % pitch_x
    while x < frame.xh:
        y = frame.yl - (pitch_y - off_y) % pitch_y
        while y < frame.yh:
            tile = Rect(x, y, x + rules.max_fill_width, y + rules.max_fill_height)
            best = None
            if preferred is not None:
                best = _best_piece(preferred, tile, rules)
                ROUTES["case1.preferred" if best is not None else "case1.fallback"] += 1
            if best is None:
                best = _best_piece(rects, tile, rules)
            if best is not None:
                out.append(best)
            y += pitch_y
        x += pitch_x
    return out


def _best_piece(region: Sequence[Rect], tile: Rect, rules: DrcRules) -> Optional[Rect]:
    """Largest legal rectangle of ``region`` inside ``tile``, if any."""
    touching = [
        r
        for r in region
        if r.xl < tile.xh and r.xh > tile.xl and r.yl < tile.yh and r.yh > tile.yl
    ]
    if not touching:
        ROUTES["tile.empty"] += 1
        return None
    if len(touching) == 1:
        ROUTES["tile.one_rect"] += 1
        piece = touching[0].intersection(tile)
        assert piece is not None
        return piece if rules.is_legal_fill(piece) else None
    clips = [r.intersection(tile) for r in touching]
    covered = sum(c.area for c in clips) == tile.area  # type: ignore[union-attr]
    ROUTES["tile.covered" if covered else "tile.partial"] += 1
    best = _largest_clip_piece(clips)  # type: ignore[arg-type]
    return best if rules.is_legal_fill(best) else None


def _largest_clip_piece(clips: Sequence[Rect]) -> Rect:
    """Largest canonical piece of a union of tile-clipped rectangles.

    The canonical decomposition — maximal vertical runs of constant
    x-cross-section, the output of :func:`repro.geometry.rect_set_intersect`
    — built slab by slab from the clips; the maximum is taken by
    ``(area, xl, yl)``.
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
        spans = _iv_normalize((c.xl, c.xh) for c in clips if c.yl <= ylo and c.yh >= yhi)
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
    assert best is not None
    return best


def _covered(candidate: Rect, region: Sequence[Rect]) -> bool:
    """True when the candidate lies entirely inside the region union."""
    return intersection_area([candidate], list(region)) == candidate.area


def _select_until(
    candidates: List[Rect], need_area: float, window: Optional[Rect] = None
) -> List[Rect]:
    """Ranked candidates until their area reaches ``need_area``; with a
    window, round-robin over its quadrants."""
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
    wire_indexes: Mapping[int, GridIndex[int]],
    num_layers: int,
    selected: Mapping[int, List[Rect]],
    layer_number: int,
    window: Rect,
    margin: int,
) -> List[Rect]:
    """Wires and selected candidates on layers l−1 and l+1 near a window."""
    shapes: List[Rect] = []
    frame = window.expanded(margin)
    for adj in (layer_number - 1, layer_number + 1):
        if adj < 1 or adj > num_layers:
            continue
        for wire, _ in wire_indexes[adj].query(frame):
            clipped = wire.intersection(frame)
            if clipped is not None:
                shapes.append(clipped)
        shapes.extend(selected.get(adj, []))
    return shapes


def _window_candidates(
    window: Rect,
    area: int,
    regions: Mapping[int, List[Rect]],
    wire_density: Mapping[int, float],
    targets: Mapping[int, float],
    numbers: Sequence[int],
    wire_indexes: Mapping[int, GridIndex[int]],
    rules: DrcRules,
    config: FillConfig,
) -> Dict[int, List[Rect]]:
    """Alg. 1 for one window."""
    lam = config.lambda_factor
    selected: Dict[int, List[Rect]] = {n: [] for n in numbers}
    # --- odd layers (Alg. 1 lines 9-19) -------------------------------
    for l in (n for n in numbers if n % 2 == 1):
        dt = targets[l]
        dw = wire_density[l]
        need = max(0.0, lam * dt - dw) * area
        if need <= 0:
            continue
        shared_region = regions[l]
        dg_sum = max(0.0, dt - dw)
        neighbours = 0
        for adj in (l + 1, l - 1):
            if adj in regions and adj >= 1:
                shared_region = rect_set_intersect(shared_region, regions[adj])
                dg_sum += max(0.0, targets[adj] - wire_density[adj])
                neighbours += 1
        if neighbours == 0:
            shared_region = []
        elif neighbours == 2:
            ROUTES["region3.triple"] += 1
        shared_area = sum(r.area for r in shared_region)
        case_one = bool(shared_region) and shared_area >= dg_sum * area
        cands = grid_candidates(
            regions[l], rules, anchor=window, prefer=shared_region if case_one else None
        )
        if not cands:
            continue
        if case_one:
            cands.sort(key=lambda c: (not _covered(c, shared_region), -c.area))
        else:
            cands.sort(key=lambda c: -c.area)
        selected[l] = _select_until(cands, need, window)
    # --- even layers (Alg. 1 lines 20-24) -----------------------------
    for l in (n for n in numbers if n % 2 == 0):
        dt = targets[l]
        dw = wire_density[l]
        need = max(0.0, lam * dt - dw) * area
        if need <= 0:
            continue
        region_area = sum(r.area for r in regions[l])
        adj_fill_area = sum(
            r.area for adj in (l - 1, l + 1) if adj in selected for r in selected[adj]
        )
        use_stagger = need > max(0, region_area - adj_fill_area)
        cands = grid_candidates(regions[l], rules, stagger=use_stagger, anchor=window)
        if not cands:
            continue
        neighbors = _neighbor_shapes(
            wire_indexes, len(numbers), selected, l, window, rules.min_spacing
        )
        index: GridIndex[int] = GridIndex(max(64, rules.max_fill_width + rules.min_spacing))
        for k, s in enumerate(neighbors):
            index.insert(s, k)
        scored = [
            (
                quality_score(
                    c, [r for r, _ in index.query_overlapping(c)], area, config.gamma
                ),
                c,
            )
            for c in cands
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        selected[l] = _select_until([c for _, c in scored], need)
    return selected


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
    """Alg. 1 over the windows of the grid (all, or ``windows``), in grid order."""
    config = config or FillConfig()
    numbers = tuple(layout.layer_numbers)
    indexes = _wire_indexes_for(layout, wire_indexes)
    chosen = set(windows) if windows is not None else None
    out: CandidatePlan = {}
    for i, j, window in grid:
        key = (i, j)
        if chosen is not None and key not in chosen:
            continue
        out[key] = _window_candidates(
            window,
            grid.window_area(i, j),
            {n: analysis[n].fill_regions.get(key, []) for n in numbers},
            {n: float(analysis[n].lower[i, j]) for n in numbers},
            {n: float(plan.target(n)[i, j]) for n in numbers},
            numbers,
            indexes,
            layout.rules,
            config,
        )
    return out
