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

Candidate geometry is a lattice of tiles of the DRC maximum fill size
at legal pitch, anchored at the window; each tile holds at most one
candidate, the largest legal piece of the free region inside it.  Even
layers' lattices are phase-shifted by half a pitch when the layers must
fill nearly everything, so fills on adjacent layers interleave instead
of stacking.

The windows of one window column are one batch of int64 arrays, as in
sizing: the odd layers of every window of the column first, then the
even layers, which read the odd selections.  Three array kernels do the
work:

* **tile pieces** (:meth:`_Lattice.candidates`) — every tile ×
  region-rect pair is clipped, and the clips merge along chains of
  equal x-span in which one clip's ``yh`` is the next one's ``yl``.  A
  tile's best chain by ``(area, xl, yl)`` is its candidate when it is a
  legal fill.  For a region in canonical form (disjoint rects whose
  x-spans never abut at any y — what density analysis hands over) the
  chains are exactly the canonical pieces of the region inside the
  tile, so this is the largest canonical piece;
* **Region 3** (:func:`_region3`) — the positive pairwise intersections
  of fr(l) with fr(l+1), and with fr(l−1) for a middle odd layer.  These
  pieces are disjoint and their x-spans never abut at any y, so the same
  chain merge shapes Case I candidates; their int64 area sum is Case
  I's test, and a candidate's overlap sum with them its coverage;
* **Eqn. (8)** — one candidates × neighbours overlap-area join per
  column, block-diagonal by window: the neighbours are the adjacent
  layers' wires (one wire-index query per column and layer) and the
  window's odd selections.  Scores are evaluated in the order of
  :func:`quality_score` in float64, so they are the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..density.analysis import LayerDensity
from ..geometry import GridIndex, Rect, bounding_box
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

#: most index pairs one :func:`_key_join` chunk materialises
_JOIN_CHUNK = 1 << 12

_CORNERS = attrgetter("xl", "yl", "xh", "yh")


def _key_join(
    left: np.ndarray, right: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every ``(i, j)`` with ``left[i] == right[j]``; ``right`` is sorted.

    The pairs come ordered by ``i``, then ``j``, in chunks of at most
    ``_JOIN_CHUNK`` (more only when one ``i`` alone has more matches),
    so a caller keeps each chunk's few useful pairs before the next
    chunk is built.
    """
    start = np.searchsorted(right, left, "left")
    count = np.searchsorted(right, left, "right") - start
    before = np.zeros(len(left) + 1, np.int64)
    np.cumsum(count, out=before[1:])
    i0 = 0
    while i0 < len(left):
        i1 = int(np.searchsorted(before, before[i0] + _JOIN_CHUNK, "right")) - 1
        i1 = min(len(left), max(i1, i0 + 1))
        rows = np.repeat(np.arange(i0, i1), count[i0:i1])
        cols = np.repeat(start[i0:i1] - before[i0:i1], count[i0:i1]) + np.arange(
            before[i0], before[i1]
        )
        yield rows, cols
        i0 = i1


def _boxes(rects: Iterable[Rect], n: int) -> np.ndarray:
    """The ``n`` rects as an ``(n, 4)`` int64 array of (xl, yl, xh, yh)."""
    return np.fromiter(chain.from_iterable(map(_CORNERS, rects)), np.int64, 4 * n).reshape(n, 4)


def _area(box: np.ndarray) -> np.ndarray:
    return (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Box of ``a ∩ b`` row by row; rows without positive area are empty
    (``xl >= xh`` or ``yl >= yh``)."""
    return np.concatenate(
        (np.maximum(a[:, :2], b[:, :2]), np.minimum(a[:, 2:], b[:, 2:])), axis=1
    )


def _overlap_area(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlap area of ``a`` and ``b`` row by row (0 when disjoint)."""
    box = _overlap(a, b)
    return np.maximum(box[:, 2] - box[:, 0], 0) * np.maximum(box[:, 3] - box[:, 1], 0)


def _sums(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Exact int64 sum of ``values`` per id in ``range(n)``."""
    out = np.zeros(n, np.int64)
    np.add.at(out, ids, values)
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices ``starts[k] .. starts[k] + counts[k] - 1`` for every ``k``
    in turn, and the ``k`` of each."""
    owner = np.repeat(np.arange(len(starts)), counts)
    offset = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return offset + np.arange(len(owner)), owner


def _legal(box: np.ndarray, rules: DrcRules) -> np.ndarray:
    """:meth:`DrcRules.is_legal_fill` of every box."""
    w = box[:, 2] - box[:, 0]
    h = box[:, 3] - box[:, 1]
    return (
        (w >= rules.min_width)
        & (h >= rules.min_width)
        & (w * h >= rules.min_area)
        & (w <= rules.max_fill_width)
        & (h <= rules.max_fill_height)
    )


class _Lattice:
    """The tile lattices of a batch of calls, one (window, layer) each.

    The plane is cut into tiles of the DRC maximum fill size at legal
    pitch (cell + min spacing), anchored at the call's frame and
    shifted by half a pitch where the call staggers.  Call ``c`` has
    ``nx[c] × ny[c]`` tiles covering its frame, the first at
    ``(x0[c], y0[c])``; tiles are numbered call by call and x-major
    within a call (Alg. 1's sweep order), starting at ``base[c]``.
    """

    def __init__(self, frames: np.ndarray, stagger: np.ndarray, rules: DrcRules) -> None:
        self.rules = rules
        self.w, self.h = rules.max_fill_width, rules.max_fill_height
        self.px = self.w + rules.min_spacing
        self.py = self.h + rules.min_spacing
        self.x0 = frames[:, 0] - (self.px - np.where(stagger, self.px // 2, 0)) % self.px
        self.y0 = frames[:, 1] - (self.py - np.where(stagger, self.py // 2, 0)) % self.py
        self.nx = np.maximum(0, -((self.x0 - frames[:, 2]) // self.px))
        self.ny = np.maximum(0, -((self.y0 - frames[:, 3]) // self.py))
        sizes = self.nx * self.ny
        self.base = np.cumsum(sizes) - sizes
        self.call = np.repeat(np.arange(len(frames)), sizes)

    def _best(self, box: np.ndarray, owner: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Tiles holding a legal largest piece of their call's rects, and
        those pieces: ``(tiles ascending, (k, 4) boxes)``.

        ``box`` are the rects, ``owner`` the call each belongs to.  A
        rect overlaps the tiles ``k0 <= k < k1`` of each axis, where
        ``tile(k) < rect.hi`` and ``tile(k) + size > rect.lo``.
        """
        w, h, px, py = self.w, self.h, self.px, self.py
        ox, oy = self.x0[owner], self.y0[owner]
        kx0 = np.maximum(0, (box[:, 0] - ox - w) // px + 1)
        kx1 = np.minimum(self.nx[owner], (box[:, 2] - ox - 1) // px + 1)
        ky0 = np.maximum(0, (box[:, 1] - oy - h) // py + 1)
        ky1 = np.minimum(self.ny[owner], (box[:, 3] - oy - 1) // py + 1)
        span = np.maximum(0, ky1 - ky0)
        count = np.maximum(0, kx1 - kx0) * span
        k = np.repeat(np.arange(len(box)), count)
        if not len(k):
            return k, np.zeros((0, 4), np.int64)
        local = np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
        kx = kx0[k] + local // span[k]
        ky = ky0[k] + local % span[k]
        call = owner[k]
        tile = self.base[call] + kx * self.ny[call] + ky
        tx, ty = self.x0[call] + kx * px, self.y0[call] + ky * py
        clip = _overlap(box[k], np.column_stack((tx, ty, tx + w, ty + h)))

        # Chains: clips of one tile with equal (xl, xh), each starting
        # where the previous one ends.
        order = np.lexsort((clip[:, 1], clip[:, 2], clip[:, 0], tile))
        tile, clip = tile[order], clip[order]
        new = np.ones(len(tile), dtype=bool)
        new[1:] = (
            (tile[1:] != tile[:-1])
            | (clip[1:, 0] != clip[:-1, 0])
            | (clip[1:, 2] != clip[:-1, 2])
            | (clip[1:, 1] != clip[:-1, 3])
        )
        first = np.flatnonzero(new)
        piece = clip[first]
        piece[:, 3] = clip[np.append(first[1:], len(tile)) - 1, 3]
        tile = tile[first]

        # Each tile's largest piece by (area, xl, yl), if legal.
        order = np.lexsort((piece[:, 1], piece[:, 0], _area(piece), tile))
        last = np.append(tile[order][1:] != tile[order][:-1], True)
        top = order[last]
        legal = _legal(piece[top], self.rules)
        return tile[top][legal], piece[top][legal]

    def candidates(
        self,
        box: np.ndarray,
        owner: np.ndarray,
        prefer: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each tile's candidate in tile order: ``(calls, (k, 4) boxes)``.

        A tile's candidate is the largest legal piece inside it of the
        preferred region (``prefer``, rects and their calls), failing
        that of the region (``box`` and ``owner``).
        """
        has = np.zeros(len(self.call), dtype=bool)
        best = np.zeros((len(self.call), 4), np.int64)
        for rects, calls in [(box, owner)] + ([prefer] if prefer is not None else []):
            tiles, pieces = self._best(rects, calls)
            has[tiles] = True
            best[tiles] = pieces
        tiles = np.flatnonzero(has)
        return self.call[tiles], best[tiles]


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

    ``region`` and ``prefer`` are rect lists whose rects are disjoint
    and whose x-spans never abut at any y, as density analysis produces
    them (zero-area rects are ignored); the rects of other lists still
    give legal candidates inside the region, not always the largest.
    This is :func:`generate_candidates`' tile kernel run on one batch
    of one call.
    """
    rects = [r for r in region if not r.is_degenerate]
    if not rects:
        return []
    frame = anchor if anchor is not None else bounding_box(rects)
    lattice = _Lattice(_boxes([frame], 1), np.array([stagger]), rules)
    preferred = [r for r in prefer if not r.is_degenerate] if prefer else []
    _, box = lattice.candidates(
        _boxes(rects, len(rects)),
        np.zeros(len(rects), np.int64),
        (_boxes(preferred, len(preferred)), np.zeros(len(preferred), np.int64)),
    )
    return [Rect(*b) for b in box.tolist()]


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


def _region3(
    box: np.ndarray, slot: np.ndarray, own: np.ndarray, adjacent: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Region 3 of each call, as pieces: ``((k, 4) boxes, calls)``, by call.

    ``box`` holds the free-region rects of the batch sorted by ``slot``
    (a window and layer); call ``c`` reads slot ``own[c]`` and, from
    each array of ``adjacent``, the slot of one adjacent layer (``-1``
    when the layer does not exist).  The pieces are the positive
    intersections of one rect of every slot a call reads — a call with
    no adjacent layer has none.  Alg. 1 writes
    ``intersect(fr(l), fr(l+1))``; for the top odd layer of an odd stack
    the neighbour is l−1, and a middle odd layer is intersected with
    both.
    """
    piece, call = _slot_rects(box, slot, own)
    for adj in adjacent:
        want = adj[call]
        pieces, calls = [piece[want < 0]], [call[want < 0]]
        for a, b in _key_join(want, slot):
            clip = _overlap(piece[a], box[b])
            keep = (clip[:, 0] < clip[:, 2]) & (clip[:, 1] < clip[:, 3])
            pieces.append(clip[keep])
            calls.append(call[a[keep]])
        piece, call = np.concatenate(pieces), np.concatenate(calls)
    keep = np.flatnonzero((np.column_stack(adjacent) >= 0).any(axis=1)[call])
    keep = keep[np.argsort(call[keep], kind="stable")]
    return piece[keep], call[keep]


def _slot_rects(
    box: np.ndarray, slot: np.ndarray, own: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The rects of slot ``own[c]`` for every call ``c`` in turn, and their calls."""
    start = np.searchsorted(slot, own, "left")
    rows, call = _ranges(start, np.searchsorted(slot, own, "right") - start)
    return box[rows], call


def _adjacent(own: np.ndarray, step: int, layers: int) -> np.ndarray:
    """Slot of the layer ``step`` above each slot's layer (``-1``: none)."""
    li = own % layers + step
    return np.where((li >= 0) & (li < layers), own + step, -1)


def _spread(call: np.ndarray, box: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Alg. 1's quadrant round-robin over ranked candidates.

    ``call`` is sorted and each call's candidates are in rank order;
    returns the order that takes, call by call, the first candidate of
    each of the window's four quadrants, then the second, and so on.
    Pure rank order concentrates the selection wherever free space
    clusters, leaving intra-window density gradients that a
    sliding-window audit flags; the spread keeps the same candidates,
    spatially balanced.
    """
    frame = frames[call]
    quad = 2 * (box[:, 0] + box[:, 2] >= frame[:, 0] + frame[:, 2]) + (
        box[:, 1] + box[:, 3] >= frame[:, 1] + frame[:, 3]
    )
    bucket = np.lexsort((quad, call))
    group = (4 * call + quad)[bucket]
    rank = np.empty(len(call), np.int64)
    rank[bucket] = np.arange(len(call)) - np.searchsorted(group, group, "left")
    return np.lexsort((quad, rank, call))


def _take(call: np.ndarray, area: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Which ranked candidates to keep: each call's prefix whose area
    before the candidate is still below the call's ``need``."""
    before = np.cumsum(area) - area
    before -= before[np.searchsorted(call, call, "left")]
    return before < need[call]


@dataclass(frozen=True)
class _Shared:
    """Read-only inputs every column of a generation run shares."""

    grid: WindowGrid
    plan: DensityPlan
    analysis: Mapping[int, LayerDensity]
    rules: DrcRules
    config: FillConfig
    numbers: Tuple[int, ...]
    wire_indexes: Dict[int, GridIndex[int]]


class _Column:
    """Alg. 1 over some windows of one grid column, as one batch.

    A slot is one (window, layer) of the batch, numbered window by
    window with the layers ascending; a call is a slot whose layer
    needs fill.  ``box`` holds every non-degenerate free-region rect of
    the batch, sorted by ``slot``.
    """

    def __init__(self, shared: _Shared, i: int, rows: List[int]) -> None:
        grid, numbers = shared.grid, shared.numbers
        self.shared = shared
        self.i, self.rows = i, rows
        self.layers = nl = len(numbers)
        self.frames = _boxes((grid.window(i, j) for j in rows), len(rows))
        self.aw = [grid.window_area(i, j) for j in rows]
        self.targets = [shared.plan.target(n)[i, rows].tolist() for n in numbers]
        self.wire_density = [shared.analysis[n].lower[i, rows].tolist() for n in numbers]
        regions = [
            shared.analysis[n].fill_regions.get((i, j), []) for j in rows for n in numbers
        ]
        counts = [len(r) for r in regions]
        box = _boxes(chain.from_iterable(regions), sum(counts))
        slot = np.repeat(np.arange(len(rows) * nl), counts)
        self.region_area = _sums(slot, _area(box), len(rows) * nl).tolist()
        live = (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3])
        self.box, self.slot = box[live], slot[live]

    def _calls(self, parity: int) -> Tuple[np.ndarray, np.ndarray]:
        """Slots of the layers of one parity that need fill, and the need
        ``max(0, λ·dt − dw) · aw`` of each."""
        lam = self.shared.config.lambda_factor
        slots, needs = [], []
        for w, aw in enumerate(self.aw):
            for li, n in enumerate(self.shared.numbers):
                if n % 2 == parity:
                    need = max(0.0, lam * self.targets[li][w] - self.wire_density[li][w]) * aw
                    if need > 0:
                        slots.append(w * self.layers + li)
                        needs.append(need)
        return np.array(slots, dtype=np.int64), np.array(needs, dtype=np.float64)

    def _gap(self, w: int, li: int) -> float:
        return max(0.0, self.targets[li][w] - self.wire_density[li][w])

    def odd(self) -> Tuple[np.ndarray, np.ndarray]:
        """Alg. 1 lines 9-19: the odd selections, ``(slots, (k, 4) boxes)``."""
        nl = self.layers
        own, need = self._calls(1)
        adjacent = [_adjacent(own, 1, nl), _adjacent(own, -1, nl)]
        piece, piece_call = _region3(self.box, self.slot, own, adjacent)
        shared_area = _sums(piece_call, _area(piece), len(own)).tolist()
        # Case I (Alg. 1 line 13): both gaps fit in the doubly-free
        # region — shape candidates inside it (Fig. 4(b)) and take the
        # ones it covers first.  Case II: largest fills first (line 16).
        case_one = np.zeros(len(own), dtype=bool)
        for c, s in enumerate(own.tolist()):
            w, li = divmod(s, nl)
            dg_sum = self._gap(w, li)
            for adj in (li + 1, li - 1):
                if 0 <= adj < nl:
                    dg_sum += self._gap(w, adj)
            case_one[c] = shared_area[c] > 0 and shared_area[c] >= dg_sum * self.aw[w]
        steer = case_one[piece_call]
        piece, piece_call = piece[steer], piece_call[steer]
        frames = self.frames[own // nl]
        lattice = _Lattice(frames, np.zeros(len(own), dtype=bool), self.shared.rules)
        call, cand = lattice.candidates(
            *_slot_rects(self.box, self.slot, own), prefer=(piece, piece_call)
        )
        area = _area(cand)
        covered = np.zeros(len(cand), np.int64)
        for a, b in _key_join(call, piece_call):
            np.add.at(covered, a, _overlap_area(cand[a], piece[b]))
        uncovered = case_one[call] & (covered != area)
        order = np.lexsort((-area, uncovered, call))
        order = order[_spread(call[order], cand[order], frames)]
        order = order[_take(call[order], area[order], need)]
        return own[call[order]], cand[order]

    def even(self, odd_slot: np.ndarray, odd_box: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Alg. 1 lines 20-24: the even selections, ``(slots, (k, 4) boxes)``,
        ranked by the quality score of Eqn. (8) against ``odd_*``."""
        nl = self.layers
        own, need = self._calls(0)
        odd_area = _sums(odd_slot, _area(odd_box), len(self.rows) * nl).tolist()
        # Grid phase: when the free space left over by the adjacent
        # layers' fills can host this layer's need, an *aligned* grid
        # lets the quality score pick exactly the empty tiles (the Fig.
        # 4(b) interleaving -> zero fill-fill overlay).  Only when the
        # layers must fill nearly everything does a half-pitch stagger
        # reduce the unavoidable per-pair overlap.
        stagger = np.zeros(len(own), dtype=bool)
        for c, s in enumerate(own.tolist()):
            adj_fill = sum(odd_area[s + d] for d in (-1, 1) if 0 <= s % nl + d < nl)
            stagger[c] = need[c] > max(0, self.region_area[s] - adj_fill)
        lattice = _Lattice(self.frames[own // nl], stagger, self.shared.rules)
        call, cand = lattice.candidates(*_slot_rects(self.box, self.slot, own))
        area = _area(cand)
        overlay = self._overlay(own[call], cand, odd_slot, odd_box)
        aw = np.array(self.aw, dtype=np.int64)[own[call] // nl]
        q = -overlay / area + self.shared.config.gamma * area / aw
        order = np.lexsort((cand[:, 3], cand[:, 2], cand[:, 1], cand[:, 0], -q, call))
        # No quadrant spread here: the quality ranking itself must decide
        # (a spread would pull overlay-heavy candidates in ahead of clean
        # ones); the odd layers' spread already balances where the empty
        # tiles are.
        order = order[_take(call[order], area[order], need)]
        return own[call[order]], cand[order]

    def _overlay(
        self, slot: np.ndarray, cand: np.ndarray, odd_slot: np.ndarray, odd_box: np.ndarray
    ) -> np.ndarray:
        """Each even candidate's overlap area with the metal of the layers
        above and below it in its window: their wires and odd selections.

        The wires of a layer come from one wire-index query over the
        column, each kept for every window its closed box reaches in y.
        """
        nl = self.layers
        numbers = self.shared.numbers
        frames = self.frames
        column = Rect(
            int(frames[0, 0]), int(frames[0, 1]), int(frames[-1, 2]), int(frames[-1, 3])
        )
        boxes, slots = [odd_box], [odd_slot]
        adjacent = np.unique(np.concatenate((slot % nl - 1, slot % nl + 1)))
        for a in adjacent[(adjacent >= 0) & (adjacent < nl)].tolist():
            hits = self.shared.wire_indexes[numbers[a]].query(column)
            wires = _boxes((r for r, _ in hits), len(hits))
            first = np.searchsorted(frames[:, 3], wires[:, 1], "left")
            reach = np.searchsorted(frames[:, 1], wires[:, 3], "right") - first
            window, wire = _ranges(first, np.maximum(reach, 0))
            boxes.append(wires[wire])
            slots.append(window * nl + a)
        nslot = np.concatenate(slots)
        order = np.argsort(nslot, kind="stable")
        nbox, nslot = np.concatenate(boxes)[order], nslot[order]
        want = np.column_stack((_adjacent(slot, -1, nl), _adjacent(slot, 1, nl))).ravel()
        overlay = np.zeros(len(cand), np.int64)
        for a, b in _key_join(want, nslot):
            np.add.at(overlay, a // 2, _overlap_area(cand[a // 2], nbox[b]))
        return overlay

    def run(self) -> Dict[WindowKey, Dict[int, List[Rect]]]:
        """Both rounds; each window's selected candidates per layer."""
        numbers = self.shared.numbers
        nl = self.layers
        odd = self.odd()
        even = self.even(*odd)
        out: Dict[WindowKey, Dict[int, List[Rect]]] = {
            (self.i, j): {n: [] for n in numbers} for j in self.rows
        }
        obs.metrics.counter("candidates.round.odd").inc(len(odd[0]))
        obs.metrics.counter("candidates.round.even").inc(len(even[0]))
        # The plan lives until sizing: a column's rects share one int
        # object per distinct coordinate.
        values, index = np.unique(np.concatenate((odd[1], even[1])), return_inverse=True)
        coord = values.tolist()
        slots = np.concatenate((odd[0], even[0])).tolist()
        for s, (xl, yl, xh, yh) in zip(slots, index.reshape(-1, 4).tolist()):
            out[(self.i, self.rows[s // nl])][numbers[s % nl]].append(
                Rect(coord[xl], coord[yl], coord[xh], coord[yh])
            )
        return out


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
    ``λ · td`` (when the free space allows it), in grid order.  The
    windows of one grid column run as one batch (:class:`_Column`);
    each window's candidates equal running it alone.

    ``windows`` restricts generation to the given window keys: one
    part of a band in the engine's sweep, and only the windows a
    change touched in the ECO flow.  ``wire_indexes`` supplies prebuilt
    per-layer wire indexes (see :func:`build_wire_indexes`); they must
    cover exactly the layout's current wires.
    """
    if config is None:
        config = FillConfig()
    shared = _Shared(
        grid=grid,
        plan=plan,
        analysis=analysis,
        rules=layout.rules,
        config=config,
        numbers=tuple(layout.layer_numbers),
        wire_indexes=_wire_indexes_for(layout, wire_indexes),
    )
    chosen = set(windows) if windows is not None else None
    out: CandidatePlan = {}
    for i in range(grid.cols):
        rows = [j for j in range(grid.rows) if chosen is None or (i, j) in chosen]
        if rows:
            out.update(_Column(shared, i, rows).run())
    obs.metrics.counter("candidates.windows").inc(len(out))
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
