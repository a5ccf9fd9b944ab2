"""Equivalence tests inside the scalar sizing oracle.

The scalar sizing path (``tests/core/sizing_oracle.py``, the oracle of
the library's column batches) replaces three per-pass scans with
precomputed or vectorized forms — close pairs collected once at
prelegalize time and replayed, overlay slopes computed as one
coordinate matrix per layer, and the final strict sweep run off the
pair lists instead of a fresh spatial index.  These tests drive both
forms over randomized fill sets and require identical output, so the
oracle itself rests on the plain index scans.
"""

import random

import pytest

from repro.geometry import Rect
from repro.layout import DrcRules

from .sizing_oracle import (
    _batch_overlay_slopes,
    _Fill,
    _overlay_slopes,
    _pack_rects,
    _prelegalize_and_pairs,
    _prelegalize_strict,
    _strict_sweep_pairs,
    _transpose,
)

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)

SEEDS = [11, 29, 83, 271]


def random_fills(seed, n=60, layers=(1, 2), span=900):
    rng = random.Random(seed)
    fills = []
    for _ in range(n):
        x = rng.randrange(0, span)
        y = rng.randrange(0, span)
        w = rng.randrange(15, 100)
        h = rng.randrange(15, 100)
        fills.append(_Fill(rng.choice(layers), Rect(x, y, x + w, y + h)))
    return fills


def shrink(rng, fills):
    """Randomly shrink some live fills — what the sizing passes do."""
    for f in fills:
        if not f.alive or rng.random() < 0.4:
            continue
        r = f.rect
        dx = rng.randrange(0, max(1, r.width - 12))
        dy = rng.randrange(0, max(1, r.height - 12))
        f.rect = Rect(r.xl + dx // 2, r.yl + dy // 2, r.xh - (dx + 1) // 2, r.yh - (dy + 1) // 2)


class TestClosePairCollection:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pairs_cover_all_close_survivors(self, seed):
        fills = random_fills(seed)
        _, close_pairs = _prelegalize_and_pairs(fills, RULES)
        live = [f for f in fills if f.alive]
        sm = RULES.min_spacing
        collected = {
            (layer, a, b)
            for layer, pairs in close_pairs.items()
            for a, b in pairs
        }
        for i, f in enumerate(live):
            for j in range(i + 1, len(live)):
                other = live[j]
                if f.layer != other.layer:
                    continue
                if f.rect.euclidean_gap(other.rect) < sm:
                    assert (f.layer, i, j) in collected, (i, j)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pairs_reference_same_layer_live_positions(self, seed):
        fills = random_fills(seed)
        _, close_pairs = _prelegalize_and_pairs(fills, RULES)
        live = [f for f in fills if f.alive]
        for layer, pairs in close_pairs.items():
            for a, b in pairs:
                assert a < b
                assert live[a].layer == layer
                assert live[b].layer == layer

    def test_dropped_matches_oracle_wrapper(self):
        # _prelegalize is the wrapper; the merged scan must report the
        # same drop count it always did.
        from .sizing_oracle import _prelegalize

        fills = random_fills(7, n=80, span=500)  # dense: forces drops
        twin = [_Fill(f.layer, f.rect) for f in fills]
        dropped, _ = _prelegalize_and_pairs(fills, RULES)
        assert dropped == _prelegalize(twin, RULES)
        assert [f.alive for f in fills] == [f.alive for f in twin]
        assert dropped > 0


class TestStrictSweepReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_replay_matches_index_scan_after_shrink(self, seed):
        fills = random_fills(seed, n=80, span=700)
        _, close_pairs = _prelegalize_and_pairs(fills, RULES)
        live = [f for f in fills if f.alive]
        shrink(random.Random(seed + 1), live)

        replay = [_Fill(f.layer, f.rect, alive=f.alive) for f in live]
        oracle = [_Fill(f.layer, f.rect, alive=f.alive) for f in live]
        dropped_replay = _strict_sweep_pairs(replay, close_pairs, RULES)
        dropped_oracle = _prelegalize_strict(oracle, RULES)

        assert dropped_replay == dropped_oracle
        assert [f.alive for f in replay] == [f.alive for f in oracle]

    def test_no_shrink_no_close_pairs_no_drops(self):
        fills = [
            _Fill(1, Rect(0, 0, 50, 50)),
            _Fill(1, Rect(100, 100, 150, 150)),
        ]
        dropped, close_pairs = _prelegalize_and_pairs(fills, RULES)
        assert dropped == 0
        assert _strict_sweep_pairs(fills, close_pairs, RULES) == 0
        assert all(f.alive for f in fills)


class TestBatchOverlaySlopes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_oracle_per_fill(self, seed):
        rng = random.Random(seed)
        live = random_fills(seed, n=40)
        wires = {
            layer: [
                Rect(x, y, x + rng.randrange(5, 120), y + rng.randrange(5, 120))
                for x, y in (
                    (rng.randrange(0, 900), rng.randrange(0, 900))
                    for _ in range(25)
                )
            ]
            for layer in (1, 2)
        }
        fill_neighbors = {
            layer: [
                Rect(x, y, x + rng.randrange(10, 90), y + rng.randrange(10, 90))
                for x, y in (
                    (rng.randrange(0, 900), rng.randrange(0, 900))
                    for _ in range(15)
                )
            ]
            for layer in (1, 2)
        }
        wire_arrays = {layer: _pack_rects(rs) for layer, rs in wires.items()}
        got = _batch_overlay_slopes(live, wire_arrays, fill_neighbors)
        for k, f in enumerate(live):
            neighbors = list(wires[f.layer]) + list(fill_neighbors[f.layer])
            assert got[k] == _overlay_slopes(f.rect, neighbors), k

    def test_layer_with_no_neighbors_stays_zero(self):
        live = [_Fill(3, Rect(0, 0, 50, 50))]
        assert _batch_overlay_slopes(live, {}, {}) == [(0, 0)]

    def test_wires_only_and_fills_only_splits(self):
        fill = _Fill(1, Rect(10, 10, 60, 60))
        wire = Rect(40, 0, 120, 80)
        arrays = {1: _pack_rects([wire])}
        assert _batch_overlay_slopes([fill], arrays, {})[0] == _overlay_slopes(
            fill.rect, [wire]
        )
        assert _batch_overlay_slopes([fill], {}, {1: [wire]})[0] == _overlay_slopes(
            fill.rect, [wire]
        )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_transposed_inputs_match_oracle_too(self, seed):
        # The vertical pass feeds transposed rects through the same
        # code; parity must hold there as well.
        rng = random.Random(seed)
        live = [
            _Fill(f.layer, _transpose(f.rect)) for f in random_fills(seed, n=20)
        ]
        neigh = [
            _transpose(
                Rect(
                    rng.randrange(0, 900),
                    rng.randrange(0, 900),
                    rng.randrange(901, 999),
                    rng.randrange(901, 999),
                )
            )
            for _ in range(12)
        ]
        got = _batch_overlay_slopes(live, {}, {1: neigh, 2: neigh})
        for k, f in enumerate(live):
            assert got[k] == _overlay_slopes(f.rect, neigh)
