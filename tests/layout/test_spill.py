"""Spill-to-disk bucketing: band plan, halo routing, spool ordering."""

import random
import re
import struct

import numpy as np
import pytest

from repro.geometry import Rect, boxes
from repro.layout import BandPlan, LayerSpool, ShapeSpill, WindowGrid
from repro.layout.spill import RECT_RECORD
from repro.parallel import shard_bounds

from . import spill_oracle as oracle


def _box(*rects):
    return boxes(rects, len(rects))


def _bands(plan, rect, halo):
    """The bands :meth:`BandPlan.band_span` gives ``rect``, as a list."""
    first, last = plan.band_span(_box(rect), halo)
    return list(range(int(first[0]), int(last[0]) + 1))


def _read(spill, band):
    """``spill.read_boxes(band)`` as ``(layer, datatype, rect)`` shapes."""
    return [
        (layer, datatype, Rect(*row))
        for layer, datatype, box in spill.read_boxes(band)
        for row in box.tolist()
    ]


def _spool_read(spool, layer, datatype):
    return [Rect(*row) for box in spool.read_boxes(layer, datatype) for row in box.tolist()]


class TestBandPlan:
    def test_bands_partition_columns_like_shard_bounds(self):
        grid = WindowGrid(Rect(0, 0, 1000, 1000), 7, 4)
        plan = BandPlan(grid, 3)
        bounds = shard_bounds(7, 3)
        assert [
            (plan.columns(b).start, plan.columns(b).stop)
            for b in range(plan.num_bands)
        ] == bounds

    def test_band_rects_tile_the_die(self):
        grid = WindowGrid(Rect(0, 0, 1000, 600), 5, 3)
        plan = BandPlan(grid, 2)
        rects = [plan.rect(b) for b in range(plan.num_bands)]
        assert rects[0].xl == 0 and rects[-1].xh == 1000
        for a, b in zip(rects, rects[1:]):
            assert a.xh == b.xl
        assert all(r.yl == 0 and r.yh == 600 for r in rects)

    def test_more_bands_than_columns_clamps(self):
        grid = WindowGrid(Rect(0, 0, 100, 100), 2, 2)
        plan = BandPlan(grid, 10)
        assert plan.num_bands == 2

    def test_halo_routing_is_closed_box(self):
        grid = WindowGrid(Rect(0, 0, 1000, 1000), 4, 4)
        plan = BandPlan(grid, 4)  # band edges at x = 250, 500, 750
        # Exactly `halo` away from the boundary still routes both sides.
        for bands in (_bands, oracle.bands_touching):
            assert bands(plan, Rect(240, 0, 245, 10), 5) == [0, 1]
            assert bands(plan, Rect(240, 0, 244, 10), 5) == [0]
            assert bands(plan, Rect(0, 0, 1000, 10), 0) == [0, 1, 2, 3]

    def test_band_of_x(self):
        grid = WindowGrid(Rect(0, 0, 1000, 1000), 4, 4)
        plan = BandPlan(grid, 2)
        assert plan.band_of_x(0) == 0
        assert plan.band_of_x(499) == 0
        assert plan.band_of_x(500) == 1
        assert plan.band_of_x(5000) == 1


class TestShapeSpill:
    def test_roundtrip_preserves_order_per_band(self, tmp_path):
        grid = WindowGrid(Rect(0, 0, 400, 400), 4, 2)
        plan = BandPlan(grid, 2)
        spill = ShapeSpill(plan, str(tmp_path), "s", flush_records=2)
        shapes = [
            (1, 0, Rect(10, 10, 30, 30)),
            (2, 0, Rect(190, 0, 210, 20)),  # spans both bands
            (1, 1, Rect(350, 350, 380, 380)),
        ]
        for layer, dt, rect in shapes:
            spill.route_boxes(layer, dt, _box(rect), halo=0)
        spill.finish()
        band0 = _read(spill, 0)
        band1 = _read(spill, 1)
        assert band0 == [shapes[0], shapes[1]]
        assert band1 == [shapes[1], shapes[2]]
        assert spill.records == 4
        assert spill.bytes_spilled == 4 * 24
        assert spill.chunks >= 2

    def test_read_before_finish_rejected(self, tmp_path):
        grid = WindowGrid(Rect(0, 0, 100, 100), 2, 2)
        spill = ShapeSpill(BandPlan(grid, 2), str(tmp_path), "s")
        with pytest.raises(ValueError, match="finished"):
            list(spill.read_boxes(0))

    def test_add_after_finish_rejected(self, tmp_path):
        grid = WindowGrid(Rect(0, 0, 100, 100), 2, 2)
        spill = ShapeSpill(BandPlan(grid, 2), str(tmp_path), "s")
        spill.finish()
        with pytest.raises(ValueError, match="finished"):
            spill.add_boxes(0, 1, 0, _box(Rect(0, 0, 10, 10)))


class TestLayerSpool:
    def test_roundtrip_preserves_add_order(self, tmp_path):
        spool = LayerSpool(str(tmp_path), "k", flush_records=3)
        rects = [Rect(i, 0, i + 5, 5) for i in range(0, 100, 10)]
        for r in rects:
            spool.add_boxes(2, 1, _box(r))
        spool.add_boxes(1, 0, _box(Rect(0, 0, 1, 1)))
        spool.finish()
        assert _spool_read(spool, 2, 1) == rects
        assert spool.count(2, 1) == len(rects)
        assert spool.keys() == [(1, 0), (2, 1)]
        assert _spool_read(spool, 3, 0) == []

    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 9000])
    def test_box_read_equals_rect_read(self, tmp_path, count):
        rng = random.Random(count)
        rects = []
        for _ in range(count):
            x, y = rng.randint(-(1 << 31), (1 << 31) - 1000), rng.randint(-5000, 5000)
            rects.append(Rect(x, y, x + rng.randint(0, 999), y + rng.randint(0, 999)))
        spool = LayerSpool(str(tmp_path), "k", flush_records=1000)
        for r in rects:
            oracle.spool_add(spool, 3, 1, r)
        spool.finish()
        chunks = list(spool.read_boxes(3, 1))
        assert all(c.dtype == np.int64 and 0 < len(c) <= 4096 for c in chunks)
        rows = [tuple(row) for c in chunks for row in c.tolist()]
        assert rows == [(r.xl, r.yl, r.xh, r.yh) for r in oracle.spool_read(spool, 3, 1)]
        assert len(rows) == count

    def test_corrupt_chunk_detected(self, tmp_path):
        spool = LayerSpool(str(tmp_path), "k")
        spool.add_boxes(1, 0, _box(Rect(0, 0, 10, 10)))
        spool.finish()
        path = tmp_path / "k-l0001-d00.bin"
        path.write_bytes(path.read_bytes() + b"\x00" * (RECT_RECORD.size - 1))
        with pytest.raises(ValueError, match="corrupt spill chunk"):
            list(spool.read_boxes(1, 0))

    @pytest.mark.parametrize("read", ["read", "read_boxes"])
    @pytest.mark.parametrize("count", [1, 4096])
    def test_truncated_chunk_raises_from_both_reads(self, tmp_path, read, count):
        spool = LayerSpool(str(tmp_path), "k")
        spool.add_boxes(1, 0, boxes([Rect(k, 0, k + 10, 10) for k in range(count)], count))
        spool.finish()
        path = tmp_path / "k-l0001-d00.bin"
        path.write_bytes(path.read_bytes() + b"\x00" * (RECT_RECORD.size - 1))
        reader = {"read": oracle.spool_read, "read_boxes": LayerSpool.read_boxes}[read]
        with pytest.raises(ValueError, match=re.escape(f"corrupt spill chunk {path}: 15 trailing bytes")):
            list(reader(spool, 1, 0))


class TestRouteBoxes:
    """``route_boxes`` against the scalar oracle: one ``bands_touching``
    scan and one packed record per shape and band."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_route(self, tmp_path, seed):
        rng = random.Random(seed)
        grid = WindowGrid(Rect(0, 0, 1000, 700), rng.randint(1, 9), 3)
        plan = BandPlan(grid, rng.randint(1, 6))
        edges = [plan.rect(b).xl for b in range(plan.num_bands)] + [1000]
        got = ShapeSpill(plan, str(tmp_path), "got", flush_records=rng.randint(1, 50))
        want = ShapeSpill(plan, str(tmp_path), "want", flush_records=rng.randint(1, 50))
        for _ in range(rng.randint(1, 12)):
            layer, datatype, halo = rng.randint(1, 4), rng.randint(0, 1), rng.choice([0, 5, 10, 37])
            rects = []
            for _ in range(rng.randint(0, 300)):
                # corners near band edges, so closed contact at exactly halo decides
                x = rng.choice(edges) + rng.randint(-halo - 2, halo + 2) if rng.random() < 0.5 else rng.randint(-80, 1080)
                y = rng.randint(0, 690)
                rects.append(Rect(x, y, x + rng.choice([0, 1, rng.randint(1, 400)]), y + 5))
            got.route_boxes(layer, datatype, _box(*rects), halo)
            for rect in rects:
                oracle.route(want, layer, datatype, rect, halo)
        got.finish()
        want.finish()
        for band in range(plan.num_bands):
            assert _read(got, band) == list(oracle.read(want, band))
        assert got.records == want.records and got.bytes_spilled == want.bytes_spilled

    def test_read_boxes_splits_runs(self, tmp_path):
        grid = WindowGrid(Rect(0, 0, 100, 100), 1, 1)
        spill = ShapeSpill(BandPlan(grid, 1), str(tmp_path), "s")
        spill.add_boxes(0, 1, 0, _box(Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)))
        spill.add_boxes(0, 2, 0, _box(Rect(4, 0, 5, 1)))
        spill.add_boxes(0, 1, 0, _box(Rect(6, 0, 7, 1)))
        spill.finish()
        assert [(layer, dt, box.tolist()) for layer, dt, box in spill.read_boxes(0)] == [
            (1, 0, [[0, 0, 1, 1], [2, 0, 3, 1]]),
            (2, 0, [[4, 0, 5, 1]]),
            (1, 0, [[6, 0, 7, 1]]),
        ]

    @pytest.mark.parametrize("coord", [1 << 31, -(1 << 31) - 1])
    def test_beyond_int32_raises_struct_error(self, tmp_path, coord):
        spool = LayerSpool(str(tmp_path), "k")
        with pytest.raises(struct.error):
            RECT_RECORD.pack(0, 0, coord, 5)
        with pytest.raises(struct.error):
            spool.add_boxes(1, 0, np.array([[0, 0, 5, 5], [0, 0, coord, 5]], dtype=np.int64))
