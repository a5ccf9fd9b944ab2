"""Spill-to-disk bucketing: band plan, halo routing, spool ordering."""

import random
import re

import numpy as np
import pytest

from repro.geometry import Rect
from repro.layout import BandPlan, LayerSpool, ShapeSpill, WindowGrid
from repro.layout.spill import RECT_RECORD
from repro.parallel import shard_bounds


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
        assert plan.bands_touching(Rect(240, 0, 245, 10), halo=5) == [0, 1]
        assert plan.bands_touching(Rect(240, 0, 244, 10), halo=5) == [0]
        assert plan.bands_touching(Rect(0, 0, 1000, 10), halo=0) == [0, 1, 2, 3]

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
            spill.route(layer, dt, rect, halo=0)
        spill.finish()
        band0 = list(spill.read(0))
        band1 = list(spill.read(1))
        assert band0 == [shapes[0], shapes[1]]
        assert band1 == [shapes[1], shapes[2]]
        assert spill.records == 4
        assert spill.bytes_spilled == 4 * 24
        assert spill.chunks >= 2

    def test_read_before_finish_rejected(self, tmp_path):
        grid = WindowGrid(Rect(0, 0, 100, 100), 2, 2)
        spill = ShapeSpill(BandPlan(grid, 2), str(tmp_path), "s")
        with pytest.raises(ValueError, match="finished"):
            list(spill.read(0))

    def test_add_after_finish_rejected(self, tmp_path):
        grid = WindowGrid(Rect(0, 0, 100, 100), 2, 2)
        spill = ShapeSpill(BandPlan(grid, 2), str(tmp_path), "s")
        spill.finish()
        with pytest.raises(ValueError, match="finished"):
            spill.add(0, 1, 0, Rect(0, 0, 10, 10))


class TestLayerSpool:
    def test_roundtrip_preserves_add_order(self, tmp_path):
        spool = LayerSpool(str(tmp_path), "k", flush_records=3)
        rects = [Rect(i, 0, i + 5, 5) for i in range(0, 100, 10)]
        for r in rects:
            spool.add(2, 1, r)
        spool.add(1, 0, Rect(0, 0, 1, 1))
        spool.finish()
        assert list(spool.read(2, 1)) == rects
        assert spool.count(2, 1) == len(rects)
        assert spool.keys() == [(1, 0), (2, 1)]
        assert list(spool.read(3, 0)) == []

    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 9000])
    def test_box_read_equals_rect_read(self, tmp_path, count):
        rng = random.Random(count)
        rects = []
        for _ in range(count):
            x, y = rng.randint(-(1 << 31), (1 << 31) - 1000), rng.randint(-5000, 5000)
            rects.append(Rect(x, y, x + rng.randint(0, 999), y + rng.randint(0, 999)))
        spool = LayerSpool(str(tmp_path), "k", flush_records=1000)
        for r in rects:
            spool.add(3, 1, r)
        spool.finish()
        chunks = list(spool.read_boxes(3, 1))
        assert all(c.dtype == np.int64 and 0 < len(c) <= 4096 for c in chunks)
        rows = [tuple(row) for c in chunks for row in c.tolist()]
        assert rows == [(r.xl, r.yl, r.xh, r.yh) for r in spool.read(3, 1)]
        assert len(rows) == count

    def test_corrupt_chunk_detected(self, tmp_path):
        spool = LayerSpool(str(tmp_path), "k")
        spool.add(1, 0, Rect(0, 0, 10, 10))
        spool.finish()
        path = tmp_path / "k-l0001-d00.bin"
        path.write_bytes(path.read_bytes() + b"\x00" * (RECT_RECORD.size - 1))
        with pytest.raises(ValueError, match="corrupt spill chunk"):
            list(spool.read(1, 0))

    @pytest.mark.parametrize("read", ["read", "read_boxes"])
    @pytest.mark.parametrize("count", [1, 4096])
    def test_truncated_chunk_raises_from_both_reads(self, tmp_path, read, count):
        spool = LayerSpool(str(tmp_path), "k")
        for k in range(count):
            spool.add(1, 0, Rect(k, 0, k + 10, 10))
        spool.finish()
        path = tmp_path / "k-l0001-d00.bin"
        path.write_bytes(path.read_bytes() + b"\x00" * (RECT_RECORD.size - 1))
        with pytest.raises(ValueError, match=re.escape(f"corrupt spill chunk {path}: 15 trailing bytes")):
            list(getattr(spool, read)(1, 0))
