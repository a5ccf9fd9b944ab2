"""Tests for Layer and Layout containers."""

import pickle
import random

import numpy as np
import pytest

from repro.contracts import ContractViolation
from repro.geometry import Rect, RectilinearPolygon, boxes
from repro.layout import DrcRules, Layer, Layout


class TestLayer:
    def test_numbering_starts_at_one(self):
        with pytest.raises(ValueError):
            Layer(0)

    def test_default_name(self):
        assert Layer(3).name == "metal3"

    def test_odd_even(self):
        assert Layer(1).is_odd
        assert not Layer(2).is_odd

    def test_add_wire(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        assert layer.num_wires == 1
        assert layer.num_fills == 0

    def test_degenerate_wire_rejected(self):
        layer = Layer(1)
        with pytest.raises(ValueError):
            layer.add_wire(Rect(0, 0, 0, 10))

    def test_add_wire_polygon_decomposes(self):
        layer = Layer(1)
        poly = RectilinearPolygon(
            [(0, 0), (10, 0), (10, 4), (4, 4), (4, 10), (0, 10)]
        )
        added = layer.add_wire_polygon(poly)
        assert len(added) >= 2
        assert sum(r.area for r in added) == poly.area
        assert layer.num_wires == len(added)

    def test_fills_separate_from_wires(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        layer.add_fill(Rect(20, 20, 30, 30))
        assert layer.num_wires == 1
        assert layer.num_fills == 1
        assert len(layer.shapes) == 2

    def test_clear_fills(self):
        layer = Layer(1)
        layer.add_fill(Rect(0, 0, 5, 5))
        layer.clear_fills()
        assert layer.num_fills == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_drop_fills_matches_clear_and_add(self, seed):
        rng = random.Random(seed)
        fills = [Rect(x, x % 7, x + 4, x % 7 + 3) for x in range(0, 400, 5)]
        mask = [rng.random() < 0.3 for _ in fills]
        dropped, rebuilt = Layer(1), Layer(1)
        dropped.add_fills(fills)
        dropped.drop_fills(mask)
        rebuilt.add_fills(fills)
        keep = [f for f, gone in zip(rebuilt.fills, mask) if not gone]
        rebuilt.clear_fills()
        rebuilt.add_fills(keep)
        assert dropped.fills == rebuilt.fills
        assert 0 < dropped.num_fills < len(fills)

    @staticmethod
    def _assert_boxes_current(layer):
        box = layer.wire_boxes
        assert box.dtype == np.int64 and box.shape == (layer.num_wires, 4)
        assert np.array_equal(box, boxes(layer.wires, layer.num_wires))
        with pytest.raises(ValueError, match="read-only"):
            box[0:1] = 0
        assert layer.wire_boxes is box  # cached until a wire changes

    def test_wire_boxes_follow_every_wire_mutator(self):
        layer = Layer(2)
        self._assert_boxes_current(layer)
        layer.add_wire(Rect(0, 0, 10, 4))
        self._assert_boxes_current(layer)
        layer.add_wires([Rect(5, 5, 9, 30), Rect(-3, 40, 2, 41)])
        self._assert_boxes_current(layer)
        layer.add_wire_polygon(
            RectilinearPolygon([(0, 0), (10, 0), (10, 4), (4, 4), (4, 10), (0, 10)])
        )
        self._assert_boxes_current(layer)
        assert layer.filter_wires(lambda r: r.xl >= 0) == 1
        self._assert_boxes_current(layer)
        layer.add_fill(Rect(100, 100, 120, 120))
        layer.clear_fills()
        self._assert_boxes_current(layer)

    def test_wire_boxes_not_pickled(self):
        # A stage that builds the cache must not change the layer's
        # pickle: shard workers are checked by digesting it.
        layer = Layer(1)
        layer.add_wires([Rect(0, 0, 10, 10), Rect(20, 0, 30, 5)])
        before = pickle.dumps(layer)
        self._assert_boxes_current(layer)
        assert pickle.dumps(layer) == before
        self._assert_boxes_current(pickle.loads(before))

    def test_wire_boxes_follow_array_and_grown_appends(self):
        rng = random.Random(4)
        layer, expect, held = Layer(3), [], []
        for step in range(300):
            x, y = rng.randrange(-100, 100), rng.randrange(-100, 100)
            new = [Rect(x, y, x + rng.randrange(1, 50), y + rng.randrange(1, 50)) for _ in range(step % 4)]
            if step % 3:
                for rect in new:
                    layer.add_wire(rect)
            else:
                layer.add_wires(boxes(new, len(new)))
            expect += new
            held.append((layer.wire_boxes, list(expect)))
            assert layer.wires == expect
            self._assert_boxes_current(layer)
        # a box array once handed out keeps the wires it had
        for box, wires in held:
            assert box.tolist() == [[r.xl, r.yl, r.xh, r.yh] for r in wires]
        assert layer.filter_wires(lambda r: r.xl % 2 == 0) == sum(r.xl % 2 for r in expect)
        self._assert_boxes_current(layer)
        assert layer.wires == [r for r in expect if r.xl % 2 == 0]

    def test_pickle_equal_however_built(self):
        rects = [Rect(k, 0, k + 5, 7) for k in range(0, 100, 9)]
        one_by_one, at_once = Layer(1), Layer(1)
        for rect in rects:
            one_by_one.add_wire(rect)
        at_once.add_wires(boxes(rects, len(rects)))
        assert pickle.dumps(one_by_one) == pickle.dumps(at_once)
        back = pickle.loads(pickle.dumps(one_by_one))
        back.add_wire(Rect(0, 0, 1, 1))
        assert back.wires == rects + [Rect(0, 0, 1, 1)] and one_by_one.wires == rects

    @pytest.mark.parametrize(
        "add",
        [
            lambda layer, r: layer.add_wire(r),
            lambda layer, r: layer.add_wires([Rect(0, 0, 5, 5), r]),
            lambda layer, r: layer.add_wires(np.array([[0, 0, 5, 5], [r.xl, r.yl, r.xh, r.yh]])),
            lambda layer, r: layer.add_fill(r),
            lambda layer, r: layer.add_fills([Rect(0, 0, 5, 5), r]),
            lambda layer, r: layer.add_fills(np.array([[r.xl, r.yl, r.xh, r.yh]])),
        ],
        ids=["add_wire", "add_wires", "add_wires-array", "add_fill", "add_fills", "add_fills-array"],
    )
    def test_non_integer_coordinate_rejected(self, add):
        layer = Layer(2)
        with pytest.raises(ContractViolation, match=r"on layer 2\.xl = 10\.5 is not an integer"):
            add(layer, Rect(10.5, 10, 100.7, 50))
        assert layer.num_wires == 0 and layer.num_fills == 0

    def test_inverted_box_rows_rejected(self):
        with pytest.raises(ContractViolation, match=r"wire on layer 1 is malformed: \(9,0,5,5\)"):
            Layer(1).add_wires(np.array([[0, 0, 5, 5], [9, 0, 5, 5]]))
        with pytest.raises(ValueError, match="degenerate wire"):
            Layer(1).add_wires(np.array([[0, 0, 0, 5]]))

    def test_drop_fills_rejects_wrong_length_mask(self):
        layer = Layer(1)
        layer.add_fills([Rect(0, 0, 5, 5), Rect(10, 0, 15, 5)])
        for mask in ([True], [False, False, True]):
            with pytest.raises(ValueError, match="drop mask"):
                layer.drop_fills(mask)
        assert layer.num_fills == 2

    def test_wire_area_in_window_deduplicates(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        layer.add_wire(Rect(5, 0, 15, 10))  # overlaps the first
        assert layer.wire_area_in(Rect(0, 0, 20, 20)) == 150

    def test_wire_area_clipped(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        assert layer.wire_area_in(Rect(5, 5, 20, 20)) == 25

    def test_filter_wires(self):
        layer = Layer(1)
        layer.add_wires([Rect(0, 0, 5, 5), Rect(10, 10, 15, 15)])
        removed = layer.filter_wires(lambda w: w.xl < 8)
        assert removed == 1
        assert layer.num_wires == 1


def _inverted(xl, yl, xh, yh):
    """A rect with ``xl > xh`` or ``yl > yh``, which ``Rect()`` refuses."""
    rect = object.__new__(Rect)
    for name, value in zip(("xl", "yl", "xh", "yh"), (xl, yl, xh, yh)):
        object.__setattr__(rect, name, value)
    return rect


class TestFillBoxes:
    """A layer's fills are the leading rows of a growable int64 buffer.

    Each check holds the layer to a plain rect list kept beside it, so
    an append that writes the wrong rows fails even though
    ``layer.fills`` is built from the same array.
    """

    @staticmethod
    def _assert_fills(layer, expect):
        box = layer.fill_boxes
        assert box.dtype == np.int64 and box.shape == (len(expect), 4)
        assert box.tolist() == [[r.xl, r.yl, r.xh, r.yh] for r in expect]
        assert np.array_equal(box, boxes(layer.fills, layer.num_fills))
        assert layer.fills == expect and layer.num_fills == len(expect)
        with pytest.raises(ValueError, match="read-only"):
            box[0:1] = 0
        assert layer.fill_boxes is box  # the same array until the fills change

    def test_fill_boxes_follow_every_fill_mutator(self):
        layer, expect = Layer(2), []
        self._assert_fills(layer, expect)
        layer.add_fill(Rect(0, 0, 10, 4))
        expect.append(Rect(0, 0, 10, 4))
        self._assert_fills(layer, expect)
        new = [Rect(5, 5, 9, 30), Rect(-3, 40, 2, 41), Rect(0, 0, 10, 4)]
        layer.add_fills(new)
        expect += new
        self._assert_fills(layer, expect)
        new = [Rect(70, 0, 80, 9), Rect(90, 3, 95, 8)]
        layer.add_fills(boxes(new, len(new)))
        expect += new
        self._assert_fills(layer, expect)
        layer.add_fills([])
        layer.add_fills(np.zeros((0, 4), dtype=np.int64))
        self._assert_fills(layer, expect)
        for mask in ([False, True, False, True, False, False], np.array([True, False, False, True])):
            layer.drop_fills(mask)
            expect = [f for f, gone in zip(expect, mask) if not gone]
            self._assert_fills(layer, expect)
        layer.clear_fills()
        self._assert_fills(layer, [])
        layer.add_fill(Rect(1, 1, 2, 2))
        self._assert_fills(layer, [Rect(1, 1, 2, 2)])

    def test_held_fill_boxes_keep_their_rows(self):
        rng = random.Random(7)
        layer, expect, held = Layer(1), [], []
        for step in range(400):
            op = rng.randrange(10)
            if op < 6:
                new = []
                for _ in range(rng.randrange(0, 5)):
                    x, y = rng.randrange(-100, 100), rng.randrange(-100, 100)
                    new.append(Rect(x, y, x + rng.randrange(1, 50), y + rng.randrange(1, 50)))
                if op < 2:
                    for rect in new:
                        layer.add_fill(rect)
                elif op < 4:
                    layer.add_fills(new)
                else:
                    layer.add_fills(boxes(new, len(new)))
                expect += new
            elif op < 9:
                mask = [rng.random() < 0.2 for _ in expect]
                layer.drop_fills(mask)
                expect = [f for f, gone in zip(expect, mask) if not gone]
            else:
                layer.clear_fills()
                expect = []
            held.append((layer.fill_boxes, list(expect)))
            self._assert_fills(layer, expect)
        # a box array once handed out keeps the fills it had
        for box, fills in held:
            assert box.tolist() == [[r.xl, r.yl, r.xh, r.yh] for r in fills]

    def test_layout_copy_and_prefilled_stream(self):
        from repro.gdsii import gdsii_bytes, layout_from_gdsii

        layout = Layout(Rect(0, 0, 1000, 1000), num_layers=2)
        fills = {1: [Rect(10, 10, 50, 50), Rect(60, 10, 90, 40)], 2: [Rect(500, 500, 600, 520)]}
        for n, rects in fills.items():
            layout.layer(n).add_wire(Rect(0, 900, 1000, 950))
            layout.layer(n).add_fills(rects)
        copy = layout.copy()
        read = layout_from_gdsii(gdsii_bytes(layout))
        for n, rects in fills.items():
            self._assert_fills(copy.layer(n), rects)
            self._assert_fills(read.layer(n), rects)
        # the copy's arrays are its own
        copy.layer(1).add_fill(Rect(200, 200, 220, 220))
        copy.layer(2).clear_fills()
        for n, rects in fills.items():
            self._assert_fills(layout.layer(n), rects)

    def test_repair_litho(self):
        from repro.litho import LithoRules, repair_litho

        from ..litho_oracle import repair_litho as oracle_repair

        layout = Layout(Rect(0, 0, 1000, 1000), num_layers=1)
        # a forbidden-pitch pair, a short-edge fill and a clean one
        layout.layer(1).add_fills(
            [Rect(0, 0, 100, 100), Rect(125, 0, 200, 100), Rect(400, 400, 405, 500), Rect(700, 0, 800, 100)]
        )
        want = layout.copy()
        rules = LithoRules(forbidden_pitches=((20, 30),), min_edge=10)
        assert repair_litho(layout, rules) == oracle_repair(want, rules) > 0
        self._assert_fills(layout.layer(1), want.layer(1).fills)

    def test_pickle_equal_however_built(self):
        rects = [Rect(k, 0, k + 5, 7) for k in range(0, 100, 9)]
        one_by_one, at_once = Layer(1), Layer(1)
        for rect in rects:
            one_by_one.add_fill(rect)
        at_once.add_fills(boxes(rects, len(rects)))
        assert pickle.dumps(one_by_one) == pickle.dumps(at_once)
        back = pickle.loads(pickle.dumps(one_by_one))
        back.add_fill(Rect(0, 0, 1, 1))
        self._assert_fills(back, rects + [Rect(0, 0, 1, 1)])
        self._assert_fills(one_by_one, rects)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ((10.5, 10, 100.7, 50), ContractViolation, r"fill on layer 3\.xl = 10\.5 is not an integer"),
            ((10, 10, 100, 50.5), ContractViolation, r"fill on layer 3\.yh = 50\.5 is not an integer"),
            ((9, 0, 5, 5), ContractViolation, r"fill on layer 3 is malformed: \(9,0,5,5\)"),
            ((0, 0, 0, 5), ValueError, r"degenerate fill rectangle \(0,0\)-\(0,5\)"),
        ],
        ids=["float-xl", "float-yh", "inverted", "zero-area"],
    )
    def test_bad_fill_rejected_alike(self, bad, error, message):
        rect = _inverted(*bad)
        adds = [
            lambda layer: layer.add_fill(rect),
            lambda layer: layer.add_fills([Rect(0, 0, 5, 5), rect]),
            lambda layer: layer.add_fills(np.array([[0, 0, 5, 5], list(bad)])),
        ]
        for add in adds:
            layer = Layer(3)
            layer.add_fill(Rect(50, 50, 60, 60))
            with pytest.raises(error, match=message):
                add(layer)
            self._assert_fills(layer, [Rect(50, 50, 60, 60)])


class TestLayout:
    def make(self):
        return Layout(Rect(0, 0, 1000, 1000), num_layers=3)

    def test_layers_created(self):
        layout = self.make()
        assert layout.num_layers == 3
        assert layout.layer_numbers == [1, 2, 3]

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            Layout(Rect(0, 0, 10, 10), num_layers=0)

    def test_unknown_layer_raises(self):
        with pytest.raises(KeyError):
            self.make().layer(9)

    def test_adjacent_pairs(self):
        layout = self.make()
        pairs = [(lo.number, hi.number) for lo, hi in layout.adjacent_pairs()]
        assert pairs == [(1, 2), (2, 3)]

    def test_counts(self):
        layout = self.make()
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(2).add_fill(Rect(0, 0, 20, 20))
        assert layout.num_wires == 1
        assert layout.num_fills == 1
        assert layout.num_shapes == 2

    def test_clear_fills(self):
        layout = self.make()
        layout.layer(2).add_fill(Rect(0, 0, 20, 20))
        layout.clear_fills()
        assert layout.num_fills == 0

    def test_validate_wires_in_die(self):
        layout = self.make()
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(1).add_wire(Rect(990, 990, 1200, 1200))  # escapes
        assert len(layout.validate_wires_in_die()) == 1

    def test_copy_without_fills(self):
        layout = self.make()
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(1).add_fill(Rect(50, 50, 70, 70))
        copy = layout.copy_without_fills()
        assert copy.num_wires == 1
        assert copy.num_fills == 0
        assert copy.die == layout.die
        # Deep independence: adding to the copy leaves original alone.
        copy.layer(1).add_wire(Rect(100, 100, 110, 110))
        assert layout.num_wires == 1

    def test_default_rules(self):
        assert isinstance(self.make().rules, DrcRules)
