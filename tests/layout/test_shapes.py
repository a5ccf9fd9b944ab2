"""The shared shape-stream rules, at every entry point that reads a layout."""

import io
import json

import pytest

from repro import obs
from repro.core import stream_fill
from repro.gdsii import GdsiiStreamWriter, layout_from_gdsii
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, shape_groups
from repro.oasis import OasisStreamWriter, layout_from_oasis

RULES = DrcRules(
    min_spacing=10,
    min_width=10,
    min_area=400,
    max_fill_width=150,
    max_fill_height=150,
)

WIRES = [(1, 0, Rect(100, 100, 300, 140)), (3, 0, Rect(500, 200, 540, 700))]
TWO_OUTLINES = [(0, 0, Rect(0, 0, 400, 400)), (0, 0, Rect(600, 0, 1000, 800))]


def _encode(writer_class, shapes):
    buf = io.BytesIO()
    writer = writer_class(buf)
    for layer, datatype, rect in shapes:
        writer.rectangles(layer, datatype, [rect])
    writer.close()
    return buf.getvalue()


def _from_gdsii(shapes):
    return layout_from_gdsii(_encode(GdsiiStreamWriter, shapes), RULES)


def _from_oasis(shapes):
    return layout_from_oasis(_encode(OasisStreamWriter, shapes), RULES)


def _from_stream_fill(shapes):
    out = io.BytesIO()
    stream_fill(_encode(GdsiiStreamWriter, shapes), out, RULES, cols=2, rows=2)
    return layout_from_gdsii(out.getvalue(), RULES)


ENTRY_POINTS = [
    pytest.param(_from_gdsii, id="layout_from_gdsii"),
    pytest.param(_from_oasis, id="layout_from_oasis"),
    pytest.param(_from_stream_fill, id="stream_fill"),
]


def _die_events(read, shapes):
    """The layout ``read`` builds, and the die-merge events it emitted."""
    buf = io.StringIO()
    obs.events.configure(level="warning", stream=buf)
    try:
        layout = read(shapes)
    finally:
        obs.events.configure(level="warning", stream=io.StringIO())
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    return layout, [e for e in events if e["event"] == "gdsii.multiple_die_outlines"]


@pytest.mark.parametrize("read", ENTRY_POINTS)
class TestDieRule:
    def test_outlines_merge_into_their_bounding_box(self, read):
        layout, events = _die_events(read, TWO_OUTLINES + WIRES)
        assert layout.die == Rect(0, 0, 1000, 800)
        assert layout.num_layers == 3
        assert [e["count"] for e in events] == [2]

    def test_no_outline_takes_the_geometry_extent(self, read):
        layout, events = _die_events(read, WIRES)
        assert layout.die == Rect(100, 100, 540, 700)
        assert layout.num_layers == 3
        assert events == []

    def test_no_geometry_rejected(self, read):
        # the error names the end record: the GDSII writer's closing
        # ENDLIB (4 bytes) or the OASIS END record (256 bytes)
        oasis = read is _from_oasis
        end = len(_encode(OasisStreamWriter if oasis else GdsiiStreamWriter, [])) - (256 if oasis else 4)
        with pytest.raises(ValueError, match=rf"no geometry before its end record at byte {end}$"):
            read([])


class TestShapeGroups:
    def test_file_order(self):
        layout = Layout(Rect(0, 0, 100, 100), num_layers=2)
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(2).add_fill(Rect(20, 20, 30, 30))
        layers = [(n.number, n.wires, n.fills) for n in layout.layers]
        groups = [(lay, dt, list(rects)) for lay, dt, rects in shape_groups(layout.die, layers)]
        assert groups == [
            (0, 0, [layout.die]),
            (1, 0, [Rect(0, 0, 10, 10)]),
            (1, 1, []),
            (2, 0, []),
            (2, 1, [Rect(20, 20, 30, 30)]),
        ]
