"""Differential harness: every execution mode on generated layout families.

The engine promises one output, byte for byte, whichever way it runs:
serial, in parts on a worker pool, streamed out of core at any band
count, inside a service session, as an ECO patch, on either density
kernel.  Each family below (``LayoutSpec`` presets plus small builders
for what the generator cannot draw) runs three checks:

1. every mode writes the bytes of the serial in-memory run;
2. that output is DRC-clean, has ``l <= d <= u`` in every window of
   every layer, keeps its fills inside the die and every wire it got;
3. truncated or bit-flipped GDSII and OASIS input ends in a
   ``ValueError`` or a layout, and malformed protocol lines get an
   error response from a server that keeps answering.

Every random choice derives from :data:`SEEDS`.
"""

import io
import json
import random
import socket
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import obs
from repro.bench.generator import LayoutSpec, generate_layout
from repro.cli import main
from repro.core import DummyFillEngine, FillConfig, stream_fill
from repro.density import analyze_layout
from repro.density.analysis import metal_density_map
from repro.eco import apply_eco
from repro.gdsii import GdsiiStreamWriter, gdsii_bytes, iter_stream_records, layout_from_gdsii
from repro.gdsii.records import DataType, RecordType, encode_int2, encode_int4, pack_record
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid
from repro.oasis import layout_from_oasis, oasis_bytes
from repro.service import FillService, ServiceClient, ServiceServer, SocketClient
from repro.service.protocol import encode_message

from .conftest import TEST_BACKENDS

#: seeds of the generated families and of every corruption
SEEDS = (1,)

#: the CLI's engine defaults, so every mode below can be a CLI run too
CONFIG = FillConfig(eta=0.2)

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=400, max_fill_width=150, max_fill_height=150
)

# families: builder(seed) -> a Layout or GDSII bytes
def _spec(**fields):
    quiet = dict(die_size=1200, num_bus_bundles=0, num_macros=0, hotspot_columns=(), cold_windows=0)
    return lambda seed: generate_layout(
        LayoutSpec("family", seed=seed, rules=RULES, **{**quiet, **fields})
    )


def _strap_mesh(seed):
    layout = Layout(Rect(0, 0, 1200, 1200), 3, RULES)
    for layer in layout.layers:
        for k in range(random.Random(seed).randrange(20, 60), 1170, 140):
            layer.add_wire(Rect(0, k, 1200, k + 24) if layer.is_odd else Rect(k, 0, k + 24, 1200))
    return layout


def _prefilled(seed):
    # stale fills over the wires: a whole-die fill must replace them
    rng = random.Random(seed)
    layout = _spec(num_cell_rects=60)(seed)
    for layer in layout.layers:
        for _ in range(30):
            x, y = rng.randrange(1100), rng.randrange(1100)
            layer.add_fill(Rect(x, y, x + 90, y + 90))
    return layout


def _empty_layer(seed):
    layout = _spec(num_cell_rects=60, num_bus_bundles=2)(seed)
    layout.layer(2).filter_wires(lambda wire: False)
    return layout


def _odd_die(seed):
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, 1237, 913), 3, RULES)
    for layer in layout.layers:
        for _ in range(40):
            long, short = rng.randrange(7, 151), rng.randrange(5, 41)
            w, h = (long, short) if layer.is_odd else (short, long)
            x, y = rng.randrange(1237 - w), rng.randrange(913 - h)
            layer.add_wire(Rect(x, y, x + w, y + h))
    return layout


def _outlines(seed):
    """Three abutted partition outlines; their bounding box is the die."""
    rng = random.Random(seed)
    out = io.BytesIO()
    writer = GdsiiStreamWriter(out)
    parts = [Rect(0, 0, 500, 900), Rect(500, 0, 1100, 700), Rect(1100, 200, 1300, 1000)]
    for part in parts:
        writer.boundary(0, 0, part)
    for part in parts:
        for _ in range(15):
            w, h = rng.randrange(30, 150), rng.randrange(12, 40)
            x, y = rng.randrange(part.xl, part.xh - w), rng.randrange(part.yl, part.yh - h)
            writer.boundary(rng.randrange(1, 4), 0, Rect(x, y, x + w, y + h))
    writer.close()
    return out.getvalue()


def _odd_paths(seed):
    """PATH centrelines of odd widths, straight and L-shaped, spliced in
    before the 8-byte ENDSTR/ENDLIB trailer of a die-only stream."""
    rng = random.Random(seed)
    out = io.BytesIO()
    writer = GdsiiStreamWriter(out)
    writer.boundary(0, 0, Rect(0, 0, 1200, 1200))
    writer.close()
    paths = []
    for layer in (1, 2, 3):
        for _ in range(20):
            x, y, run = rng.randrange(60, 700), rng.randrange(60, 700), rng.randrange(80, 400)
            points = [(x, y), (x + run, y) if layer % 2 else (x, y + run)]
            if rng.random() < 0.3:
                x, y = points[-1]
                points.append((x, y + 100) if layer % 2 else (x + 100, y))
            xy = encode_int4([c for point in points for c in point])
            width = encode_int4([rng.choice((7, 11, 13, 21, 33))])
            paths += [
                pack_record(RecordType.PATH, DataType.NO_DATA),
                pack_record(RecordType.LAYER, DataType.INT2, encode_int2([layer])),
                pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([0])),
                pack_record(RecordType.WIDTH, DataType.INT4, width),
                pack_record(RecordType.XY, DataType.INT4, xy),
                pack_record(RecordType.ENDEL, DataType.NO_DATA),
            ]
    data = out.getvalue()
    return data[:-8] + b"".join(paths) + data[-8:]


#: name -> (builder, spacing rule, windows per side); the spacing rule
#: sets the window margin, ceil(min_spacing / 2)
FAMILIES = {
    "buses": (_spec(num_cell_rects=0, num_bus_bundles=5, bus_wires_per_bundle=6), 10, 3),
    "strap-mesh": (_strap_mesh, 12, 4),
    "sparse-analog": (_spec(die_size=1400, num_cell_rects=12, density_gradient=0.0), 11, 3),
    "congested-macros": (_spec(num_cell_rects=60, num_macros=5, num_bus_bundles=1), 14, 4),
    "odd-paths": (_odd_paths, 10, 3),
    "outlines": (_outlines, 10, 4),
    "prefilled": (_prefilled, 10, 3),
    "empty-layer": (_empty_layer, 10, 3),
    "one-window": (_spec(die_size=600, num_cell_rects=25, num_bus_bundles=1), 10, 1),
    "odd-die": (_odd_die, 13, 4),
    # the only family with a middle odd layer (3), whose Region 3 is
    # free on both layer 2 and layer 4
    "five-layers": (_spec(num_layers=5, num_cell_rects=50, num_bus_bundles=2), 10, 3),
}


@dataclass(frozen=True)
class Case:
    """A generated input, two ECO wire changes applied in turn, and the
    serial in-memory outputs every mode must reproduce."""

    gds: bytes
    rules: DrcRules
    windows: int
    ecos: Tuple[Dict[int, List[Rect]], ...]
    fill_gds: bytes
    fill_oas: bytes
    eco_gds: Tuple[bytes, ...]

    def load(self) -> Layout:
        return layout_from_gdsii(self.gds, self.rules)


def _eco_steps(layout, rng):
    """Two wire changes; the first always touches layer 2."""
    die = layout.die
    steps = []
    for first in (True, False):
        wires = {}
        for _ in range(rng.randrange(1, 3)):
            n = 2 if first and not wires else rng.randrange(1, layout.num_layers + 1)
            w, h = rng.randrange(60, 250), rng.randrange(16, 40)
            w, h = (w, h) if n % 2 else (h, w)
            x, y = rng.randrange(die.xl, die.xh - w), rng.randrange(die.yl, die.yh - h)
            wires.setdefault(n, []).append(Rect(x, y, x + w, y + h))
        steps.append(wires)
    return tuple(steps)


@lru_cache(maxsize=None)
def build_case(name, seed):
    build, spacing, windows = FAMILIES[name]
    rules = replace(RULES, min_spacing=spacing)
    made = build(seed)
    gds = made if isinstance(made, bytes) else gdsii_bytes(made)
    layout = layout_from_gdsii(gds, rules)
    ecos = _eco_steps(layout, random.Random(f"{seed}-{name}"))
    grid = WindowGrid(layout.die, windows, windows)
    DummyFillEngine(CONFIG).run(layout, grid)
    fill_gds, fill_oas = gdsii_bytes(layout), oasis_bytes(layout)
    eco_gds = []
    for wires in ecos:
        apply_eco(layout, grid, wires, CONFIG)
        eco_gds.append(gdsii_bytes(layout))
    return Case(gds, rules, windows, ecos, fill_gds, fill_oas, tuple(eco_gds))


CASES = [(name, seed) for name in FAMILIES for seed in SEEDS]


@pytest.fixture(scope="module", params=CASES, ids=[f"{n}-{s}" for n, s in CASES])
def case(request):
    return build_case(*request.param)


def _filled(case, config):
    layout = case.load()
    DummyFillEngine(config).run(layout, WindowGrid(layout.die, case.windows, case.windows))
    return gdsii_bytes(layout)


def _streamed(source, case, config=CONFIG, **kwargs):
    out = io.BytesIO()
    n = case.windows
    stream_fill(source, out, case.rules, cols=n, rows=n, config=config, **kwargs)
    return out.getvalue()


def _json(wires):
    return {str(n): [[r.xl, r.yl, r.xh, r.yh] for r in rects] for n, rects in wires.items()}


# check 1: every mode writes the serial bytes
@pytest.mark.parametrize("backend", TEST_BACKENDS)
@pytest.mark.parametrize("workers", [2, 4])
def test_workers(case, workers, backend):
    config = replace(CONFIG, workers=workers, parallel=backend)
    assert _filled(case, config) == case.fill_gds


@pytest.mark.parametrize("kernel", ["rect", "raster"])
def test_forced_kernel(case, kernel, force_kernel):
    force_kernel(kernel)
    layout = case.load()
    grid = WindowGrid(layout.die, case.windows, case.windows)
    DummyFillEngine(CONFIG).run(layout, grid)
    assert gdsii_bytes(layout) == case.fill_gds
    for wires, expected in zip(case.ecos, case.eco_gds):
        apply_eco(layout, grid, wires, CONFIG)
        assert gdsii_bytes(layout) == expected


@pytest.mark.parametrize("fmt", ["gdsii", "oasis"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bands", [2, 3])
def test_streamed(case, bands, workers, fmt):
    config = replace(CONFIG, workers=workers, parallel=TEST_BACKENDS[0])
    got = _streamed(case.gds, case, config, bands=bands, output_format=fmt)
    assert got == (case.fill_gds if fmt == "gdsii" else case.fill_oas)


def test_profiled_workers(case):
    with obs.profiled(period_ms=1):
        got = _filled(case, replace(CONFIG, workers=2, parallel=TEST_BACKENDS[0]))
    assert got == case.fill_gds


def _session_chain(client, case, **config):
    """A session's fill and ECO responses equal the reference chain (the
    service's rule defaults are those of RULES)."""
    rules = {"min_spacing": case.rules.min_spacing}
    config = {"eta": CONFIG.eta, **config}
    sid = client.request(
        "open_session", gds=case.gds, windows=case.windows, rules=rules, config=config
    )["session"]
    assert client.request("fill", session=sid)["gds"] == case.fill_gds
    for wires, expected in zip(case.ecos, case.eco_gds):
        assert client.request("eco_delta", session=sid, wires=_json(wires))["gds"] == expected


def test_service_session(case):
    with FillService() as service:
        _session_chain(ServiceClient(service), case, workers=2, parallel=TEST_BACKENDS[0])


def test_streamed_eco(case):
    source = case.fill_gds
    for wires, expected in zip(case.ecos, case.eco_gds):
        assert _streamed(source, case, bands=2, eco_wires=wires) == expected
        source = expected


def test_socket_session(tmp_path):
    with FillService() as service:
        with ServiceServer(service, socket_path=str(tmp_path / "repro.sock")) as server:
            with SocketClient(**server.client_args()) as client:
                _session_chain(client, build_case("odd-paths", SEEDS[0]))


@pytest.mark.parametrize(
    "command",
    [
        "fill",
        "fill --workers=2",
        "fill --workers=2 --profile",
        "fill --stream",
        "eco",
        "eco --stream",
        "fill --format=oasis",
    ],
)
def test_cli(command, tmp_path, monkeypatch, capsys):
    case = build_case("odd-paths", SEEDS[0])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.gds").write_bytes(case.gds)
    (tmp_path / "filled.gds").write_bytes(case.fill_gds)
    (tmp_path / "eco.json").write_text(json.dumps(_json(case.ecos[0])))
    op, *flags = command.split()
    inputs = ["in.gds"] if op == "fill" else ["filled.gds", "eco.json"]
    flags += ["--bands=2"] if "--stream" in flags else []
    rules = [f"--min-spacing={case.rules.min_spacing}", f"--windows={case.windows}"]
    assert main([op, *inputs, "out", *rules, *flags]) == 0
    expected = {"fill": case.fill_gds, "eco": case.eco_gds[0]}[op]
    assert (tmp_path / "out").read_bytes() == (case.fill_oas if "oasis" in command else expected)
    assert ("streamed 2 bands" in capsys.readouterr().out) == ("--stream" in flags)


# check 2: the output is legal
def test_output_invariants(case):
    given = case.load()
    wires = {n: list(given.layer(n).wires) for n in given.layer_numbers}
    margin = CONFIG.effective_margin(case.rules.min_spacing)
    for gds, eco in [(case.fill_gds, {})] + list(zip(case.eco_gds, case.ecos)):
        for n, rects in eco.items():
            wires[n] += rects
        out = layout_from_gdsii(gds, case.rules)
        assert out.die == given.die
        assert out.check_drc() == []
        assert {n: out.layer(n).wires for n in out.layer_numbers} == wires
        assert all(out.die.contains(f) for layer in out.layers for f in layer.fills)
        grid = WindowGrid(out.die, case.windows, case.windows)
        for n, bounds in analyze_layout(out, grid, margin).items():
            density = metal_density_map(out.layer(n), grid)
            assert np.all(bounds.lower <= density + 1e-12), n
            assert np.all(density <= bounds.upper + 1e-12), n


# check 3: corrupt input ends in a typed error
@pytest.mark.parametrize("name", ["odd-paths", "outlines", "prefilled", "congested-macros"])
def test_corrupt_input_raises_value_error(name):
    case = build_case(name, SEEDS[0])
    oas = oasis_bytes(case.load())
    records = [offset for offset, *_ in iter_stream_records(io.BytesIO(case.gds))]
    # cut points: record starts (the last is ENDLIB's), after the OASIS
    # magic, and the start of the 256-byte OASIS END record
    for data, read, starts in [
        (case.gds, layout_from_gdsii, records[-1:] + records[:-1]),
        (oas, layout_from_oasis, [len(oas) - 256, 13]),
    ]:
        rng = random.Random(f"{SEEDS[0]}-{name}-{len(data)}")
        cuts = starts[:1] + rng.sample(starts[1:], min(6, len(starts) - 1))
        cuts += [rng.randrange(len(data)) for _ in range(13 - len(cuts))]
        for cut in cuts:
            with pytest.raises(ValueError, match=r"byte \d+"):
                read(data[:cut], case.rules)
        for _ in range(50):
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                read(bytes(flipped), case.rules)
            except ValueError:
                pass


def test_malformed_lines_get_error_responses(tmp_path):
    gds = build_case("buses", SEEDS[0]).gds
    rng = random.Random(SEEDS[0])
    # the GDSII payload is cut short, so every flip of this line fails
    line = encode_message({"id": 1, "op": "open_session", "gds": gds[: len(gds) // 2]})[:-1]
    lines = [line[: len(line) // 2], b"[" * 200000, b'{"op": "ping", "x_b64": "@@"}']
    while len(lines) < 30:
        flipped = bytearray(line)
        flipped[rng.randrange(len(line))] ^= 1 << rng.randrange(8)
        if b"\n" not in flipped:
            lines.append(bytes(flipped))
    with FillService() as service:
        with ServiceServer(service, socket_path=str(tmp_path / "repro.sock")) as server:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(30.0)
                raw.connect(server.socket_path)
                with raw.makefile("rb") as replies:
                    for sent in lines:
                        raw.sendall(sent + b"\n")
                        assert json.loads(replies.readline())["ok"] is False, sent[:80]
                    raw.sendall(b'{"id": 9, "op": "ping"}\n')
                    assert json.loads(replies.readline())["result"]["pong"] is True
