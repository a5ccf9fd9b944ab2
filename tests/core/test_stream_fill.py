"""Out-of-core streaming fill: byte parity with the in-memory engine."""

import io
import json
from collections import Counter

import pytest

from repro import obs
from repro.bench.generator import LayoutSpec, generate_layout
from repro.cli import main
from repro.core import DummyFillEngine, FillConfig, resolve_bands, stream_fill
from repro.core.stream import DEFAULT_MEMORY_BUDGET, _BYTES_PER_SHAPE
from repro.eco import apply_eco
from repro.gdsii import gdsii_bytes, layout_from_gdsii
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid
from repro.oasis import oasis_bytes

RULES = DrcRules(
    min_spacing=10,
    min_width=10,
    min_area=400,
    max_fill_width=150,
    max_fill_height=150,
)


def _unfilled_bytes():
    spec = LayoutSpec(name="p", die_size=1600, seed=7, num_cell_rects=120, rules=RULES)
    return gdsii_bytes(generate_layout(spec))


def _reference_filled(raw, config):
    layout = layout_from_gdsii(raw, RULES)
    grid = WindowGrid(layout.die, 4, 4)
    DummyFillEngine(config).run(layout, grid)
    return layout


def _violation_keys(violations):
    return Counter((v.rule, v.shape, v.other, v.measured) for v in violations)


class TestResolveBands:
    def test_explicit_bands_clamped_to_columns(self):
        assert resolve_bands(100, 4, bands=9) == 4
        assert resolve_bands(100, 4, bands=2) == 2

    def test_budget_scales_band_count(self):
        one_band = resolve_bands(10, 8, memory_budget=DEFAULT_MEMORY_BUDGET)
        assert one_band == 1
        shapes = 4 * DEFAULT_MEMORY_BUDGET // _BYTES_PER_SHAPE
        assert resolve_bands(shapes, 8) == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            resolve_bands(10, 0)
        with pytest.raises(ValueError):
            resolve_bands(10, 4, bands=0)
        with pytest.raises(ValueError):
            resolve_bands(10, 4, memory_budget=0)


class TestFillParity:
    """Streamed bytes equal the in-memory engine's, on the rect kernel
    here and on the raster kernel in :class:`TestFillParityRaster`."""

    kernel = "rect"

    @pytest.mark.parametrize("bands", [1, 2, 4])
    def test_gdsii_byte_identity_serial(self, bands):
        raw = _unfilled_bytes()
        config = FillConfig(kernel=self.kernel)
        expected = gdsii_bytes(_reference_filled(raw, config))
        buf = io.BytesIO()
        report = stream_fill(
            raw, buf, RULES, cols=4, rows=4, config=config, bands=bands
        )
        assert buf.getvalue() == expected
        assert report.bands == bands
        assert report.bytes_written == len(expected)
        assert report.bytes_spilled > 0 and report.chunks > 0

    def test_gdsii_byte_identity_workers_4(self):
        raw = _unfilled_bytes()
        config = FillConfig(workers=4, parallel="thread", kernel=self.kernel)
        expected = gdsii_bytes(_reference_filled(raw, config))
        buf = io.BytesIO()
        stream_fill(raw, buf, RULES, cols=4, rows=4, config=config, bands=3)
        assert buf.getvalue() == expected

    def test_oasis_byte_identity(self):
        raw = _unfilled_bytes()
        config = FillConfig(kernel=self.kernel)
        expected = oasis_bytes(_reference_filled(raw, config))
        buf = io.BytesIO()
        stream_fill(
            raw,
            buf,
            RULES,
            cols=4,
            rows=4,
            config=config,
            bands=2,
            output_format="oasis",
        )
        assert buf.getvalue() == expected

    def test_memory_budget_controls_bands(self):
        raw = _unfilled_bytes()
        buf = io.BytesIO()
        report = stream_fill(
            raw,
            buf,
            RULES,
            cols=4,
            rows=4,
            config=FillConfig(kernel=self.kernel),
            memory_budget=1024,
        )
        assert report.bands > 1

    def test_report_counts_and_stages(self):
        raw = _unfilled_bytes()
        buf = io.BytesIO()
        report = stream_fill(
            raw, buf, RULES, cols=4, rows=4, config=FillConfig(kernel=self.kernel), bands=2
        )
        assert report.num_fills > 0
        assert report.num_candidates >= report.num_fills
        assert not report.violations
        for stage in ("scan", "bucket", "analysis", "sizing", "io.write"):
            assert stage in report.stage_seconds
        assert f"fills={report.num_fills}" in report.summary()

    def test_analysis_runs_requested_kernel(self):
        with obs.record_run(sample_rss=False) as recorder:
            stream_fill(
                _unfilled_bytes(),
                io.BytesIO(),
                RULES,
                cols=4,
                rows=4,
                config=FillConfig(kernel=self.kernel),
                bands=2,
            )
        spans = [s for s in recorder.record.spans if s["name"] == "analysis"]
        assert [s["attrs"]["kernel"] for s in spans] == [self.kernel]


class TestFillParityRaster(TestFillParity):
    kernel = "raster"


class TestDrc:
    """The streamed DRC reports what Layout.check_drc() reports on the
    written layout, including fill pairs split by a band boundary."""

    def _cross_band_pair(self):
        # 4 columns in 2 bands: the band boundary is x = 800
        layout = Layout(Rect(0, 0, 1600, 1600), 1, RULES)
        layout.layer(1).add_wire(Rect(100, 1000, 300, 1040))
        layout.layer(1).add_fills([Rect(755, 100, 795, 140), Rect(800, 100, 840, 140)])
        return gdsii_bytes(layout)

    def test_cross_band_fill_pair_reported_once(self):
        raw = self._cross_band_pair()
        report = stream_fill(raw, io.BytesIO(), RULES, cols=4, rows=4, bands=2, eco_wires={})
        layout = layout_from_gdsii(raw, RULES)
        apply_eco(layout, WindowGrid(layout.die, 4, 4), {})
        in_memory = layout.check_drc()
        assert len(report.violations) == len(in_memory) == 1
        assert _violation_keys(report.violations) == _violation_keys(in_memory)

    @pytest.mark.parametrize("bands", [2, 4])
    def test_violations_match_check_drc_of_output(self, bands):
        layout = _reference_filled(_unfilled_bytes(), FillConfig())
        # wires laid over the fill after the fact, and fills shifted into
        # their neighbours, along and across band boundaries
        layout.layer(1).add_wires([Rect(380, 0, 420, 1600), Rect(0, 790, 1600, 810)])
        layout.layer(2).add_wires([Rect(795, 0, 805, 1600)])
        near = [f for f in layout.layer(1).fills if abs(f.xh - 800) < 80]
        layout.layer(1).add_fills(Rect(f.xl + 6, f.yl, f.xh + 6, f.yh) for f in near)
        buf = io.BytesIO()
        report = stream_fill(
            gdsii_bytes(layout), buf, RULES, cols=4, rows=4, bands=bands, eco_wires={}
        )
        written = layout_from_gdsii(buf.getvalue(), RULES).check_drc()
        assert near and written
        assert _violation_keys(report.violations) == _violation_keys(written)


class TestSpanTree:
    def test_in_memory_and_streamed_share_root_and_stages(self):
        raw = _unfilled_bytes()
        with obs.record_run(sample_rss=False) as memory:
            _reference_filled(raw, FillConfig())
        with obs.record_run(sample_rss=False) as streamed:
            stream_fill(raw, io.BytesIO(), RULES, cols=4, rows=4, bands=2)
        stages = {"analysis", "planning", "candidates", "replanning", "sizing"}
        for recorder in (memory, streamed):
            record = recorder.record
            assert list(record.stage_seconds()) == ["engine.run"]
            assert stages <= set(record.stage_seconds("engine.run"))
        assert set(memory.record.stage_seconds("engine.run")) == stages | {"insertion"}
        assert set(streamed.record.stage_seconds("engine.run")) == stages | {
            "scan",
            "bucket",
            "drc",
            "io.write",
        }


class TestEcoParity:
    def test_eco_byte_identity(self):
        raw = _unfilled_bytes()
        config = FillConfig()
        filled = gdsii_bytes(_reference_filled(raw, config))
        new_wires = {
            1: [Rect(900, 900, 1100, 960)],
            2: [Rect(200, 200, 420, 260)],
        }

        reference = layout_from_gdsii(filled, RULES)
        grid = WindowGrid(reference.die, 4, 4)
        apply_eco(reference, grid, new_wires, config)
        expected = gdsii_bytes(reference)

        buf = io.BytesIO()
        report = stream_fill(
            filled,
            buf,
            RULES,
            cols=4,
            rows=4,
            config=config,
            bands=2,
            eco_wires=new_wires,
        )
        assert buf.getvalue() == expected
        assert report.removed_fills > 0
        assert report.kept_fills > 0

    def test_eco_noop_writes_input_through(self):
        raw = _unfilled_bytes()
        config = FillConfig()
        filled = gdsii_bytes(_reference_filled(raw, config))
        buf = io.BytesIO()
        report = stream_fill(
            filled, buf, RULES, cols=4, rows=4, bands=2, eco_wires={}
        )
        assert buf.getvalue() == filled
        assert report.removed_fills == 0
        assert report.num_fills == 0

    def test_eco_wire_escaping_die_rejected(self):
        raw = _unfilled_bytes()
        with pytest.raises(ValueError, match="escapes the die"):
            stream_fill(
                raw,
                io.BytesIO(),
                RULES,
                cols=4,
                rows=4,
                eco_wires={1: [Rect(-50, 0, 10, 10)]},
            )

    def test_eco_unknown_layer_rejected(self):
        raw = _unfilled_bytes()
        with pytest.raises(KeyError, match="not in layout"):
            stream_fill(
                raw,
                io.BytesIO(),
                RULES,
                cols=4,
                rows=4,
                eco_wires={9: [Rect(0, 0, 10, 10)]},
            )


class TestEngineEntryPoint:
    def test_cli_fill_and_eco_stream(self, tmp_path, capsys):
        src = tmp_path / "in.gds"
        src.write_bytes(_unfilled_bytes())
        wires = tmp_path / "eco.json"
        wires.write_text(json.dumps({"1": [[900, 900, 1100, 960]]}))
        path = {name: str(tmp_path / f"{name}.gds") for name in ("mem", "s", "mem-eco", "s-eco")}
        stream = ["--windows", "4", "--stream", "--bands", "2"]

        assert main(["fill", str(src), path["mem"], "--windows", "4"]) == 0
        assert main(["fill", str(src), path["s"], "--kernel", "raster", *stream]) == 0
        assert main(["eco", path["mem"], str(wires), path["mem-eco"], "--windows", "4"]) == 0
        assert main(["eco", path["mem"], str(wires), path["s-eco"], *stream]) == 0
        read = {name: open(p, "rb").read() for name, p in path.items()}
        assert read["s"] == read["mem"]
        assert read["s-eco"] == read["mem-eco"]
        assert "streamed 2 bands" in capsys.readouterr().out

    def test_bad_output_format_rejected(self):
        with pytest.raises(ValueError, match="output_format"):
            stream_fill(
                _unfilled_bytes(),
                io.BytesIO(),
                RULES,
                cols=4,
                rows=4,
                output_format="dxf",
            )
