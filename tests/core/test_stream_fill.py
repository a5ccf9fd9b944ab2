"""Out-of-core streaming fill: band sizing, the streamed DRC, span tree
and report, ECO input checks, and re-filling a filled input.

The byte parity with the in-memory engine, at every band count, worker
count and output format, is pinned by ``tests/test_differential.py``.
"""

import hashlib
import io
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.bench.generator import LayoutSpec, generate_layout
from repro.bench.suite import SUITE_SPECS
from repro.core import DummyFillEngine, FillConfig, resolve_bands, stream_fill
from repro.contracts import ContractViolation
from repro.core.stream import DEFAULT_MEMORY_BUDGET, _BYTES_PER_SHAPE, SpillBands
from repro.eco import apply_eco
from repro.gdsii import gdsii_bytes, layout_from_gdsii
from repro.geometry import Rect
from repro.layout import BandPlan, DrcRules, Layout, ShapeSpill, WindowGrid

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
    """Streamed runs with the fill-region cutter the analysis picks (the
    raster cutter on every layer), and with every layer forced onto one
    cutter in the subclasses."""

    #: the cutter forced on every layer; ``None`` keeps the analysis's choice
    kernel = None

    @pytest.fixture(autouse=True)
    def _forced_kernel(self, force_kernel):
        if self.kernel is not None:
            force_kernel(self.kernel)

    def test_memory_budget_controls_bands(self):
        raw = _unfilled_bytes()
        buf = io.BytesIO()
        report = stream_fill(
            raw,
            buf,
            RULES,
            cols=4,
            rows=4,
            memory_budget=1024,
        )
        assert report.bands > 1

    def test_report_counts_and_stages(self):
        raw = _unfilled_bytes()
        buf = io.BytesIO()
        report = stream_fill(raw, buf, RULES, cols=4, rows=4, bands=2)
        assert report.num_fills > 0
        assert report.num_candidates >= report.num_fills
        assert not report.violations
        assert report.bands == 2
        assert report.bytes_written == len(buf.getvalue())
        assert report.bytes_spilled > 0 and report.chunks > 0
        for stage in ("scan", "bucket", "analysis", "sizing", "io.write"):
            assert stage in report.stage_seconds
        assert f"fills={report.num_fills}" in report.summary()

    def test_analysis_runs_requested_kernel(self):
        # two bands of three layers: six layer analyses per run at one
        # worker; at two, each two-column band runs in two parts
        per_part = {self.kernel or "raster": 6}
        for workers in (1, 2):
            expected = {k: n * workers for k, n in per_part.items()}
            with obs.record_run(sample_rss=False) as recorder:
                stream_fill(
                    _unfilled_bytes(),
                    io.BytesIO(),
                    RULES,
                    cols=4,
                    rows=4,
                    config=FillConfig(workers=workers),
                    bands=2,
                )
            counts = Counter()
            for span in recorder.record.spans:
                counts.update(span.get("counters", {}))
            ran = {k: counts[f"analysis.{k}_layers"] for k in ("rect", "raster")}
            assert {k: n for k, n in ran.items() if n} == expected, workers


class TestFillParityRaster(TestFillParity):
    kernel = "raster"


class TestFillParityRect(TestFillParity):
    kernel = "rect"


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

    def test_eco_zero_area_wire_rejected_before_bucketing(self):
        raw = _unfilled_bytes()
        with obs.record_run(sample_rss=False) as recorder:
            with pytest.raises(ValueError, match="on layer 2 has zero area"):
                stream_fill(
                    raw,
                    io.BytesIO(),
                    RULES,
                    cols=4,
                    rows=4,
                    eco_wires={1: [Rect(100, 100, 400, 140)], 2: [Rect(500, 500, 500, 900)]},
                )
        names = {span["name"] for span in recorder.record.spans}
        assert "scan" in names and "bucket" not in names

    def test_eco_non_integer_wire_rejected(self):
        with pytest.raises(ContractViolation, match=r"new wire on layer 2\.xl = 10\.5"):
            stream_fill(
                _unfilled_bytes(),
                io.BytesIO(),
                RULES,
                cols=4,
                rows=4,
                eco_wires={2: [Rect(10.5, 10, 100, 50)]},
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
    @pytest.mark.parametrize("bad", [Rect(10.5, 10, 100.7, 50), Rect(10, 10, 100, 50.0)])
    def test_non_integer_fill_rejected_at_commit(self, tmp_path, bad):
        grid = WindowGrid(Rect(0, 0, 400, 400), 2, 2)
        plan = BandPlan(grid, 2)
        fills = ShapeSpill(plan, str(tmp_path), "fills")
        bands = SpillBands(plan, fills, fills, RULES, 2, {}, str(tmp_path), 16)
        # a sized entry with a non-integer coordinate: an object array
        # keeps each coordinate's Python type
        bad_rows = np.array([[20, 220, 60, 260], [bad.xl, bad.yl, bad.xh, bad.yh]], dtype=object)
        sized = {(0, 0): {1: np.array([[20, 20, 60, 60]])}, (0, 1): {2: bad_rows}}
        with pytest.raises(ContractViolation, match=r"^fill on layer 2\.(xl = 10\.5|yh = 50\.0) is not"):
            bands.commit(0, sized)

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


class TestRefill:
    def test_filled_input_refills_like_its_stripped_copy(self):
        # A whole-die fill replaces the fills already there, in both
        # drivers: re-filling the filled suite s writes the bytes of
        # filling its unfilled input.
        spec, (cols, rows), _, _ = SUITE_SPECS["s"]
        config = FillConfig(eta=0.2)
        layout = generate_layout(spec)
        DummyFillEngine(config).run(layout, WindowGrid(layout.die, cols, rows))
        filled = gdsii_bytes(layout)
        assert hashlib.sha256(filled).hexdigest().startswith("2938b50a")

        again = layout_from_gdsii(filled, spec.rules)
        DummyFillEngine(config).run(again, WindowGrid(again.die, cols, rows))
        assert gdsii_bytes(again) == filled

        buf = io.BytesIO()
        report = stream_fill(filled, buf, spec.rules, cols=cols, rows=rows, config=config, bands=2)
        assert buf.getvalue() == filled
        assert (report.removed_fills, report.kept_fills) == (layout.num_fills, 0)
