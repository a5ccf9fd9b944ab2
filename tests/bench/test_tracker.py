"""Tests for BENCH records and the base-vs-head gate."""

import dataclasses
import json
import math

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.tracker import (
    BENCH_SCHEMA_VERSION,
    BENCH_SETS,
    GATE_METRICS,
    RAW_KEYS,
    SCORE_KEYS,
    BenchRecord,
    BenchRecordError,
    Column,
    TableArtifact,
    format_gate,
    gate_records,
    load_records,
    run_benchmark,
    write_record,
)
from repro.bench.generator import generate_layout
from repro.density import overlay_map, overlay_area, score_maps, worst_windows
from repro.layout import WindowGrid


@pytest.fixture(scope="module")
def smoke_record():
    return run_benchmark("smoke", worst_k=3)


class TestBenchRecord:
    def test_schema_and_identity(self, smoke_record):
        d = smoke_record.to_dict()
        assert d["schema"] == BENCH_SCHEMA_VERSION == 2
        assert d["bench"] == "smoke"
        assert d["git_sha"]
        assert d["config_hash"]
        assert d["config"]["bench"] == "smoke"
        # nothing host-dependent is recorded: timing is the ledger's
        assert set(d) == {
            "schema",
            "bench",
            "git_sha",
            "created_at",
            "config",
            "config_hash",
            "scores",
            "raw",
            "num_fills",
            "gds_bytes",
            "worst_windows",
        }

    def test_score_components_present(self, smoke_record):
        assert tuple(smoke_record.scores) == SCORE_KEYS
        for key in SCORE_KEYS:
            assert 0.0 <= smoke_record.scores[key] <= 1.0
        assert tuple(smoke_record.raw) == RAW_KEYS

    def test_run_stats(self, smoke_record):
        assert smoke_record.num_fills > 0
        assert smoke_record.gds_bytes > 0

    def test_records_of_one_commit_equal(self, smoke_record):
        again = run_benchmark("smoke", worst_k=3)
        assert dataclasses.replace(again, created_at=smoke_record.created_at) == (
            smoke_record
        )

    def test_worst_window_attribution(self, smoke_record):
        ww = smoke_record.worst_windows
        assert len(ww["by_deviation"]) == 3
        devs = [e["deviation"] for e in ww["by_deviation"]]
        assert devs == sorted(devs, reverse=True)
        assert ww["by_overlay"], "a filled layout has overlay somewhere"
        shares = [e["share"] for e in ww["by_overlay"]]
        assert shares == sorted(shares, reverse=True)

    def test_roundtrip(self, smoke_record):
        back = BenchRecord.from_dict(
            json.loads(json.dumps(smoke_record.to_dict()))
        )
        assert back == smoke_record

    def test_bad_schema_rejected(self, smoke_record):
        for schema in (1, 99, None):
            data = smoke_record.to_dict()
            data["schema"] = schema
            with pytest.raises(BenchRecordError, match="unsupported BENCH record schema"):
                BenchRecord.from_dict(data)

    def test_missing_gated_value_rejected(self, smoke_record):
        data = smoke_record.to_dict()
        del data["raw"]["file_size"]
        with pytest.raises(BenchRecordError, match="raw.file_size"):
            BenchRecord.from_dict(data)

    def test_sets_cover_known_benchmarks(self):
        assert "smoke" in BENCH_SETS
        for names in BENCH_SETS.values():
            assert names

    def test_smoke_set_includes_streaming_case(self):
        assert "stream-smoke" in BENCH_SETS["smoke"]


class TestStreamSmokeBenchmark:
    @pytest.fixture(scope="class")
    def stream_record(self):
        return run_benchmark("stream-smoke", worst_k=3)

    def test_quality_matches_in_memory_smoke(self, smoke_record, stream_record):
        # Streamed output is byte-identical to the in-memory path, so
        # every deterministic value must agree exactly.
        assert stream_record.scores == smoke_record.scores
        assert stream_record.raw == smoke_record.raw
        assert stream_record.num_fills == smoke_record.num_fills
        assert stream_record.gds_bytes == smoke_record.gds_bytes

    def test_record_identity(self, stream_record):
        assert stream_record.bench == "stream-smoke"
        assert stream_record.config["bands"] > 1


class TestOverlayAttribution:
    def test_overlay_map_sums_to_overlay_area(self, smoke_record):
        # The per-window map is an exact split of the scalar overlay:
        # windows partition the die and area is additive.
        from repro.bench.tracker import _SMOKE_SPEC, _SMOKE_WINDOWS
        from repro.core import DummyFillEngine, FillConfig

        layout = generate_layout(_SMOKE_SPEC)
        grid = WindowGrid(layout.die, *_SMOKE_WINDOWS)
        DummyFillEngine(FillConfig(eta=0.2)).run(layout, grid)
        for lo, hi in layout.adjacent_pairs():
            assert overlay_map(lo, hi, grid).sum() == overlay_area(lo, hi)

    def test_worst_windows_shapes(self):
        from repro.bench.tracker import _SMOKE_SPEC

        layout = generate_layout(dataclasses.replace(_SMOKE_SPEC, name="ww"))
        grid = WindowGrid(layout.die, 4, 4)
        ww = worst_windows(score_maps(layout, grid), k=2)
        assert len(ww["by_deviation"]) == 2
        for entry in ww["by_deviation"]:
            assert set(entry) == {
                "layer",
                "window",
                "density",
                "layer_mean",
                "deviation",
            }

    def test_worst_windows_rejects_negative_k(self):
        from repro.bench.tracker import _SMOKE_SPEC

        layout = generate_layout(_SMOKE_SPEC)
        maps = score_maps(layout, WindowGrid(layout.die, 4, 4))
        with pytest.raises(ValueError, match="k >= 0"):
            worst_windows(maps, k=-1)
        assert worst_windows(maps, k=0) == {"by_deviation": [], "by_overlay": []}


class TestRecordFiles:
    def test_write_and_load(self, tmp_path, smoke_record):
        path = write_record(tmp_path, smoke_record)
        assert path == tmp_path / "BENCH_smoke.json"
        assert load_records(tmp_path) == {"smoke": smoke_record}

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("not json")
        with pytest.raises(BenchRecordError, match="not JSON"):
            load_records(tmp_path)
        path.write_text("[]")
        with pytest.raises(BenchRecordError, match="JSON object"):
            load_records(tmp_path)
        path.write_text('{"schema": 2, "bench": "x"}')
        with pytest.raises(BenchRecordError, match="malformed"):
            load_records(tmp_path)

    def test_empty_or_missing_directory(self, tmp_path):
        with pytest.raises(BenchRecordError, match="no BENCH_"):
            load_records(tmp_path)
        with pytest.raises(BenchRecordError, match="no such directory"):
            load_records(tmp_path / "absent")


def _doctor(record, values):
    """A copy of ``record`` with gated values replaced, by GATE_METRICS name."""
    clone = dataclasses.replace(
        record, scores=dict(record.scores), raw=dict(record.raw)
    )
    for key, value in values.items():
        if key in clone.scores:
            clone.scores[key] = value
        elif key.startswith("raw."):
            clone.raw[key[len("raw."):]] = value
        else:
            clone = dataclasses.replace(clone, **{key: value})
    return clone


def _nudged(record, metric, *, worse):
    """The smallest representable move of one gated value."""
    if metric == "gds_bytes":
        return record.gds_bytes + (1 if worse else -1)
    value = record.scores[metric] if metric in record.scores else record.raw[metric[4:]]
    up = (GATE_METRICS[metric] == "lower") == worse
    return math.nextafter(value, math.inf if up else -math.inf)


class TestGate:
    def test_clean_pass(self, smoke_record):
        result = gate_records(smoke_record, smoke_record)
        assert not result.regressed
        assert "ok" in format_gate(result)

    def test_gated_values(self):
        # the deterministic score components, their raw inputs and the
        # output size, and nothing about time or memory
        assert set(GATE_METRICS) == (
            set(SCORE_KEYS) | {f"raw.{k}" for k in RAW_KEYS} | {"gds_bytes"}
        )

    def test_quality_drop_regresses(self, smoke_record):
        # Doctored base: pretend the past quality was higher.
        base = _doctor(
            smoke_record,
            {"quality": smoke_record.scores["quality"] + 0.2},
        )
        result = gate_records(base, smoke_record)
        assert result.regressed
        assert [d.metric for d in result.deltas if d.worse] == ["quality"]
        assert "REGRESSION: quality" in format_gate(result)

    @pytest.mark.parametrize("metric", sorted(GATE_METRICS))
    def test_any_worse_value_regresses(self, smoke_record, metric):
        head = _doctor(smoke_record, {metric: _nudged(smoke_record, metric, worse=True)})
        result = gate_records(smoke_record, head)
        assert [d.metric for d in result.deltas if d.worse] == [metric]

    @pytest.mark.parametrize("metric", sorted(GATE_METRICS))
    def test_better_value_passes(self, smoke_record, metric):
        head = _doctor(smoke_record, {metric: _nudged(smoke_record, metric, worse=False)})
        result = gate_records(smoke_record, head)
        assert not result.regressed
        assert "better" in format_gate(result)

    def test_mismatched_benchmarks(self, smoke_record):
        other = dataclasses.replace(smoke_record, bench="other")
        with pytest.raises(BenchRecordError):
            gate_records(other, smoke_record)

    def test_config_change_flagged(self, smoke_record):
        other = dataclasses.replace(smoke_record, config_hash="deadbeef")
        result = gate_records(other, smoke_record)
        assert result.config_changed
        assert not result.regressed
        assert "config hash differs" in format_gate(result)


class TestBenchCli:
    def test_run_then_gate(self, tmp_path, capsys):
        base, head = str(tmp_path / "base"), str(tmp_path / "head")
        assert bench_main(["run", "--set", "smoke", "--out", base]) == 0
        assert bench_main(["run", "--set", "smoke", "--out", head]) == 0
        for side in ("base", "head"):
            assert set(load_records(tmp_path / side)) == set(BENCH_SETS["smoke"])
        assert bench_main(["gate", base, head]) == 0
        out = capsys.readouterr().out
        assert "bench gate: smoke" in out
        assert "bench gate: stream-smoke" in out

    def test_gate_doctored_baseline_fails(self, tmp_path, capsys, smoke_record):
        # A base record that claims a better score must trip the gate.
        base = _doctor(
            smoke_record, {"overlay": smoke_record.scores["overlay"] + 0.3}
        )
        write_record(tmp_path / "base", base)
        write_record(tmp_path / "head", smoke_record)
        code = bench_main(["gate", str(tmp_path / "base"), str(tmp_path / "head")])
        assert code == 1
        assert "REGRESSION: overlay" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(lambda r: {"quality": r.scores["quality"] - 1e-12}, id="quality"),
            pytest.param(lambda r: {"gds_bytes": r.gds_bytes + 1}, id="gds_bytes"),
        ],
    )
    def test_gate_worse_head_fails(self, tmp_path, capsys, smoke_record, values):
        write_record(tmp_path / "base", smoke_record)
        write_record(tmp_path / "head", _doctor(smoke_record, values(smoke_record)))
        code = bench_main(["gate", str(tmp_path / "base"), str(tmp_path / "head")])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_gate_better_head_passes(self, tmp_path, capsys, smoke_record):
        better = _doctor(
            smoke_record,
            {
                "quality": smoke_record.scores["quality"] + 1e-12,
                "gds_bytes": smoke_record.gds_bytes - 1,
            },
        )
        write_record(tmp_path / "base", smoke_record)
        write_record(tmp_path / "head", better)
        code = bench_main(["gate", str(tmp_path / "base"), str(tmp_path / "head")])
        assert code == 0
        assert "ok: no value worse than base" in capsys.readouterr().out

    def test_gate_json_format(self, tmp_path, capsys, smoke_record):
        base = _doctor(
            smoke_record, {"quality": smoke_record.scores["quality"] + 0.3}
        )
        write_record(tmp_path / "base", base)
        write_record(tmp_path / "head", smoke_record)
        code = bench_main(
            ["gate", str(tmp_path / "base"), str(tmp_path / "head"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is True
        deltas = {d["metric"]: d for d in payload["results"][0]["deltas"]}
        assert deltas["quality"]["worse"] is True
        assert deltas["gds_bytes"]["worse"] is False

    def test_gate_missing_file(self, tmp_path, capsys, smoke_record):
        write_record(tmp_path / "base", smoke_record)
        code = bench_main(["gate", str(tmp_path / "base"), str(tmp_path / "absent")])
        assert code == 2
        assert "no such directory" in capsys.readouterr().err

    def test_gate_mismatched_sets_exit_2(self, tmp_path, capsys, smoke_record):
        write_record(tmp_path / "base", smoke_record)
        write_record(
            tmp_path / "head", dataclasses.replace(smoke_record, bench="other")
        )
        code = bench_main(["gate", str(tmp_path / "base"), str(tmp_path / "head")])
        assert code == 2
        assert "record sets differ" in capsys.readouterr().err

    def test_gate_schema_1_record_exit_2(self, tmp_path, capsys, smoke_record):
        # the trajectory file an older `repro bench run` wrote
        old = tmp_path / "base" / "BENCH_smoke.json"
        old.parent.mkdir()
        old.write_text(
            json.dumps({"schema": 1, "kind": "trajectory", "bench": "smoke", "records": []})
        )
        write_record(tmp_path / "head", smoke_record)
        code = bench_main(["gate", str(tmp_path / "base"), str(tmp_path / "head")])
        assert code == 2
        assert "unsupported BENCH record schema 1 (expected 2)" in capsys.readouterr().err


class TestTableArtifact:
    def test_render_and_dict(self, tmp_path):
        table = TableArtifact(
            "demo",
            [Column("name", "<8"), Column("value", ">10.2f")],
        )
        table.add_row(name="a", value=1.5)
        table.add_row(name="b", value=None)
        table.note("a note")
        text = table.render()
        assert "name" in text and "1.50" in text and "a note" in text
        data = table.to_dict()
        # tables are versioned apart from BENCH records
        assert data["schema"] == 1
        assert data["kind"] == "table"
        assert data["rows"][0] == {"name": "a", "value": 1.5}
        path = table.write(tmp_path)
        assert json.loads(path.read_text())["name"] == "demo"

    def test_notes_only(self):
        table = TableArtifact("n", [])
        table.note("just prose")
        assert table.render() == "just prose"

    def test_string_fallback_for_unformattable(self):
        table = TableArtifact("f", [Column("x", ">8.2f")])
        table.add_row(x="4x4")
        assert "4x4" in table.render()
