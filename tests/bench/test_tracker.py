"""Tests for the benchmark trajectory tracker and regression gate."""

import dataclasses
import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.tracker import (
    BENCH_SCHEMA_VERSION,
    BENCH_SETS,
    BenchRecord,
    Column,
    TableArtifact,
    TrajectoryError,
    append_record,
    format_gate,
    gate_records,
    load_trajectory,
    run_benchmark,
    trajectory_path,
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
        assert d["schema"] == BENCH_SCHEMA_VERSION
        assert d["bench"] == "smoke"
        assert d["git_sha"]
        assert d["config_hash"]
        assert d["config"]["bench"] == "smoke"

    def test_score_components_present(self, smoke_record):
        for key in (
            "overlay",
            "variation",
            "line",
            "outlier",
            "size",
            "runtime",
            "memory",
            "quality",
            "score",
        ):
            assert 0.0 <= smoke_record.scores[key] <= 1.0

    def test_stage_seconds_from_span_tree(self, smoke_record):
        stages = smoke_record.stage_seconds
        for stage in (
            "analysis",
            "planning",
            "candidates",
            "replanning",
            "sizing",
            "insertion",
        ):
            assert stage in stages
            assert stages[stage] >= 0.0
        assert sum(stages.values()) <= smoke_record.seconds

    def test_run_stats(self, smoke_record):
        assert smoke_record.seconds > 0
        assert smoke_record.peak_rss_mb >= 0
        assert smoke_record.num_fills > 0
        assert smoke_record.gds_bytes > 0

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
        data = smoke_record.to_dict()
        data["schema"] = 99
        with pytest.raises(TrajectoryError):
            BenchRecord.from_dict(data)

    def test_unknown_metric(self, smoke_record):
        with pytest.raises(KeyError):
            smoke_record.metric("nope")

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
        # every deterministic quality component must agree exactly.
        for key in ("overlay", "variation", "line", "outlier", "size"):
            assert stream_record.scores[key] == smoke_record.scores[key]
        assert stream_record.num_fills == smoke_record.num_fills
        assert stream_record.gds_bytes == smoke_record.gds_bytes

    def test_stage_seconds_from_stream_span_tree(self, stream_record):
        # the streamed run roots at engine.run like the in-memory one:
        # its I/O passes sit next to the shared engine stages
        for stage in ("scan", "bucket", "analysis", "candidates", "replanning", "sizing",
                      "io.write"):
            assert stage in stream_record.stage_seconds

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


class TestTrajectory:
    def test_append_and_load(self, tmp_path, smoke_record):
        path = trajectory_path(tmp_path, "smoke")
        assert append_record(path, smoke_record) == 1
        assert append_record(path, smoke_record) == 2
        records = load_trajectory(path)
        assert [r.bench for r in records] == ["smoke", "smoke"]

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("not json")
        with pytest.raises(TrajectoryError):
            load_trajectory(path)
        path.write_text('{"kind": "other"}')
        with pytest.raises(TrajectoryError):
            load_trajectory(path)


def _doctor(record, **scores):
    """A baseline copy with selected metrics overridden."""
    clone = dataclasses.replace(
        record,
        scores=dict(record.scores),
    )
    for key, value in scores.items():
        if key in clone.scores:
            clone.scores[key] = value
        else:
            clone = dataclasses.replace(clone, **{key: value})
    return clone


class TestGate:
    def test_clean_pass(self, smoke_record):
        result = gate_records(smoke_record, smoke_record)
        assert not result.regressed
        assert "ok" in format_gate(result)

    def test_quality_drop_regresses(self, smoke_record):
        # Doctored baseline: pretend the past score was much higher.
        baseline = _doctor(
            smoke_record,
            score=smoke_record.scores["score"] + 0.2,
            quality=smoke_record.scores["quality"] + 0.2,
        )
        result = gate_records(baseline, smoke_record)
        assert result.regressed
        names = {d.metric for d in result.regressions}
        assert {"score", "quality"} <= names
        assert "REGRESSED" in format_gate(result)

    def test_runtime_growth_regresses(self, smoke_record):
        current = _doctor(smoke_record, seconds=smoke_record.seconds + 100.0)
        result = gate_records(smoke_record, current)
        assert any(
            d.metric == "seconds" and d.regressed for d in result.deltas
        )

    def test_small_noise_passes(self, smoke_record):
        # Sub-threshold jitter on a lower-is-better metric.
        current = _doctor(smoke_record, seconds=smoke_record.seconds + 0.01)
        result = gate_records(smoke_record, current)
        assert not result.regressed

    def test_threshold_override(self, smoke_record):
        current = _doctor(smoke_record, seconds=smoke_record.seconds + 100.0)
        result = gate_records(
            smoke_record, current, thresholds={"seconds": 1000.0}
        )
        assert not result.regressed
        with pytest.raises(TrajectoryError):
            gate_records(smoke_record, current, thresholds={"bogus": 1.0})

    def test_mismatched_benchmarks(self, smoke_record):
        other = dataclasses.replace(smoke_record, bench="other")
        with pytest.raises(TrajectoryError):
            gate_records(other, smoke_record)

    def test_config_change_flagged(self, smoke_record):
        other = dataclasses.replace(smoke_record, config_hash="deadbeef")
        result = gate_records(other, smoke_record)
        assert result.config_changed
        assert "config hash changed" in format_gate(result)


class TestBenchCli:
    def test_run_then_gate(self, tmp_path, capsys):
        out = str(tmp_path)
        assert bench_main(["run", "--set", "smoke", "--out", out]) == 0
        assert bench_main(["run", "--set", "smoke", "--out", out]) == 0
        traj = tmp_path / "BENCH_smoke.json"
        assert traj.exists()
        assert bench_main(["gate", str(traj)]) == 0
        captured = capsys.readouterr()
        assert "bench gate: smoke" in captured.out

    def test_gate_single_record_skips(self, tmp_path, capsys, smoke_record):
        traj = trajectory_path(tmp_path, "smoke")
        append_record(traj, smoke_record)
        assert bench_main(["gate", str(traj)]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_gate_doctored_baseline_fails(
        self, tmp_path, capsys, smoke_record
    ):
        # The acceptance-criteria scenario: a baseline trajectory whose
        # newest record claims a much better score must trip the gate.
        baseline = _doctor(
            smoke_record, score=smoke_record.scores["score"] + 0.3
        )
        base_traj = trajectory_path(tmp_path, "base")
        append_record(base_traj, baseline)
        cur_traj = trajectory_path(tmp_path, "smoke")
        append_record(cur_traj, smoke_record)
        code = bench_main(
            ["gate", str(cur_traj), "--baseline", str(base_traj)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_gate_json_format(self, tmp_path, capsys, smoke_record):
        baseline = _doctor(
            smoke_record, score=smoke_record.scores["score"] + 0.3
        )
        traj = trajectory_path(tmp_path, "smoke")
        append_record(traj, baseline)
        append_record(traj, smoke_record)
        code = bench_main(["gate", str(traj), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is True
        deltas = {
            d["metric"]: d for d in payload["results"][0]["deltas"]
        }
        assert deltas["score"]["regressed"] is True

    def test_gate_threshold_flag(self, tmp_path, capsys, smoke_record):
        slower = _doctor(smoke_record, seconds=smoke_record.seconds + 100.0)
        traj = trajectory_path(tmp_path, "smoke")
        append_record(traj, smoke_record)
        append_record(traj, slower)
        assert bench_main(["gate", str(traj)]) == 1
        assert (
            bench_main(["gate", str(traj), "--threshold", "seconds=1000"])
            == 0
        )
        assert bench_main(["gate", str(traj), "--threshold", "seconds"]) == 2

    def test_gate_missing_file(self, tmp_path, capsys):
        assert bench_main(["gate", str(tmp_path / "absent.json")]) == 2


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
        assert data["schema"] == BENCH_SCHEMA_VERSION
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
