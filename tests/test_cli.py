"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.gdsii import layout_from_gdsii


@pytest.fixture()
def demo_gds(tmp_path):
    path = tmp_path / "demo.gds"
    code = main(
        ["generate", str(path), "--die", "1600", "--wires", "120", "--seed", "7"]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["polish"])

    def test_fill_defaults(self):
        args = build_parser().parse_args(["fill", "a.gds", "b.gds"])
        assert args.eta == 0.2
        assert args.solver == "mcf-ssp"
        assert args.windows == 8
        assert args.workers == 1

    def test_fill_rejects_unknown_backend(self):
        # --kernel, --parallel and --sanitize are removed flags
        for flag in (
            ["--parallel", "gpu"],
            ["--parallel", "thread"],
            ["--parallel", "process"],
            ["--sanitize"],
            ["--solver", "mcf-simplex"],
            ["--kernel", "raster"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(["fill", "a.gds", "b.gds", *flag])
            assert exc_info.value.code == 2


class TestGenerate:
    def test_creates_gdsii(self, demo_gds):
        layout = layout_from_gdsii(demo_gds.read_bytes())
        assert layout.num_wires > 0
        assert layout.num_fills == 0

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.gds"
        b = tmp_path / "b.gds"
        main(["generate", str(a), "--die", "1600", "--seed", "3"])
        main(["generate", str(b), "--die", "1600", "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestInfo:
    def test_prints_layers(self, demo_gds, capsys):
        assert main(["info", str(demo_gds), "--windows", "4"]) == 0
        out = capsys.readouterr().out
        assert "layer 1" in out
        assert "wire density" in out


class TestFill:
    def test_fill_roundtrip(self, demo_gds, tmp_path, capsys):
        out_path = tmp_path / "filled.gds"
        code = main(
            ["fill", str(demo_gds), str(out_path), "--windows", "4"]
        )
        assert code == 0
        filled = layout_from_gdsii(out_path.read_bytes())
        assert filled.num_fills > 0
        assert "fills=" in capsys.readouterr().out

    def test_fill_solver_choice(self, demo_gds, tmp_path):
        out_path = tmp_path / "filled.gds"
        code = main(
            [
                "fill",
                str(demo_gds),
                str(out_path),
                "--windows",
                "4",
                "--solver",
                "lp",
            ]
        )
        assert code == 0


class TestScoreAndDrc:
    def test_score_self_calibrated(self, demo_gds, tmp_path, capsys):
        out_path = tmp_path / "filled.gds"
        main(["fill", str(demo_gds), str(out_path), "--windows", "4"])
        capsys.readouterr()
        assert main(["score", str(out_path), "--windows", "4"]) == 0
        out = capsys.readouterr().out
        assert "quality" in out
        assert "score" in out

    def test_score_with_reference(self, demo_gds, tmp_path, capsys):
        out_path = tmp_path / "filled.gds"
        main(["fill", str(demo_gds), str(out_path), "--windows", "4"])
        code = main(
            [
                "score",
                str(out_path),
                "--reference",
                str(demo_gds),
                "--windows",
                "4",
            ]
        )
        assert code == 0

    def test_drc_clean_exit_zero(self, demo_gds, tmp_path, capsys):
        out_path = tmp_path / "filled.gds"
        main(["fill", str(demo_gds), str(out_path), "--windows", "4"])
        capsys.readouterr()
        assert main(["drc", str(out_path)]) == 0
        assert "0 violations" in capsys.readouterr().out


class TestObservability:
    def test_obs_defaults(self):
        args = build_parser().parse_args(["fill", "a.gds", "b.gds"])
        assert args.trace_out is None
        assert args.log_level == "warning"
        args = build_parser().parse_args(
            ["score", "a.gds", "--log-level", "debug"]
        )
        assert args.log_level == "debug"

    def test_fill_trace_out_writes_run_record(self, demo_gds, tmp_path, capsys):
        import json

        out_path = tmp_path / "filled.gds"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "fill",
                str(demo_gds),
                str(out_path),
                "--windows",
                "4",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "wrote run record" in capsys.readouterr().out
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "meta" and kinds[-1] == "summary"
        span_names = {e["name"] for e in events if e["event"] == "span"}
        assert {"io.read", "engine.run", "drc", "io.write"} <= span_names
        # the record parses through the reader and carries the stage table
        from repro.obs import read_record

        record = read_record(trace_path)
        assert record.label == "repro fill"
        assert set(record.stage_seconds("engine.run")) == {
            "analysis",
            "planning",
            "candidates",
            "replanning",
            "sizing",
            "insertion",
        }
        assert record.metrics["sizing.lp_solves"]["value"] > 0

    def test_trace_summarize_subcommand(self, demo_gds, tmp_path, capsys):
        out_path = tmp_path / "filled.gds"
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "fill",
                str(demo_gds),
                str(out_path),
                "--windows",
                "4",
                "--trace-out",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "run record: repro fill" in out
        assert "engine.run" in out

    def test_generate_trace_out_writes_run_record(self, tmp_path, capsys):
        from repro.obs import read_record

        trace_path = tmp_path / "gen.jsonl"
        code = main(
            [
                "generate",
                str(tmp_path / "demo.gds"),
                "--die",
                "1600",
                "--wires",
                "120",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "wrote run record" in capsys.readouterr().out
        record = read_record(trace_path)
        assert record.label == "repro generate"
        assert {"generate", "io.write"} <= set(record.stage_seconds())

    def test_drc_trace_out_writes_run_record(self, demo_gds, tmp_path, capsys):
        from repro.obs import read_record

        trace_path = tmp_path / "drc.jsonl"
        code = main(["drc", str(demo_gds), "--trace-out", str(trace_path)])
        assert code == 0
        assert "wrote run record" in capsys.readouterr().out
        record = read_record(trace_path)
        assert record.label == "repro drc"
        assert {"io.read", "drc"} <= set(record.stage_seconds())

    def test_generate_drc_obs_defaults(self):
        args = build_parser().parse_args(["generate", "a.gds"])
        assert args.trace_out is None and args.log_level == "warning"
        args = build_parser().parse_args(["drc", "a.gds", "--log-level", "debug"])
        assert args.trace_out is None and args.log_level == "debug"

    def test_trace_diff_fail_on_flag(self, demo_gds, tmp_path, capsys):
        out_path = tmp_path / "filled.gds"
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            trace_path = tmp_path / name
            main(
                [
                    "fill",
                    str(demo_gds),
                    str(out_path),
                    "--windows",
                    "4",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            traces.append(trace_path)
        capsys.readouterr()
        # Two identical runs differ by noise only: a huge threshold passes.
        code = main(
            ["trace", "diff", str(traces[0]), str(traces[1]), "--fail-on", "10000"]
        )
        assert code == 0


class TestBenchSubcommand:
    def test_bench_run_and_gate_forwarded(self, tmp_path, capsys):
        base, head = str(tmp_path / "base"), str(tmp_path / "head")
        assert main(["bench", "run", "--set", "smoke", "--out", base]) == 0
        assert main(["bench", "run", "--set", "smoke", "--out", head]) == 0
        assert (tmp_path / "head" / "BENCH_smoke.json").exists()
        capsys.readouterr()
        assert main(["bench", "gate", base, head]) == 0
        assert "bench gate: smoke" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, usage", [("bench", "usage: repro.bench"), ("trace", "usage: repro.obs")]
    )
    def test_help_is_the_sub_clis(self, command, usage, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


class TestEcoCommand:
    def _filled(self, demo_gds, tmp_path):
        filled = tmp_path / "filled.gds"
        assert main(["fill", str(demo_gds), str(filled), "--windows", "4"]) == 0
        return filled

    def test_eco_roundtrip(self, demo_gds, tmp_path, capsys):
        import json

        filled = self._filled(demo_gds, tmp_path)
        wires = tmp_path / "wires.json"
        wires.write_text(json.dumps({"1": [[100, 100, 400, 140]]}))
        patched = tmp_path / "patched.gds"
        code = main(
            ["eco", str(filled), str(wires), str(patched), "--windows", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ECO:" in out
        assert "0 DRC violations" in out
        before = layout_from_gdsii(filled.read_bytes())
        after = layout_from_gdsii(patched.read_bytes())
        assert after.num_wires == before.num_wires + 1

    def test_eco_trace_out_writes_run_record(self, demo_gds, tmp_path, capsys):
        import json

        from repro.obs import read_record

        filled = self._filled(demo_gds, tmp_path)
        wires = tmp_path / "wires.json"
        wires.write_text(json.dumps({"1": [[100, 100, 400, 140]]}))
        patched = tmp_path / "patched.gds"
        record_path = tmp_path / "eco.jsonl"
        code = main(
            [
                "eco", str(filled), str(wires), str(patched),
                "--windows", "4", "--trace-out", str(record_path),
            ]
        )
        assert code == 0
        record = read_record(record_path)
        assert record.label == "repro eco"
        assert "eco.apply" in record.stage_seconds()

    def test_eco_rejects_bad_wires(self, demo_gds, tmp_path):
        filled = self._filled(demo_gds, tmp_path)
        wires = tmp_path / "wires.json"
        wires.write_text('{"metal1": [[0, 0, 10, 10]]}')
        with pytest.raises(ValueError, match="not an integer"):
            main(["eco", str(filled), str(wires), str(tmp_path / "out.gds")])


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.socket is None and args.port is None
        assert args.max_sessions == 8

    def test_serve_rejects_both_transports(self):
        from repro.service.cli import run_serve

        args = build_parser().parse_args(
            ["serve", "--socket", "a.sock", "--port", "1"]
        )
        with pytest.raises(SystemExit, match="only one"):
            run_serve(args)


class TestTraceExport:
    def test_trace_export_chrome(self, demo_gds, tmp_path, capsys):
        import json

        record_path = tmp_path / "run.jsonl"
        out = tmp_path / "filled.gds"
        main(
            [
                "fill", str(demo_gds), str(out),
                "--windows", "4", "--trace-out", str(record_path),
            ]
        )
        capsys.readouterr()
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "trace", "export", str(record_path),
                "--format", "chrome", "-o", str(trace_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "engine.run" in names


class TestTelemetryFlags:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["fill", "a.gds", "b.gds"])
        assert args.profile is False
        assert args.profile_ms == 10.0
        args = build_parser().parse_args(
            ["fill", "a.gds", "b.gds", "--profile", "--profile-ms", "2.5"]
        )
        assert args.profile is True
        assert args.profile_ms == 2.5

    def test_profiled_fill_records_profile_event(self, demo_gds, tmp_path):
        import json

        out = tmp_path / "filled.gds"
        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "fill", str(demo_gds), str(out),
                "--windows", "4", "--trace-out", str(trace_path),
                "--profile", "--profile-ms", "1",
            ]
        )
        assert code == 0
        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        profiles = [e for e in events if e.get("event") == "profile"]
        assert len(profiles) == 1
        assert profiles[0]["period_ms"] == 1.0
        assert profiles[0]["samples"] >= 0
        # every folded stack is rooted at a span the record knows about
        root_spans = {
            e["name"] for e in events if e.get("event") == "span" and e["depth"] == 0
        }
        for key in profiles[0]["folded"]:
            assert key.split(";", 1)[0] in root_spans

    def test_trace_export_folded_offline(self, demo_gds, tmp_path, capsys):
        record_path = tmp_path / "run.jsonl"
        out = tmp_path / "filled.gds"
        main(
            [
                "fill", str(demo_gds), str(out),
                "--windows", "4", "--trace-out", str(record_path),
            ]
        )
        capsys.readouterr()
        folded_path = tmp_path / "stacks.folded"
        code = main(
            [
                "trace", "export", str(record_path),
                "--format", "folded", "-o", str(folded_path),
            ]
        )
        assert code == 0
        lines = folded_path.read_text().splitlines()
        assert lines
        paths = [line.rsplit(" ", 1)[0] for line in lines]
        weights = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert all(w >= 1 for w in weights)
        # top frames name the engine stages
        assert any(p.startswith("engine.run;") for p in paths)

    def test_events_flag_writes_jsonl(self, demo_gds, tmp_path):
        import json

        out = tmp_path / "filled.gds"
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "fill", str(demo_gds), str(out),
                "--windows", "4",
                "--events", str(events_path), "--log-level", "debug",
            ]
        )
        assert code == 0
        assert events_path.exists()
        for line in events_path.read_text().splitlines():
            json.loads(line)
