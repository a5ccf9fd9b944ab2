"""The performance ledger at smoke scale: metrics, tracing, compare, failures."""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from ledger import ROOT, metrics, runner
from ledger.__main__ import main as ledger_main
from ledger.trace import TARGETS, Recorder, resolve_owner
from ledger.workloads import ORDER, prepare


@pytest.fixture(scope="module")
def ledger_run(tmp_path_factory):
    """A smoke-scale record, plus the raw results of its traced children."""
    traced = {}
    spawn = runner.Children.spawn

    def keep_traced(self, base, **kwargs):
        result = spawn(self, base, **kwargs)
        if kwargs.get("traced"):
            traced[base["workload"]] = result
        return result

    # the measured children still give setup_s; set-up-only children
    # are exercised by the bench test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "SETUP_REPEATS", dict.fromkeys(runner.SETUP_REPEATS, 0))
        mp.setattr(runner.Children, "spawn", keep_traced)
        record = runner.run(
            seed=0, rounds=1, scale="smoke", work_root=tmp_path_factory.mktemp("ledger")
        )
    return record, traced


@pytest.fixture(scope="module")
def record(ledger_run):
    return ledger_run[0]


def _spec():
    return metrics.benchmark_spec()


def test_every_benchmark_metric_is_emitted_with_its_unit(record):
    spec = _spec()
    for name in ORDER:
        workload = record["workloads"][name]
        for m in spec["end_to_end"]:
            assert workload["metrics"][m["name"]]["unit"] == m["unit"], (name, m)
            assert workload["metrics"][m["name"]]["value"] > 0, (name, m)
            if m["unit"] in ("s", "ms"):
                assert workload["metrics"][m["name"]]["wall"]["value"] > 0, (name, m)
        for m in spec["per_layer"]:
            assert workload["per_layer"][m["name"]]["unit"] == m["unit"], (name, m)
    assert {w["name"] for w in spec["workloads"]} == set(ORDER)
    for m in spec["end_to_end"]:
        assert metrics.E2E_METRICS[m["name"]][:2] == (m["unit"], m["better"]), m


def test_smoke_ledger_is_correct_and_layers_land_where_predicted(record):
    assert record["correct"], record["checks"]
    w = record["workloads"]
    assert all(w[name]["failed"] == 0 for name in ORDER)
    assert w["fill-m"]["metrics"]["quality"]["value"] > 0
    assert w["fill-m-w2"]["metrics"]["out_mb"]["value"] == w["fill-m"]["metrics"]["out_mb"]["value"]
    # each layer moves on its own workload and reads 0 where bypassed
    assert w["fill-m-w2"]["per_layer"]["parallel.worker_cpu_s"]["value"] > 0
    assert w["fill-m"]["per_layer"]["parallel.calls"]["value"] == 0
    assert w["fill-m"]["per_layer"]["netflow.solve_calls"]["value"] > 0
    assert w["service-b"]["per_layer"]["eco.apply_s"]["value"] > 0
    assert w["fill-m"]["per_layer"]["eco.apply_s"]["value"] == 0
    assert w["service-b"]["per_layer"]["scoring.overlay_s"]["value"] > 0
    assert w["stream-xl"]["per_layer"]["stream.bands"]["value"] > 1
    assert w["fill-m"]["per_layer"]["stream.bands"]["value"] == 0


def test_wrappers_are_transparent_and_restored_by_identity():
    from repro.core import DummyFillEngine, FillConfig
    from repro.gdsii import gdsii_bytes
    from repro.layout import WindowGrid
    from repro.bench.generator import generate_layout
    from ledger.workloads import SCALES

    originals = [getattr(resolve_owner(path), attr) for path, attr, *_ in TARGETS]

    def fill():
        layout = generate_layout(SCALES["smoke"].fill)
        DummyFillEngine(FillConfig(eta=0.2)).run(layout, WindowGrid(layout.die, 4, 4))
        layout.check_drc()
        return hashlib.sha256(gdsii_bytes(layout)).hexdigest()

    untraced = fill()
    recorder = Recorder()
    recorder.install(object())
    try:
        assert all(
            getattr(resolve_owner(path), attr) is not original
            for (path, attr, *_), original in zip(TARGETS, originals)
        )
        traced = fill()
    finally:
        assert recorder.restore()
    assert all(
        getattr(resolve_owner(path), attr) is original
        for (path, attr, *_), original in zip(TARGETS, originals)
    )
    assert traced == untraced
    layers = {span[0] for span in recorder.spans}
    assert {"density.analyze", "candidates.generate", "sizing.size", "drc.check"} <= layers


def test_traced_children_alternate_and_match_the_untraced_digests(ledger_run):
    record, traced = ledger_run
    assert set(traced) == {"fill-m", "fill-m-w2", "service-b"}
    for name, child in traced.items():
        assert child["restored"], name
        assert [cy["traced"] for cy in child["cycles"]] == [False, True, False, True, False]
        # the runner judged every traced cycle against the untraced reference
        assert all(op["error"] is None for cy in child["cycles"] for op in cy["ops"]), name
    fill = traced["fill-m"]["cycles"]
    assert len({cy["digest"] for cy in fill}) == 1
    assert all(cy["spans"]["sizing.size"]["calls"] == 1 for cy in fill if cy["traced"])
    assert all("spans" not in cy for cy in fill if not cy["traced"])
    assert record["workloads"]["fill-m"]["per_layer"]["ledger.trace_overhead_pct"]["value"] != 0


def test_injected_failing_op_raises_fail_ratio(tmp_path):
    job = prepare("fill-m", "smoke", 0, tmp_path)
    children = runner.Children(tmp_path)
    clean = children.spawn(job, cycles=2)
    failing = children.spawn(job, cycles=2, fail_op=1)
    assert metrics.end_to_end("fill", [clean], [[clean]])["fail_ratio"]["value"] == 0
    result = metrics.end_to_end("fill", [failing], [[failing]])
    assert result["fail_ratio"]["value"] == 0.5
    # the failed op leaves the timing samples
    assert result["latency_p50_ms"]["n"] == 1
    # a wrong output digest fails the op too
    runner.judge(clean, runner.Reference(cycles={0: "0" * 64}))
    assert metrics.end_to_end("fill", [clean], [[clean]])["fail_ratio"]["value"] == 0.5


def _record(samples, metric="latency_p50_ms"):
    unit, better, _ = metrics.E2E_METRICS[metric]
    return {
        "host_probe_ms": metrics.summarize([[100.0]]),
        "workloads": {
            "fill-m": {
                "metrics": {
                    metric: {"unit": unit, "better": better, **metrics.summarize([[x] for x in samples])}
                }
            }
        }
    }


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([100, 101, 99, 100, 100], [100, 101, 100, 99, 100], "unchanged"),
        ([100, 101, 99, 100, 100], [130, 131, 129, 130, 130], "worse"),
        ([100, 101, 99, 100, 100], [95, 96, 94, 95, 95], "unchanged"),
        ([100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "better"),
        ([100, 140, 100, 140, 120], [121, 122, 120, 121, 121], "unresolved"),
        ([100, 140, 100, 140, 120], [60, 61, 59, 60, 60], "better"),
    ],
)
def test_compare_verdicts(a, b, expected):
    (row,) = metrics.compare(_record(a), _record(b))
    assert row["verdict"] == expected


def test_compare_exits_1_on_worse(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record([0.0], "fail_ratio")))
    b.write_text(json.dumps(_record([0.25], "fail_ratio")))
    assert ledger_main(["compare", str(a), str(a)]) == 0
    assert ledger_main(["compare", str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out


def test_bench_prints_one_json_result_line():
    proc = subprocess.run(
        [sys.executable, "-m", "ledger", "bench", "--workload", "stream-xl", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]


def test_bench_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ledger", "bench", "--workload", "fill-m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
