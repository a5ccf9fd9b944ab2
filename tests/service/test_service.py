"""Tests for the in-process fill service: ops, session turns, determinism."""

import threading

import pytest

from repro import obs
from repro.bench.suite import calibrate_weights
from repro.density import score_layout
from repro.gdsii import file_size_mb, layout_from_gdsii
from repro.layout import WindowGrid
from repro.service import FillService, JobError, ServiceClient, rules_from_mapping

from .conftest import CONFIG_MAPPING, RULES, RULES_MAPPING


@pytest.fixture
def service():
    with FillService() as svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service)


def open_session(client, gds_bytes, **overrides):
    params = {
        "gds": gds_bytes,
        "windows": 4,
        "rules": RULES_MAPPING,
        "config": CONFIG_MAPPING,
    }
    params.update(overrides)
    return client.request("open_session", **params)["session"]


class TestControlOps:
    def test_ping(self, client):
        assert client.request("ping") == {"pong": True, "sessions": 0}

    def test_open_and_describe(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        listing = client.request("sessions")["sessions"]
        assert [s["session"] for s in listing] == [sid]
        assert listing[0]["layers"] == 2

    def test_close_session(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        assert client.request("close_session", session=sid) == {"closed": sid}
        with pytest.raises(JobError) as exc_info:
            client.request("fill", session=sid)
        assert exc_info.value.error_type == "UnknownSessionError"

    def test_open_needs_exactly_one_source(self, client):
        with pytest.raises(JobError, match="exactly one"):
            client.request("open_session")

    def test_unknown_rules_key_rejected(self, client, gds_bytes):
        with pytest.raises(JobError, match="unknown rules keys"):
            open_session(client, gds_bytes, rules={"min_gap": 3})

    def test_removed_solver_rejected(self, client, gds_bytes):
        with pytest.raises(JobError, match="solver must be one of"):
            open_session(client, gds_bytes, config={"solver": "mcf-simplex"})
        with pytest.raises(JobError, match=r"unknown config keys \['kernel'\]") as exc_info:
            open_session(client, gds_bytes, config={**CONFIG_MAPPING, "kernel": "raster"})
        assert exc_info.value.error_type == "ValueError"
        with pytest.raises(JobError, match=r"unknown config keys \['memory_budget'\]"):
            open_session(client, gds_bytes, config={**CONFIG_MAPPING, "memory_budget": 1 << 20})
        # the failed requests leave the service serving
        sid = open_session(client, gds_bytes)
        assert client.request("fill", session=sid)["num_fills"] > 0

    def test_rules_from_mapping_defaults(self):
        rules = rules_from_mapping({})
        assert rules.min_spacing == 10
        assert rules.max_fill_width == 150

    @pytest.mark.parametrize("value", [10.9, 10.0, "12", True])
    def test_non_integer_rule_rejected(self, value):
        # a float is not truncated, a string not parsed
        with pytest.raises(ValueError, match="min_spacing must be an integer"):
            rules_from_mapping({"min_spacing": value})

    def test_non_integer_request_values_rejected(self, client, gds_bytes):
        with pytest.raises(JobError, match="windows must be an integer") as exc_info:
            open_session(client, gds_bytes, windows=8.9)
        assert exc_info.value.error_type == "ValueError"
        with pytest.raises(JobError, match="max_fill must be an integer"):
            open_session(client, gds_bytes, rules={**RULES_MAPPING, "max_fill": "150"})
        for key, value in (("workers", 2.5), ("sizing_iterations", 1.5)):
            with pytest.raises(JobError, match=f"{key} must be an integer"):
                open_session(client, gds_bytes, config={**CONFIG_MAPPING, key: value})
        assert client.request("sessions")["sessions"] == []


class TestComputeOps:
    def test_fill_reports_and_commits(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        result = client.request("fill", session=sid)
        assert result["num_fills"] > 0
        assert result["drc_violations"] == 0
        assert result["gds"][:2] == b"\x00\x06"
        # the session now holds the filled layout
        listing = client.request("sessions")["sessions"]
        assert listing[0]["fills"] == result["num_fills"]

    def test_fill_is_replayable(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        first = client.request("fill", session=sid)
        second = client.request("fill", session=sid)
        assert first["gds"] == second["gds"]

    def test_score_and_drc_audit(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        gds = client.request("fill", session=sid)["gds"]
        scores = client.request("score", session=sid)["scores"]
        # The same card the CLI path builds from the served file: weights
        # calibrated on its wires, file size from its real byte count.
        layout = layout_from_gdsii(gds, RULES)
        wires = layout.copy_without_fills()
        weights = calibrate_weights(wires, WindowGrid(wires.die, 4, 4), 60.0, 1024.0)
        card = score_layout(
            layout, WindowGrid(layout.die, 4, 4), weights, file_size=file_size_mb(len(gds))
        )
        assert scores == card.as_row()
        assert scores["score"] > 0
        audit = client.request("drc_audit", session=sid)
        assert audit["count"] == 0 and audit["violations"] == []

    def test_eco_delta_refills_dirtied_windows(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        client.request("fill", session=sid)
        result = client.request(
            "eco_delta", session=sid, wires={"1": [[50, 50, 250, 90]]}
        )
        assert result["new_wires"] == 1
        assert result["removed_fills"] > 0
        assert result["new_fills"] > 0
        assert 0 < result["affected_windows"] < 16
        assert client.request("drc_audit", session=sid)["count"] == 0

    def test_eco_delta_zero_area_wire_leaves_session_intact(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        before = client.request("fill", session=sid)["gds"]
        bad = {"1": [[100, 100, 400, 140]], "2": [[500, 500, 500, 900]]}
        with pytest.raises(JobError, match="on layer 2 has zero area"):
            client.request("eco_delta", session=sid, wires=bad)
        assert client.request("fill", session=sid)["gds"] == before
        result = client.request("eco_delta", session=sid, wires={"1": [[100, 100, 400, 140]]})
        assert result["new_wires"] == 1

    def test_eco_delta_rejects_two_keys_for_one_layer(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        wires = {"1": [[0, 0, 10, 10]], "01": [[20, 20, 30, 30]]}
        with pytest.raises(JobError, match="'01' and '1' both name layer 1"):
            client.request("eco_delta", session=sid, wires=wires)

    def test_eco_delta_needs_wires(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        with pytest.raises(JobError, match="non-empty"):
            client.request("eco_delta", session=sid, wires={})

    def test_unknown_op(self, client):
        with pytest.raises(JobError, match="unknown compute op"):
            client.request("prophesy", session="s1")

    def test_unknown_session(self, client):
        with pytest.raises(JobError) as exc_info:
            client.request("fill", session="s999")
        assert exc_info.value.error_type == "UnknownSessionError"


class TestBatch:
    def test_mixed_batch_in_order(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        responses = client.batch(
            [
                {"op": "fill", "session": sid},
                {"op": "score", "session": sid},
                {"op": "drc_audit", "session": sid},
            ]
        )
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[0]["result"]["num_fills"] > 0
        assert responses[2]["result"]["count"] == 0

    def test_empty_batch_rejected(self, client):
        with pytest.raises(JobError, match="non-empty"):
            client.request("batch", requests=[])

    def test_bad_op_fails_whole_batch_before_queueing(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        with pytest.raises(JobError, match="unknown compute op"):
            client.batch(
                [{"op": "fill", "session": sid}, {"op": "nope", "session": sid}]
            )
        # every request is checked before the first one runs
        assert client.request("sessions")["sessions"][0]["requests_served"] == 0

    def test_unknown_session_runs_none_of_the_batch(self, client, gds_bytes):
        sid = open_session(client, gds_bytes)
        with pytest.raises(JobError) as exc_info:
            client.batch(
                [{"op": "fill", "session": sid}, {"op": "drc_audit", "session": "s404"}]
            )
        assert exc_info.value.error_type == "UnknownSessionError"
        assert client.request("sessions")["sessions"][0]["requests_served"] == 0


class TestBackpressureAndEviction:
    def test_eviction_invalidates_old_session(self, gds_bytes):
        with FillService(max_sessions=1) as svc:
            client = ServiceClient(svc)
            first = open_session(client, gds_bytes)
            open_session(client, gds_bytes)
            with pytest.raises(JobError) as exc_info:
                client.request("drc_audit", session=first)
            assert exc_info.value.error_type == "UnknownSessionError"

    def test_stopped_service_rejects_work(self, gds_bytes):
        svc = FillService()
        svc.start()
        client = ServiceClient(svc)
        sid = open_session(client, gds_bytes)
        svc.stop()
        with pytest.raises(JobError):
            client.request("fill", session=sid)


class TestSessionTurns:
    def test_held_turn_blocks_only_its_own_session(self, gds_bytes):
        # thread 1 holds session A's turn; a request on B returns, and
        # one on A from a third thread waits until A's turn is released
        with obs.record_run(label="session turns") as rec:
            with FillService() as svc:
                client = ServiceClient(svc)
                sid_a, sid_b = open_session(client, gds_bytes), open_session(client, gds_bytes)
                held, release = threading.Event(), threading.Event()
                answered = []

                def hold_a():
                    with svc.store.get(sid_a).serving():
                        held.set()
                        release.wait(30.0)

                holder = threading.Thread(target=hold_a)
                waiter = threading.Thread(
                    target=lambda: answered.append(client.request("drc_audit", session=sid_a))
                )
                holder.start()
                assert held.wait(30.0)
                try:
                    assert client.request("drc_audit", session=sid_b)["count"] == 0
                    waiter.start()
                    waiter.join(0.5)
                    assert waiter.is_alive() and answered == []
                finally:
                    release.set()
                    holder.join(30.0)
                waiter.join(30.0)
                assert not waiter.is_alive()
        assert answered[0]["count"] == 0
        wait = rec.record.metrics["service.queue.wait_s"]
        assert wait["count"] == 2
        assert wait["max"] >= 0.5  # A's request timed its wait for the turn


class TestConcurrentDeterminism:
    def test_concurrent_identical_fills_are_byte_identical(
        self, service, client, gds_bytes
    ):
        sid = open_session(client, gds_bytes)
        results = [None] * 6
        errors = []

        def run(i):
            try:
                results[i] = client.request("fill", session=sid)["gds"]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert errors == []
        assert all(r is not None for r in results)
        assert len({bytes(r) for r in results}) == 1


class TestObservability:
    def test_latency_histograms_in_run_record(self, gds_bytes, tmp_path):
        record_path = tmp_path / "service.jsonl"
        with obs.record_run(record_path, label="service test") as rec:
            with FillService() as svc:
                client = ServiceClient(svc)
                sid = open_session(client, gds_bytes)
                client.request("fill", session=sid)
                client.request("score", session=sid)
                client.request(
                    "eco_delta", session=sid, wires={"1": [[50, 50, 250, 90]]}
                )
        record = rec.record
        for op in ("fill", "score", "eco_delta"):
            hist = record.metrics[f"service.latency.{op}"]
            assert hist["kind"] == "histogram"
            assert hist["count"] == 1
            assert hist["p95"] >= 0.0
        assert record.metrics["service.queue.wait_s"]["count"] == 3
        assert record.metrics["service.requests.fill"]["value"] == 1

        request_spans = [
            s for s in record.spans if s["name"] == "service.request"
        ]
        assert [s["attrs"]["op"] for s in request_spans] == [
            "fill",
            "score",
            "eco_delta",
        ]
        assert all(s["depth"] == 0 for s in request_spans)
        assert all("queue_wait_s" in s["attrs"] for s in request_spans)
        assert all("job" not in s["attrs"] for s in request_spans)

    def test_error_paths_counted(self, gds_bytes):
        with obs.record_run(label="errors") as rec:
            with FillService() as svc:
                client = ServiceClient(svc)
                sid = open_session(client, gds_bytes)
                with pytest.raises(JobError):
                    client.request("eco_delta", session=sid, wires={})
        assert rec.record.metrics["service.errors"]["value"] == 1
