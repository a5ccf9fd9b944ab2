"""Service acceptance test: ``eco_delta`` provably re-processes only the
windows its wire change dirtied, asserted via the per-request span
counters in a run record.

That a session's ``fill`` and ``eco_delta`` responses are byte-identical
to the one-shot engine and cold :func:`repro.eco.apply_eco` chain is
pinned by ``tests/test_differential.py``.
"""

from repro import obs
from repro.service import FillService, ServiceClient

from .conftest import CONFIG_MAPPING, RULES_MAPPING

ECO_1 = {"1": [[50, 50, 250, 90]]}


def _request_span_counters(record, op):
    """Summed counters of the subtree under the op's request span."""
    spans = record.spans
    start = next(
        i
        for i, s in enumerate(spans)
        if s["name"] == "service.request" and s.get("attrs", {}).get("op") == op
    )
    totals = {}
    for span in spans[start + 1 :]:
        if span.get("depth", 0) == 0:
            break
        for name, value in span.get("counters", {}).items():
            totals[name] = totals.get(name, 0.0) + value
    for name, value in spans[start].get("counters", {}).items():
        totals[name] = totals.get(name, 0.0) + value
    return totals


def test_eco_delta_reprocesses_only_dirtied_windows(gds_bytes):
    with obs.record_run(label="eco incrementality") as rec:
        with FillService() as svc:
            client = ServiceClient(svc)
            sid = client.request(
                "open_session",
                gds=gds_bytes,
                windows=4,
                rules=RULES_MAPPING,
                config=CONFIG_MAPPING,
            )["session"]
            client.request("fill", session=sid)
            eco = client.request("eco_delta", session=sid, wires=ECO_1)

    record = rec.record
    fill_counters = _request_span_counters(record, "fill")
    eco_counters = _request_span_counters(record, "eco_delta")

    affected = eco["affected_windows"]
    assert 0 < affected < 16  # the change did not dirty the whole grid

    # candidate generation only visited the dirtied windows
    assert fill_counters["candidates.windows_selected"] > affected
    assert eco_counters["candidates.windows_selected"] <= affected * 2
    assert (
        eco_counters["candidates.windows_selected"]
        < fill_counters["candidates.windows_selected"]
    )

    # the cached analysis was refreshed per window, not recomputed:
    # only the one changed layer's dirtied windows were touched
    assert eco_counters["analysis.refreshed_windows"] == affected
    assert eco_counters["eco.affected_windows"] == affected

    # and the fill request reused the session's analysis outright
    fill_span = next(
        s
        for s in record.spans
        if s["name"] == "service.request" and s["attrs"]["op"] == "fill"
    )
    spans_after = record.spans[record.spans.index(fill_span) + 1 :]
    analysis_spans = [
        s
        for s in spans_after
        if s["name"] == "analysis" and s.get("attrs", {}).get("reused")
    ]
    assert analysis_spans, "fill did not reuse the session's cached analysis"
