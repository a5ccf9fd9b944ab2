"""Runtime shard-sanitizer tests.

The sanitizer (``REPRO_SANITIZE=shard``, its one switch) is the
dynamic half of the REP009 purity contract: it pickle-digests the
shared state around every shard worker and fails loudly when a worker
mutates it — on every backend, including the process pool where the
mutation would otherwise be silently dropped with the worker's copy.
"""

import os

import pytest

from repro import obs
from repro.core import FillConfig
from repro.parallel import ShardMutationError, run_sharded, sanitize_enabled
from repro.parallel.executor import _execute

from ..conftest import TEST_BACKENDS
from .test_parallel import run_filled

SHARDS = [[1, 2], [3, 4], [5]]


@pytest.fixture
def sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "shard")


@pytest.fixture
def no_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def pure_worker(shared, shard):
    """Reads shared state, returns per-shard results; never writes."""
    return [x * shared["scale"] for x in shard]


def mutating_worker(shared, shard):
    """The PR-5 bug shape: accumulating into shared state."""
    shared["seen"].extend(shard)
    return list(shard)


def rebinding_worker(shared, shared_shard):
    shared["count"] = shared.get("count", 0) + len(shared_shard)
    return len(shared_shard)


@pytest.mark.usefixtures("sanitizer")
class TestSanitizerCatchesMutation:
    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_mutating_worker_fails_loudly(self, backend):
        with pytest.raises(ShardMutationError, match="mutated"):
            run_sharded(
                mutating_worker,
                {"seen": []},
                SHARDS,
                workers=2,
                backend=backend,
            )

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_rebinding_worker_fails_loudly(self, backend):
        with pytest.raises(ShardMutationError, match="mutated"):
            run_sharded(
                rebinding_worker,
                {},
                SHARDS,
                workers=2,
                backend=backend,
            )

    def test_error_names_worker_and_shard(self):
        with pytest.raises(ShardMutationError, match=r"mutating_worker.*work\[0\]"):
            run_sharded(
                mutating_worker,
                {"seen": []},
                SHARDS,
                workers=1,
                backend="serial",
                label="work",
            )

    @pytest.mark.parametrize("backend", TEST_BACKENDS)
    def test_pure_worker_passes(self, backend):
        out = run_sharded(
            pure_worker,
            {"scale": 10},
            SHARDS,
            workers=2,
            backend=backend,
        )
        assert out == [[10, 20], [30, 40], [50]]


class TestSanitizerDisabled:
    def test_mutation_not_checked_when_off(self, no_sanitizer):
        out = run_sharded(
            mutating_worker,
            {"seen": []},
            SHARDS,
            workers=2,
            backend="serial",
        )
        assert out == [[1, 2], [3, 4], [5]]

    def test_no_digests_when_off(self):
        outcome = _execute(pure_worker, {"scale": 1}, 0, [1], "lbl", False)
        assert outcome.input_digest is None
        assert outcome.output_digest is None

    def test_digests_recorded_when_on(self):
        outcome = _execute(pure_worker, {"scale": 1}, 0, [1], "lbl", True)
        assert outcome.input_digest is not None
        assert outcome.output_digest is not None
        assert outcome.input_digest != outcome.output_digest
        # and they land on the shard's span for trace inspection
        attrs = outcome.spans[0].attrs
        assert attrs["input_digest"] == outcome.input_digest
        assert attrs["output_digest"] == outcome.output_digest

    def test_same_input_same_digest(self):
        a = _execute(pure_worker, {"scale": 1}, 0, [1], "lbl", True)
        b = _execute(pure_worker, {"scale": 1}, 0, [1], "lbl", True)
        assert a.input_digest == b.input_digest
        assert a.output_digest == b.output_digest


class TestSanitizerSwitch:
    def test_env_enables(self, sanitizer):
        assert sanitize_enabled() is True
        with pytest.raises(ShardMutationError):
            run_sharded(
                mutating_worker, {"seen": []}, SHARDS, workers=1, backend="serial"
            )

    def test_env_other_value_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "everything")
        assert sanitize_enabled() is False

    def test_default_off_without_env(self, no_sanitizer):
        assert sanitize_enabled() is False

    def test_unpicklable_shared_reported_as_sanitizer_error(self, sanitizer):
        with pytest.raises(ShardMutationError, match="could not pickle"):
            run_sharded(
                pure_worker,
                {"scale": 1, "handle": open(os.devnull)},  # repro: noqa[REP010]
                SHARDS,
                workers=1,
                backend="serial",
            )


@pytest.mark.usefixtures("sanitizer")
class TestEngineWithSanitizer:
    """The fill pipeline is sanitizer-clean: its workers really are pure."""

    def test_shard_spans_carry_digests(self):
        tracer = obs.Tracer()
        restore = obs.set_tracer(tracer)
        try:
            run_filled(FillConfig(workers=2, parallel="serial"))
        finally:
            restore()
        digests = [
            span.attrs["input_digest"]
            for span in _walk_spans(tracer.roots)
            if "input_digest" in span.attrs
        ]
        assert digests, "sanitized run recorded no shard digests"


def _walk_spans(roots):
    stack = list(roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)
