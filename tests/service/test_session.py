"""Tests for fill sessions: the session turn, caches, LRU store."""

import sys
import threading
import time

import pytest

from repro.core import FillConfig
from repro.layout import WindowGrid
from repro.service import (
    FillSession,
    SessionClosedError,
    SessionStore,
    UnknownSessionError,
)

from .conftest import make_layout


def _session(session_id="s1"):
    layout = make_layout()
    grid = WindowGrid(layout.die, 4, 4)
    return FillSession(session_id, layout, grid, FillConfig(workers=1))


class TestSessionTurn:
    def test_failed_request_releases_the_turn(self):
        session = _session()
        with pytest.raises(RuntimeError, match="boom"):
            with session.serving():
                raise RuntimeError("boom")
        with session.serving():
            pass  # would deadlock if the failed request kept the turn
        assert session.requests_served == 1

    def test_closed_session_raises_inside_serving(self):
        session = _session()
        session.close()
        with pytest.raises(SessionClosedError):
            with session.serving():
                pass
        assert session.requests_served == 0

    def test_turns_serialize_concurrent_requests(self):
        # more threads than cores, a short switch interval and a yield
        # inside the turn: two requests holding it at once would show
        session = _session()
        inside = []
        overlaps = []

        def run():
            for _ in range(50):
                with session.serving():
                    inside.append(1)
                    time.sleep(0)
                    if len(inside) > 1:
                        overlaps.append(1)
                    inside.pop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert overlaps == []
        assert session.requests_served == 8 * 50


class TestCaches:
    def test_ensure_caches_builds_once(self):
        session = _session()
        assert session.analysis is None
        session.ensure_caches()
        analysis = session.analysis
        assert analysis is not None
        assert set(analysis) == set(session.layout.layer_numbers)
        session.ensure_caches()
        assert session.analysis is analysis  # not recomputed

    def test_describe_is_json_ready(self):
        session = _session()
        desc = session.describe()
        assert desc["session"] == "s1"
        assert desc["layers"] == 2
        assert desc["cached_analysis"] is False
        session.ensure_caches()
        assert session.describe()["cached_analysis"] is True


class TestSessionStore:
    def _open(self, store):
        layout = make_layout()
        grid = WindowGrid(layout.die, 4, 4)
        return store.open(layout, grid, FillConfig(workers=1))

    def test_lru_eviction_closes_oldest(self):
        store = SessionStore(max_sessions=2)
        s1, s2, s3 = self._open(store), self._open(store), self._open(store)
        assert len(store) == 2
        assert store.evicted == 1
        assert s1.closed and not s2.closed and not s3.closed
        with pytest.raises(UnknownSessionError):
            store.get(s1.id)

    def test_get_refreshes_recency(self):
        store = SessionStore(max_sessions=2)
        s1, s2 = self._open(store), self._open(store)
        store.get(s1.id)  # s1 becomes most recent; s2 is now the LRU
        self._open(store)
        assert s2.closed and not s1.closed

    def test_close_unknown_session(self):
        store = SessionStore()
        with pytest.raises(UnknownSessionError):
            store.close("nope")

    def test_close_all(self):
        store = SessionStore()
        sessions = [self._open(store) for _ in range(3)]
        store.close_all()
        assert len(store) == 0
        assert all(s.closed for s in sessions)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionStore(max_sessions=0)
