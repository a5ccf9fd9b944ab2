"""Persistent fill sessions: layout + caches, loaded once, served many.

A :class:`FillSession` is the unit of state the service keeps between
requests: the layout, its window grid and fill config, and the derived
cache the one-shot CLI rebuilds on every invocation — the global
density analysis.  It depends only on the session's *wires* (analysis
bounds and fill regions never read fills), so it survives any number
of ``fill``/``score``/``drc_audit`` requests and is refreshed
incrementally — never recomputed — by ``eco_delta``.

Concurrency model: a request runs on the thread that received it and
holds the session's *turn* — one lock, taken by
:meth:`FillSession.serving` — while it reads or changes the session,
so requests against one session run one at a time while requests on
*different* sessions run concurrently.  A connection's requests, and a
batch's, run one after another in the order they arrive.

:class:`SessionStore` owns the sessions with LRU eviction: opening a
session beyond capacity closes the least-recently-used one, and a
request still waiting for its turn on it fails with
:class:`SessionClosedError`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..core import DummyFillEngine, FillConfig
from ..core.engine import FillReport
from ..density.analysis import LayerDensity
from ..layout import Layout, WindowGrid

__all__ = [
    "FillSession",
    "SessionStore",
    "SessionClosedError",
    "UnknownSessionError",
]


class SessionClosedError(RuntimeError):
    """The session was closed (or evicted) while the request waited for it."""


class UnknownSessionError(KeyError):
    """No session with the requested id exists."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0] if self.args else ""


class FillSession:
    """One loaded layout plus everything derived from it.

    Mutable state (``layout``, ``analysis``, ``last_report``) must
    only be touched inside :meth:`serving`, which holds the session's
    turn.
    """

    def __init__(
        self,
        session_id: str,
        layout: Layout,
        grid: WindowGrid,
        config: FillConfig,
    ):
        self.id = session_id
        self.layout = layout
        self.grid = grid
        self.config = config
        self.analysis: Optional[Dict[int, LayerDensity]] = None
        self.last_report: Optional[FillReport] = None
        self.requests_served = 0
        self._turn = threading.Lock()
        self._closed = False

    @contextmanager
    def serving(self) -> Iterator[None]:
        """Hold the session's turn for the body: one request at a time.

        Raises :class:`SessionClosedError` once the turn is taken if the
        session was closed or evicted meanwhile.  The turn is released
        on exit, also when the body raises.
        """
        with self._turn:
            if self._closed:
                raise SessionClosedError(f"session {self.id} is closed")
            yield
            self.requests_served += 1

    def close(self) -> None:
        """Mark the session closed; requests waiting for it then fail."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- caches --------------------------------------------------------
    def ensure_caches(self) -> None:
        """Build the density analysis if absent.

        Call inside :meth:`serving`.  The analysis is the engine's own
        (:meth:`~repro.core.DummyFillEngine.analyze`, on the session
        config's workers), so passing the cache back into
        :meth:`~repro.core.DummyFillEngine.run` is bit-identical to
        letting it analyze from scratch.
        """
        if self.analysis is None:
            self.analysis = DummyFillEngine(self.config).analyze(self.layout, self.grid)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary for the ``sessions`` op."""
        layout = self.layout
        return {
            "session": self.id,
            "die": [layout.die.xl, layout.die.yl, layout.die.xh, layout.die.yh],
            "layers": layout.num_layers,
            "wires": layout.num_wires,
            "fills": layout.num_fills,
            "windows": [self.grid.cols, self.grid.rows],
            "requests_served": self.requests_served,
            "cached_analysis": self.analysis is not None,
        }


class SessionStore:
    """Named sessions with bounded capacity and LRU eviction."""

    def __init__(self, max_sessions: int = 8):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, FillSession]" = OrderedDict()
        self._lock = threading.Lock()
        self._opened = 0
        self.evicted = 0

    def open(
        self, layout: Layout, grid: WindowGrid, config: FillConfig
    ) -> FillSession:
        """Create a session; evicts the LRU session when at capacity."""
        with self._lock:
            self._opened += 1
            session = FillSession(f"s{self._opened}", layout, grid, config)
            self._sessions[session.id] = session
            while len(self._sessions) > self.max_sessions:
                _, evictee = self._sessions.popitem(last=False)
                evictee.close()
                self.evicted += 1
            return session

    def get(self, session_id: str) -> FillSession:
        """Look up a session and mark it most-recently-used."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(f"unknown session {session_id!r}")
            self._sessions.move_to_end(session_id)
            return session

    def close(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        session.close()

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.describe() for s in sessions]
