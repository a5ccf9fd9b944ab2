"""Hierarchical tracing spans.

A *span* is one timed region of the flow — an engine stage, a baseline
run, one ECO patch.  Spans nest: entering a span while another is open
makes it a child, so a run record reconstructs the stage tree exactly
as the code executed it.  Each span carries

* its wall-clock duration (``seconds``),
* an outcome (``ok`` or the exception type that escaped it),
* counters and attributes attached mid-span (candidate counts, LP
  solves, windows touched — anything worth reading next to the time).

Usage::

    from repro import obs

    with obs.span("candidates") as sp:
        ...
        obs.count("candidates.generated", n)   # attaches to `sp`
    print(sp.seconds)

    @obs.span("score")                          # decorator form
    def score(...): ...

Spans always work: with no :func:`repro.obs.record.record_run` active
they accumulate on a process-wide default tracer (bounded, oldest
roots dropped), so instrumented library code needs no setup and pays
one ``perf_counter`` call per span.  The tracer is held in a
:class:`contextvars.ContextVar` and the open-span stack is
thread-local, so concurrent runs do not interleave their trees.
"""

from __future__ import annotations

import copy
import functools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "set_tracer",
    "span",
    "count",
    "annotate",
    "current_span",
    "current_offset",
    "adopt",
]

_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass
class Span:
    """One timed, possibly nested region of a run."""

    name: str
    seconds: float = 0.0
    status: str = "open"
    error: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    #: start offset from the tracer epoch, for ordering in the record
    start_offset: float = 0.0

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment a counter attached to this span."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value attributes to this span."""
        self.attrs.update(attrs)

    def child(self, name: str) -> Optional["Span"]:
        """First direct child with the given name, if any."""
        for c in self.children:
            if c.name == name:
                return c
        return None

    def walk(self, depth: int = 0) -> Iterator["tuple[int, Span]"]:
        """Pre-order traversal yielding ``(depth, span)`` pairs."""
        yield depth, self
        for c in self.children:
            yield from c.walk(depth + 1)

    def total_counters(self) -> Dict[str, float]:
        """Counters of this span and every descendant, summed by name."""
        out: Dict[str, float] = {}
        for _, sp in self.walk():
            for k, v in sp.counters.items():
                out[k] = out.get(k, 0.0) + v
        return out

    def as_dict(self, depth: int = 0) -> Dict[str, Any]:
        """Flat JSON form of this span (children serialized separately)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "status": self.status,
            "depth": depth,
            "start_offset": self.start_offset,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Tracer:
    """Collects a forest of spans for one process or one recorded run.

    ``max_roots`` bounds the default process-wide tracer so
    long-running services do not accumulate history without bound;
    a :func:`~repro.obs.record.record_run` installs a fresh unbounded
    tracer for the duration of the run.
    """

    def __init__(self, max_roots: Optional[int] = None):
        self.roots: List[Span] = []
        self.max_roots = max_roots
        self._epoch = time.perf_counter()
        #: open-span stacks keyed by thread ident.  A dict (not
        #: ``threading.local``) so the sampling profiler can read
        #: another thread's stack; each thread only mutates its own
        #: entry, and dict get/set are atomic under the GIL.
        self._stacks: Dict[int, List[Span]] = {}
        self._lock = threading.Lock()

    # -- open-span stack (per thread) ----------------------------------
    @property
    def _stack(self) -> List[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = []
            self._stacks[ident] = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack
        return stack[-1] if stack else None

    def stack_names(self, ident: Optional[int] = None) -> List[str]:
        """Names of the open spans on one thread's stack, outermost first.

        Defaults to the calling thread.  Safe to call on *another*
        thread's ident (the profiler does): the returned list is a
        snapshot copied under the GIL; a concurrent push/pop can at
        worst make it one frame stale.
        """
        if ident is None:
            ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if not stack:
            return []
        return [sp.name for sp in list(stack)]

    def start(self, name: str) -> Span:
        sp = Span(name=name, start_offset=time.perf_counter() - self._epoch)
        parent = self.current()
        if parent is not None:
            parent.children.append(sp)
        else:
            with self._lock:
                self.roots.append(sp)
                if self.max_roots is not None and len(self.roots) > self.max_roots:
                    del self.roots[: len(self.roots) - self.max_roots]
        self._stack.append(sp)
        sp._t0 = time.perf_counter()  # type: ignore[attr-defined]
        return sp

    def finish(self, sp: Span, exc_type: Optional[type] = None) -> None:
        sp.seconds += time.perf_counter() - sp._t0  # type: ignore[attr-defined]
        sp.status = "ok" if exc_type is None else "error"
        if exc_type is not None:
            sp.error = exc_type.__name__
        stack = self._stack
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # unbalanced exit: drop it and everything above
            del stack[stack.index(sp) :]
        if not stack:
            # drop the empty entry so short-lived threads (service
            # workers, shard pools) don't grow the dict without bound
            self._stacks.pop(threading.get_ident(), None)


#: process-wide fallback tracer; record_run() swaps in a fresh one
_DEFAULT_TRACER = Tracer(max_roots=256)
_TRACER: ContextVar[Tracer] = ContextVar("repro_obs_tracer", default=_DEFAULT_TRACER)


def active_tracer() -> Tracer:
    """The tracer spans currently attach to."""
    return _TRACER.get()


def set_tracer(tracer: Optional[Tracer]) -> Callable[[], None]:
    """Install ``tracer`` (or the process default when ``None``).

    Returns a zero-argument restore function undoing the installation.
    """
    token = _TRACER.set(tracer if tracer is not None else _DEFAULT_TRACER)
    return lambda: _TRACER.reset(token)


class span:
    """Context manager *and* decorator opening a span on the active tracer.

    As a context manager it yields the :class:`Span`, which stays
    readable (``.seconds``, ``.counters``) after the block exits.  As a
    decorator it wraps the function body in a span named after the
    argument (or the function's qualified name when omitted).
    Exceptions are tagged on the span and re-raised.
    """

    def __init__(self, name: Optional[str] = None, **attrs: Any):
        self.name = name
        self.attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        if self.name is None:
            raise ValueError("span used as a context manager needs a name")
        self._span = active_tracer().start(self.name)
        if self.attrs:
            self._span.annotate(**self.attrs)
        return self._span

    def __exit__(self, exc_type: Optional[type], exc: object, tb: object) -> None:
        assert self._span is not None
        active_tracer().finish(self._span, exc_type)
        self._span = None

    def __call__(self, fn: _F) -> _F:
        name = self.name if self.name is not None else fn.__qualname__
        attrs = self.attrs

        @functools.wraps(fn)
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            with span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapped  # type: ignore[return-value]


def current_span() -> Optional[Span]:
    """The innermost open span on the active tracer, if any."""
    return active_tracer().current()


def count(name: str, value: float = 1.0) -> None:
    """Increment a counter on the innermost open span (no-op outside one)."""
    sp = current_span()
    if sp is not None:
        sp.count(name, value)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span (no-op outside one)."""
    sp = current_span()
    if sp is not None:
        sp.annotate(**attrs)


def current_offset(tracer: Optional[Tracer] = None) -> float:
    """Seconds elapsed since a tracer's epoch (the active one if omitted).

    The value ``start_offset`` of a span opened right now would get;
    used to rebase externally captured span trees on adoption, and by
    the fill service to time a request's wait for its session's turn
    and its own uptime against the service tracer.
    """
    if tracer is None:
        tracer = active_tracer()
    return time.perf_counter() - tracer._epoch


def adopt(spans: List[Span], *, rebase: bool = True) -> None:
    """Graft externally captured spans into the active tracer's tree.

    ``spans`` are finished root spans recorded on another tracer —
    typically in a :mod:`repro.parallel` worker process — whose whole
    subtrees become children of the innermost open span (or new roots
    when no span is open).  With ``rebase`` (the default) every
    ``start_offset`` in the adopted subtrees is shifted by the current
    tracer offset, so adopted spans sort after everything already
    recorded instead of clustering at the worker's epoch.

    The subtrees are *copied* before rebasing: the caller's span
    objects are never mutated, so adopting the same list twice (a
    retried merge) rebases each graft from the pristine offsets
    instead of double-shifting them, and the grafted copies never
    alias spans the caller may still hold.

    Callers are responsible for adopting in a deterministic order:
    the run-record span list follows child order exactly.
    """
    grafted = [copy.deepcopy(root) for root in spans]
    base = current_offset() if rebase else 0.0
    if base:
        for root in grafted:
            for _, sp in root.walk():
                sp.start_offset += base
    parent = current_span()
    if parent is not None:
        parent.children.extend(grafted)
        return
    tracer = active_tracer()
    with tracer._lock:
        tracer.roots.extend(grafted)
        if tracer.max_roots is not None and len(tracer.roots) > tracer.max_roots:
            del tracer.roots[: len(tracer.roots) - tracer.max_roots]
