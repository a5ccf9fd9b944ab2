"""Sharded execution with worker-side observability capture.

:func:`run_sharded` is the one entry point: it runs a picklable
``fn(shared, shard)`` over every shard and returns the results in
shard order.  Two backends:

* ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor`;
  ``shared`` is handed to each worker **once** (pool initializer), so
  large read-only state (a band's layout and stage inputs) is not
  re-sent per shard.  Falls back to the serial backend when the pool cannot start
  (restricted sandboxes without working semaphores).
* ``"serial"`` — runs shards inline, in order.  Same sharding, same
  span/metric capture and merge as the pool — the reference the
  determinism tests compare the pool against, and the fallback when
  the pool cannot start.

Every shard executes under a fresh :class:`repro.obs.Tracer` and
:class:`repro.obs.MetricsRegistry`, wrapped in one ``<label>[k]`` span
annotated with the shard size.  The captured span roots and the
registry's instruments travel back with the return value
(:class:`ShardOutcome`) and are merged into the caller's tracer and
registry *in shard order* — shard k's spans always precede shard
k+1's, whichever finished first — so run records stay deterministic.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.metrics import Instrument, MetricsRegistry, set_registry
from ..obs.profile import ProfileCollector, SamplingProfiler, active_collector
from ..obs.spans import Span, Tracer, set_tracer

__all__ = [
    "BACKENDS",
    "ParallelConfigError",
    "ShardMutationError",
    "ShardOutcome",
    "resolve_workers",
    "run_sharded",
    "sanitize_enabled",
]

#: recognised execution backends
BACKENDS = ("process", "serial")

#: environment switch for the shard sanitizer (``REPRO_SANITIZE=shard``)
_SANITIZE_ENV = "REPRO_SANITIZE"
_SANITIZE_MODE = "shard"

ShardFn = Callable[[Any, Sequence[Any]], Any]


class ParallelConfigError(ValueError):
    """A parallel knob names an unknown backend or worker count."""


class ShardMutationError(RuntimeError):
    """A shard worker mutated its shared state (sanitizer violation).

    ``run_sharded``'s contract says ``shared`` is read-only: on the
    process backend each worker holds its own copy, so a mutation is
    *silently dropped* there but becomes real cross-shard interference
    on the serial backend — the worst kind of backend-dependent bug.
    The shard sanitizer pickles ``shared`` before and after each shard
    and raises this error on any digest change, on every backend, so
    the mutation is caught where it happens instead of surfacing as a
    bit-identity diff three stages later.
    """


@dataclass
class ShardOutcome:
    """One shard's return value plus its captured observability.

    ``input_digest``/``output_digest`` are sha256 hex digests of the
    pickled shared state and shard result, populated only when the
    shard sanitizer is active (``None`` otherwise, at zero cost).
    """

    index: int
    value: Any
    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Instrument] = field(default_factory=dict)
    input_digest: Optional[str] = None
    output_digest: Optional[str] = None
    #: worker-side folded profiler samples (``stack -> count``);
    #: ``None`` unless the caller had a profile collector armed
    profile: Optional[Dict[str, int]] = None


def resolve_workers(workers: int) -> int:
    """Effective worker count: ``0`` means one per CPU this process may run on.

    The CPUs come from the scheduler affinity mask where the platform
    has one, so a process pinned to one CPU (``taskset``, a container
    cpuset) resolves ``0`` to 1, not to the host's core count.
    """
    if workers < 0:
        raise ParallelConfigError("workers cannot be negative")
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    return workers


def sanitize_enabled() -> bool:
    """Whether the shard sanitizer is armed: ``REPRO_SANITIZE=shard``.

    The environment is the one switch, so CI arms the sanitizer for a
    whole test run without touching call sites.
    """
    return os.environ.get(_SANITIZE_ENV, "") == _SANITIZE_MODE


def _digest(obj: Any, what: str, label: str, index: int) -> str:
    """sha256 of the pickled object; sanitizer-flavoured error if not picklable."""
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ShardMutationError(
            f"shard sanitizer could not pickle the {what} of {label}[{index}]: "
            f"{exc} (run_sharded requires picklable workers and state; "
            "see REP010)"
        ) from exc
    return hashlib.sha256(payload).hexdigest()


def _execute(
    fn: ShardFn,
    shared: Any,
    index: int,
    shard: Sequence[Any],
    label: str,
    sanitize: bool = False,
    profile_ms: Optional[float] = None,
) -> ShardOutcome:
    """Run one shard under a fresh tracer/registry and capture both.

    ``profile_ms`` arms a worker-local sampling profiler for the
    shard's duration (process backend only — the serial path runs in
    the caller's thread, which the caller's own sampler already covers);
    its folded counts ship back on the outcome for shard-order merge.
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    restore_tracer = set_tracer(tracer)
    restore_registry = set_registry(registry)
    input_digest: Optional[str] = None
    output_digest: Optional[str] = None
    collector: Optional[ProfileCollector] = None
    sampler: Optional[SamplingProfiler] = None
    if profile_ms is not None:
        collector = ProfileCollector(period_ms=profile_ms)
        sampler = SamplingProfiler(collector, tracer=tracer).start()
    try:
        with obs.span(f"{label}[{index}]") as sp:
            sp.annotate(shard=index, items=len(shard))
            if sanitize:
                input_digest = _digest(shared, "shared state", label, index)
            value = fn(shared, shard)
            if sanitize:
                after = _digest(shared, "shared state", label, index)
                output_digest = _digest(value, "result", label, index)
                sp.annotate(input_digest=input_digest, output_digest=output_digest)
                if after != input_digest:
                    raise ShardMutationError(
                        f"shard worker {getattr(fn, '__name__', fn)!r} mutated "
                        f"its shared state in {label}[{index}]: pickle digest "
                        f"{input_digest[:12]} -> {after[:12]}. Shared state is "
                        "read-only by contract (REP009); return per-shard "
                        "results instead of writing through `shared`."
                    )
    finally:
        if sampler is not None:
            sampler.stop()
        restore_registry()
        restore_tracer()
    return ShardOutcome(
        index,
        value,
        tracer.roots,
        registry.instruments(),
        input_digest,
        output_digest,
        collector.folded_snapshot() if collector is not None else None,
    )


# -- process backend ---------------------------------------------------
# The pool initializer parks (fn, shared) in a module global so each
# worker unpickles the shared state once, not once per shard.
_WORKER_FN: ShardFn = None  # type: ignore[assignment]
_WORKER_SHARED: Any = None


def _init_worker(fn: ShardFn, shared: Any) -> None:
    global _WORKER_FN, _WORKER_SHARED
    _WORKER_FN = fn
    _WORKER_SHARED = shared


def _run_in_worker(
    task: Tuple[int, Sequence[Any], str, bool, Optional[float]],
) -> ShardOutcome:
    index, shard, label, sanitize, profile_ms = task
    return _execute(
        _WORKER_FN, _WORKER_SHARED, index, shard, label, sanitize, profile_ms
    )


def _start_pool(fn: ShardFn, shared: Any, workers: int) -> ProcessPoolExecutor:
    """Construct the process pool (the only step allowed to fall back).

    Pool construction is where restricted sandboxes fail — creating the
    call/result queues needs working POSIX semaphores — so it is kept
    separate from running the shards: a failure *here* degrades to the
    serial backend, a failure inside a shard fn is a genuine error and
    propagates.
    """
    context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(fn, shared),
    )


def _map_serial(
    fn: ShardFn,
    shared: Any,
    shards: Sequence[Sequence[Any]],
    label: str,
    sanitize: bool,
) -> List[ShardOutcome]:
    return [
        _execute(fn, shared, k, shard, label, sanitize)
        for k, shard in enumerate(shards)
    ]


def run_sharded(
    fn: ShardFn,
    shared: Any,
    shards: Sequence[Sequence[Any]],
    *,
    workers: int,
    backend: str = "process",
    label: str = "shard",
) -> List[Any]:
    """Run ``fn(shared, shard)`` over every shard; results in shard order.

    ``fn`` must be a module-level (picklable) callable and ``shared``
    read-only picklable state for the process backend.  Worker spans
    and metrics are merged into the caller's active tracer/registry in
    shard order before returning.  ``workers`` is the resolved count
    (see :func:`resolve_workers`); the pool size never exceeds the
    shard count.

    ``REPRO_SANITIZE=shard`` in the environment arms the shard
    sanitizer: each worker pickle-digests ``shared`` before and after
    running and raises :class:`ShardMutationError` on any change,
    recording input/output digests on the shard's span and
    :class:`ShardOutcome`.
    """
    if backend not in BACKENDS:
        raise ParallelConfigError(
            f"unknown parallel backend {backend!r} (expected one of {BACKENDS})"
        )
    if not shards:
        return []
    workers = resolve_workers(workers)
    sanitizing = sanitize_enabled()
    # When a profile collector is armed in this context, pool workers
    # run their own sampler at the same period and ship folded counts
    # back; serial execution stays unprofiled here because it runs in
    # the caller's thread, already covered by the caller's sampler.
    collector = active_collector()
    profile_ms = collector.period_ms if collector is not None else None
    if backend == "process" and workers > 1:
        pool = None
        try:
            pool = _start_pool(fn, shared, min(workers, len(shards)))
        except (OSError, PermissionError):
            # Sandboxes without working POSIX semaphores / fork: degrade
            # to in-process execution rather than failing the run.  Only
            # pool *startup* may fall back — an exception raised by the
            # shard fn itself must propagate, not silently re-run every
            # shard serially and mask the original failure.
            outcomes = _map_serial(fn, shared, shards, label, sanitizing)
        if pool is not None:
            tasks = [
                (k, shard, label, sanitizing, profile_ms)
                for k, shard in enumerate(shards)
            ]
            with pool:
                outcomes = list(pool.map(_run_in_worker, tasks))
    else:
        outcomes = _map_serial(fn, shared, shards, label, sanitizing)
    registry = obs.active_registry()
    prefix = ";".join(obs.active_tracer().stack_names()) or None
    for outcome in outcomes:  # shard order == merge order
        obs.adopt(outcome.spans)
        registry.merge_from(outcome.metrics)
        if collector is not None and outcome.profile:
            # re-root the worker's stacks under the caller's open span
            # path, e.g. "engine.run;candidates;candidates.part[0];..."
            collector.merge_folded(outcome.profile, prefix=prefix)
    return [outcome.value for outcome in outcomes]
