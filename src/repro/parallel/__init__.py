"""``repro.parallel`` — sharded parallel execution.

The engine's heavy stages are embarrassingly parallel over an ordered
work list: candidate generation (Alg. 1, §3.2) and fill sizing (§3.3)
iterate the fixed-dissection windows with no cross-window data flow,
and density analysis (§3.1 preliminaries) is per-layer independent.
They all parallelize the same way — *shard the ordered work list*
(window keys in grid order, layers in layer order): split it into
contiguous chunks, run each chunk on a worker, and merge the per-item
results back in list order.  This package is that execution layer:

* :func:`~repro.parallel.shard.shard_items` — deterministic contiguous
  sharding of an ordered work list,
* :func:`~repro.parallel.executor.run_sharded` — run a picklable
  ``fn(shared, shard)`` over every shard on a process pool (or
  inline, per the backend), returning shard results in shard order.

Workers capture their own :mod:`repro.obs` spans and metrics on a
fresh tracer/registry, ship them back with the shard result, and
:func:`run_sharded` grafts them into the parent span tree
(:func:`repro.obs.adopt`) and registry
(:meth:`~repro.obs.MetricsRegistry.merge_from`) in shard order — so
``stage_seconds``, BENCH records and ``repro trace`` see one
deterministic tree regardless of worker count.

Determinism contract: for a pure ``fn``, the merged output of
``workers=N`` is identical for every ``N`` (including the serial
backend), because shards partition the ordered work list contiguously
and results merge in shard order.  See ``docs/PERFORMANCE.md``.

The *shard sanitizer* (``REPRO_SANITIZE=shard``, ``FillConfig.sanitize``
or ``run_sharded(..., sanitize=True)``) enforces the pure-worker half
of that contract at runtime: it pickle-digests the shared state around
every shard and raises :class:`ShardMutationError` on any change —
the dynamic counterpart to the static REP009 rule.
"""

from .executor import (
    BACKENDS,
    ParallelConfigError,
    ShardMutationError,
    ShardOutcome,
    resolve_workers,
    run_sharded,
    sanitize_enabled,
)
from .shard import shard_bounds, shard_items

__all__ = [
    "BACKENDS",
    "ParallelConfigError",
    "ShardMutationError",
    "ShardOutcome",
    "resolve_workers",
    "run_sharded",
    "sanitize_enabled",
    "shard_bounds",
    "shard_items",
]
