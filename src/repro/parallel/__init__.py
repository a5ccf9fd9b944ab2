"""``repro.parallel`` — sharded parallel execution.

The fixed dissection makes windows independent: density analysis
(§3.1 preliminaries), candidate generation (Alg. 1, §3.2) and fill
sizing (§3.3) read nothing across a window boundary beyond a fixed
halo.  So a run of whole window columns is a complete unit of work,
and the engine parallelizes the one way it already streams: it cuts
the ordered column list into contiguous runs, runs each on a worker,
and merges the results back in order.  This package is that execution
layer:

* :func:`~repro.parallel.shard.shard_bounds` — the deterministic
  contiguous partition that cuts the die into bands and a band into
  parts,
* :func:`~repro.parallel.executor.run_sharded` — run a picklable
  ``fn(shared, shard)`` over every shard on a process pool (or
  inline, per the backend), returning shard results in shard order.
  Its one caller is the engine's band sweep
  (:meth:`repro.core.DummyFillEngine.sweep`).

Workers capture their own :mod:`repro.obs` spans and metrics on a
fresh tracer/registry, ship them back with the shard result, and
:func:`run_sharded` grafts them into the parent span tree
(:func:`repro.obs.adopt`) and registry
(:meth:`~repro.obs.MetricsRegistry.merge_from`) in shard order — so
``stage_seconds``, run records and ``repro trace`` see one
deterministic tree regardless of worker count.

Determinism contract: for a pure ``fn``, the merged output of
``workers=N`` is identical for every ``N`` (including the serial
backend), because shards partition the ordered work list contiguously
and results merge in shard order.  See ``docs/PERFORMANCE.md``.

The *shard sanitizer* (``REPRO_SANITIZE=shard``) enforces the
pure-worker half of that contract at runtime: it pickle-digests the
shared state around every shard and raises
:class:`ShardMutationError` on any change — the dynamic counterpart
to the static REP009 rule.
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
from .shard import shard_bounds

__all__ = [
    "BACKENDS",
    "ParallelConfigError",
    "ShardMutationError",
    "ShardOutcome",
    "resolve_workers",
    "run_sharded",
    "sanitize_enabled",
    "shard_bounds",
]
