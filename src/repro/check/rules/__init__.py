"""The REP rule pack: codebase-aware lint rules for the fill engine.

The pack is organised as a package (see ``docs/STATIC_ANALYSIS.md``
for the full catalogue and rationale):

* :mod:`~repro.check.rules.base` — the rule framework:
  :class:`Rule`, :class:`ModuleContext`, the registry.
* :mod:`~repro.check.rules.context` — :class:`AnalysisContext`, the
  module-level dataflow view (symbol table, import resolution,
  ``run_sharded`` call-site tracking) behind the REP008+ rules.
* :mod:`~repro.check.rules.invariants` — REP001–REP007: integer-dbu
  discipline, DRC provenance, mutable defaults, exception hygiene,
  float equality, ``__all__`` consistency, one clock.
* :mod:`~repro.check.rules.parallel_safety` — REP008–REP010: one
  executor, shard-worker purity, picklability of dispatched state.
* :mod:`~repro.check.rules.determinism` — REP011–REP012: ordered
  iteration in deterministic paths, float merge order across shards.
* :mod:`~repro.check.rules.observability` — REP014: one diagnostics
  channel (no raw ``print()``/``logging.basicConfig``/
  ``signal.setitimer`` outside ``repro/obs`` and CLI modules).
* :mod:`~repro.check.rules.vectorization` — REP015: no per-window
  Python loops under ``repro/density/`` without a waiver —
  per-window quantities belong on the raster passes.

Rules are registered in :data:`RULE_REGISTRY` via the
:func:`register` decorator; adding a rule is writing a subclass of
:class:`Rule` in the fitting module (or a new one, imported here) and
decorating it.
"""

from .base import (
    RULE_REGISTRY,
    ModuleContext,
    Rule,
    all_rule_codes,
    register,
    select_rules,
)
from .context import AnalysisContext, ShardedCall
from .determinism import ShardFloatMergeRule, UnorderedIterationRule
from .invariants import (
    DrcLiteralRule,
    ExceptionHygieneRule,
    ExportConsistencyRule,
    FloatEqualityRule,
    IntegerCoordinateRule,
    MutableDefaultRule,
    RawTimerRule,
)
from .observability import DiagnosticChannelRule
from .parallel_safety import (
    RawExecutorRule,
    ThreadOwnershipRule,
    ShardPicklabilityRule,
    ShardWorkerPurityRule,
)
from .vectorization import PerWindowLoopRule

__all__ = [
    "ModuleContext",
    "AnalysisContext",
    "ShardedCall",
    "Rule",
    "register",
    "RULE_REGISTRY",
    "all_rule_codes",
    "select_rules",
    "IntegerCoordinateRule",
    "DrcLiteralRule",
    "MutableDefaultRule",
    "ExceptionHygieneRule",
    "FloatEqualityRule",
    "ExportConsistencyRule",
    "RawTimerRule",
    "RawExecutorRule",
    "ThreadOwnershipRule",
    "ShardWorkerPurityRule",
    "ShardPicklabilityRule",
    "UnorderedIterationRule",
    "ShardFloatMergeRule",
    "DiagnosticChannelRule",
    "PerWindowLoopRule",
]
