"""``repro.check`` — codebase-aware static analysis for the fill engine.

An AST-based lint pass enforcing the invariants the paper's algorithms
assume but never state: integer database-unit coordinates, DRC
constants flowing from the rule deck, densities compared with
tolerances, exceptions failing loudly in solver paths, explicit module
export surfaces, and — via the dataflow-aware REP008–REP012 pack —
the parallel-safety and determinism contract of the sharded engine
stages.  Run it with::

    python -m repro.check src/

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the paper
sections each rule is anchored to.
"""

from .findings import Finding, Severity, render_github, render_json, render_text
from .rules import (
    RULE_REGISTRY,
    AnalysisContext,
    Rule,
    all_rule_codes,
    register,
    select_rules,
)
from .runner import (
    AnalysisResult,
    analyze_file,
    analyze_paths,
    analyze_source,
    collect_noqa,
)

__all__ = [
    "Finding",
    "Severity",
    "render_github",
    "render_json",
    "render_text",
    "RULE_REGISTRY",
    "AnalysisContext",
    "Rule",
    "all_rule_codes",
    "register",
    "select_rules",
    "AnalysisResult",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "collect_noqa",
]
