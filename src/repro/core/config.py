"""Configuration for the fill insertion framework.

Collects every tunable the paper names — λ (Alg. 1 over-generation),
γ (Eqn. (8) quality weight), η (Eqn. (9a) overlay weight) — plus the
engineering knobs of the iterative sizing loop (§3.3.2): the number of
alternating horizontal/vertical passes, the per-iteration trust-region
step, and which LP backend solves each pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional

__all__ = ["FillConfig"]

_SOLVERS = ("mcf-ssp", "lp")
_BACKENDS = ("process", "serial")


@dataclass(frozen=True)
class FillConfig:
    """Knobs of the fill insertion flow (Fig. 3).

    Parameters
    ----------
    lambda_factor:
        λ of Alg. 1 — candidate fills are generated until the window
        density reaches ``λ · td``.  Must be ≥ 1: candidates are an
        upper bound the sizing stage only shrinks.
    gamma:
        γ of Eqn. (8) — weight of the area term in the candidate
        quality score.  The paper uses 1.
    eta:
        η of Eqn. (9a) — weight of overlay against density gap in the
        sizing objective.  The paper uses 1.
    td_step:
        Grid-search resolution for Case II target-density planning
        (§3.1: "search all combinations ... with small steps").
    sizing_iterations:
        Alternating horizontal/vertical LP rounds (§3.3.2).  Each round
        runs one horizontal and one vertical pass.
    sizing_step:
        Trust-region bound per edge per pass, in dbu ("variables are
        bounded to a certain range"); ``None`` derives it from the DRC
        maximum fill size.
    solver:
        ``"mcf-ssp"`` (dual min-cost flow via successive shortest paths,
        the paper's fast path) or ``"lp"`` (scipy HiGHS — the §3.3.2
        reference the dual-MCF path is checked against).
    window_margin:
        Inset applied to each window when extracting fill regions so
        fills in adjacent windows keep legal spacing across window
        boundaries; ``None`` derives ``ceil(sm / 2)`` from the rules.
    stagger_even_layers:
        Offset even layers' candidate grids by half a pitch so fills on
        adjacent layers interleave instead of stacking (the Fig. 4(b)
        zero-overlay arrangement).
    case1_steering:
        When a window's doubly-free region (Region 3 of Figs. 4/5) can
        host both layers' density gaps, shape odd-layer candidates
        inside it (Alg. 1 Case I).  Disable to measure the overlay cost
        of ignoring the neighbour layers during candidate generation.
    workers:
        Worker count for the sharded engine stages: density analysis
        (sharded over layers, which are independent by construction)
        and candidate generation and sizing (sharded over windows,
        likewise independent).  ``1`` (the default) runs serially and
        is bit-identical to the pre-parallel engine; ``0`` means one
        worker per available core; any ``N > 1`` shards the work list
        over ``N`` workers and merges deterministically, so the
        output is identical for every worker count.
    parallel:
        Execution backend used when ``workers != 1``: ``"process"``
        (a process pool — the fast path for the pure-Python shard
        bodies) or ``"serial"`` (shard and merge without any pool —
        the reference the determinism tests compare against).
    sanitize:
        Arm the runtime shard sanitizer: pickle-digest the shared state
        around every shard worker and fail loudly
        (:class:`repro.parallel.ShardMutationError`) if a worker
        mutates it.  ``None`` (the default) defers to
        ``REPRO_SANITIZE=shard`` in the environment; ``False`` forces
        it off.  Costs one pickle round per shard when armed, nothing
        when off.
    """

    lambda_factor: float = 1.1
    gamma: float = 1.0
    eta: float = 1.0
    td_step: float = 0.02
    sizing_iterations: int = 3
    sizing_step: Optional[int] = None
    solver: str = "mcf-ssp"
    window_margin: Optional[int] = None
    stagger_even_layers: bool = True
    case1_steering: bool = True
    workers: int = 1
    parallel: str = "process"
    sanitize: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.lambda_factor < 1.0:
            raise ValueError("lambda_factor must be >= 1 (Alg. 1: λ ≥ 1)")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if not (0 < self.td_step <= 0.5):
            raise ValueError("td_step must lie in (0, 0.5]")
        if self.sizing_iterations < 0:
            raise ValueError("sizing_iterations cannot be negative")
        if self.sizing_step is not None and self.sizing_step < 1:
            raise ValueError("sizing_step must be at least 1 dbu")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}")
        if self.window_margin is not None and self.window_margin < 0:
            raise ValueError("window_margin cannot be negative")
        if self.workers < 0:
            raise ValueError("workers cannot be negative (0 means one per core)")
        if self.parallel not in _BACKENDS:
            raise ValueError(f"parallel must be one of {_BACKENDS}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "FillConfig":
        """Build a config from a plain dict (a JSON request body).

        Unknown keys raise ``ValueError`` — a misspelled knob in a
        service request must fail the request, not silently run with
        defaults.  Values pass through ``__post_init__`` validation
        exactly like keyword construction.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown config keys {unknown} (known: {sorted(known)})"
            )
        return cls(**dict(mapping))

    def effective_margin(self, min_spacing: int) -> int:
        """Window-edge inset: explicit value or ``ceil(sm / 2)``."""
        if self.window_margin is not None:
            return self.window_margin
        return -(-min_spacing // 2)

    def effective_step(self, max_fill_width: int, max_fill_height: int) -> int:
        """Trust-region step: explicit value or a quarter of the fill size."""
        if self.sizing_step is not None:
            return self.sizing_step
        return max(2, min(max_fill_width, max_fill_height) // 4)

    def effective_workers(self) -> int:
        """Resolved worker count: ``0`` maps to one per available core.

        Delegates to :func:`repro.parallel.resolve_workers` so the
        config, CLI, and executor share one resolution rule (imported
        lazily: this module must stay importable without pulling in the
        execution layer).
        """
        from ..parallel import resolve_workers

        return resolve_workers(self.workers)
