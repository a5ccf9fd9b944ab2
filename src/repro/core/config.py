"""Configuration for the fill insertion framework.

Collects every tunable the paper names — λ (Alg. 1 over-generation),
γ (Eqn. (8) quality weight), η (Eqn. (9a) overlay weight) — plus the
engineering knobs of the iterative sizing loop (§3.3.2): the number of
alternating horizontal/vertical passes and which LP backend solves each
pass.  The per-pass trust-region step and the window-edge inset are
derived from the rule deck (:meth:`FillConfig.effective_step`,
:meth:`FillConfig.effective_margin`).  Case I steering into Region 3
(Alg. 1), the interleaved even-layer grid (Fig. 4(b)) and the planner's
td step (§3.1) are part of the method, not knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

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
    sizing_iterations:
        Alternating horizontal/vertical LP rounds (§3.3.2).  Each round
        runs one horizontal and one vertical pass.
    solver:
        Backend of the sizing passes' Eqn. (14) LPs.  ``"mcf-ssp"``
        solves them through their dual min-cost flow (§3.3.3, the
        paper's fast path): the windows of a column batch whose LP is
        all one-fill components go to one vectorized closed form, and
        a window with spacing constraints builds its own LP for
        successive shortest paths.  ``"lp"`` builds every window's LP
        and solves it with scipy's HiGHS — the §3.3.2 reference the
        dual-MCF path is checked against.  Both give the same optimum
        on every LP; where an LP has several, they may pick different
        ones.
    workers:
        Worker count of the band sweep: density analysis, candidate
        generation and sizing run each band's window columns as
        ``min(workers, columns)`` contiguous parts, which are
        independent under the fixed dissection.  ``1`` (the default)
        runs one part inline; ``0`` means one worker per CPU the
        process may run on; the parts merge in order, so the output
        is identical for every worker count.
    parallel:
        Execution backend used for more than one part: ``"process"``
        (a process pool — the fast path for the pure-Python stage
        bodies) or ``"serial"`` (the same parts and merge without any
        pool — the reference the determinism tests compare against).
    """

    lambda_factor: float = 1.1
    gamma: float = 1.0
    eta: float = 1.0
    sizing_iterations: int = 3
    solver: str = "mcf-ssp"
    workers: int = 1
    parallel: str = "process"

    def __post_init__(self) -> None:
        # A float, bool or string in an integer field is a malformed
        # request (JSON has one number type), not a value to truncate.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.lambda_factor < 1.0:
            raise ValueError("lambda_factor must be >= 1 (Alg. 1: λ ≥ 1)")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.sizing_iterations < 0:
            raise ValueError("sizing_iterations cannot be negative")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}")
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
        """Window-edge inset of the fill regions, ``ceil(sm / 2)``: fills
        in adjacent windows keep legal spacing across window boundaries."""
        return -(-min_spacing // 2)

    def effective_step(self, max_fill_width: int, max_fill_height: int) -> int:
        """Trust-region bound per edge per sizing pass, in dbu ("variables
        are bounded to a certain range"): a quarter of the maximum fill
        size, at least 2."""
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
