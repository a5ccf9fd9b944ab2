"""Deterministic contiguous partition of an ordered work list.

The engine's work list is the window columns in grid order (windows
are column-major, the Eqn. (1) order).  Bands and the parts a band is
run in must be *contiguous* runs of that order: concatenating their
results then equals the serial result exactly, which is what makes
``workers=N`` and any band count bit-identical to one serial pass.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["shard_bounds"]


def shard_bounds(total: int, num_shards: int) -> List[Tuple[int, int]]:
    """Half-open ``[start, end)`` index ranges of contiguous shards.

    The one partition rule of the engine: it cuts the die's window
    columns into bands (:class:`repro.layout.BandPlan`) and a band's
    columns into the parts its stages run in
    (:meth:`repro.core.DummyFillEngine.sweep`).  Sizes differ by at
    most one, the first ``total % num_shards`` shards get the extra
    item, ranges preserve order and tile ``[0, total)`` exactly.
    Empty ranges are never returned; fewer items than shards yields
    one range per item.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if total == 0:
        return []
    shards = min(num_shards, total)
    base, extra = divmod(total, shards)
    out: List[Tuple[int, int]] = []
    start = 0
    for k in range(shards):
        size = base + (1 if k < extra else 0)
        out.append((start, start + size))
        start += size
    return out

