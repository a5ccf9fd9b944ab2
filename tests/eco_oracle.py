"""Scalar oracle of the ECO rip-up rule.

:func:`rips_up` decides one fill at a time from the windows its grown
footprint overlaps; :func:`repro.eco.rip_up_mask` decides every row of
a fill box array at once and must agree with it fill for fill.
"""

from typing import Set, Tuple

from repro.geometry import Rect
from repro.layout import WindowGrid

WindowKey = Tuple[int, int]


def rips_up(grid: WindowGrid, affected: Set[WindowKey], fill: Rect) -> bool:
    """The rip-up rule: a fill goes when it touches an affected window.

    Touching is closed-box contact; ``windows_touching`` asks for
    positive overlap, which on integer coordinates is the same test
    once the fill grows by one dbu.
    """
    return any(key in affected for key in grid.windows_touching(fill.expanded(1)))
