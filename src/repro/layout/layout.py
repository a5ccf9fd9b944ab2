"""Multi-layer layout container.

The top-level input/output object of the framework: a die area, a stack
of :class:`~repro.layout.layer.Layer` objects, and the DRC rule deck the
fills must obey.  Adjacent layer pairs ``(l, l+1)`` define the overlay
relation of paper §2.1.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..geometry import Rect
from .drc import DrcRules, DrcViolation, check_fills
from .layer import Layer

__all__ = ["Layout"]


class Layout:
    """A die with a stack of metal layers.

    Layers are created on demand with :meth:`layer`; numbering starts at
    1 and overlay is evaluated between consecutive numbers, matching
    Alg. 1 and Fig. 2(a).
    """

    def __init__(self, die: Rect, num_layers: int, rules: Optional[DrcRules] = None,
                 name: str = "layout"):
        if num_layers < 1:
            raise ValueError("a layout needs at least one layer")
        self.die = die
        self.name = name
        self.rules = rules if rules is not None else DrcRules()
        self._layers: Dict[int, Layer] = {
            n: Layer(n) for n in range(1, num_layers + 1)
        }

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self._layers)

    @property
    def layer_numbers(self) -> List[int]:
        return sorted(self._layers)

    @property
    def layers(self) -> List[Layer]:
        """Layers in stack order (bottom first)."""
        return [self._layers[n] for n in self.layer_numbers]

    def layer(self, number: int) -> Layer:
        """The layer with the given number (1-based)."""
        try:
            return self._layers[number]
        except KeyError:
            raise KeyError(
                f"layer {number} not in layout (has {self.layer_numbers})"
            ) from None

    def adjacent_pairs(self) -> Iterator[Tuple[Layer, Layer]]:
        """Consecutive layer pairs ``(l, l+1)`` — the overlay relation."""
        numbers = self.layer_numbers
        for lo, hi in zip(numbers, numbers[1:]):
            if hi == lo + 1:
                yield self._layers[lo], self._layers[hi]

    # ------------------------------------------------------------------
    @property
    def num_wires(self) -> int:
        return sum(layer.num_wires for layer in self._layers.values())

    @property
    def num_fills(self) -> int:
        return sum(layer.num_fills for layer in self._layers.values())

    @property
    def num_shapes(self) -> int:
        return self.num_wires + self.num_fills

    def clear_fills(self) -> None:
        """Strip all fills from every layer."""
        for layer in self._layers.values():
            layer.clear_fills()

    def validate_wires_in_die(self) -> List[Rect]:
        """Wires escaping the die area (should be empty for sane input)."""
        out = []
        for layer in self._layers.values():
            for w in layer.wires:
                if not self.die.contains(w):
                    out.append(w)
        return out

    def check_drc(self) -> List[DrcViolation]:
        """DRC-check the fills on every layer against the rule deck."""
        violations: List[DrcViolation] = []
        for layer in self.layers:
            violations.extend(check_fills(layer.fills, layer.wires, self.rules))
        return violations

    def copy_without_fills(self) -> "Layout":
        """A fresh layout with the same die, rules and wires, no fills."""
        out = Layout(self.die, self.num_layers, self.rules, name=self.name)
        for n in self.layer_numbers:
            out.layer(n).add_wires(self._layers[n].wires)
            out.layer(n).name = self._layers[n].name
        return out

    def copy(self) -> "Layout":
        """A fresh, independent layout with the same shapes.

        Wires and fills keep their per-layer order, so derived state
        (spatial indexes, density analyses, GDSII bytes) of the copy is
        identical to the original's.  Rects are immutable; only the
        containers are duplicated.
        """
        out = self.copy_without_fills()
        for n in self.layer_numbers:
            out.layer(n).add_fills(self._layers[n].fills)
        return out

    def __repr__(self) -> str:
        return (
            f"Layout({self.name!r}, die={self.die}, layers={self.num_layers}, "
            f"wires={self.num_wires}, fills={self.num_fills})"
        )
