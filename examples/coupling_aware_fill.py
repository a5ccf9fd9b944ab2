#!/usr/bin/env python3
"""Coupling-aware fill around a timing-critical bus (paper §2.1, Figs. 4/5).

The scenario the paper's overlay objective protects: a bus of long
parallel wires on metal-2 whose delay is sensitive to fill-induced
coupling capacitance.  Dummy fill inserted directly above/below the bus
couples to it; an overlay-aware engine steers fill into the region free
on both layers instead.

The script fills the same layout twice — with the overlay-blind greedy
max-fill baseline (:func:`repro.baselines.greedy_fill`) and with the
overlay-aware engine (paper settings) — and reports the overlay area
touching the bus and the resulting density uniformity.

Run:  python examples/coupling_aware_fill.py
"""

from repro import DrcRules, FillConfig, Layout, Rect, WindowGrid, insert_fills
from repro.baselines import greedy_fill
from repro.density import compute_metrics, metal_density_map
from repro.geometry import intersection_area


def build_bus_layout():
    """Metal-1/2/3 with a 16-bit horizontal bus crossing metal 2."""
    rules = DrcRules(
        min_spacing=10,
        min_width=10,
        min_area=400,
        max_fill_width=120,
        max_fill_height=120,
    )
    layout = Layout(Rect(0, 0, 2400, 2400), num_layers=3, rules=rules, name="bus")
    # The critical bus: 16 wires, width 20, pitch 60, spanning the die.
    bus = []
    for k in range(16):
        y = 1000 + k * 60
        wire = Rect(100, y, 2300, y + 20)
        layout.layer(2).add_wire(wire)
        bus.append(wire)
    # Background logic on metals 1 and 3 away from the bus shadow.
    import random

    rng = random.Random(7)
    for number in (1, 3):
        for _ in range(140):
            x, y = rng.randrange(0, 2300), rng.randrange(0, 2350)
            layout.layer(number).add_wire(
                Rect(x, y, min(2400, x + rng.randrange(40, 160)), min(2400, y + 40))
            )
    return layout, bus


def bus_coupling(layout, bus):
    """Fill overlay over the bus wires from the layers above and below."""
    fills = layout.layer(1).fills + layout.layer(3).fills
    return intersection_area(fills, bus)


def run(fill, label):
    layout, bus = build_bus_layout()
    grid = WindowGrid(layout.die, 6, 6)
    report = fill(layout, grid)
    coupling = bus_coupling(layout, bus)
    sigma = sum(
        compute_metrics(metal_density_map(layer, grid)).sigma
        for layer in layout.layers
    )
    bus_area = sum(w.area for w in bus)
    print(
        f"{label:<18} fills={report.num_fills:<6} "
        f"bus overlay={coupling:>8} dbu^2 ({100 * coupling / bus_area:5.1f}% "
        f"of bus area)  sigma_sum={sigma:.4f}"
    )
    return coupling


def main():
    print("fill strategies around a 16-bit metal-2 bus:\n")
    blind = run(greedy_fill, "overlay-blind")
    aware = run(
        lambda layout, grid: insert_fills(layout, grid, FillConfig(eta=1.0)),
        "overlay-aware",
    )
    if aware < blind:
        saved = 100 * (1 - aware / max(blind, 1))
        print(
            f"\noverlay-aware fill couples {saved:.0f}% less metal to the "
            "bus (quality score Eqn. (8) + sizing objective Eqn. (9))"
        )


if __name__ == "__main__":
    main()
