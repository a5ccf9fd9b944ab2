"""Property-based tests on the sizing invariants (§3.3).

Random window instances (candidate grids, wires, targets) must always
satisfy the structural guarantees the engine relies on:

* fills only shrink (each output fill sits inside its candidate),
* the output is DRC-clean,
* total fill area never exceeds the candidate area,
* the pass is deterministic,
* both LP backends reach the same optimum on every pass's LP.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FillConfig, sizing
from repro.core.sizing import size_window
from repro.geometry import Rect, boxes
from repro.layout import DrcRules, check_fills
from repro.netflow import LPInfeasibleError, PairLP, solve_dual_mcf, solve_linprog

from ..netflow.pair_oracle import as_differential


def _box(rects):
    """The rects as the int64 box array ``check_fills`` takes."""
    return boxes(rects, len(rects))


RULES = DrcRules(
    min_spacing=10,
    min_width=10,
    min_area=200,
    max_fill_width=80,
    max_fill_height=80,
)
WINDOW = Rect(0, 0, 400, 400)


@st.composite
def window_instances(draw):
    """A random sizing instance: candidates on 1-2 layers plus wires."""
    layers = draw(st.integers(min_value=1, max_value=2))
    candidates = {}
    positions = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    for layer in range(1, layers + 1):
        rects = []
        for gx, gy in positions:
            if draw(st.booleans()):
                continue
            w = draw(st.integers(min_value=20, max_value=80))
            h = draw(st.integers(min_value=20, max_value=80))
            x = gx * 100
            y = gy * 100
            rects.append(Rect(x, y, x + w, y + h))
        candidates[layer] = rects
    total = sum(r.area for rects in candidates.values() for r in rects)
    fraction = draw(st.floats(min_value=0.0, max_value=1.2))
    targets = {layer: fraction * total / max(1, len(candidates))
               for layer in candidates}
    wires = {}
    for layer in range(1, layers + 1):
        adjacent = layer + 1 if layer + 1 <= layers else layer - 1
        if adjacent >= 1 and draw(st.booleans()):
            wx = draw(st.integers(min_value=0, max_value=300))
            wires[adjacent] = [Rect(wx, 0, wx + 60, 400)]
    for layer in range(1, layers + 1):
        wires.setdefault(layer, [])
    return candidates, wires, targets


SOLVERS = {"mcf-ssp": solve_dual_mcf, "lp": solve_linprog}


def _optimum(solve, lp):
    program = as_differential(lp) if isinstance(lp, PairLP) else lp
    try:
        return program.objective(list(solve(program).x))
    except LPInfeasibleError:
        return None


def _recording(backend, optima):
    """``backend``, recording each LP's optimum under both backends.

    The dual-MCF entry point also receives the closed-form batches of
    one-fill LPs (a :class:`PairLP`); the LP backend solves each as the
    equivalent :class:`~repro.netflow.DifferentialLP`.
    """

    def solve(lp):
        optima.append(tuple(_optimum(other, lp) for other in SOLVERS.values()))
        return backend(lp)

    return solve


class TestSizingInvariants:
    @given(window_instances())
    @settings(max_examples=40, deadline=None)
    def test_shrink_only(self, instance):
        candidates, wires, targets = instance
        sized, _ = size_window(
            WINDOW, candidates, wires, targets, RULES, FillConfig()
        )
        for layer, fills in sized.items():
            for fill in fills:
                hosts = [c for c in candidates[layer] if c.contains(fill)]
                assert hosts, f"{fill} is not inside any candidate"

    @given(window_instances())
    @settings(max_examples=40, deadline=None)
    def test_drc_clean(self, instance):
        candidates, wires, targets = instance
        sized, _ = size_window(
            WINDOW, candidates, wires, targets, RULES, FillConfig()
        )
        for layer, fills in sized.items():
            assert check_fills(_box(fills), _box([]), RULES) == []

    @given(window_instances())
    @settings(max_examples=30, deadline=None)
    def test_area_never_exceeds_candidates(self, instance):
        candidates, wires, targets = instance
        sized, _ = size_window(
            WINDOW, candidates, wires, targets, RULES, FillConfig()
        )
        for layer, fills in sized.items():
            cand_area = sum(c.area for c in candidates[layer])
            assert sum(f.area for f in fills) <= cand_area

    @given(window_instances())
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, instance):
        candidates, wires, targets = instance
        a, _ = size_window(WINDOW, candidates, wires, targets, RULES, FillConfig())
        b, _ = size_window(WINDOW, candidates, wires, targets, RULES, FillConfig())
        assert a == b

    @given(window_instances())
    @example(
        (
            {
                1: [Rect(0, 0, 20, 20), Rect(0, 100, 41, 121), Rect(100, 0, 120, 20)],
                2: [Rect(100, 0, 120, 28)],
            },
            {1: [Rect(42, 0, 102, 400)], 2: []},
            {1: 555.25, 2: 555.25},
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_solver_backends_equivalent_objective(self, instance):
        # Both backends solve each pass exactly, so each pass's LP has
        # one optimal objective under either.  An LP can have several
        # optimal points, and the two backends may pick different ones
        # (the pinned example does so on its first pass), after which
        # their later passes and final areas diverge.  So each pass's
        # LP is solved by both, along either backend's own trajectory.
        candidates, wires, targets = instance
        for name in SOLVERS:
            optima = []
            with mock.patch.object(
                sizing, "solve_dual_mcf", _recording(solve_dual_mcf, optima)
            ), mock.patch.object(
                sizing, "solve_linprog", _recording(solve_linprog, optima)
            ):
                size_window(
                    WINDOW, candidates, wires, targets, RULES, FillConfig(solver=name)
                )
            for ssp, lp in optima:
                assert ssp == lp
