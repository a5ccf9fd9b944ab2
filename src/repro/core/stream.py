"""Out-of-core streaming fill: bounded-memory end-to-end flow.

The in-memory engine (:mod:`repro.core.engine`) loads the whole layout,
so peak RSS grows with die size.  This driver runs the same band sweep
(:meth:`~repro.core.DummyFillEngine.sweep`) without ever materialising
the layout: shapes stream from the GDSII record iterator
(:mod:`repro.gdsii.stream`) into per-band spill files
(:mod:`repro.layout.spill`), :class:`SpillBands` hands the sweep one
band's geometry at a time and parks each band's analysis and
candidates on disk between stages, and the output streams through the
incremental writers (:class:`~repro.gdsii.GdsiiStreamWriter` /
:class:`~repro.oasis.OasisStreamWriter`).

Output parity is exact, not approximate: bands carry a routing halo
equal to the widest query reach of any stage, and band-local insertion
order is the input order restricted to the band, so every band-local
query returns what the global one would.  Windows are visited in grid
order (bands are contiguous column ranges, and the sweep runs a
resident band in contiguous column parts at ``workers > 1``), so the
streamed GDSII and OASIS bytes equal the in-memory path's bytes at any
band and worker count.  The fill DRC is exact as well
(:func:`_band_drc`).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import tempfile
from itertools import chain
from typing import (Any, BinaryIO, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

import numpy as np

from .. import obs
from ..contracts import check_drc_params, check_rect
from ..density.analysis import window_area_map
from ..density.scoring import ScoreWeights
from ..gdsii import GdsiiStreamReader, GdsiiStreamWriter
from ..geometry import GridIndex, Rect
from ..layout import (
    FILL_DATATYPE,
    WIRE_DATATYPE,
    BandPlan,
    DrcRules,
    DrcViolation,
    Layout,
    LayerSpool,
    ShapeCensus,
    ShapeSpill,
    WindowGrid,
    check_fills,
    shape_groups,
)
from ..oasis import OasisStreamWriter
from .candidates import build_wire_indexes
from .config import FillConfig
from .engine import BandSource, DummyFillEngine, FillReport, SizedFills, engine_span
from .sizing import SizingStats

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "SpillBands",
    "resolve_bands",
    "stream_fill",
]

WindowKey = Tuple[int, int]

#: default spill budget when the call names none
DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024

#: rough resident footprint of one shape across index + task state —
#: deliberately pessimistic so the band estimate errs toward more,
#: smaller bands rather than blowing the budget
_BYTES_PER_SHAPE = 512

#: resident cost of one *buffered* (not yet flushed) spill record: the
#: packed bytes object plus its list slot dwarf the 24-byte payload
_BYTES_PER_BUFFERED_RECORD = 128

_FORMATS = ("gdsii", "oasis")


def _flush_records(memory_budget: Optional[int]) -> int:
    """Spool buffer length honouring the byte budget.

    The spools default to flushing every 4096 records, which on small
    budgets would keep more geometry resident in write buffers than the
    bands themselves hold; scale the buffer down so all spools together
    stay a small fraction of the budget.
    """
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    return max(16, min(4096, budget // (16 * _BYTES_PER_BUFFERED_RECORD)))


def resolve_bands(
    num_shapes: int,
    cols: int,
    memory_budget: Optional[int] = None,
    bands: Optional[int] = None,
) -> int:
    """Number of window-column bands for a run.

    An explicit ``bands`` wins (clamped to the column count — a band is
    at least one window column).  Otherwise the count is sized so one
    band's estimated resident footprint
    (``num_shapes x _BYTES_PER_SHAPE / bands``) fits the byte budget.
    """
    if cols < 1:
        raise ValueError("grid must have at least one column")
    if bands is not None:
        if bands < 1:
            raise ValueError("bands must be at least 1")
        return min(bands, cols)
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if budget < 1:
        raise ValueError("memory budget must be a positive byte count")
    estimated = max(1, num_shapes) * _BYTES_PER_SHAPE
    return max(1, min(cols, -(-estimated // budget)))


class SpillBands(BandSource):
    """The spill band source: one band's geometry resident at a time.

    A band's layout is rebuilt from the halo-routed wire spill when the
    sweep first asks for it, and dropped when it moves to another band.
    Whatever a stage keeps for the next one is pickled to the work
    directory.  Each band's sized fills go to their own spool (grid
    order, for the write) and into the DRC fill spill.
    """

    def __init__(
        self,
        plan: BandPlan,
        wires: ShapeSpill,
        fills: ShapeSpill,
        rules: DrcRules,
        num_layers: int,
        kept_area: Mapping[int, np.ndarray],
        workdir: str,
        flush: int,
    ):
        super().__init__(plan)
        self._wires = wires
        self._fills = fills
        self._rules = rules
        self._num_layers = num_layers
        self._kept_area = kept_area
        self._workdir = workdir
        self._flush = flush
        self._resident: Optional[Tuple[int, Layout]] = None
        self._indexes: Optional[Dict[int, GridIndex[int]]] = None
        #: per-band spools of the new fills, in band order
        self.new_fills: List[LayerSpool] = []
        self.num_fills = 0

    def layout(self, band: int) -> Layout:
        if self._resident is None or self._resident[0] != band:
            self.release()
            layout = Layout(self.plan.grid.die, self._num_layers, self._rules)
            for n, _datatype, rect in self._wires.read(band):
                layout.layer(n).add_wire(rect)
            self._resident = (band, layout)
        return self._resident[1]

    def wire_indexes(self, band: int) -> Dict[int, GridIndex[int]]:
        layout = self.layout(band)
        if self._indexes is None:
            self._indexes = build_wire_indexes(layout)
        return self._indexes

    def release(self) -> None:
        """Drop the resident band."""
        self._resident = None
        self._indexes = None

    def _path(self, what: str, band: int) -> str:
        return os.path.join(self._workdir, f"{what}-band{band:04d}.pkl")

    def keep(self, what: str, band: int, value: Any) -> None:
        with open(self._path(what, band), "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def take(self, what: str, band: int) -> Any:
        path = self._path(what, band)
        with open(path, "rb") as handle:
            value = pickle.load(handle)
        os.remove(path)
        return value

    def fill_density(self) -> Dict[int, np.ndarray]:
        area = window_area_map(self.plan.grid)
        return {n: kept / area for n, kept in self._kept_area.items()}

    def commit(self, band: int, sized: SizedFills) -> None:
        spool = LayerSpool(self._workdir, f"new-band{band:04d}", flush_records=self._flush)
        before = self.num_fills
        for per_layer in sized.values():
            for n, rects in per_layer.items():
                for rect in rects:
                    spool.add(n, FILL_DATATYPE, check_rect(rect, name=f"fill on layer {n}"))
                    self._fills.route(n, FILL_DATATYPE, rect, self._rules.min_spacing)
                self.num_fills += len(rects)
        spool.finish()
        self.new_fills.append(spool)
        obs.count("engine.fills", self.num_fills - before)


def _band_drc(
    plan: BandPlan,
    wires: ShapeSpill,
    fills: ShapeSpill,
    numbers: Sequence[int],
    rules: DrcRules,
) -> List[DrcViolation]:
    """Fill DRC of the written layout, one band resident at a time.

    ``fills`` holds every output fill routed with a ``min_spacing``
    halo, so a band sees each fill close enough to violate against one
    of its own, whichever band owns it.  A violation belongs to the
    band holding the larger ``xl`` of its shapes; both shapes are
    resident there (wires carry a wider halo), so across the bands
    every violation :meth:`Layout.check_drc` finds on the written
    layout is reported exactly once, fill-fill pairs across a band
    boundary included.  Per layer, a band lists its fills in output
    order, so each pair also keeps ``check_drc``'s orientation.
    """
    violations: List[DrcViolation] = []
    for band in range(plan.num_bands):
        band_wires: Dict[int, List[Rect]] = {n: [] for n in numbers}
        band_fills: Dict[int, List[Rect]] = {n: [] for n in numbers}
        for n, _datatype, rect in wires.read(band):
            band_wires[n].append(rect)
        for n, _datatype, rect in fills.read(band):
            band_fills[n].append(rect)
        for n in numbers:
            if not band_fills[n]:
                continue
            for v in check_fills(band_fills[n], band_wires[n], rules):
                anchor = v.shape.xl if v.other is None else max(v.shape.xl, v.other.xl)
                if plan.band_of_x(anchor) == band:
                    violations.append(v)
    return violations


def stream_fill(
    source: Union[str, "os.PathLike[str]", bytes, bytearray, BinaryIO],
    output: Union[str, "os.PathLike[str]", BinaryIO],
    rules: DrcRules,
    *,
    cols: int,
    rows: int,
    config: Optional[FillConfig] = None,
    weights: Optional[ScoreWeights] = None,
    memory_budget: Optional[int] = None,
    bands: Optional[int] = None,
    eco_wires: Optional[Mapping[int, Sequence[Rect]]] = None,
    output_format: str = "gdsii",
) -> FillReport:
    """Run the full fill flow out-of-core; bounded peak memory.

    ``source`` is a GDSII path, byte string or binary stream;
    ``output`` a path or binary stream for the filled layout in
    ``output_format`` (``"gdsii"`` or ``"oasis"``).  ``cols``/``rows``
    give the window dissection (the die comes from the stream, so the
    grid cannot be built by the caller).  ``memory_budget`` (bytes) or
    an explicit ``bands`` count controls how many window-column bands
    the die is swept in; each sweep keeps only one band's geometry
    resident.  Without ``eco_wires`` the input's fills are replaced,
    as :meth:`~repro.core.DummyFillEngine.run` replaces them.
    ``eco_wires`` switches to the incremental ECO mode: the wires are
    committed, fills in dirtied windows are ripped up, and only those
    windows are re-filled — by the rules of :mod:`repro.eco`, so the
    bytes match :func:`repro.eco.apply_eco`.

    The report's ``stage_seconds`` are the children of the run's
    ``engine.run`` span: ``scan`` and ``bucket``, the sweep's stages,
    then ``drc`` and ``io.write``.

    Note the OASIS writer buffers one (layer, datatype) group at a
    time for repetition extraction, so only the GDSII format is fully
    streaming on the output side.
    """
    # repro.eco imports repro.core, so its rules are imported at call time
    from ..eco import affected_windows, check_new_wires, eco_halo, rips_up

    if config is None:
        config = FillConfig()
    if output_format not in _FORMATS:
        raise ValueError(f"output_format must be one of {_FORMATS}")
    rules = check_drc_params(rules, name="rules")
    engine = DummyFillEngine(config, weights)
    flush = _flush_records(memory_budget)

    with contextlib.ExitStack() as cleanup, engine_span() as run_span:
        workdir = tempfile.mkdtemp(prefix="repro-stream-")
        cleanup.callback(shutil.rmtree, workdir, ignore_errors=True)

        # --------------------------------------------------------------
        # Pass 1 — scan: die and layer count by the shape-stream rules
        # every reader shares, wires and fills spooled in input order.
        with obs.span("scan"):
            spool = LayerSpool(workdir, "shapes", flush_records=flush)
            census = ShapeCensus("GDSII")
            with GdsiiStreamReader(source) as reader:
                for layer, datatype, rect in census.scan(reader.shapes()):
                    spool.add(layer, datatype, rect)
            die = census.die()
            num_layers = census.num_layers
            numbers = tuple(range(1, num_layers + 1))
            grid = WindowGrid(die, cols, rows)

            # ECO mode: commit the new wires (appended to the wire spools
            # in layer order, as apply_eco commits them) and work out
            # which windows they dirty.
            affected: Optional[Set[WindowKey]] = None
            if eco_wires is not None:
                check_new_wires(die, numbers, eco_wires)
                for number in sorted(eco_wires, key=int):
                    for rect in eco_wires[number]:
                        spool.add(number, WIRE_DATATYPE, rect)
                affected = affected_windows(grid, eco_wires, eco_halo(rules, config))
            spool.finish()
            obs.count("stream.shapes", census.num_shapes)

        plan = BandPlan(grid, resolve_bands(census.num_shapes, grid.cols, memory_budget, bands))
        obs.count("stream.bands", plan.num_bands)

        # --------------------------------------------------------------
        # Pass 2 — bucket: route wires into band chunks with the widest
        # query reach of any stage as halo (``min_spacing`` around a
        # window: analysis, candidates, sizing and DRC alike);
        # decide each input fill's fate (all replaced by a whole-die
        # fill, ECO rip-up otherwise), route the kept ones for the DRC
        # and accumulate their area per window.
        with obs.span("bucket"):
            halo = rules.min_spacing
            wires = ShapeSpill(plan, workdir, "wires", flush_records=flush)
            fills = ShapeSpill(plan, workdir, "fills", flush_records=flush)
            kept_spool = LayerSpool(workdir, "kept", flush_records=flush)
            kept_area: Dict[int, np.ndarray] = {}
            kept_fills = 0
            removed_fills = 0
            for n in numbers:
                for rect in spool.read(n, WIRE_DATATYPE):
                    wires.route(n, WIRE_DATATYPE, rect, halo)
                for rect in spool.read(n, FILL_DATATYPE):
                    if affected is None or rips_up(grid, affected, rect):
                        removed_fills += 1
                        continue
                    kept_spool.add(n, FILL_DATATYPE, rect)
                    fills.route(n, FILL_DATATYPE, rect, rules.min_spacing)
                    kept_fills += 1
                    area = kept_area.setdefault(
                        n, np.zeros((grid.cols, grid.rows), dtype=np.int64)
                    )
                    for i, j in grid.windows_touching(rect):
                        area[i, j] += rect.intersection_area(grid.window(i, j))
            wires.finish()
            kept_spool.finish()

        # --------------------------------------------------------------
        # The band sweep, unless this is an ECO whose wires dirty nothing.
        bands_source = SpillBands(
            plan, wires, fills, rules, num_layers, kept_area, workdir, flush
        )
        report = FillReport(None, None, 0, 0, SizingStats())
        if affected is None or affected:
            report = engine.sweep(bands_source, windows=affected)
        bands_source.release()
        fills.finish()

        with obs.span("drc"):
            report.violations = _band_drc(plan, wires, fills, numbers, rules)

        # --------------------------------------------------------------
        # Write — stream the filled layout out in the shared file order:
        # die outline, then per layer wires (input order, ECO wires
        # appended) and fills: kept (input order), then new (grid order
        # via ascending bands).
        def layers() -> Iterator[Tuple[int, Iterable[Rect], Iterable[Rect]]]:
            for n in numbers:
                new_fills = (band.read(n, FILL_DATATYPE) for band in bands_source.new_fills)
                fills = chain(kept_spool.read(n, FILL_DATATYPE), *new_fills)
                yield n, spool.read(n, WIRE_DATATYPE), fills

        with obs.span("io.write"), contextlib.ExitStack() as stack:
            stream: BinaryIO = (
                stack.enter_context(open(output, "wb"))
                if isinstance(output, (str, os.PathLike))
                else output
            )
            writer: Union[GdsiiStreamWriter, OasisStreamWriter] = (
                GdsiiStreamWriter(stream) if output_format == "gdsii" else OasisStreamWriter(stream)
            )
            for group in shape_groups(die, layers()):
                writer.rectangles(*group)
            report.bytes_written = writer.close()

    spills = [spool, wires, fills, kept_spool, *bands_source.new_fills]
    report.bytes_spilled = sum(s.bytes_spilled for s in spills)
    report.chunks = sum(s.chunks for s in spills)
    obs.metrics.counter("stream.bytes_spilled").inc(report.bytes_spilled)
    obs.metrics.counter("stream.chunks").inc(report.chunks)
    report.num_fills = bands_source.num_fills
    report.bands = plan.num_bands
    report.kept_fills = kept_fills
    report.removed_fills = removed_fills
    report.stage_seconds = {c.name: c.seconds for c in run_span.children}
    return report
