"""Peak-memory measurement: an RSS sampler thread.

The contest's Memory* score (Eqn. (3), Table 2) measures peak usage
during the run.  ``tracemalloc`` would be exact but slows Python ~6x,
corrupting the simultaneously-measured Run-time* score, so memory is
measured by a background thread polling ``/proc/self/statm`` every few
milliseconds — effectively free, and it captures the peak working set
including numpy/scipy allocations tracemalloc never sees.

Code outside :mod:`repro.obs` measures memory through
:class:`PeakRssSampler` or :func:`repro.obs.record.measure` (rule
REP007).
"""

from __future__ import annotations

import os
import threading

__all__ = ["PeakRssSampler", "current_rss_bytes"]

_MB = 1024.0 * 1024.0


def current_rss_bytes() -> int:
    """The process resident set size right now (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


class PeakRssSampler:
    """Samples the process RSS on a background thread.

    Use as a context manager around the measured region; read
    :attr:`peak_mb` (growth over the entry baseline) afterwards.
    """

    def __init__(self, interval: float = 0.005):
        self._interval = interval
        self._peak = 0
        self._baseline = current_rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._peak = max(self._peak, current_rss_bytes())
            self._stop.wait(self._interval)

    def __enter__(self) -> "PeakRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, current_rss_bytes())

    @property
    def peak_mb(self) -> float:
        """Peak RSS growth over the run's baseline, in MB."""
        return max(0.0, (self._peak - self._baseline) / _MB)

    @property
    def peak_bytes(self) -> int:
        return max(0, self._peak - self._baseline)
