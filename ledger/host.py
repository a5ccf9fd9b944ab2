"""Host speed, measured on the child's own cores: the scale of the ledger's timings.

The ledger's hosts are shared virtual machines.  Their speed drifts by a
factor of two and more, over seconds and minutes, and the drift shows in
CPU time as well as wall time.  It differs from core to core: a probe on
one vCPU does not see most of the slowdown of a program on the other.
The program under measurement cannot be told apart from the host by its
own clock.

So a child runs on known CPUs (one, pinned, when it has no worker pool),
and while it runs, one thread of the parent per CPU, pinned to it, times
a fixed pure-Python probe in thread CPU time, about 25 times a second.
Every timing sample (an op, a cycle, a set-up) is scaled by
``PROBE_REF_MS`` over the mean probe in the sample's window: it reads as
the time the sample would take on a host that runs the probe in
``PROBE_REF_MS``.  The mean, not the median, because an op's time
integrates the host's slowness over its window.  The probe is in the
ledger's files, not the program's, so a change to the program cannot
move it.  Linux only: pinning is ``sched_setaffinity``.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List, Sequence, Tuple

#: CPU milliseconds of one probe on the reference host.  About what the
#: probe takes on a quiet 2-vCPU x86-64 VM, so scaled times stay close
#: to that host's wall times.
PROBE_REF_MS = 1.3

#: pause between probes: each meter thread takes about a twentieth of
#: its core
PERIOD_S = 0.04

#: a sample's window is widened by this much on each side, so that a
#: 100 ms request still sees a couple of dozen probes
PAD_S = 0.5


def probe() -> None:
    """The fixed unit of host work: integer arithmetic in the interpreter."""
    total = 0
    for i in range(20_000):
        total += i * i % 7


def child_cpus(workers: int) -> List[int]:
    """The CPUs a child runs on: the last allowed one for a serial child,
    pinned so its meter times the same core; every allowed one for a
    child with a worker pool."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed if workers > 1 else allowed[-1:]


class HostMeter:
    """Times :func:`probe` on one pinned thread per CPU while entered.

    Sample start times are ``time.perf_counter``, which on Linux is
    ``CLOCK_MONOTONIC``: the same clock in the parent and its children,
    so a child's op times can be matched to the probes around them.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.starts: List[float] = []
        self.cpu_ms: List[float] = []
        self._per_thread: List[List[Tuple[float, float]]] = [[] for _ in cpus]
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu, out), daemon=True)
            for cpu, out in zip(cpus, self._per_thread)
        ]

    def _loop(self, cpu: int, out: List[Tuple[float, float]]) -> None:
        os.sched_setaffinity(0, {cpu})
        while True:
            start = time.perf_counter()
            cpu_s = time.thread_time()
            probe()
            out.append((start, (time.thread_time() - cpu_s) * 1000.0))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "HostMeter":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        samples = sorted(s for out in self._per_thread for s in out)
        self.starts = [start for start, _ in samples]
        self.cpu_ms = [ms for _, ms in samples]

    def probe_ms(self, t0: float, t1: float) -> float:
        """Mean probe CPU ms of the samples started in ``[t0, t1]``,
        padded by ``PAD_S``; every sample when none fell inside."""
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        return statistics.fmean(self.cpu_ms[lo:hi] or self.cpu_ms)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a wall time spent in ``[t0, t1]`` into
        reference-host time."""
        return PROBE_REF_MS / self.probe_ms(t0, t1)
