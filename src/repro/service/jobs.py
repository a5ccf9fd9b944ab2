"""Async job queue: bounded FIFO, batch submission, worker supervisor.

The service's execution spine.  Requests become :class:`Job` objects on
a :class:`JobQueue` — a bounded FIFO with backpressure (a full queue
rejects instead of buffering without bound) — and a
:class:`WorkerSupervisor` runs a fixed pool of worker threads that pop
and execute jobs.  Heavy per-request computation still flows through
:mod:`repro.parallel` (the engine's band sweep); these threads only
coordinate.

Two properties matter for determinism:

* **Atomic ticket issuance** — a session-bound job gets its session
  ticket *inside the queue mutex*, at enqueue.  Queue FIFO order and
  ticket order therefore agree for every session, so a single worker
  can never pop a job whose predecessor ticket sits behind it in the
  queue (which would deadlock), and N workers execute a session's jobs
  in submission order regardless of interleaving.
* **Crash containment** — a job that raises fails *that job* only; a
  worker killed by a ``BaseException`` (or a bug in the dispatch path
  itself) is respawned by the supervisor, so the pool never silently
  shrinks.  Respawns are counted on the supervisor for tests and
  metrics.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from .session import FillSession

__all__ = [
    "Job",
    "JobError",
    "JobQueue",
    "QueueClosedError",
    "QueueFullError",
    "WorkerSupervisor",
]


class QueueFullError(RuntimeError):
    """The queue is at capacity; retry after in-flight jobs drain."""


class QueueClosedError(RuntimeError):
    """The queue (or service) was shut down."""


class JobError(RuntimeError):
    """A job failed; carries the original error type name and message."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


class Job:
    """One queued request and its eventual outcome."""

    def __init__(
        self,
        job_id: str,
        op: str,
        params: Dict[str, Any],
        session: Optional[FillSession] = None,
    ):
        self.id = job_id
        self.op = op
        self.params = params
        self.session = session
        #: session execution slot; assigned by JobQueue.submit
        self.ticket: Optional[int] = None
        #: service-tracer offset at enqueue; assigned by the service
        self.enqueued_offset: float = 0.0
        self._done = threading.Event()
        self._result: Optional[Dict[str, Any]] = None
        self._error: Optional[JobError] = None

    def succeed(self, result: Dict[str, Any]) -> None:
        self._result = result
        self._done.set()

    def fail(self, exc: BaseException) -> None:
        self._error = JobError(type(exc).__name__, str(exc))
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def error(self) -> Optional[JobError]:
        return self._error

    def wait(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job finishes; raise its :class:`JobError` if any."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} ({self.op}) still running")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class JobQueue:
    """Bounded FIFO of jobs with atomic session-ticket issuance."""

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._jobs: Deque[Job] = deque()
        self._cond = threading.Condition()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._jobs)

    def submit(self, job: Job) -> None:
        """Enqueue one job; :class:`QueueFullError` on a full queue."""
        self.submit_many([job])

    def submit_many(self, jobs: Sequence[Job]) -> None:
        """Enqueue a batch atomically: all jobs or none.

        The batch is admitted only if the queue has room for every job,
        then tickets are issued and jobs appended in order under the
        one mutex — so a batch's jobs are contiguous in the queue and
        contiguous in every touched session's ticket sequence.
        """
        if not jobs:
            return
        with self._cond:
            if self._closed:
                raise QueueClosedError("job queue is closed")
            if len(self._jobs) + len(jobs) > self.maxsize:
                raise QueueFullError(
                    f"queue full ({len(self._jobs)}/{self.maxsize}); "
                    f"batch of {len(jobs)} rejected"
                )
            for job in jobs:
                if job.session is not None:
                    job.ticket = job.session.issue_ticket()
                self._jobs.append(job)
            self._cond.notify(len(jobs))

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job in FIFO order; ``None`` when closed and drained."""
        with self._cond:
            while True:
                if self._jobs:
                    return self._jobs.popleft()
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None

    def close(self) -> List[Job]:
        """Refuse new work; wake poppers; return the undrained jobs.

        The caller owns failing the returned jobs (the service fails
        them with :class:`QueueClosedError` so no waiter hangs).
        """
        with self._cond:
            self._closed = True
            drained = list(self._jobs)
            self._jobs.clear()
            self._cond.notify_all()
        return drained


class WorkerSupervisor:
    """A fixed pool of worker threads with crash respawn.

    ``run_job`` executes one job and must contain ordinary exceptions
    (failing the job instead of raising); anything that still escapes
    kills the worker thread, and the supervisor immediately spawns a
    replacement for its slot — the pool holds ``workers`` live threads
    until :meth:`stop`.
    """

    def __init__(
        self,
        queue: JobQueue,
        run_job: Callable[[Job], None],
        *,
        workers: int = 2,
        on_worker_start: Optional[Callable[[], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.queue = queue
        self.run_job = run_job
        self.workers = workers
        self.on_worker_start = on_worker_start
        self.respawns = 0
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._stopping = False

    def start(self) -> None:
        for slot in range(self.workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        thread = threading.Thread(
            target=self._worker_main,
            args=(slot,),
            name=f"repro-service-worker-{slot}",
            daemon=True,
        )
        with self._lock:
            self._threads.append(thread)
        thread.start()

    def _worker_main(self, slot: int) -> None:
        try:
            if self.on_worker_start is not None:
                self.on_worker_start()
            while True:
                job = self.queue.pop()
                if job is None:
                    return
                try:
                    self.run_job(job)
                except BaseException as exc:
                    # Contain the job's fate, then let the exception
                    # kill this thread; the finally below respawns.
                    if not job.done:
                        job.fail(exc)
                    raise
        finally:
            with self._lock:
                respawn = not self._stopping and not self.queue.closed
                if respawn:
                    self.respawns += 1
            if respawn:
                self._spawn(slot)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting respawns and join every worker thread."""
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)

    def alive(self) -> int:
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())
