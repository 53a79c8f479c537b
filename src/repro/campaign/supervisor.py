"""The worker-process executor: supervised chunk dispatch over raw processes.

``multiprocessing.Pool`` cannot survive a worker that dies mid-task: the
pool respawns the process but the task it was holding is silently lost and
``imap`` blocks forever.  :class:`ChunkSupervisor` replaces it with an
explicitly supervised crew of worker processes under the shared
:class:`~repro.campaign.dispatch.Scheduler` (retries, backoff, deadlines,
bisection, quarantine):

* each worker owns one duplex pipe; the parent closes the child end after
  the fork, so a dead worker reads as EOF instead of a hang;
* a worker past its chunk deadline is wedged: it is killed, like a dead one;
* a burst of consecutive worker crashes marks the run ``degraded`` — the
  engine then finishes the remaining chunks in-process rather than dying.

Chaos knob (read in the *worker*, for tests and the CI resilience smoke):

``REPRO_CHAOS_KILL_NTH_CHUNK``
    Every worker SIGKILLs itself upon receiving its *n*-th chunk.  ``n=1``
    means no worker ever completes a chunk — the supervisor must degrade and
    the engine still finish the campaign.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, List, Optional, Sequence, Tuple

from repro.campaign.dispatch import (
    ChunkTask,
    DeadlineModel,
    DispatchRequest,
    DispatchTransport,
    Scheduler,
    SupervisedRun,
)
from repro.telemetry import metrics as telemetry_metrics

CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_NTH_CHUNK"


# -- worker side -------------------------------------------------------------------


def _worker_main(conn, initializer, initargs) -> None:
    """Entry point of one supervised worker process.

    Initialises state once (compile + profile the workload), then serves
    ``(fn, chunk_id, payload)`` requests until EOF or a ``None`` sentinel.
    All chunk exceptions are caught and reported as ``error`` replies — only
    genuine process death (OOM, SIGKILL, interpreter abort) ever costs the
    parent a worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        kill_nth = int(os.environ.get(CHAOS_KILL_ENV, "0") or 0)
    except ValueError:
        kill_nth = 0
    try:
        state = initializer(*initargs)
    except BaseException:
        try:
            conn.send(("init-error", -1, traceback.format_exc(limit=16), None))
        except (BrokenPipeError, OSError):
            pass
        return
    handled = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        fn, chunk_id, payload = message
        handled += 1
        if kill_nth and handled == kill_nth:
            os.kill(os.getpid(), signal.SIGKILL)
        # Each reply piggybacks the worker's metric delta for the chunk, so
        # the parent registry aggregates cluster-wide counters without any
        # extra IPC round.  Disabled telemetry ships None (no snapshot cost).
        metrics_before = (
            telemetry_metrics.registry().snapshot()
            if telemetry_metrics.enabled()
            else None
        )
        try:
            body = fn(state, payload)
            delta = (
                telemetry_metrics.registry().snapshot_delta(metrics_before)
                if metrics_before is not None
                else None
            )
            reply = ("ok", chunk_id, body, delta)
        except BaseException:
            reply = ("error", chunk_id, traceback.format_exc(limit=16), None)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# -- parent side -------------------------------------------------------------------


class _Worker:
    __slots__ = ("process", "conn", "task", "sent_at", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[ChunkTask] = None
        self.sent_at = 0.0
        self.deadline = 0.0


class ChunkSupervisor:
    """Dispatches :class:`ChunkTask` batches to supervised worker processes.

    Parameters mirror the CLI knobs: ``max_retries`` attempts per chunk
    before bisection/quarantine, ``chunk_timeout`` pins every chunk deadline
    (default: deadlines derive from observed throughput), ``quarantine``
    turns repeated-crash experiments into reported quarantines instead of a
    raised :class:`~repro.errors.CampaignExecutionError`.
    """

    def __init__(
        self,
        *,
        jobs: int,
        context,
        initializer: Callable,
        initargs: Tuple = (),
        max_retries: int = 3,
        chunk_timeout: Optional[float] = None,
        quarantine: bool = True,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        deadline_factor: float = 8.0,
        deadline_floor: float = 5.0,
        initial_deadline: float = 120.0,
        max_consecutive_crashes: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.context = context
        self.initializer = initializer
        self.initargs = initargs
        self.max_retries = max(0, max_retries)
        self.chunk_timeout = chunk_timeout
        self.quarantine = quarantine
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadlines = DeadlineModel(deadline_factor, deadline_floor, initial_deadline)
        self.max_consecutive_crashes = (
            max_consecutive_crashes
            if max_consecutive_crashes is not None
            else max(6, 2 * self.jobs)
        )
        self._workers: List[_Worker] = []
        self._consecutive_crashes = 0

    @classmethod
    def for_request(cls, request: DispatchRequest) -> "ChunkSupervisor":
        """A crew sized for ``request``; the scheduler carries its knobs."""
        return cls(
            jobs=min(request.jobs, max(1, len(request.tasks))),
            context=multiprocessing.get_context(request.start_method),
            initializer=request.initializer,
            initargs=request.initargs,
        )

    def run(
        self,
        tasks: Sequence[ChunkTask],
        *,
        split: Optional[Callable[[ChunkTask], List[ChunkTask]]] = None,
        on_chunk_done=None,
        on_grant=None,
        on_event=None,
    ) -> SupervisedRun:
        scheduler = Scheduler(
            tasks,
            split=split,
            max_retries=self.max_retries,
            quarantine=self.quarantine,
            chunk_timeout=self.chunk_timeout,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            deadlines=self.deadlines,
            on_chunk_done=on_chunk_done,
            on_grant=on_grant,
            on_event=on_event,
        )
        return scheduler.run(self)

    # -- lifecycle helpers --------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_worker_main,
            args=(child_conn, self.initializer, self.initargs),
            daemon=True,
        )
        process.start()
        # Close our copy of the child end: once the worker dies, reads on
        # the parent end hit EOF instead of blocking forever.
        child_conn.close()
        return _Worker(process, parent_conn)

    @staticmethod
    def _dispose(worker: _Worker, *, kill: bool = False) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn process
            worker.process.kill()
            worker.process.join(timeout=1.0)

    def _crash(self, scheduler: Scheduler, worker: _Worker, reason: str, now: float) -> None:
        scheduler.stats.worker_restarts += 1
        task, worker.task = worker.task, None
        self._workers.remove(worker)
        self._dispose(worker, kill=True)
        scheduler.emit("worker_restart", reason=reason.strip()[-200:])
        if task is not None:
            self._consecutive_crashes += 1
            if self._consecutive_crashes >= self.max_consecutive_crashes:
                scheduler.stats.degraded = True
            scheduler.fail(task, reason, now)

    # -- the executor protocol ----------------------------------------------------

    def busy(self) -> bool:
        return any(worker.task is not None for worker in self._workers)

    def step(self, scheduler: Scheduler) -> None:
        now = time.monotonic()
        # Grant work to idle (or freshly spawned) workers.
        if not scheduler.stopping:
            for task in scheduler.eligible(now):
                worker = next((w for w in self._workers if w.task is None), None)
                if worker is None:
                    if len(self._workers) >= self.jobs:
                        break
                    worker = self._spawn()
                    self._workers.append(worker)
                scheduler.grant(task)
                worker.task = task
                try:
                    worker.conn.send((task.fn, task.chunk_id, task.payload))
                except (BrokenPipeError, OSError):
                    self._crash(scheduler, worker, "worker pipe closed on send", now)
                    continue
                worker.sent_at = now
                worker.deadline = scheduler.deadline(task, now)

        # Wait for replies, deaths, deadlines or backoff expiry.
        timeout = 0.5
        for worker in self._workers:
            if worker.task is not None:
                timeout = min(timeout, max(0.0, worker.deadline - now))
        for task in scheduler.pending:
            if task.not_before > now:
                timeout = min(timeout, task.not_before - now)
        conns = [w.conn for w in self._workers]
        if conns:
            ready = _connection_wait(conns, timeout)
        else:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            ready = []

        now = time.monotonic()
        for conn in ready:
            worker = next((w for w in self._workers if w.conn is conn), None)
            if worker is None:
                continue
            try:
                kind, chunk_id, body, worker_metrics = conn.recv()
            except (EOFError, OSError):
                self._crash(scheduler, worker, "worker process died", now)
                continue
            if kind == "init-error":  # the worker never became usable
                self._crash(scheduler, worker, f"worker failed to initialise:\n{body}", now)
                continue
            task, worker.task = worker.task, None
            if task is None or task.chunk_id != chunk_id:
                continue  # stale reply from a superseded grant
            self._consecutive_crashes = 0  # the worker survived
            if kind == "ok":
                if worker_metrics:
                    # Fold the worker's per-chunk metric delta into the parent
                    # registry, next to the partial result it travelled with.
                    telemetry_metrics.registry().merge(worker_metrics)
                scheduler.complete(task, body, now - worker.sent_at)
            else:
                scheduler.fail(task, body, now)

        # Deadline sweep: a worker past its chunk deadline is wedged.
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.task is not None and now > worker.deadline:
                allowance = worker.deadline - worker.sent_at
                scheduler.stats.timeouts += 1
                scheduler.emit(
                    "chunk_timeout",
                    chunk=worker.task.chunk_id,
                    count=worker.task.size,
                    deadline_seconds=round(allowance, 3),
                )
                self._crash(
                    scheduler,
                    worker,
                    f"chunk {worker.task.chunk_id} exceeded its {allowance:.1f}s deadline",
                    now,
                )

    def shutdown(self, scheduler: Scheduler) -> List[ChunkTask]:
        in_flight = []
        for worker in self._workers:
            if worker.task is not None:
                in_flight.append(worker.task)
                worker.task = None
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._dispose(worker, kill=True)
        self._workers = []
        self._consecutive_crashes = 0
        return in_flight


class SupervisedPoolTransport(DispatchTransport):
    """The local dispatch path: a supervised process pool on this host."""

    name = "multiprocess"

    def execute(self, request: DispatchRequest) -> SupervisedRun:
        return Scheduler.for_request(request).run(ChunkSupervisor.for_request(request))
