"""The chunk scheduler shared by every dispatch path, and its executor seam.

Campaign work reaches an executor as :class:`ChunkTask` objects: contiguous
index ranges keyed by their start offset.  Whatever runs them — the calling
process, a local crew of worker processes, or remote worker hosts — the
failure handling is the same, so it lives here once:

* a pending queue kept sorted by chunk offset, so retried and bisected work
  goes back out ahead of untouched higher offsets;
* per-chunk attempts with capped exponential backoff;
* hang deadlines from an EWMA of observed seconds per unit
  (:class:`DeadlineModel`), or a fixed ``chunk_timeout``;
* chunks that keep failing are bisected down to the offending unit, which
  is quarantined (reported to the caller, recorded upstream as ``crashed``)
  or raised as :class:`~repro.errors.CampaignExecutionError`;
* the first completion of a chunk wins; later ones are reported as
  duplicates;
* a stop flag (SIGINT/SIGTERM, or the engine's chaos abort) ends granting,
  drains in-flight chunks and marks the run ``interrupted``.

An executor plugs into :meth:`Scheduler.run` with three methods:
``busy()`` (chunks in flight?), ``step(scheduler)`` (grant eligible work,
collect results and failures, sweep deadlines) and
``shutdown(scheduler)`` (release resources; return chunks still in flight).
:class:`InProcessTransport` is the in-process executor;
:mod:`repro.campaign.supervisor` holds the worker-process one and
:mod:`repro.dist.coordinator` the remote-lease one.

Determinism is preserved because chunks are location-independent: results
are keyed by chunk start offset and merged in offset order, so retries,
bisection and out-of-order completion cannot change the assembled bytes.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignExecutionError, ReproError


@dataclass
class ChunkTask:
    """One retryable unit of campaign work.

    ``chunk_id`` is the chunk's start offset in the campaign's index space —
    it doubles as the merge key, so bisected children (which inherit their
    own start offsets) slot into the same ordering as original grants.
    ``fn`` must be a module-level callable ``fn(state, payload)`` (it crosses
    process boundaries by pickle); ``state`` is whatever the initializer
    returned.
    """

    chunk_id: int
    fn: Callable[[Any, Any], Any]
    payload: Any
    size: int
    meta: Any = None
    attempts: int = 0
    not_before: float = 0.0


def _offset(task: ChunkTask) -> int:
    return task.chunk_id


@dataclass
class QuarantinedChunk:
    """A chunk (bisected to minimal size) that exhausted its retries."""

    task: ChunkTask
    error: str


@dataclass
class SupervisorStats:
    """Counters surfaced in campaign summaries (``phase_seconds`` style)."""

    retries: int = 0
    worker_restarts: int = 0
    timeouts: int = 0
    bisections: int = 0
    quarantined_units: int = 0
    chunks_completed: int = 0
    degraded: bool = False
    interrupted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "timeouts": self.timeouts,
            "bisections": self.bisections,
            "quarantined_units": self.quarantined_units,
            "chunks_completed": self.chunks_completed,
            "degraded": self.degraded,
            "interrupted": self.interrupted,
        }

    def merge(self, other: "SupervisorStats") -> None:
        self.retries += other.retries
        self.worker_restarts += other.worker_restarts
        self.timeouts += other.timeouts
        self.bisections += other.bisections
        self.quarantined_units += other.quarantined_units
        self.chunks_completed += other.chunks_completed
        self.degraded = self.degraded or other.degraded
        self.interrupted = self.interrupted or other.interrupted


@dataclass
class SupervisedRun:
    """Everything a dispatch round produced."""

    results: Dict[int, Any] = field(default_factory=dict)
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    unfinished: List[ChunkTask] = field(default_factory=list)
    stats: SupervisorStats = field(default_factory=SupervisorStats)


class _SignalGuard:
    """Graceful-stop flag driven by SIGINT/SIGTERM (main thread only)."""

    def __init__(self) -> None:
        self.stop_requested = False
        self._previous: List[Tuple[int, Any]] = []

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous.append((signum, signal.signal(signum, self._handle)))
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _handle(self, signum, frame) -> None:
        if self.stop_requested:
            # Second signal: the user really means it.
            raise KeyboardInterrupt
        self.stop_requested = True

    def restore(self) -> None:
        for signum, handler in self._previous:
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous = []


class DeadlineModel:
    """Hang deadlines from an EWMA of observed wall-clock seconds per unit.

    Until the first completion every chunk gets ``initial`` seconds; after
    that ``factor`` times the expected duration, never less than ``floor``.
    """

    def __init__(self, factor: float = 8.0, floor: float = 5.0, initial: float = 120.0) -> None:
        self.factor = factor
        self.floor = floor
        self.initial = initial
        self.unit_seconds: Optional[float] = None

    def deadline(self, units: int, now: float) -> float:
        if self.unit_seconds is None:
            return now + self.initial
        return now + max(self.floor, self.factor * self.unit_seconds * max(1, units))

    def observe(self, units: int, elapsed: float) -> None:
        sample = max(1e-6, elapsed / max(1, units))
        if self.unit_seconds is None:
            self.unit_seconds = sample
        else:
            self.unit_seconds += 0.3 * (sample - self.unit_seconds)


class Scheduler:
    """Queue, attempts, backoff, deadlines, bisection and quarantine of one round.

    Executors hand every outcome back here: :meth:`grant` when a chunk
    leaves the queue, :meth:`complete` with its result, :meth:`fail` with an
    error description when it raised, crashed its worker or blew its
    deadline.  ``on_grant`` fires on a chunk's first grant only,
    ``on_chunk_done`` once per completed chunk (the engine's durability
    point), ``on_event`` feeds the run log and may never raise into the loop.
    """

    def __init__(
        self,
        tasks: Sequence[ChunkTask],
        *,
        split: Optional[Callable[[ChunkTask], List[ChunkTask]]] = None,
        max_retries: int = 3,
        quarantine: bool = True,
        chunk_timeout: Optional[float] = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        deadlines: Optional[DeadlineModel] = None,
        on_chunk_done: Optional[Callable[[ChunkTask, Any], None]] = None,
        on_grant: Optional[Callable[[ChunkTask], None]] = None,
        on_event: Optional[Callable[..., None]] = None,
        stop: Optional[_SignalGuard] = None,
    ) -> None:
        self.pending: List[ChunkTask] = sorted(tasks, key=_offset)
        self.split = split
        self.max_retries = max(0, max_retries)
        self.quarantine = quarantine
        self.chunk_timeout = chunk_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadlines = deadlines if deadlines is not None else DeadlineModel()
        self.on_chunk_done = on_chunk_done
        self.on_grant = on_grant
        self.on_event = on_event
        self.stop = stop
        self.result = SupervisedRun()
        self.stats = self.result.stats

    @classmethod
    def for_request(cls, request: "DispatchRequest", **overrides) -> "Scheduler":
        options = dict(
            split=request.split,
            max_retries=request.max_retries,
            quarantine=request.quarantine,
            chunk_timeout=request.chunk_timeout,
            on_chunk_done=request.on_chunk_done,
            on_grant=request.on_grant,
            on_event=request.on_event,
            stop=request.stop,
        )
        options.update(overrides)
        return cls(request.tasks, **options)

    @property
    def stopping(self) -> bool:
        return self.stop is not None and self.stop.stop_requested

    def emit(self, event_type: str, **fields) -> None:
        # Observability must never take the dispatch loop down with it.
        if self.on_event is None:
            return
        try:
            self.on_event(event_type, **fields)
        except Exception:
            pass

    def eligible(self, now: float) -> List[ChunkTask]:
        """Queued chunks whose backoff has expired, lowest offset first."""
        return [task for task in self.pending if task.not_before <= now]

    def grant(self, task: ChunkTask) -> None:
        """Take ``task`` off the queue for an executor."""
        self.pending.remove(task)
        if self.on_grant is not None and task.attempts == 0:
            self.on_grant(task)

    def deadline(self, task: ChunkTask, now: float, batch: int = 1) -> float:
        """When a chunk granted now (one of ``batch`` to one executor) hangs."""
        if self.chunk_timeout is not None:
            return now + self.chunk_timeout
        return self.deadlines.deadline(task.size * max(1, batch), now)

    def complete(self, task: ChunkTask, body: Any, elapsed: Optional[float] = None) -> bool:
        """Record ``task``'s result; False if another execution already did."""
        if task.chunk_id in self.result.results:
            return False
        if elapsed is not None:
            self.deadlines.observe(task.size, elapsed)
        self.result.results[task.chunk_id] = body
        self.stats.chunks_completed += 1
        if self.on_chunk_done is not None:
            self.on_chunk_done(task, body)
        return True

    def fail(self, task: ChunkTask, error: str, now: float) -> None:
        """Retry with backoff, then bisect, then quarantine (or raise)."""
        task.attempts += 1
        if task.attempts <= self.max_retries:
            self.stats.retries += 1
            delay = min(self.backoff_cap, self.backoff_base * (2 ** (task.attempts - 1)))
            task.not_before = now + delay
            self._queue(task)
            self.emit("chunk_retried", chunk=task.chunk_id, count=task.size, attempts=task.attempts)
        elif task.size > 1 and self.split is not None:
            self.stats.bisections += 1
            self.emit("chunk_bisected", chunk=task.chunk_id, count=task.size)
            for child in self.split(task):
                child.attempts = 0
                child.not_before = now
                self._queue(child)
        elif self.quarantine:
            self.stats.quarantined_units += task.size
            self.result.quarantined.append(QuarantinedChunk(task, error))
            self.emit(
                "quarantine", chunk=task.chunk_id, units=task.size, reason=error.strip()[-200:]
            )
        else:
            raise CampaignExecutionError(
                f"chunk {task.chunk_id} (+{task.size}) failed {task.attempts} "
                f"times and quarantine is disabled:\n{error}"
            )

    def _queue(self, task: ChunkTask) -> None:
        self.pending.append(task)
        self.pending.sort(key=_offset)

    def run(self, executor) -> SupervisedRun:
        """Drive ``executor`` until the queue drains, it stops or degrades."""
        own_guard = self.stop is None
        if own_guard:
            self.stop = _SignalGuard()
            self.stop.install()
        try:
            while not self.stats.degraded:
                busy = executor.busy()
                if not self.pending and not busy:
                    break
                if self.stopping:
                    self.stats.interrupted = True
                    if not busy:
                        break
                executor.step(self)
        finally:
            if own_guard:
                self.stop.restore()
            self.result.unfinished.extend(executor.shutdown(self))
        self.result.unfinished.extend(self.pending)
        self.pending = []
        self.result.unfinished.sort(key=_offset)
        return self.result


# -- the transport seam -------------------------------------------------------------
#
# A job is handed to a transport as a DispatchRequest — chunk tasks, the
# worker initializer that builds per-process state, the split used for
# bisection, fault-tolerance knobs and the engine's ledger/telemetry
# callbacks.  Because chunks are deterministic and merge by offset, *where*
# a transport runs them cannot change the assembled bytes.


@dataclass
class DispatchRequest:
    """Everything a transport needs to execute one chunked dispatch round.

    ``initializer(provider, program)`` builds the per-worker state that the
    chunk functions (``task.fn``) consume; both are module-level (picklable
    by reference), so a request can cross process and host boundaries.  The
    callbacks run in the dispatching process: ``on_chunk_done`` is the
    durability point (the engine fsyncs the ledger there), ``on_grant`` and
    ``on_event`` feed telemetry.  ``stop`` is the engine's stop flag.
    """

    kind: str
    program: str
    provider: Callable
    initializer: Callable
    tasks: List[ChunkTask]
    split: Optional[Callable[[ChunkTask], List[ChunkTask]]]
    jobs: int
    start_method: Optional[str]
    max_retries: int = 3
    chunk_timeout: Optional[float] = None
    quarantine: bool = True
    on_chunk_done: Optional[Callable[[ChunkTask, object], None]] = None
    on_grant: Optional[Callable[[ChunkTask], None]] = None
    on_event: Optional[Callable[..., None]] = None
    stop: Optional[_SignalGuard] = None

    @property
    def initargs(self) -> Tuple:
        """Arguments for ``initializer`` — what workers need to warm up."""
        return (self.provider, self.program)


class DispatchTransport:
    """Interface between engines and whatever executes their chunks."""

    #: Short name surfaced as the engine name in telemetry and summaries.
    name: str = "?"

    def execute(self, request: DispatchRequest) -> SupervisedRun:
        """Run every task of ``request``; return a :class:`SupervisedRun`."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (sockets, worker pools)."""

    def __enter__(self) -> "DispatchTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class InProcessTransport(DispatchTransport):
    """Runs chunks one at a time in the calling process.

    No retries (a deterministic failure would only repeat), immediate
    bisection down to the failing unit, and no pickling or copying of
    payloads.  Library errors (:class:`~repro.errors.ReproError`) mean the
    campaign itself is misconfigured and propagate unchanged.
    """

    name = "serial"

    def execute(self, request: DispatchRequest) -> SupervisedRun:
        return Scheduler.for_request(request, max_retries=0).run(_InProcessExecutor(request))


class _InProcessExecutor:
    def __init__(self, request: DispatchRequest) -> None:
        self._request = request
        self._state: Any = None
        self._ready = False

    def busy(self) -> bool:
        return False

    def step(self, scheduler: Scheduler) -> None:
        # Backoff never applies here: chunks handed over by a degraded pool
        # run at once.
        task = scheduler.pending[0]
        scheduler.grant(task)
        if not self._ready:
            self._state = self._request.initializer(*self._request.initargs)
            self._ready = True
        try:
            body = task.fn(self._state, task.payload)
        except ReproError:
            raise
        except Exception:
            scheduler.fail(task, traceback.format_exc(limit=16), time.monotonic())
        else:
            scheduler.complete(task, body)

    def shutdown(self, scheduler: Scheduler) -> List[ChunkTask]:
        return []
