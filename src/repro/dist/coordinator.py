"""Fault-tolerant lease coordinator: the multi-host dispatch transport.

:class:`CoordinatorTransport` implements the engine's
:class:`~repro.campaign.dispatch.DispatchTransport` seam over a TCP listener.
Worker-host agents (:mod:`repro.dist.worker`) connect, announce their
capacity, and *pull* work: the coordinator grants deterministic, tick-sorted
chunk ranges under expiring leases and records completions through the
engine's callbacks — which fsync the same write-ahead chunk ledger the local
path uses, so coordinator crash recovery is plain ``--resume``.

The coordinator is the remote-lease executor under the shared
:class:`~repro.campaign.dispatch.Scheduler`, which owns the queue, retries,
backoff, EWMA deadlines, bisection and quarantine; this module adds only the
sockets, leases, heartbeats and placement:

* a **lease** is one chunk granted to one host; it expires when the host
  stops heartbeating (soft TTL) or blows its execution deadline (hard
  deadline), and the chunk is re-issued — preferring a different host;
* a host that disconnects, dies or partitions has all its leases failed
  back to the scheduler (retry, bisect, quarantine);
* duplicate completions (a re-issued chunk finishing twice) resolve
  first-recorded-wins: the ledger fsync inside ``on_chunk_done`` is the
  authority, later arrivals are dropped as ``duplicate_completion`` events;
* hosts may join or rejoin mid-run and are granted work immediately;
* if no host is serving and nothing is in flight for
  ``local_fallback_after`` seconds, the remaining chunks run on a local
  :class:`~repro.campaign.supervisor.ChunkSupervisor` pool — a coordinator
  with no cluster degrades to the ordinary local engine;
* SIGINT/SIGTERM stop granting, drain in-flight leases, tell connected
  hosts to stand down, and return with ``interrupted`` set so the engine
  raises :class:`~repro.errors.CampaignInterrupted` (the CLI then prints
  the exact ``--resume`` command and exits 130).

Determinism: chunks are location-independent (derived seeds, tick-sorted
payloads) and merge by start offset, so *which* host ran a chunk — or how
many times it was re-issued — cannot change the assembled bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.dispatch import (
    ChunkTask,
    DeadlineModel,
    DispatchRequest,
    DispatchTransport,
    Scheduler,
    SupervisedRun,
)
from repro.campaign.supervisor import ChunkSupervisor
from repro.dist.protocol import (
    MSG_DONE,
    MSG_FAIL,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_METRICS,
    MSG_NEXT,
    MSG_STAND_DOWN,
    MSG_WAIT,
    MSG_WELCOME,
    MSG_WORK,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.telemetry import metrics as telemetry_metrics


class _Host:
    """One connected worker-host agent."""

    __slots__ = (
        "host_id",
        "conn",
        "name",
        "capacity",
        "last_seen",
        "leases",
        "severed",
        "send_lock",
    )

    def __init__(self, host_id: int, conn: socket.socket, hello: dict) -> None:
        self.host_id = host_id
        self.conn = conn
        self.name = str(hello.get("name") or f"host-{host_id}")
        self.capacity = max(1, int(hello.get("jobs", 1) or 1))
        self.last_seen = time.monotonic()
        #: lease_id -> _Lease, owned by the execute() thread.
        self.leases: Dict[int, "_Lease"] = {}
        self.severed = False
        self.send_lock = threading.Lock()

    def send(self, message: dict) -> bool:
        try:
            with self.send_lock:
                send_frame(self.conn, message)
            return True
        except (OSError, ProtocolError):
            return False


@dataclass
class _Lease:
    """One chunk granted to one host, with its expiry bookkeeping."""

    lease_id: int
    task: ChunkTask
    host: _Host
    granted_at: float
    deadline: float


@dataclass
class CoordinatorStats:
    """Distributed-layer tallies, surfaced next to supervision counters."""

    hosts_joined: int = 0
    hosts_left: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    duplicate_completions: int = 0
    local_fallback_units: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class CoordinatorTransport(DispatchTransport):
    """Socket-based lease dispatch across worker hosts.

    The listener opens in the constructor (``port=0`` picks an ephemeral
    port; read :attr:`address`) and persists across ``execute`` rounds, so
    one coordinator session serves all three dispatch paths — inference,
    error space, experiments — to the same connected hosts.
    """

    name = "distributed"

    def __init__(
        self,
        bind: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: float = 15.0,
        heartbeat_interval: Optional[float] = None,
        local_fallback_after: float = 30.0,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        deadline_factor: float = 8.0,
        deadline_floor: float = 5.0,
        initial_deadline: float = 120.0,
    ) -> None:
        self._listener = socket.create_server((bind, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self.lease_ttl = max(0.2, lease_ttl)
        self.heartbeat_interval = heartbeat_interval or max(
            0.1, self.lease_ttl / 3.0
        )
        self.local_fallback_after = local_fallback_after
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        #: Persists across rounds: later rounds start from observed speed.
        self._deadlines = DeadlineModel(deadline_factor, deadline_floor, initial_deadline)
        self._events: "queue.Queue" = queue.Queue()
        self._hosts: Dict[int, _Host] = {}
        self._hosts_lock = threading.Lock()
        self._host_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._round = 0
        self._active = False
        self._closed = False
        self.stats = CoordinatorStats()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # -- connection plumbing (reader threads) -------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn)
        except (ProtocolError, OSError):
            hello = None
        if not hello or hello.get("type") != MSG_HELLO:
            try:
                conn.close()
            except OSError:
                pass
            return
        host = _Host(next(self._host_ids), conn, hello)
        if not host.send(
            {
                "type": MSG_WELCOME,
                "version": PROTOCOL_VERSION,
                "heartbeat_interval": self.heartbeat_interval,
                "lease_ttl": self.lease_ttl,
            }
        ):
            return
        with self._hosts_lock:
            self._hosts[host.host_id] = host
        self._events.put(("join", host, None))
        reason = "connection closed"
        while True:
            try:
                message = recv_frame(conn)
            except ProtocolError as exc:
                reason = str(exc)
                break
            except OSError as exc:
                reason = f"socket error: {exc!r}"
                break
            if message is None:
                break
            host.last_seen = time.monotonic()
            mtype = message.get("type")
            if mtype == MSG_HEARTBEAT:
                continue
            if mtype == MSG_NEXT and not self._active:
                # Between dispatch rounds there is nothing to grant; answer
                # directly so idle agents never time out waiting.
                host.send({"type": MSG_WAIT})
                continue
            self._events.put(("msg", host, message))
        with self._hosts_lock:
            self._hosts.pop(host.host_id, None)
        try:
            conn.close()
        except OSError:
            pass
        self._events.put(("gone", host, reason))

    def _sever(self, host: _Host, reason: str) -> None:
        """Force-disconnect a host; its reader thread reports ``gone``."""
        if host.severed:
            return
        host.severed = True
        try:
            host.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            host.conn.close()
        except OSError:
            pass

    # -- the lease executor (one dispatch round) ------------------------------------

    def execute(self, request: DispatchRequest) -> SupervisedRun:
        # Per-round lease state; the listener and connected hosts persist.
        self._round += 1
        self._request = request
        self._leases: Dict[int, _Lease] = {}
        #: chunk_id -> host_id of the last host that failed it (for re-issue
        #: placement: prefer a different host when one exists).
        self._last_failed: Dict[int, int] = {}
        self._last_activity = time.monotonic()
        self._local: Optional[ChunkSupervisor] = None
        self._active = True
        scheduler = Scheduler.for_request(
            request,
            backoff_base=self._backoff_base,
            backoff_cap=self._backoff_cap,
            deadlines=self._deadlines,
        )
        return scheduler.run(self)

    def busy(self) -> bool:
        if self._local is not None:
            return self._local.busy()
        return bool(self._leases)

    def step(self, scheduler: Scheduler) -> None:
        if self._local is not None:
            self._local.step(scheduler)
            return
        try:
            event = self._events.get(timeout=0.1)
        except queue.Empty:
            event = None
        while event is not None:
            self._handle(scheduler, event, time.monotonic())
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                event = None
        now = time.monotonic()

        # Soft expiry: a host that stopped heartbeating loses all its leases
        # (sever → its reader reports gone → chunks re-issue).
        for host in self._snapshot_hosts():
            if host.leases and now - host.last_seen > self.lease_ttl:
                scheduler.stats.timeouts += 1
                self.stats.leases_expired += len(host.leases)
                scheduler.emit(
                    "lease_expired",
                    host=host.name,
                    chunks=sorted(l.task.chunk_id for l in host.leases.values()),
                    reason="heartbeat lost",
                )
                self._sever(host, "lease TTL exceeded")

        # Hard deadline: a heartbeating host whose chunk is wedged.
        for lease in list(self._leases.values()):
            if now > lease.deadline:
                scheduler.stats.timeouts += 1
                self.stats.leases_expired += 1
                self._revoke(lease)
                scheduler.emit(
                    "lease_expired",
                    host=lease.host.name,
                    chunks=[lease.task.chunk_id],
                    reason="deadline exceeded",
                )
                scheduler.fail(
                    lease.task, f"lease deadline exceeded on {lease.host.name}", now
                )

        # Graceful degradation: nobody is serving and nothing moved for
        # local_fallback_after seconds — run the rest on a local pool.
        if (
            scheduler.pending
            and not self._leases
            and not scheduler.stopping
            and not self._snapshot_hosts()
            and now - self._last_activity >= self.local_fallback_after
        ):
            units = sum(t.size for t in scheduler.pending)
            self.stats.local_fallback_units += units
            scheduler.emit(
                "dist_local_fallback", chunks=len(scheduler.pending), units=units
            )
            self._local = ChunkSupervisor.for_request(
                dataclasses.replace(self._request, tasks=scheduler.pending)
            )

    def shutdown(self, scheduler: Scheduler) -> List[ChunkTask]:
        self._active = False
        if scheduler.stopping:
            for host in self._snapshot_hosts():
                host.send({"type": MSG_STAND_DOWN, "final": False, "reason": "interrupted"})
        return self._local.shutdown(scheduler) if self._local is not None else []

    def _revoke(self, lease: _Lease) -> None:
        self._leases.pop(lease.lease_id, None)
        lease.host.leases.pop(lease.lease_id, None)
        self._last_failed[lease.task.chunk_id] = lease.host.host_id

    def _handle(self, scheduler: Scheduler, event, now: float) -> None:
        name, host, detail = event
        if name == "join":
            self.stats.hosts_joined += 1
            self._last_activity = now
            scheduler.emit("worker_joined", host=host.name, capacity=host.capacity)
            return
        if name == "gone":
            self.stats.hosts_left += 1
            if host.leases:
                scheduler.stats.worker_restarts += 1
            scheduler.emit("worker_left", host=host.name, reason=str(detail)[-200:])
            for lease in list(host.leases.values()):
                self._revoke(lease)
                scheduler.fail(lease.task, f"host left: {detail}", now)
            return
        # name == "msg"
        mtype = detail.get("type")
        if mtype == MSG_NEXT:
            self._grant(scheduler, host, now)
        elif mtype == MSG_DONE:
            self._accept_done(scheduler, host, detail, now)
        elif mtype == MSG_FAIL:
            lease = self._leases.get(detail.get("lease"))
            if lease is not None:
                self._revoke(lease)
                scheduler.fail(
                    lease.task, str(detail.get("error", "worker reported failure")), now
                )
        elif mtype == MSG_METRICS:
            delta = detail.get("delta")
            if delta:
                telemetry_metrics.registry().merge(delta)

    def _accept_done(self, scheduler: Scheduler, host: _Host, message: dict, now: float) -> None:
        chunk_id = message.get("chunk")
        lease = self._leases.pop(message.get("lease"), None)
        if lease is not None:
            lease.host.leases.pop(lease.lease_id, None)
            task: Optional[ChunkTask] = lease.task
        else:
            # The lease expired (or its host was severed) but the work itself
            # survived: still first-wins.  The chunk may be queued again or
            # leased to another host — withdraw it from wherever it lives.
            task = self._withdraw(scheduler, chunk_id, message.get("count"))
        elapsed = now - lease.granted_at if lease is not None else None
        if task is None or not scheduler.complete(task, message.get("body"), elapsed):
            # Another execution already fsync'd this chunk's ledger record.
            self.stats.duplicate_completions += 1
            scheduler.emit("duplicate_completion", chunk=chunk_id, host=host.name)
            return
        metrics_delta = message.get("metrics")
        if metrics_delta:
            telemetry_metrics.registry().merge(metrics_delta)
        self._last_activity = now

    def _withdraw(self, scheduler: Scheduler, chunk_id, count) -> Optional[ChunkTask]:
        # Match the size too: a bisected child shares its parent's offset.
        for task in scheduler.pending:
            if task.chunk_id == chunk_id and task.size == count:
                scheduler.pending.remove(task)
                return task
        for lease in list(self._leases.values()):
            if lease.task.chunk_id == chunk_id and lease.task.size == count:
                self._leases.pop(lease.lease_id, None)
                lease.host.leases.pop(lease.lease_id, None)
                return lease.task
        return None

    def _grant(self, scheduler: Scheduler, host: _Host, now: float) -> None:
        if scheduler.stopping:
            host.send({"type": MSG_STAND_DOWN, "final": False, "reason": "interrupted"})
            return
        free = host.capacity - len(host.leases)
        eligible = scheduler.eligible(now) if free > 0 else []
        if eligible and len(self._snapshot_hosts()) > 1:
            preferred = [
                t for t in eligible if self._last_failed.get(t.chunk_id) != host.host_id
            ]
            eligible = preferred or eligible
        if not eligible:
            host.send({"type": MSG_WAIT})
            return
        batch = eligible[:free]
        entries = []
        for task in batch:
            scheduler.grant(task)
            lease = _Lease(
                lease_id=next(self._lease_ids),
                task=task,
                host=host,
                granted_at=now,
                # Worst case the host runs its whole grant batch sequentially
                # before this lease; scale the allowance so parallel agents
                # are never punished for honest queueing.
                deadline=scheduler.deadline(task, now, len(batch)),
            )
            self._leases[lease.lease_id] = lease
            host.leases[lease.lease_id] = lease
            self.stats.leases_granted += 1
            entries.append(
                {
                    "lease": lease.lease_id,
                    "fn": task.fn,
                    "chunk": task.chunk_id,
                    "count": task.size,
                    "payload": task.payload,
                }
            )
            scheduler.emit(
                "lease_granted", chunk=task.chunk_id, count=task.size, host=host.name
            )
        self._last_activity = now
        sent = host.send(
            {
                "type": MSG_WORK,
                "round": self._round,
                "kind": self._request.kind,
                "program": self._request.program,
                "provider": self._request.provider,
                "initializer": self._request.initializer,
                "leases": entries,
            }
        )
        if not sent:
            self._sever(host, "send failed")

    def _snapshot_hosts(self) -> List[_Host]:
        with self._hosts_lock:
            return list(self._hosts.values())

    @property
    def connected_hosts(self) -> List[str]:
        return [host.name for host in self._snapshot_hosts()]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for host in self._snapshot_hosts():
            host.send({"type": MSG_STAND_DOWN, "final": True, "reason": "finished"})
            self._sever(host, "coordinator closing")
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
