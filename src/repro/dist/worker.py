"""Worker-host agent: executes leased chunks against a local engine.

A :class:`WorkerAgent` connects to a coordinator
(:class:`repro.dist.coordinator.CoordinatorTransport`), announces its
capacity, and pulls work: each ``work`` message carries the initializer and
provider the chunks need plus a batch of leases.  The agent localizes the
provider to its own artifact cache (``--cache-dir``), warms per-workload
state once per ``(initializer, program, provider)`` and reuses it across
rounds, then streams back one ``done``/``fail`` frame per lease — results
travel with the telemetry metric delta they produced, exactly like the
single-host supervisor pipe.

Robustness: the connection is heartbeated from a side thread; any socket or
protocol failure tears the connection down and the agent reconnects with
capped exponential backoff (a healed partition rejoins the run and is
granted fresh work).  ``jobs > 1`` executes each lease batch on the agent's
own supervised process pool, so a crashing experiment costs the agent a
pool worker, not the agent — the coordinator only ever sees a clean
``fail`` frame.  Network chaos knobs (:mod:`repro.dist.chaos`) inject dead
hosts, severed connections and delayed completions for the chaos suite.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Optional

from repro.campaign.engine import RegistryProvider
from repro.campaign.dispatch import ChunkTask
from repro.campaign.supervisor import ChunkSupervisor
from repro.dist.chaos import NetChaos
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

#: ``run()`` exit codes, surfaced by ``repro worker``.
EXIT_OK = 0
EXIT_UNREACHABLE = 3


class _SeverConnection(Exception):
    """Internal: chaos asked for an abrupt disconnect (then reconnect)."""


class WorkerAgent:
    """One worker host's connection to the coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        name: Optional[str] = None,
        reconnect_attempts: int = 20,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        start_method: Optional[str] = None,
        max_retries: int = 1,
        chaos: Optional[NetChaos] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.jobs = max(1, jobs)
        self.cache_dir = cache_dir
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.reconnect_attempts = max(0, reconnect_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.max_retries = max_retries
        self.chaos = chaos if chaos is not None else NetChaos.from_env()
        self._stop = threading.Event()
        self._state = None
        self._state_key = None
        self._leases_received = 0

    def stop(self) -> None:
        """Ask a thread-hosted agent to wind down after its current lease."""
        self._stop.set()

    # -- connection lifecycle ------------------------------------------------------

    def run(self) -> int:
        """Serve until stood down.  Returns a ``repro worker`` exit code."""
        attempts = 0
        while not self._stop.is_set():
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=10.0
                )
            except OSError:
                attempts += 1
                if attempts > self.reconnect_attempts:
                    return EXIT_UNREACHABLE
                delay = min(
                    self.backoff_cap, self.backoff_base * (2 ** (attempts - 1))
                )
                if self._stop.wait(delay):
                    return EXIT_OK
                continue
            attempts = 0
            outcome = "retry"
            try:
                outcome = self._serve(sock)
            except _SeverConnection:
                # Chaos partition: drop the socket on the floor, no goodbye.
                outcome = "retry"
            except (ProtocolError, OSError):
                outcome = "retry"
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            if outcome == "final" or self._stop.is_set():
                return EXIT_OK
        return EXIT_OK

    def _serve(self, sock: socket.socket) -> str:
        send_frame(
            sock,
            {
                "type": MSG_HELLO,
                "version": PROTOCOL_VERSION,
                "name": self.name,
                "pid": os.getpid(),
                "jobs": self.jobs,
            },
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != MSG_WELCOME:
            raise ProtocolError(f"expected welcome, got {welcome!r}")
        heartbeat_every = max(0.05, float(welcome.get("heartbeat_interval", 5.0)))
        # A stuck coordinator reads as a timeout → reconnect with backoff.
        sock.settimeout(max(10.0, 4 * heartbeat_every))
        send_lock = threading.Lock()
        hb_stop = threading.Event()

        def heartbeat() -> None:
            while not hb_stop.wait(heartbeat_every):
                try:
                    with send_lock:
                        send_frame(sock, {"type": MSG_HEARTBEAT})
                except (OSError, ProtocolError):
                    return

        hb_thread = threading.Thread(
            target=heartbeat, name="repro-worker-heartbeat", daemon=True
        )
        hb_thread.start()
        try:
            while not self._stop.is_set():
                with send_lock:
                    send_frame(sock, {"type": MSG_NEXT, "max": self.jobs})
                message = recv_frame(sock)
                if message is None:
                    return "retry"
                mtype = message.get("type")
                if mtype == MSG_WAIT:
                    if self._stop.wait(min(heartbeat_every, 0.25)):
                        return "final"
                elif mtype == MSG_WORK:
                    self._execute_round(sock, send_lock, message)
                elif mtype == MSG_STAND_DOWN:
                    # Final: the campaign is over.  Non-final (interrupt):
                    # back off and re-dial, in case the run is resumed.
                    return "final" if message.get("final") else "retry"
            return "final"
        finally:
            hb_stop.set()
            hb_thread.join(timeout=1.0)

    # -- work execution ------------------------------------------------------------

    def _localize(self, provider):
        if self.cache_dir is not None and isinstance(provider, RegistryProvider):
            return dataclasses.replace(provider, cache_dir=str(Path(self.cache_dir)))
        return provider

    def _warm_state(self, message: dict):
        initializer = message["initializer"]
        program = message["program"]
        provider = message["provider"]
        key = (initializer, program, provider)
        if self._state_key != key:
            self._state = initializer(self._localize(provider), program)
            self._state_key = key
        return self._state

    def _apply_chaos(self, entry: dict) -> None:
        self._leases_received += 1
        nth = self._leases_received
        if self.chaos.kill_nth and nth == self.chaos.kill_nth:
            os._exit(137)
        if self.chaos.sever_nth and nth == self.chaos.sever_nth:
            raise _SeverConnection()
        if self.chaos.delay_nth and nth == self.chaos.delay_nth:
            time.sleep(self.chaos.delay_seconds)

    def _execute_round(self, sock, send_lock, message: dict) -> None:
        entries = message.get("leases") or []
        if not entries:
            return
        if self.jobs > 1 and len(entries) > 1:
            self._execute_pooled(sock, send_lock, message, entries)
            return
        state = self._warm_state(message)
        for entry in entries:
            self._apply_chaos(entry)
            metrics_before = (
                telemetry_metrics.registry().snapshot()
                if telemetry_metrics.enabled()
                else None
            )
            try:
                body = entry["fn"](state, entry["payload"])
            except Exception:
                reply = {
                    "type": MSG_FAIL,
                    "lease": entry["lease"],
                    "chunk": entry["chunk"],
                    "count": entry["count"],
                    "error": traceback.format_exc(limit=16),
                }
            else:
                delta = (
                    telemetry_metrics.registry().snapshot_delta(metrics_before)
                    if metrics_before is not None
                    else None
                )
                reply = {
                    "type": MSG_DONE,
                    "lease": entry["lease"],
                    "chunk": entry["chunk"],
                    "count": entry["count"],
                    "body": body,
                    "metrics": delta,
                }
            with send_lock:
                send_frame(sock, reply)

    def _execute_pooled(self, sock, send_lock, message: dict, entries) -> None:
        """Run one lease batch on this host's supervised process pool."""
        for entry in entries:
            self._apply_chaos(entry)
        tasks = [
            ChunkTask(
                entry["chunk"],
                entry["fn"],
                entry["payload"],
                entry["count"],
                meta={"lease": entry["lease"]},
            )
            for entry in entries
        ]
        by_chunk = {entry["chunk"]: entry for entry in entries}
        metrics_before = (
            telemetry_metrics.registry().snapshot()
            if telemetry_metrics.enabled()
            else None
        )

        def on_chunk_done(task: ChunkTask, body) -> None:
            with send_lock:
                send_frame(
                    sock,
                    {
                        "type": MSG_DONE,
                        "lease": task.meta["lease"],
                        "chunk": task.chunk_id,
                        "count": task.size,
                        "body": body,
                        "metrics": None,
                    },
                )

        supervisor = ChunkSupervisor(
            jobs=min(self.jobs, len(tasks)),
            context=multiprocessing.get_context(self.start_method),
            initializer=message["initializer"],
            initargs=(self._localize(message["provider"]), message["program"]),
            max_retries=self.max_retries,
            quarantine=True,
        )
        outcome = supervisor.run(tasks, on_chunk_done=on_chunk_done)
        for failed in outcome.quarantined:
            entry = by_chunk.get(failed.task.chunk_id)
            if entry is None:
                continue
            with send_lock:
                send_frame(
                    sock,
                    {
                        "type": MSG_FAIL,
                        "lease": entry["lease"],
                        "chunk": entry["chunk"],
                        "count": entry["count"],
                        "error": failed.error,
                    },
                )
        for task in outcome.unfinished:
            entry = by_chunk.get(task.chunk_id)
            if entry is None:
                continue
            with send_lock:
                send_frame(
                    sock,
                    {
                        "type": MSG_FAIL,
                        "lease": entry["lease"],
                        "chunk": entry["chunk"],
                        "count": entry["count"],
                        "error": "worker pool degraded before the chunk ran",
                    },
                )
        if metrics_before is not None:
            delta = telemetry_metrics.registry().snapshot_delta(metrics_before)
            if delta:
                with send_lock:
                    send_frame(sock, {"type": MSG_METRICS, "delta": delta})
