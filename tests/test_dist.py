"""Chaos tests for multi-host distributed campaign dispatch.

Covers the framed wire protocol, the lease coordinator (host death, network
partitions, duplicate completions, late joins, local fallback), coordinator
crash + ``--resume``, and the end-to-end guarantee that 1-host, N-host and
killed-then-resumed N-host runs produce byte-identical result stores across
the decoded and compiled backends.

In-process tests host :class:`~repro.dist.worker.WorkerAgent` on a thread
(``jobs=1`` executes leases in-process, so no daemonic-children issues);
session-level tests spawn real ``repro worker`` subprocesses over loopback
sockets, exactly as an operator would.
"""

import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import CampaignConfig, MultiprocessEngine, SerialEngine
from repro.dist import (
    CoordinatorTransport,
    MAX_FRAME_BYTES,
    NetChaos,
    ProtocolError,
    WorkerAgent,
    recv_frame,
    send_frame,
)
from repro.dist.worker import _SeverConnection
from repro.errors import CampaignInterrupted
from repro.frontend import compile_program
from repro.injection import ExperimentRunner
from repro.injection.faultmodel import win_size_by_index

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TINY_PROGRAM = '''
def main() -> "i64":
    total = 0
    for i in range(12):
        scratch[i % 4] = i * 7
        total += scratch[i % 4]
    output(total)
    return total
'''

#: One runner per thread: agents served from threads stand for separate
#: hosts, and an ExperimentRunner (its pooled interpreter) is not shared
#: between threads.
_RUNNERS = threading.local()


@pytest.fixture(autouse=True)
def _reset_global_caches():
    """In-process agents and sessions configure the global artifact cache
    and warm the registry LRUs; put both back so later test modules start
    from the cold-host state they expect."""
    yield
    from repro import artifacts
    from repro.programs import registry

    artifacts.configure(None)
    registry.build_program.cache_clear()
    registry.get_decoded_program.cache_clear()
    registry.get_defuse_index.cache_clear()
    registry.get_experiment_runner.cache_clear()


def dist_provider(name):
    """Module-level (hence picklable-by-reference) runner provider."""
    runner = getattr(_RUNNERS, "runner", None)
    if runner is None:
        program = compile_program(
            "tiny", [TINY_PROGRAM], {"scratch": ("i32", [0, 0, 0, 0])}
        )
        runner = _RUNNERS.runner = ExperimentRunner(program)
    return runner


def tiny_config(**overrides):
    defaults = dict(
        program="tiny",
        technique="inject-on-write",
        max_mbf=3,
        win_size=win_size_by_index("w4"),
        experiments=32,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def result_signature(result):
    return (
        result.resolved_win_size,
        result.outcome_counts.as_dict(),
        result.activated_histogram,
        [record.to_tuple() for record in result.records],
    )


class _DyingAgent(WorkerAgent):
    """Drops the connection and permanently exits after ``die_after`` leases
    — a worker host that loses power, as opposed to a healed partition."""

    def __init__(self, *args, die_after=2, **kwargs):
        super().__init__(*args, **kwargs)
        self._die_after = die_after

    def _apply_chaos(self, entry):
        super()._apply_chaos(entry)
        if self._leases_received >= self._die_after:
            self.stop()
            raise _SeverConnection()


class _ThrottledAgent(WorkerAgent):
    """Sleeps briefly before every lease, keeping dispatch rounds alive long
    enough for slower cross-host races to play out deterministically."""

    def __init__(self, *args, throttle=0.15, **kwargs):
        super().__init__(*args, **kwargs)
        self._throttle = throttle

    def _apply_chaos(self, entry):
        super()._apply_chaos(entry)
        time.sleep(self._throttle)


class _AgentThread:
    """A WorkerAgent served from a daemon thread (in-process execution)."""

    def __init__(self, address, agent_cls=WorkerAgent, **kwargs):
        host, port = address
        self.agent = agent_cls(host, port, **kwargs)
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = self.agent.run()

    def start(self):
        self.thread.start()
        return self

    def join(self, timeout=20.0):
        self.agent.stop()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "worker agent failed to wind down"


def coordinator_engine(**kwargs):
    transport = CoordinatorTransport(
        "127.0.0.1",
        0,
        lease_ttl=kwargs.pop("lease_ttl", 2.0),
        local_fallback_after=kwargs.pop("local_fallback_after", 120.0),
    )
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("chunk_size", 4)
    engine = MultiprocessEngine(transport=transport, **kwargs)
    return engine, transport


# -- wire protocol ------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "done", "chunk": 3, "body": [1, 2, {"deep": "x"}]}
            send_frame(a, message)
            assert recv_frame(b) == message
            send_frame(b, {"type": "next", "max": 4})
            assert recv_frame(a) == {"type": "next", "max": 4}
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        send_frame(a, {"type": "hello"})
        a.close()
        try:
            assert recv_frame(b) == {"type": "hello"}
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        payload = pickle.dumps({"type": "done"})
        a.sendall(struct.pack(">I", len(payload)) + payload[: len(payload) // 2])
        a.close()
        try:
            with pytest.raises(ProtocolError, match="dropped inside a frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(ProtocolError, match="frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_mapping_message_rejected(self):
        a, b = socket.socketpair()
        payload = pickle.dumps(["not", "a", "dict"])
        a.sendall(struct.pack(">I", len(payload)) + payload)
        try:
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_chaos_knobs_parse_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_NET_KILL_NTH_CHUNK", "3")
        monkeypatch.setenv("REPRO_CHAOS_NET_DELAY_NTH_CHUNK", "2")
        monkeypatch.setenv("REPRO_CHAOS_NET_DELAY_SECONDS", "0.5")
        chaos = NetChaos.from_env()
        assert chaos.kill_nth == 3
        assert chaos.delay_nth == 2
        assert chaos.delay_seconds == 0.5
        assert chaos.enabled


# -- coordinator + worker agents: determinism under chaos ---------------------------


class TestDistributedCampaigns:
    def test_two_hosts_bit_identical(self):
        config = tiny_config(experiments=32)
        serial = SerialEngine().run(config, provider=dist_provider)
        engine, transport = coordinator_engine()
        agents = [
            _AgentThread(transport.address, name=f"host-{i}").start()
            for i in range(2)
        ]
        try:
            result = engine.run(config, provider=dist_provider)
        finally:
            engine.close()
            for agent in agents:
                agent.join()
        assert result_signature(result) == result_signature(serial)
        assert transport.stats.hosts_joined == 2
        assert transport.stats.leases_granted >= 8
        assert engine.supervision["distributed"]["hosts_joined"] == 2
        assert all(agent.exit_code == 0 for agent in agents)

    def test_dead_host_leases_reissued_to_survivor(self):
        """One host severs mid-run and never returns; the survivor absorbs
        its leases and the merged result is unchanged."""
        config = tiny_config(experiments=24)
        serial = SerialEngine().run(config, provider=dist_provider)
        engine, transport = coordinator_engine(lease_ttl=0.5)
        doomed = _AgentThread(
            transport.address,
            agent_cls=_DyingAgent,
            die_after=2,
            name="doomed",
            chaos=NetChaos(),
        ).start()
        survivor = _AgentThread(transport.address, name="survivor").start()
        try:
            result = engine.run(config, provider=dist_provider)
        finally:
            engine.close()
            doomed.join()
            survivor.join()
        assert result_signature(result) == result_signature(serial)
        assert transport.stats.hosts_left >= 1

    def test_partitioned_host_reconnects_and_finishes(self):
        """A severed connection heals: the agent redials with backoff and
        the same host identity completes the campaign."""
        config = tiny_config(experiments=16)
        serial = SerialEngine().run(config, provider=dist_provider)
        engine, transport = coordinator_engine(lease_ttl=0.5)
        agent = _AgentThread(
            transport.address,
            name="flaky",
            chaos=NetChaos(sever_nth=2),
            backoff_base=0.05,
        ).start()
        try:
            result = engine.run(config, provider=dist_provider)
        finally:
            engine.close()
            agent.join()
        assert result_signature(result) == result_signature(serial)
        assert transport.stats.hosts_joined >= 2  # original join + rejoin

    def test_duplicate_completion_first_write_wins(self):
        """A delayed host completes a lease the coordinator already expired
        and re-issued; the late completion is counted and discarded."""
        config = tiny_config(experiments=96)
        serial = SerialEngine().run(config, provider=dist_provider)
        engine, transport = coordinator_engine(
            lease_ttl=5.0, chunk_timeout=0.5, jobs=1, chunk_size=4
        )
        # The workhorse keeps the round alive (~3.5s of throttled chunks);
        # the victim sleeps through its first lease's hard deadline, so the
        # chunk is re-issued to the workhorse and completed twice.
        workhorse = _AgentThread(
            transport.address, agent_cls=_ThrottledAgent, name="workhorse"
        ).start()
        victim = _AgentThread(
            transport.address,
            name="victim",
            chaos=NetChaos(delay_nth=1, delay_seconds=1.2),
        ).start()
        try:
            result = engine.run(config, provider=dist_provider)
        finally:
            engine.close()
            workhorse.join()
            victim.join()
        assert result_signature(result) == result_signature(serial)
        assert transport.stats.duplicate_completions >= 1

    def test_no_hosts_falls_back_to_local_pool(self):
        config = tiny_config(experiments=16)
        serial = SerialEngine().run(config, provider=dist_provider)
        engine, transport = coordinator_engine(local_fallback_after=0.2)
        try:
            result = engine.run(config, provider=dist_provider)
        finally:
            engine.close()
        assert result_signature(result) == result_signature(serial)
        assert transport.stats.local_fallback_units == config.experiments
        assert (
            engine.supervision["distributed"]["local_fallback_units"]
            == config.experiments
        )

    def test_late_join_is_granted_work(self):
        config = tiny_config(experiments=16)
        serial = SerialEngine().run(config, provider=dist_provider)
        engine, transport = coordinator_engine()
        agent = _AgentThread(transport.address, name="latecomer")
        timer = threading.Timer(0.5, agent.start)
        timer.start()
        try:
            result = engine.run(config, provider=dist_provider)
        finally:
            timer.cancel()
            engine.close()
            if agent.thread.is_alive() or agent.exit_code is not None:
                agent.join()
        assert result_signature(result) == result_signature(serial)
        assert transport.stats.hosts_joined == 1


# -- coordinator crash + resume -----------------------------------------------------


class TestDistributedResume:
    def test_coordinator_crash_then_resume_bit_identical(
        self, tmp_path, monkeypatch
    ):
        config = tiny_config(experiments=32)
        serial = SerialEngine().run(config, provider=dist_provider)
        ledger_dir = str(tmp_path / "ledger")

        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "2")
        engine, transport = coordinator_engine(ledger_dir=ledger_dir)
        agent = _AgentThread(transport.address, name="round-one").start()
        try:
            with pytest.raises(CampaignInterrupted) as interrupted:
                engine.run(config, provider=dist_provider)
        finally:
            engine.close()
            agent.join()
        assert interrupted.value.resumable
        assert 0 < interrupted.value.done < config.experiments
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")

        second, transport2 = coordinator_engine(ledger_dir=ledger_dir, resume=True)
        agent2 = _AgentThread(transport2.address, name="round-two").start()
        try:
            resumed = second.run(config, provider=dist_provider)
        finally:
            second.close()
            agent2.join()
        assert result_signature(resumed) == result_signature(serial)
        assert second.supervision["ledger_loaded_units"] == interrupted.value.done


# -- session-level byte identity: real worker subprocesses --------------------------


def _worker_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Worker subprocesses must not inherit the coordinator-side abort knob.
    env.pop("REPRO_CHAOS_ABORT_AFTER_CHUNKS", None)
    env.update(extra or {})
    return env


def _spawn_worker(address, cache_dir, extra_env=None):
    host, port = address
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            f"{host}:{port}",
            "--cache-dir",
            str(cache_dir),
            "--reconnect-attempts",
            "3",
        ],
        env=_worker_env(extra_env),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _session_store_bytes(
    tmp_path, label, backend, *, hosts=0, worker_envs=(), resume=False
):
    """Run one small crc32 campaign through a session; return the store bytes."""
    from repro.experiments.session import ExperimentSession

    cache = tmp_path / f"{label}.json"
    session = ExperimentSession(
        cache_path=cache,
        cache_dir=tmp_path / f"{label}.artifacts",
        backend=backend,
        hosts=hosts,
        resume=resume,
    )
    workers = []
    config = CampaignConfig(
        program="crc32",
        technique="inject-on-read",
        max_mbf=1,
        win_size=win_size_by_index("w1"),
        experiments=6,
    )
    try:
        if hosts:
            for index, extra in enumerate(worker_envs):
                workers.append(
                    _spawn_worker(
                        session.coordinator_address,
                        tmp_path / f"{label}-worker{index}.cache",
                        extra,
                    )
                )
        session.ensure([config])
    finally:
        session.close()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    return cache.read_bytes()


@pytest.mark.parametrize("backend", ["decoded", "compiled"])
class TestSessionByteIdentity:
    def test_topologies_produce_identical_stores(self, tmp_path, backend):
        """1-host, 2-worker and killed-worker runs all byte-match serial."""
        baseline = _session_store_bytes(tmp_path, "serial", backend)
        one_host = _session_store_bytes(
            tmp_path, "one", backend, hosts=1, worker_envs=[{}]
        )
        two_hosts = _session_store_bytes(
            tmp_path, "two", backend, hosts=2, worker_envs=[{}, {}]
        )
        killed = _session_store_bytes(
            tmp_path,
            "killed",
            backend,
            hosts=2,
            worker_envs=[{"REPRO_CHAOS_NET_KILL_NTH_CHUNK": "1"}, {}],
        )
        assert one_host == baseline
        assert two_hosts == baseline
        assert killed == baseline

    def test_coordinator_crash_then_resume_matches(
        self, tmp_path, backend, monkeypatch
    ):
        baseline = _session_store_bytes(tmp_path, "serial", backend)
        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "1")
        with pytest.raises(CampaignInterrupted):
            _session_store_bytes(
                tmp_path, "crashed", backend, hosts=1, worker_envs=[{}]
            )
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")
        resumed = _session_store_bytes(
            tmp_path, "crashed", backend, hosts=1, worker_envs=[{}], resume=True
        )
        assert resumed == baseline
