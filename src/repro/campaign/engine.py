"""Pluggable campaign execution engines over one chunk pipeline.

A campaign is an embarrassingly parallel bag of experiments: every experiment
is fully determined by ``CampaignConfig.experiment_seed(index)``, so the only
shared state a worker needs is the compiled workload and its golden trace.
This module exploits that with two interchangeable engines:

* :class:`SerialEngine` — runs every chunk in-process, in index order;
* :class:`MultiprocessEngine` — fans chunks out through a
  :class:`~repro.campaign.dispatch.DispatchTransport`: supervised worker
  processes on this host (:mod:`repro.campaign.supervisor`) or remote worker
  hosts (:mod:`repro.dist`).  Each worker builds the compiled workload +
  golden trace once (LLFI's profile-once/inject-many split,
  batch-dispatched) and returns picklable partial results that the parent
  merges in index order.

Every entry point — sampled campaigns (:meth:`ExecutionEngine.run`),
exhaustive error batches (:meth:`ExecutionEngine.run_errors`) and the
planner's inference pass (:meth:`MultiprocessEngine.plan_infer_map`) — is a
:class:`ChunkJob` executed by the single :meth:`ExecutionEngine.run_job`,
which owns everything around the chunks:

* with a ledger directory configured, every completed chunk's partial is
  appended to a durable write-ahead ledger (:mod:`repro.campaign.ledger`),
  so a killed run restarted with ``resume=True`` executes only the missing
  chunks and assembles a result byte-identical to an uninterrupted run;
* SIGINT/SIGTERM drain in-flight chunks, flush the ledger and raise
  :class:`~repro.errors.CampaignInterrupted`;
* failing chunks are retried, bisected down to the offending unit and
  quarantined with the ``crashed`` outcome (or raised, under
  ``--no-quarantine``) by the shared scheduler
  (:mod:`repro.campaign.dispatch`); a worker pool that keeps crashing
  degrades to in-process execution with a warning instead of dying.

Because seeds are derived per experiment index rather than drawn from one
sequential stream, both engines produce bit-identical results for the same
configuration, and any experiment can be replayed in isolation by index.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.config import CampaignConfig
from repro.campaign.dispatch import (
    ChunkTask,
    DispatchRequest,
    DispatchTransport,
    InProcessTransport,
    SupervisorStats,
    _SignalGuard,
)
from repro.campaign.ledger import ChunkLedger
from repro.campaign.results import CampaignResult
from repro.campaign.supervisor import SupervisedPoolTransport
from repro.errors import CampaignInterrupted, ConfigurationError
from repro.injection.experiment import ExperimentResult, ExperimentRunner
from repro.injection.faultmodel import FaultSpec
from repro.injection.outcome import Outcome
from repro.injection.techniques import technique_by_name
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.events import RunLog

#: A provider maps a program name to a ready-to-use ExperimentRunner.
RunnerProvider = Callable[[str], ExperimentRunner]


def registry_provider(program_name: str) -> ExperimentRunner:
    """Resolve programs through the benchmark registry (imported lazily)."""
    from repro.programs.registry import get_experiment_runner

    return get_experiment_runner(program_name)


@dataclass(frozen=True)
class RegistryProvider:
    """A registry provider, picklable for worker pools.

    ``cache_dir`` points workers at the persistent artifact cache
    (:mod:`repro.artifacts`), so spawned processes warm up from disk instead
    of re-deriving golden traces, checkpoints, def-use indices and generated
    backend source.  ``backend`` selects the execution engine each worker's
    runner uses (``decoded``, ``compiled`` or ``reference``).  Decoded and
    compiled runners always fast-forward and window their faulty runs; the
    baselines without either are
    :class:`~repro.injection.experiment.ExperimentRunner` arguments only.
    """

    cache_dir: Optional[str] = None
    backend: str = "decoded"

    def prepare(self) -> None:
        """Activate this provider's artifact cache in the current process.

        Also sweeps stale temporary files left behind by cache writers that
        were SIGKILLed mid-store — restarted (``--resume``) runs reclaim the
        space and never mistake a torn ``.tmp`` for a real artifact.
        """
        if self.cache_dir is not None:
            from repro import artifacts

            artifacts.configure(self.cache_dir)
            cache = artifacts.active_cache()
            if cache is not None:
                cache.sweep_stale_tmp()

    def __call__(self, program_name: str) -> ExperimentRunner:
        from repro.programs.registry import get_experiment_runner

        self.prepare()
        return get_experiment_runner(program_name, backend=self.backend)


class CachingProvider:
    """Caches one ExperimentRunner per workload around any provider.

    A cached runner bundles everything a worker needs per workload: the
    compiled module, its decoded executable form
    (:attr:`~repro.injection.experiment.ExperimentRunner.decoded`) and the
    golden trace — so compile, decode and profile all happen once per
    process, and every experiment only pays for execution.

    Picklable as long as the wrapped provider is: the cache is dropped when
    the wrapper crosses a process boundary (compiled workloads are heavy and
    each worker profiles its own), so the default registry provider survives
    even ``spawn``-based pools.  Under ``fork``, workers inherit a warmed
    cache — decoded program and golden trace included — and skip all three
    steps entirely.
    """

    def __init__(self, provider: Optional[RunnerProvider] = None) -> None:
        self._provider = provider or registry_provider
        self._cache: dict = {}

    def __call__(self, program_name: str) -> ExperimentRunner:
        if program_name not in self._cache:
            self._cache[program_name] = self._provider(program_name)
        return self._cache[program_name]

    def __getstate__(self):
        return {"_provider": self._provider, "_cache": {}}


@dataclass(frozen=True)
class EngineProgress:
    """A progress snapshot emitted while a campaign executes."""

    campaign_id: str
    done: int
    total: int
    elapsed_seconds: float

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def experiments_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.done / self.elapsed_seconds

    @property
    def eta_seconds(self) -> Optional[float]:
        rate = self.experiments_per_second
        if rate <= 0.0:
            return None
        return (self.total - self.done) / rate


ProgressCallback = Callable[[EngineProgress], None]


def _phase_snapshot(runner: ExperimentRunner) -> dict:
    """Copy a runner's cumulative per-phase timers (missing on stubs: {})."""
    return dict(getattr(runner, "phase_seconds", None) or {})


def _phase_delta(runner: ExperimentRunner, before: dict) -> dict:
    """Per-phase seconds spent on ``runner`` since ``before`` was snapshot."""
    return {
        phase: total - before.get(phase, 0.0)
        for phase, total in _phase_snapshot(runner).items()
    }


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, e.g. inside containers)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def run_experiment_batch(
    runner: ExperimentRunner,
    config: CampaignConfig,
    resolved_win_size: int,
    start: int,
    count: int,
    *,
    keep_records: bool = True,
) -> CampaignResult:
    """Run experiments ``start .. start+count`` and return a partial result.

    Each experiment draws its own RNG from the campaign's derived seed for
    that index, so batches may execute in any order, on any process, and
    still reproduce exactly the same faults.

    Execution order within the batch is an implementation detail the results
    cannot observe: specs are sampled up front and *executed* sorted by first
    injection tick — consecutive experiments then restore from the same
    fast-forward checkpoint — while aggregation happens in submission order
    (a stable sort merged back), so the partial result is byte-identical to
    naive index-order execution.
    """
    technique = technique_by_name(config.technique)
    partial = CampaignResult(config=config, resolved_win_size=resolved_win_size)
    specs = [
        runner.seeded_spec(
            technique,
            max_mbf=config.max_mbf,
            win_size=resolved_win_size,
            seed=config.experiment_seed(index),
        )
        for index in range(start, start + count)
    ]
    order = sorted(range(len(specs)), key=lambda j: specs[j].first_dynamic_index)
    results: List[Optional[ExperimentResult]] = [None] * len(specs)
    phase_before = _phase_snapshot(runner)
    for j in order:
        results[j] = runner.run_spec(specs[j])
    partial.phase_seconds = _phase_delta(runner, phase_before)
    for experiment in results:
        partial.add_experiment(
            outcome=experiment.outcome,
            activated_errors=experiment.activated_errors,
            first_dynamic_index=experiment.spec.first_dynamic_index,
            first_slot=experiment.spec.first_slot,
            keep_record=keep_records,
        )
    return partial


def run_error_batch(
    runner: ExperimentRunner,
    technique_name: str,
    errors: Sequence[Tuple[int, Optional[int], int]],
) -> List[Outcome]:
    """Execute one batch of exhaustive single-bit errors; outcomes in order.

    Each error is a fully deterministic ``(dynamic_index, slot, bit)``
    triple (no RNG is consumed: the bit is pinned).  Like sampled batches,
    execution happens sorted by injection tick so consecutive experiments
    restore from the same fast-forward checkpoint, and results are merged
    back to submission order.
    """
    order = sorted(range(len(errors)), key=lambda j: errors[j][0])
    outcomes: List[Optional[Outcome]] = [None] * len(errors)
    for j in order:
        dynamic_index, slot, bit = errors[j]
        spec = FaultSpec(
            technique=technique_name,
            first_dynamic_index=dynamic_index,
            first_slot=slot,
            max_mbf=1,
            win_size=0,
            seed=0,
            first_bit=bit,
        )
        outcomes[j] = runner.run_spec(spec).outcome
    return outcomes


def persist_runner_artifacts(runner: ExperimentRunner) -> None:
    """Push a warm runner's derived artifacts into the artifact cache.

    Golden trace + checkpoints (fast-forwarding runners) and generated
    backend source (compiled runners).  No-op when no cache is active.
    Called by pooled engines before dispatch, so derivation happens once per
    host and spawned workers (which share only the disk) warm up from the
    cache.
    """
    if getattr(runner, "backend", None) == "compiled":
        from repro.vm.codegen import persist_compiled_source

        persist_compiled_source(runner.program.module)
    if not getattr(runner, "fast_forward", False):
        return
    from repro.vm.snapshot import persist_cached_golden

    persist_cached_golden(
        runner.program.module,
        entry=runner.program.entry,
        args=tuple(runner.args),
        checkpoint_interval=runner.checkpoint_interval,
        max_checkpoints=runner.max_checkpoints,
    )


# -- chunk jobs ---------------------------------------------------------------------
#
# Every dispatch path is a ChunkJob run by ExecutionEngine.run_job.  Workers
# receive ``(fn, chunk_id, payload)`` messages; ``fn`` is one of the
# module-level chunk functions below and ``state`` is whatever the job's
# initializer returned (an ExperimentRunner or an OutcomeInference engine).

#: Parent-side chaos knob: behave as if SIGINT arrived after *n* completed
#: chunks (deterministic interrupt for resume tests and the CI smoke).
CHAOS_ABORT_ENV = "REPRO_CHAOS_ABORT_AFTER_CHUNKS"


def _run_key(kind: str, fingerprint: str, identity: dict) -> str:
    """Content-addressed ledger key: workload identity + run identity."""
    blob = json.dumps(
        {"kind": kind, "fingerprint": fingerprint, **identity}, sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _errors_digest(errors: Sequence[Tuple[int, Optional[int], int]]) -> str:
    digest = hashlib.sha256()
    for dynamic_index, slot, bit in errors:
        digest.update(
            f"{dynamic_index}:{'' if slot is None else slot}:{bit};".encode("ascii")
        )
    return digest.hexdigest()


def _module_fingerprint(runner: ExperimentRunner) -> str:
    from repro import artifacts

    return artifacts.module_fingerprint(runner.program.module)


def _crashed_partial(
    runner: ExperimentRunner,
    config: CampaignConfig,
    resolved_win_size: int,
    start: int,
    count: int,
    *,
    keep_records: bool,
) -> CampaignResult:
    """Partial result recording quarantined experiments as ``crashed``.

    The fault location is recoverable without executing anything: sampling a
    spec only consumes the derived seed, so quarantined records still carry
    the (first_dynamic_index, first_slot) the experiment would have injected
    at, and location-sensitive analyses stay meaningful.
    """
    technique = technique_by_name(config.technique)
    partial = CampaignResult(config=config, resolved_win_size=resolved_win_size)
    for index in range(start, start + count):
        first_dynamic_index, first_slot = 0, None
        try:
            spec = runner.seeded_spec(
                technique,
                max_mbf=config.max_mbf,
                win_size=resolved_win_size,
                seed=config.experiment_seed(index),
            )
            first_dynamic_index = spec.first_dynamic_index
            first_slot = spec.first_slot
        except Exception:  # sampling itself is poisoned: record location-less
            pass
        partial.add_experiment(
            outcome=Outcome.CRASHED,
            activated_errors=0,
            first_dynamic_index=first_dynamic_index,
            first_slot=first_slot,
            keep_record=keep_records,
        )
    return partial


def _initialise_supervised_runner(
    provider: Optional[RunnerProvider], program_name: str
) -> ExperimentRunner:
    return (provider or registry_provider)(program_name)


def _experiment_chunk(runner: ExperimentRunner, payload) -> CampaignResult:
    config, resolved_win_size, start, count, keep_records = payload
    return run_experiment_batch(
        runner, config, resolved_win_size, start, count, keep_records=keep_records
    )


def _error_chunk(runner: ExperimentRunner, payload) -> Tuple[List[str], dict]:
    technique, errors = payload
    phase_before = _phase_snapshot(runner)
    values = [outcome.value for outcome in run_error_batch(runner, technique, errors)]
    return values, _phase_delta(runner, phase_before)


def _initialise_supervised_inference(provider, program_name: str):
    """Build (or cache-load) the def-use index + inference engine once."""
    if provider is not None and hasattr(provider, "prepare"):
        provider.prepare()
    from repro.errorspace.inference import OutcomeInference
    from repro.programs.registry import get_defuse_index

    return OutcomeInference(get_defuse_index(program_name))


def _infer_chunk(engine, triples) -> List[Optional[Outcome]]:
    from repro.errorspace.enumerate import SingleBitError

    return [
        engine.infer(
            SingleBitError(
                ordinal=0,
                dynamic_index=dynamic_index,
                slot=slot,
                bit=bit,
                register_bits=0,
                opcode="",
            )
        )
        for dynamic_index, slot, bit in triples
    ]


@dataclass
class ChunkJob:
    """One chunked dispatch, described for :meth:`ExecutionEngine.run_job`.

    A job names its work — ``total`` units cut into ``chunk``-sized tasks
    whose payloads ``payload(start, count)`` builds — the module-level chunk
    function and worker initializer that execute them, the merge that folds
    chunk bodies (in offset order) into one body, the body recorded for a
    quarantined chunk, and, when resumable, the ledger run identity and the
    partial-payload codec.  Bisection splits a task into two payloads of the
    same kind, so :meth:`split` follows from ``payload``.
    """

    #: "campaign", "errors" or "infer": the ledger, run-log and request kind.
    kind: str
    #: Names the run in progress lines, warnings and interrupt messages.
    label: str
    program: str
    total: int
    chunk: int
    payload: Callable[[int, int], Any]
    fn: Callable[[Any, Any], Any]
    initializer: Callable
    merge: Callable[[List[Any]], Any]
    quarantined: Callable[[ChunkTask], Any]
    #: Per-phase seconds of a (merged) body.
    phases: Callable[[Any], dict]
    #: Ledger run identity (None: not resumable) and the body <-> JSON codec.
    identity: Optional[Callable[[], dict]] = None
    encode: Optional[Callable[[Any], dict]] = None
    decode: Optional[Callable[[dict], Any]] = None
    #: Run-log header fields.
    meta: Optional[dict] = None

    def tasks(self, work: Sequence[Tuple[int, int]]) -> List[ChunkTask]:
        return [
            ChunkTask(start, self.fn, self.payload(start, count), count)
            for start, count in work
        ]

    def split(self, task: ChunkTask) -> List[ChunkTask]:
        half = task.size // 2
        return self.tasks([(task.chunk_id, half), (task.chunk_id + half, task.size - half)])


def campaign_job(
    config: CampaignConfig,
    resolved_win_size: int,
    *,
    keep_records: bool,
    provider: RunnerProvider,
    chunk: int,
) -> ChunkJob:
    """Sampled experiments ``0 .. config.experiments``; bodies are partials."""

    def merge(partials: List[CampaignResult]) -> CampaignResult:
        result = CampaignResult(config=config, resolved_win_size=resolved_win_size)
        for partial in partials:
            result.merge(partial)
        return result

    def quarantined(task: ChunkTask) -> CampaignResult:
        return _crashed_partial(
            provider(config.program),
            config,
            resolved_win_size,
            task.chunk_id,
            task.size,
            keep_records=keep_records,
        )

    return ChunkJob(
        kind="campaign",
        label=config.campaign_id,
        program=config.program,
        total=config.experiments,
        chunk=chunk,
        payload=lambda start, count: (config, resolved_win_size, start, count, keep_records),
        fn=_experiment_chunk,
        initializer=_initialise_supervised_runner,
        merge=merge,
        quarantined=quarantined,
        phases=lambda result: result.phase_seconds,
        identity=lambda: {
            "campaign_id": config.campaign_id,
            "master_seed": config.master_seed,
            "experiments": config.experiments,
            "resolved_win_size": resolved_win_size,
            "keep_records": bool(keep_records),
        },
        encode=CampaignResult.to_partial_payload,
        decode=lambda payload: CampaignResult.from_partial_payload(
            config, resolved_win_size, payload
        ),
        meta={"campaign": config.campaign_id, "program": config.program},
    )


def errors_job(
    program: str,
    technique: str,
    errors: Sequence[Tuple[int, Optional[int], int]],
    order: Sequence[int],
    *,
    chunk: int,
) -> ChunkJob:
    """Pinned single-bit errors in ``order``; bodies are (values, phases)."""

    def merge(bodies) -> Tuple[List[str], dict]:
        phases: dict = {}
        for _values, chunk_phases in bodies:
            for phase, seconds in chunk_phases.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        return [value for values, _phases in bodies for value in values], phases

    return ChunkJob(
        kind="errors",
        label=f"{program}/{technique}/error-space",
        program=program,
        total=len(errors),
        chunk=chunk,
        payload=lambda start, count: (
            technique,
            [errors[j] for j in order[start : start + count]],
        ),
        fn=_error_chunk,
        initializer=_initialise_supervised_runner,
        merge=merge,
        quarantined=lambda task: ([Outcome.CRASHED.value] * task.size, {}),
        phases=lambda body: body[1],
        identity=lambda: {
            "program": program,
            "technique": technique,
            "errors": _errors_digest(errors),
            "total": len(errors),
        },
        encode=lambda body: {"outcomes": body[0]},
        decode=lambda payload: (payload["outcomes"], {}),
        meta={"program": program, "technique": technique},
    )


def infer_job(
    program: str, triples: Sequence[Tuple[int, Optional[int], int]], *, chunk: int
) -> ChunkJob:
    """Outcome inference over ``(tick, slot, bit)`` triples; not ledgered.

    A quarantined chunk infers as None: the planner executes those errors.
    """
    return ChunkJob(
        kind="infer",
        label=f"{program} inference pass",
        program=program,
        total=len(triples),
        chunk=chunk,
        payload=lambda start, count: triples[start : start + count],
        fn=_infer_chunk,
        initializer=_initialise_supervised_inference,
        merge=lambda bodies: [outcome for body in bodies for outcome in body],
        quarantined=lambda task: [None] * task.size,
        phases=lambda body: {},
    )


class _RunTelemetry:
    """Structured run-event stream for one engine dispatch.

    Wraps an optional :class:`~repro.telemetry.events.RunLog` keyed by the
    run's chunk-ledger key, so the event log lands next to the ledger and a
    resumed run appends to the stream of the run it continues.  Without a
    run-log directory (or without a ledger to take the key from) every
    method is a no-op, so engine code calls unconditionally.

    Construct at the very top of a job run — cache-stats and metrics
    baselines are captured there, *before* the runner is built, so the
    run's own warm-up traffic (golden derivation, codegen, cache loads) is
    part of its ``run_finished`` delta while earlier runs in the same
    process are not.  :meth:`attach` binds the event log once the ledger
    (whose content-addressed key names the log file) exists.
    """

    def __init__(self) -> None:
        self.log: Optional[RunLog] = None
        self._metrics_before = telemetry_metrics.registry().snapshot()
        self._cache_before = self._cache_totals()

    def attach(
        self,
        runlog_dir: Optional[str],
        ledger: Optional[ChunkLedger],
        *,
        resume: bool,
        meta: Optional[dict] = None,
    ) -> None:
        if runlog_dir is None or ledger is None:
            return
        try:
            self.log = RunLog.open(
                Path(runlog_dir), ledger.key, meta=meta, resume=resume
            )
        except OSError:
            self.log = None

    # -- event emission -----------------------------------------------------------

    def started(self, *, kind: str, total: int, engine: str, jobs: int) -> None:
        if self.log is not None:
            self.log.emit(
                "run_started", kind=kind, total=total, engine=engine, jobs=jobs
            )

    def resume_replay(self, ledger: Optional[ChunkLedger]) -> None:
        """Record chunks adopted from the ledger instead of executed."""
        if self.log is not None and ledger is not None and ledger.completed:
            self.log.emit(
                "resume_replay",
                chunks=len(ledger.completed),
                units=ledger.loaded_units,
            )

    def chunk_dispatched(self, chunk: int, count: int) -> None:
        if self.log is not None:
            self.log.emit("chunk_dispatched", chunk=chunk, count=count)

    def chunk_completed(self, chunk: int, count: int, done: int) -> None:
        if self.log is not None:
            self.log.emit("chunk_completed", chunk=chunk, count=count, done=done)

    def supervisor_event(self, event_type: str, **fields) -> None:
        """Passthrough target for the scheduler's ``on_event``."""
        if self.log is not None:
            self.log.emit(event_type, **fields)

    def finished(
        self,
        *,
        status: str,
        done: int,
        total: int,
        seconds: float,
        phase_seconds: dict,
        supervision: dict,
    ) -> None:
        """Emit the authoritative ``run_finished`` event and close the log.

        Carries everything a report needs without re-running: phase wall and
        CPU seconds (the latter lifted from the merged metrics delta, so
        worker CPU shipped over the supervisor pipe is included), the run's
        cache traffic and derivation counts, supervision tallies, and the
        full metrics snapshot delta for ``--metrics-out``.
        """
        if self.log is None:
            return
        metrics_delta = telemetry_metrics.registry().snapshot_delta(
            self._metrics_before
        )
        self.log.emit(
            "run_finished",
            sync=True,
            status=status,
            done=done,
            total=total,
            seconds=round(seconds, 6),
            phase_seconds=phase_seconds,
            phase_cpu_seconds=telemetry_metrics.labeled_totals(
                metrics_delta, "repro_phase_cpu_seconds_total", "phase"
            ),
            supervision=supervision,
            cache=self._cache_report(metrics_delta),
            metrics=metrics_delta,
        )
        self.close()

    def close(self) -> None:
        if self.log is not None:
            self.log.close()

    # -- payload assembly ---------------------------------------------------------

    @staticmethod
    def _cache_totals() -> dict:
        from repro import artifacts

        cache = artifacts.active_cache()
        return cache.stats.as_dict() if cache is not None else {}

    def _cache_report(self, metrics_delta: dict) -> dict:
        now = self._cache_totals()
        report: dict = {}
        for event in ("hits", "misses", "stores"):
            prior = self._cache_before.get(event, {})
            table = {
                kind: value - prior.get(kind, 0)
                for kind, value in now.get(event, {}).items()
                if value - prior.get(kind, 0)
            }
            if table:
                report[event] = table
        derivations = {
            kind: int(value)
            for kind, value in telemetry_metrics.labeled_totals(
                metrics_delta, "repro_derivations_total", "kind"
            ).items()
            if value
        }
        if derivations:
            report["derivations"] = derivations
        return report


class ExecutionEngine:
    """Interface every campaign execution backend implements.

    Every entry point describes its work as a :class:`ChunkJob` and hands it
    to :meth:`run_job`; engines differ only in the transport that executes
    chunks, the chunk grid and how the parent warms up before dispatch.  The
    base class runs chunks in-process.
    """

    #: Short name used in progress messages and benchmark labels.
    name: str = "?"

    #: Worker processes (or hosts' fallback pool size) chunks spread over.
    jobs: int = 1

    #: Per-phase wall-clock seconds of the most recent call (restore /
    #: pre_window / window / tail), for the CLI summary.
    phase_seconds: dict = {}

    #: Fault-tolerance accounting of the most recent run (retries, worker
    #: restarts, timeouts, bisections, quarantined experiments, ledger
    #: usage), ``phase_seconds``-style: observability only, never serialized.
    supervision: dict = {}

    # Dispatch and fault-tolerance knobs shared by the engine implementations.
    _transport: DispatchTransport = InProcessTransport()
    _start_method: Optional[str] = None
    _max_retries: int = 0
    _chunk_timeout: Optional[float] = None
    _ledger_dir: Optional[str] = None
    _resume: bool = False
    _quarantine: bool = True
    #: Directory for structured run-event logs (requires a ledger for keys).
    _runlog_dir: Optional[str] = None

    def run(
        self,
        config: CampaignConfig,
        *,
        provider: RunnerProvider,
        keep_records: bool = True,
        on_progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        """Execute every experiment of one campaign and aggregate the outcome."""
        job = campaign_job(
            config,
            config.resolve_win_size(),
            keep_records=keep_records,
            provider=provider,
            chunk=self._campaign_chunk(config.experiments),
        )
        return self.run_job(job, provider=provider, on_progress=on_progress)

    def run_errors(
        self,
        program: str,
        technique: str,
        errors: Sequence[Tuple[int, Optional[int], int]],
        *,
        provider: RunnerProvider,
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[Outcome]:
        """Execute deterministic single-bit errors; outcomes in input order.

        This is the execution path of exhaustive and pruned error-space
        campaigns (:mod:`repro.errorspace`).
        """
        # Global tick sort first, then contiguous chunks: every chunk is a
        # dense slice of injection times, so consecutive experiments share
        # fast-forward checkpoints.
        order = sorted(range(len(errors)), key=lambda j: errors[j][0])
        job = errors_job(
            program, technique, errors, order, chunk=self._error_chunk(len(errors))
        )
        values, _phases = self.run_job(job, provider=provider, on_progress=on_progress)
        outcomes: List[Optional[Outcome]] = [None] * len(errors)
        for position, value in zip(order, values):
            outcomes[position] = Outcome(value)
        return outcomes

    def plan_infer_map(self, program: str, *, provider: RunnerProvider):
        """An outcome-inference map for pruned-plan construction, or None.

        None means "infer in-process" (the serial default).  Pooled engines
        return a callable that chunk-dispatches the inference pass to their
        workers, so planning scales with ``--jobs`` exactly like execution.
        """
        return None

    def _campaign_chunk(self, total: int) -> int:
        return 25

    def _error_chunk(self, total: int) -> int:
        return 256

    def _warm(self, job: ChunkJob, provider: RunnerProvider) -> None:
        """Prepare the parent before ``job``'s chunks are dispatched."""

    def run_job(
        self,
        job: ChunkJob,
        *,
        provider: RunnerProvider,
        on_progress: Optional[ProgressCallback] = None,
    ):
        """Execute ``job`` through this engine's transport; return its merged body.

        Owns everything around the chunks: the resumable ledger (open, replay,
        record, compact), the run-event log, the SIGINT/SIGTERM guard and the
        chaos abort, progress, degrading a crashed-out worker pool to
        in-process execution, quarantined chunks and the interrupt.
        """
        # Telemetry first: its baselines must precede the runner build, so
        # this run's warm-up traffic lands in its ``run_finished`` delta.
        telemetry = _RunTelemetry()
        self._warm(job, provider)
        bodies: Dict[int, Any] = {}
        ledger: Optional[ChunkLedger] = None
        if self._ledger_dir is not None and job.identity is not None and job.total:
            ledger = ChunkLedger.open(
                Path(self._ledger_dir),
                _run_key(job.kind, _module_fingerprint(provider(job.program)), job.identity()),
                total=job.total,
                meta={"kind": job.kind, "campaign_id": job.label, "chunk": job.chunk},
                resume=self._resume,
            )
            for start, payload in ledger.completed.items():
                bodies[start] = job.decode(payload)
            work = ledger.missing(job.chunk)
        else:
            work = [
                (start, min(job.chunk, job.total - start))
                for start in range(0, job.total, job.chunk)
            ]
        started = time.monotonic()
        done = ledger.loaded_units if ledger is not None else 0
        telemetry.attach(self._runlog_dir, ledger, resume=self._resume, meta=job.meta)
        telemetry.started(kind=job.kind, total=job.total, engine=self.name, jobs=self.jobs)
        telemetry.resume_replay(ledger)
        guard = _SignalGuard()
        try:
            abort_after = int(os.environ.get(CHAOS_ABORT_ENV, "0") or 0)
        except ValueError:
            abort_after = 0
        completed_chunks = 0

        def on_grant(task: ChunkTask) -> None:
            if ledger is not None:
                ledger.record_grant(task.chunk_id, task.size)
            telemetry.chunk_dispatched(task.chunk_id, task.size)

        def on_done(task: ChunkTask, body) -> None:
            nonlocal done, completed_chunks
            bodies[task.chunk_id] = body
            if ledger is not None:
                ledger.record_done(task.chunk_id, task.size, job.encode(body))
            done += task.size
            telemetry.chunk_completed(task.chunk_id, task.size, done)
            if on_progress is not None:
                on_progress(
                    EngineProgress(
                        campaign_id=job.label,
                        done=done,
                        total=job.total,
                        elapsed_seconds=time.monotonic() - started,
                    )
                )
            completed_chunks += 1
            if abort_after and completed_chunks >= abort_after:
                guard.stop_requested = True

        request = DispatchRequest(
            kind=job.kind,
            program=job.program,
            provider=provider,
            initializer=job.initializer,
            tasks=job.tasks(work),
            split=job.split,
            jobs=self.jobs,
            start_method=self._start_method,
            max_retries=self._max_retries,
            chunk_timeout=self._chunk_timeout,
            quarantine=self._quarantine,
            on_chunk_done=on_done,
            on_grant=on_grant,
            on_event=telemetry.supervisor_event,
            stop=guard,
        )
        stats = SupervisorStats()
        fallback_units = 0
        guard.install()
        try:
            if request.tasks:
                run = self._transport.execute(request)
                stats.merge(run.stats)
                quarantined = run.quarantined
                if run.stats.degraded and run.unfinished:
                    fallback_units = sum(task.size for task in run.unfinished)
                    warnings.warn(
                        f"supervised worker pool for {job.label} degraded after "
                        f"repeated worker crashes; finishing the remaining "
                        f"{fallback_units} "
                        f"{'experiments' if job.kind == 'campaign' else 'errors'} "
                        f"serially in-process",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    rest = InProcessTransport().execute(
                        dataclasses.replace(request, tasks=run.unfinished)
                    )
                    stats.merge(rest.stats)
                    quarantined = quarantined + rest.quarantined
                for chunk in quarantined:
                    on_done(chunk.task, job.quarantined(chunk.task))
        finally:
            guard.restore()
            if ledger is not None:
                ledger.close()
        stats.interrupted = stats.interrupted and done < job.total
        merged = job.merge([bodies[start] for start in sorted(bodies)])
        self.phase_seconds = dict(job.phases(merged))
        summary = stats.as_dict()
        summary["serial_fallback_units"] = fallback_units
        summary["ledger_loaded_chunks"] = len(ledger.completed) if ledger is not None else 0
        summary["ledger_loaded_units"] = ledger.loaded_units if ledger is not None else 0
        summary["ledger_path"] = str(ledger.path) if ledger is not None else None
        dist = getattr(self._transport, "stats", None)
        if dist is not None:
            summary["distributed"] = dist.as_dict()
        self.supervision = summary
        telemetry.finished(
            status="interrupted" if stats.interrupted else "finished",
            done=done,
            total=job.total,
            seconds=time.monotonic() - started,
            phase_seconds=self.phase_seconds,
            supervision=summary,
        )
        if stats.interrupted:
            raise CampaignInterrupted(
                self._interrupt_message(job.label, done, job.total, ledger),
                done=done,
                total=job.total,
                resumable=ledger is not None,
            )
        if ledger is not None and done >= job.total:
            ledger.compact([(0, job.total, job.encode(merged))])
        return merged

    @staticmethod
    def _interrupt_message(
        label: str, done: int, total: int, ledger: Optional[ChunkLedger]
    ) -> str:
        message = f"{label}: interrupted after {done}/{total} experiments"
        if ledger is not None:
            message += (
                f"; completed chunks are ledgered at {ledger.path} — "
                "re-run with --resume to execute only the missing chunks"
            )
        else:
            message += " (no ledger configured: a re-run starts from scratch)"
        return message

    def close(self) -> None:
        """Release any resources held by the engine (pools, workers)."""

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SerialEngine(ExecutionEngine):
    """Runs experiments one after another in the calling process.

    Shares the pooled engines' fault-tolerance surface where it makes sense
    without workers: poisoned experiments are bisected and quarantined as
    ``crashed`` (``quarantine=False`` raises instead), completed chunks of
    ``progress_interval`` experiments are ledgered when ``ledger_dir`` is
    set, and SIGINT/SIGTERM finish the current chunk, flush the ledger and
    raise :class:`~repro.errors.CampaignInterrupted`.
    """

    name = "serial"

    def __init__(
        self,
        *,
        progress_interval: int = 25,
        quarantine: bool = True,
        ledger_dir: Optional[str] = None,
        resume: bool = False,
        runlog_dir: Optional[str] = None,
    ) -> None:
        if progress_interval < 1:
            raise ConfigurationError("progress_interval must be positive")
        if resume and ledger_dir is None:
            raise ConfigurationError("resume requires a ledger directory")
        self._interval = progress_interval
        self._quarantine = quarantine
        self._ledger_dir = ledger_dir
        self._resume = resume
        self._runlog_dir = runlog_dir

    def _campaign_chunk(self, total: int) -> int:
        return self._interval


class MultiprocessEngine(ExecutionEngine):
    """Fans chunks out to supervised worker processes (or worker hosts).

    Each worker process holds exactly one compiled workload + golden trace;
    experiments are dispatched as contiguous index chunks and the partial
    results are merged in index order, so the assembled campaign result is
    bit-identical to a :class:`SerialEngine` run of the same config — chunk
    retries, worker restarts, bisection and resume cannot change the bytes.

    The default start method is ``fork`` where available (Linux), which lets
    workers inherit already-compiled workloads and makes arbitrary provider
    callables (closures included) usable.  Under ``spawn`` the provider must
    be picklable; the default registry provider is.
    """

    name = "multiprocess"

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        max_retries: int = 3,
        chunk_timeout: Optional[float] = None,
        quarantine: bool = True,
        ledger_dir: Optional[str] = None,
        resume: bool = False,
        runlog_dir: Optional[str] = None,
        transport: Optional[DispatchTransport] = None,
    ) -> None:
        resolved_jobs = jobs if jobs is not None else available_cpus()
        if resolved_jobs < 1:
            raise ConfigurationError("a worker pool needs at least one job")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be positive")
        if max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError("chunk_timeout must be positive")
        if resume and ledger_dir is None:
            raise ConfigurationError("resume requires a ledger directory")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.jobs = resolved_jobs
        self._chunk_size = chunk_size
        self._start_method = start_method
        self._max_retries = max_retries
        self._chunk_timeout = chunk_timeout
        self._quarantine = quarantine
        self._ledger_dir = ledger_dir
        self._resume = resume
        self._runlog_dir = runlog_dir
        self._transport = transport or SupervisedPoolTransport()
        # Surface the transport in progress/benchmark labels ("multiprocess"
        # for the local pool, "distributed" for the socket coordinator).
        self.name = self._transport.name

    def _warm(self, job: ChunkJob, provider: RunnerProvider) -> None:
        """Warm the parent once before dispatch.

        Under ``fork`` this lets workers inherit the compiled workload,
        decoded program and golden trace.  Whenever the artifact cache is
        active — any start method — the warm runner's artifacts (and, for
        inference, the def-use index) are also persisted to disk, so
        derivation happens once per host and spawned workers load instead
        of re-deriving.
        """
        from repro import artifacts

        if hasattr(provider, "prepare"):
            provider.prepare()
        cache_active = artifacts.active_cache() is not None
        if self._start_method == "fork" or cache_active:
            runner = provider(job.program)
            if cache_active:
                persist_runner_artifacts(runner)
        if job.kind == "infer" and cache_active:
            from repro.programs.registry import get_defuse_index

            get_defuse_index(job.program)

    def _campaign_chunk(self, total: int) -> int:
        # Aim for ~4 batches per worker so stragglers rebalance, capped to
        # keep per-batch IPC payloads small.
        return self._chunk_size or max(1, min(64, -(-total // (self.jobs * 4))))

    def _error_chunk(self, total: int) -> int:
        return self._chunk_size or max(32, min(512, -(-total // (self.jobs * 4))))

    def close(self) -> None:
        self._transport.close()

    def plan_infer_map(self, program: str, *, provider: RunnerProvider):
        """Chunk-dispatch the planner's inference pass to the workers.

        Each worker builds (or cache-loads) the workload's def-use index and
        inference engine once, then maps deterministic ``(tick, slot, bit)``
        chunks to outcomes.  Results are keyed by chunk offset and assembled
        in order, so the plan is bit-identical to a serial build regardless
        of retries or worker restarts.  Quarantined chunks infer as ``None``
        (the planner then schedules those errors for execution).  Only
        registry programs are dispatchable (workers resolve the index by
        name).
        """
        from repro import artifacts

        if self._start_method != "fork" and artifacts.active_cache() is None:
            # Spawned workers share neither memory nor a disk cache: each
            # would re-derive the golden trace and def-use index from
            # scratch, which costs more than it saves.  Plan serially.
            return None

        def infer_map(errors):
            triples = [(error.dynamic_index, error.slot, error.bit) for error in errors]
            chunk = max(1024, min(16384, -(-len(triples) // (self.jobs * 4))))
            return self.run_job(infer_job(program, triples, chunk=chunk), provider=provider)

        return infer_map
