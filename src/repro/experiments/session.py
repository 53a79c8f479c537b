"""Experiment sessions: shared campaign execution and result caching."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.campaign.config import CampaignConfig, ExperimentScale, SMOKE_SCALE
from repro.campaign.engine import (
    ExecutionEngine,
    MultiprocessEngine,
    ProgressCallback,
    RegistryProvider,
    SerialEngine,
)
from repro.campaign.plan import ExhaustiveCampaignRequest
from repro.campaign.results import ExhaustiveCampaignResult, ResultStore
from repro.campaign.runner import CampaignRunner
from repro.errors import ConfigurationError
from repro.injection.outcome import OutcomeCounts
from repro import artifacts


def default_artifact_dir(cache_path: Union[str, Path]) -> Path:
    """The artifact-cache directory derived from a result-store path.

    ``results.json`` → ``results.json.artifacts`` — kept next to the store
    so clearing one campaign cache clears both predictably.
    """
    cache_path = Path(cache_path)
    return cache_path.with_name(cache_path.name + ".artifacts")


class ExperimentSession:
    """Owns a campaign runner plus a result store shared across figures.

    Figures 2, 4 and 5, Table III and Table IV all reuse overlapping campaign
    grids; running them through one session means each campaign executes at
    most once.  A session can also persist its store to disk so repeated
    benchmark invocations do not re-run identical campaigns.

    ``jobs`` selects the execution engine: 1 (the default) runs campaigns
    serially in-process, larger values fan experiments out to a multiprocess
    worker pool; pass ``engine`` to supply a custom backend (mutually
    exclusive with ``jobs``).  ``backend`` selects the execution engine
    runners use (``decoded``, ``compiled`` or ``reference``).  On the first
    two, every faulty run restores the VM checkpoint before its first flip
    and arms the injection hooks only inside the fault window.  Long sweeps
    checkpoint the store to ``checkpoint_path`` (falling back to
    ``cache_path``) after every ``checkpoint_every`` completed campaigns; a
    new session loads the store back from the cache or, failing that, the
    checkpoint, so interrupted runs resume from the last checkpoint.

    ``cache_dir`` activates the persistent artifact cache
    (:mod:`repro.artifacts`): golden traces, VM checkpoints, def-use indices
    and pruned plans round-trip through it, so repeated sessions and worker
    processes pay derivation cost once per host.  When only ``cache_path``
    is given, the artifact cache defaults to ``<cache_path>.artifacts``
    next to the result store.

    Fault tolerance (applies to the engine the session constructs; a custom
    ``engine`` carries its own knobs): ``max_retries`` / ``chunk_timeout`` /
    ``quarantine`` configure supervised chunk dispatch, and ``ledger_dir``
    (defaulting to ``<cache_dir>/ledger`` whenever an artifact cache is
    active) enables the durable chunk ledger so an interrupted run can be
    restarted with ``resume=True`` executing only the missing chunks.

    Whenever an artifact cache is active the session also points the engine
    at ``<cache_dir>/runlog``: every run appends a structured JSONL event
    stream there (:mod:`repro.telemetry.events`), which ``repro report``
    renders after the fact.

    ``hosts > 0`` makes the session a **distributed coordinator**: it opens
    a lease coordinator socket (``dist_bind``/``dist_port``; port 0 picks an
    ephemeral port, read :attr:`coordinator_address`) and dispatches chunks
    to connecting ``repro worker`` agents instead of a local pool — with the
    same ledger, resume and byte-identity guarantees (:mod:`repro.dist`).
    Close the session (or use it as a context manager) to release the
    socket.
    """

    def __init__(
        self,
        *,
        scale: ExperimentScale = SMOKE_SCALE,
        store: Optional[ResultStore] = None,
        cache_path: Optional[Union[str, Path]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        jobs: int = 1,
        engine: Optional[ExecutionEngine] = None,
        backend: str = "decoded",
        progress: Optional[Callable[[str], None]] = None,
        experiment_progress: Optional[ProgressCallback] = None,
        max_retries: int = 3,
        chunk_timeout: Optional[float] = None,
        quarantine: bool = True,
        ledger_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        hosts: int = 0,
        dist_bind: str = "127.0.0.1",
        dist_port: int = 0,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        if hosts < 0:
            raise ConfigurationError("hosts cannot be negative")
        if engine is not None and jobs != 1:
            raise ConfigurationError(
                "jobs and engine are mutually exclusive; size the worker pool "
                "on the engine instead"
            )
        if engine is not None and hosts > 0:
            raise ConfigurationError(
                "hosts and engine are mutually exclusive; pass a distributed "
                "transport on the engine instead"
            )
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1")
        self.scale = scale
        self.cache_path = Path(cache_path) if cache_path is not None else None
        if cache_dir is None and self.cache_path is not None:
            cache_dir = default_artifact_dir(self.cache_path)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        # The latest session's choice wins process-wide: configuring with
        # None *clears* any earlier session's explicit cache directory, so a
        # session built without cache_dir never writes artifacts into a
        # stale path (the REPRO_CACHE_DIR env fallback still applies).
        self.artifact_cache = artifacts.configure(self.cache_dir)
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every
        if store is not None:
            self.store = store
        elif self.cache_path is not None and self.cache_path.exists():
            self.store = ResultStore.load(self.cache_path)
        elif self.checkpoint_path is not None and self.checkpoint_path.exists():
            self.store = ResultStore.load(self.checkpoint_path)
        else:
            self.store = ResultStore()
        if ledger_dir is None and self.cache_dir is not None:
            ledger_dir = self.cache_dir / "ledger"
        self.ledger_dir = Path(ledger_dir) if ledger_dir is not None else None
        if resume and self.ledger_dir is None:
            raise ConfigurationError(
                "resume needs a chunk ledger; pass ledger_dir (or cache_path/"
                "cache_dir, which place one under the artifact cache)"
            )
        # Structured run-event logs land next to the chunk ledger under the
        # artifact cache; ``repro report`` reads them back from there.
        self.runlog_dir = (
            self.cache_dir / "runlog" if self.cache_dir is not None else None
        )
        #: The distributed lease coordinator, when ``hosts > 0``.
        self.coordinator = None
        if engine is None:
            ledger = str(self.ledger_dir) if self.ledger_dir is not None else None
            runlog = str(self.runlog_dir) if self.runlog_dir is not None else None
            if hosts > 0:
                from repro.dist import CoordinatorTransport

                self.coordinator = CoordinatorTransport(dist_bind, dist_port)
                # ``jobs`` still sizes the local-fallback pool; the remote
                # fan-out is governed by each worker host's own --jobs.
                engine = MultiprocessEngine(
                    max(jobs, hosts),
                    max_retries=max_retries,
                    chunk_timeout=chunk_timeout,
                    quarantine=quarantine,
                    ledger_dir=ledger,
                    resume=resume,
                    runlog_dir=runlog,
                    transport=self.coordinator,
                )
            elif jobs > 1:
                engine = MultiprocessEngine(
                    jobs,
                    max_retries=max_retries,
                    chunk_timeout=chunk_timeout,
                    quarantine=quarantine,
                    ledger_dir=ledger,
                    resume=resume,
                    runlog_dir=runlog,
                )
            else:
                engine = SerialEngine(
                    quarantine=quarantine,
                    ledger_dir=ledger,
                    resume=resume,
                    runlog_dir=runlog,
                )
        self._provider = RegistryProvider(
            cache_dir=str(self.cache_dir) if self.cache_dir is not None else None,
            backend=backend,
        )
        self.runner = CampaignRunner(
            self._provider,
            engine=engine,
            progress=progress,
            experiment_progress=experiment_progress,
        )
        #: Pruned plans keyed by (program, technique, infer) — planning costs
        #: one inference pass over the space, so it is never repeated.
        self._pruned_plans: Dict = {}

    @property
    def engine(self) -> ExecutionEngine:
        return self.runner.engine

    @property
    def coordinator_address(self):
        """``(host, port)`` of the lease coordinator, or None when local."""
        return self.coordinator.address if self.coordinator is not None else None

    def close(self) -> None:
        """Release the engine's transport (sockets, pools); idempotent."""
        self.engine.close()

    def __enter__(self) -> "ExperimentSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def ensure(self, configs: Sequence[CampaignConfig]) -> ResultStore:
        """Run any of ``configs`` not yet in the store; return the store."""
        scaled = [config.with_scale(self.scale) for config in configs]
        checkpoint = self.checkpoint_path or self.cache_path
        self.runner.run_campaigns(
            scaled,
            self.store,
            skip_existing=True,
            checkpoint_path=checkpoint,
            checkpoint_every=self.checkpoint_every,
        )
        if self.cache_path is not None:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            self.store.save(self.cache_path)
        return self.store

    def experiment_runner(self, program: str):
        """Direct access to a workload's experiment runner (used by Table IV)."""
        return self.runner.experiment_runner(program)

    # -- exhaustive error-space campaigns -----------------------------------------------
    def defuse_index(self, program: str):
        """The def-use index of a workload's golden run.

        Delegates to the process-wide registry cache — the index depends
        only on the compiled program and its golden trace, both of which are
        identical across execution knobs, so one build serves every session
        and the benchmark harness alike.
        """
        from repro.programs.registry import get_defuse_index

        return get_defuse_index(program)

    def pruned_plan(self, program: str, technique: str = "inject-on-read", *, infer: bool = True):
        """The (cached) pruned plan of a workload's single-bit error space.

        Three cache layers, cheapest first: the in-session memo, the
        persistent artifact cache (content-addressed; a warm hit costs one
        pickle load instead of the inference pass), then a fresh build —
        chunk-parallelised across the engine's worker pool when one is
        available.  All layers yield bit-identical plans.
        """
        from repro.errorspace import build_pruned_plan, enumerate_error_space

        key = (program, technique, infer)
        plan = self._pruned_plans.get(key)
        if plan is not None:
            return plan
        runner = self.experiment_runner(program)
        disk = self.artifact_cache or artifacts.active_cache()
        disk_key = None
        if disk is not None:
            disk_key = artifacts.plan_key(
                disk,
                runner.program.module,
                runner.program.entry,
                runner.args,
                technique,
                infer,
            )
            plan = artifacts.load_plan(disk, disk_key)
            if plan is not None:
                self._pruned_plans[key] = plan
                return plan
        space = enumerate_error_space(runner.golden, technique)
        index = self.defuse_index(program) if technique == "inject-on-read" else None
        infer_map = None
        if infer and index is not None:
            infer_map = self.engine.plan_infer_map(program, provider=self._provider)
        plan = build_pruned_plan(space, index, infer=infer, infer_map=infer_map)
        self._pruned_plans[key] = plan
        if disk is not None and disk_key is not None:
            artifacts.store_plan(disk, disk_key, plan)
        return plan

    def run_exhaustive(
        self,
        program: str,
        technique: str = "inject-on-read",
        *,
        mode: str = "pruned",
        budget: Optional[int] = None,
        validate: float = 0.0,
        seed: int = 2017,
        infer: bool = True,
    ) -> ExhaustiveCampaignResult:
        """Run (or fetch) one exhaustive single-bit error-space campaign.

        ``mode="exhaustive"`` executes every error of the space;
        ``mode="pruned"`` executes one representative per def-use
        equivalence class and infers the rest (weighted counts still cover
        the full space); ``mode="budgeted"`` weight-samples ``budget``
        representatives.  ``validate`` re-executes a seeded fraction of
        non-representative members and records the misprediction rate.
        Results are cached in the session store (and on disk when the
        session has a cache path).
        """
        from repro.errorspace import enumerate_error_space
        from repro.errorspace.inference import validation_sample

        if mode not in ("exhaustive", "pruned", "budgeted"):
            raise ConfigurationError(
                f"unknown exhaustive mode {mode!r}; expected exhaustive|pruned|budgeted"
            )
        if validate > 0.0 and mode != "pruned":
            raise ConfigurationError(
                "validation re-runs non-representative class members and only "
                "applies to the pruned mode; drop --validate or use --prune"
            )
        # Parameterised runs are cached under a distinguishing variant so a
        # different budget/seed/validation request never returns stale data.
        parts = []
        if mode == "budgeted":
            parts.append(f"budget={budget},seed={seed}")
        elif mode == "pruned" and validate > 0.0:
            parts.append(f"validate={validate},seed={seed}")
        if mode != "exhaustive" and not infer:
            parts.append("noinfer")
        variant = ";".join(parts)
        if self.store.has_exhaustive(program, technique, mode, variant):
            return self.store.exhaustive(program, technique, mode, variant)
        runner = self.experiment_runner(program)
        space = enumerate_error_space(runner.golden, technique)
        validation_sampled = 0
        validation_mispredicted = 0
        phase_seconds: Dict[str, float] = {}

        def run_errors(errors):
            # The engine reports phases per call; the run's total spans them all.
            outcomes = self.runner.run_errors(program, technique, errors)
            for phase, seconds in self.engine.phase_seconds.items():
                phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
            return outcomes

        if mode == "exhaustive":
            errors = [(e.dynamic_index, e.slot, e.bit) for e in space.iter_errors()]
            outcomes = run_errors(errors)
            counts = OutcomeCounts()
            counts.update(outcomes)
            result = ExhaustiveCampaignResult(
                program=program,
                technique=technique,
                mode=mode,
                total_errors=space.size,
                candidate_count=space.candidate_count,
                executed_experiments=len(errors),
                inferred_errors=0,
                outcome_counts=counts,
                variant=variant,
                phase_seconds=phase_seconds,
            )
        else:
            plan = self.pruned_plan(program, technique, infer=infer)
            planned = plan.experiments(
                "exact" if mode == "pruned" else "budgeted", budget=budget, seed=seed
            )
            # Budgeted draws sample classes with replacement; execute each
            # distinct representative once and reuse its outcome.
            unique_errors = []
            position_of = {}
            for p in planned:
                key = (p.error.dynamic_index, p.error.slot, p.error.bit)
                if key not in position_of:
                    position_of[key] = len(unique_errors)
                    unique_errors.append(key)
            unique_outcomes = run_errors(unique_errors)
            errors = unique_errors
            representative_outcomes = {
                p.class_id: unique_outcomes[
                    position_of[(p.error.dynamic_index, p.error.slot, p.error.bit)]
                ]
                for p in planned
            }
            counts = plan.expand_counts(representative_outcomes, planned)
            if validate > 0.0 and mode == "pruned":
                population = plan.non_representative_members()
                sample = validation_sample(population, validate, seed)
                sample_errors = [member for member, _class_id in sample]
                actual = run_errors(sample_errors)
                for (member, class_id), outcome in zip(sample, actual):
                    validation_sampled += 1
                    if representative_outcomes[class_id] is not outcome:
                        validation_mispredicted += 1
            result = ExhaustiveCampaignResult(
                program=program,
                technique=technique,
                mode=mode,
                total_errors=space.size,
                candidate_count=space.candidate_count,
                executed_experiments=len(errors),
                inferred_errors=plan.inferred_errors,
                outcome_counts=counts,
                validation_sampled=validation_sampled,
                validation_mispredicted=validation_mispredicted,
                variant=variant,
                phase_seconds=phase_seconds,
            )
        self.store.add_exhaustive(result)
        if self.cache_path is not None:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            self.store.save(self.cache_path)
        return result

    def ensure_exhaustive(
        self, requests: Sequence[ExhaustiveCampaignRequest]
    ) -> ResultStore:
        """Run any exhaustive campaign requests not yet in the store."""
        for request in requests:
            self.run_exhaustive(
                request.program,
                request.technique,
                mode=request.mode,
                budget=request.budget,
                validate=request.validate,
                seed=request.seed,
            )
        return self.store
