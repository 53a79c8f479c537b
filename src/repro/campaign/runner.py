"""Campaign execution: run every experiment of one or more campaigns.

The runner caches one :class:`~repro.injection.experiment.ExperimentRunner`
per workload (compiling the program, decoding it into its executable form
and profiling its golden trace exactly once in this process), and delegates
per-experiment execution to a pluggable
:class:`~repro.campaign.engine.ExecutionEngine` — serial by default, a
multiprocess worker pool when throughput matters.  Seeding is derived per
experiment index from the campaign configuration, so every engine produces
bit-identical results for the same seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.campaign.config import CampaignConfig
from repro.campaign.engine import (
    CachingProvider,
    ExecutionEngine,
    ProgressCallback,
    RunnerProvider,
    SerialEngine,
    registry_provider,
)
from repro.campaign.results import CampaignResult, ResultStore
from repro.injection.experiment import ExperimentRunner

#: Called with each finished campaign result as a sweep streams along.
ResultCallback = Callable[[CampaignResult], None]

# Backwards-compatible alias; the canonical definition lives in the engine module.
_default_provider = registry_provider


class CampaignRunner:
    """Executes campaigns through an execution engine and accumulates results."""

    def __init__(
        self,
        provider: Optional[RunnerProvider] = None,
        *,
        engine: Optional[ExecutionEngine] = None,
        keep_records: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        experiment_progress: Optional[ProgressCallback] = None,
    ) -> None:
        # The caching wrapper is shared with the engine: it keeps one compiled
        # workload per program in this process and stays picklable (cache
        # dropped) when a spawn-based pool ships it to workers.
        self._provider = CachingProvider(provider)
        self._engine = engine if engine is not None else SerialEngine()
        self._keep_records = keep_records
        self._progress = progress
        self._experiment_progress = experiment_progress

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

    @property
    def supervision(self) -> dict:
        """Fault-tolerance accounting of the engine's most recent run."""
        return dict(self._engine.supervision)

    # -- workload management --------------------------------------------------------
    def experiment_runner(self, program_name: str) -> ExperimentRunner:
        """The cached per-workload experiment runner (golden trace included)."""
        return self._provider(program_name)

    # -- error-space execution ---------------------------------------------------------
    def run_errors(self, program: str, technique: str, errors, on_progress=None):
        """Execute deterministic single-bit errors through the engine.

        The execution path of exhaustive/pruned campaigns: outcomes come
        back in input order, and the engine applies the same tick-sorted
        batching (and, for pools, chunk dispatch) as sampled campaigns.
        """
        return self._engine.run_errors(
            program,
            technique,
            errors,
            provider=self._provider,
            on_progress=on_progress if on_progress is not None else self._experiment_progress,
        )

    # -- campaign execution -----------------------------------------------------------
    def run_campaign(self, config: CampaignConfig) -> CampaignResult:
        """Run every experiment of one campaign and aggregate the outcomes."""
        if self._progress is not None:
            self._progress(config.describe())
        return self._engine.run(
            config,
            provider=self._provider,
            keep_records=self._keep_records,
            on_progress=self._experiment_progress,
        )

    def run_campaigns(
        self,
        configs: Sequence[CampaignConfig],
        store: Optional[ResultStore] = None,
        *,
        skip_existing: bool = True,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        on_result: Optional[ResultCallback] = None,
    ) -> ResultStore:
        """Run many campaigns, reusing results of the same configs in ``store``.

        When ``checkpoint_path`` is given, the store is persisted to disk
        after every ``checkpoint_every`` freshly completed campaigns, so a
        long sweep that is interrupted mid-way resumes from the last
        checkpoint instead of restarting.  ``on_result`` streams each
        completed campaign result to the caller as the sweep progresses
        (invoked after the checkpoint covering it, if any, is written).
        """
        store = store if store is not None else ResultStore()
        checkpoint = Path(checkpoint_path) if checkpoint_path is not None else None
        completed_since_checkpoint = 0
        for config in configs:
            # The store is keyed by campaign id, which leaves out the
            # experiment count and master seed: reuse only an exact match and
            # replace a stored result of a different configuration.
            if skip_existing and config in store and store.get(config).config == config:
                continue
            result = self.run_campaign(config)
            store.add(result)
            completed_since_checkpoint += 1
            if checkpoint is not None and completed_since_checkpoint >= checkpoint_every:
                self._checkpoint(store, checkpoint)
                completed_since_checkpoint = 0
            if on_result is not None:
                on_result(result)
        if checkpoint is not None and completed_since_checkpoint > 0:
            self._checkpoint(store, checkpoint)
        return store

    @staticmethod
    def _checkpoint(store: ResultStore, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        store.save(path)
