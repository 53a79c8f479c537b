"""Campaign engine: runs sets of fault-injection experiments.

A *campaign* is a set of experiments using the same fault model on a given
workload (§III-E); the paper runs 182 campaigns per program (2 single-bit +
2 × 90 multi-bit clusters) with 10,000 experiments each.  This package
provides:

* :mod:`repro.campaign.config` — campaign configurations, experiment scales
  (SMOKE / BENCH / PAPER), and deterministic seeding;
* :mod:`repro.campaign.plan` — helpers that expand a program list into the
  campaign grids behind each figure of the paper;
* :mod:`repro.campaign.engine` — pluggable execution engines (serial and
  multiprocess worker pool) with deterministic per-experiment seeding; every
  dispatch path is one chunk job run by one job runner;
* :mod:`repro.campaign.dispatch` — the chunk scheduler every executor shares
  (retries, backoff, deadlines, bisection, quarantine) and the in-process
  executor;
* :mod:`repro.campaign.supervisor` — the worker-process executor (crash
  and hang detection over raw processes and pipes);
* :mod:`repro.campaign.ledger` — durable write-ahead chunk ledger enabling
  ``--resume`` after a killed run;
* :mod:`repro.campaign.runner` — executes campaigns and collects results;
* :mod:`repro.campaign.results` — per-campaign aggregates and a queryable,
  JSON-serialisable result store.
"""

from repro.campaign.config import (
    BENCH_SCALE,
    CampaignConfig,
    ExperimentScale,
    PAPER_SCALE,
    SMOKE_SCALE,
)
from repro.campaign.dispatch import (
    ChunkTask,
    DispatchRequest,
    DispatchTransport,
    SupervisorStats,
)
from repro.campaign.engine import (
    EngineProgress,
    ExecutionEngine,
    MultiprocessEngine,
    RegistryProvider,
    SerialEngine,
)
from repro.campaign.plan import (
    ExhaustiveCampaignRequest,
    exhaustive_campaigns,
    full_paper_grid,
    multi_register_campaigns,
    same_register_campaigns,
    single_bit_campaigns,
)
from repro.campaign.ledger import ChunkLedger
from repro.campaign.results import (
    CampaignResult,
    ExhaustiveCampaignResult,
    ResultStore,
)
from repro.campaign.runner import CampaignRunner
from repro.campaign.supervisor import ChunkSupervisor, SupervisedPoolTransport

__all__ = [
    "BENCH_SCALE",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "ChunkLedger",
    "ChunkSupervisor",
    "ChunkTask",
    "DispatchRequest",
    "DispatchTransport",
    "EngineProgress",
    "ExecutionEngine",
    "ExhaustiveCampaignRequest",
    "ExhaustiveCampaignResult",
    "exhaustive_campaigns",
    "ExperimentScale",
    "full_paper_grid",
    "multi_register_campaigns",
    "MultiprocessEngine",
    "PAPER_SCALE",
    "RegistryProvider",
    "ResultStore",
    "same_register_campaigns",
    "SerialEngine",
    "single_bit_campaigns",
    "SMOKE_SCALE",
    "SupervisedPoolTransport",
    "SupervisorStats",
]
