"""Per-campaign results and the queryable result store.

:class:`CampaignResult` aggregates one campaign: outcome counts, the
activated-error histogram (for RQ1/Fig. 3), and per-experiment records (first
injection location + outcome) that the transition study of RQ5/Table IV
replays.  :class:`ResultStore` holds many campaign results, supports the
queries the analysis layer needs, and round-trips to JSON so expensive
campaign sweeps can be cached on disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.campaign.config import CampaignConfig
from repro.errors import AnalysisError
from repro.injection.faultmodel import WinSizeSpec, win_size_by_index
from repro.injection.outcome import Outcome, OutcomeCounts
from repro.stats import ProportionEstimate, wilson_proportion_interval


@dataclass(frozen=True)
class ExperimentRecord:
    """Compact per-experiment record kept for location-sensitive analyses."""

    first_dynamic_index: int
    first_slot: Optional[int]
    outcome: Outcome
    activated_errors: int

    def to_tuple(self) -> Tuple:
        return (
            self.first_dynamic_index,
            self.first_slot,
            self.outcome.value,
            self.activated_errors,
        )

    @classmethod
    def from_tuple(cls, data: Iterable) -> "ExperimentRecord":
        index, slot, outcome, activated = data
        return cls(index, slot, Outcome(outcome), activated)


def exhaustive_campaign_id(
    program: str, technique: str, mode: str, variant: str = ""
) -> str:
    """Store key of one exhaustive error-space campaign (single format)."""
    base = f"{program}/{technique}/single-bit-exhaustive/{mode}"
    return f"{base}[{variant}]" if variant else base


@dataclass
class ExhaustiveCampaignResult:
    """Weighted outcome counts of one exhaustive (or pruned) error-space run.

    Unlike a sampled :class:`CampaignResult`, the counts here cover the
    *entire* single-bit error space of a workload/technique pair: every
    error is accounted for exactly once, either by direct execution, by
    static inference, or by the weight of its equivalence-class
    representative (see :mod:`repro.errorspace`).  ``executed_experiments``
    records how many experiments actually ran; the provenance fields make
    the pruning auditable.
    """

    program: str
    technique: str
    #: "exhaustive" (every error executed), "pruned" (one representative per
    #: equivalence class) or "budgeted" (weighted sample of representatives).
    mode: str
    #: Size of the full single-bit error space (candidates × register bits).
    total_errors: int
    #: Number of candidate (instruction, slot) locations — Table II × slots.
    candidate_count: int
    executed_experiments: int
    #: Errors settled by static outcome inference (zero executions).
    inferred_errors: int
    #: Weighted counts over the full error space (total == total_errors for
    #: the exhaustive and pruned modes).
    outcome_counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    #: Validation sampler provenance (0/0 when validation was not requested).
    validation_sampled: int = 0
    validation_mispredicted: int = 0
    #: Distinguishes otherwise-identical modes run with different parameters
    #: (budget/seed/validation fraction); empty for parameter-free runs.
    variant: str = ""
    #: Per-phase wall-clock seconds summed over every engine call of the run
    #: (representatives and validation re-runs alike).  Observability only,
    #: like :attr:`CampaignResult.phase_seconds`: never serialized, and
    #: empty when the result came from the store.
    phase_seconds: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def campaign_id(self) -> str:
        return exhaustive_campaign_id(self.program, self.technique, self.mode, self.variant)

    @property
    def reduction_factor(self) -> float:
        """How many times fewer experiments ran than the space contains."""
        if self.executed_experiments <= 0:
            return float(self.total_errors) if self.total_errors else 1.0
        return self.total_errors / self.executed_experiments

    @property
    def misprediction_rate(self) -> float:
        if self.validation_sampled <= 0:
            return 0.0
        return self.validation_mispredicted / self.validation_sampled

    @property
    def sdc_percentage(self) -> float:
        return 100.0 * self.outcome_counts.sdc_fraction

    def sdc_estimate(self) -> ProportionEstimate:
        """SDC proportion; for exhaustive coverage the interval is the point."""
        return wilson_proportion_interval(
            self.outcome_counts.count(Outcome.SDC), self.outcome_counts.total
        )

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "technique": self.technique,
            "mode": self.mode,
            "total_errors": self.total_errors,
            "candidate_count": self.candidate_count,
            "executed_experiments": self.executed_experiments,
            "inferred_errors": self.inferred_errors,
            "outcomes": self.outcome_counts.as_dict(),
            "validation_sampled": self.validation_sampled,
            "validation_mispredicted": self.validation_mispredicted,
            **({"variant": self.variant} if self.variant else {}),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExhaustiveCampaignResult":
        return cls(
            program=data["program"],
            technique=data["technique"],
            mode=data["mode"],
            total_errors=data["total_errors"],
            candidate_count=data["candidate_count"],
            executed_experiments=data["executed_experiments"],
            inferred_errors=data["inferred_errors"],
            outcome_counts=OutcomeCounts.from_mapping(data["outcomes"]),
            validation_sampled=data.get("validation_sampled", 0),
            validation_mispredicted=data.get("validation_mispredicted", 0),
            variant=data.get("variant", ""),
        )


@dataclass
class CampaignResult:
    """Aggregated results of one campaign."""

    config: CampaignConfig
    #: Concrete dynamic distance used (random win-size specs resolve per campaign).
    resolved_win_size: int
    outcome_counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    #: Histogram: number of activated errors -> experiment count.
    activated_histogram: Dict[int, int] = field(default_factory=dict)
    #: Per-experiment records (kept unless the caller disables them).
    records: List[ExperimentRecord] = field(default_factory=list)
    #: Cumulative wall-clock seconds per execution phase (restore /
    #: pre_window / window / tail), summed across batches.  Observability
    #: only: deliberately excluded from serialization, so stored results are
    #: byte-identical regardless of execution strategy or machine speed.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    # -- incremental construction ------------------------------------------------
    def add_experiment(
        self,
        outcome: Outcome,
        activated_errors: int,
        first_dynamic_index: int,
        first_slot: Optional[int],
        *,
        keep_record: bool = True,
    ) -> None:
        self.outcome_counts.add(outcome)
        self.activated_histogram[activated_errors] = (
            self.activated_histogram.get(activated_errors, 0) + 1
        )
        if keep_record:
            self.records.append(
                ExperimentRecord(first_dynamic_index, first_slot, outcome, activated_errors)
            )

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Fold a partial result of the *same* campaign into this one.

        Parallel engines split a campaign into chunked batches; merging the
        picklable partials in submission order reassembles the exact record
        stream a serial run produces.
        """
        if other.config.campaign_id != self.config.campaign_id:
            raise AnalysisError(
                f"cannot merge results of campaign {other.config.campaign_id!r} "
                f"into {self.config.campaign_id!r}"
            )
        if other.resolved_win_size != self.resolved_win_size:
            raise AnalysisError(
                f"cannot merge partials with different resolved win-sizes "
                f"({self.resolved_win_size} != {other.resolved_win_size})"
            )
        self.outcome_counts = self.outcome_counts.merge(other.outcome_counts)
        for activated, count in other.activated_histogram.items():
            self.activated_histogram[activated] = (
                self.activated_histogram.get(activated, 0) + count
            )
        self.records.extend(other.records)
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        return self

    # -- derived quantities ----------------------------------------------------------
    @property
    def experiments(self) -> int:
        return self.outcome_counts.total

    @property
    def sdc_percentage(self) -> float:
        return 100.0 * self.outcome_counts.sdc_fraction

    @property
    def detection_percentage(self) -> float:
        return 100.0 * self.outcome_counts.detection_fraction

    @property
    def benign_percentage(self) -> float:
        return 100.0 * self.outcome_counts.benign_fraction

    def sdc_estimate(self) -> ProportionEstimate:
        """SDC proportion with its 95 % confidence interval."""
        return wilson_proportion_interval(
            self.outcome_counts.count(Outcome.SDC), self.outcome_counts.total
        )

    def outcome_percentage(self, outcome: Outcome) -> float:
        return 100.0 * self.outcome_counts.fraction(outcome)

    # -- serialization -----------------------------------------------------------------
    def to_partial_payload(self) -> Dict:
        """JSON-safe payload of one chunk partial for the chunk ledger.

        Round-trips through :meth:`from_partial_payload` to a partial that
        merges byte-identically to the original.  ``phase_seconds`` is
        intentionally dropped — it is machine-dependent accounting excluded
        from serialization everywhere.
        """
        return {
            "outcomes": self.outcome_counts.as_dict(),
            "activated_histogram": {
                str(k): self.activated_histogram[k]
                for k in sorted(self.activated_histogram)
            },
            "records": [list(record.to_tuple()) for record in self.records],
        }

    @classmethod
    def from_partial_payload(
        cls, config: CampaignConfig, resolved_win_size: int, payload: Dict
    ) -> "CampaignResult":
        """Rebuild a ledgered chunk partial (inverse of :meth:`to_partial_payload`)."""
        return cls(
            config=config,
            resolved_win_size=resolved_win_size,
            outcome_counts=OutcomeCounts.from_mapping(payload["outcomes"]),
            activated_histogram={
                int(k): v for k, v in payload["activated_histogram"].items()
            },
            records=[
                ExperimentRecord.from_tuple(item) for item in payload.get("records", [])
            ],
        )

    def to_dict(self) -> Dict:
        return {
            "program": self.config.program,
            "technique": self.config.technique,
            "max_mbf": self.config.max_mbf,
            "win_size_index": self.config.win_size.index,
            "experiments": self.config.experiments,
            "master_seed": self.config.master_seed,
            "resolved_win_size": self.resolved_win_size,
            "outcomes": self.outcome_counts.as_dict(),
            "activated_histogram": {
                str(k): self.activated_histogram[k] for k in sorted(self.activated_histogram)
            },
            "records": [record.to_tuple() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignResult":
        config = CampaignConfig(
            program=data["program"],
            technique=data["technique"],
            max_mbf=data["max_mbf"],
            win_size=win_size_by_index(data["win_size_index"]),
            experiments=data["experiments"],
            master_seed=data.get("master_seed", 2017),
        )
        result = cls(
            config=config,
            resolved_win_size=data["resolved_win_size"],
            outcome_counts=OutcomeCounts.from_mapping(data["outcomes"]),
            activated_histogram={int(k): v for k, v in data["activated_histogram"].items()},
            records=[ExperimentRecord.from_tuple(item) for item in data.get("records", [])],
        )
        return result


class ResultStore:
    """A collection of campaign results keyed by campaign id."""

    def __init__(self) -> None:
        self._results: Dict[str, CampaignResult] = {}
        self._exhaustive: Dict[str, ExhaustiveCampaignResult] = {}

    # -- mutation -----------------------------------------------------------------
    def add(self, result: CampaignResult) -> None:
        self._results[result.config.campaign_id] = result

    def add_exhaustive(self, result: ExhaustiveCampaignResult) -> None:
        self._exhaustive[result.campaign_id] = result

    def merge(self, other: "ResultStore") -> None:
        for result in other:
            self.add(result)
        for result in other.exhaustive_results():
            self.add_exhaustive(result)

    # -- access --------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[CampaignResult]:
        return iter(self._results.values())

    def __contains__(self, config: Union[str, CampaignConfig]) -> bool:
        key = config if isinstance(config, str) else config.campaign_id
        return key in self._results

    def get(self, config: Union[str, CampaignConfig]) -> CampaignResult:
        key = config if isinstance(config, str) else config.campaign_id
        try:
            return self._results[key]
        except KeyError:
            raise AnalysisError(f"no result recorded for campaign {key!r}") from None

    def campaign_ids(self) -> List[str]:
        return list(self._results)

    # -- queries used by the analysis layer ----------------------------------------------
    def for_program(self, program: str) -> List[CampaignResult]:
        return [r for r in self if r.config.program == program]

    def for_technique(self, technique: str) -> List[CampaignResult]:
        return [r for r in self if r.config.technique == technique]

    def single_bit(
        self, program: str, technique: str
    ) -> CampaignResult:
        """The single bit-flip campaign for a program/technique pair."""
        matches = [
            r
            for r in self
            if r.config.program == program
            and r.config.technique == technique
            and r.config.is_single_bit
        ]
        if not matches:
            raise AnalysisError(
                f"no single bit-flip campaign for {program}/{technique} in the store"
            )
        return matches[0]

    def multi_bit(
        self,
        program: str,
        technique: str,
        *,
        same_register: Optional[bool] = None,
    ) -> List[CampaignResult]:
        """All multi-bit campaigns, optionally filtered by win-size = 0 or > 0."""
        matches = [
            r
            for r in self
            if r.config.program == program
            and r.config.technique == technique
            and not r.config.is_single_bit
        ]
        if same_register is True:
            matches = [r for r in matches if r.resolved_win_size == 0]
        elif same_register is False:
            matches = [r for r in matches if r.resolved_win_size > 0]
        return matches

    def programs(self) -> List[str]:
        seen: List[str] = []
        for result in self:
            if result.config.program not in seen:
                seen.append(result.config.program)
        return seen

    # -- exhaustive error-space results -------------------------------------------------
    def exhaustive_results(self) -> List[ExhaustiveCampaignResult]:
        return list(self._exhaustive.values())

    def has_exhaustive(
        self, program: str, technique: str, mode: str, variant: str = ""
    ) -> bool:
        return exhaustive_campaign_id(program, technique, mode, variant) in self._exhaustive

    def exhaustive(
        self, program: str, technique: str, mode: str, variant: str = ""
    ) -> ExhaustiveCampaignResult:
        key = exhaustive_campaign_id(program, technique, mode, variant)
        try:
            return self._exhaustive[key]
        except KeyError:
            raise AnalysisError(f"no exhaustive result recorded for {key!r}") from None

    # -- persistence ---------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the store to ``path`` atomically, in canonical form.

        Campaigns are ordered by id and histogram keys numerically, so the
        bytes depend only on the contents — save → load → save is byte-stable
        and serial/parallel sweeps of the same grid produce identical files.
        The write goes through a temporary sibling file and an atomic rename,
        with the file contents fsync'd before the rename and the containing
        directory fsync'd after it, so a mid-sweep checkpoint survives not
        just process death but power loss: either the old complete store or
        the new complete store is on disk, never a torn file.
        """
        ordered = [self._results[key] for key in sorted(self._results)]
        payload = {"version": 1, "campaigns": [result.to_dict() for result in ordered]}
        if self._exhaustive:
            # Key added only when present so pre-existing stores stay
            # byte-identical across load → save.
            payload["exhaustive_campaigns"] = [
                self._exhaustive[key].to_dict() for key in sorted(self._exhaustive)
            ]
        path = Path(path)
        tmp_path = path.with_name(path.name + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        try:
            dir_fd = os.open(path.parent or Path("."), os.O_RDONLY)
        except OSError:  # platforms/filesystems without directory fds
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - fsync unsupported on dirs here
            pass
        finally:
            os.close(dir_fd)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResultStore":
        payload = json.loads(Path(path).read_text())
        store = cls()
        for item in payload.get("campaigns", []):
            store.add(CampaignResult.from_dict(item))
        for item in payload.get("exhaustive_campaigns", []):
            store.add_exhaustive(ExhaustiveCampaignResult.from_dict(item))
        return store
