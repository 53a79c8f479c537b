"""The benchmark's three workloads, each run once per fresh process.

A workload function takes the round's :class:`Round` (seed, working
directory, process start time, tracer) and returns a :class:`RoundResult`.
The timed section runs first; the output checks run after it, and their
re-executions count as operations like the workload's own experiments.
"""

from __future__ import annotations

import contextlib
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
from spans import Tracer, layer_seconds, wrap_engine

#: Programs, grid and size of ``figure-sweep`` (Figures 1, 2, 4 and 5).
FIGURE_PROGRAMS = ("crc32", "dijkstra", "qsort")
FIGURE_SAME_REGISTER_MBF = (2, 30)
FIGURE_MULTI_REGISTER_MBF = (3, 30)
FIGURE_WIN_SIZES = ("w3", "w7")
FIGURE_EXPERIMENTS = 20
FIGURE_REPLAYS_PER_CAMPAIGN = 2

#: ``pruned-exhaustive``: one cold pruned plan, then a budgeted draw.
PRUNED_PROGRAM = "bfs"
PRUNED_BUDGET = 1500
PRUNED_INFERENCE_SAMPLE = 300
#: The class-inheritance audit samples with a fixed seed, not the round's:
#: its mispredictions are a known fault of the program, counted as failed
#: operations, and must be the same in every run.
AUDIT_SAMPLE = 150
AUDIT_SEED = 2017

#: ``compiled-campaign``: one long pooled single-bit campaign.
COMPILED_PROGRAM = "dijkstra"
COMPILED_EXPERIMENTS = 3000
COMPILED_REPLAYS = 50

#: Worker processes of the pooled workloads.
JOBS = 2


@dataclass
class Round:
    """Inputs of one round: what the workload needs from its process."""

    seed: int
    workdir: Path
    #: ``time.monotonic()`` just before this process was started.
    started: float
    tracer: Optional[Tracer] = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def span(self, name: str):
        """A span around the benchmark's own code (no-op when untraced)."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def session(self, **options):
        """An :class:`ExperimentSession` whose engine calls are traced."""
        from repro.experiments.session import ExperimentSession

        session = ExperimentSession(**options)
        if self.tracer is not None:
            wrap_engine(self.tracer, session.engine)
        return session


@dataclass
class RoundResult:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced rounds only).
    layers: Optional[Dict[str, float]] = None
    #: Work counts that must repeat exactly from run to run.
    counts: Dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any worker it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _end_to_end(setup_s: float, wall_s: float, executed: int, exec_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "experiments_per_s": executed / exec_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def _cache_layers(cache_dir: Optional[Path]) -> Dict[str, float]:
    """Artifact-cache counts and run-log chunks of this process, at wall end."""
    from repro import artifacts
    from repro.telemetry.events import read_events

    cache = artifacts.active_cache()
    layers = {
        "artifacts.hits": cache.stats.hit_count if cache else 0,
        "artifacts.misses": cache.stats.miss_count if cache else 0,
        "artifacts.bytes_written": 0,
        "campaign.chunks": 0,
    }
    if cache_dir is not None and cache_dir.exists():
        layers["artifacts.bytes_written"] = sum(
            path.stat().st_size for path in cache_dir.rglob("*") if path.is_file()
        )
        for log in (cache_dir / "runlog").glob("*.jsonl"):
            events, _status = read_events(log)
            layers["campaign.chunks"] += sum(e.get("type") == "chunk_completed" for e in events)
    return layers


def replay_runner(program: str):
    """A from-scratch runner: fast-forward and windowing off, decoded backend."""
    from repro.injection.experiment import ExperimentRunner
    from repro.programs.registry import build_program

    return ExperimentRunner(build_program(program), fast_forward=False, windowed=False)


def replay(runner, result, indices) -> List[str]:
    """Replay the given experiments of a stored campaign one by one."""
    from repro.injection.techniques import technique_by_name

    config = result.config
    technique = technique_by_name(config.technique)
    problems = []
    for index in indices:
        replayed = runner.run_seeded(
            technique,
            max_mbf=config.max_mbf,
            win_size=result.resolved_win_size,
            seed=config.experiment_seed(index),
        )
        problems += checks.check_replay(
            result.records[index], replayed, f"{config.campaign_id}#{index}"
        )
    return problems


def _crashed(result) -> int:
    return sum(1 for record in result.records if record.outcome.value == "crashed")


# ------------------------------------------------------------------ figure-sweep
def figure_sweep_configs(seed: int):
    from repro.campaign.plan import (
        multi_register_campaigns,
        same_register_campaigns,
        single_bit_campaigns,
    )
    from repro.injection.faultmodel import win_size_by_index

    programs = list(FIGURE_PROGRAMS)
    return (
        single_bit_campaigns(programs, master_seed=seed)
        + same_register_campaigns(
            programs, max_mbf_values=FIGURE_SAME_REGISTER_MBF, master_seed=seed
        )
        + multi_register_campaigns(
            programs,
            max_mbf_values=FIGURE_MULTI_REGISTER_MBF,
            win_size_specs=[win_size_by_index(w) for w in FIGURE_WIN_SIZES],
            master_seed=seed,
        )
    )


def render_figures(store) -> Dict[str, str]:
    """Figures 1, 2, 4 and 5 rendered by the program's report formatters."""
    from repro.analysis.reporting import format_figure1, format_sdc_series

    programs = list(FIGURE_PROGRAMS)
    figures = {}
    for technique in ("inject-on-read", "inject-on-write"):
        figures[f"figure1/{technique}"] = format_figure1(store, technique)
        figures[f"figure2/{technique}"] = format_sdc_series(
            store, technique, same_register=True, programs=programs
        )
    figures["figure4/inject-on-read"] = format_sdc_series(
        store, "inject-on-read", same_register=False, programs=programs
    )
    figures["figure5/inject-on-write"] = format_sdc_series(
        store, "inject-on-write", same_register=False, programs=programs
    )
    return figures


def check_figures(results, figures: Dict[str, str]) -> List[str]:
    """Every SDC% the rendered figures print against the records' tally."""
    kinds = {"figure1": "figure1", "figure2": "same-register"}
    programs = {result.config.program for result in results}
    problems = []
    for label, text in figures.items():
        figure, technique = label.split("/")
        kind = kinds.get(figure, "multi-register")
        expected = checks.expected_figure_rows(results, technique, kind, programs)
        problems += checks.check_figure_text(text, expected, kind, label)
    return problems


def figure_sweep(run: Round) -> RoundResult:
    from repro.campaign.config import ExperimentScale

    session = run.session(scale=ExperimentScale("perfbench", FIGURE_EXPERIMENTS))
    runners = {program: session.experiment_runner(program) for program in FIGURE_PROGRAMS}
    setup_s = run.elapsed()
    configs = figure_sweep_configs(run.seed)
    exec_start = time.monotonic()
    store = session.ensure(configs)
    exec_s = time.monotonic() - exec_start
    with run.span("analysis.render"):
        figures = render_figures(store)
    wall_s = run.elapsed()
    executed = sum(result.experiments for result in store)
    metrics = _end_to_end(setup_s, wall_s, executed, exec_s)
    layers = _traced_layers(run, wall_s, None)
    session.close()

    problems = []
    for program, runner in runners.items():
        problems += checks.check_golden_output(program, runner.golden.output)
    results = [store.get(config.campaign_id) for config in configs]
    rng = random.Random(f"perfbench-replay|{run.seed}")
    replay_runners = {program: replay_runner(program) for program in FIGURE_PROGRAMS}
    replays = 0
    failed = 0
    for result in results:
        problems += checks.check_campaign_counts(result)
        failed += _crashed(result)
        indices = sorted(rng.sample(range(result.experiments), FIGURE_REPLAYS_PER_CAMPAIGN))
        mismatched = replay(replay_runners[result.config.program], result, indices)
        replays += len(indices)
        failed += len(mismatched)
        problems += mismatched
    problems += check_figures(results, figures)
    counts = {
        "campaigns": len(results),
        "experiments": executed,
        "outcomes": _outcome_totals(results),
    }
    return RoundResult(metrics, executed + replays, failed, problems, layers, counts)


def _outcome_totals(results) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for result in results:
        for outcome, count in result.outcome_counts.as_dict().items():
            totals[outcome] = totals.get(outcome, 0) + count
    return totals


def _traced_layers(run: Round, wall_s: float, cache_dir: Optional[Path]):
    """Stop tracing at wall end and derive the per-layer metrics."""
    if run.tracer is None:
        return None
    run.tracer.stop()
    layers = layer_seconds(run.tracer, wall_s)
    layers.update(_cache_layers(cache_dir))
    # Planning metrics of the pruned workload; no plan is built elsewhere.
    layers.update({"errorspace.plan_s": 0.0, "errorspace.inferred_ratio": 0.0, "errorspace.classes": 0})
    return layers


# ------------------------------------------------------------- pruned-exhaustive
def live_read_bits(program: str) -> int:
    """Register-read bit widths summed by a read hook on one live golden run."""
    from repro.programs.registry import build_program
    from repro.vm.interpreter import Interpreter

    compiled = build_program(program)
    total = 0

    def count(_tick, _instruction, _slot, register, value):
        nonlocal total
        total += register.type.bits or 0
        return value

    Interpreter(compiled.module, entry=compiled.entry, read_hook=count).run()
    return total


def pruned_exhaustive(run: Round) -> RoundResult:
    program = PRUNED_PROGRAM
    technique = "inject-on-read"
    session = run.session(jobs=JOBS, cache_path=run.workdir / "results.json")
    # Keep what the budgeted sweep executed: run_exhaustive reports only
    # weighted counts, and a crashed execution fails every draw it settles.
    executed: Dict[tuple, object] = {}
    run_errors = session.engine.run_errors

    def keep_outcomes(program_name, technique_name, errors, **kwargs):
        outcomes = run_errors(program_name, technique_name, errors, **kwargs)
        if not executed:
            executed.update(zip(errors, outcomes))
        return outcomes

    session.engine.run_errors = keep_outcomes
    runner = session.experiment_runner(program)
    setup_s = run.elapsed()
    plan_start = time.monotonic()
    plan = session.pruned_plan(program, technique)
    plan_s = time.monotonic() - plan_start
    exec_start = time.monotonic()
    result = session.run_exhaustive(
        program, technique, mode="budgeted", budget=PRUNED_BUDGET, seed=run.seed
    )
    exec_s = time.monotonic() - exec_start
    wall_s = run.elapsed()
    metrics = _end_to_end(setup_s, wall_s, result.executed_experiments, exec_s)
    layers = _traced_layers(run, wall_s, session.cache_dir)
    if layers is not None:
        layers["errorspace.plan_s"] = plan_s
        layers["errorspace.inferred_ratio"] = plan.inferred_errors / plan.total_errors
        layers["errorspace.classes"] = len(plan.classes)

    problems = checks.check_golden_output(program, runner.golden.output)
    problems += checks.check_plan_coverage(plan, result, live_read_bits(program))
    # One operation per budget draw; repeated draws of a representative
    # share its one execution.
    attempted = failed = 0
    for planned in plan.experiments("budgeted", budget=PRUNED_BUDGET, seed=run.seed):
        outcome = executed.get(planned.error.key)
        if outcome is None:
            problems.append(f"budget draw {planned.error.key} was not executed")
        failed += outcome is None or outcome.value == "crashed"
        attempted += 1
    # Inference check: a seeded sample of inferred errors, executed.
    sample = random.Random(f"perfbench-infer|{run.seed}").sample(
        list(plan.inferred_outcomes), PRUNED_INFERENCE_SAMPLE
    )
    actual = session.runner.run_errors(program, technique, sample)
    wrong = checks.count_mismatches([plan.inferred_outcomes[e] for e in sample], actual)
    if wrong:
        problems.append(f"{wrong}/{len(sample)} inferred outcomes differ when executed")
    attempted += len(sample)
    failed += wrong
    mispredicted = class_audit(session, plan, program, technique)
    attempted += AUDIT_SAMPLE
    failed += mispredicted
    session.close()
    counts = {
        "total_errors": plan.total_errors,
        "inferred_errors": plan.inferred_errors,
        "classes": len(plan.classes),
        "executed": result.executed_experiments,
        "weighted_outcomes": result.outcome_counts.as_dict(),
        "audit_mispredicted": mispredicted,
    }
    return RoundResult(metrics, attempted, failed, problems, layers, counts)


def class_audit(session, plan, program: str, technique: str) -> int:
    """Members whose executed outcome differs from their representative's.

    A fixed-seed sample of non-representative class members is executed
    together with the representatives of their classes.  Each difference is
    a class-inheritance misprediction: a known fault of the def-use class
    key, counted as a failed operation (see ``README.md``).
    """
    audited = random.Random(AUDIT_SEED).sample(plan.non_representative_members(), AUDIT_SAMPLE)
    representative = {cls.class_id: cls.representative.key for cls in plan.classes}
    reps = sorted({representative[class_id] for _member, class_id in audited})
    members = [member for member, _class_id in audited]
    outcomes = session.runner.run_errors(program, technique, members + reps)
    rep_outcome = dict(zip(reps, outcomes[len(members) :]))
    expected = [rep_outcome[representative[class_id]] for _member, class_id in audited]
    return checks.count_mismatches(expected, outcomes[: len(members)])


# ------------------------------------------------------------- compiled-campaign
def compiled_campaign(run: Round) -> RoundResult:
    from repro.campaign.config import ExperimentScale
    from repro.campaign.plan import single_bit_campaigns

    program = COMPILED_PROGRAM
    session = run.session(
        scale=ExperimentScale("perfbench", COMPILED_EXPERIMENTS),
        jobs=JOBS,
        backend="compiled",
        cache_path=run.workdir / "results.json",
    )
    runner = session.experiment_runner(program)
    setup_s = run.elapsed()
    (config,) = single_bit_campaigns(
        [program], techniques=["inject-on-read"], master_seed=run.seed
    )
    exec_start = time.monotonic()
    store = session.ensure([config])
    exec_s = time.monotonic() - exec_start
    wall_s = run.elapsed()
    result = store.get(config.campaign_id)
    metrics = _end_to_end(setup_s, wall_s, result.experiments, exec_s)
    layers = _traced_layers(run, wall_s, session.cache_dir)
    session.close()

    problems = checks.check_golden_output(program, runner.golden.output)
    problems += checks.check_campaign_counts(result)
    if result.experiments != COMPILED_EXPERIMENTS:
        problems.append(f"campaign ran {result.experiments} experiments")
    indices = sorted(
        random.Random(f"perfbench-replay|{run.seed}").sample(
            range(result.experiments), COMPILED_REPLAYS
        )
    )
    mismatched = replay(replay_runner(program), result, indices)
    problems += mismatched
    counts = {"experiments": result.experiments, "outcomes": result.outcome_counts.as_dict()}
    failed = _crashed(result) + len(mismatched)
    return RoundResult(
        metrics, result.experiments + len(indices), failed, problems, layers, counts
    )


WORKLOADS: Dict[str, Callable[[Round], RoundResult]] = {
    "figure-sweep": figure_sweep,
    "pruned-exhaustive": pruned_exhaustive,
    "compiled-campaign": compiled_campaign,
}
