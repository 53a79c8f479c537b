"""Error-space pruning benchmark: reduction, misprediction and plan-time gates.

Builds the pruned plan of crc32's full inject-on-read single-bit error space
(377,914 errors), asserts the pruning's headline guarantees, and writes
``BENCH_pruning.json`` at the repository root so CI tracks the trajectory:

* the plan's **reduction factor** (errors in the space / experiments the
  exact pruned campaign executes) must clear ``REPRO_BENCH_MIN_REDUCTION``
  (CI enforces 3.0; measured headroom is ~4.3x);
* **cold planning** (def-use extraction + inference + assembly from
  scratch, nothing cached) must be at least ``REPRO_BENCH_MIN_PLAN_SPEEDUP``
  times faster (CI enforces 3.0; the columnar pipeline measures 3.5-4.1x)
  than the frozen object-based pipeline of
  :mod:`repro.errorspace.reference`, timed in the same process on the same
  error space — a ratio, so the gate holds on any runner — and both
  pipelines must build the identical plan;
* **warm planning** (the same plan fetched from the persistent artifact
  cache by a fresh session) must finish within
  ``REPRO_BENCH_MAX_WARM_PLAN`` seconds (CI enforces 1.0) and be
  bit-identical to the cold plan;
* a seeded **audit sample** drawn from all three outcome sources — errors
  settled by static inference, class representatives, and inherited
  (non-representative) class members — is executed for real, and every
  prediction is compared with the actual outcome.  The misprediction rate
  over the inherited members must stay within
  ``REPRO_BENCH_MAX_MISPREDICTION`` (CI enforces 0.01); statically inferred
  outcomes must match *exactly* (they are proofs, not predictions).

During development the full 377,914-error unpruned campaign was executed
once and the pruned plan's weighted counts matched it exactly (SDC 189,012,
detected 131,717, benign 56,385, hang 800) at 4.29x fewer experiments;
set ``REPRO_BENCH_PRUNING_FULL=1`` to repeat that end-to-end equality check
(~35 minutes single-process).

Knobs:

``REPRO_BENCH_PRUNING_PROGRAM``     workload (default ``crc32``)
``REPRO_BENCH_PRUNING_SAMPLES``     audit sample size (default 600)
``REPRO_BENCH_MIN_REDUCTION``       reduction-factor gate (default 3.0)
``REPRO_BENCH_MAX_MISPREDICTION``   inherited-member gate (default 0.01)
``REPRO_BENCH_MIN_PLAN_SPEEDUP``    cold plan speedup gate (default 3.0)
``REPRO_BENCH_MAX_WARM_PLAN``       warm plan seconds gate (default 1.0)
``REPRO_BENCH_PRUNING_FULL``        run the unpruned space too (default off)
"""

from __future__ import annotations

import gc
import json
import os
import random
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro import artifacts
from repro.campaign.engine import run_error_batch
from repro.errorspace import build_defuse_index, build_pruned_plan, enumerate_error_space
from repro.errorspace.reference import (
    reference_build_defuse_index,
    reference_build_pruned_plan,
)
from repro.injection.outcome import OutcomeCounts
from repro.programs.registry import get_experiment_runner

PROGRAM = os.environ.get("REPRO_BENCH_PRUNING_PROGRAM", "crc32")
SAMPLES = int(os.environ.get("REPRO_BENCH_PRUNING_SAMPLES", "600"))
MIN_REDUCTION = float(os.environ.get("REPRO_BENCH_MIN_REDUCTION", "3.0"))
MAX_MISPREDICTION = float(os.environ.get("REPRO_BENCH_MAX_MISPREDICTION", "0.01"))
MIN_PLAN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_PLAN_SPEEDUP", "3.0"))
MAX_WARM_PLAN = float(os.environ.get("REPRO_BENCH_MAX_WARM_PLAN", "1.0"))
FULL = os.environ.get("REPRO_BENCH_PRUNING_FULL", "") == "1"

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pruning.json"


@contextmanager
def quiesced_gc():
    """Time planning without paying for the surrounding test session's heap.

    When the whole suite runs before this benchmark, hundreds of thousands
    of long-lived objects (cached runners for all 15 workloads, decoded
    programs, traces) sit in the GC generations; the planner's allocation
    rate then triggers collections that scan that unrelated heap and inflate
    the measurement ~30%.  Freezing the pre-existing heap and disabling the
    collector for the timed region measures the pipeline itself — planning
    allocates no reference cycles, so refcounting reclaims everything.
    """
    gc.collect()
    gc.freeze()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()


def time_cold_plan(runner, space, build_index, build_plan):
    """Build one pipeline's plan from scratch; returns ``(plan, seconds)``.

    Def-use extraction, inference and plan assembly run inside the timer;
    the golden trace and the error space are shared inputs outside it.
    """
    with quiesced_gc():
        started = time.perf_counter()
        index = build_index(
            runner.program, runner.golden, args=runner.args, decoded=runner.decoded
        )
        plan = build_plan(space, index)
        seconds = time.perf_counter() - started
    return plan, seconds


def test_pruning_reduction_and_misprediction():
    runner = get_experiment_runner(PROGRAM)
    space = enumerate_error_space(runner.golden, "inject-on-read")

    # -- cold planning: the frozen object-based pipeline is the baseline,
    # timed on this host so the gate compares two pipelines, not two machines.
    reference_plan, baseline_seconds = time_cold_plan(
        runner, space, reference_build_defuse_index, reference_build_pruned_plan
    )
    plan, plan_seconds = time_cold_plan(
        runner, space, build_defuse_index, build_pruned_plan
    )
    assert plan.matches(reference_plan), (
        "columnar plan diverged from the frozen reference pipeline's plan"
    )
    plan_speedup = baseline_seconds / plan_seconds if plan_seconds > 0 else float("inf")
    assert plan_speedup >= MIN_PLAN_SPEEDUP, (
        f"cold planning took {plan_seconds:.2f}s — only {plan_speedup:.2f}x over "
        f"the {baseline_seconds:.2f}s object-based reference pipeline, below the "
        f"{MIN_PLAN_SPEEDUP}x gate"
    )

    # -- warm planning: a fresh cache round-trip must be near-free and exact.
    with tempfile.TemporaryDirectory(prefix="repro-bench-artifacts-") as cache_dir:
        cache = artifacts.ArtifactCache(cache_dir)
        key = artifacts.plan_key(
            cache, runner.program.module, runner.program.entry, runner.args,
            "inject-on-read", True,
        )
        assert artifacts.store_plan(cache, key, plan)
        with quiesced_gc():
            warm_started = time.perf_counter()
            warm_plan = artifacts.load_plan(cache, key)
            warm_seconds = time.perf_counter() - warm_started
    assert warm_plan is not None
    assert plan.matches(warm_plan), "cached plan diverged from cold build"
    assert warm_seconds <= MAX_WARM_PLAN, (
        f"warm (artifact-cache) planning took {warm_seconds:.3f}s, above the "
        f"{MAX_WARM_PLAN}s gate"
    )

    assert plan.covered_errors == plan.total_errors == space.size
    reduction = plan.reduction_factor
    assert reduction >= MIN_REDUCTION, (
        f"pruned plan executes {plan.executed_experiments} of {plan.total_errors} "
        f"errors ({reduction:.2f}x), below the {MIN_REDUCTION}x gate"
    )

    # -- audit sample: predictions vs. real executions -----------------------------
    rng = random.Random(2017)
    inherited_population = plan.non_representative_members()
    inferred_population = sorted(plan.inferred_outcomes)
    class_by_id = {cls.class_id: cls for cls in plan.classes}

    inferred_share = min(len(inferred_population), SAMPLES // 3)
    inherited_share = min(len(inherited_population), SAMPLES - inferred_share)
    inferred_sample = rng.sample(inferred_population, inferred_share)
    inherited_sample = rng.sample(inherited_population, inherited_share)

    # Representatives needed to predict the inherited members' outcomes.
    needed_classes = sorted({class_id for _member, class_id in inherited_sample})
    representative_errors = [
        (
            class_by_id[class_id].representative.dynamic_index,
            class_by_id[class_id].representative.slot,
            class_by_id[class_id].representative.bit,
        )
        for class_id in needed_classes
    ]

    run_started = time.perf_counter()
    representative_outcomes = dict(
        zip(needed_classes, run_error_batch(runner, "inject-on-read", representative_errors))
    )
    inferred_actual = run_error_batch(runner, "inject-on-read", inferred_sample)
    inherited_actual = run_error_batch(
        runner, "inject-on-read", [member for member, _class_id in inherited_sample]
    )
    run_seconds = time.perf_counter() - run_started
    executed = len(representative_errors) + len(inferred_sample) + len(inherited_sample)

    inference_wrong = sum(
        1
        for key, actual in zip(inferred_sample, inferred_actual)
        if plan.inferred_outcomes[key] is not actual
    )
    assert inference_wrong == 0, (
        f"{inference_wrong}/{len(inferred_sample)} statically inferred outcomes "
        "disagree with real executions — inference must be exact"
    )

    mispredicted = sum(
        1
        for (member, class_id), actual in zip(inherited_sample, inherited_actual)
        if representative_outcomes[class_id] is not actual
    )
    misprediction_rate = mispredicted / len(inherited_sample) if inherited_sample else 0.0
    assert misprediction_rate <= MAX_MISPREDICTION, (
        f"{mispredicted}/{len(inherited_sample)} inherited class members "
        f"mispredicted ({100.0 * misprediction_rate:.2f}%), above the "
        f"{100.0 * MAX_MISPREDICTION:.2f}% gate"
    )

    payload = {
        "program": PROGRAM,
        "technique": "inject-on-read",
        "error_space": plan.total_errors,
        "candidate_locations": plan.candidate_count,
        "inferred_errors": plan.inferred_errors,
        "equivalence_classes": plan.executed_experiments,
        "reduction_factor": round(reduction, 3),
        "plan_seconds": round(plan_seconds, 2),
        "plan_baseline_seconds": round(baseline_seconds, 2),
        "plan_speedup_vs_baseline": round(plan_speedup, 2),
        "plan_seconds_warm": round(warm_seconds, 3),
        "audit": {
            "experiments_executed": executed,
            "wall_clock_seconds": round(run_seconds, 2),
            "experiments_per_second": round(executed / run_seconds, 1)
            if run_seconds > 0
            else None,
            "inferred_sampled": len(inferred_sample),
            "inferred_wrong": inference_wrong,
            "inherited_sampled": len(inherited_sample),
            "inherited_mispredicted": mispredicted,
            "misprediction_rate": round(misprediction_rate, 5),
        },
    }

    if FULL:
        full_started = time.perf_counter()
        errors = [(e.dynamic_index, e.slot, e.bit) for e in space.iter_errors()]
        truth = run_error_batch(runner, "inject-on-read", errors)
        truth_counts = OutcomeCounts()
        truth_counts.update(truth)
        planned = plan.exact_experiments()
        outcomes = run_error_batch(
            runner,
            "inject-on-read",
            [(p.error.dynamic_index, p.error.slot, p.error.bit) for p in planned],
        )
        weighted = plan.expand_counts(
            {planned[i].class_id: outcomes[i] for i in range(len(planned))}, planned
        )
        assert weighted.as_dict() == truth_counts.as_dict(), (
            "pruned weighted counts diverge from the unpruned exhaustive campaign"
        )
        payload["full_equality"] = {
            "outcomes": truth_counts.as_dict(),
            "wall_clock_seconds": round(time.perf_counter() - full_started, 2),
        }

    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULT_PATH.name}: reduction {reduction:.2f}x, "
          f"cold plan {plan_seconds:.1f}s ({plan_speedup:.1f}x vs the "
          f"{baseline_seconds:.1f}s reference pipeline), warm plan {warm_seconds * 1000:.0f}ms, "
          f"misprediction {100.0 * misprediction_rate:.3f}% "
          f"({executed} audit experiments in {run_seconds:.0f}s)")
