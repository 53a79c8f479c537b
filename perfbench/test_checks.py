"""Each output check of the benchmark passes on real data and fails on a copy
with one value corrupted.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.campaign.config import ExperimentScale  # noqa: E402
from repro.campaign.plan import multi_register_campaigns, single_bit_campaigns  # noqa: E402
from repro.campaign.results import ExhaustiveCampaignResult  # noqa: E402
from repro.errorspace import build_pruned_plan, enumerate_error_space  # noqa: E402
from repro.experiments.session import ExperimentSession  # noqa: E402
from repro.injection.faultmodel import win_size_by_index  # noqa: E402
from repro.injection.outcome import Outcome, OutcomeCounts  # noqa: E402
from repro.programs import registry  # noqa: E402


def _flip(outcome: Outcome) -> Outcome:
    return Outcome.SDC if outcome is not Outcome.SDC else Outcome.BENIGN


def _with_record(result, index: int, **changes):
    """A deep copy of a stored campaign with one record changed."""
    corrupted = copy.deepcopy(result)
    corrupted.records[index] = dataclasses.replace(corrupted.records[index], **changes)
    return corrupted


@pytest.fixture(scope="module")
def store():
    session = ExperimentSession(scale=ExperimentScale("test", 20))
    configs = single_bit_campaigns(["crc32"], master_seed=5)
    configs += multi_register_campaigns(
        ["crc32"], max_mbf_values=(3,), win_size_specs=[win_size_by_index("w3")], master_seed=5
    )
    return session.ensure(configs)


@pytest.mark.parametrize("program", sorted(checks.EXPECTED_OUTPUTS))
def test_golden_output_check(program):
    output = list(registry.get_experiment_runner(program).golden.output)
    assert checks.check_golden_output(program, output) == []
    kind, bits = output[-1]
    output[-1] = (kind, bits + 1)
    assert checks.check_golden_output(program, output)


def test_campaign_counts_check(store):
    for result in store:
        assert checks.check_campaign_counts(result) == []
        flipped = _with_record(result, 0, outcome=_flip(result.records[0].outcome))
        assert checks.check_campaign_counts(flipped)
    single = store.single_bit("crc32", "inject-on-read")
    assert checks.check_campaign_counts(_with_record(single, 3, activated_errors=2))
    (multi,) = store.multi_bit("crc32", "inject-on-read")
    assert checks.check_campaign_counts(_with_record(multi, 3, activated_errors=4))


def test_replay_check(store):
    result = store.single_bit("crc32", "inject-on-write")
    runner = workloads.replay_runner("crc32")
    assert workloads.replay(runner, result, range(5)) == []
    flipped = _with_record(result, 2, outcome=_flip(result.records[2].outcome))
    assert len(workloads.replay(runner, flipped, range(5))) == 1
    moved = _with_record(result, 4, first_dynamic_index=result.records[4].first_dynamic_index + 1)
    assert len(workloads.replay(runner, moved, range(5))) == 1


def test_figure_check(store):
    figures = workloads.render_figures(store)
    results = list(store)
    assert workloads.check_figures(results, figures) == []
    single = store.single_bit("crc32", "inject-on-read")
    index = results.index(single)
    corrupted = list(results)
    corrupted[index] = _with_record(single, 0, outcome=_flip(single.records[0].outcome))
    problems = workloads.check_figures(corrupted, figures)
    # Figure 1 and Figure 2 both print inject-on-read's single-bit SDC%.
    assert any(p.startswith("figure1/inject-on-read") for p in problems)
    assert any(p.startswith("figure2/inject-on-read") for p in problems)


@pytest.fixture(scope="module")
def bfs_plan():
    runner = registry.get_experiment_runner("bfs")
    space = enumerate_error_space(runner.golden, "inject-on-read")
    return build_pruned_plan(space, registry.get_defuse_index("bfs"), infer=False)


def test_plan_coverage_check(bfs_plan):
    counts = OutcomeCounts()
    counts.add(Outcome.BENIGN, bfs_plan.total_errors)
    result = ExhaustiveCampaignResult(
        program="bfs",
        technique="inject-on-read",
        mode="budgeted",
        total_errors=bfs_plan.total_errors,
        candidate_count=bfs_plan.candidate_count,
        executed_experiments=1,
        inferred_errors=bfs_plan.inferred_errors,
        outcome_counts=counts,
    )
    read_bits = workloads.live_read_bits("bfs")
    assert checks.check_plan_coverage(bfs_plan, result, read_bits) == []
    corrupted = copy.copy(bfs_plan)
    corrupted.classes = list(bfs_plan.classes)
    heavy = next(i for i, cls in enumerate(corrupted.classes) if cls.members)
    cls = corrupted.classes[heavy]
    corrupted.classes[heavy] = dataclasses.replace(cls, members=cls.members[1:])
    assert checks.check_plan_coverage(corrupted, result, read_bits)
    assert checks.check_plan_coverage(bfs_plan, result, read_bits + 1)


def test_mismatch_count():
    expected = [Outcome.BENIGN, Outcome.SDC, Outcome.HANG]
    assert checks.count_mismatches(expected, list(expected)) == 0
    assert checks.count_mismatches(expected, [Outcome.BENIGN, Outcome.BENIGN, Outcome.HANG]) == 1

