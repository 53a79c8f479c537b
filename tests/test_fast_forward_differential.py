"""Differential suite: fast-forwarded execution is bit-identical to scratch.

Fast-forward (checkpoint/restore of the shared golden prefix) claims to be a
pure performance optimisation: every observable of an experiment — the fault
spec, the outcome, the activated-error records, the dynamic instruction
count — must match from-scratch execution exactly.  These tests enforce the
claim at every level:

* per-experiment :class:`~repro.injection.experiment.ExperimentResult`
  equality across **every** registry program, with injection times spread
  from the first to the last golden tick;
* campaign :class:`~repro.campaign.results.ResultStore` files, byte for
  byte, with fast-forward on vs. off — and serial vs. multiprocess with the
  tick-sorted chunk execution, proving the engine's execution reordering
  never leaks into results.
"""

import random

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    MultiprocessEngine,
    RegistryProvider,
    ResultStore,
    SerialEngine,
)
from repro.injection import ExperimentRunner, TECHNIQUES
from repro.injection.faultmodel import FaultSpec, win_size_by_index
from repro.programs import registry

ALL_PROGRAMS = registry.all_program_names()


def _spread_specs(runner: ExperimentRunner, per_technique: int = 3):
    """Specs with first-injection times spread across the whole golden run."""
    golden_length = runner.golden.dynamic_instruction_count
    specs = []
    for technique in TECHNIQUES:
        rng = random.Random(f"{runner.program.module.name}/{technique.name}")
        for position in range(per_technique):
            spec = runner.seeded_spec(
                technique,
                max_mbf=(1, 4, 8)[position % 3],
                win_size=(0, 3, 100)[position % 3],
                seed=rng.getrandbits(48),
            )
            specs.append(spec)
    # Pin the boundaries explicitly: injection at the very first and the very
    # last eligible tick (the deepest fast-forward).
    for records in (
        runner.golden.records_with_destination()[:1],
        runner.golden.records_with_destination()[-1:],
    ):
        for record in records:
            specs.append(
                FaultSpec(
                    technique="inject-on-write",
                    first_dynamic_index=record.dynamic_index,
                    first_slot=None,
                    max_mbf=2,
                    win_size=1,
                    seed=golden_length,
                )
            )
    return specs


def _result_tuple(result):
    return (
        result.spec,
        result.outcome,
        result.activated_errors,
        tuple(result.injections),
        result.dynamic_instructions,
        result.fault_category,
    )


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_fast_forward_bit_identical(name):
    runner = registry.get_experiment_runner(name)
    assert runner.fast_forward, "registry runners fast-forward by default"
    specs = _spread_specs(runner)
    fast = [_result_tuple(runner.run_spec(spec, fast_forward=True)) for spec in specs]
    scratch = [
        _result_tuple(runner.run_spec(spec, fast_forward=False)) for spec in specs
    ]
    assert fast == scratch


def test_fast_forward_actually_restores():
    """The hot path really does resume from a checkpoint (not a silent fallback)."""
    runner = registry.get_experiment_runner("crc32")
    store = runner._checkpoint_store()
    assert store is not None and len(store) > 0
    late_tick = runner.golden.records_with_destination()[-1].dynamic_index
    assert store.latest_at(late_tick) is not None
    assert runner.golden.checkpoint_ticks == tuple(store.ticks)
    assert runner.golden.latest_checkpoint_at(late_tick) == store.latest_at(late_tick).tick


def test_runner_escape_hatch_disables_checkpoint_capture():
    program = registry.build_program("crc32")
    runner = ExperimentRunner(program, fast_forward=False)
    assert not runner.fast_forward
    assert runner._checkpoints is None
    spec = runner.seeded_spec(TECHNIQUES[0], seed=7)
    baseline = registry.get_experiment_runner("crc32")
    assert _result_tuple(runner.run_spec(spec)) == _result_tuple(baseline.run_spec(spec))


# --------------------------------------------------------------------- store bytes
def _campaign_configs(experiments=16):
    return [
        CampaignConfig(
            program="crc32",
            technique="inject-on-read",
            max_mbf=3,
            win_size=win_size_by_index("w4"),
            experiments=experiments,
        ),
        CampaignConfig(
            program="dijkstra",
            technique="inject-on-write",
            max_mbf=5,
            win_size=win_size_by_index("w2"),
            experiments=experiments,
        ),
    ]


def _runner_provider(**settings):
    """A provider building each workload's runner with the given settings."""

    def provider(name):
        return ExperimentRunner(registry.build_program(name), **settings)

    return provider


def _store_bytes(tmp_path, filename, provider, engine=None):
    runner = CampaignRunner(provider, engine=engine) if engine else CampaignRunner(provider)
    store = runner.run_campaigns(_campaign_configs(), ResultStore())
    path = tmp_path / filename
    store.save(path)
    return path.read_bytes()


def test_store_bytes_identical_fast_forward_vs_scratch(tmp_path):
    fast = _store_bytes(tmp_path, "fast.json", _runner_provider(fast_forward=True))
    scratch = _store_bytes(
        tmp_path, "scratch.json", _runner_provider(fast_forward=False)
    )
    assert fast == scratch


def test_store_bytes_identical_serial_vs_multiprocess_sorted_chunks(tmp_path):
    """Tick-sorted chunk execution merges back to submission order exactly."""
    serial = _store_bytes(
        tmp_path, "serial.json", RegistryProvider(), engine=SerialEngine()
    )
    parallel = _store_bytes(
        tmp_path,
        "parallel.json",
        RegistryProvider(),
        engine=MultiprocessEngine(2, chunk_size=5),
    )
    assert serial == parallel


def test_store_bytes_identical_with_explicit_checkpoint_interval(tmp_path):
    default = _store_bytes(tmp_path, "default.json", RegistryProvider())
    pinned = _store_bytes(
        tmp_path, "pinned.json", _runner_provider(checkpoint_interval=97)
    )
    assert default == pinned
