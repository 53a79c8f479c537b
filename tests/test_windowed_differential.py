"""Differential suite: injection-windowed execution is bit-identical.

Windowed execution (bare sprint to the fault window, hooked only while the
injector can still flip, bare tail after the last flip) claims to be a pure
performance optimisation.  Every observable of an experiment — outcome,
activated-error count, the individual :class:`InjectionRecord`\\ s, the
dynamic instruction count, the hardware-fault category — must match an
always-hooked run exactly, on both resumable backends.  These tests enforce
the claim per experiment, at the campaign :class:`ResultStore` byte level,
and on the edge cases where the window machinery earns its keep: injection
at the very first and very last golden tick, hangs that strike after the
final flip, and windows straddling a VM checkpoint.

Set ``REPRO_DIFF_FULL=1`` for the exhaustive sweep (every program, both
backends, a denser spec grid); the default run keeps a representative
subset so tier-1 stays fast.
"""

import os
import random

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, ResultStore
from repro.injection import ExperimentRunner, TECHNIQUES
from repro.injection.faultmodel import FaultSpec, win_size_by_index
from repro.injection.outcome import Outcome
from repro.programs import registry

FULL_SWEEP = os.environ.get("REPRO_DIFF_FULL", "") not in ("", "0")
ALL_PROGRAMS = registry.all_program_names()
#: The quick subset covers both suites, a hang-prone workload and the
#: benchmark the throughput gate measures (crc32).
QUICK_PROGRAMS = ["crc32", "qsort", "dijkstra", "sha", "bfs"]
SWEEP_PROGRAMS = ALL_PROGRAMS if FULL_SWEEP else QUICK_PROGRAMS
BACKENDS = ("decoded", "compiled")


def _result_tuple(result):
    return (
        result.spec,
        result.outcome,
        result.activated_errors,
        tuple(result.injections),
        result.dynamic_instructions,
        result.fault_category,
    )


def _window_specs(runner: ExperimentRunner):
    """Specs that exercise every windowed-execution regime.

    Sampled specs spread first-injection times across the run for both
    techniques; the pinned specs target tick 0, the final tick, a window
    straddling a VM checkpoint, and a follow-up schedule reaching past the
    end of the program (the injector never exhausts, so the tail segment
    never detaches early).
    """
    golden = runner.golden
    total = golden.dynamic_instruction_count
    per_technique = 6 if FULL_SWEEP else 3
    specs = []
    for technique in TECHNIQUES:
        rng = random.Random(f"windowed/{runner.program.module.name}/{technique.name}")
        for position in range(per_technique):
            specs.append(
                runner.seeded_spec(
                    technique,
                    max_mbf=(1, 4, 8)[position % 3],
                    win_size=(0, 3, 100)[position % 3],
                    seed=rng.getrandbits(48),
                )
            )
    first_tick = golden.records_with_destination()[0].dynamic_index
    last_tick = golden.records_with_destination()[-1].dynamic_index
    # Injection at the first eligible tick: the bare pre-window sprint is
    # empty (or near-empty) and the hooked window opens immediately.
    specs.append(
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=first_tick,
            first_slot=None,
            max_mbf=2,
            win_size=1,
            seed=11,
        )
    )
    # Injection at the final eligible tick: the deepest bare sprint, no tail.
    specs.append(
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=last_tick,
            first_slot=None,
            max_mbf=2,
            win_size=1,
            seed=13,
        )
    )
    # Follow-ups scheduled past the end of the run: the injector is never
    # exhausted, so windowed execution keeps sprinting between scheduled
    # times until the program simply completes.
    specs.append(
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=max(0, total - 10),
            first_slot=None,
            max_mbf=30,
            win_size=total,
            seed=17,
        )
    )
    # A window straddling a VM checkpoint: the hooked segment runs across
    # the tick a fast-forward restore would target.
    for tick in golden.checkpoint_ticks[:1]:
        specs.append(
            FaultSpec(
                technique="inject-on-write",
                first_dynamic_index=max(0, tick - 3),
                first_slot=None,
                max_mbf=4,
                win_size=2,
                seed=19,
            )
        )
    return specs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", SWEEP_PROGRAMS)
def test_windowed_bit_identical(name, backend):
    runner = registry.get_experiment_runner(name, backend=backend)
    assert runner.windowed, "registry runners run windowed by default"
    specs = _window_specs(runner)
    windowed = [_result_tuple(runner.run_spec(s, windowed=True)) for s in specs]
    hooked = [_result_tuple(runner.run_spec(s, windowed=False)) for s in specs]
    assert windowed == hooked


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", SWEEP_PROGRAMS)
def test_windowed_bit_identical_without_fast_forward(name, backend):
    """Windowing composes with from-scratch execution (no checkpoint restore)."""
    runner = registry.get_experiment_runner(name, backend=backend)
    specs = _window_specs(runner)[:4]
    windowed = [
        _result_tuple(runner.run_spec(s, windowed=True, fast_forward=False))
        for s in specs
    ]
    hooked = [
        _result_tuple(runner.run_spec(s, windowed=False, fast_forward=False))
        for s in specs
    ]
    assert windowed == hooked


#: Found by sweep: faults that leave the program looping forever, with the
#: flips landing *before* the hang — the bare tail segment must still hit
#: the watchdog at the exact same tick an always-hooked run does.
_HANG_SPECS = {
    "crc32": FaultSpec(
        technique="inject-on-write",
        first_dynamic_index=3071,
        first_slot=None,
        max_mbf=2,
        win_size=4,
        seed=83,
    ),
    "dijkstra": FaultSpec(
        technique="inject-on-write",
        first_dynamic_index=2146,
        first_slot=None,
        max_mbf=2,
        win_size=4,
        seed=58,
    ),
    "bfs": FaultSpec(
        technique="inject-on-write",
        first_dynamic_index=703,
        first_slot=None,
        max_mbf=2,
        win_size=4,
        seed=19,
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(_HANG_SPECS))
def test_windowed_hang_after_injection(name, backend):
    """A hang in the bare tail classifies identically to an always-hooked run."""
    runner = registry.get_experiment_runner(name, backend=backend)
    spec = _HANG_SPECS[name]
    hooked = runner.run_spec(spec, windowed=False)
    assert hooked.outcome is Outcome.HANG, "sweep-selected spec must still hang"
    assert hooked.activated_errors == spec.max_mbf, "flips land before the hang"
    windowed = runner.run_spec(spec, windowed=True)
    assert _result_tuple(windowed) == _result_tuple(hooked)


def test_windowed_exhausted_signal_detaches():
    """The injector reports exhaustion exactly when the last flip lands."""
    runner = registry.get_experiment_runner("crc32")
    spec = runner.seeded_spec(TECHNIQUES[0], max_mbf=3, win_size=2, seed=5)
    result = runner.run_spec(spec, windowed=True)
    assert result.activated_errors <= spec.max_mbf
    if result.activated_errors == spec.max_mbf:
        assert result.injections[-1].dynamic_index < result.dynamic_instructions


# --------------------------------------------------------------------- store bytes
def _runner_provider(**settings):
    """A provider building each workload's runner with the given settings."""

    def provider(name):
        return ExperimentRunner(registry.build_program(name), **settings)

    return provider


def _store_bytes(tmp_path, filename, provider):
    configs = [
        CampaignConfig(
            program="crc32",
            technique="inject-on-read",
            max_mbf=3,
            win_size=win_size_by_index("w4"),
            experiments=16,
        ),
        CampaignConfig(
            program="dijkstra",
            technique="inject-on-write",
            max_mbf=5,
            win_size=win_size_by_index("w2"),
            experiments=16,
        ),
    ]
    store = CampaignRunner(provider).run_campaigns(configs, ResultStore())
    path = tmp_path / filename
    store.save(path)
    return path.read_bytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_bytes_identical_windowed_vs_hooked(tmp_path, backend):
    windowed = _store_bytes(
        tmp_path,
        f"windowed-{backend}.json",
        _runner_provider(backend=backend, windowed=True),
    )
    hooked = _store_bytes(
        tmp_path,
        f"hooked-{backend}.json",
        _runner_provider(backend=backend, windowed=False),
    )
    assert windowed == hooked
