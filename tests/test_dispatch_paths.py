"""Every dispatch kind behaves the same under interrupt, poison and worker loss.

Sampled campaigns, exhaustive error batches and planner inference all run
through one chunk pipeline.  These tests pin the paths that the campaign
suites in ``test_resilience`` leave uncovered: serial error batches that are
interrupted and resumed, poisoned errors quarantined by the serial and the
pooled engine alike, and pooled error batches and planner inference that
lose every worker and finish in-process.
"""

import pytest

from repro.campaign import MultiprocessEngine, SerialEngine
from repro.errors import CampaignInterrupted
from repro.frontend import compile_program
from repro.injection import ExperimentRunner
from repro.injection.outcome import Outcome

TINY_PROGRAM = '''
def main() -> "i64":
    total = 0
    for i in range(12):
        scratch[i % 4] = i * 7
        total += scratch[i % 4]
    output(total)
    return total
'''


@pytest.fixture(scope="module")
def tiny_runner():
    program = compile_program("tiny", [TINY_PROGRAM], {"scratch": ("i32", [0, 0, 0, 0])})
    return ExperimentRunner(program)


@pytest.fixture(scope="module")
def tiny_provider(tiny_runner):
    def provider(name):
        assert name == "tiny"
        return tiny_runner

    return provider


@pytest.fixture(scope="module")
def tiny_errors(tiny_runner):
    """600 write errors spread over the whole golden run."""
    from repro.errorspace import enumerate_error_space

    space = list(enumerate_error_space(tiny_runner.golden, "inject-on-write").iter_errors())
    stride = len(space) // 600
    return [(e.dynamic_index, e.slot, e.bit) for e in space[::stride][:600]]


class _PoisonedErrorRunner:
    """Wraps a real runner; raises on one pinned (tick, bit) error."""

    def __init__(self, runner, poison):
        self._runner = runner
        self._poison = poison

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def run_spec(self, spec, **kwargs):
        if (spec.first_dynamic_index, spec.first_bit) == self._poison:
            raise RuntimeError("poisoned error")
        return self._runner.run_spec(spec, **kwargs)


class TestSerialErrorResume:
    def test_serial_run_errors_interrupt_then_resume_is_identical(
        self, tiny_provider, tiny_errors, tmp_path, monkeypatch
    ):
        baseline = SerialEngine().run_errors(
            "tiny", "inject-on-write", tiny_errors, provider=tiny_provider
        )
        ledger_dir = str(tmp_path / "ledger")

        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "1")
        with pytest.raises(CampaignInterrupted) as interrupted:
            SerialEngine(ledger_dir=ledger_dir).run_errors(
                "tiny", "inject-on-write", tiny_errors, provider=tiny_provider
            )
        assert interrupted.value.resumable
        assert interrupted.value.done == 256  # one serial error chunk
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")

        engine = SerialEngine(ledger_dir=ledger_dir, resume=True)
        resumed = engine.run_errors(
            "tiny", "inject-on-write", tiny_errors, provider=tiny_provider
        )
        assert resumed == baseline
        assert engine.supervision["ledger_loaded_units"] == 256


class TestErrorQuarantine:
    @pytest.mark.parametrize(
        "engine_factory",
        [
            lambda: SerialEngine(),
            lambda: MultiprocessEngine(jobs=2, chunk_size=64, max_retries=0),
        ],
        ids=["serial", "multiprocess"],
    )
    def test_poisoned_error_is_quarantined_as_crashed(
        self, tiny_runner, tiny_provider, tiny_errors, engine_factory
    ):
        clean = SerialEngine().run_errors(
            "tiny", "inject-on-write", tiny_errors, provider=tiny_provider
        )
        victim = 301
        tick, _slot, bit = tiny_errors[victim]
        assert sum(
            1 for t, _s, b in tiny_errors if (t, b) == (tick, bit)
        ) == 1, "the poison must single out one error"
        flaky = lambda name: _PoisonedErrorRunner(tiny_runner, (tick, bit))  # noqa: E731
        engine = engine_factory()
        outcomes = engine.run_errors(
            "tiny", "inject-on-write", tiny_errors, provider=flaky
        )
        assert outcomes[victim] is Outcome.CRASHED
        assert outcomes[:victim] == clean[:victim]
        assert outcomes[victim + 1 :] == clean[victim + 1 :]
        assert engine.supervision["quarantined_units"] == 1
        assert engine.supervision["bisections"] >= 1


class TestTotalWorkerLoss:
    def test_pooled_run_errors_degrades_to_serial(
        self, tiny_provider, tiny_errors, monkeypatch
    ):
        serial = SerialEngine().run_errors(
            "tiny", "inject-on-write", tiny_errors, provider=tiny_provider
        )
        monkeypatch.setenv("REPRO_CHAOS_KILL_NTH_CHUNK", "1")
        engine = MultiprocessEngine(jobs=2, chunk_size=128, max_retries=1)
        with pytest.warns(RuntimeWarning, match="degraded"):
            outcomes = engine.run_errors(
                "tiny", "inject-on-write", tiny_errors, provider=tiny_provider
            )
        assert outcomes == serial
        assert engine.supervision["degraded"] is True
        assert engine.supervision["serial_fallback_units"] == len(tiny_errors)

    def test_plan_inference_degrades_to_serial(self, tmp_path, monkeypatch):
        from repro import artifacts
        from repro.campaign.engine import RegistryProvider
        from repro.errorspace import enumerate_error_space
        from repro.errorspace.inference import OutcomeInference
        from repro.programs.registry import get_defuse_index, get_experiment_runner

        try:
            artifacts.configure(tmp_path / "artifacts")
            runner = get_experiment_runner("bfs")
            index = get_defuse_index("bfs")
            space = list(enumerate_error_space(runner.golden, "inject-on-read").iter_errors())
            errors = space[:: len(space) // 4000][:4000]
            inference = OutcomeInference(index)
            serial = [inference.infer(error) for error in errors]
            provider = RegistryProvider(cache_dir=str(tmp_path / "artifacts"))
            monkeypatch.setenv("REPRO_CHAOS_KILL_NTH_CHUNK", "1")
            with MultiprocessEngine(2, max_retries=1) as engine:
                infer_map = engine.plan_infer_map("bfs", provider=provider)
                assert infer_map is not None
                with pytest.warns(RuntimeWarning, match="degraded"):
                    degraded = infer_map(errors)
            assert degraded == serial
            assert any(outcome is not None for outcome in serial)
        finally:
            artifacts.configure(None)
