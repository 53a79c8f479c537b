"""Regression tests for session- and runner-level accounting.

* a cached result store answers only the exact campaign configuration it
  holds (the store key leaves out the experiment count and master seed);
* an exhaustive run with validation reports the phase time of every engine
  call it made, not only the last one;
* a pooled compiled campaign generates and ``exec``s its code once in the
  parent, however many times runners and warm-up ask for it;
* a generated-code artifact written in the previous two-source format is a
  cache miss: it is regenerated and stored again, never executed.
"""

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    ExperimentScale,
    MultiprocessEngine,
    ResultStore,
    SerialEngine,
)
from repro.frontend import compile_program
from repro.injection import ExperimentRunner
from repro.injection.faultmodel import win_size_by_index
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


def tiny_program(name="tiny"):
    return compile_program(name, [TINY_PROGRAM], {"scratch": ("i32", [0, 0, 0, 0])})


def tiny_config(**overrides):
    defaults = dict(
        program="tiny",
        technique="inject-on-write",
        max_mbf=3,
        win_size=win_size_by_index("w4"),
        experiments=8,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_provider():
    runner = ExperimentRunner(tiny_program())
    return lambda name: runner


class _CountingEngine(SerialEngine):
    def __init__(self):
        super().__init__()
        self.runs = 0

    def run(self, config, **kwargs):
        self.runs += 1
        return super().run(config, **kwargs)


class TestStoreReuse:
    def test_different_experiment_count_reruns_and_replaces(self, tiny_provider):
        engine = _CountingEngine()
        runner = CampaignRunner(tiny_provider, engine=engine)
        store = runner.run_campaigns([tiny_config(experiments=8)])
        store = runner.run_campaigns([tiny_config(experiments=12)], store)
        assert engine.runs == 2
        assert store.get(tiny_config()).experiments == 12
        assert len(store) == 1

    def test_different_master_seed_reruns(self, tiny_provider):
        engine = _CountingEngine()
        runner = CampaignRunner(tiny_provider, engine=engine)
        store = runner.run_campaigns([tiny_config()])
        store = runner.run_campaigns([tiny_config(master_seed=7)], store)
        assert engine.runs == 2
        assert store.get(tiny_config()).config.master_seed == 7

    def test_session_save_load_ensure_executes_nothing(self, tmp_path):
        from repro.experiments import ExperimentSession

        config = CampaignConfig(
            program="crc32",
            technique="inject-on-read",
            max_mbf=1,
            win_size=win_size_by_index("w1"),
            experiments=4,
        )
        # A random win-size range must round-trip through the store as well.
        ranged = CampaignConfig(
            program="crc32",
            technique="inject-on-write",
            max_mbf=2,
            win_size=win_size_by_index("w6"),
            experiments=4,
        )
        scale = ExperimentScale("test", experiments_per_campaign=4)
        cache = tmp_path / "store.json"
        try:
            ExperimentSession(scale=scale, cache_path=cache).ensure([config, ranged])
            saved = cache.read_bytes()
            engine = _CountingEngine()
            ExperimentSession(scale=scale, cache_path=cache, engine=engine).ensure(
                [config, ranged]
            )
            assert engine.runs == 0
            assert cache.read_bytes() == saved
            bigger = ExperimentScale("test", experiments_per_campaign=6)
            ExperimentSession(scale=bigger, cache_path=cache, engine=engine).ensure([config])
            assert engine.runs == 1
            assert ResultStore.load(cache).get(config).experiments == 6
        finally:
            from repro import artifacts

            artifacts.configure(None)


class _PhaseStubEngine(SerialEngine):
    """Settles every error as benign and reports made-up per-call phases."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run_errors(self, program, technique, errors, *, provider, on_progress=None):
        self.phase_seconds = {"restore": 0.25, "tail": 0.001 * len(errors)}
        self.calls.append(dict(self.phase_seconds))
        return [Outcome.BENIGN] * len(errors)


class TestExhaustivePhaseTotals:
    def test_validation_phase_time_sums_every_engine_call(self):
        from repro.experiments import ExperimentSession

        engine = _PhaseStubEngine()
        session = ExperimentSession(engine=engine)
        result = session.run_exhaustive(
            "bfs", mode="pruned", validate=0.001, infer=False
        )
        assert result.validation_sampled > 0
        assert len(engine.calls) == 2  # representatives, then validation
        expected = {
            phase: sum(call[phase] for call in engine.calls)
            for phase in ("restore", "tail")
        }
        assert result.phase_seconds == pytest.approx(expected)
        assert result.phase_seconds != engine.phase_seconds
        assert "phase_seconds" not in result.to_dict()


class TestCompiledWarmup:
    def test_pooled_compiled_campaign_execs_each_variant_once(
        self, tmp_path, monkeypatch
    ):
        from repro import artifacts
        from repro.vm import codegen

        executed = []
        original = codegen._exec_source

        def counting_exec(source, consts, tag):
            executed.append(tag)
            return original(source, consts, tag)

        monkeypatch.setattr(codegen, "_exec_source", counting_exec)
        try:
            artifacts.configure(tmp_path / "artifacts")
            runner = ExperimentRunner(tiny_program("tinyjit"), backend="compiled")
            config = tiny_config(program="tinyjit", experiments=16)
            with MultiprocessEngine(jobs=2, chunk_size=4) as engine:
                result = engine.run(config, provider=lambda name: runner)
        finally:
            artifacts.configure(None)
        assert result.experiments == 16
        assert executed == ["tinyjit:bare"]

    def test_two_source_artifact_of_the_previous_version_is_regenerated(
        self, tmp_path, monkeypatch
    ):
        from repro import artifacts
        from repro.vm import codegen, decode_module

        module = tiny_program("tinystale").module
        decoded = decode_module(module)
        executed = []
        original = codegen._exec_source

        def recording_exec(source, consts, tag):
            executed.append(source)
            return original(source, consts, tag)

        monkeypatch.setattr(codegen, "_exec_source", recording_exec)
        stale = "raise AssertionError('stale codegen artifact executed')\n"
        try:
            cache = artifacts.configure(tmp_path / "artifacts")
            # Version "2" stored a bare and an instrumented source per module.
            stale_key = cache.key_for(
                "codegen", artifacts.module_fingerprint(module), "2"
            )
            assert cache.store(
                "codegen",
                stale_key,
                {
                    "version": "2",
                    "module": module.name,
                    "functions": list(decoded.functions),
                    "consts_len": len(codegen.build_consts(decoded)),
                    "source_bare": stale,
                    "source_instrumented": stale,
                },
            )
            generations = codegen.CODEGEN_GENERATIONS
            code = codegen.compile_program(decoded)
            stored = cache.load("codegen", codegen.codegen_key(cache, module))
        finally:
            artifacts.configure(None)
        assert not code.loaded_from_cache
        assert codegen.CODEGEN_GENERATIONS == generations + 1
        assert executed == [code.source_bare]
        assert stored["source"] == code.source_bare
