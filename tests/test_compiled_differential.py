"""Differential suite: the compiled backend is bit-identical to decoded.

The transpiled-Python backend (:mod:`repro.vm.codegen`) claims bit-identical
behaviour to the decoded interpreter it was generated from — which the
decoded differential suite in turn pins to the reference tree walker.  These
tests enforce the compiled backend's claim at every level the campaign stack
depends on:

* golden traces (records, output, return value) across **every** registry
  program, bare and traced;
* hook call sequences (dynamic index, slot, register, value) on both hooks;
* watchdog/limit behaviour — truncated runs stop at the same tick with the
  same partial trace;
* checkpoint fast-forward interop — experiments resumed from decoded-built
  snapshots on the compiled backend match from-scratch decoded execution;
* per-experiment injection results for fixed seeds;
* campaign :class:`~repro.campaign.results.ResultStore` files, byte for byte.

It also pins the codegen cache contract: generated source persists in the
artifact cache and is never re-generated by warm processes or worker pools,
and structural module mutation invalidates the compiled cache together with
the decode cache.

By default the injection differential runs on a four-program subset (both
suites, integer- and float-heavy, data- and address-dominated); set
``REPRO_DIFF_FULL=1`` to sweep all registry programs.
"""

import os
import random

import pytest

from repro import artifacts
from repro.campaign import CampaignConfig, CampaignRunner, ResultStore
from repro.campaign.engine import MultiprocessEngine, RegistryProvider
from repro.injection import ExperimentRunner, TECHNIQUES, profile_program
from repro.injection.faultmodel import FaultSpec, win_size_by_index
from repro.programs import registry
from repro.vm import (
    CompiledInterpreter,
    ExecutionLimits,
    Interpreter,
    TraceCollector,
    compile_module,
    decode_module,
)
from repro.vm.codegen import compile_program as compile_decoded

ALL_PROGRAMS = registry.all_program_names()

#: Subset used for the (more expensive) injection differential by default:
#: both suites, integer- and float-heavy, data- and address-dominated.
#: REPRO_DIFF_FULL=1 widens the sweep to every registry program.
INJECTION_PROGRAMS = (
    ALL_PROGRAMS
    if os.environ.get("REPRO_DIFF_FULL") == "1"
    else ["crc32", "fft", "dijkstra", "qsort"]
)


def _profile(backend: str, name: str):
    program = registry.build_program(name)
    return profile_program(program, backend=backend)


# --------------------------------------------------------------------- golden traces
@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_golden_trace_bit_identical(name):
    compiled = _profile("compiled", name)
    decoded = _profile("decoded", name)
    assert compiled.output == decoded.output
    assert compiled.return_value == decoded.return_value
    assert len(compiled) == len(decoded)
    assert compiled.records == decoded.records


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_bare_run_bit_identical(name):
    """The uninstrumented (golden-run) variant agrees on every result field."""
    program = registry.build_program(name)
    decoded = decode_module(program.module)
    compiled = compile_module(program.module)
    a = CompiledInterpreter(compiled, entry=program.entry).run()
    b = Interpreter(decoded, entry=program.entry).run()
    assert (a.completed, a.return_value, a.output, a.dynamic_instructions) == (
        b.completed,
        b.return_value,
        b.output,
        b.dynamic_instructions,
    )


# --------------------------------------------------------------------- hook sequences
def test_hook_sequences_bit_identical():
    """Both backends fire both hooks at the same times with the same data."""
    program = registry.build_program("fft")
    decoded = decode_module(program.module)
    compiled = compile_module(program.module)

    def run(make_interpreter):
        reads, writes = [], []

        def read_hook(dynamic_index, instruction, slot, register, value):
            reads.append((dynamic_index, instruction.opcode, slot, register.name, value))
            return value

        def write_hook(dynamic_index, instruction, register, value):
            writes.append((dynamic_index, instruction.opcode, register.name, value))
            return value

        result = make_interpreter(read_hook, write_hook).run()
        assert result.completed
        return reads, writes

    compiled_reads, compiled_writes = run(
        lambda rh, wh: CompiledInterpreter(
            compiled, entry=program.entry, read_hook=rh, write_hook=wh
        )
    )
    decoded_reads, decoded_writes = run(
        lambda rh, wh: Interpreter(decoded, entry=program.entry, read_hook=rh, write_hook=wh)
    )
    assert compiled_reads == decoded_reads
    assert compiled_writes == decoded_writes


# --------------------------------------------------------------------- watchdog / limits
@pytest.mark.parametrize("name", ["crc32", "qsort"])
def test_truncated_runs_bit_identical(name):
    """Limit-hit runs stop at the same tick with the same partial trace."""
    program = registry.build_program(name)
    decoded = decode_module(program.module)
    compiled = compile_module(program.module)
    full = Interpreter(decoded, entry=program.entry).run().dynamic_instructions
    for limit in (1, 7, 333, full - 1, full, full + 1):
        limits = ExecutionLimits(max_dynamic_instructions=limit)
        ct, dt = TraceCollector(), TraceCollector()
        a = CompiledInterpreter(
            compiled, entry=program.entry, limits=limits, trace_collector=ct
        ).run()
        b = Interpreter(
            decoded, entry=program.entry, limits=limits, trace_collector=dt
        ).run()
        assert (a.completed, a.hang, a.dynamic_instructions, a.output, a.return_value) == (
            b.completed,
            b.hang,
            b.dynamic_instructions,
            b.output,
            b.return_value,
        ), f"{name} diverged at limit {limit}"
        assert ct.records == dt.records


# --------------------------------------------------------------------- injections
def _experiment_results(runner: ExperimentRunner, seeds):
    results = []
    for technique in TECHNIQUES:
        for max_mbf, win_size in ((1, 0), (4, 0), (5, 3)):
            for seed in seeds:
                results.append(
                    runner.run_seeded(
                        technique, max_mbf=max_mbf, win_size=win_size, seed=seed
                    )
                )
    return results


def _assert_results_equal(lhs, rhs):
    for a, b in zip(lhs, rhs):
        assert a.spec == b.spec
        assert a.outcome == b.outcome
        assert a.activated_errors == b.activated_errors
        assert a.injections == b.injections
        assert a.dynamic_instructions == b.dynamic_instructions
        assert a.fault_category == b.fault_category


@pytest.mark.parametrize("name", INJECTION_PROGRAMS)
def test_injection_results_bit_identical(name):
    program = registry.build_program(name)
    decoded_runner = registry.get_experiment_runner(name)
    compiled_runner = ExperimentRunner(
        program, golden=decoded_runner.golden, backend="compiled"
    )
    seeds = [random.Random(name).getrandbits(48) for _ in range(3)]
    _assert_results_equal(
        _experiment_results(compiled_runner, seeds),
        _experiment_results(decoded_runner, seeds),
    )


def test_fast_forward_interop_bit_identical():
    """Experiments resumed from decoded-built checkpoints on the compiled
    backend match from-scratch decoded execution (restore/resume interop)."""
    program = registry.build_program("crc32")
    scratch = ExperimentRunner(program, fast_forward=False)
    compiled_ff = ExperimentRunner(
        program, golden=scratch.golden, backend="compiled", fast_forward=True
    )
    golden_length = scratch.golden.dynamic_instruction_count
    specs = [
        FaultSpec(
            technique=technique,
            first_dynamic_index=index,
            first_slot=None,
            max_mbf=2,
            win_size=4,
            seed=seed,
        )
        for seed, index in enumerate(
            (1, golden_length // 2, golden_length * 3 // 4, golden_length - 2)
        )
        for technique in ("inject-on-read", "inject-on-write")
    ]
    ff_results = [compiled_ff.run_spec(spec) for spec in specs]
    scratch_results = [scratch.run_spec(spec) for spec in specs]
    _assert_results_equal(ff_results, scratch_results)


# --------------------------------------------------------------------- campaign stores
def test_campaign_result_store_bytes_identical(tmp_path):
    config = CampaignConfig(
        program="crc32",
        technique="inject-on-read",
        max_mbf=3,
        win_size=win_size_by_index("w4"),
        experiments=12,
    )

    def store_bytes(provider, filename):
        store = CampaignRunner(provider).run_campaigns([config], ResultStore())
        path = tmp_path / filename
        store.save(path)
        return path.read_bytes()

    decoded_bytes = store_bytes(None, "decoded.json")  # default registry provider
    compiled_bytes = store_bytes(RegistryProvider(backend="compiled"), "compiled.json")
    assert compiled_bytes == decoded_bytes


# --------------------------------------------------------------------- codegen cache
class TestCodegenCache:
    @pytest.fixture(autouse=True)
    def reset_cache_config(self):
        yield
        artifacts.configure(None)

    def test_source_round_trips_through_artifact_cache(self, tmp_path):
        """Second compile loads the persisted source instead of generating."""
        artifacts.configure(tmp_path / "artifacts")
        decoded = registry.get_decoded_program("crc32")
        program = registry.build_program("crc32")

        cold = compile_decoded(decoded)
        assert not cold.loaded_from_cache
        warm = compile_decoded(decoded)
        assert warm.loaded_from_cache
        assert warm.source_bare == cold.source_bare
        assert artifacts.active_cache().stats.hits.get("codegen", 0) >= 1

        # The cache-loaded functions execute identically.
        a = CompiledInterpreter(cold, entry=program.entry).run()
        b = CompiledInterpreter(warm, entry=program.entry).run()
        assert (a.return_value, a.output) == (b.return_value, b.output)

    def _clear_registry_caches(self):
        registry.build_program.cache_clear()
        registry.get_decoded_program.cache_clear()
        registry.get_defuse_index.cache_clear()
        registry.get_experiment_runner.cache_clear()

    def test_pooled_runs_never_regenerate(self, tmp_path, monkeypatch):
        """Cold host: exactly one codegen per module.  Warm in-process builds
        and spawned worker pools: exactly zero re-generations."""
        from repro.errorspace import enumerate_error_space

        log = tmp_path / "derivations.log"
        cache_dir = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_DERIVATION_LOG", str(log))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        provider = RegistryProvider(cache_dir=str(cache_dir), backend="compiled")

        def codegen_runs():
            if not log.exists():
                return 0
            return sum(
                1 for line in log.read_text().splitlines() if " codegen:" in line
            )

        # Cold host: building the compiled runner generates source once and
        # persists it.
        self._clear_registry_caches()
        runner = provider("crc32")
        assert runner.backend == "compiled"
        assert codegen_runs() == 1
        errors = [
            (error.dynamic_index, error.slot, error.bit)
            for error, _ in zip(
                enumerate_error_space(runner.golden, "inject-on-read").iter_errors(),
                range(8),
            )
        ]

        # Warm host, fresh process state: loading replaces generating.
        self._clear_registry_caches()
        warm_runner = provider("crc32")
        assert codegen_runs() == 1, "warm in-process build re-generated source"
        assert warm_runner.compiled.loaded_from_cache

        # Spawned workers share nothing but the disk: with a warm cache they
        # must come up without a single re-generation.
        with MultiprocessEngine(2, chunk_size=4, start_method="spawn") as engine:
            outcomes = engine.run_errors(
                "crc32", "inject-on-read", errors, provider=provider
            )
        assert len(outcomes) == len(errors)
        assert codegen_runs() == 1, "spawned workers re-generated despite a warm cache"


# --------------------------------------------------------------------- cache invalidation
def test_compiled_cache_invalidated_by_operand_rewrite():
    """Count-preserving mutations must force re-codegen along with re-decode.

    ``_invalidate_static_views`` clears both the decode and codegen caches:
    a compiled artifact is specialized to one decoded form and must not
    survive it.
    """
    from repro.ir import Constant, Function, I64, IRBuilder, Module

    module = Module("rewrite-compiled")
    function = Function("main", I64)
    module.add_function(function)
    builder = IRBuilder(function, function.add_block("entry"))
    value = builder.add(Constant(I64, 1), Constant(I64, 1))
    builder.ret(value)
    module.finalize()

    first = compile_module(module)
    assert CompiledInterpreter(first, entry="main").run().return_value == 2

    value.definer.replace_operand(1, Constant(I64, 41))
    assert module._compiled_program is None
    module.finalize()
    second = compile_module(module)
    assert second is not first
    assert CompiledInterpreter(second, entry="main").run().return_value == 42
    assert Interpreter(decode_module(module), entry="main").run().return_value == 42


def test_compiled_cache_invalidated_by_structural_mutation():
    """Appending instructions (de-finalizing the module) forces re-codegen
    through the decode-cache delegation, both backends agreeing after."""
    from repro.frontend import compile_program

    program = compile_program(
        "grow-compiled",
        [
            '''
def main() -> "i64":
    total = 0
    for i in range(5):
        total += i
    return total
'''
        ],
    )
    module = program.module
    first = compile_module(module)
    assert CompiledInterpreter(first, entry=program.entry).run().return_value == 10

    # Structurally extend the module: a fresh function de-finalizes it and
    # must force a re-decode and re-codegen together.
    from repro.ir import Constant, Function, I64, IRBuilder

    extra = Function("helper", I64)
    module.add_function(extra)
    IRBuilder(extra, extra.add_block("entry")).ret(Constant(I64, 7))
    assert not module.is_finalized
    second = compile_module(module)
    assert second is not first
    assert CompiledInterpreter(second, entry=program.entry).run().return_value == 10
    assert Interpreter(decode_module(module), entry=program.entry).run().return_value == 10
    assert CompiledInterpreter(second, entry="helper").run().return_value == 7


def test_registry_runner_accepts_compiled_backend():
    runner = registry.get_experiment_runner("crc32", backend="compiled")
    assert runner.backend == "compiled"
    assert runner.compiled is not None
    decoded_runner = registry.get_experiment_runner("crc32")
    assert decoded_runner is not runner
