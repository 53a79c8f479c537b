"""Unit tests for VM checkpoints: memory state, capture, resume, caching."""

import pytest

from repro.frontend import compile_program
from repro.vm import (
    CompiledInterpreter,
    GoldenTrace,
    Interpreter,
    Memory,
    TraceCollector,
    capture_checkpoints,
    compile_module,
    decode_module,
    golden_with_checkpoints,
)
from repro.vm.memory import DEFAULT_LAYOUT
from repro.vm.snapshot import CheckpointStore
from repro.ir.types import I32, I64

RECURSIVE_PROGRAM = '''
def helper(n: "i64") -> "i64":
    if n <= 1:
        return 1
    return n * helper(n - 1)

def main() -> "i64":
    total = 0
    for i in range(1, 7):
        scratch[i % 4] = helper(i)
        total += scratch[i % 4]
    output(total)
    return total
'''


@pytest.fixture(scope="module")
def recursive_program():
    return compile_program(
        "recursive", [RECURSIVE_PROGRAM], {"scratch": ("i64", [0, 0, 0, 0])}
    )


# ----------------------------------------------------------------- memory state
class TestMemoryState:
    def test_find_segment_bisect_matches_bounds(self):
        memory = Memory()
        for name, (base, size) in DEFAULT_LAYOUT.items():
            assert memory.find_segment(base).name == name
            assert memory.find_segment(base + size - 1).name == name
            assert memory.find_segment(base + size) is None or (
                memory.find_segment(base + size).name != name
            )
            assert memory.find_segment(base - 1, 2) is None or (
                memory.find_segment(base - 1, 2).name != name
            )
        assert memory.find_segment(0x100) is None
        # A read spanning past the end of a segment must not resolve.
        stack_base, stack_size = DEFAULT_LAYOUT["stack"]
        assert memory.find_segment(stack_base + stack_size - 4, 8) is None

    def test_segments_ordered_by_base(self):
        memory = Memory()
        bases = [segment.base for segment in memory._ordered]
        assert bases == sorted(bases)
        segment = memory.add_segment("mmio", 0x9000_0000, 0x1000)
        assert memory._ordered[-1] is segment
        assert memory.find_segment(0x9000_0004, 4) is segment

    def test_capture_restore_round_trip(self):
        memory = Memory()
        address = memory.allocate("heap", 64)
        memory.write_scalar(address, 0x1234_5678, I32)
        memory.write_scalar(address + 8, -9, I64)
        state = memory.capture_state()

        # Scribble over the captured region and beyond it.
        memory.write_scalar(address, 0xDEAD_BEEF, I32)
        far = memory.allocate("heap", 1024)
        memory.write_scalar(far + 512, 77, I64)
        stack = memory.allocate("stack", 128)
        memory.write_scalar(stack, 42, I64)

        memory.restore_state(state)
        assert memory.read_scalar(address, I32) == 0x1234_5678
        assert memory.read_scalar(address + 8, I64) == -9
        assert memory.read_scalar(far + 512, I64) == 0
        assert memory.segment("heap").cursor == state.segments[1][3]
        # A fresh allocation after restore lands where the original did.
        assert memory.allocate("heap", 1024) == far

    def test_restore_rejects_layout_mismatch(self):
        state = Memory().capture_state()
        other = Memory()
        other.add_segment("extra", 0x9000_0000, 0x1000)
        with pytest.raises(ValueError):
            other.restore_state(state)

    def test_capture_is_compact(self):
        memory = Memory()
        address = memory.allocate("heap", 16)
        memory.write_scalar(address, 1, I64)
        state = memory.capture_state()
        total = sum(len(payload) for _, _, payload, _ in state.segments)
        # Kilobytes of dirty prefix, not the mapped megabytes.
        assert total < 4096


# ----------------------------------------------------------------- trace metadata
class TestGoldenTraceCheckpointTicks:
    def test_latest_checkpoint_at(self):
        trace = GoldenTrace([], (), None, checkpoint_ticks=(64, 320, 576))
        assert trace.latest_checkpoint_at(63) is None
        assert trace.latest_checkpoint_at(64) == 64
        assert trace.latest_checkpoint_at(575) == 320
        assert trace.latest_checkpoint_at(576) == 576
        assert trace.latest_checkpoint_at(10**9) == 576

    def test_default_is_empty(self):
        trace = GoldenTrace([], (), None)
        assert trace.checkpoint_ticks == ()
        assert trace.latest_checkpoint_at(100) is None

    def test_collector_build_passes_ticks_through(self):
        trace = TraceCollector().build((), None, checkpoint_ticks=(5, 9))
        assert trace.checkpoint_ticks == (5, 9)


# ----------------------------------------------------------------- capture / resume
class TestCaptureAndResume:
    def test_checkpointed_run_matches_plain_run(self, recursive_program):
        decoded = decode_module(recursive_program.module)
        plain_collector, checked_collector = TraceCollector(), TraceCollector()
        plain = Interpreter(
            decoded, entry=recursive_program.entry, trace_collector=plain_collector
        ).run()
        store, checked = capture_checkpoints(
            decoded,
            entry=recursive_program.entry,
            checkpoint_interval=16,
            trace_collector=checked_collector,
        )
        assert checked.return_value == plain.return_value
        assert checked.output == plain.output
        assert checked.dynamic_instructions == plain.dynamic_instructions
        assert checked_collector.records == plain_collector.records
        assert len(store) > 0
        assert store.ticks == sorted(store.ticks)

    def test_resume_from_every_checkpoint(self, recursive_program):
        decoded = decode_module(recursive_program.module)
        full = Interpreter(decoded, entry=recursive_program.entry).run()
        store, _ = capture_checkpoints(
            decoded, entry=recursive_program.entry, checkpoint_interval=8
        )
        # The recursive helper guarantees snapshots mid-call-stack.
        assert max(len(snapshot.frames) for snapshot in store.snapshots) > 1
        vm = Interpreter(decoded, entry=recursive_program.entry)
        for snapshot in store.snapshots:
            result = vm.resume(snapshot)
            assert result.completed
            assert result.return_value == full.return_value
            assert result.output == full.output
            assert result.dynamic_instructions == full.dynamic_instructions

    def test_resumed_hooks_match_full_run_suffix(self, recursive_program):
        decoded = decode_module(recursive_program.module)

        def run_hooked(run):
            events = []

            def read_hook(index, instruction, slot, register, value):
                events.append(("r", index, instruction.opcode, slot, register.name, value))
                return value

            def write_hook(index, instruction, register, value):
                events.append(("w", index, instruction.opcode, register.name, value))
                return value

            run(read_hook, write_hook)
            return events

        def full(read_hook, write_hook):
            Interpreter(
                decoded,
                entry=recursive_program.entry,
                read_hook=read_hook,
                write_hook=write_hook,
            ).run()

        store, _ = capture_checkpoints(
            decoded, entry=recursive_program.entry, checkpoint_interval=32
        )
        snapshot = store.snapshots[len(store.snapshots) // 2]

        def resumed(read_hook, write_hook):
            vm = Interpreter(decoded, entry=recursive_program.entry)
            vm.read_hook = read_hook
            vm.write_hook = write_hook
            vm.resume(snapshot)

        full_events = run_hooked(full)
        suffix = [event for event in full_events if event[1] >= snapshot.tick]
        assert run_hooked(resumed) == suffix

    def test_restore_rejects_foreign_program(self, recursive_program):
        from repro.errors import ExecutionSetupError

        decoded = decode_module(recursive_program.module)
        store, _ = capture_checkpoints(
            decoded, entry=recursive_program.entry, checkpoint_interval=16
        )
        other = compile_program("other", ['def main() -> "i64":\n    return 3\n'])
        vm = Interpreter(decode_module(other.module))
        with pytest.raises(ExecutionSetupError):
            vm.restore(store.snapshots[0])

    def test_adaptive_interval_respects_budget(self, recursive_program):
        decoded = decode_module(recursive_program.module)
        store, result = capture_checkpoints(
            decoded, entry=recursive_program.entry, max_checkpoints=4
        )
        assert len(store) <= 4
        assert store.interval >= result.dynamic_instructions // 8

    def test_explicit_interval_within_budget_is_kept(self, recursive_program):
        decoded = decode_module(recursive_program.module)
        store, result = capture_checkpoints(
            decoded, entry=recursive_program.entry, checkpoint_interval=30
        )
        assert store.interval == 30
        assert len(store) >= result.dynamic_instructions // 30 - 1

    def test_explicit_interval_still_respects_budget(self, recursive_program):
        """A pinned interval must not allow unbounded snapshot memory."""
        decoded = decode_module(recursive_program.module)
        store, result = capture_checkpoints(
            decoded,
            entry=recursive_program.entry,
            checkpoint_interval=1,
            max_checkpoints=8,
        )
        assert result.dynamic_instructions > 8  # budget genuinely exceeded
        assert len(store) <= 8
        assert store.interval > 1

    def test_store_latest_at(self, recursive_program):
        decoded = decode_module(recursive_program.module)
        store, _ = capture_checkpoints(
            decoded, entry=recursive_program.entry, checkpoint_interval=16
        )
        assert store.latest_at(store.ticks[0] - 1) is None
        assert store.latest_at(store.ticks[0]).tick == store.ticks[0]
        assert store.latest_at(store.ticks[-1] + 10**6).tick == store.ticks[-1]
        mid = store.ticks[1]
        assert store.latest_at(mid + 1).tick == mid


# ----------------------------------------------------------------- module cache
class TestCheckpointCache:
    def test_cache_hit_and_golden_metadata(self, recursive_program):
        module = recursive_program.module
        golden_a, store_a = golden_with_checkpoints(module)
        golden_b, store_b = golden_with_checkpoints(module)
        assert golden_a is golden_b
        assert store_a is store_b
        assert golden_a.checkpoint_ticks == tuple(store_a.ticks)
        assert isinstance(store_a, CheckpointStore)

    def test_cache_key_includes_limits(self, recursive_program):
        from repro.vm import ExecutionLimits

        module = recursive_program.module
        golden_with_checkpoints(module)  # caches the default-limits run
        with pytest.raises(RuntimeError):
            # A watchdog this tight must hang-detect, not return the cached
            # full-run trace captured under default limits.
            golden_with_checkpoints(
                module, limits=ExecutionLimits(max_dynamic_instructions=5)
            )

    def test_cache_invalidated_with_decode_cache(self):
        from repro.ir import Constant, Function, I64 as IR_I64, IRBuilder, Module

        module = Module("mutable")
        function = Function("main", IR_I64)
        module.add_function(function)
        builder = IRBuilder(function, function.add_block("entry"))
        counter = builder.add(Constant(IR_I64, 20), Constant(IR_I64, 22))
        builder.ret(counter)
        module.finalize()

        _, store_first = golden_with_checkpoints(module, checkpoint_interval=1)
        assert store_first.program is decode_module(module)

        # Structural mutation: the decode cache is invalidated, and the
        # checkpoint cache must follow it rather than serve stale snapshots.
        extra = Function("helper", IR_I64)
        module.add_function(extra)
        extra_builder = IRBuilder(extra, extra.add_block("entry"))
        extra_builder.ret(Constant(IR_I64, 5))
        module.finalize()

        _, store_second = golden_with_checkpoints(module, checkpoint_interval=1)
        assert store_second is not store_first
        assert store_second.program is decode_module(module)
        assert store_first.program is not store_second.program


# ----------------------------------------------------------------- phi groups
class TestCheckpointsBeforePhiGroups:
    """A capture pause that would split a phi group suspends before it.

    Such a snapshot's innermost frame carries the incoming edge in
    ``previous``; resuming it runs that edge's phis first, on both
    resumable backends, and the golden artifact codec keeps the edge.
    """

    INTERVALS = range(1, 7)

    @pytest.fixture(scope="class")
    def loop(self):
        from test_ir_builder_and_interpreter import build_loop_module

        module = build_loop_module(50)
        decoded = decode_module(module)
        full = Interpreter(decoded).run()
        return decoded, compile_module(module), full

    @staticmethod
    def _assert_resumes_match(snapshots, decoded, compiled, full):
        for snapshot in snapshots:
            for vm in (Interpreter(decoded), CompiledInterpreter(compiled)):
                result = vm.resume(snapshot)
                assert result.return_value == full.return_value
                assert result.output == full.output
                assert result.dynamic_instructions == full.dynamic_instructions

    def test_some_snapshot_suspends_before_a_phi_group(self, loop):
        decoded, _compiled, _full = loop
        before_phis = [
            snapshot
            for interval in self.INTERVALS
            for snapshot in capture_checkpoints(decoded, checkpoint_interval=interval)[
                0
            ].snapshots
            if snapshot.frames[-1].previous is not None
        ]
        assert before_phis

    def test_resume_from_every_snapshot_matches_full_run(self, loop):
        decoded, compiled, full = loop
        for interval in self.INTERVALS:
            store, result = capture_checkpoints(decoded, checkpoint_interval=interval)
            assert result.dynamic_instructions == full.dynamic_instructions
            assert len(set(store.ticks)) == len(store.ticks)
            self._assert_resumes_match(store.snapshots, decoded, compiled, full)

    def test_golden_artifact_round_trip_keeps_previous(self, loop):
        import pickle

        from repro import artifacts

        decoded, compiled, full = loop
        for interval in self.INTERVALS:
            collector = TraceCollector()
            store, result = capture_checkpoints(
                decoded, checkpoint_interval=interval, trace_collector=collector
            )
            golden = collector.build(
                result.output, result.return_value, checkpoint_ticks=tuple(store.ticks)
            )
            payload = pickle.loads(pickle.dumps(artifacts.serialize_golden(golden, store)))
            _golden, loaded = artifacts.deserialize_golden(payload, decoded)
            assert [
                [frame.previous for frame in snapshot.frames]
                for snapshot in loaded.snapshots
            ] == [
                [frame.previous for frame in snapshot.frames]
                for snapshot in store.snapshots
            ]
            self._assert_resumes_match(loaded.snapshots, decoded, compiled, full)
