"""The MiniIR interpreter: a thin driver over a decoded program.

The interpreter executes a :class:`~repro.vm.program.DecodedProgram` (or a
:class:`~repro.ir.module.Module`, which is decoded — and cached — on the
fly) starting from an entry function, with the instrumentation points the
fault injector needs:

* ``read_hook(dynamic_index, instruction, slot, register, value)`` is called
  every time an instruction fetches a *register* source operand, immediately
  before the value is used — the inject-on-read insertion point.  ``slot``
  is the operand's index among the instruction's register operands and
  ``register`` is the targeted :class:`~repro.ir.values.VirtualRegister`;
* ``write_hook(dynamic_index, instruction, register, value)`` is called every
  time an instruction produces a result register, immediately after the value
  is computed — the inject-on-write insertion point;
* ``trace_collector`` receives one (pre-extracted) static-metadata record per
  executed instruction, enabling golden-trace profiling runs.

Both hooks receive the executing :class:`~repro.vm.program.DecodedInstruction`
as their ``instruction`` argument; it exposes ``opcode`` like the IR
instruction does, so hook objects written against either representation work
with both this driver and the tree-walking
:class:`~repro.vm.reference.ReferenceInterpreter`.

All decode-time work (operand resolution, handler binding, phi-move
precomputation, terminator classification) lives in :mod:`repro.vm.program`;
the driver's inner loop is: fetch decoded instruction, watchdog check, trace
append, switch on the pre-classified kind.  When hooks and tracing are
disabled they cost one ``is None`` test per access — nothing else.

Semantics are bit-identical to the reference interpreter and follow the
"hardware-like" conventions the paper relies on: integer arithmetic wraps at
the register width, shifts mask their shift amount, integer division by zero
(and ``INT_MIN / -1``) raises a simulated arithmetic fault, memory accesses
are bounds- and alignment-checked, and a dynamic-instruction watchdog
detects hangs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ExecutionSetupError
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.types import ArrayType
from repro.ir.values import VirtualRegister
from repro.vm import bitops
from repro.vm.faults import (
    AbortFault,
    HangDetected,
    HardwareFault,
    InvalidJumpFault,
    SegmentationFault,
)
from repro.vm.memory import Memory
from repro.vm.program import (
    KIND_BRANCH,
    KIND_COND_BRANCH,
    KIND_RETURN,
    KIND_SIMPLE,
    UNDEFINED,
    DecodedFunction,
    DecodedInstruction,
    DecodedProgram,
    _finish,
    _read_op,
    decode_module,
)
from repro.vm.runtime import (
    ExecutionLimits,
    ExecutionResult,
    MATH_INTRINSICS,
    OutputEntry,
    ProgramExit,
    RuntimeScalar,
)
from repro.telemetry import metrics as _telemetry_metrics
from repro.vm.trace import TraceCollector

# Backwards-compatible aliases (the seed exposed these from this module).
_MATH_INTRINSICS = MATH_INTRINSICS
_ProgramExit = ProgramExit

#: ``(ticks_counter, segments_counter)`` when telemetry is enabled, else
#: None.  Checked once per *segment* (never per tick), so the disabled cost
#: is a single ``is None`` test per execution slice.
_VM_COUNTERS = None


def refresh_vm_counters() -> None:
    """Re-bind the segment-level VM counters to the current enable state.

    Called at import time; call again after
    :func:`repro.telemetry.set_enabled` to make the flip take effect here
    (the overhead benchmark toggles it both ways).
    """
    global _VM_COUNTERS
    if _telemetry_metrics.enabled():
        registry = _telemetry_metrics.registry()
        _VM_COUNTERS = (
            registry.counter(
                "repro_vm_ticks_total",
                help="Dynamic instructions executed across all segments.",
            ),
            registry.counter(
                "repro_vm_segments_total",
                help="Execution segments (full runs, resumes, window slices).",
            ),
        )
    else:
        _VM_COUNTERS = None


refresh_vm_counters()

#: The instruction object passed to injection hooks: the decoded form on the
#: production driver, the IR instruction on the reference interpreter.  Both
#: expose ``opcode``.
HookInstruction = Union[Instruction, DecodedInstruction]

#: Inject-on-read hook: ``(dynamic_index, instruction, slot, register,
#: value) -> value``.  ``slot`` indexes the instruction's register operands.
ReadHook = Callable[[int, HookInstruction, int, VirtualRegister, RuntimeScalar], RuntimeScalar]

#: Inject-on-write hook: ``(dynamic_index, instruction, register, value) ->
#: value``.
WriteHook = Callable[[int, HookInstruction, VirtualRegister, RuntimeScalar], RuntimeScalar]


class _PauseSignal(Exception):
    """Internal control-flow signal: a segmented run reached its pause tick.

    Raised from the driver's inner loop when ``dynamic_index`` reaches the
    armed pause tick, and caught by :meth:`Interpreter._segment`, which
    converts it into a :class:`SuspendedRun`.  While the signal unwinds
    the Python call stack, each VM stack level freezes itself into a
    :class:`~repro.vm.snapshot.FrameSnapshot` via the two-step
    :meth:`site` / :meth:`level` protocol:

    * the code that *knows the suspension point* of the current level (the
      inner loop's pause check, a call site whose callee paused) opens a site
      with ``(block_index, position, frame)``;
    * the frame owner (``_run_function``, ``_resume_level``, or a generated
      entry wrapper) closes the level, appending the finished record.

    Records accumulate innermost-first; ``_segment`` reverses them into the
    outermost-first order ``_resume_level`` expects.  ``stack_cursor`` is the
    VM stack-segment cursor at the instant of the pause — the unwind releases
    every level's stack frame, so ``continue_segment`` re-arms the cursor
    before rebuilding the levels (the stack *data* is never cleared).
    """

    def __init__(self, stack_cursor: int) -> None:
        self.records: List = []
        self.stack_cursor = stack_cursor
        self._site_open = False
        self._block_index = 0
        self._position = 0
        self._frame: tuple = ()
        self._previous: Optional[int] = None

    def site(self, block_index: int, position: int, frame, previous: Optional[int] = None) -> None:
        self._block_index = block_index
        self._position = position
        self._frame = frame
        self._previous = previous
        self._site_open = True

    def level(self, dfunc, stack_mark: int) -> None:
        from repro.vm.snapshot import FrameSnapshot

        self.records.append(
            FrameSnapshot(
                dfunc,
                self._block_index,
                self._position,
                self._frame,
                stack_mark,
                self._previous,
            )
        )
        self._site_open = False


class SuspendedRun:
    """A run paused at a tick boundary, resumable via ``continue_segment``.

    Holds the frozen call stack (outermost-first, like a
    :class:`~repro.vm.snapshot.VMSnapshot`) and the VM stack cursor at the
    pause.  Memory, output and ``dynamic_index`` live on the interpreter —
    a suspended run is only valid on the interpreter that produced it, with
    no intervening runs (the in-process hand-off of windowed execution and
    of checkpoint capture; nothing is copied).
    """

    __slots__ = ("frames", "stack_cursor")

    def __init__(self, frames: tuple, stack_cursor: int) -> None:
        self.frames = frames
        self.stack_cursor = stack_cursor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SuspendedRun depth={len(self.frames)}>"


class Interpreter:
    """Executes a decoded MiniIR program with optional fault-injection hooks."""

    def __init__(
        self,
        program: Union[DecodedProgram, Module],
        *,
        entry: str = "main",
        limits: Optional[ExecutionLimits] = None,
        read_hook: Optional[ReadHook] = None,
        write_hook: Optional[WriteHook] = None,
        trace_collector: Optional[TraceCollector] = None,
    ) -> None:
        if isinstance(program, DecodedProgram):
            decoded = program
        elif isinstance(program, Module):
            decoded = decode_module(program)
        else:
            raise ExecutionSetupError(
                f"cannot interpret {type(program).__name__}; expected a Module "
                f"or DecodedProgram"
            )
        if not decoded.has_function(entry):
            raise ExecutionSetupError(
                f"module {decoded.module.name} has no entry function @{entry}"
            )
        self.program = decoded
        self.module = decoded.module
        self.entry = entry
        self.limits = limits or ExecutionLimits()
        self.read_hook = read_hook
        self.write_hook = write_hook
        self.trace_collector = trace_collector
        self._trace_append = (
            trace_collector.append_meta if trace_collector is not None else None
        )

        self.memory = Memory()
        self.output: List[OutputEntry] = []
        self.dynamic_index = 0
        self._call_depth = 0
        #: Armed pause tick for segmented execution (None = run to the end).
        #: ``_stop`` is the hoisted min(pause, watchdog limit) the inner loop
        #: (and generated code, via ``vm._stop``) compares against.
        self._pause_tick: Optional[int] = None
        self._stop = self.limits.max_dynamic_instructions
        self._global_addresses: Dict[str, int] = {}
        #: Global addresses by decode index — operand records index into this.
        self.global_values: List[int] = []
        self._materialise_globals()
        #: Post-construction memory image, for pooled from-scratch reuse.
        self._initial_memory = self.memory.capture_state()

    # ------------------------------------------------------------------ setup
    def _materialise_globals(self) -> None:
        for variable in self.program.global_variables:
            value_type = variable.value_type
            size = value_type.size_bytes()
            align = value_type.alignment()
            address = self.memory.allocate("globals", max(size, 1), max(align, 1))
            self._global_addresses[variable.name] = address
            self.global_values.append(address)
            if variable.initializer:
                if isinstance(value_type, ArrayType):
                    self.memory.write_array(address, variable.initializer, value_type.element)
                else:
                    self.memory.write_scalar(address, variable.initializer[0], value_type)

    def global_address(self, name: str) -> int:
        """Address of a module global (useful in tests and program setup)."""
        return self._global_addresses[name]

    def reset(self) -> None:
        """Rewind to the freshly constructed state (pooled from-scratch reuse).

        Restores the post-construction memory image and zeroes the run
        bookkeeping, so one long-lived driver can execute many from-scratch
        runs without paying address-space setup per run.
        """
        self.memory.restore_state(self._initial_memory)
        self.output = []
        self.dynamic_index = 0
        self._call_depth = 0

    # ------------------------------------------------------------------ running
    def run(self, args: Sequence[RuntimeScalar] = ()) -> ExecutionResult:
        """Execute the entry function and classify how the run ended."""
        entry_function = self.program.get_function(self.entry)
        if len(args) != len(entry_function.function.arguments):
            raise ExecutionSetupError(
                f"entry @{self.entry} takes {len(entry_function.function.arguments)} "
                f"arguments, got {len(args)}"
            )
        return self._execute(lambda: self._run_function(entry_function, list(args)))

    def _execute(self, thunk) -> ExecutionResult:
        """Run ``thunk`` and classify how the execution ended."""
        counters = _VM_COUNTERS
        if counters is not None:
            start_tick = self.dynamic_index
            try:
                return self._execute_inner(thunk)
            finally:
                counters[0].value += self.dynamic_index - start_tick
                counters[1].value += 1
        return self._execute_inner(thunk)

    def _execute_inner(self, thunk) -> ExecutionResult:
        try:
            return_value = thunk()
            return ExecutionResult(
                completed=True,
                output=tuple(self.output),
                return_value=return_value,
                dynamic_instructions=self.dynamic_index,
            )
        except ProgramExit as exit_request:
            return ExecutionResult(
                completed=True,
                output=tuple(self.output),
                return_value=exit_request.code,
                dynamic_instructions=self.dynamic_index,
            )
        except HardwareFault as fault:
            if fault.dynamic_index is None:
                fault.dynamic_index = self.dynamic_index
            return ExecutionResult(
                completed=False,
                output=tuple(self.output),
                return_value=None,
                dynamic_instructions=self.dynamic_index,
                fault=fault,
            )
        except HangDetected:
            return ExecutionResult(
                completed=False,
                output=tuple(self.output),
                return_value=None,
                dynamic_instructions=self.dynamic_index,
                hang=True,
            )

    # ------------------------------------------------------------------ fast-forward
    def restore(self, snapshot) -> None:
        """Reset all execution state to a captured :class:`~repro.vm.snapshot.VMSnapshot`.

        The snapshot must originate from the *same* :class:`DecodedProgram`
        object — frame slot numbering and block indices are decode-specific,
        so a snapshot never survives a re-decode (the stale-cache guard).
        """
        if snapshot.program is not self.program:
            raise ExecutionSetupError(
                "snapshot was captured from a different decoded program; "
                "re-capture checkpoints after the module was re-decoded"
            )
        self.memory.restore_state(snapshot.memory)
        self.output = list(snapshot.output)
        self.dynamic_index = snapshot.tick
        self._call_depth = 0

    def resume(self, snapshot) -> ExecutionResult:
        """Restore ``snapshot`` and execute the remaining suffix of the run.

        The resumed execution is bit-identical to the suffix of a from-scratch
        run: the dynamic-instruction counter continues at the snapshot tick,
        hooks fire with the same indices and values, and the final
        :class:`ExecutionResult` matches field for field.
        """
        self.restore(snapshot)
        return self._execute(lambda: self._resume_level(snapshot.frames, 0))

    # ------------------------------------------------------------------ segments
    def _set_pause(self, pause_tick: Optional[int]) -> None:
        limit = self.limits.max_dynamic_instructions
        if pause_tick is None or pause_tick >= limit:
            # A pause at/past the watchdog can never fire before the hang
            # check; treating it as "no pause" keeps hang classification
            # byte-identical to an unsegmented run.
            self._pause_tick = None
            self._stop = limit
        else:
            self._pause_tick = pause_tick
            self._stop = pause_tick

    def _segment(self, thunk, pause_tick: Optional[int]):
        """Run ``thunk`` until it ends or reaches ``pause_tick``.

        Returns the final :class:`ExecutionResult` when the run ends first
        (normally, by fault, or by hang — all classified exactly like an
        unsegmented run), or a :class:`SuspendedRun` when the pause tick is
        reached: no instruction at or after ``pause_tick`` has executed, and
        ``continue_segment`` picks up without copying any state.
        """
        self._set_pause(pause_tick)
        try:
            try:
                return self._execute(thunk)
            except _PauseSignal as signal:
                return SuspendedRun(
                    tuple(reversed(signal.records)), signal.stack_cursor
                )
        finally:
            self._set_pause(None)

    def run_segment(self, args: Sequence[RuntimeScalar], pause_tick: Optional[int]):
        """Start a from-scratch run that pauses at ``pause_tick``."""
        entry_function = self.program.get_function(self.entry)
        if len(args) != len(entry_function.function.arguments):
            raise ExecutionSetupError(
                f"entry @{self.entry} takes {len(entry_function.function.arguments)} "
                f"arguments, got {len(args)}"
            )
        return self._segment(
            lambda: self._run_function(entry_function, list(args)), pause_tick
        )

    def resume_segment(self, snapshot, pause_tick: Optional[int]):
        """Restore a checkpoint and run its suffix, pausing at ``pause_tick``."""
        self.restore(snapshot)
        return self._segment(
            lambda: self._resume_level(snapshot.frames, 0), pause_tick
        )

    def continue_segment(self, suspended: SuspendedRun, pause_tick: Optional[int]):
        """Continue a :class:`SuspendedRun` in place, pausing at ``pause_tick``.

        Memory, output and the tick counter were never disturbed by the
        pause; only the VM stack cursor (released by the unwind) is re-armed
        before the frozen call stack is rebuilt.
        """
        self.memory.segments["stack"].cursor = suspended.stack_cursor
        return self._segment(
            lambda: self._resume_level(suspended.frames, 0), pause_tick
        )

    def _resume_level(self, frames, level: int) -> Optional[RuntimeScalar]:
        """Rebuild one captured call-stack level and continue executing it.

        Outer levels are suspended mid-``call``: their callee (the next level)
        is resumed first, then the call completes exactly like ``_h_call``
        and the block continues after it.  The innermost level simply resumes
        at its captured instruction.
        """
        record = frames[level]
        dfunc = record.dfunc
        self._call_depth += 1
        frame = list(record.frame)
        try:
            block = dfunc.blocks[record.block_index]
            if level + 1 < len(frames):
                value = self._resume_level(frames, level + 1)
                din = block.code[record.position]
                if din.dest_slot >= 0:
                    if value is None:
                        value = 0
                    _finish(self, frame, din, din.canon(value))
                return self._block_loop(frame, block, -1, record.position + 1, True)
            if record.previous is not None:
                # Paused before the block's phi group: re-run the phis for
                # the captured incoming edge, then the block body.
                return self._block_loop(frame, block, record.previous, 0, False)
            return self._block_loop(frame, block, -1, record.position, True)
        except _PauseSignal as signal:
            if not signal._site_open:
                # The pause surfaced from the nested level's resume: this
                # level is still suspended at its original call site.
                signal.site(record.block_index, record.position, tuple(frame))
            signal.level(dfunc, record.stack_mark)
            raise
        finally:
            self.memory.stack_release(record.stack_mark)
            self._call_depth -= 1

    # ------------------------------------------------------------------ frames
    def _run_function(
        self, dfunc: DecodedFunction, args: List[RuntimeScalar]
    ) -> Optional[RuntimeScalar]:
        if self._call_depth >= self.limits.max_call_depth:
            raise SegmentationFault(
                f"call depth exceeded {self.limits.max_call_depth} (stack overflow)",
                dynamic_index=self.dynamic_index,
            )
        self._call_depth += 1
        stack_mark = self.memory.stack_mark()
        frame: List = [UNDEFINED] * dfunc.frame_size
        try:
            # Arguments occupy the first frame slots, in declaration order.
            slot = 0
            for canon, actual in zip(dfunc.arg_canons, args):
                frame[slot] = canon(actual)
                slot += 1
            return self._run_blocks(dfunc, frame)
        except _PauseSignal as signal:
            signal.level(dfunc, stack_mark)
            raise
        finally:
            self.memory.stack_release(stack_mark)
            self._call_depth -= 1

    def _run_blocks(self, dfunc: DecodedFunction, frame: List) -> Optional[RuntimeScalar]:
        block = dfunc.entry
        if block is None:
            raise ExecutionSetupError(f"function @{dfunc.name} has no blocks")
        return self._block_loop(frame, block, -1, 0, False)

    def _block_loop(
        self, frame: List, block, previous: int, position: int, skip_phis: bool
    ) -> Optional[RuntimeScalar]:
        """The driver inner loop, entered at ``(block, position)``.

        A normal run enters at the entry block, position 0.  A resumed level
        enters mid-block with ``skip_phis`` set (its position lies past the
        block's phi moves), or at a block entry with the captured incoming
        edge as ``previous`` when its pause came before the phi group.

        When a pause tick is armed (:meth:`_segment`), the loop raises
        :class:`_PauseSignal` the moment ``dynamic_index`` reaches it —
        before executing the instruction at that tick.  A phi group that
        would *straddle* the pause suspends at the block entry instead
        (phi moves are an atomic parallel assignment; undershooting a pause
        is always safe, overshooting never is).
        """
        limit = self.limits.max_dynamic_instructions
        stop = self._stop
        pause = self._pause_tick
        trace = self._trace_append

        try:
            while True:
                if block.phi_count and not skip_phis:
                    if pause is not None and self.dynamic_index + block.phi_count > pause:
                        signal = _PauseSignal(self.memory.stack_mark())
                        signal.site(block.index, 0, tuple(frame), previous)
                        raise signal
                    self._run_phis(block, previous, frame, trace)
                skip_phis = False

                code = block.code
                code_len = block.code_len
                while position < code_len:
                    din = code[position]
                    index = self.dynamic_index
                    if index >= stop:
                        if index >= limit:
                            raise HangDetected(index, limit)
                        signal = _PauseSignal(self.memory.stack_mark())
                        signal.site(block.index, position, tuple(frame))
                        raise signal
                    if trace is not None:
                        trace(din.meta)
                    self.dynamic_index = index + 1

                    kind = din.kind
                    if kind == KIND_SIMPLE:
                        din.handler(self, frame, din)
                        position += 1
                        continue
                    if kind == KIND_BRANCH:
                        previous, block = block.index, din.target
                        break
                    if kind == KIND_COND_BRANCH:
                        condition = _read_op(self, frame, din, din.operands[0])
                        previous, block = (
                            block.index,
                            din.if_true if condition else din.if_false,
                        )
                        break
                    if kind == KIND_RETURN:
                        if not din.operands:
                            return None
                        value = _read_op(self, frame, din, din.operands[0])
                        return bitops.canonicalize(value, din.ret_type)
                    # KIND_UNREACHABLE
                    raise AbortFault(
                        "executed an unreachable instruction",
                        dynamic_index=self.dynamic_index,
                    )
                else:
                    # Fell off the end of a block without a terminator: treat
                    # as a wild jump (cannot happen for verified IR, can
                    # happen if a fault corrupts control state).
                    raise InvalidJumpFault(
                        f"control fell off the end of block %{block.name}",
                        dynamic_index=self.dynamic_index,
                    )
                position = 0
        except _PauseSignal as signal:
            if not signal._site_open:
                # The pause happened inside a callee (din.handler running a
                # call): this frame is suspended at the call instruction.
                signal.site(block.index, position, tuple(frame))
            raise

    def _run_phis(self, block, previous: int, frame: List, trace) -> None:
        """Execute the precomputed phi moves of one control-flow edge.

        All incoming values are read (and ticked) before any phi result is
        written, preserving the parallel-assignment semantics; the write hook
        then fires per phi in order, exactly like the reference interpreter.
        """
        moves, failure = block.phi_edges[previous]
        updates: List = []
        index = self.dynamic_index
        global_values = self.global_values
        for op, phi_din in moves:
            kind = op[0]
            if kind == 1:  # OP_REGISTER
                value = frame[op[1]]
                if value is UNDEFINED:
                    raise ExecutionSetupError(
                        f"register {op[2].short_name()} used before definition in "
                        f"@{phi_din.func_name}"
                    )
            elif kind == 0:  # OP_CONSTANT
                value = op[1]
            else:  # OP_GLOBAL
                value = global_values[op[1]]
            updates.append(phi_din.canon_in(value))
            if trace is not None:
                trace(phi_din.meta)
            index += 1
        self.dynamic_index = index
        if failure is not None:
            raise InvalidJumpFault(failure, dynamic_index=index)
        hook = self.write_hook
        position = 0
        for op, phi_din in moves:
            value = updates[position]
            position += 1
            if hook is not None:
                value = hook(index - 1, phi_din, phi_din.result_reg, value)
                value = phi_din.canon(value)
            frame[phi_din.dest_slot] = value
