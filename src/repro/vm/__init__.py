"""The MiniIR virtual machine.

The VM executes MiniIR modules while exposing the hooks the fault injector
needs:

* every dynamic instruction has a monotonically increasing index (its
  *dynamic time*), used by LLFI-style time–location fault specifications;
* per-instruction *read* and *write* hooks can rewrite register values just
  before they are consumed and just after they are produced — these are the
  insertion points for inject-on-read and inject-on-write bit flips;
* a segmented memory model raises simulated hardware exceptions
  (segmentation fault, misaligned access, arithmetic fault, abort) so that
  fault outcomes can be classified exactly as in the paper;
* a dynamic-instruction watchdog detects hangs;
* program output is collected into an output buffer compared bit-wise
  against a golden run to detect silent data corruptions.

Execution has three backends sharing one semantic contract:
:class:`Interpreter` drives the decode-once representation of
:mod:`repro.vm.program` (registers numbered into flat frames, handlers
pre-bound, phi moves precomputed per edge),
:class:`~repro.vm.codegen.CompiledInterpreter` runs Python source transpiled
from that decoded form (the campaign hot path), and
:class:`~repro.vm.reference.ReferenceInterpreter` walks the IR tree directly
and serves as the oracle for the differential test suite.
"""

from repro.vm.faults import (
    AbortFault,
    ArithmeticFault,
    HangDetected,
    HardwareFault,
    InvalidJumpFault,
    MisalignedAccessFault,
    SegmentationFault,
)
from repro.vm.codegen import (
    CompiledCode,
    CompiledInterpreter,
    compile_module,
    persist_compiled_source,
)
from repro.vm.memory import Memory, MemorySegment, MemoryState
from repro.vm.program import (
    DecodedFunction,
    DecodedInstruction,
    DecodedProgram,
    decode_module,
)
from repro.vm.interpreter import (
    ExecutionLimits,
    ExecutionResult,
    Interpreter,
    ReadHook,
    WriteHook,
)
from repro.vm.reference import ReferenceInterpreter
from repro.vm.snapshot import (
    CheckpointStore,
    FrameSnapshot,
    VMSnapshot,
    capture_checkpoints,
    golden_with_checkpoints,
)
from repro.vm.trace import (
    DynamicInstructionRecord,
    GoldenTrace,
    StaticInstructionMeta,
    TraceCollector,
)

__all__ = [
    "AbortFault",
    "ArithmeticFault",
    "capture_checkpoints",
    "CheckpointStore",
    "CompiledCode",
    "CompiledInterpreter",
    "compile_module",
    "persist_compiled_source",
    "DecodedFunction",
    "DecodedInstruction",
    "DecodedProgram",
    "decode_module",
    "DynamicInstructionRecord",
    "ExecutionLimits",
    "ExecutionResult",
    "FrameSnapshot",
    "GoldenTrace",
    "golden_with_checkpoints",
    "HangDetected",
    "HardwareFault",
    "Interpreter",
    "InvalidJumpFault",
    "Memory",
    "MemorySegment",
    "MemoryState",
    "MisalignedAccessFault",
    "ReadHook",
    "ReferenceInterpreter",
    "SegmentationFault",
    "StaticInstructionMeta",
    "TraceCollector",
    "VMSnapshot",
    "WriteHook",
]
