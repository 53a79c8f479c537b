"""VM snapshot/restore: checkpoints of the decoded driver at a dynamic tick.

Every fault-injection experiment pins its first flip at a dynamic instruction
index taken from the golden trace, so all ticks before it are bit-identical
to the fault-free run the campaign already profiled.  This module makes that
prefix free to skip:

* :class:`VMSnapshot` captures everything mutable about an in-flight
  :class:`~repro.vm.interpreter.Interpreter` — the call stack (one
  :class:`FrameSnapshot` per live function invocation, frames frozen as
  tuples), the dirty prefix of every memory segment
  (:meth:`~repro.vm.memory.Memory.capture_state`), the output buffer and the
  dynamic-instruction counter.  Snapshots are immutable and
  copy-on-write-friendly: restoring never mutates the snapshot, so one
  snapshot serves every experiment whose injection time lies at or after it;
* :func:`capture_checkpoints` is the profiling run: the ordinary interpreter
  executes in segments (:meth:`~repro.vm.interpreter.Interpreter.run_segment`
  / :meth:`~repro.vm.interpreter.Interpreter.continue_segment`), and every
  pause — each *K* ticks — freezes the whole call stack, which is recorded
  with memory, output and tick as one snapshot.  A fixed snapshot budget
  (:data:`DEFAULT_MAX_CHECKPOINTS`) bounds capture memory: whenever it
  overflows, every other snapshot is dropped and the interval doubles, so
  the spacing ends proportional to the golden length.  ``K`` starts at a
  fine default (auto-tune) or at an explicit ``checkpoint_interval``;
* :class:`CheckpointStore` holds the captured snapshots sorted by tick with
  an O(log n) ``latest_at`` lookup;
* :func:`golden_with_checkpoints` runs one checkpointed profiling run and
  caches ``(GoldenTrace, CheckpointStore)`` on the module object, keyed like
  the decode cache and invalidated with it: the cache entry pins the
  :class:`~repro.vm.program.DecodedProgram` it was captured from, so a
  structural mutation of the module (which forces a re-decode) also forces a
  re-capture.  Frame slot numbering and block indices are decode-specific —
  a snapshot must never be applied across a re-decode, and
  :meth:`Interpreter.restore` enforces the same identity check.

Restoring is implemented by :meth:`~repro.vm.interpreter.Interpreter.resume`:
the captured call stack is rebuilt by re-entering one Python frame per level
(outer levels complete their suspended ``call`` exactly like ``_h_call``
does), after which the ordinary inner loop executes the remaining suffix.
The differential suite proves resumed runs bit-identical to from-scratch
runs for every registry program.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionSetupError
from repro.ir.module import Module
from repro.telemetry import metrics as telemetry_metrics
from repro.vm.interpreter import Interpreter, SuspendedRun
from repro.vm.memory import MemoryState
from repro.vm.program import DecodedFunction, DecodedProgram, decode_module
from repro.vm.runtime import ExecutionLimits, ExecutionResult, RuntimeScalar
from repro.vm.trace import GoldenTrace, TraceCollector

#: Upper bound on snapshots kept per golden run when auto-tuning.
DEFAULT_MAX_CHECKPOINTS = 32

#: Starting checkpoint spacing (in dynamic ticks) when auto-tuning.
DEFAULT_INITIAL_INTERVAL = 64

#: Number of checkpointed profiling runs this process actually executed
#: (artifact-cache hits do not count).  ``tests/test_engine.py`` asserts a
#: warm cache keeps this at zero across fresh processes.
GOLDEN_DERIVATIONS = 0


def _note_derivation(module_name: str) -> None:
    """Count one real profiling run (telemetry counter + compat shims).

    The canonical count lives in the telemetry registry
    (``repro_derivations_total{kind="golden"}``); the module-level
    ``GOLDEN_DERIVATIONS`` mirror and the ``REPRO_DERIVATION_LOG`` file
    append (``<pid> <module>`` lines) are kept so in-process and
    multi-process zero-re-derivation tests keep working unchanged.
    """
    global GOLDEN_DERIVATIONS
    GOLDEN_DERIVATIONS += 1
    telemetry_metrics.note_derivation("golden", module_name)


class FrameSnapshot:
    """One live function invocation, frozen at a capture point.

    ``block_index``/``position`` name the *next* instruction of this level:
    for the innermost level the one about to execute, for every outer level
    the ``call`` it is suspended in.

    ``previous`` is normally ``None`` (the captured position lies past the
    block's phi moves).  A segment pause — a checkpoint capture or a
    windowed run's — can suspend a run *before* a block's phi group; such a
    record carries the incoming CFG edge in ``previous`` and resumes by
    executing the phis for that edge first.
    """

    __slots__ = ("dfunc", "block_index", "position", "frame", "stack_mark", "previous")

    def __init__(
        self,
        dfunc: DecodedFunction,
        block_index: int,
        position: int,
        frame: Tuple,
        stack_mark: int,
        previous: Optional[int] = None,
    ) -> None:
        self.dfunc = dfunc
        self.block_index = block_index
        self.position = position
        self.frame = frame
        self.stack_mark = stack_mark
        self.previous = previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FrameSnapshot @{self.dfunc.name} block={self.block_index} "
            f"position={self.position}>"
        )


class VMSnapshot:
    """Complete mutable VM state at one dynamic tick of a fault-free run."""

    __slots__ = ("tick", "frames", "memory", "output", "program")

    def __init__(
        self,
        tick: int,
        frames: Tuple[FrameSnapshot, ...],
        memory: MemoryState,
        output: Tuple,
        program: DecodedProgram,
    ) -> None:
        self.tick = tick
        self.frames = frames
        self.memory = memory
        self.output = output
        #: The decoded program this snapshot's slot/block numbering belongs
        #: to.  ``Interpreter.restore`` refuses snapshots whose program is not
        #: the interpreter's own (identity, not equality — see module docs).
        self.program = program

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VMSnapshot tick={self.tick} depth={len(self.frames)}>"


class CheckpointStore:
    """Snapshots of one golden run, sorted by tick, with bisect lookup."""

    __slots__ = ("program", "entry", "args_key", "interval", "snapshots", "ticks")

    def __init__(
        self,
        program: DecodedProgram,
        entry: str,
        args_key: Tuple,
        interval: int,
        snapshots: Sequence[VMSnapshot],
    ) -> None:
        self.program = program
        self.entry = entry
        self.args_key = args_key
        #: Final (possibly auto-tuned) spacing between checkpoints.
        self.interval = interval
        self.snapshots: List[VMSnapshot] = list(snapshots)
        self.ticks: List[int] = [snapshot.tick for snapshot in self.snapshots]

    def __len__(self) -> int:
        return len(self.snapshots)

    def latest_at(self, tick: int) -> Optional[VMSnapshot]:
        """The snapshot with the largest tick ``<= tick``, or None (O(log n))."""
        index = bisect_right(self.ticks, tick) - 1
        return self.snapshots[index] if index >= 0 else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CheckpointStore {len(self.snapshots)} snapshots, "
            f"interval={self.interval}>"
        )


def capture_checkpoints(
    program: Union[DecodedProgram, Module],
    *,
    entry: str = "main",
    args: Sequence[RuntimeScalar] = (),
    limits: Optional[ExecutionLimits] = None,
    checkpoint_interval: Optional[int] = None,
    max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
    trace_collector: Optional[TraceCollector] = None,
) -> Tuple[CheckpointStore, ExecutionResult]:
    """Run the program fault-free and capture its checkpoint snapshots.

    The ordinary interpreter runs with the trace collector armed, pausing every
    ``interval`` ticks.  A pause freezes the whole call stack (the
    :class:`~repro.vm.interpreter.SuspendedRun`'s frames are exactly the
    snapshot's); the unwind released every level's stack frame, so the
    stack cursor is re-armed before memory is captured.  A pause that would
    split a phi group suspends before it, at a lower tick, and its
    innermost frame carries the incoming edge in ``previous``; pause
    targets advance on a fixed grid, so a long phi group is passed on a
    later pause and only one snapshot per tick is kept.

    Raises if the run does not complete (a program that crashes without any
    injected fault is a benchmark bug, exactly like golden profiling).
    """
    if checkpoint_interval is not None and checkpoint_interval < 1:
        raise ExecutionSetupError("checkpoint_interval must be positive")
    if max_checkpoints < 2:
        raise ExecutionSetupError("max_checkpoints must be at least 2")
    interpreter = Interpreter(
        program,
        entry=entry,
        limits=limits or ExecutionLimits(),
        trace_collector=trace_collector,
    )
    memory = interpreter.memory
    # An explicit interval pins the starting point but the snapshot budget
    # still applies (thinning doubles the spacing), so capture memory stays
    # bounded on arbitrarily long golden runs.
    interval = checkpoint_interval or DEFAULT_INITIAL_INTERVAL
    snapshots: List[VMSnapshot] = []
    pause = interval
    out = interpreter.run_segment(list(args), pause)
    while isinstance(out, SuspendedRun):
        memory.segments["stack"].cursor = out.stack_cursor
        tick = interpreter.dynamic_index
        if not snapshots or snapshots[-1].tick != tick:
            snapshots.append(
                VMSnapshot(
                    tick=tick,
                    frames=out.frames,
                    memory=memory.capture_state(),
                    output=tuple(interpreter.output),
                    program=interpreter.program,
                )
            )
            if len(snapshots) > max_checkpoints:
                # Budget exceeded: keep every other snapshot and space the
                # rest twice as far apart — the interval converges to
                # O(length / budget).
                del snapshots[1::2]
                interval *= 2
        pause += interval
        out = interpreter.continue_segment(out, pause)
    result: ExecutionResult = out
    if not result.completed:
        detail = result.fault.category if result.fault else "hang"
        raise RuntimeError(
            f"fault-free run of {interpreter.module.name} did not complete ({detail})"
        )
    store = CheckpointStore(
        interpreter.program, entry, tuple(args), interval, snapshots
    )
    return store, result


def golden_with_checkpoints(
    module: Module,
    *,
    entry: str = "main",
    args: Sequence[RuntimeScalar] = (),
    limits: Optional[ExecutionLimits] = None,
    checkpoint_interval: Optional[int] = None,
    max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
) -> Tuple[GoldenTrace, CheckpointStore]:
    """One checkpointed profiling run: golden trace plus snapshots, cached.

    Two cache layers stack here.  The in-process cache lives on the module
    object next to the decode cache and shares its invalidation: each entry
    pins the :class:`DecodedProgram` it was captured from, and is rebuilt
    whenever :func:`decode_module` returns a different object (i.e. after
    any structural mutation of the module).  Beneath it, the persistent
    artifact cache (:mod:`repro.artifacts`, when active) is keyed by the
    module's *content* fingerprint plus the derivation knobs — a hit
    re-binds the stored trace and snapshots to this process's decode and
    skips the profiling run entirely, so derivation happens once per host
    rather than once per process.
    """
    decoded = decode_module(module)
    limits = limits or ExecutionLimits()
    key = (entry, tuple(args), checkpoint_interval, max_checkpoints, limits)
    cache = getattr(module, "_checkpoint_cache", None)
    if cache is None:
        cache = module._checkpoint_cache = {}
    cached = cache.get(key)
    if cached is not None and cached[0] is decoded:
        return cached[1], cached[2]

    from repro import artifacts

    disk = artifacts.active_cache()
    disk_key = None
    if disk is not None:
        disk_key = artifacts.golden_key(
            disk, module, entry, args, checkpoint_interval, max_checkpoints, limits
        )
        payload = disk.load("golden", disk_key)
        if payload is not None:
            try:
                golden, store = artifacts.deserialize_golden(payload, decoded)
            except Exception:
                golden = store = None  # corrupted artifact: recompute
            if golden is not None:
                cache[key] = (decoded, golden, store)
                return golden, store

    collector = TraceCollector()
    store, result = capture_checkpoints(
        decoded,
        entry=entry,
        args=args,
        limits=limits,
        checkpoint_interval=checkpoint_interval,
        max_checkpoints=max_checkpoints,
        trace_collector=collector,
    )
    golden = collector.build(
        result.output, result.return_value, checkpoint_ticks=tuple(store.ticks)
    )
    _note_derivation(module.name)
    cache[key] = (decoded, golden, store)
    if disk is not None and disk_key is not None:
        disk.store("golden", disk_key, artifacts.serialize_golden(golden, store))
    return golden, store


def persist_cached_golden(
    module: Module,
    *,
    entry: str = "main",
    args: Sequence[RuntimeScalar] = (),
    limits: Optional[ExecutionLimits] = None,
    checkpoint_interval: Optional[int] = None,
    max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
) -> bool:
    """Ensure this workload's golden artifact is on disk (for worker pools).

    Covers the ordering gap where the golden trace was derived *before* the
    artifact cache was configured: the in-memory module cache is warm, so
    :func:`golden_with_checkpoints` would never reach its store step, yet
    freshly spawned workers (which share only the disk) would re-derive.
    Returns True when the artifact is (now) persisted.
    """
    from repro import artifacts

    disk = artifacts.active_cache()
    if disk is None:
        return False
    golden, store = golden_with_checkpoints(
        module,
        entry=entry,
        args=args,
        limits=limits,
        checkpoint_interval=checkpoint_interval,
        max_checkpoints=max_checkpoints,
    )
    disk_key = artifacts.golden_key(
        disk,
        module,
        entry,
        args,
        checkpoint_interval,
        max_checkpoints,
        limits or ExecutionLimits(),
    )
    if disk.path_for("golden", disk_key).exists():
        return True
    return disk.store("golden", disk_key, artifacts.serialize_golden(golden, store))
