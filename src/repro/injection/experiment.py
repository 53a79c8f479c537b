"""Single-experiment driver: golden run, fault sampling, faulty run, outcome.

This module glues the pieces together the same way an LLFI campaign script
does:

1. :func:`profile_program` performs the fault-free *profiling* run and
   returns the golden trace (dynamic instruction stream + golden output);
2. :class:`ExperimentRunner` samples a fault specification from a technique's
   candidate space, executes the program once with a
   :class:`~repro.injection.injector.FaultInjector` installed, and classifies
   the outcome against the golden output per §III-E.

The runner lowers the workload into its decoded executable form
(:mod:`repro.vm.program`) exactly once; the profiling run and every faulty
run share that one artifact, so per-experiment cost is execution only.  The
``backend`` knob selects generated code (``compiled``) or the tree-walking
:class:`~repro.vm.reference.ReferenceInterpreter` (``reference``) — the seam
the differential test suites use to prove every path produces bit-identical
results.

On the decoded and compiled backends every faulty run takes one path, on
one pooled interpreter.  The profiling run records VM checkpoints
(:mod:`repro.vm.snapshot`) every few hundred ticks; a faulty run restores
the latest checkpoint at or before its first injection index instead of
re-executing the shared golden prefix, sprints bare to the fault window,
runs hooked only while flips remain, and finishes bare.  Per-experiment
cost is O(interval + faulty suffix), with hooks paid only inside the
window.  The ``fast_forward`` and ``windowed`` runner arguments (and their
per-run overrides) switch the two halves off — from scratch, hooked from
the first tick — as the baselines the differential suites and benchmarks
compare against; results are bit-identical either way.  The reference
oracle replays every run from scratch, hooked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.frontend.compiler import CompiledProgram
from repro.injection.faultmodel import FaultSpec, InjectionRecord, SINGLE_BIT_MAX_MBF
from repro.injection.injector import FaultInjector
from repro.injection.outcome import Outcome
from repro.injection.techniques import InjectionCandidate, InjectionTechnique
from repro.telemetry.spans import PhaseClock
from repro.vm.codegen import CompiledCode, CompiledInterpreter, compile_module
from repro.vm.interpreter import (
    ExecutionLimits,
    ExecutionResult,
    Interpreter,
    SuspendedRun,
)
from repro.vm.program import DecodedProgram, decode_module
from repro.vm.reference import ReferenceInterpreter
from repro.vm.snapshot import (
    DEFAULT_MAX_CHECKPOINTS,
    CheckpointStore,
    golden_with_checkpoints,
)
from repro.vm.trace import GoldenTrace, TraceCollector

#: Execution backends an experiment can run on.  ``"decoded"`` is the
#: production default; ``"compiled"`` transpiles the decoded program to
#: specialized Python (fastest); ``"reference"`` walks the IR tree and
#: exists for differential verification.
BACKENDS = ("decoded", "reference", "compiled")


def _make_interpreter(
    program: CompiledProgram,
    backend: str,
    decoded: Optional[DecodedProgram] = None,
    compiled: Optional[CompiledCode] = None,
    **kwargs,
):
    if backend == "decoded":
        return Interpreter(
            decoded if decoded is not None else decode_module(program.module),
            entry=program.entry,
            **kwargs,
        )
    if backend == "compiled":
        if compiled is None:
            compiled = compile_module(program.module)
        return CompiledInterpreter(compiled, entry=program.entry, **kwargs)
    if backend == "reference":
        return ReferenceInterpreter(program.module, entry=program.entry, **kwargs)
    raise ConfigurationError(
        f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
    )


def profile_program(
    program: CompiledProgram,
    args: Sequence = (),
    *,
    limits: Optional[ExecutionLimits] = None,
    backend: str = "decoded",
    decoded: Optional[DecodedProgram] = None,
) -> GoldenTrace:
    """Run the program fault-free and collect its golden trace.

    Raises if the fault-free run does not complete — a program that crashes
    without any injected fault is a benchmark bug, not an experiment outcome.
    """
    collector = TraceCollector()
    interpreter = _make_interpreter(
        program,
        backend,
        decoded,
        limits=limits or ExecutionLimits(),
        trace_collector=collector,
    )
    result = interpreter.run(list(args))
    if not result.completed:
        detail = result.fault.category if result.fault else "hang"
        raise RuntimeError(
            f"fault-free run of {program.module.name} did not complete ({detail})"
        )
    return collector.build(result.output, result.return_value)


@dataclass
class ExperimentResult:
    """Everything recorded about one fault-injection experiment."""

    spec: FaultSpec
    outcome: Outcome
    #: Number of bit flips actually performed before the run ended.
    activated_errors: int
    #: The individual flips, in injection order.
    injections: List[InjectionRecord] = field(default_factory=list)
    #: Dynamic instructions executed by the faulty run.
    dynamic_instructions: int = 0
    #: Hardware-exception category when the outcome is a detection, else None.
    fault_category: Optional[str] = None

    @property
    def is_sdc(self) -> bool:
        return self.outcome is Outcome.SDC

    @property
    def crashed(self) -> bool:
        return self.outcome is Outcome.DETECTED_HW_EXCEPTION


class ExperimentRunner:
    """Runs fault-injection experiments for one workload.

    A *workload* is a compiled program plus its (fixed) input; the program is
    decoded and the golden trace profiled exactly once, then reused by every
    experiment — mirroring LLFI's profile-then-inject workflow with the
    decode step amortised the same way.
    """

    def __init__(
        self,
        program: CompiledProgram,
        *,
        args: Sequence = (),
        golden: Optional[GoldenTrace] = None,
        watchdog_multiplier: int = 12,
        backend: str = "decoded",
        fast_forward: bool = True,
        windowed: bool = True,
        checkpoint_interval: Optional[int] = None,
        max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
    ) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
            )
        self.program = program
        self.backend = backend
        #: The shared decoded artifact (None on the reference backend).  The
        #: compiled backend keeps it too: generated code shares the decoded
        #: program's slot numbering, block indices and checkpoints.
        self.decoded: Optional[DecodedProgram] = (
            decode_module(program.module)
            if backend in ("decoded", "compiled")
            else None
        )
        #: The transpiled artifact (compiled backend only), shared through the
        #: module's compile cache with pooled warm-up and other runners.
        self.compiled: Optional[CompiledCode] = (
            compile_module(program.module) if backend == "compiled" else None
        )
        self.args = list(args)
        #: Fast-forward exists on the decoded and compiled drivers; the
        #: reference backend always replays from scratch (it is the oracle).
        self.fast_forward = bool(fast_forward) and backend in ("decoded", "compiled")
        #: Injection-windowed execution: hooks are armed only while the
        #: injector can still flip (bare sprint → hooked window → bare tail).
        #: Requires the resumable drivers, so the reference oracle always
        #: runs fully hooked.
        self.windowed = bool(windowed) and backend in ("decoded", "compiled")
        self.checkpoint_interval = checkpoint_interval
        self.max_checkpoints = max_checkpoints
        self._checkpoints: Optional[CheckpointStore] = None
        #: The pooled interpreter of every decoded/compiled faulty run: built
        #: once, rewound per run by ``restore()`` or ``reset()``.
        self._interpreter: Optional[Interpreter] = None
        #: Per-phase accounting across this runner's experiments (restore /
        #: pre-window sprint / hooked window / bare tail).  A single-cursor
        #: lap clock: every covered instant lands in exactly one phase, so
        #: the totals sum to the covered wall clock — no double counting at
        #: segment boundaries.  Read via :attr:`phase_seconds`.
        self.phases = PhaseClock(("restore", "pre_window", "window", "tail"))
        self.experiments_run = 0
        if golden is not None:
            self.golden = golden
        elif self.fast_forward:
            # One checkpointed profiling run yields both the golden trace and
            # the snapshots (cached on the module, shared across runners).
            self.golden, self._checkpoints = golden_with_checkpoints(
                program.module,
                entry=program.entry,
                args=tuple(self.args),
                checkpoint_interval=checkpoint_interval,
                max_checkpoints=max_checkpoints,
            )
        else:
            self.golden = profile_program(
                program, self.args, backend=backend, decoded=self.decoded
            )
        self.watchdog_multiplier = watchdog_multiplier
        self.limits = ExecutionLimits.for_golden_length(
            self.golden.dynamic_instruction_count, watchdog_multiplier
        )

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Cumulative wall-clock seconds per phase (span-derived)."""
        return dict(self.phases.wall)

    @property
    def phase_cpu_seconds(self) -> Dict[str, float]:
        """Cumulative per-process CPU seconds per phase (span-derived)."""
        return dict(self.phases.cpu)

    # -- fault specification ---------------------------------------------------------
    def sample_spec(
        self,
        technique: InjectionTechnique,
        *,
        max_mbf: int = SINGLE_BIT_MAX_MBF,
        win_size: int = 0,
        rng: random.Random,
        first_candidate: Optional[InjectionCandidate] = None,
    ) -> FaultSpec:
        """Build a fault spec whose first flip is sampled from the error space.

        ``first_candidate`` can pin the first injection location explicitly —
        used by the RQ5 transition study, which replays multi-bit injections
        at locations chosen from single-bit experiments.
        """
        candidate = first_candidate or technique.sample_candidate(self.golden, rng)
        return FaultSpec(
            technique=technique.name,
            first_dynamic_index=candidate.dynamic_index,
            first_slot=candidate.slot,
            max_mbf=max_mbf,
            win_size=win_size,
            seed=rng.getrandbits(48),
        )

    def seeded_spec(
        self,
        technique: InjectionTechnique,
        *,
        max_mbf: int = SINGLE_BIT_MAX_MBF,
        win_size: int = 0,
        seed: int,
        first_candidate: Optional[InjectionCandidate] = None,
    ) -> FaultSpec:
        """The fault spec a self-contained ``seed`` deterministically expands to.

        Sampling a spec is cheap and running it is not, which lets callers
        (the campaign engines) sample a whole batch up front and execute it
        in injection-tick order so consecutive experiments restore from the
        same checkpoint.
        """
        return self.sample_spec(
            technique,
            max_mbf=max_mbf,
            win_size=win_size,
            rng=random.Random(seed),
            first_candidate=first_candidate,
        )

    # -- execution ----------------------------------------------------------------------
    def _checkpoint_store(self) -> Optional[CheckpointStore]:
        """The (lazily built) checkpoint store matching this runner's decode.

        The module-level cache in :mod:`repro.vm.snapshot` invalidates stored
        checkpoints together with the decode cache; a runner whose own
        decoded artifact went stale (module mutated after construction)
        simply stops fast-forwarding rather than mixing numberings.
        """
        if self.decoded is None:
            return None
        store = self._checkpoints
        if store is not None and store.program is self.decoded:
            return store
        _golden, store = golden_with_checkpoints(
            self.program.module,
            entry=self.program.entry,
            args=tuple(self.args),
            checkpoint_interval=self.checkpoint_interval,
            max_checkpoints=self.max_checkpoints,
        )
        self._checkpoints = store
        return store if store.program is self.decoded else None

    def _pooled_interpreter(self) -> Interpreter:
        """The one long-lived resumable driver every experiment reuses."""
        interpreter = self._interpreter
        if interpreter is None:
            if self.backend == "compiled":
                interpreter = CompiledInterpreter(
                    self.compiled, entry=self.program.entry, limits=self.limits
                )
            else:
                interpreter = Interpreter(
                    self.decoded, entry=self.program.entry, limits=self.limits
                )
            self._interpreter = interpreter
        return interpreter

    def _run_segments(
        self,
        injector: FaultInjector,
        spec: FaultSpec,
        read_hook,
        write_hook,
        fast_forward: bool,
        windowed: bool,
    ) -> ExecutionResult:
        """One faulty run on the pooled interpreter: sprint, hooked window, tail.

        The run starts from the latest checkpoint at or before
        ``first_dynamic_index`` (from scratch without ``fast_forward``).
        Outside the injection window the hooks are pure pass-throughs, so
        the run executes bare (compiled: generated code) up to
        ``first_dynamic_index``, switches the hooks in only while the
        injector still has flips to place (compiled: on the decoded driver),
        and finishes bare the moment it is exhausted.  Without ``windowed``
        the hooks are armed from the first tick and the run never pauses.
        Every segment enforces :class:`ExecutionLimits`, so hangs classify
        at the exact same tick either way.
        """
        interpreter = self._pooled_interpreter()
        clock = self.phases
        first = spec.first_dynamic_index
        snapshot = None
        if fast_forward:
            store = self._checkpoint_store()
            if store is not None:
                snapshot = store.latest_at(first)
        pause = first if windowed else None
        interpreter.read_hook = None if windowed else read_hook
        interpreter.write_hook = None if windowed else write_hook
        try:
            # One cursor covers the whole run: each lap attributes the time
            # since the previous lap to exactly one phase, so boundary
            # instants (hook swapping, the loop's own bookkeeping) are never
            # counted twice or dropped.
            clock.start()
            if snapshot is not None:
                interpreter.restore(snapshot)
                clock.lap("restore")
                # The restore inside resume_segment re-restores the same
                # state object: a delta restore of a clean memory, ~free.
                out = interpreter.resume_segment(snapshot, pause)
            else:
                interpreter.reset()
                clock.lap("restore")
                out = interpreter.run_segment(self.args, pause)
            clock.lap("pre_window" if windowed else "window")
            chunk = 1
            while isinstance(out, SuspendedRun):
                if injector.exhausted:
                    # Final flip landed: detach the hooks, finish bare.
                    interpreter.read_hook = None
                    interpreter.write_hook = None
                    out = interpreter.continue_segment(out, None)
                    clock.lap("tail")
                    continue
                next_time = injector.next_scheduled_time
                if next_time > interpreter.dynamic_index:
                    # Between scheduled flips (win-size > 1): sprint bare to
                    # the next one.  No access below it can be injected.
                    interpreter.read_hook = None
                    interpreter.write_hook = None
                    out = interpreter.continue_segment(out, next_time)
                    clock.lap("pre_window")
                    chunk = 1
                    continue
                # Inside the window: run hooked until the flip lands.  A
                # scheduled flip lands on the first *eligible* access at or
                # after its time, which can trail the schedule — double the
                # chunk while nothing landed so stragglers stay cheap.
                interpreter.read_hook = read_hook
                interpreter.write_hook = write_hook
                landed_before = len(injector.injections)
                out = interpreter.continue_segment(
                    out, interpreter.dynamic_index + chunk
                )
                clock.lap("window")
                chunk = 1 if len(injector.injections) > landed_before else chunk * 2
            return out
        finally:
            interpreter.read_hook = None
            interpreter.write_hook = None

    def run_spec(
        self,
        spec: FaultSpec,
        *,
        fast_forward: Optional[bool] = None,
        windowed: Optional[bool] = None,
    ) -> ExperimentResult:
        """Execute one faulty run and classify its outcome.

        ``fast_forward`` and ``windowed`` override the runner-level settings
        for this one run (the escape hatches the differential suite compares
        the execution strategies with).
        """
        injector = FaultInjector(spec)
        read_hook = injector.read_hook if spec.technique == "inject-on-read" else None
        write_hook = injector.write_hook if spec.technique == "inject-on-write" else None
        self.experiments_run += 1
        if self.backend == "reference":
            # The oracle replays every run from scratch on a fresh tree-walker.
            interpreter = _make_interpreter(
                self.program,
                self.backend,
                limits=self.limits,
                read_hook=read_hook,
                write_hook=write_hook,
            )
            self.phases.start()
            execution = interpreter.run(self.args)
            self.phases.lap("window")
        else:
            execution = self._run_segments(
                injector,
                spec,
                read_hook,
                write_hook,
                self.fast_forward if fast_forward is None else bool(fast_forward),
                self.windowed if windowed is None else bool(windowed),
            )
        outcome = self.classify(execution)
        return ExperimentResult(
            spec=spec,
            outcome=outcome,
            activated_errors=injector.activated_errors,
            injections=list(injector.injections),
            dynamic_instructions=execution.dynamic_instructions,
            fault_category=execution.fault.category if execution.fault else None,
        )

    def run_sampled(
        self,
        technique: InjectionTechnique,
        *,
        max_mbf: int = SINGLE_BIT_MAX_MBF,
        win_size: int = 0,
        rng: random.Random,
        first_candidate: Optional[InjectionCandidate] = None,
    ) -> ExperimentResult:
        """Sample a spec and run it (the common path for campaign loops)."""
        spec = self.sample_spec(
            technique,
            max_mbf=max_mbf,
            win_size=win_size,
            rng=rng,
            first_candidate=first_candidate,
        )
        return self.run_spec(spec)

    def run_seeded(
        self,
        technique: InjectionTechnique,
        *,
        max_mbf: int = SINGLE_BIT_MAX_MBF,
        win_size: int = 0,
        seed: int,
        first_candidate: Optional[InjectionCandidate] = None,
    ) -> ExperimentResult:
        """Run one experiment from a self-contained seed.

        The experiment's entire randomness (candidate location, bit choices,
        follow-up slots) derives from ``seed`` alone, so a campaign that
        assigns one derived seed per experiment index can execute its
        experiments in any order or process and replay any of them alone.
        """
        rng = random.Random(seed)
        return self.run_sampled(
            technique,
            max_mbf=max_mbf,
            win_size=win_size,
            rng=rng,
            first_candidate=first_candidate,
        )

    # -- outcome classification -----------------------------------------------------------
    def classify(self, execution: ExecutionResult) -> Outcome:
        """Map a VM execution result onto the paper's five outcome categories."""
        if execution.fault is not None:
            return Outcome.DETECTED_HW_EXCEPTION
        if execution.hang:
            return Outcome.HANG
        golden_output = self.golden.output
        if execution.output == golden_output:
            return Outcome.BENIGN
        if len(execution.output) == 0 and len(golden_output) > 0:
            return Outcome.NO_OUTPUT
        return Outcome.SDC
