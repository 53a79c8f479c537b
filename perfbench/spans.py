"""In-memory span tracing of the layers the benchmark calls into.

The benchmark times each layer from outside: :func:`install` replaces a
layer's public functions with wrappers that record a span (name, start,
end, parent) around every call made in this process.  Nothing under
``src/`` changes.  Spans stay in memory; :meth:`Tracer.dump` writes them out
once the workload has ended.

Calls made inside pooled worker processes are not seen here (a forked
worker inherits the wrappers, but its spans die with it); the workloads
fold in the per-chunk phase seconds the engine already merges into its
results instead (see ``README.md``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (defining module, attribute, span name) of every traced module function.
#: Each is re-bound wherever a ``repro`` module imported it by name.
TRACED_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.programs.registry", "build_program", "frontend.compile"),
    ("repro.vm.program", "decode_module", "vm.decode"),
    ("repro.vm.codegen", "compile_program", "vm.codegen"),
    ("repro.vm.snapshot", "golden_with_checkpoints", "vm.golden"),
    ("repro.errorspace.enumerate", "enumerate_error_space", "errorspace.enumerate"),
    ("repro.programs.registry", "get_defuse_index", "errorspace.defuse"),
    ("repro.errorspace.planner", "build_pruned_plan", "errorspace.infer"),
)

#: Modules that import a traced function by name (imported before patching).
BINDING_MODULES: Tuple[str, ...] = (
    "repro.errorspace",
    "repro.experiments.session",
    "repro.campaign.engine",
    "repro.injection.experiment",
    "repro.vm.interpreter",
    "repro.vm.snapshot",
    "repro.vm.codegen",
)

#: (module, class, method, span name) of every traced method.
TRACED_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.artifacts", "ArtifactCache", "store", "artifacts.store"),
    ("repro.artifacts", "ArtifactCache", "load", "artifacts.load"),
    ("repro.campaign.ledger", "ChunkLedger", "record_done", "campaign.ledger"),
    ("repro.campaign.ledger", "ChunkLedger", "compact", "campaign.ledger"),
)


class Tracer:
    """Records nested spans of one process; off until :meth:`start`."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, attributes) per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.recording = False

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def open(self, name: str) -> Optional[int]:
        if not self.recording:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: Optional[int], **attributes) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = time.monotonic()
        span[4].update(attributes)
        # A span opened while recording closes even after stop(); pop it and
        # anything an exception left open above it.
        while self._stack and self._stack[-1] >= index:
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, function: Callable, result_attributes=None) -> Callable:
        """``function`` with a span around each call made while recording."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(name)
            if index is None:
                return function(*args, **kwargs)
            attributes = {}
            try:
                result = function(*args, **kwargs)
                if result_attributes is not None:
                    attributes = result_attributes(result)
                return result
            finally:
                self.close(index, **attributes)

        return traced

    # -- derived numbers ------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _attrs in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent, _attrs) in enumerate(self.spans):
            if end is None:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def child_seconds(self, index: int) -> float:
        """Time the direct children of span ``index`` cover."""
        return sum(
            end - start
            for _name, start, end, parent, _attrs in self.spans
            if parent == index and end is not None
        )

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(
            end - start
            for _name, start, end, parent, _attrs in self.spans
            if parent < 0 and end is not None
        )

    def dump(self, path: Path, origin: float) -> None:
        """Write the spans as JSON (times in seconds from ``origin``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": name,
                "start": start - origin,
                "end": None if end is None else end - origin,
                "parent": parent,
                "attributes": attributes,
            }
            for name, start, end, parent, attributes in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}, indent=1))


def _golden_ticks(result) -> dict:
    golden, _store = result
    return {"ticks": golden.dynamic_instruction_count, "golden_id": id(golden)}


def wrap_engine(tracer: Tracer, engine) -> None:
    """Span every ``run`` / ``run_errors`` call of one engine instance.

    Each span carries the phase seconds the engine returns for that call
    (``CampaignResult.phase_seconds`` / ``ExecutionEngine.phase_seconds``:
    in-process for the serial engine, summed over the workers' chunks for
    a pool) and the number of workers they were spread over.
    """
    jobs = getattr(engine, "jobs", 1)

    def campaign_attributes(result) -> dict:
        return {"phases": dict(result.phase_seconds), "jobs": jobs, "experiments": result.experiments}

    def error_attributes(outcomes) -> dict:
        return {"phases": dict(engine.phase_seconds), "jobs": jobs, "experiments": len(outcomes)}

    engine.run = tracer.wrap("campaign.engine", engine.run, campaign_attributes)
    engine.run_errors = tracer.wrap("campaign.engine", engine.run_errors, error_attributes)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the ``repro`` package."""
    import importlib

    # Import every module that binds a traced function by name first, so the
    # scan below re-binds each of those names too.
    for module_name in BINDING_MODULES:
        importlib.import_module(module_name)
    for module_name, attribute, span in TRACED_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        extra = _golden_ticks if span == "vm.golden" else None
        wrapped = tracer.wrap(span, original, extra)
        for candidate in list(sys.modules.values()):
            name = getattr(candidate, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            if getattr(candidate, attribute, None) is original:
                setattr(candidate, attribute, wrapped)
    for module_name, class_name, method, span in TRACED_METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method, tracer.wrap(span, getattr(owner, method)))


#: Span names whose self time is reported as ``<name>_s``.
SELF_TIMED = (
    "frontend.compile",
    "vm.decode",
    "vm.codegen",
    "vm.golden",
    "errorspace.enumerate",
    "errorspace.defuse",
    "errorspace.infer",
    "artifacts.store",
    "artifacts.load",
    "campaign.ledger",
    "analysis.render",
)

PHASES = ("restore", "pre_window", "window", "tail")


def layer_seconds(tracer: Tracer, wall_seconds: float) -> Dict[str, float]:
    """The per-layer wall-clock breakdown of one traced round.

    Traced calls report their self time.  Each engine call's self time is
    split into the injection phases (serial: the phases measured in this
    process; pooled: the workers' summed phase seconds divided by the
    number of workers) and ``campaign.dispatch_s``, the rest.
    ``unattributed_s`` is the wall clock no top-level span covers.
    """
    self_time = tracer.self_seconds()
    layers = {f"{name}_s": self_time.get(name, 0.0) for name in SELF_TIMED}
    phases = dict.fromkeys(PHASES, 0.0)
    engine = dispatch = 0.0
    experiments = 0
    ticks = {}
    for index, (name, start, end, _parent, attributes) in enumerate(tracer.spans):
        if end is None:
            continue
        if name == "vm.golden" and "golden_id" in attributes:
            ticks[attributes["golden_id"]] = attributes["ticks"]
        if name != "campaign.engine":
            continue
        engine += end - start
        jobs = max(1, attributes.get("jobs", 1))
        share = {p: attributes.get("phases", {}).get(p, 0.0) / jobs for p in PHASES}
        for phase, seconds in share.items():
            phases[phase] += seconds
        dispatch += (end - start) - tracer.child_seconds(index) - sum(share.values())
        experiments += attributes.get("experiments", 0)
    for phase, seconds in phases.items():
        layers[f"injection.{phase}_s"] = seconds
    layers["injection.experiments"] = experiments
    layers["campaign.engine_s"] = engine
    layers["campaign.dispatch_s"] = dispatch
    layers["vm.golden_ticks"] = sum(ticks.values())
    layers["unattributed_s"] = wall_seconds - tracer.top_level_seconds()
    return layers
