"""Program registry: lookup, building and caching of benchmark workloads.

The registry holds one :class:`~repro.programs.definition.ProgramDefinition`
per benchmark of Table II.  Compiled programs and their experiment runners
(golden traces included) are cached per process, because campaigns reuse the
same workload thousands of times.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.frontend.compiler import CompiledProgram
from repro.injection.experiment import ExperimentRunner
from repro.programs.definition import ProgramDefinition
from repro.vm.program import DecodedProgram, decode_module
from repro.programs.mibench import basicmath, crc32, dijkstra, fft, qsort, sha, stringsearch, susan
from repro.programs.parboil import bfs, histo, sad, spmv

#: All 15 benchmark programs, in the order Table II lists them.
_DEFINITIONS: List[ProgramDefinition] = [
    basicmath.DEFINITION,
    qsort.DEFINITION,
    susan.CORNERS_DEFINITION,
    susan.EDGES_DEFINITION,
    susan.SMOOTHING_DEFINITION,
    fft.FFT_DEFINITION,
    fft.IFFT_DEFINITION,
    crc32.DEFINITION,
    dijkstra.DEFINITION,
    sha.DEFINITION,
    stringsearch.DEFINITION,
    bfs.DEFINITION,
    histo.DEFINITION,
    sad.DEFINITION,
    spmv.DEFINITION,
]

REGISTRY: Dict[str, ProgramDefinition] = {
    definition.name: definition for definition in _DEFINITIONS
}


def get_program(name: str) -> ProgramDefinition:
    """Look up a program definition by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark program {name!r}; known programs: {sorted(REGISTRY)}"
        ) from None


def all_program_names() -> List[str]:
    """Names of all 15 benchmark programs, in Table II order."""
    return [definition.name for definition in _DEFINITIONS]


def mibench_program_names() -> List[str]:
    return [d.name for d in _DEFINITIONS if d.suite == "mibench"]


def parboil_program_names() -> List[str]:
    return [d.name for d in _DEFINITIONS if d.suite == "parboil"]


@lru_cache(maxsize=None)
def build_program(name: str) -> CompiledProgram:
    """Compile a benchmark to MiniIR (cached per process)."""
    return get_program(name).build()


@lru_cache(maxsize=None)
def get_decoded_program(name: str) -> DecodedProgram:
    """The decoded executable form of a benchmark (cached per process)."""
    return decode_module(build_program(name).module)


@lru_cache(maxsize=None)
def get_defuse_index(name: str):
    """The dynamic def-use index of a benchmark's golden run (cached).

    Built once per process from the cached experiment runner's golden trace;
    the error-space planner and the ``repro exhaustive`` mode share it.
    When a persistent artifact cache is active the columnar payload round-
    trips through it, so fresh processes (spawned workers, repeated CLI
    invocations) re-bind the stored index instead of replaying the trace.
    """
    from repro import artifacts
    from repro.errorspace.defuse import DefUseIndex, build_defuse_index

    runner = get_experiment_runner(name)
    disk = artifacts.active_cache()
    disk_key = None
    if disk is not None:
        disk_key = artifacts.defuse_key(
            disk, runner.program.module, runner.program.entry, runner.args
        )
        payload = disk.load("defuse", disk_key)
        if payload is not None:
            try:
                return DefUseIndex.from_payload(
                    runner.program, runner.golden, runner.decoded, payload
                )
            except Exception:
                pass  # corrupted artifact: rebuild below and overwrite
    index = build_defuse_index(
        runner.program, runner.golden, args=runner.args, decoded=runner.decoded
    )
    if disk is not None and disk_key is not None:
        disk.store("defuse", disk_key, index.to_payload())
    return index


@lru_cache(maxsize=None)
def get_experiment_runner(name: str, backend: str = "decoded") -> ExperimentRunner:
    """A ready-to-use experiment runner, cached per program and backend.

    The runner's warm-up also captures the workload's VM checkpoints, cached
    alongside the golden trace — under a ``fork``-based pool, workers
    inherit all of it.  ``backend`` selects the execution engine faulty runs
    use (``decoded``, ``compiled`` or ``reference``).
    """
    return ExperimentRunner(build_program(name), backend=backend)
