#!/usr/bin/env python3
"""Race the three execution backends on one workload and prove they agree.

The VM executes MiniIR through three interchangeable backends:

* ``reference`` — tree-walking interpreter, the semantic oracle;
* ``decoded``   — decode-once slot-indexed driver;
* ``compiled``  — Python source transpiled from the decoded form.

This example times each backend's golden run on a registry workload, shows
the compiled backend's generated source for a flavour of what the
transpiler emits, and runs the same seeded fault-injection experiments on
all three to demonstrate they produce identical outcomes.

Run with::

    PYTHONPATH=src python examples/backend_comparison.py [program]
"""

from __future__ import annotations

import sys
import time

from repro import INJECT_ON_READ
from repro.injection import ExperimentRunner
from repro.programs import registry
from repro.vm import (
    CompiledInterpreter,
    Interpreter,
    ReferenceInterpreter,
    compile_module,
    decode_module,
)


def time_backend(label: str, make_interpreter, seconds: float = 0.5):
    """Measure golden-run throughput of one backend (fresh VM per run)."""
    make_interpreter().run()  # warm-up
    runs = 0
    started = time.perf_counter()
    while True:
        result = make_interpreter().run()
        runs += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            break
    rate = runs / elapsed
    instr = rate * result.dynamic_instructions
    print(f"  {label:10s} {rate:8.1f} runs/s  ({instr / 1e6:5.2f}M dynamic instr/s)")
    return rate, result


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "crc32"
    program = registry.build_program(name)
    decoded = decode_module(program.module)
    compiled = compile_module(program.module)
    entry = program.entry

    print(f"workload: {name}")
    print("\ngolden-run throughput (bare, no instrumentation):")
    ref_rate, ref_result = time_backend(
        "reference", lambda: ReferenceInterpreter(program.module, entry=entry)
    )
    dec_rate, dec_result = time_backend(
        "decoded", lambda: Interpreter(decoded, entry=entry)
    )
    comp_rate, comp_result = time_backend(
        "compiled", lambda: CompiledInterpreter(compiled, entry=entry)
    )
    print(f"  decoded is {dec_rate / ref_rate:.2f}x reference, "
          f"compiled is {comp_rate / dec_rate:.2f}x decoded")

    assert ref_result.output == dec_result.output == comp_result.output
    assert ref_result.return_value == dec_result.return_value == comp_result.return_value
    print("  all three backends produced identical output and return value")

    # A taste of what the transpiler emits for the entry function.
    source = compiled.source_bare
    snippet = "\n".join(source.splitlines()[:18])
    print(f"\ngenerated source (first lines of {len(source)} chars):")
    for line in snippet.splitlines():
        print(f"  | {line}")

    # Identical fault-injection outcomes: same seeds, three backends.
    print("\nseeded injection experiments (inject-on-read, max_mbf=3):")
    runners = {
        backend: ExperimentRunner(program, backend=backend)
        for backend in ("reference", "decoded", "compiled")
    }
    for seed in (11, 42, 2017):
        outcomes = {
            backend: runner.run_seeded(
                INJECT_ON_READ, max_mbf=3, win_size=2, seed=seed
            ).outcome
            for backend, runner in runners.items()
        }
        values = set(outcome.value for outcome in outcomes.values())
        assert len(values) == 1, f"backends diverged at seed {seed}: {outcomes}"
        print(f"  seed {seed:5d}: {outcomes['compiled'].value}  (all backends agree)")


if __name__ == "__main__":
    main()
