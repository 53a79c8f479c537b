"""Interpreter throughput: repeated executions of one workload, per backend.

Measures runs/sec of every execution backend (``reference`` tree-walker,
``decoded`` decode-once driver, ``compiled`` transpiled Python) in three
instrumentation modes — ``bare`` (golden run), ``traced`` (golden-trace
collection) and ``hooked`` (no-op injection hooks installed) — and asserts
the decoded and compiled hot paths keep their headline speedups.  A traced
or hooked compiled run executes on the decoded interpreter, so the compiled
backend is timed bare only.  A second section measures fault-injection
experiment throughput on a *late-injection* workload (first flip in the last
quarter of the golden run, where the skippable prefix is longest): checkpoint
fast-forwarding on vs. off, and injection windowing on vs. off.
The numbers are written to ``BENCH_interpreter.json`` at the repository
root, one section per backend, so the perf trajectory is tracked across PRs
(CI prints the file on every run).

Knobs:

``REPRO_BENCH_INTERPRETER_PROGRAM``
    Workload to execute repeatedly (default ``crc32``).
``REPRO_BENCH_INTERPRETER_SECONDS``
    Measurement window per configuration (default 0.4s).
``REPRO_BENCH_MIN_SPEEDUP``
    Required decoded-vs-reference bare speedup.  The default (1.5) is a
    flake-resistant sanity floor for plain test runs on loaded machines; the
    dedicated CI perf step enforces the real 2.0 bar (measured headroom is
    ~3x).
``REPRO_BENCH_MIN_COMPILED_SPEEDUP``
    Required compiled-vs-decoded bare (golden-run) speedup.  The default
    (2.0) is the flake-resistant floor; the CI perf step enforces the real
    3.0 bar (measured headroom is ~3.2x).
``REPRO_BENCH_MIN_FF_SPEEDUP``
    Required fast-forward-vs-scratch experiment throughput speedup on the
    late-injection workload (default 1.5; CI enforces the same bar, measured
    headroom is several x).
``REPRO_BENCH_MIN_WINDOWED_SPEEDUP``
    Required campaign-throughput speedup of the compiled backend over the
    decoded one on the late-injection workload, both windowed and
    fast-forwarded (the production configuration of each backend).  Default
    1.5 as the flake-resistant floor; the CI perf step enforces the real 2.0
    bar (measured headroom is ~2.5x).
``REPRO_BENCH_MAX_SUPERVISED_OVERHEAD``
    Maximum tolerated throughput overhead of the supervised multiprocess
    engine (chunk supervisor, retry bookkeeping, heartbeat deadlines) over
    a plain ``multiprocessing.Pool.imap`` over the same chunks (the
    benchmark's own baseline), measured on an unfaulted late-injection
    error-space campaign.  Default 0.25 as the flake-resistant floor for
    loaded machines; the CI perf step enforces the real 0.05 (≤5%) bar.
``REPRO_BENCH_SUPERVISED_ERRORS`` / ``REPRO_BENCH_SUPERVISED_JOBS``
    Size knobs for the supervised-overhead campaign (defaults 384 errors,
    CPU count capped at 4).
``REPRO_BENCH_MAX_DIST_OVERHEAD``
    Maximum tolerated throughput overhead of the distributed coordinator
    path (lease dispatch over loopback sockets to two single-process
    ``repro worker`` agents) over the local supervised two-job pool on the
    same unfaulted error-space campaign.  Default 0.5 as the
    flake-resistant floor — the distributed path pays pickling, framing
    and lease bookkeeping per chunk; the CI perf step enforces the
    committed ``distributed_relative_throughput`` baseline instead.
``REPRO_BENCH_MAX_TELEMETRY_OVERHEAD``
    Maximum tolerated experiment-throughput overhead of enabled telemetry
    (metrics registry bumps on the VM segment path, per-phase span clocks)
    over a ``REPRO_TELEMETRY=0`` run of the same windowed compiled
    workload.  Default 0.10 as the flake-resistant floor for loaded
    machines; the CI perf step enforces the real 0.02 (≤2%) bar — the
    instrumentation is a single is-None check per segment when disabled
    and a handful of dict bumps per experiment when enabled.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.injection.experiment import ExperimentRunner
from repro.injection.faultmodel import FaultSpec
from repro.programs import registry
from repro.vm import (
    CompiledInterpreter,
    Interpreter,
    ReferenceInterpreter,
    TraceCollector,
    compile_module,
)

PROGRAM = os.environ.get("REPRO_BENCH_INTERPRETER_PROGRAM", "crc32")
SECONDS = float(os.environ.get("REPRO_BENCH_INTERPRETER_SECONDS", "0.4"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.5"))
MIN_COMPILED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_COMPILED_SPEEDUP", "2.0"))
MIN_FF_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_FF_SPEEDUP", "1.5"))
MIN_WINDOWED_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_WINDOWED_SPEEDUP", "1.5")
)
MAX_SUPERVISED_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_SUPERVISED_OVERHEAD", "0.25")
)
SUPERVISED_ERRORS = int(os.environ.get("REPRO_BENCH_SUPERVISED_ERRORS", "384"))
SUPERVISED_JOBS = int(
    os.environ.get("REPRO_BENCH_SUPERVISED_JOBS", str(min(os.cpu_count() or 1, 4)))
)
MAX_TELEMETRY_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_TELEMETRY_OVERHEAD", "0.10")
)
MAX_DIST_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_DIST_OVERHEAD", "0.5"))
#: Alternating local/distributed pass pairs of the distributed-overhead gate.
DIST_PAIRS = 5

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_interpreter.json"

MODES = ("bare", "traced", "hooked")
#: Modes timed per backend: a traced or hooked compiled run executes on the
#: decoded interpreter, so only the compiled ``bare`` cell times generated
#: code.
BACKEND_MODES = {"reference": MODES, "decoded": MODES, "compiled": ("bare",)}


def _measure_once(make_interpreter, min_seconds: float) -> float:
    runs = 0
    started = time.perf_counter()
    while True:
        make_interpreter().run()
        runs += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return runs / elapsed


def _runs_per_second(make_interpreter, min_seconds: float = SECONDS) -> float:
    make_interpreter().run()  # warm-up (and correctness sanity) run
    # Best of two windows: a load spike during one window cannot sink the
    # measured rate (the speedup assertion runs on shared CI machines).
    return max(
        _measure_once(make_interpreter, min_seconds),
        _measure_once(make_interpreter, min_seconds),
    )


def _noop_read_hook(dynamic_index, instruction, slot, register, value):
    return value


def _noop_write_hook(dynamic_index, instruction, register, value):
    return value


def _mode_kwargs(mode: str) -> dict:
    if mode == "traced":
        return {"trace_collector": TraceCollector()}
    if mode == "hooked":
        return {"read_hook": _noop_read_hook, "write_hook": _noop_write_hook}
    return {}


def _late_injection_specs(runner: ExperimentRunner, count: int = 16):
    """Inject-on-write specs whose first flip lies in the last golden quarter."""
    golden = runner.golden
    threshold = golden.dynamic_instruction_count * 3 // 4
    late = [
        record
        for record in golden.records_with_destination()
        if record.dynamic_index >= threshold
    ]
    stride = max(1, len(late) // count)
    return [
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=record.dynamic_index,
            first_slot=None,
            max_mbf=1,
            win_size=0,
            seed=seed,
        )
        for seed, record in enumerate(late[::stride][:count])
    ]


def _experiment_rates(runners, specs, min_seconds: float = SECONDS) -> dict:
    """Experiments/s of each named runner, measured in alternating windows.

    Each runner gets four windows of ``min_seconds / 2`` in rounds whose
    order flips every round, and keeps its best window.  A load swing then
    hits the runners alike instead of sinking whichever one it overlapped,
    so the ratios between them hold on a shared machine.
    """
    for runner in runners.values():
        runner.run_spec(specs[0])  # warm-up (builds checkpoints / interpreter)
    rates = dict.fromkeys(runners, 0.0)
    labels = list(runners)
    for round_index in range(4):
        for label in labels if round_index % 2 == 0 else labels[::-1]:
            cycle = itertools.cycle(specs)
            runs = 0
            started = time.perf_counter()
            while True:
                runners[label].run_spec(next(cycle))
                runs += 1
                elapsed = time.perf_counter() - started
                if elapsed >= min_seconds / 2:
                    break
            rates[label] = max(rates[label], runs / elapsed)
    return rates


def test_interpreter_throughput():
    program = registry.build_program(PROGRAM)
    decoded = registry.get_decoded_program(PROGRAM)
    compiled = compile_module(program.module)
    entry = program.entry

    def make_interpreter(backend: str, mode: str):
        kwargs = _mode_kwargs(mode)
        if backend == "reference":
            return ReferenceInterpreter(program.module, entry=entry, **kwargs)
        if backend == "decoded":
            return Interpreter(decoded, entry=entry, **kwargs)
        return CompiledInterpreter(compiled, entry=entry, **kwargs)

    backends = {
        backend: {
            mode: _runs_per_second(
                lambda backend=backend, mode=mode: make_interpreter(backend, mode)
            )
            for mode in modes
        }
        for backend, modes in BACKEND_MODES.items()
    }
    speedup = backends["decoded"]["bare"] / backends["reference"]["bare"]
    compiled_speedup = backends["compiled"]["bare"] / backends["decoded"]["bare"]

    # Fault-injection experiment throughput on a late-injection workload.
    # ``fast_forward`` is the decoded backend's production configuration:
    # fast-forwarded and windowed (bare sprint → hooked window → bare tail).
    # Each other runner changes one thing: ``from_scratch`` replays the
    # golden prefix (``speedup_fast_forward``), ``windowed`` runs on the
    # compiled backend (``speedup_windowed``, the backend win) and
    # ``always_hooked`` arms the hooks from the restored checkpoint to the
    # end on the same decoded interpreter (``speedup_windowed_vs_hooked``, the
    # windowing win).
    ff_runner = ExperimentRunner(program, fast_forward=True)
    golden = ff_runner.golden
    late_specs = _late_injection_specs(ff_runner)
    checkpoints = ff_runner._checkpoint_store()
    experiment_rates = _experiment_rates(
        {
            "fast_forward": ff_runner,
            "from_scratch": ExperimentRunner(program, golden=golden, fast_forward=False),
            "windowed": ExperimentRunner(
                program, golden=golden, backend="compiled", windowed=True
            ),
            "always_hooked": ExperimentRunner(program, golden=golden, windowed=False),
        },
        late_specs,
    )
    ff_speedup = experiment_rates["fast_forward"] / experiment_rates["from_scratch"]
    windowed_speedup = experiment_rates["windowed"] / experiment_rates["fast_forward"]
    windowed_vs_hooked = experiment_rates["fast_forward"] / experiment_rates["always_hooked"]

    golden_length = registry.get_experiment_runner(PROGRAM).golden.dynamic_instruction_count
    payload = {
        "program": PROGRAM,
        "golden_dynamic_instructions": golden_length,
        "backends": {
            backend: {
                mode: {
                    "runs_per_second": round(rate, 2),
                    "dynamic_instructions_per_second": round(rate * golden_length),
                }
                for mode, rate in modes.items()
            }
            for backend, modes in backends.items()
        },
        "speedup_decoded_vs_reference": round(speedup, 2),
        "speedup_compiled_vs_decoded": round(compiled_speedup, 2),
        "late_injection_experiments_per_second": {
            key: round(rate, 2) for key, rate in experiment_rates.items()
        },
        "speedup_fast_forward": round(ff_speedup, 2),
        "speedup_windowed": round(windowed_speedup, 2),
        "speedup_windowed_vs_hooked": round(windowed_vs_hooked, 2),
        "checkpoints": {
            "count": len(checkpoints),
            "interval_ticks": checkpoints.interval,
        },
        "measurement_seconds_per_config": SECONDS,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"decoded interpreter is only {speedup:.2f}x the reference "
        f"({backends['decoded']['bare']:.1f} vs "
        f"{backends['reference']['bare']:.1f} runs/s); "
        f"expected at least {MIN_SPEEDUP}x"
    )
    assert compiled_speedup >= MIN_COMPILED_SPEEDUP, (
        f"compiled backend is only {compiled_speedup:.2f}x the decoded "
        f"golden run ({backends['compiled']['bare']:.1f} vs "
        f"{backends['decoded']['bare']:.1f} runs/s); "
        f"expected at least {MIN_COMPILED_SPEEDUP}x"
    )
    assert ff_speedup >= MIN_FF_SPEEDUP, (
        f"fast-forward is only {ff_speedup:.2f}x from-scratch execution "
        f"({experiment_rates['fast_forward']:.1f} vs "
        f"{experiment_rates['from_scratch']:.1f} experiments/s on the "
        f"late-injection workload); expected at least {MIN_FF_SPEEDUP}x"
    )
    assert windowed_speedup >= MIN_WINDOWED_SPEEDUP, (
        f"windowed compiled execution is only {windowed_speedup:.2f}x the "
        f"windowed decoded campaign baseline "
        f"({experiment_rates['windowed']:.1f} vs "
        f"{experiment_rates['fast_forward']:.1f} experiments/s on the "
        f"late-injection workload); expected at least {MIN_WINDOWED_SPEEDUP}x"
    )
    assert windowed_vs_hooked > 1.0, (
        f"windowed execution is not faster than always-hooked on the same "
        f"(decoded) backend: {experiment_rates['fast_forward']:.1f} vs "
        f"{experiment_rates['always_hooked']:.1f} experiments/s"
    )


def _late_injection_errors(runner: ExperimentRunner, count: int):
    """Deterministic ``(dynamic_index, slot, bit)`` errors, late golden quarter."""
    golden = runner.golden
    threshold = golden.dynamic_instruction_count * 3 // 4
    late = [
        record
        for record in golden.records_with_destination()
        if record.dynamic_index >= threshold
    ]
    errors = []
    while len(errors) < count:
        record = late[(len(errors) * 7919) % len(late)]
        errors.append((record.dynamic_index, None, len(errors) % 32))
    return errors


_PLAIN_POOL_RUNNER = None


def _plain_pool_init(program: str) -> None:
    global _PLAIN_POOL_RUNNER
    from repro.campaign.engine import registry_provider

    _PLAIN_POOL_RUNNER = registry_provider(program)


def _plain_pool_batch(task):
    from repro.campaign.engine import run_error_batch

    technique, errors = task
    return [outcome.value for outcome in run_error_batch(_PLAIN_POOL_RUNNER, technique, errors)]


def _plain_pool_run_errors(technique: str, errors, jobs: int):
    """The unsupervised baseline: a blind ``multiprocessing.Pool.imap``.

    Same tick-sorted chunk grid and start method as the supervised
    engine's ``run_errors``, with none of its crash recovery, deadlines,
    ledger or telemetry.
    """
    import multiprocessing

    from repro.injection.outcome import Outcome

    order = sorted(range(len(errors)), key=lambda j: errors[j][0])
    chunk = max(32, min(512, -(-len(errors) // (jobs * 4))))
    tasks = [
        (technique, [errors[j] for j in order[start : start + chunk]])
        for start in range(0, len(errors), chunk)
    ]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    outcomes = [None] * len(errors)
    with context.Pool(
        processes=min(jobs, len(tasks)), initializer=_plain_pool_init, initargs=(PROGRAM,)
    ) as pool:
        for index, values in enumerate(pool.imap(_plain_pool_batch, tasks)):
            for position, value in zip(order[index * chunk :], values):
                outcomes[position] = Outcome(value)
    return outcomes


def test_supervised_engine_overhead():
    """Supervised dispatch must stay within a few percent of a plain pool.

    Runs the same unfaulted late-injection error-space campaign through the
    supervised multiprocess engine and through a plain
    ``multiprocessing.Pool.imap`` over the same chunk grid
    (:func:`_plain_pool_run_errors`), end to end including worker start-up,
    and records the throughput ratio in ``BENCH_interpreter.json`` so the
    supervision tax is tracked across PRs.
    """
    from repro.campaign.engine import MultiprocessEngine, registry_provider

    runner = registry_provider(PROGRAM)  # compile + profile before forking
    errors = _late_injection_errors(runner, SUPERVISED_ERRORS)

    def errors_per_second(run_errors) -> "tuple[float, list]":
        best = 0.0
        outcomes = None
        for _ in range(2):  # best of two: load spikes cannot sink the ratio
            started = time.perf_counter()
            outcomes = run_errors()
            elapsed = time.perf_counter() - started
            best = max(best, len(errors) / elapsed)
        return best, outcomes

    engine = MultiprocessEngine(jobs=SUPERVISED_JOBS)
    supervised_rate, supervised_outcomes = errors_per_second(
        lambda: engine.run_errors(
            PROGRAM, "inject-on-write", errors, provider=registry_provider
        )
    )
    plain_rate, plain_outcomes = errors_per_second(
        lambda: _plain_pool_run_errors("inject-on-write", errors, SUPERVISED_JOBS)
    )
    assert supervised_outcomes == plain_outcomes  # same campaign, same bytes

    relative = supervised_rate / plain_rate
    try:
        payload = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        payload = {"program": PROGRAM}
    payload["supervised_engine_relative_throughput"] = round(relative, 2)
    payload["supervised_engine_errors_per_second"] = {
        "supervised": round(supervised_rate, 1),
        "plain_pool": round(plain_rate, 1),
        "errors": len(errors),
        "jobs": SUPERVISED_JOBS,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert relative >= 1.0 - MAX_SUPERVISED_OVERHEAD, (
        f"supervised engine reaches only {relative:.2f}x the plain pool "
        f"({supervised_rate:.1f} vs {plain_rate:.1f} errors/s on the "
        f"late-injection campaign); tolerated overhead is "
        f"{MAX_SUPERVISED_OVERHEAD:.0%}"
    )


def test_distributed_engine_overhead():
    """Distributed dispatch over loopback must stay near the local pool.

    Runs the same unfaulted late-injection error-space campaign through the
    local supervised two-job engine and through a loopback coordinator
    serving two single-process ``repro worker`` subprocess agents, asserts
    the outcomes are identical, and records the throughput ratio as
    ``distributed_relative_throughput`` in ``BENCH_interpreter.json`` so
    the lease/framing tax is tracked across PRs.  The two sides alternate
    over :data:`DIST_PAIRS` pairs of passes (swapping which side goes first
    each pair) and the gate reads the median per-pair ratio: a load swing
    that lasts a whole pass moves one pair, not the median.
    """
    from repro.campaign.engine import MultiprocessEngine, registry_provider
    from repro.dist import CoordinatorTransport

    runner = registry_provider(PROGRAM)  # compile + profile before dispatch
    errors = _late_injection_errors(runner, SUPERVISED_ERRORS)

    def timed_pass(engine: MultiprocessEngine) -> "tuple[float, list]":
        started = time.perf_counter()
        outcomes = engine.run_errors(
            PROGRAM, "inject-on-write", errors, provider=registry_provider
        )
        return len(errors) / (time.perf_counter() - started), outcomes

    local = MultiprocessEngine(jobs=2)
    transport = CoordinatorTransport("127.0.0.1", 0)
    distributed = MultiprocessEngine(jobs=2, transport=transport)
    host, port = transport.address
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", f"{host}:{port}"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]
    rates = {"local": [], "distributed": []}
    outcomes = []
    try:
        deadline = time.monotonic() + 60.0
        while len(transport.connected_hosts) < 2:
            assert time.monotonic() < deadline, "worker agents never attached"
            time.sleep(0.05)
        engines = (("local", local), ("distributed", distributed))
        for pair in range(DIST_PAIRS):
            for side, engine in engines if pair % 2 == 0 else engines[::-1]:
                rate, result = timed_pass(engine)
                rates[side].append(rate)
                outcomes.append(result)
    finally:
        distributed.close()
        local.close()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    # Same campaign, same bytes, on every pass of either side.
    assert all(result == outcomes[0] for result in outcomes)

    relative = statistics.median(
        [remote / near for remote, near in zip(rates["distributed"], rates["local"])]
    )
    dist_rate = statistics.median(rates["distributed"])
    local_rate = statistics.median(rates["local"])
    try:
        payload = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        payload = {"program": PROGRAM}
    payload["distributed_relative_throughput"] = round(relative, 2)
    payload["distributed_errors_per_second"] = {
        "distributed": round(dist_rate, 1),
        "local_pool": round(local_rate, 1),
        "errors": len(errors),
        "hosts": 2,
        "pairs": DIST_PAIRS,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert relative >= 1.0 - MAX_DIST_OVERHEAD, (
        f"distributed dispatch reaches only {relative:.2f}x the local pool "
        f"(median of {DIST_PAIRS} alternating pairs; medians {dist_rate:.1f} "
        f"vs {local_rate:.1f} errors/s on the late-injection campaign); "
        f"tolerated overhead is {MAX_DIST_OVERHEAD:.0%}"
    )


def test_telemetry_overhead():
    """Enabled telemetry must not tax the experiment hot path.

    Measures the windowed compiled late-injection workload (the fastest
    production configuration, where any per-segment bookkeeping is most
    visible) with the metrics registry enabled and disabled, and records
    the on/off throughput ratio in ``BENCH_interpreter.json``.  The runner
    is rebuilt after each toggle so its ``PhaseClock`` and the VM's module
    counters re-bind to the new state, exactly as a fresh process would.
    """
    from repro.telemetry import metrics as telemetry_metrics
    from repro.vm import interpreter as interpreter_module

    program = registry.build_program(PROGRAM)
    golden = ExperimentRunner(program).golden  # shared profile for both modes
    previous = telemetry_metrics.enabled()
    modes = (("disabled", False), ("enabled", True))
    runners = {}
    rates = {label: 0.0 for label, _ in modes}
    specs = None

    def batch_rate(runner, repeats: int) -> float:
        started = time.perf_counter()
        for _ in range(repeats):
            for spec in specs:
                runner.run_spec(spec)
        return (repeats * len(specs)) / (time.perf_counter() - started)

    try:
        for label, flag in modes:
            telemetry_metrics.set_enabled(flag)
            interpreter_module.refresh_vm_counters()
            runners[label] = ExperimentRunner(
                program, golden=golden, backend="compiled", windowed=True
            )
            specs = specs or _late_injection_specs(runners[label])
            for spec in specs:  # warm-up: checkpoints, codegen, allocator
                runners[label].run_spec(spec)
        # Size batches to ~50ms each, then alternate the two modes over many
        # short rounds (flipping which goes first each round) keeping each
        # mode's best batch: load spikes and drift hit both sides equally
        # instead of masquerading as instrumentation overhead, and the
        # best-of filter discards them entirely.  GC stays off during the
        # measured batches so collection pauses don't land on one side.
        probe = batch_rate(runners["disabled"], 1)
        repeats = max(1, int(probe * 0.05 / len(specs)))
        rounds = max(10, int(4.0 * SECONDS / 0.05))
        gc.disable()
        try:
            for round_index in range(rounds):
                ordered = modes if round_index % 2 == 0 else tuple(reversed(modes))
                for label, flag in ordered:
                    telemetry_metrics.set_enabled(flag)
                    interpreter_module.refresh_vm_counters()
                    rates[label] = max(
                        rates[label], batch_rate(runners[label], repeats)
                    )
        finally:
            gc.enable()
    finally:
        telemetry_metrics.set_enabled(previous)
        interpreter_module.refresh_vm_counters()

    relative = rates["enabled"] / rates["disabled"]
    try:
        payload = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        payload = {"program": PROGRAM}
    payload["telemetry_relative_throughput"] = round(relative, 2)
    payload["telemetry_experiments_per_second"] = {
        label: round(rate, 1) for label, rate in rates.items()
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert relative >= 1.0 - MAX_TELEMETRY_OVERHEAD, (
        f"telemetry-enabled throughput is only {relative:.2f}x the disabled "
        f"run ({rates['enabled']:.1f} vs {rates['disabled']:.1f} "
        f"experiments/s on the windowed compiled workload); tolerated "
        f"overhead is {MAX_TELEMETRY_OVERHEAD:.0%}"
    )
