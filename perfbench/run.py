"""End-to-end benchmark of the fault-injection pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each in a fresh process with an empty
artifact cache, as long as another round still fits in ``--seconds`` (at
least one round), checks the program's outputs after each round's timed
section, and prints as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every round of a run does the
same work.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each round is a pair — an untraced round and a traced round of
the same seed — and the metrics are the per-layer ones plus the tracing
overhead.  Each metric is the median over the rounds (or pairs).
Workloads, metrics and bounds are described in ``BENCHMARK.json`` and
``perfbench/README.md``.

Exits non-zero without printing a result when a round fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space and kept traces, inside the checkout (see .gitignore).
OUTPUT = ROOT / ".perfbench"
#: A run must end within 180 s; stop starting rounds well before that.
DEADLINE_SECONDS = 170.0


def metric_units(spec: dict, section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def child_environment(workdir: Path) -> dict:
    """The round's environment: this checkout's sources, program defaults."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in ("PYTHONPATH", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def end_process_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a round's process group and wait for it."""
    # Pool workers share the round's process group: end every one.
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(100):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_round(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    """Run one round in a fresh process group; the parsed round result."""
    workdir = OUTPUT / "work" / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    out = workdir / "round.json"
    command = [
        sys.executable,
        str(HERE / "round.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    started = time.monotonic()
    process = subprocess.Popen(
        command + ["--started", repr(started)],
        cwd=ROOT,
        env=child_environment(workdir),
        start_new_session=True,
        stdout=subprocess.DEVNULL,
    )
    try:
        try:
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            end_process_group(process)
        if code != 0:
            reason = "timed out" if code is None else f"exited with {code}"
            raise SystemExit(f"perfbench: {workload} round (seed {seed}) {reason}")
        result = json.loads(out.read_text())
        if trace:
            traces = OUTPUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(out.with_suffix(".spans.json"), traces / f"{workload}-seed{seed}.json")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def median_metrics(values: list, units: dict) -> dict:
    return {
        name: {"value": statistics.median(v[name] for v in values), "unit": unit}
        for name, unit in units.items()
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}")
    # A terminated run still ends the round it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.monotonic()
    deadline = start + DEADLINE_SECONDS
    rounds = []
    pairs = []
    longest = 0.0
    # Start another round only while the longest one so far still fits.
    while not rounds or time.monotonic() - start + longest <= args.seconds:
        index = len(rounds)
        began = time.monotonic()
        if args.trace:
            plain = run_round(args.workload, args.seed, False, index, deadline)
            traced = run_round(args.workload, args.seed, True, index + 1, deadline)
            rounds += [plain, traced]
            pairs.append((plain, traced))
        else:
            rounds.append(run_round(args.workload, args.seed, False, index, deadline))
        longest = max(longest, time.monotonic() - began)
    problems = []
    for index, result in enumerate(rounds):
        # Work counts repeat exactly for a seed; the plan's for every seed.
        wall_s = result["metrics"]["wall_s"]
        print(f"round {index} seed {args.seed} wall_s {wall_s:.3f} counts {json.dumps(result['counts'])}")
        problems += result["problems"]
        if result["counts"] != rounds[0]["counts"]:
            problems.append(f"round {index} counts differ from round 0's")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        layers = []
        for plain, traced in pairs:
            values = dict(traced["layers"])
            values["trace_overhead_s"] = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
            layers.append(values)
        metrics = median_metrics(layers, metric_units(spec, "per_layer"))
    else:
        metrics = median_metrics([r["metrics"] for r in rounds], metric_units(spec, "end_to_end"))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
