"""One round of one workload, in a fresh process (started by ``run.py``).

    python3 perfbench/round.py --workload NAME --seed N --trace 0|1 \\
        --workdir DIR --started T --out FILE

``--started`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` and ``wall_s`` count interpreter start-up and
imports too.  The round writes its :class:`~workloads.RoundResult` as JSON to
``--out``; with ``--trace 1`` it also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import repro

    # The program must come from this checkout's sources, not an install.
    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"repro imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.start()
    run = workloads.Round(args.seed, args.workdir, args.started, tracer)
    result = workloads.WORKLOADS[args.workload](run)
    args.out.write_text(json.dumps(asdict(result)))
    if tracer is not None:
        tracer.dump(args.out.with_suffix(".spans.json"), args.started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
