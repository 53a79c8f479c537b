"""Command-line interface: regenerate paper artefacts from a terminal.

Usage (after ``pip install -e .``, or via ``python -m repro``)::

    python -m repro list-programs
    python -m repro table 2
    python -m repro figure 1 --programs crc32,dijkstra --experiments 100
    python -m repro figure 1 --jobs 4 --experiments 2000
    python -m repro figure 5 --programs basicmath,crc32 --max-mbf 2,3,30
    python -m repro table 4 --programs crc32 --experiments 80 --cache results.json
    python -m repro candidates crc32
    python -m repro exhaustive crc32 --prune --validate 0.01 --jobs 4
    python -m repro report --last --cache-dir artifacts/

Every command prints the same text tables the benchmark harness produces.
Campaign results can be cached to a JSON file with ``--cache`` so repeated
invocations only run what is missing.  ``--jobs N`` fans experiments out to a
worker pool (results are bit-identical to a serial run of the same seed), and
``--checkpoint`` persists the store mid-sweep so interrupted runs resume.
On the decoded and compiled backends every faulty run fast-forwards over
its fault-free prefix by restoring a VM checkpoint, and arms its injection
hooks only inside the fault window (results are bit-identical to a
from-scratch, always-hooked run).
``--cache-dir DIR`` activates the persistent artifact cache (golden traces,
checkpoints, def-use indices, pruned plans), so repeated invocations and
worker pools pay planning cost once per host; it defaults to
``<cache>.artifacts`` when ``--cache`` is given.

Campaign execution is fault tolerant: crashed or hung workers are restarted
and their chunks retried (``--max-retries``, ``--chunk-timeout``); chunks
that keep crashing are bisected to the offending experiment, which is
quarantined with the ``crashed`` outcome (``--no-quarantine`` aborts
instead).  With an artifact cache active, completed chunks are journalled to
a durable ledger, and a run killed mid-way can be restarted with
``--resume`` to execute only the missing chunks — the assembled results are
byte-identical to an uninterrupted run.  Ctrl-C finishes in-flight chunks,
flushes the ledger and prints resume instructions (a second Ctrl-C aborts).

With an artifact cache active every run also appends a structured JSONL
event log under ``<cache-dir>/runlog/``; ``repro report <key|--last>``
renders it after the fact (phase breakdown, throughput timeline, retry and
quarantine tallies, cache efficiency), and ``--metrics-out FILE`` writes the
run's metrics in Prometheus text format.  Output verbosity: ``--quiet``
keeps only result lines, ``-v`` adds diagnostics; color respects
``NO_COLOR``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.campaign import EngineProgress, ExperimentScale, SMOKE_SCALE
from repro.experiments import (
    ExperimentSession,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
)
from repro.injection.faultmodel import MAX_MBF_VALUES, win_size_by_index
from repro.programs.registry import all_program_names, get_program
from repro.telemetry.console import ConsoleReporter

_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}


def _parse_programs(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    names = [name.strip() for name in text.split(",") if name.strip()]
    for name in names:
        get_program(name)  # raises ConfigurationError on typos
    return names


def _parse_max_mbf(text: Optional[str]) -> Sequence[int]:
    if not text:
        return MAX_MBF_VALUES
    return tuple(int(part) for part in text.split(","))


def _parse_win_sizes(text: Optional[str]):
    if not text:
        return None
    return [win_size_by_index(index.strip()) for index in text.split(",")]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_session(args: argparse.Namespace) -> ExperimentSession:
    """The session of every campaign-running command, from its parsed flags.

    ``exhaustive`` has no ``--experiments``, ``--checkpoint`` or
    ``--backend``; its sessions never run sampled campaigns, so the scale
    is moot there.
    """
    experiments = getattr(args, "experiments", None)
    return ExperimentSession(
        scale=(
            ExperimentScale("cli", experiments_per_campaign=experiments)
            if experiments is not None
            else SMOKE_SCALE
        ),
        cache_path=args.cache,
        cache_dir=getattr(args, "cache_dir", None),
        checkpoint_path=getattr(args, "checkpoint", None),
        jobs=args.jobs,
        backend=getattr(args, "backend", "decoded"),
        progress=_progress(_reporter(args)),
        experiment_progress=_experiment_progress(_reporter(args)),
        max_retries=getattr(args, "max_retries", 3),
        chunk_timeout=getattr(args, "chunk_timeout", None),
        quarantine=not getattr(args, "no_quarantine", False),
        resume=getattr(args, "resume", False),
        hosts=getattr(args, "hosts", 0),
        dist_bind=getattr(args, "dist_bind", "127.0.0.1"),
        dist_port=getattr(args, "dist_port", 0),
    )


def _announce_coordinator(session: ExperimentSession, reporter: ConsoleReporter) -> None:
    """Tell the operator where worker agents should dial in."""
    address = session.coordinator_address
    if address is not None:
        host, port = address
        reporter.note(
            f"  coordinator listening on {host}:{port} — attach worker hosts "
            f"with: repro worker {host}:{port}"
        )


def _reporter(args: argparse.Namespace) -> ConsoleReporter:
    return ConsoleReporter.from_flags(
        quiet=getattr(args, "quiet", False),
        verbose=getattr(args, "verbose", False),
    )


def _progress(reporter: ConsoleReporter):
    if reporter.verbosity == 0:
        return None

    def report(message: str) -> None:
        reporter.note(f"  running {message}")

    return report


def _experiment_progress(reporter: ConsoleReporter):
    """Within-campaign progress line with throughput and ETA (stderr)."""
    if reporter.verbosity == 0:
        return None

    def report(progress: EngineProgress) -> None:
        eta = progress.eta_seconds
        eta_text = f"{eta:.0f}s" if eta is not None else "?"
        line = (
            f"    {progress.done}/{progress.total} experiments "
            f"({100.0 * progress.fraction:3.0f}%, "
            f"{progress.experiments_per_second:.0f}/s, ETA {eta_text})"
        )
        # A carriage-return ticker needs the raw stream; the reporter only
        # decides *whether* it is shown, never reformats it.
        end = "\n" if progress.done >= progress.total else "\r"
        print(line, end=end, file=reporter.err, flush=True)

    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables and figures of 'One Bit is (Not) Enough' (DSN 2017).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-programs", help="list the 15 benchmark programs")

    def add_resilience_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted run from its chunk ledger, executing "
            "only the missing chunks (needs the same --cache/--cache-dir as "
            "the interrupted invocation; results are byte-identical to an "
            "uninterrupted run)",
        )
        sub.add_argument(
            "--max-retries",
            type=int,
            default=3,
            metavar="N",
            help="attempts per chunk before it is bisected down to the "
            "offending experiment (default 3)",
        )
        sub.add_argument(
            "--chunk-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="kill a worker whose chunk exceeds this many seconds "
            "(default: deadlines derived from observed chunk throughput)",
        )
        sub.add_argument(
            "--no-quarantine",
            action="store_true",
            help="abort the run when an experiment keeps crashing workers "
            "instead of quarantining it with the 'crashed' outcome",
        )

    def add_dist_options(
        sub: argparse.ArgumentParser, *, hosts_default: int = 0
    ) -> None:
        sub.add_argument(
            "--hosts",
            type=int,
            default=hosts_default,
            metavar="N",
            help="act as a distributed coordinator sized for N worker hosts: "
            "open a lease-dispatch socket and hand chunks to connecting "
            "'repro worker' agents instead of a local pool (0 = local "
            "execution; results are byte-identical either way)"
            + (" (default 1)" if hosts_default else ""),
        )
        sub.add_argument(
            "--dist-bind",
            default="127.0.0.1",
            metavar="ADDR",
            help="address the coordinator listens on (default 127.0.0.1; the "
            "protocol trusts its peers — bind non-loopback addresses on "
            "trusted networks only)",
        )
        sub.add_argument(
            "--dist-port",
            type=int,
            default=0,
            metavar="PORT",
            help="coordinator port (default 0 = pick an ephemeral port and "
            "print it)",
        )

    def add_output_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--quiet", action="store_true", help="suppress per-campaign progress"
        )
        sub.add_argument(
            "-v",
            "--verbose",
            action="store_true",
            help="print extra diagnostics (run-log locations, cache paths)",
        )
        sub.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write this run's metrics in Prometheus text format to FILE",
        )

    def add_campaign_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--programs", help="comma-separated program names (default: all 15)")
        sub.add_argument(
            "--experiments", type=int, default=100, help="experiments per campaign (default 100)"
        )
        sub.add_argument("--max-mbf", help="comma-separated max-MBF values (default: Table I)")
        sub.add_argument(
            "--win-sizes", help="comma-separated win-size indices, e.g. w2,w7 (default: Table I)"
        )
        sub.add_argument("--cache", help="JSON file to cache campaign results across runs")
        sub.add_argument(
            "--cache-dir",
            help="directory for the persistent artifact cache (golden traces, "
            "checkpoints, def-use indices, pruned plans); defaults to "
            "<--cache>.artifacts when --cache is given, else off",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for campaign execution (default 1 = serial; "
            "results are identical to a serial run for the same seed)",
        )
        sub.add_argument(
            "--checkpoint",
            help="JSON file to checkpoint the result store to after every "
            "completed campaign; interrupted sweeps resume from it "
            "(defaults to --cache when given)",
        )
        sub.add_argument(
            "--backend",
            default="decoded",
            choices=("decoded", "compiled", "reference"),
            help="execution backend for experiment runs: 'decoded' (default), "
            "'compiled' (transpiled Python, fastest) or 'reference' (IR "
            "tree-walker oracle); results are bit-identical across all three",
        )
        add_output_options(sub)
        add_resilience_options(sub)
        add_dist_options(sub)

    figure_parser = subparsers.add_parser("figure", help="regenerate a figure (1-5)")
    figure_parser.add_argument("number", type=int, choices=sorted(_FIGURES))
    add_campaign_options(figure_parser)

    table_parser = subparsers.add_parser("table", help="regenerate a table (1-4)")
    table_parser.add_argument("number", type=int, choices=(1, 2, 3, 4))
    add_campaign_options(table_parser)

    # "coordinate" is "campaign" with the distributed coordinator on by
    # default: the same workload surface, dispatched to worker hosts.
    campaign_variants = [
        (
            "campaign",
            "run one fault-injection campaign and print outcome counts "
            "(plus artifact-cache status when --cache-dir is active)",
            0,
        ),
        (
            "coordinate",
            "run one campaign as a distributed coordinator: listen for "
            "'repro worker' agents and dispatch chunks to them under "
            "expiring leases (byte-identical to a local run)",
            1,
        ),
    ]
    for variant_name, variant_help, hosts_default in campaign_variants:
        campaign_parser = subparsers.add_parser(variant_name, help=variant_help)
        campaign_parser.add_argument("program", help="benchmark program name")
        campaign_parser.add_argument(
            "--technique",
            default="inject-on-read",
            choices=("inject-on-read", "inject-on-write"),
            help="injection technique (default inject-on-read)",
        )
        campaign_parser.add_argument(
            "--max-mbf",
            type=_positive_int,
            default=1,
            help="maximum multi-bit-flip count per experiment (default 1)",
        )
        campaign_parser.add_argument(
            "--win-size",
            default="w1",
            help="win-size index from Table I, e.g. w4 (default w1 = no window)",
        )
        campaign_parser.add_argument(
            "--experiments", type=_positive_int, default=50,
            help="experiments to run (default 50)",
        )
        campaign_parser.add_argument(
            "--cache", help="JSON file to cache campaign results across runs"
        )
        campaign_parser.add_argument(
            "--cache-dir",
            help="directory for the persistent artifact cache (golden traces, "
            "checkpoints, generated backend source); defaults to "
            "<--cache>.artifacts when --cache is given, else off",
        )
        campaign_parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (default 1 = serial)",
        )
        campaign_parser.add_argument(
            "--checkpoint", default=None, help=argparse.SUPPRESS
        )
        campaign_parser.add_argument(
            "--backend",
            default="decoded",
            choices=("decoded", "compiled", "reference"),
            help="execution backend for experiment runs (default decoded); "
            "results are bit-identical across all three",
        )
        add_output_options(campaign_parser)
        add_resilience_options(campaign_parser)
        add_dist_options(campaign_parser, hosts_default=hosts_default)

    worker_parser = subparsers.add_parser(
        "worker",
        help="serve a coordinator as a worker host: pull chunk leases, "
        "execute them on a local pool warmed from --cache-dir, stream "
        "results back (reconnects with backoff; exits when stood down)",
    )
    worker_parser.add_argument(
        "address",
        help="coordinator address as HOST:PORT (printed by the coordinator)",
    )
    worker_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="local worker processes per lease batch (default 1 = in-process)",
    )
    worker_parser.add_argument(
        "--cache-dir",
        help="this host's persistent artifact cache; leased work warms "
        "golden traces, checkpoints and generated source from here",
    )
    worker_parser.add_argument(
        "--name",
        help="host label in coordinator telemetry (default hostname:pid)",
    )
    worker_parser.add_argument(
        "--reconnect-attempts",
        type=int,
        default=20,
        metavar="N",
        help="consecutive failed dials before giving up (default 20; "
        "backoff is exponential, capped at 5s)",
    )
    worker_parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="local retry attempts per chunk before reporting failure to "
        "the coordinator (default 1; the coordinator then re-issues)",
    )

    candidates_parser = subparsers.add_parser(
        "candidates",
        help="per-technique candidate and single-bit error-space counts of a program",
    )
    candidates_parser.add_argument(
        "program", help="benchmark program name, or 'all' for every program"
    )

    exhaustive_parser = subparsers.add_parser(
        "exhaustive",
        help="run the full single-bit error space of a program "
        "(def-use pruned by default)",
    )
    exhaustive_parser.add_argument("program", help="benchmark program name")
    exhaustive_parser.add_argument(
        "--technique",
        default="inject-on-read",
        choices=("inject-on-read", "inject-on-write"),
        help="injection technique (default inject-on-read)",
    )
    prune_group = exhaustive_parser.add_mutually_exclusive_group()
    prune_group.add_argument(
        "--prune",
        dest="prune",
        action="store_true",
        default=True,
        help="execute one representative per def-use equivalence class and "
        "infer the rest (default)",
    )
    prune_group.add_argument(
        "--no-prune",
        dest="prune",
        action="store_false",
        help="execute every single-bit error of the space",
    )
    exhaustive_parser.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="run only a weighted sample of N representatives "
        "(implies --prune)",
    )
    exhaustive_parser.add_argument(
        "--validate",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="re-run this fraction of non-representative class members and "
        "report the misprediction rate (pruned mode only)",
    )
    exhaustive_parser.add_argument(
        "--seed", type=int, default=2017, help="seed for budgeted/validation sampling"
    )
    exhaustive_parser.add_argument(
        "--cache", help="JSON file to cache campaign results across runs"
    )
    exhaustive_parser.add_argument(
        "--cache-dir",
        help="directory for the persistent artifact cache (golden traces, "
        "checkpoints, def-use indices, pruned plans); defaults to "
        "<--cache>.artifacts when --cache is given, else off",
    )
    exhaustive_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for campaign execution (default 1 = serial; "
        "results are identical to a serial run for the same seed)",
    )
    add_output_options(exhaustive_parser)
    add_resilience_options(exhaustive_parser)
    add_dist_options(exhaustive_parser)

    report_parser = subparsers.add_parser(
        "report",
        help="render the telemetry of a recorded run (phases, throughput "
        "timeline, supervision and cache stats) from its JSONL event log",
    )
    report_parser.add_argument(
        "key",
        nargs="?",
        help="run key of the event log to render (a unique prefix is enough); "
        "omit with --last",
    )
    report_parser.add_argument(
        "--last",
        action="store_true",
        help="render the most recently written run log",
    )
    report_parser.add_argument(
        "--cache",
        help="result-store JSON of the run (locates its artifact cache and "
        "run logs, as during execution)",
    )
    report_parser.add_argument(
        "--cache-dir",
        help="artifact cache directory of the run (run logs live under "
        "<cache-dir>/runlog); defaults to <--cache>.artifacts, else "
        "$REPRO_CACHE_DIR",
    )
    report_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="also write the run's recorded metrics snapshot in Prometheus "
        "text format to FILE",
    )

    return parser


def _run_figure(args: argparse.Namespace) -> str:
    programs = _parse_programs(args.programs)
    session = _build_session(args)
    _announce_coordinator(session, _reporter(args))
    function = _FIGURES[args.number]
    try:
        if args.number == 1:
            result = function(session, programs)
        elif args.number == 3:
            result = function(
                session, programs, win_size_specs=_parse_win_sizes(args.win_sizes)
            )
        elif args.number == 2:
            result = function(
                session, programs, max_mbf_values=_parse_max_mbf(args.max_mbf)
            )
        else:
            result = function(
                session,
                programs,
                max_mbf_values=_parse_max_mbf(args.max_mbf),
                win_size_specs=_parse_win_sizes(args.win_sizes),
            )
    finally:
        session.close()
    return f"{result.name}: {result.description}\n\n{result.text}"


def _run_table(args: argparse.Namespace) -> str:
    if args.number == 1:
        result = table1()
    elif args.number == 2:
        result = table2(_parse_programs(args.programs))
    else:
        session = _build_session(args)
        _announce_coordinator(session, _reporter(args))
        try:
            if args.number == 3:
                result = table3(
                    session,
                    _parse_programs(args.programs),
                    max_mbf_values=_parse_max_mbf(args.max_mbf),
                    win_size_specs=_parse_win_sizes(args.win_sizes),
                )
            else:
                result = table4(
                    session,
                    _parse_programs(args.programs),
                    win_size_specs=_parse_win_sizes(args.win_sizes),
                )
        finally:
            session.close()
    return f"{result.name}: {result.description}\n\n{result.text}"


def _phase_lines(phase_seconds, experiments: int, label: str = "  ") -> list:
    """Per-phase wall-clock breakdown plus throughput, as printable lines.

    ``phase_seconds`` maps restore / pre_window / window / tail to cumulative
    seconds (empty when the run came entirely from the result cache, in which
    case nothing is printed).
    """
    if not phase_seconds:
        return []
    total = sum(phase_seconds.values())
    if total <= 0.0:
        return []
    breakdown = ", ".join(
        f"{name}={seconds:.3f}s" for name, seconds in phase_seconds.items()
    )
    lines = [f"{label}phase time  {breakdown} (total {total:.3f}s)"]
    if experiments > 0:
        lines.append(f"{label}throughput  {experiments / total:.0f} experiments/s")
    return lines


def _supervision_lines(supervision: dict, label: str = "  ") -> list:
    """Fault-tolerance summary of the most recent engine run, if eventful.

    Silent for the common case (no retries, restarts, quarantines or ledger
    replay) so healthy runs look exactly as before.
    """
    if not supervision:
        return []
    lines = []
    counters = [
        (key, supervision.get(key, 0))
        for key in ("retries", "worker_restarts", "timeouts", "bisections")
    ]
    if any(value for _, value in counters):
        lines.append(
            f"{label}supervision "
            + ", ".join(f"{key}={value}" for key, value in counters)
        )
    quarantined = supervision.get("quarantined_units", 0)
    if quarantined:
        lines.append(
            f"{label}quarantined {quarantined} experiment(s) recorded as 'crashed'"
        )
    if supervision.get("degraded"):
        lines.append(
            f"{label}degraded    worker pool gave up after repeated crashes; "
            f"{supervision.get('serial_fallback_units', 0)} experiment(s) "
            "finished serially in-process"
        )
    loaded = supervision.get("ledger_loaded_units", 0)
    if loaded:
        lines.append(
            f"{label}resumed     {loaded} experiment(s) replayed from the "
            f"chunk ledger ({supervision.get('ledger_loaded_chunks', 0)} chunks)"
        )
    distributed = supervision.get("distributed") or {}
    if distributed.get("hosts_joined"):
        lines.append(
            f"{label}distributed "
            + ", ".join(f"{key}={value}" for key, value in distributed.items())
        )
    return lines


def _run_campaign(args: argparse.Namespace) -> str:
    """``repro campaign``: one campaign, outcome counts and cache status.

    The trailing artifact-cache lines state explicitly whether generated
    backend source was produced this run or loaded from the cache — the CI
    round-trip smoke greps for them.
    """
    from repro.campaign import CampaignConfig

    get_program(args.program)  # raises ConfigurationError on typos
    session = _build_session(args)
    _announce_coordinator(session, _reporter(args))
    config = CampaignConfig(
        program=args.program,
        technique=args.technique,
        max_mbf=args.max_mbf,
        win_size=win_size_by_index(args.win_size),
        experiments=args.experiments,
    )
    try:
        store = session.ensure([config])
    finally:
        session.close()
    result = store.get(config)
    counts = result.outcome_counts.as_dict()
    lines = [
        f"{config.campaign_id} · backend={args.backend} · "
        f"{result.experiments} experiments",
        "  outcomes  " + ", ".join(f"{k}={v}" for k, v in counts.items() if v),
        f"  SDC       {result.sdc_percentage:.3f}%",
    ]
    lines.extend(_phase_lines(result.phase_seconds, result.experiments))
    lines.extend(_supervision_lines(getattr(session.engine, "supervision", {}) or {}))
    cache = session.artifact_cache
    if cache is not None:
        stats = cache.stats
        lines.append(f"  artifact cache  {stats.describe()} ({cache.root})")
        if args.backend == "compiled":
            if stats.hits.get("codegen", 0):
                lines.append("  compiled source loaded from cache")
            elif stats.stores.get("codegen", 0):
                lines.append("  compiled source generated and stored")
    if getattr(args, "verbose", False) and session.runlog_dir is not None:
        lines.append(
            f"  run log   events under {session.runlog_dir} "
            "(render with: repro report --last)"
        )
    return "\n".join(lines)


def _run_candidates(args: argparse.Namespace) -> str:
    """``repro candidates``: error-space shape of one (or every) program.

    The printed counts are cross-checked against the Table II expectations:
    inject-on-read candidates must dominate inject-on-write candidates
    (stores and branches read registers but define none), and both must be
    positive for every benchmark.
    """
    from repro.errorspace import enumerate_error_space
    from repro.injection.techniques import TECHNIQUES
    from repro.programs.registry import get_experiment_runner

    names = all_program_names() if args.program == "all" else [args.program]
    for name in names:
        get_program(name)  # raises ConfigurationError on typos
    lines = [
        f"{'program':16s} {'technique':16s} {'candidates':>10s} "
        f"{'locations':>10s} {'error space':>12s}"
    ]
    for name in names:
        runner = get_experiment_runner(name)
        golden = runner.golden
        counts = {}
        for technique in TECHNIQUES:
            space = enumerate_error_space(golden, technique)
            counts[technique.name] = technique.candidate_instruction_count(golden)
            lines.append(
                f"{name:16s} {technique.name:16s} "
                f"{counts[technique.name]:10d} {space.candidate_count:10d} "
                f"{space.size:12d}"
            )
        read_count = counts["inject-on-read"]
        write_count = counts["inject-on-write"]
        if not (read_count >= write_count > 0):
            raise SystemExit(
                f"{name}: candidate counts violate the Table II expectation "
                f"(read={read_count}, write={write_count})"
            )
    lines.append("")
    lines.append("Table II cross-check: read candidates >= write candidates > 0 for "
                 f"{len(names)} program(s) [OK]")
    return "\n".join(lines)


def _run_exhaustive(args: argparse.Namespace) -> str:
    session = _build_session(args)
    _announce_coordinator(session, _reporter(args))
    get_program(args.program)  # raises ConfigurationError on typos
    if args.budget is not None and not args.prune:
        raise SystemExit(
            "repro exhaustive: --budget samples pruned-plan representatives "
            "and cannot be combined with --no-prune"
        )
    mode = "budgeted" if args.budget is not None else ("pruned" if args.prune else "exhaustive")
    try:
        result = session.run_exhaustive(
            args.program,
            args.technique,
            mode=mode,
            budget=args.budget,
            validate=args.validate,
            seed=args.seed,
        )
    finally:
        session.close()
    counts = result.outcome_counts
    lines = [
        f"{result.program} / {result.technique} / single-bit {result.mode}",
        f"  error space        {result.total_errors} errors "
        f"({result.candidate_count} candidate locations)",
        f"  executed           {result.executed_experiments} experiments "
        f"({result.reduction_factor:.2f}x fewer than the space)",
        f"  inferred           {result.inferred_errors} errors settled statically",
        "  weighted outcomes  "
        + ", ".join(f"{k}={v}" for k, v in counts.as_dict().items() if v),
        f"  SDC                {result.sdc_percentage:.3f}%",
    ]
    lines.extend(
        _phase_lines(
            result.phase_seconds,
            result.executed_experiments + result.validation_sampled,
            label="  ",
        )
    )
    lines.extend(
        _supervision_lines(getattr(session.engine, "supervision", {}) or {}, label="  ")
    )
    if result.validation_sampled:
        lines.append(
            f"  validation         {result.validation_mispredicted}/"
            f"{result.validation_sampled} mispredicted "
            f"({100.0 * result.misprediction_rate:.2f}%)"
        )
    cache = session.artifact_cache
    if cache is not None:
        stats = cache.stats
        # "warm" means the *plan* specifically came from the cache — a golden
        # trace hit alone still pays the full inference cost.
        plan_hits = stats.hits.get("plan", 0)
        lines.append(
            f"  artifact cache     {stats.describe()} ({cache.root}); "
            + (
                "warm (planning loaded from cache)"
                if plan_hits
                else "cold (artifacts derived and stored)"
            )
        )
    if getattr(args, "verbose", False) and session.runlog_dir is not None:
        lines.append(
            f"  run log            events under {session.runlog_dir} "
            "(render with: repro report --last)"
        )
    return "\n".join(lines)


def _run_worker(args: argparse.Namespace) -> str:
    """``repro worker``: serve a coordinator until stood down."""
    from repro.dist import WorkerAgent

    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(
            "repro worker: address must be HOST:PORT (as printed by the "
            "coordinator), e.g. 127.0.0.1:43117"
        )
    agent = WorkerAgent(
        host,
        int(port),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        name=args.name,
        reconnect_attempts=args.reconnect_attempts,
        max_retries=args.max_retries,
    )
    code = agent.run()
    if code != 0:
        raise SystemExit(
            f"repro worker: coordinator at {args.address} unreachable after "
            f"{args.reconnect_attempts} attempts"
        )
    return f"worker {agent.name}: stood down cleanly"


def _runlog_directory(args: argparse.Namespace) -> Path:
    """The run-log directory implied by ``--cache-dir``/``--cache``/env."""
    from repro.experiments.session import default_artifact_dir

    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and getattr(args, "cache", None):
        cache_dir = default_artifact_dir(args.cache)
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir is None:
        raise SystemExit(
            "repro report: no artifact cache to read run logs from; pass "
            "--cache-dir (or --cache, or set REPRO_CACHE_DIR) matching the "
            "recorded run"
        )
    return Path(cache_dir) / "runlog"


def _run_report(args: argparse.Namespace) -> str:
    """``repro report``: render a recorded run's telemetry after the fact."""
    from repro.telemetry.events import find_run_log, latest_run_log, read_events
    from repro.telemetry.metrics import snapshot_from
    from repro.telemetry.report import build_report, render_report

    runlog_dir = _runlog_directory(args)
    if args.key:
        path = find_run_log(runlog_dir, args.key)
        if path is None:
            raise SystemExit(
                f"repro report: no unique run log matching {args.key!r} "
                f"under {runlog_dir}"
            )
    elif args.last:
        path = latest_run_log(runlog_dir)
        if path is None:
            raise SystemExit(f"repro report: no run logs under {runlog_dir}")
    else:
        raise SystemExit("repro report: pass a run key or --last")
    events, status = read_events(path)
    report = build_report(events, status)
    if args.metrics_out:
        snapshot = report.get("metrics") or {}
        Path(args.metrics_out).write_text(
            snapshot_from(snapshot).to_prometheus_text()
        )
    return render_report(report)


def _write_live_metrics(args: argparse.Namespace) -> None:
    """Dump the process registry after a run (``--metrics-out`` on commands)."""
    metrics_out = getattr(args, "metrics_out", None)
    if not metrics_out:
        return
    from repro.telemetry.metrics import registry

    Path(metrics_out).write_text(registry().to_prometheus_text())


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import CampaignInterrupted

    args = build_parser().parse_args(argv)
    reporter = _reporter(args)
    if args.command == "list-programs":
        for name in all_program_names():
            definition = get_program(name)
            reporter.result(
                f"{name:16s} {definition.suite}/{definition.package:11s} "
                f"{definition.description}"
            )
        return 0
    commands = {
        "figure": _run_figure,
        "table": _run_table,
        "campaign": _run_campaign,
        "coordinate": _run_campaign,
        "worker": _run_worker,
        "candidates": _run_candidates,
        "exhaustive": _run_exhaustive,
        "report": _run_report,
    }
    runner = commands.get(args.command)
    if runner is None:
        return 2  # pragma: no cover - argparse enforces valid commands
    try:
        reporter.result(runner(args))
        if args.command != "report":
            _write_live_metrics(args)
        return 0
    except CampaignInterrupted as interrupted:
        reporter.warn(f"\ninterrupted: {interrupted}")
        if interrupted.resumable:
            argv_list = list(argv) if argv is not None else sys.argv[1:]
            if "--resume" not in argv_list:
                argv_list.append("--resume")
            reporter.warn("resume with: repro " + " ".join(argv_list))
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
