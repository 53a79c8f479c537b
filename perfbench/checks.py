"""Output checks of the end-to-end benchmark.

Every check is a plain function over data the program produced (golden
outputs, stored campaign results, a pruned plan, executed outcomes) and
returns a list of problems; an empty list means the check passed.  The
expected values come from computations made apart from the program under
test (``binascii``, ``sorted``, plain-Python graph searches, an
independent tally of the stored records) or from a property the method must
have (outcome counts total the experiments run; a plan covers its space).
``test_checks.py`` corrupts one input at a time and shows each check fails.
"""

from __future__ import annotations

import binascii
import heapq
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

_MASK64 = (1 << 64) - 1


# -- golden outputs against host-side computations ---------------------------------


def _expected_crc32() -> List[int]:
    from repro.programs.inputs import sound_samples
    from repro.programs.mibench.crc32 import MESSAGE_BYTES

    message = bytes(value & 0xFF for value in sound_samples(MESSAGE_BYTES, seed=77))
    return [binascii.crc32(message), sum(message)]


def _expected_qsort() -> List[int]:
    from repro.programs.inputs import lcg_sequence
    from repro.programs.mibench.qsort import ELEMENT_COUNT

    values = sorted(lcg_sequence(seed=42, count=ELEMENT_COUNT, modulus=10_000))
    checksum = sum(value * (index + 1) for index, value in enumerate(values))
    inversions = sum(1 for a, b in zip(values, values[1:]) if b < a)
    return [checksum, values[0], values[-1], inversions]


def _dijkstra_distances(matrix: Sequence[int], nodes: int, source: int) -> Dict[int, int]:
    distance = {source: 0}
    heap = [(0, source)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost > distance.get(node, cost):
            continue
        for target in range(nodes):
            weight = matrix[node * nodes + target]
            if weight > 0 and cost + weight < distance.get(target, cost + weight + 1):
                distance[target] = cost + weight
                heapq.heappush(heap, (cost + weight, target))
    return distance


def _expected_dijkstra() -> List[int]:
    from repro.programs.inputs import adjacency_matrix
    from repro.programs.mibench.dijkstra import NODE_COUNT

    matrix = adjacency_matrix(NODE_COUNT, seed=1234)
    first = _dijkstra_distances(matrix, NODE_COUNT, 0)
    second = _dijkstra_distances(matrix, NODE_COUNT, NODE_COUNT // 2)
    return [
        sum(first.values()),
        len(first),
        first[NODE_COUNT - 1],
        sum(second.values()),
    ]


def _expected_bfs() -> List[int]:
    from repro.programs.inputs import edge_list_graph
    from repro.programs.parboil.bfs import NODE_COUNT

    offsets, edges = edge_list_graph(NODE_COUNT, seed=555)
    hops = {0: 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for target in edges[offsets[node] : offsets[node + 1]]:
            if target not in hops:
                hops[target] = hops[node] + 1
                queue.append(target)
    return [
        len(hops),
        sum(hops.values()),
        max(hops.values()),
        hops.get(NODE_COUNT - 1, -1),
    ]


EXPECTED_OUTPUTS = {
    "crc32": _expected_crc32,
    "qsort": _expected_qsort,
    "dijkstra": _expected_dijkstra,
    "bfs": _expected_bfs,
}


def check_golden_output(program: str, output: Sequence[Tuple[str, int]]) -> List[str]:
    """The golden run's output words against the host-side computation."""
    expected = [value & _MASK64 for value in EXPECTED_OUTPUTS[program]()]
    actual = [bits & _MASK64 for _type, bits in output]
    if actual != expected:
        return [f"{program}: golden output {actual} != host computation {expected}"]
    return []


# -- sampled campaigns ---------------------------------------------------------------


def check_campaign_counts(result) -> List[str]:
    """Counts total the experiments; activated errors respect the model."""
    config = result.config
    problems = []
    label = config.campaign_id
    if result.outcome_counts.total != config.experiments:
        problems.append(
            f"{label}: outcome counts total {result.outcome_counts.total}, "
            f"expected {config.experiments}"
        )
    if len(result.records) != config.experiments:
        problems.append(f"{label}: {len(result.records)} records for {config.experiments} experiments")
    if sum(result.activated_histogram.values()) != config.experiments:
        problems.append(f"{label}: activated histogram does not total the experiments")
    # A crashed (quarantined) experiment is a failed operation; it records no
    # activations.
    low, high = (1, 1) if config.is_single_bit else (1, config.max_mbf)
    outside = [
        r.activated_errors
        for r in result.records
        if r.outcome.value != "crashed" and not low <= r.activated_errors <= high
    ]
    if outside:
        problems.append(
            f"{label}: {len(outside)} experiments activated a number of errors outside "
            f"{low}..{high} (first: {outside[0]})"
        )
    tally: Dict[str, int] = {}
    for record in result.records:
        tally[record.outcome.value] = tally.get(record.outcome.value, 0) + 1
    if tally != {k: v for k, v in result.outcome_counts.as_dict().items() if v}:
        problems.append(f"{label}: records tally {tally} != outcome counts")
    return problems


def check_replay(record, replayed, label: str) -> List[str]:
    """A stored record against the same experiment replayed alone."""
    stored = (record.outcome, record.activated_errors, record.first_dynamic_index, record.first_slot)
    again = (
        replayed.outcome,
        replayed.activated_errors,
        replayed.spec.first_dynamic_index,
        replayed.spec.first_slot,
    )
    if stored != again:
        return [f"{label}: stored (outcome, activated, tick, slot) {stored} != replay {again}"]
    return []


def sdc_tally(result) -> float:
    """SDC % of one campaign, counted from its stored records."""
    sdc = sum(1 for record in result.records if record.outcome.value == "sdc")
    return 100.0 * sdc / len(result.records)


def _table_rows(text: str) -> List[List[str]]:
    lines = [line for line in text.splitlines() if " | " in line]
    return [[cell.strip() for cell in line.split(" | ")] for line in lines[1:]]


def expected_figure_rows(
    results: Iterable, technique: str, kind: str, programs: Sequence[str]
) -> Dict[str, List[str]]:
    """The SDC% cells a figure must print, per program, from the benchmark's tally.

    ``kind`` is ``"figure1"`` (single-bit SDC%), ``"same-register"`` (Fig. 2:
    single-bit then the peak per max-MBF over win-size 0) or
    ``"multi-register"`` (Figs. 4/5: the same over win-size > 0).
    """
    rows: Dict[str, List[str]] = {}
    chosen = [r for r in results if r.config.technique == technique]
    for program in programs:
        mine = [r for r in chosen if r.config.program == program]
        single = [r for r in mine if r.config.is_single_bit]
        cells = [f"{sdc_tally(single[0]):.2f}"] if single else []
        if kind != "figure1":
            peaks: Dict[int, float] = {}
            for r in mine:
                if r.config.is_single_bit:
                    continue
                if (r.resolved_win_size == 0) != (kind == "same-register"):
                    continue
                peaks[r.config.max_mbf] = max(peaks.get(r.config.max_mbf, 0.0), sdc_tally(r))
            cells += [f"{peaks[mbf]:.2f}" for mbf in sorted(peaks)]
        rows[program] = cells
    return rows


def check_figure_text(text: str, expected: Mapping[str, List[str]], kind: str, label: str) -> List[str]:
    """Each SDC% a rendered figure prints equals the benchmark's own tally."""
    problems = []
    printed = {row[0]: row for row in _table_rows(text)}
    for program, cells in expected.items():
        row = printed.get(program)
        if row is None:
            problems.append(f"{label}: no row for {program}")
            continue
        shown = [row[6]] if kind == "figure1" else row[1:]
        if shown != cells:
            problems.append(f"{label}/{program}: printed SDC% {shown} != tally {cells}")
    return problems


# -- pruned error-space campaigns ----------------------------------------------------


def check_plan_coverage(plan, result, read_bits: Optional[int]) -> List[str]:
    """Inferred + class weights = the space = the live read-hook bit count."""
    problems = []
    covered = plan.inferred_errors + sum(cls.weight for cls in plan.classes)
    if covered != plan.total_errors:
        problems.append(
            f"plan covers {covered} errors (inferred {plan.inferred_errors} + class "
            f"weights), total_errors is {plan.total_errors}"
        )
    if read_bits is not None and read_bits != plan.total_errors:
        problems.append(
            f"register-read bits counted on a live golden run {read_bits} != "
            f"total_errors {plan.total_errors}"
        )
    if result.outcome_counts.total != plan.total_errors:
        problems.append(
            f"weighted outcome counts total {result.outcome_counts.total}, "
            f"expected {plan.total_errors}"
        )
    return problems


def count_mismatches(expected: Sequence, actual: Sequence) -> int:
    """How many executed outcomes differ from the outcome they should equal."""
    return sum(1 for want, got in zip(expected, actual) if want is not got)

