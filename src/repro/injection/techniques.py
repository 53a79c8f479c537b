"""Injection techniques: inject-on-read and inject-on-write.

A *technique* determines which register accesses are candidate fault
locations (§III-A of the paper):

* **inject-on-read** flips a bit of a source register immediately before an
  instruction reads it — emulating an error that propagated into a register
  (e.g. a direct particle hit) and collapsing all faults between the
  register's last write and this read into one equivalence class;
* **inject-on-write** flips a bit of the destination register immediately
  after an instruction writes it — emulating errors in computation (ALUs,
  pipeline registers) that manifest in the produced value.

Each technique enumerates the candidate error space over a golden trace.
The per-program candidate counts are the numbers reported in Table II; the
counts for inject-on-read exceed those for inject-on-write because
instructions such as ``store`` have source registers but no destination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.vm.trace import GoldenTrace


@dataclass(frozen=True)
class InjectionCandidate:
    """One element of a technique's error space (before choosing the bit).

    For inject-on-read the candidate is a (dynamic instruction, source-operand
    slot) pair; for inject-on-write it is a dynamic instruction with a
    destination register.  ``register_bits`` is the width of the targeted
    register, i.e. the number of single-bit errors the candidate expands to.
    """

    dynamic_index: int
    slot: Optional[int]
    register_bits: int
    opcode: str

    @property
    def error_count(self) -> int:
        """Number of distinct single bit-flip errors at this candidate."""
        return self.register_bits


class InjectionTechnique:
    """Base class for the two injection techniques."""

    #: Technique name used in configurations, results and reports.
    name: str = "?"
    #: Which VM hook the technique uses ("read" or "write").
    access: str = "?"

    def candidates(self, trace: GoldenTrace) -> List[InjectionCandidate]:
        """Enumerate every candidate fault location of the golden trace."""
        raise NotImplementedError

    def candidate_instruction_count(self, trace: GoldenTrace) -> int:
        """Number of dynamic instructions eligible for injection (Table II)."""
        raise NotImplementedError

    def error_space_size(self, trace: GoldenTrace) -> int:
        """Total number of single bit-flip errors (candidates × bit widths)."""
        return sum(candidate.error_count for candidate in self.candidates(trace))

    def sample_candidate(
        self, trace: GoldenTrace, rng: random.Random
    ) -> InjectionCandidate:
        """Sample one candidate location: an instruction, then an operand.

        Sampling is done without materialising the full candidate list:
        a record is drawn uniformly among eligible dynamic instructions,
        then (for inject-on-read) a slot is drawn uniformly among that
        record's register source operands — LLFI's instruction → operand
        selection.  The sample is uniform over instructions, not over
        (instruction, slot) pairs: when operand counts differ, a slot of a
        one-operand instruction is drawn more often than a slot of a
        two-operand one.  Inject-on-write candidates have one destination
        each, so there the two coincide.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InjectionTechnique {self.name}>"


class InjectOnRead(InjectionTechnique):
    """Flip a bit of a source register just before the instruction reads it."""

    name = "inject-on-read"
    access = "read"

    def candidates(self, trace: GoldenTrace) -> List[InjectionCandidate]:
        return [
            InjectionCandidate(
                dynamic_index=access.dynamic_index,
                slot=access.slot,
                register_bits=access.bits,
                opcode=access.opcode,
            )
            for access in trace.iter_register_accesses()
            if access.kind == "read"
        ]

    def candidate_instruction_count(self, trace: GoldenTrace) -> int:
        return sum(1 for record in trace.records if record.source_count > 0)

    def sample_candidate(self, trace: GoldenTrace, rng: random.Random) -> InjectionCandidate:
        eligible = trace.records_with_sources()
        if not eligible:
            raise ConfigurationError("golden trace has no inject-on-read candidates")
        record = eligible[rng.randrange(len(eligible))]
        slot = rng.randrange(record.source_count)
        return InjectionCandidate(
            dynamic_index=record.dynamic_index,
            slot=slot,
            register_bits=record.source_register_bits[slot],
            opcode=record.opcode,
        )


class InjectOnWrite(InjectionTechnique):
    """Flip a bit of the destination register right after it is written."""

    name = "inject-on-write"
    access = "write"

    def candidates(self, trace: GoldenTrace) -> List[InjectionCandidate]:
        return [
            InjectionCandidate(
                dynamic_index=access.dynamic_index,
                slot=None,
                register_bits=access.bits,
                opcode=access.opcode,
            )
            for access in trace.iter_register_accesses()
            if access.kind == "write"
        ]

    def candidate_instruction_count(self, trace: GoldenTrace) -> int:
        return sum(1 for record in trace.records if record.has_destination)

    def sample_candidate(self, trace: GoldenTrace, rng: random.Random) -> InjectionCandidate:
        eligible = trace.records_with_destination()
        if not eligible:
            raise ConfigurationError("golden trace has no inject-on-write candidates")
        record = eligible[rng.randrange(len(eligible))]
        return InjectionCandidate(
            dynamic_index=record.dynamic_index,
            slot=None,
            register_bits=record.destination_bits,
            opcode=record.opcode,
        )


INJECT_ON_READ = InjectOnRead()
INJECT_ON_WRITE = InjectOnWrite()

#: Both techniques, in the order the paper lists them.
TECHNIQUES: Tuple[InjectionTechnique, ...] = (INJECT_ON_READ, INJECT_ON_WRITE)

_TECHNIQUES_BY_NAME = {technique.name: technique for technique in TECHNIQUES}


def technique_by_name(name: str) -> InjectionTechnique:
    """Resolve a technique by its configuration name (constant-time)."""
    try:
        return _TECHNIQUES_BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown injection technique {name!r}; expected one of "
            f"{[t.name for t in TECHNIQUES]}"
        ) from None
