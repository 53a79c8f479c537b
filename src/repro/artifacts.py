"""Content-addressed persistent artifact cache for derived planning state.

Everything the planning pipeline derives from a workload — the golden trace
with its VM checkpoints, the def-use index, the pruned campaign plan — is a
pure function of (module contents, entry, workload args, derivation knobs,
code version).  This module caches those artifacts on disk under a key that
hashes exactly those inputs, so that:

* repeated CLI invocations and benchmark runs pay the derivation cost once;
* multiprocess workers (``spawn`` pools, separate hosts sharing a cache
  directory) warm up from the cache instead of re-deriving per process;
* any change to the module (e.g. ``BasicBlock.append`` /
  ``replace_operand``), the workload input, the derivation knobs or the
  pipeline implementation (:data:`CODE_VERSION`) changes the key and misses
  cleanly.

Artifacts are stored as pickled *plain payloads* (arrays, tuples, bytes) —
never as live objects holding module or decoded-program references — and are
re-bound against the current process's compiled module on load.  A corrupted
or truncated artifact file is treated as a miss and recomputed; the cache is
an accelerator, never a source of truth.

Layout: ``<root>/<kind>/<sha256>.pkl``, written atomically (tmp + rename).

The active cache is configured explicitly (:func:`configure`, e.g. from
``ExperimentSession(cache_dir=...)`` or ``repro exhaustive --cache-dir``) or
through the ``REPRO_CACHE_DIR`` environment variable, which worker processes
inherit.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry import metrics as telemetry_metrics

#: Version tag of the derivation pipeline, mixed into every cache key.  Bump
#: whenever the serialised payloads or the semantics of trace collection,
#: def-use extraction, inference or planning change.
CODE_VERSION = "5.1-segment-capture"

#: Frame slots holding the VM's UNDEFINED sentinel are encoded as this token
#: (frames otherwise only hold ints/floats, so the string cannot collide).
_UNDEF_TOKEN = "\x00undef\x00"


class CacheStats:
    """Hit/miss/store counters of one cache instance (per kind).

    Every bump mirrors into the process-global telemetry registry
    (``repro_cache_<event>_total{kind=...}``), so worker-process cache
    traffic reaches campaign reports via the ordinary snapshot merge.
    """

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.stores: Dict[str, int] = {}

    def note(self, event: str, kind: str) -> None:
        """Record one cache ``event`` (``hits``/``misses``/``stores``)."""
        table: Dict[str, int] = getattr(self, event)
        table[kind] = table.get(kind, 0) + 1
        if telemetry_metrics.enabled():
            telemetry_metrics.registry().counter(
                f"repro_cache_{event}_total",
                {"kind": kind},
                help="Artifact-cache events by artifact kind.",
            ).value += 1

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "stores": dict(self.stores),
        }

    def _bump(self, table: Dict[str, int], kind: str) -> None:
        table[kind] = table.get(kind, 0) + 1

    @property
    def hit_count(self) -> int:
        return sum(self.hits.values())

    @property
    def miss_count(self) -> int:
        return sum(self.misses.values())

    def describe(self) -> str:
        return f"{self.hit_count} hits, {self.miss_count} misses"


class ArtifactCache:
    """A content-addressed on-disk cache of derived planning artifacts."""

    def __init__(self, root: Union[str, Path], *, code_version: str = CODE_VERSION) -> None:
        self.root = Path(root)
        self.code_version = code_version
        self.stats = CacheStats()

    # -- keys ---------------------------------------------------------------------
    def key_for(self, *parts) -> str:
        """A stable content hash over ``parts`` plus the code version."""
        digest = hashlib.sha256()
        digest.update(self.code_version.encode())
        for part in parts:
            digest.update(b"\x1f")
            digest.update(repr(part).encode())
        return digest.hexdigest()

    def path_for(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    # -- IO -----------------------------------------------------------------------
    def load(self, kind: str, key: str):
        """The payload stored under (kind, key), or None on any miss.

        A corrupted, truncated or unreadable artifact counts as a miss —
        callers recompute and overwrite it.
        """
        path = self.path_for(kind, key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.note("misses", kind)
            return None
        except Exception:
            # Unpicklable garbage / short file / permission problem: fall
            # back to recomputation rather than crash planning.
            self.stats.note("misses", kind)
            return None
        self.stats.note("hits", kind)
        return payload

    def store(self, kind: str, key: str, payload) -> bool:
        """Atomically persist a payload; best-effort (False on any failure).

        A failed write never crashes planning and never leaves a partial
        ``.tmp-*`` file behind — the artifact simply stays a miss.
        """
        path = self.path_for(kind, key)
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=path.parent, prefix=".tmp-", delete=False
            )
            tmp_name = handle.name
            try:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                # fsync before the rename: os.replace is atomic in the
                # namespace but says nothing about the *data* reaching disk.
                # Without it, a host crash can leave a fully-named artifact
                # with torn contents — which load() treats as a miss, but a
                # resumed campaign would first waste time reading it.
                os.fsync(handle.fileno())
            finally:
                handle.close()
            os.replace(tmp_name, path)
            tmp_name = None
        except Exception:
            return False
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stats.note("stores", kind)
        return True

    def sweep_stale_tmp(self, *, max_age_seconds: float = 3600.0) -> int:
        """Delete orphaned ``.tmp-*`` files left by writers that were killed.

        A SIGKILL between ``NamedTemporaryFile`` and ``os.replace`` strands
        the temp file forever (the normal path either renames or unlinks
        it).  Restarted campaigns call this on cache activation.  Files
        younger than ``max_age_seconds`` are spared: they may belong to a
        concurrently *live* writer in another process.  Returns the number
        of files removed; never raises.
        """
        removed = 0
        try:
            cutoff = time.time() - max_age_seconds
            for tmp in self.root.glob("*/.tmp-*"):
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                        removed += 1
                except OSError:
                    continue
        except OSError:
            pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArtifactCache {self.root} ({self.stats.describe()})>"


# -- active-cache configuration ----------------------------------------------------

_EXPLICIT: Optional[ArtifactCache] = None
_ENV_CACHES: Dict[str, ArtifactCache] = {}


def configure(cache_dir: Optional[Union[str, Path]]) -> Optional[ArtifactCache]:
    """Set (or, with None, clear) the process-wide explicit cache directory.

    Re-configuring with the same directory keeps the existing instance (and
    its hit/miss counters) — sessions and worker providers both point here.
    """
    global _EXPLICIT
    if cache_dir is None:
        _EXPLICIT = None
    elif _EXPLICIT is None or Path(cache_dir) != _EXPLICIT.root:
        _EXPLICIT = ArtifactCache(cache_dir)
        _EXPLICIT.sweep_stale_tmp()
    return _EXPLICIT


def active_cache() -> Optional[ArtifactCache]:
    """The cache the pipeline should consult, or None when caching is off.

    An explicit :func:`configure` wins; otherwise the ``REPRO_CACHE_DIR``
    environment variable (inherited by worker processes) selects one.
    """
    if _EXPLICIT is not None:
        return _EXPLICIT
    env = os.environ.get("REPRO_CACHE_DIR")
    if not env:
        return None
    cache = _ENV_CACHES.get(env)
    if cache is None:
        cache = _ENV_CACHES[env] = ArtifactCache(env)
    return cache


def module_fingerprint(module) -> str:
    """Content hash of a module's printed form.

    The LLVM-like text covers globals (initialisers included) and every
    instruction operand, so any structural mutation — appending an
    instruction, rewriting an operand — changes the fingerprint.
    """
    from repro.ir.printer import print_module

    return hashlib.sha256(print_module(module).encode()).hexdigest()


# -- golden trace + checkpoint store -----------------------------------------------


def golden_key(
    cache: ArtifactCache,
    module,
    entry: str,
    args: Sequence,
    checkpoint_interval: Optional[int],
    max_checkpoints: int,
    limits,
) -> str:
    return cache.key_for(
        "golden",
        module_fingerprint(module),
        entry,
        tuple(args),
        checkpoint_interval,
        max_checkpoints,
        limits,
    )


def _encode_frame(frame: Tuple) -> Tuple:
    from repro.vm.program import UNDEFINED

    return tuple(_UNDEF_TOKEN if value is UNDEFINED else value for value in frame)


def _decode_frame(frame: Tuple) -> Tuple:
    from repro.vm.program import UNDEFINED

    return tuple(
        UNDEFINED if isinstance(value, str) and value == _UNDEF_TOKEN else value
        for value in frame
    )


def serialize_golden(golden, store) -> dict:
    """Flatten a (GoldenTrace, CheckpointStore) pair into a plain payload.

    Snapshot frames reference decode-specific objects (the decoded function,
    the UNDEFINED sentinel); they are replaced by names/tokens here and
    re-bound against the loading process's decode in
    :func:`deserialize_golden`.
    """
    return {
        "meta_table": [meta.to_fields() for meta in golden.meta_table],
        "meta_ids": golden.meta_ids.tobytes(),
        "output": golden.output,
        "return_value": golden.return_value,
        "checkpoint_ticks": golden.checkpoint_ticks,
        "entry": store.entry,
        "args_key": store.args_key,
        "interval": store.interval,
        "snapshots": [
            (
                snapshot.tick,
                snapshot.output,
                snapshot.memory,
                [
                    (
                        frame.dfunc.name,
                        frame.block_index,
                        frame.position,
                        _encode_frame(frame.frame),
                        frame.stack_mark,
                        frame.previous,
                    )
                    for frame in snapshot.frames
                ],
            )
            for snapshot in store.snapshots
        ],
    }


def deserialize_golden(payload: dict, decoded):
    """Rebuild (GoldenTrace, CheckpointStore) bound to the current decode."""
    from repro.vm.snapshot import CheckpointStore, FrameSnapshot, VMSnapshot
    from repro.vm.trace import GoldenTrace, StaticInstructionMeta

    meta_table = [
        StaticInstructionMeta.from_fields(*fields) for fields in payload["meta_table"]
    ]
    meta_ids = array("I")
    meta_ids.frombytes(payload["meta_ids"])
    golden = GoldenTrace.from_columns(
        meta_table,
        meta_ids,
        payload["output"],
        payload["return_value"],
        payload["checkpoint_ticks"],
    )
    snapshots = []
    for tick, output, memory, frames in payload["snapshots"]:
        snapshots.append(
            VMSnapshot(
                tick=tick,
                frames=tuple(
                    FrameSnapshot(
                        decoded.functions[name],
                        block_index,
                        frame_position,
                        _decode_frame(frame),
                        stack_mark,
                        previous,
                    )
                    for name, block_index, frame_position, frame, stack_mark, previous in frames
                ),
                memory=memory,
                output=output,
                program=decoded,
            )
        )
    store = CheckpointStore(
        decoded,
        payload["entry"],
        payload["args_key"],
        payload["interval"],
        snapshots,
    )
    return golden, store


# -- def-use index -----------------------------------------------------------------


def defuse_key(cache: ArtifactCache, module, entry: str, args: Sequence) -> str:
    return cache.key_for("defuse", module_fingerprint(module), entry, tuple(args))


# -- pruned plans ------------------------------------------------------------------


def plan_key(
    cache: ArtifactCache,
    module,
    entry: str,
    args: Sequence,
    technique: str,
    infer: bool,
) -> str:
    return cache.key_for(
        "plan", module_fingerprint(module), entry, tuple(args), technique, infer
    )


def serialize_plan(plan) -> dict:
    """Flatten a PrunedPlan into primitive columns (fast to unpickle)."""
    from repro.injection.outcome import Outcome

    outcome_code = {outcome: code for code, outcome in enumerate(Outcome)}
    opcode_table: List[str] = []
    opcode_ids: Dict[str, int] = {}

    def opcode_id(opcode: str) -> int:
        cached = opcode_ids.get(opcode)
        if cached is None:
            cached = opcode_ids[opcode] = len(opcode_table)
            opcode_table.append(opcode)
        return cached

    class_bit = array("H")
    rep_ordinal = array("q")
    rep_tick = array("q")
    rep_slot = array("i")
    rep_bits = array("H")
    rep_opcode = array("I")
    member_offsets = array("q", [0])
    member_ticks = array("q")
    member_slots = array("i")
    keys: List[Tuple] = []
    total_members = 0
    for cls in plan.classes:
        keys.append(cls.key)
        class_bit.append(cls.bit)
        representative = cls.representative
        rep_ordinal.append(representative.ordinal)
        rep_tick.append(representative.dynamic_index)
        rep_slot.append(-1 if representative.slot is None else representative.slot)
        rep_bits.append(representative.register_bits)
        rep_opcode.append(opcode_id(representative.opcode))
        for tick, slot in cls.members:
            member_ticks.append(tick)
            member_slots.append(-1 if slot is None else slot)
        total_members += len(cls.members)
        member_offsets.append(total_members)

    inferred_tick = array("q")
    inferred_slot = array("i")
    inferred_bit = array("H")
    inferred_code = bytearray()
    for (tick, slot, bit), outcome in plan.inferred_outcomes.items():
        inferred_tick.append(tick)
        inferred_slot.append(-1 if slot is None else slot)
        inferred_bit.append(bit)
        inferred_code.append(outcome_code[outcome])

    return {
        "technique": plan.technique,
        "total_errors": plan.total_errors,
        "candidate_count": plan.candidate_count,
        "keys": keys,
        "class_bit": class_bit.tobytes(),
        "rep_ordinal": rep_ordinal.tobytes(),
        "rep_tick": rep_tick.tobytes(),
        "rep_slot": rep_slot.tobytes(),
        "rep_bits": rep_bits.tobytes(),
        "rep_opcode": rep_opcode.tobytes(),
        "opcode_table": opcode_table,
        "member_offsets": member_offsets.tobytes(),
        "member_ticks": member_ticks.tobytes(),
        "member_slots": member_slots.tobytes(),
        "inferred_tick": inferred_tick.tobytes(),
        "inferred_slot": inferred_slot.tobytes(),
        "inferred_bit": inferred_bit.tobytes(),
        "inferred_code": bytes(inferred_code),
    }


def _from_bytes(typecode: str, payload: bytes) -> array:
    column = array(typecode)
    column.frombytes(payload)
    return column


def deserialize_plan(payload: dict):
    """Rebuild a PrunedPlan from its primitive columns."""
    from repro.errorspace.enumerate import SingleBitError
    from repro.errorspace.planner import EquivalenceClass, PrunedPlan
    from repro.injection.outcome import Outcome

    outcomes_by_code = list(Outcome)
    plan = PrunedPlan(
        technique=payload["technique"],
        total_errors=payload["total_errors"],
        candidate_count=payload["candidate_count"],
    )
    class_bit = _from_bytes("H", payload["class_bit"])
    rep_ordinal = _from_bytes("q", payload["rep_ordinal"])
    rep_tick = _from_bytes("q", payload["rep_tick"])
    rep_slot = _from_bytes("i", payload["rep_slot"])
    rep_bits = _from_bytes("H", payload["rep_bits"])
    rep_opcode = _from_bytes("I", payload["rep_opcode"])
    opcode_table = payload["opcode_table"]
    member_offsets = _from_bytes("q", payload["member_offsets"])
    member_ticks = _from_bytes("q", payload["member_ticks"])
    member_slots = _from_bytes("i", payload["member_slots"])
    classes = plan.classes
    for class_id, key in enumerate(payload["keys"]):
        slot = rep_slot[class_id]
        representative = SingleBitError(
            ordinal=rep_ordinal[class_id],
            dynamic_index=rep_tick[class_id],
            slot=None if slot < 0 else slot,
            bit=class_bit[class_id],
            register_bits=rep_bits[class_id],
            opcode=opcode_table[rep_opcode[class_id]],
        )
        lo = member_offsets[class_id]
        hi = member_offsets[class_id + 1]
        members = tuple(
            (
                member_ticks[position],
                None if member_slots[position] < 0 else member_slots[position],
            )
            for position in range(lo, hi)
        )
        classes.append(
            EquivalenceClass(
                class_id=class_id,
                key=key,
                bit=class_bit[class_id],
                representative=representative,
                members=members,
            )
        )
    inferred_tick = _from_bytes("q", payload["inferred_tick"])
    inferred_slot = _from_bytes("i", payload["inferred_slot"])
    inferred_bit = _from_bytes("H", payload["inferred_bit"])
    inferred_code = payload["inferred_code"]
    inferred_outcomes = plan.inferred_outcomes
    inferred_counts = plan.inferred_counts
    for position in range(len(inferred_tick)):
        slot = inferred_slot[position]
        outcome = outcomes_by_code[inferred_code[position]]
        inferred_outcomes[
            (
                inferred_tick[position],
                None if slot < 0 else slot,
                inferred_bit[position],
            )
        ] = outcome
        inferred_counts.add(outcome)
    return plan


def load_plan(cache: ArtifactCache, key: str):
    """A cached PrunedPlan, or None (missing/corrupted → recompute)."""
    payload = cache.load("plan", key)
    if payload is None:
        return None
    try:
        return deserialize_plan(payload)
    except Exception:
        return None


def store_plan(cache: ArtifactCache, key: str, plan) -> bool:
    return cache.store("plan", key, serialize_plan(plan))
