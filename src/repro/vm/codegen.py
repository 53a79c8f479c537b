"""IR→Python transpiler backend: compile each workload once, run specialized code.

The decoded backend (:mod:`repro.vm.program`) already resolves operands,
handlers and phi moves at decode time, but its driver still pays per-tick
dispatch: a kind switch, tuple-indexed operand fetches and one pre-bound
closure call per instruction.  This module removes that last layer by
*transpiling* a :class:`~repro.vm.program.DecodedProgram` to Python source —
one function per IR function:

* frame slots become local variables (``r0``, ``r1``, ...);
* operand fetches, integer wrap/compare/shift codecs, memory load/store
  codecs, GEP arithmetic and fault checks are inlined as direct expressions;
* phi moves are emitted as parallel assignments per CFG edge;
* block transfer is a ``while``-over-label loop dispatched through a binary
  tree over block indices.

One variant is generated per program, with no tracing and no hooks: the
golden run and the bare sprint and tail of every windowed faulty run pay
zero instrumentation cost.  Each function gets an entry point and a resume
entry point (checkpoint fast-forward and segment continuation re-enter its
block loop at a restored label).  An execution with a read hook, write hook
or trace collector armed runs on the decoded driver that
:class:`CompiledInterpreter` subclasses; windowed execution hands live state
between the two at every pause, so a faulty run pays the driver's hooked
speed only for the few ticks of its injection window.  Set-up cost is one
``compile()`` of the source per process: on a 2-core Xeon about 0.03 s for
crc32 and 0.12 s for dijkstra (378 KB of source); the pooled 3,000-experiment
dijkstra campaign of the end-to-end benchmark peaks at about 49 MB.

Generated source references no live objects: every decode-time object it
needs (fault classes, :class:`DecodedInstruction` instances, canonicalizer
tuples) is passed positionally through a const table built by
:func:`build_consts` — a deterministic walk of the decoded program.  The
source text is therefore *portable*: it is persisted in the content-addressed
artifact cache (:mod:`repro.artifacts`, kind ``"codegen"``) keyed by the
module fingerprint, so spawned workers and repeated CLI invocations ``exec``
cached source instead of re-generating.  Generations are counted via
``CODEGEN_GENERATIONS`` and the ``REPRO_DERIVATION_LOG`` machinery.

The compiled artifact is cached on the module (``module._compiled_program``)
next to the decode cache and is invalidated together with it: validity is
pinned to the identity of the decoded program, and the structural-mutation
hooks (:meth:`Instruction._invalidate_static_views`) clear it explicitly.

Behavioural contract: bit-identical to the decoded driver — same outputs and
return values, same faults (messages included), same ``dynamic_index``
bookkeeping at every exit and pause; traces and hook call sequences come
from the driver itself.  Enforced across every registry program by
``tests/test_compiled_differential.py``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionSetupError
from repro.ir.types import FloatType, IntType, PointerType
from repro.vm import bitops
from repro.vm.faults import (
    AbortFault,
    ArithmeticFault,
    HangDetected,
    HardwareFault,
    InvalidJumpFault,
    MisalignedAccessFault,
    SegmentationFault,
)
from repro.telemetry import metrics as telemetry_metrics
from repro.vm.interpreter import Interpreter, _PauseSignal
from repro.vm.program import (
    KIND_BRANCH,
    KIND_COND_BRANCH,
    KIND_RETURN,
    KIND_SIMPLE,
    OP_CONSTANT,
    OP_GLOBAL,
    OP_REGISTER,
    UNDEFINED,
    DecodedProgram,
    _finish,
    _h_alloca,
    _h_call,
    _h_call_unknown,
    _h_cast,
    _h_compare,
    _h_float_binop,
    _h_gep,
    _h_int_binop,
    _h_load,
    _h_load_generic,
    _h_select,
    _h_store,
    _h_store_generic,
    _h_unsupported,
    _read_op,
    canonicalizer_for,
    decode_module,
)

_MASK64 = (1 << 64) - 1

#: Version tag of the generator, mixed into the artifact-cache key.  Bump
#: whenever the emitted source, the const-table walk or the payload changes
#: shape.
CODEGEN_VERSION = "3"

#: Number of from-scratch source generations performed by this process.
#: Mirrors ``snapshot.GOLDEN_DERIVATIONS``: cache hits never increment it.
CODEGEN_GENERATIONS = 0


def _note_generation(module_name: str) -> None:
    """Count one source generation (telemetry counter + compat shims).

    Canonical count: ``repro_derivations_total{kind="codegen"}``.  The
    module-level mirror and the ``REPRO_DERIVATION_LOG`` append survive as
    shims for the cross-process cache tests.
    """
    global CODEGEN_GENERATIONS
    CODEGEN_GENERATIONS += 1
    telemetry_metrics.note_derivation("codegen", f"codegen:{module_name}")


# --------------------------------------------------------------------------- const table
#: Fixed header of every const table; the walk below appends to it.
_CONST_HEADER = (
    HangDetected,
    AbortFault,
    InvalidJumpFault,
    SegmentationFault,
    ArithmeticFault,
    MisalignedAccessFault,
    HardwareFault,
    ExecutionSetupError,
    UNDEFINED,
    _PauseSignal,
)


def build_consts(decoded: DecodedProgram) -> List:
    """The const table generated source is exec'd against.

    A deterministic walk of the decoded program: the fixed header, then per
    function its argument-canonicalizer tuple, its return canonicalizer, and
    every phi/code :class:`DecodedInstruction` in block order.  The generator
    assigns const indices by the *same* walk, which is what makes cached
    source re-executable against a freshly decoded program without any
    generation work.
    """
    consts: List = list(_CONST_HEADER)
    for dfunc in decoded.functions.values():
        consts.append(dfunc.arg_canons)
        consts.append(canonicalizer_for(dfunc.return_type))
        for block in dfunc.blocks:
            consts.extend(block.phi_dins)
            consts.extend(block.code)
    return consts


class _ConstIndex:
    """Const-table indices assigned by the :func:`build_consts` walk."""

    def __init__(self, decoded: DecodedProgram) -> None:
        self.din: Dict[int, int] = {}
        self.fn_args: Dict[str, int] = {}
        self.fn_ret: Dict[str, int] = {}
        index = len(_CONST_HEADER)
        for name, dfunc in decoded.functions.items():
            self.fn_args[name] = index
            index += 1
            self.fn_ret[name] = index
            index += 1
            for block in dfunc.blocks:
                for phi_din in block.phi_dins:
                    self.din[id(phi_din)] = index
                    index += 1
                for din in block.code:
                    self.din[id(din)] = index
                    index += 1
        self.size = index


# --------------------------------------------------------------------------- emitter
_COMPARE_SYMBOLS = {
    operator.eq: "==",
    operator.ne: "!=",
    operator.lt: "<",
    operator.le: "<=",
    operator.gt: ">",
    operator.ge: ">=",
}

#: ``_build`` prologue (fault classes by header index, plus cheap builtin
#: aliases that become closure cells).
_FIXED_PROLOGUE = (
    "E_HANG = C[0]",
    "E_ABORT = C[1]",
    "E_IJF = C[2]",
    "E_SEG = C[3]",
    "E_ARITH = C[4]",
    "E_MIS = C[5]",
    "E_HWF = C[6]",
    "E_ESE = C[7]",
    "FB = int.from_bytes",
    "FLT = float",
    'INF = float("inf")',
    'NINF = float("-inf")',
    'NAN = float("nan")',
    "E_PAUSE = C[9]",
)

_INT_BINOP_SYMBOLS = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "and": "&",
    "or": "|",
    "xor": "^",
}


class _Emitter:
    """Generates the source text of one decoded program."""

    def __init__(self, decoded: DecodedProgram) -> None:
        self.decoded = decoded
        self.cindex = _ConstIndex(decoded)
        self.fn_symbol = {
            name: f"f_{j}" for j, name in enumerate(decoded.functions)
        }
        self.lines: List[str] = []
        self._indent = 1
        #: alias name -> defining expression, in dependency order.
        self.aliases: Dict[str, str] = {}
        #: Ticks accumulated since the last point where the local ``n`` was
        #: materialised (block entry or call return).
        self._dn = 0
        #: Set by :meth:`emit_function` for the function being emitted —
        #: needed by the stop-tick delegation.
        self._fn: Optional[Tuple[int, str, object]] = None
        #: Block / code position currently being emitted (pause-site labels).
        self._block = None
        self._pos = 0

    def cur(self) -> str:
        """Expression for the current dynamic index (post-tick)."""
        if self._dn:
            return f"n + {self._dn}"
        return "n"

    # -- low-level writing -------------------------------------------------
    def w(self, line: str) -> None:
        self.lines.append("    " * self._indent + line)

    def push(self) -> None:
        self._indent += 1

    def pop(self) -> None:
        self._indent -= 1

    def _capture(self, fn: Callable[[], None]) -> List[str]:
        saved_lines, saved_indent = self.lines, self._indent
        self.lines, self._indent = [], 0
        fn()
        captured = self.lines
        self.lines, self._indent = saved_lines, saved_indent
        return captured

    def _splice(self, captured: List[str], depth: int) -> None:
        prefix = "    " * depth
        for line in captured:
            self.lines.append(prefix + line)

    # -- aliases -----------------------------------------------------------
    def alias(self, name: str, expr: str) -> str:
        if name not in self.aliases:
            self.aliases[name] = expr
        return name

    def din_attr(self, din, attr: str, suffix: str) -> str:
        index = self.cindex.din[id(din)]
        base = self.alias(f"D{index}", f"C[{index}]")
        return self.alias(f"{base}_{suffix}", f"{base}.{attr}")

    # -- literals and operand reads ----------------------------------------
    @staticmethod
    def lit(value) -> str:
        if isinstance(value, float):
            if value != value:
                return "NAN"
            if value == float("inf"):
                return "INF"
            if value == float("-inf"):
                return "NINF"
        return repr(value)

    def read(self, din, opi: int) -> str:
        """Source expression for one operand read."""
        op = din.operands[opi]
        kind = op[0]
        if kind == OP_CONSTANT:
            return self.lit(op[1])
        if kind == OP_GLOBAL:
            return f"G[{op[1]}]"
        return f"r{op[1]}"

    def write_result(self, din, expr: str) -> None:
        """Store an (already canonical) result in its frame slot."""
        self.w(f"r{din.dest_slot} = {expr}")

    # -- integer codec helpers ---------------------------------------------
    def _bitwise_closed(self, din, width: int) -> bool:
        """True when a bitwise and/or/xor provably cannot leave the width.

        Register reads hold canonically wrapped values by construction;
        constants are checked against the canonical range at generation
        time.  Globals may carry arbitrary ints, so they keep the full wrap.
        """
        if width <= 1:
            return False
        low, high = -(1 << (width - 1)), 1 << (width - 1)
        for op in din.operands:
            kind = op[0]
            if kind == OP_REGISTER:
                continue
            if kind == OP_CONSTANT and low <= op[1] < high:
                continue
            return False
        return True

    @staticmethod
    def _int_shape(result_type) -> Tuple[int, int, bool]:
        """(width, mask, signed) of an int/pointer result type."""
        if isinstance(result_type, PointerType):
            return 64, _MASK64, False
        width = result_type.width
        return width, (1 << width) - 1, width > 1

    @staticmethod
    def _wrap_expr(expr: str, mask: int, signed: bool, width: int) -> str:
        if not signed:
            return f"({expr}) & {mask}"
        sign_bit = 1 << (width - 1)
        return f"((({expr}) & {mask}) ^ {sign_bit}) - {sign_bit}"

    def _frame_slots(self) -> str:
        """Comma-separated source names of every frame slot."""
        return ", ".join(f"r{slot}" for slot in range(self._fn[2].frame_size))

    def _frame_tuple(self) -> str:
        """Source tuple packing every frame slot (pause-site capture)."""
        frame_size = self._fn[2].frame_size
        if frame_size == 0:
            return "()"
        if frame_size == 1:
            return f"({self._frame_slots()},)"
        return f"({self._frame_slots()})"

    def _emit_delegation(self, ticks: int, position: int) -> None:
        """Hand the rest of this invocation to the driver near the stop tick.

        If ``ticks`` more ticks could cross ``vm._stop`` (the watchdog
        limit, or an armed pause tick — hoisted as ``limit``), the
        (bit-identical) interpretive driver runs the rest of the invocation
        from ``position`` of the current block and enforces the exact
        per-tick check.  Off the stop this costs one compare.
        """
        name = self._fn[1]
        tail = f", {position}" if position else ""
        self.w(f"if n + {ticks} > limit:")
        self.w("    vm.dynamic_index = n")
        self.w(
            f"    return vm._tail_interpret({name!r}, [{self._frame_slots()}], "
            f"{self._block.index}, P{tail})"
        )

    # -- per-instruction emitters ------------------------------------------
    def emit_int_binop(self, din) -> None:
        a = self.read(din, 0)
        b = self.read(din, 1)
        width, mask, signed = self._int_shape(din.result_reg.type)
        opcode = din.opcode
        symbol = _INT_BINOP_SYMBOLS.get(opcode)
        if symbol is not None:
            expr = f"({a}) {symbol} ({b})"
            if opcode in ("and", "or", "xor") and self._bitwise_closed(din, width):
                # Bitwise ops on canonical two's-complement operands stay in
                # range: the wrap is a provable no-op, so skip it.
                pass
            else:
                expr = self._wrap_expr(expr, mask, signed, width)
        elif opcode == "shl":
            expr = self._wrap_expr(
                f"(({a}) & {mask}) << ((({b}) & {mask}) % {width})",
                mask, signed, width,
            )
        elif opcode == "lshr":
            expr = self._wrap_expr(
                f"(({a}) & {mask}) >> ((({b}) & {mask}) % {width})",
                mask, signed, width,
            )
        elif opcode == "ashr":
            expr = self._wrap_expr(
                f"({a}) >> ((({b}) & {mask}) % {width})", mask, signed, width
            )
        elif opcode in ("sdiv", "srem", "udiv", "urem"):
            cur = self.cur()
            self.w(f"if ({b}) == 0:")
            self.w(f"    vm.dynamic_index = {cur}")
            self.w(
                f"    raise E_ARITH('integer {opcode} by zero', "
                f"dynamic_index={cur})"
            )
            if opcode in ("sdiv", "srem") and width > 1:
                overflow = (
                    "signed division overflow"
                    if opcode == "sdiv"
                    else "signed remainder overflow"
                )
                self.w(f"if ({a}) == {-(1 << (width - 1))} and ({b}) == -1:")
                self.w(f"    vm.dynamic_index = {cur}")
                self.w(f"    raise E_ARITH({overflow!r}, dynamic_index={cur})")
            if opcode == "sdiv":
                body = f"int(({a}) / ({b}))"
            elif opcode == "srem":
                body = f"({a}) - int(({a}) / ({b})) * ({b})"
            elif opcode == "udiv":
                body = f"(({a}) & {mask}) // (({b}) & {mask})"
            else:
                body = f"(({a}) & {mask}) % (({b}) & {mask})"
            expr = self._wrap_expr(body, mask, signed, width)
        else:  # pragma: no cover - decoder guards opcodes
            op_alias = self.din_attr(din, "operation", "op")
            expr = f"{op_alias}(vm, {a}, {b})"
        self.write_result(din, expr)

    def emit_float_binop(self, din) -> None:
        a = self.read(din, 0)
        b = self.read(din, 1)
        op_alias = self.din_attr(din, "operation", "op")
        canon = self.din_attr(din, "canon", "cn")
        self.write_result(din, f"{canon}({op_alias}(FLT({a}), FLT({b})))")

    @staticmethod
    def _op_may_float(op) -> bool:
        if op[0] == OP_REGISTER:
            return isinstance(op[2].type, FloatType)
        if op[0] == OP_CONSTANT:
            return isinstance(op[1], float)
        return False

    def emit_compare(self, din) -> None:
        a = self.read(din, 0)
        b = self.read(din, 1)
        ops = din.operands
        if din.to_unsigned is not None:
            mask = (1 << din.to_unsigned.__self__.width) - 1
            a, b = f"(({a}) & {mask})", f"(({b}) & {mask})"
            may_float = False
        else:
            may_float = self._op_may_float(ops[0]) or self._op_may_float(ops[1])
        symbol = _COMPARE_SYMBOLS[din.compare_fn]
        plain = f"1 if ({a}) {symbol} ({b}) else 0"
        if may_float:
            nan_result = 1 if din.nan_flag else 0
            expr = (
                f"{nan_result} if ({a}) != ({a}) or ({b}) != ({b}) "
                f"else ({plain})"
            )
        else:
            expr = plain
        self.write_result(din, expr)

    def emit_cast(self, din) -> None:
        value = self.read(din, 0)
        inlined = self._inline_cast_expr(din, value)
        if inlined is not None:
            self.write_result(din, inlined)
            return
        op_alias = self.din_attr(din, "operation", "op")
        canon = self.din_attr(din, "canon", "cn")
        self.write_result(din, f"{canon}({op_alias}({value}))")

    def _inline_cast_expr(self, din, value: str) -> Optional[str]:
        """Closed-form source for int/pointer casts of a register operand.

        Register reads are canonical in the source type by construction,
        which lets most width changes collapse to a wrap expression or the
        identity.  Returns ``None`` when the generic
        ``canon(operation(x))`` closure pair must be kept (float-involved
        casts, bitcast, constant/global operands).
        """
        op = din.operands[0]
        if op[0] != OP_REGISTER:
            return None
        source_type = op[2].type
        target_type = din.result_reg.type
        opcode = din.opcode
        if opcode in ("trunc", "sext", "ptrtoint", "zext", "inttoptr"):
            if isinstance(source_type, IntType):
                src_width = source_type.width
            elif isinstance(source_type, PointerType):
                src_width = 64
            else:
                return None
            if opcode == "inttoptr":
                # Canonical pointers and i1 values are already in [0, 2**64).
                if isinstance(source_type, PointerType) or src_width == 1:
                    return value
                return f"({value}) & {_MASK64}"
            if not isinstance(target_type, IntType):
                return None
            width, mask, signed = self._int_shape(target_type)
            if opcode == "zext":
                src_mask = (1 << src_width) - 1
                unsigned = f"({value}) & {src_mask}"
                if src_width < width:
                    # The zero-extended value is < 2**src_width <= 2**(width-1).
                    return unsigned
                return self._wrap_expr(unsigned, mask, signed, width)
            # trunc/sext/ptrtoint compute wrap(value); that is the identity
            # when the canonical source range is a subset of the target range.
            if (
                opcode != "ptrtoint"
                and isinstance(source_type, IntType)
                and src_width <= width
                and (signed or src_width == 1)
            ):
                return value
            if (
                opcode == "ptrtoint"
                and isinstance(source_type, PointerType)
                and signed
                and width == 64
            ):
                # value < 2**64 already: the pre-mask is a no-op.
                sign_bit = 1 << 63
                return f"(({value}) ^ {sign_bit}) - {sign_bit}"
            return self._wrap_expr(value, mask, signed, width)
        return None

    def emit_alloca(self, din) -> None:
        op = din.operands[0]
        static_count = (
            op[1]
            if op[0] == OP_CONSTANT and 0 <= op[1] <= (1 << 24)
            else None
        )
        count = self.read(din, 0)
        cur = self.cur()
        if static_count is None:
            self.w(f"if ({count}) < 0 or ({count}) > {1 << 24}:")
            self.w(f"    vm.dynamic_index = {cur}")
            self.w(
                f'    raise E_SEG(f"alloca of {{{count}}} elements exceeds the '
                f'stack segment", dynamic_index={cur})'
            )
            size = f"{din.element_size} * ({count})"
        else:
            size = str(din.element_size * static_count)
        self.w("try:")
        self.w(f'    addr = _mem.allocate("stack", {size}, {din.element_align})')
        self.w("except MemoryError as exc:")
        self.w(f"    vm.dynamic_index = {cur}")
        self.w(
            f'    raise E_SEG(f"stack exhausted: {{exc}}", dynamic_index={cur}) '
            "from None"
        )
        self.write_result(din, "addr")

    def _emit_align_check(self, din, addr: str) -> None:
        align = din.mem_align
        if align <= 1:
            return
        cur = self.cur()
        vt_text = str(din.value_type)
        self.w(f"if ({addr}) % {align}:")
        self.w(f"    vm.dynamic_index = {cur}")
        self.w(
            f'    raise E_MIS(f"access of {vt_text} at 0x{{{addr}:x}} is not '
            f'{align}-byte aligned", dynamic_index={cur})'
        )

    def _emit_mem_guard(self, body: str) -> None:
        cur = self.cur()
        self.w("try:")
        self.w(f"    {body}")
        self.w("except E_HWF as fault:")
        self.w(f"    vm.dynamic_index = {cur}")
        self.w(f"    fault.dynamic_index = {cur}")
        self.w("    raise")

    def emit_load(self, din) -> None:
        addr = self.read(din, 0)
        self._emit_align_check(din, addr)
        # Inline the segment-cache hit (len(data) <= size always holds, so one
        # bound check covers both); anything else falls back to Memory.read_bytes.
        size = din.mem_size
        self.w("_sg = _mem._hot")
        self.w("_d = _sg.data")
        self.w(f"_o = ({addr}) - _sg.base")
        self.w(f"_e = _o + {size}")
        self.w("if 0 <= _o and _e <= len(_d):")
        self.w(f"    _mem.bytes_read += {size}")
        self.w("    raw = _d[_o:_e]")
        self.w("else:")
        self.push()
        self._emit_mem_guard(f"raw = MR({addr}, {size})")
        self.pop()
        value_type = din.value_type
        if isinstance(value_type, IntType):
            width, mask, signed = self._int_shape(value_type)
            if width == 8 * size:
                # A size-byte read is already < 2**width: the mask is a no-op.
                if signed:
                    sign_bit = 1 << (width - 1)
                    expr = f'((FB(raw, "little")) ^ {sign_bit}) - {sign_bit}'
                else:
                    expr = 'FB(raw, "little")'
            else:
                expr = self._wrap_expr('FB(raw, "little")', mask, signed, width)
        elif isinstance(value_type, FloatType):
            loader = self.din_attr(din, "loader", "ld")
            expr = f"{loader}(raw)"
        else:
            expr = 'FB(raw, "little")'
        self.write_result(din, expr)

    def emit_load_generic(self, din) -> None:
        addr = self.read(din, 0)
        vt = self.din_attr(din, "value_type", "vt")
        self._emit_mem_guard(f"val = _mem.read_scalar(int({addr}), {vt})")
        self.write_result(din, "val")

    def emit_store(self, din) -> None:
        value = self.read(din, 0)
        addr = self.read(din, 1)
        self._emit_align_check(din, addr)
        value_type = din.value_type
        if isinstance(value_type, IntType):
            mask = (1 << value_type.width) - 1
            size = value_type.size_bytes()
            encoded = f'(({value}) & {mask}).to_bytes({size}, "little")'
        elif isinstance(value_type, FloatType):
            storer = self.din_attr(din, "storer", "st")
            encoded = f"{storer}({value})"
        else:
            encoded = f'(({value}) & {_MASK64}).to_bytes(8, "little")'
        size = din.value_type.size_bytes()
        self.w(f"_b = {encoded}")
        self.w("_sg = _mem._hot")
        self.w("_d = _sg.data")
        self.w(f"_o = ({addr}) - _sg.base")
        self.w(f"_e = _o + {size}")
        self.w("if 0 <= _o and _e <= len(_d):")
        self.w(f"    _mem.bytes_written += {size}")
        self.w("    _d[_o:_e] = _b")
        self.w("    if _e > _sg.high_water:")
        self.w("        _sg.high_water = _e")
        self.w("    if _o < _sg.dirty_low:")
        self.w("        _sg.dirty_low = _o")
        self.w("else:")
        self.push()
        self._emit_mem_guard(f"MW({addr}, _b)")
        self.pop()

    def emit_store_generic(self, din) -> None:
        value = self.read(din, 0)
        addr = self.read(din, 1)
        vt = self.din_attr(din, "value_type", "vt")
        self._emit_mem_guard(
            f"_mem.write_scalar(int({addr}), {value}, {vt})"
        )

    def emit_gep(self, din) -> None:
        base = self.read(din, 0)
        index = self.read(din, 1)
        self.write_result(
            din, f"(({base}) + ({index}) * {din.stride}) & {_MASK64}"
        )

    def emit_select(self, din) -> None:
        condition = self.read(din, 0)
        canon = self.din_attr(din, "canon", "cn")
        true_expr = self.read(din, 1)
        false_expr = self.read(din, 2)
        self.write_result(
            din, f"{canon}({true_expr} if {condition} else {false_expr})"
        )

    def emit_call(self, din) -> None:
        values = [self.read(din, i) for i in range(len(din.operands))]
        self.w(f"vm.dynamic_index = {self.cur()}")
        if din.callee is not None:
            symbol = self.fn_symbol[din.callee.name]
            call_args = "".join(f", {value}" for value in values)
            # A pause inside the callee unwinds through this frame: record
            # this call site so the level can be rebuilt on resume.
            self.w("try:")
            self.w(f"    t = {symbol}(vm{call_args})")
            self.w("except E_PAUSE as p:")
            self.w(
                f"    p.site({self._block.index}, {self._pos}, "
                f"{self._frame_tuple()})"
            )
            self.w("    raise")
            # The callee advanced the counter; rebase the local and restart
            # the pending-tick delta from zero.
            self.w("n = vm.dynamic_index")
            self._dn = 0
        else:
            # Intrinsics never advance the counter: ``n`` plus the pending
            # delta stays exact, no rebase needed.
            fn = self.din_attr(din, "intrinsic_fn", "fn")
            tail = "," if len(values) == 1 else ""
            self.w(f"t = {fn}(vm, ({', '.join(values)}{tail}))")
        if din.dest_slot >= 0:
            canon = self.din_attr(din, "canon", "cn")
            self.write_result(din, f"{canon}(0 if t is None else t)")
        if din.callee is not None:
            # The callee may have consumed the distance to the stop tick
            # (watchdog or pause): re-check before finishing this block,
            # delegating the remainder mid-block.  Emitted after the result
            # write so the delegated frame holds the call result.
            self._emit_delegation(
                self._block.code_len - self._pos - 1, self._pos + 1
            )

    def emit_setup_error(self, din) -> None:
        """An unknown callee or unsupported opcode: fails when executed."""
        self.w(f"vm.dynamic_index = {self.cur()}")
        self.w(f"raise E_ESE({din.error_message!r})")

    # -- phis, blocks, dispatch --------------------------------------------
    def phi_read(self, phi_din, op) -> str:
        kind = op[0]
        if kind == OP_CONSTANT:
            return self.lit(phi_din.canon_in(op[1]))
        canon_in = self.din_attr(phi_din, "canon_in", "ci")
        if kind == OP_GLOBAL:
            return f"{canon_in}(G[{op[1]}])"
        # Same-typed register sources are already canonical for the phi.
        source_type = op[2].type
        phi_type = phi_din.result_reg.type
        if source_type is phi_type or source_type == phi_type:
            return f"r{op[1]}"
        return f"{canon_in}(r{op[1]})"

    def emit_phi_edge(self, moves, failure) -> None:
        if moves:
            self.w(f"n += {len(moves)}")
        if failure is not None:
            self.w("vm.dynamic_index = n")
            self.w(f"raise E_IJF({failure!r}, dynamic_index=n)")
            return
        if moves:
            dests = ", ".join(f"r{pd.dest_slot}" for _, pd in moves)
            values = ", ".join(self.phi_read(pd, op) for op, pd in moves)
            self.w(f"{dests} = {values}")

    def emit_block(self, block) -> None:
        self._dn = 0
        self._block = block
        # Delegate the whole block, phi moves included, near the stop tick.
        self._emit_delegation(block.phi_count + block.code_len, 0)
        if block.phi_count:
            first = True
            for pred, (moves, failure) in block.phi_edges.items():
                self.w(f"{'if' if first else 'elif'} P == {pred}:")
                first = False
                self.push()
                self.emit_phi_edge(moves, failure)
                self.pop()
        terminated = False
        for position, din in enumerate(block.code):
            self._pos = position
            # No per-tick observers: the stop tick is enforced by the
            # delegation checks, and fault sites embed their tick offset.
            self._dn += 1
            kind = din.kind
            if kind == KIND_SIMPLE:
                handler = din.handler
                if handler is _h_int_binop:
                    self.emit_int_binop(din)
                elif handler is _h_float_binop:
                    self.emit_float_binop(din)
                elif handler is _h_compare:
                    self.emit_compare(din)
                elif handler is _h_cast:
                    self.emit_cast(din)
                elif handler is _h_alloca:
                    self.emit_alloca(din)
                elif handler is _h_load:
                    self.emit_load(din)
                elif handler is _h_load_generic:
                    self.emit_load_generic(din)
                elif handler is _h_store:
                    self.emit_store(din)
                elif handler is _h_store_generic:
                    self.emit_store_generic(din)
                elif handler is _h_gep:
                    self.emit_gep(din)
                elif handler is _h_select:
                    self.emit_select(din)
                elif handler is _h_call:
                    self.emit_call(din)
                else:
                    assert handler in (_h_call_unknown, _h_unsupported)
                    self.emit_setup_error(din)
                    terminated = True
                    break
                continue
            if kind == KIND_BRANCH:
                if self._dn:
                    self.w(f"n += {self._dn}")
                self.w(f"P = {block.index}")
                self.w(f"L = {din.target.index}")
                self.w("continue")
            elif kind == KIND_COND_BRANCH:
                condition = self.read(din, 0)
                if self._dn:
                    self.w(f"n += {self._dn}")
                self.w(f"P = {block.index}")
                self.w(
                    f"L = {din.if_true.index} if {condition} "
                    f"else {din.if_false.index}"
                )
                self.w("continue")
            elif kind == KIND_RETURN:
                if not din.operands:
                    self.w(f"vm.dynamic_index = {self.cur()}")
                    self.w("return None")
                else:
                    value = self.read(din, 0)
                    ret_canon = self.alias(
                        f"F{self.fn_symbol[din.func_name][2:]}_rc",
                        f"C[{self.cindex.fn_ret[din.func_name]}]",
                    )
                    self.w(f"vm.dynamic_index = {self.cur()}")
                    self.w(f"return {ret_canon}({value})")
            else:  # KIND_UNREACHABLE
                cur = self.cur()
                self.w(f"vm.dynamic_index = {cur}")
                self.w(
                    "raise E_ABORT('executed an unreachable instruction', "
                    f"dynamic_index={cur})"
                )
            terminated = True
            break
        if not terminated:
            message = f"control fell off the end of block %{block.name}"
            cur = self.cur()
            self.w(f"vm.dynamic_index = {cur}")
            self.w(f"raise E_IJF({message!r}, dynamic_index={cur})")

    def emit_dispatch(self, dfunc) -> None:
        blocks = dfunc.blocks

        def rec(lo: int, hi: int) -> None:
            if hi - lo == 1:
                self.emit_block(blocks[lo])
                return
            mid = (lo + hi) // 2
            self.w(f"if L < {mid}:")
            self.push()
            rec(lo, mid)
            self.pop()
            self.w("else:")
            self.push()
            rec(mid, hi)
            self.pop()

        if len(blocks) == 1:
            self.emit_block(blocks[0])
        else:
            rec(0, len(blocks))

    # -- function assembly --------------------------------------------------
    @staticmethod
    def _scan_function(dfunc) -> Dict[str, bool]:
        uses = {
            "globals": False,
            "read": False,
            "write": False,
            "mem": False,
        }
        for block in dfunc.blocks:
            for moves, _failure in block.phi_edges.values():
                for op, _phi in moves:
                    if op[0] == OP_GLOBAL:
                        uses["globals"] = True
            for din in block.code:
                for op in din.operands:
                    if op[0] == OP_GLOBAL:
                        uses["globals"] = True
                handler = din.handler
                if handler is _h_load:
                    uses["read"] = True
                elif handler is _h_store:
                    uses["write"] = True
                elif handler in (_h_load_generic, _h_store_generic, _h_alloca):
                    uses["mem"] = True
        uses["mem"] = uses["mem"] or uses["read"] or uses["write"]
        return uses

    def _emit_hoists(self, uses: Dict[str, bool]) -> None:
        if uses["globals"]:
            self.w("G = vm.global_values")
        if uses["read"]:
            self.w("MR = _mem.read_bytes")
        if uses["write"]:
            self.w("MW = _mem.write_bytes")
        # min(watchdog limit, armed pause tick) — segmented execution reuses
        # every existing stop check to pause at exact tick boundaries.
        self.w("limit = vm._stop")
        self.w("n = vm.dynamic_index")

    def emit_function(self, j: int, name: str, dfunc) -> None:
        self._fn = (j, name, dfunc)
        uses = self._scan_function(dfunc)
        if dfunc.entry is not None:
            body = self._capture(lambda: self.emit_dispatch(dfunc))
        else:
            body = None
        no_blocks_message = f"function @{dfunc.name} has no blocks"

        # -- normal entry point --------------------------------------------
        args = "".join(f", a{i}" for i in range(dfunc.arg_count))
        self.w(f"def f_{j}(vm{args}):")
        self.push()
        self.w("_l = vm.limits")
        self.w("if vm._call_depth >= _l.max_call_depth:")
        self.w(
            '    raise E_SEG(f"call depth exceeded {_l.max_call_depth} '
            '(stack overflow)", dynamic_index=vm.dynamic_index)'
        )
        self.w("vm._call_depth += 1")
        self.w("_mem = vm.memory")
        self.w("_mark = _mem.stack_mark()")
        self.w("try:")
        self.push()
        for i in range(dfunc.arg_count):
            arg_canon = self.alias(
                f"F{j}_a{i}", f"C[{self.cindex.fn_args[name]}][{i}]"
            )
            self.w(f"r{i} = {arg_canon}(a{i})")
        if dfunc.frame_size > dfunc.arg_count:
            # Pre-fill non-argument slots with the UNDEFINED sentinel (the
            # decoded driver's frame init) so stop-tick delegation and pause
            # sites can pack the full frame at any check point.
            und = self.alias("UND", "C[8]")
            slots = list(range(dfunc.arg_count, dfunc.frame_size))
            for start in range(0, len(slots), 12):
                chain = " = ".join(f"r{s}" for s in slots[start : start + 12])
                self.w(f"{chain} = {und}")
        if body is None:
            self.w(f"raise E_ESE({no_blocks_message!r})")
        else:
            self._emit_hoists(uses)
            self.w("L = 0")
            self.w("P = -1")
            self.w("while True:")
            self._splice(body, self._indent + 1)
        self.pop()
        # A pause unwinding through this invocation freezes it as one frame
        # level; the site (block/position/frame) was recorded by the raiser.
        self.w("except E_PAUSE as p:")
        self.w(f"    p.level(vm.program.functions[{name!r}], _mark)")
        self.w("    raise")
        self.w("finally:")
        self.w("    _mem.stack_release(_mark)")
        self.w("    vm._call_depth -= 1")
        self.pop()

        # -- fast-forward resume entry point -------------------------------
        # Depth accounting and stack release for this level belong to
        # CompiledInterpreter._resume_level (mirroring the decoded driver's
        # frame-record ownership), so the resume entry only re-enters the
        # block loop at the restored label.
        self.w(f"def f_{j}_r(vm, F, L, P):")
        self.push()
        if body is None:
            self.w(f"raise E_ESE({no_blocks_message!r})")
            self.pop()
            return
        for slot in range(dfunc.frame_size):
            self.w(f"r{slot} = F[{slot}]")
        if uses["mem"]:
            self.w("_mem = vm.memory")
        self._emit_hoists(uses)
        self.w("while True:")
        self._splice(body, self._indent + 1)
        self.pop()

    def generate(self) -> str:
        for j, (name, dfunc) in enumerate(self.decoded.functions.items()):
            self.emit_function(j, name, dfunc)
        lines = ["def _build(C):"]
        lines.extend(f"    {entry}" for entry in _FIXED_PROLOGUE)
        lines.extend(
            f"    {alias} = {expr}" for alias, expr in self.aliases.items()
        )
        lines.extend(self.lines)
        lines.append("    return {")
        for j, name in enumerate(self.decoded.functions):
            lines.append(f"        {name!r}: (f_{j}, f_{j}_r),")
        lines.append("    }")
        return "\n".join(lines) + "\n"


def generate_source(decoded: DecodedProgram) -> str:
    """The source text of one decoded program."""
    return _Emitter(decoded).generate()


# --------------------------------------------------------------------------- exec & caching
class CompiledCode:
    """The compiled form of one decoded program: its source plus live functions.

    ``bare`` maps function name to an ``(entry, resume)`` pair;
    ``entry(vm, *args)`` runs the function from its entry block,
    ``resume(vm, frame, label, previous)`` re-enters the block loop at a
    restored label (fast-forward interop).  Validity is pinned to the
    identity of ``program`` — the compiled cache dies with the decode cache.
    """

    __slots__ = ("program", "source_bare", "bare", "loaded_from_cache")

    def __init__(
        self,
        program: DecodedProgram,
        source_bare: str,
        bare: Dict[str, Tuple[Callable, Callable]],
        loaded_from_cache: bool,
    ) -> None:
        self.program = program
        self.source_bare = source_bare
        self.bare = bare
        self.loaded_from_cache = loaded_from_cache


def _exec_source(source: str, consts: List, tag: str):
    """Execute generated source against its const table."""
    namespace: Dict = {}
    code = compile(source, f"<codegen:{tag}>", "exec")
    exec(code, namespace)
    return namespace["_build"](consts)


def codegen_key(cache, module) -> str:
    """Artifact-cache key for a module's generated source text."""
    from repro.artifacts import module_fingerprint

    return cache.key_for("codegen", module_fingerprint(module), CODEGEN_VERSION)


def _cache_payload(decoded: DecodedProgram, source: str, consts_len: int) -> Dict:
    return {
        "version": CODEGEN_VERSION,
        "module": decoded.module.name,
        "functions": list(decoded.functions),
        "consts_len": consts_len,
        "source": source,
    }


def _valid_payload(payload, decoded: DecodedProgram, consts_len: int) -> bool:
    try:
        return (
            payload is not None
            and payload.get("version") == CODEGEN_VERSION
            and payload.get("consts_len") == consts_len
            and set(payload.get("functions", ())) == set(decoded.functions)
            and isinstance(payload.get("source"), str)
        )
    except TypeError:  # pragma: no cover - corrupted payload shapes
        return False


def compile_program(decoded: DecodedProgram) -> CompiledCode:
    """Compile one decoded program, consulting the artifact cache for source.

    The const table is rebuilt from the decoded program on every call (it
    holds live objects and cannot be persisted); only the *source text* is
    cached, keyed by the module fingerprint and :data:`CODEGEN_VERSION`.
    A cache hit therefore skips generation entirely — the path worker pools
    take after warm-up.
    """
    from repro.artifacts import active_cache

    consts = build_consts(decoded)
    disk = active_cache()
    key = codegen_key(disk, decoded.module) if disk is not None else None
    tag = f"{decoded.module.name}:bare"

    def regenerate() -> str:
        source = generate_source(decoded)
        _note_generation(decoded.module.name)
        if disk is not None:
            disk.store("codegen", key, _cache_payload(decoded, source, len(consts)))
        return source

    source: Optional[str] = None
    if disk is not None:
        payload = disk.load("codegen", key)
        if _valid_payload(payload, decoded, len(consts)):
            source = payload["source"]
    loaded = source is not None
    if source is None:
        source = regenerate()

    try:
        functions = _exec_source(source, consts, tag)
    except Exception:
        if not loaded:
            raise
        # A stale/corrupt cached source (e.g. written by a different code
        # revision under the same CODEGEN_VERSION) must not poison the run:
        # regenerate from the decoded program and overwrite the artifact.
        source = regenerate()
        loaded = False
        functions = _exec_source(source, consts, tag)

    return CompiledCode(decoded, source, functions, loaded)


def compile_module(module) -> CompiledCode:
    """Compile ``module``, reusing the on-module cache while still valid.

    Validity is delegated to the decode cache: the compiled artifact is
    reused exactly while ``decode_module`` keeps returning the same
    :class:`DecodedProgram` object.  Structural mutation hooks clear both
    caches together (see ``Instruction._invalidate_static_views``).
    """
    decoded = decode_module(module)
    cached: Optional[CompiledCode] = getattr(module, "_compiled_program", None)
    if cached is not None and cached.program is decoded:
        return cached
    code = compile_program(decoded)
    module._compiled_program = code
    return code


def persist_compiled_source(module) -> bool:
    """Ensure the module's generated source is stored in the artifact cache.

    Used by campaign warm-up so spawned workers ``exec`` cached source
    instead of re-generating.  Returns True when a new artifact was written.
    """
    from repro.artifacts import active_cache

    disk = active_cache()
    if disk is None:
        return False
    code = compile_module(module)
    key = codegen_key(disk, module)
    if disk.path_for("codegen", key).exists():
        return False
    disk.store(
        "codegen",
        key,
        _cache_payload(
            code.program, code.source_bare, len(build_consts(code.program))
        ),
    )
    return True


# --------------------------------------------------------------------------- interpreter
class CompiledInterpreter(Interpreter):
    """An :class:`Interpreter` that runs generated code while nothing observes it.

    Construction, memory/global materialisation, hook attributes, result
    classification, ``restore`` and the public surface are inherited
    unchanged; only the execution core is swapped.

    :meth:`_execute` chooses the core at the start of every execution —
    ``run``, ``resume`` and each segment of a windowed run.  With no trace
    collector and no hooks armed the generated code executes, and function
    calls made *by* generated code dispatch straight back into generated
    code.  Otherwise the inherited decoded driver executes, firing hooks and
    appending trace records itself.  Windowed execution switches cores at
    its pauses, which hand live frames, memory and the tick counter over
    unchanged.

    Fast-forward interop: snapshots are captured by the decoded driver
    against the *same* :class:`DecodedProgram` (slot numbering and block
    indices are shared), so ``resume`` rebuilds the captured call stack
    interpretively up to the next block boundary (:meth:`_finish_block`) and
    then re-enters the compiled block loop at the restored label.
    """

    def __init__(self, program, **kwargs) -> None:
        if isinstance(program, CompiledCode):
            code: Optional[CompiledCode] = program
            super().__init__(code.program, **kwargs)
        else:
            super().__init__(program, **kwargs)
            code = compile_module(self.module)
        if code.program is not self.program:
            code = compile_program(self.program)
        self.code = code
        #: True while the current execution runs on the decoded driver.
        self._hooked = False

    # -- execution core ------------------------------------------------------
    def _execute(self, thunk) -> "ExecutionResult":
        self._hooked = not (
            self.read_hook is None
            and self.write_hook is None
            and self._trace_append is None
        )
        return super()._execute(thunk)

    def _run_function(self, dfunc, args):
        # Also the call dispatch target for ``_h_call`` on the driver.
        if self._hooked:
            return super()._run_function(dfunc, args)
        return self.code.bare[dfunc.name][0](self, *args)

    def _tail_interpret(
        self, name: str, frame, block_index: int, previous: int, position: int = 0
    ):
        """Stop-tick delegation target of generated code.

        Generated code carries no per-instruction stop check; when a block's
        remaining ticks could cross ``vm._stop`` (the watchdog limit, or an
        armed pause tick) it hands the rest of the invocation to the
        inherited (bit-identical) interpretive driver, which raises
        :class:`HangDetected` — or pauses — at the exact tick.  Calls made
        by the driver still dispatch back into compiled code.  ``position``
        is non-zero for the post-call re-check, which delegates mid-block
        (past the phi group by construction).
        """
        block = self.program.functions[name].blocks[block_index]
        return self._block_loop(frame, block, previous, position, position > 0)

    # -- fast-forward --------------------------------------------------------
    def _resume_level(self, frames, level: int):
        if self._hooked:
            return super()._resume_level(frames, level)
        record = frames[level]
        dfunc = record.dfunc
        resume = self.code.bare[dfunc.name][1]
        self._call_depth += 1
        frame = list(record.frame)
        try:
            block = dfunc.blocks[record.block_index]
            if level + 1 < len(frames):
                value = self._resume_level(frames, level + 1)
                din = block.code[record.position]
                if din.dest_slot >= 0:
                    if value is None:
                        value = 0
                    _finish(self, frame, din, din.canon(value))
                outcome = self._finish_block(frame, block, record.position + 1)
            elif record.previous is not None:
                # Paused before the block's phi group: the compiled resume
                # entry runs the phis for the captured edge, then the body.
                return resume(self, frame, block.index, record.previous)
            else:
                outcome = self._finish_block(frame, block, record.position)
            if outcome[0] == "ret":
                return outcome[1]
            _tag, previous, target = outcome
            return resume(self, frame, target.index, previous)
        except _PauseSignal as signal:
            if not signal._site_open:
                # Pause surfaced from the nested level's resume: this level
                # is still suspended at its original call site.
                signal.site(record.block_index, record.position, tuple(frame))
            signal.level(dfunc, record.stack_mark)
            raise
        finally:
            self.memory.stack_release(record.stack_mark)
            self._call_depth -= 1

    def _finish_block(self, frame, block, position: int):
        """Finish the restored (mid-)block interpretively, driver-identical.

        Returns ``("ret", value)`` when the block returns or ``("jump",
        previous, target)`` at the next block transfer — the point where
        control can re-enter the compiled loop (compiled code is addressable
        only at block boundaries).  Runs only unobserved executions, so it
        appends no trace records.
        """
        limit = self.limits.max_dynamic_instructions
        stop = self._stop
        code = block.code
        code_len = block.code_len
        try:
            while position < code_len:
                din = code[position]
                index = self.dynamic_index
                if index >= stop:
                    if index >= limit:
                        raise HangDetected(index, limit)
                    signal = _PauseSignal(self.memory.stack_mark())
                    signal.site(block.index, position, tuple(frame))
                    raise signal
                self.dynamic_index = index + 1

                kind = din.kind
                if kind == KIND_SIMPLE:
                    din.handler(self, frame, din)
                    position += 1
                    continue
                if kind == KIND_BRANCH:
                    return ("jump", block.index, din.target)
                if kind == KIND_COND_BRANCH:
                    condition = _read_op(self, frame, din, din.operands[0])
                    return (
                        "jump",
                        block.index,
                        din.if_true if condition else din.if_false,
                    )
                if kind == KIND_RETURN:
                    if not din.operands:
                        return ("ret", None)
                    value = _read_op(self, frame, din, din.operands[0])
                    return ("ret", bitops.canonicalize(value, din.ret_type))
                # KIND_UNREACHABLE
                raise AbortFault(
                    "executed an unreachable instruction",
                    dynamic_index=self.dynamic_index,
                )
            raise InvalidJumpFault(
                f"control fell off the end of block %{block.name}",
                dynamic_index=self.dynamic_index,
            )
        except _PauseSignal as signal:
            if not signal._site_open:
                # Pause inside a callee (din.handler running a call): this
                # frame is suspended at the call instruction.
                signal.site(block.index, position, tuple(frame))
            raise
