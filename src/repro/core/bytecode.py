"""Compile the lowered IR into flat register bytecode (the compiled engine).

The PR-2 lowered closures removed per-node *dispatch*, but every mini-step
still pays a CPython frame: one closure call per AST node per execution.
This module removes the frames as well, the way a template-JIT baseline
tier does: each function whose body fits the *native subset* is compiled
once into a flat ``tuple``-of-tuples instruction array (integer opcodes,
pre-resolved register/slot operands, the same pre-derived arithmetic plans
the lowered engine builds inlined into the instruction stream) executed by
a single ``while``-loop dispatch in :mod:`repro.core.vm`.

The native subset
-----------------

* flat integer (``IntType``/``BoolType``) local scalars -> virtual
  registers holding raw Python ints (or the ``UNINIT`` sentinel);
* local one-dimensional flat-integer arrays and unit-level flat scalars /
  arrays -> memory *slots* accessed with pre-derived element sizes against
  the arena-backed byte store;
* flat-integer pointer locals and parameters (``T *`` for every flat
  integer ``T``: ``int *``, ``char *``, ``unsigned char *``, ...) ->
  registers holding a boxed ``PointerValue`` (or ``UNINIT``).  The raw-int
  fast paths reject both by construction, so every pointer operation is a
  slow-path opcode over the *shared* helpers: array decay through
  ``_read_binding``; ``*p``/``p[i]`` through ``_deref_to_lvalue``/
  ``_pointer_add`` and ``_read_with_plan``/``_write_with_plan``;
  ``p++``/``p += n``/``p + n``/``p - q``/comparisons through
  ``_pointer_add`` and ``apply_binary``; truth tests through
  ``to_boolean``; stores into a pointer register through ``convert``.
  Pointer values may be passed to unit functions and builtins;
* calls to unit functions and builtins, ``if``/``while``/``do``/``for``,
  ``&&``/``||``/``?:``/comma, casts between flat integer types and to
  native pointer types.

Anything else — pointer return types, pointers to pointers, function
pointers, float pointees, floats, structs, compound literals, ``&`` in any
natively compiled expression, ``goto``/``switch``/labels, static or extern
locals, variadic definitions — aborts compilation of that *function*
(:class:`_Unsupported`, whose message :attr:`CompiledProgram.fallbacks`
keeps), and the function transparently runs on the lowered closures
instead.  Falling back is always verdict-safe: the compiled engine is an
accelerator for the common case, never an alternative semantics.

Parity contract
---------------

The bytecode replicates the *lowered* engine observation-for-observation:

* **steps** are aggregated per basic block and flushed before every
  side-effecting boundary (calls, declarations, returns, jumps), so
  ``max_steps`` resource verdicts and stdout prefixes agree;
* **arithmetic** uses raw-int ports of the same
  :func:`~repro.core.lowering._int_binary_plan` /
  :func:`~repro.core.lowering._int_conversion_plan` rules with identical
  messages, and every slow path boxes the value back into a
  :class:`~repro.core.values.CValue` and calls the *actual* shared helper
  (``_read_binding``, ``_write_with_plan``, ``_pointer_add``,
  ``_check_usable``, ``to_boolean``, ...), so error kinds, messages, and
  report order are the lowered engine's by construction;
* **uninitialized reads**: a register read of an indeterminate value
  raises exactly where the lowered ``_read_binding`` would — consumers
  carry the read-site message and check the ``UNINIT`` sentinel on their
  (free) slow path; value-discard positions get an explicit ``RDCHK``;
* **sequencing**: memory writes keep feeding ``Memory.locs_written``
  (plain ``(base, offset)`` tuples, equal to the ``ByteLocation`` entries
  the generic path adds) and ``SEQPT`` clears them at every lowered
  sequence point; conflicts *between register operations* are resolved
  statically — any potential conflict makes the function fall back, so
  the lowered engine produces the report.

Whole-unit compilation is memoized per options on
:class:`repro.core.kcc.CompiledUnit`; functions that do not compile stay
absent from :attr:`CompiledProgram.functions` and are listed, with the
reason, in :attr:`CompiledProgram.fallbacks`.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.headers import BUILTIN_FUNCTIONS
from repro.core.config import CheckerOptions
from repro.core.lowering import (
    _FLAT_INT_TYPES,
    _AccessPlanCache,
    _FoldUB,
    _subtree_step_cost,
    _try_fold,
    LoweringContext,
)
from repro.errors import UBKind, UndefinedBehaviorError


class UninitType:
    """Singleton sentinel for an indeterminate register value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNINIT"


#: The indeterminate register value.  Consumers test ``value.__class__ is
#: int`` on the fast path, so the sentinel automatically routes to the slow
#: path that replicates the lowered engine's indeterminate-value handling.
UNINIT = UninitType()


class _Unsupported(Exception):
    """The function under compilation leaves the native subset."""


# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------
#
# Instructions are plain tuples with the opcode at index 0.  Numbering is
# by dispatch hotness: the vm's if/elif chain tests them in order.

OP_BINOP = 0  # (op, dst, a, b, plan, slow)
OP_LDE = 1  # (op, dst, slot, idx, esize, smode, line, info)
OP_STEP = 2  # (op, n)
OP_JZ = 3  # (op, src, target, line, rdmsg, rdline)
OP_CONV = 4  # (op, dst, src, plan, slow)
OP_STE = 5  # (op, addr, src, esize, mask, line, info)
OP_JMP = 6  # (op, target)
OP_CHKE = 7  # (op, dst, slot, idx, esize, line, info)
OP_MOV = 8  # (op, dst, src)
OP_JNZ = 9  # (op, src, target, line, rdmsg, rdline)
OP_LDG = 10  # (op, dst, slot, size, smode, line, info)
OP_STG = 11  # (op, slot, src, size, mask, line, info)
OP_SEQPT = 12  # (op,)
OP_INC = 13  # (op, dst, src, plan, slow)
OP_LDA = 14  # (op, dst, addr, esize, smode, line, info)
OP_UNOP = 15  # (op, dst, src, plan, slow)
OP_NOT = 16  # (op, dst, src, line, rdmsg, rdline)
OP_BOOL = 17  # (op, dst, src, line, rdmsg, rdline)
OP_LOADI = 18  # (op, dst, value)
OP_RDCHK = 19  # (op, src, msg, line)
OP_CALL = 20  # (op, dst, name, ctype, args, line)
OP_RET = 21  # (op, src, rtype, rdmsg, rdline)
OP_DECL = 22  # (op, node, slot, line)
OP_BINDR = 23  # (op, dst, name, size, signed, is_bool)
OP_PUSHSC = 24  # (op,)
OP_POPSC = 25  # (op,)
OP_RAISE = 26  # (op, kind, message, line)
OP_STR = 27  # (op, dst, text)
OP_DEREF = 28  # (op, dst, src, line, rdmsg, rdline, ptype)
OP_LDL = 29  # (op, dst, lv, line, plans)
OP_PINC = 30  # (op, dst, old_dst, delta, slow)
OP_PBIN = 31  # (op, dst, a, b, slow, keep)
OP_STL = 32  # (op, lv, src, line, plans)
OP_PIDX = 33  # (op, dst, a, b, line, info)
OP_PCONV = 34  # (op, dst, src, target, line, rdmsg, rdline, source)
OP_DECAY = 35  # (op, dst, slot, line, name)
OP_BINDP = 36  # (op, dst, name, size)

#: Opcodes that can never raise: the only instructions allowed between a
#: deferred register read and its consuming check without reordering the
#: report (see :meth:`_FnCompiler.protect_read`).
_SAFE_OPS = frozenset(
    (OP_STEP, OP_MOV, OP_LOADI, OP_JMP, OP_SEQPT, OP_PUSHSC, OP_POPSC, OP_STR)
)

#: The register-destination operand positions of each opcode, used by the
#: compile-time clobber scan behind :meth:`_FnCompiler.snapshot`.  Opcodes
#: absent here write no registers.  (``OP_INC`` position 2 and ``OP_CALL``
#: position 1 may hold -1 for "no destination"; register numbers are never
#: negative, so the scan needs no special case.)
_DST_FIELDS = {
    OP_BINOP: (1,),
    OP_LDE: (1,),
    OP_CONV: (1,),
    OP_CHKE: (1,),
    OP_MOV: (1,),
    OP_LDG: (1,),
    OP_INC: (1, 2),
    OP_LDA: (1,),
    OP_UNOP: (1,),
    OP_NOT: (1,),
    OP_BOOL: (1,),
    OP_LOADI: (1,),
    OP_CALL: (1,),
    OP_BINDR: (1,),
    OP_STR: (1,),
    OP_DEREF: (1,),
    OP_LDL: (1,),
    OP_PINC: (1, 2),
    OP_PBIN: (1,),
    OP_PIDX: (1,),
    OP_PCONV: (1,),
    OP_DECAY: (1,),
    OP_BINDP: (1,),
}

#: ``smode`` load decode: 0 unsigned, 1 signed two's-complement, 2 _Bool.
_SMODE_UNSIGNED = 0
_SMODE_SIGNED = 1
_SMODE_BOOL = 2


class FnCode:
    """One compiled function body."""

    __slots__ = (
        "name",
        "code",
        "n_regs",
        "r_init",
        "n_slots",
        "rtype",
        "max_steps",
        "limit_message",
    )

    def __init__(
        self,
        name: str,
        code: tuple,
        n_regs: int,
        r_init: tuple,
        n_slots: int,
        rtype: ct.CType,
        max_steps: int,
    ) -> None:
        self.name = name
        self.code = code
        self.n_regs = n_regs
        self.r_init = r_init
        self.n_slots = n_slots
        self.rtype = rtype
        self.max_steps = max_steps
        self.limit_message = f"execution exceeded {max_steps} steps"


class CompiledProgram:
    """All natively compiled functions of one translation unit.

    ``fallbacks`` maps every function left to the lowered closures to the
    reason its compilation stopped (the :class:`_Unsupported` message).
    """

    __slots__ = ("functions", "order_mode", "options", "fallbacks")

    def __init__(
        self,
        functions: dict,
        order_mode: int,
        options: CheckerOptions,
        fallbacks: Optional[dict] = None,
    ) -> None:
        self.functions = functions
        self.order_mode = order_mode
        self.options = options
        self.fallbacks = fallbacks if fallbacks is not None else {}


# ---------------------------------------------------------------------------
# Raw arithmetic plans
# ---------------------------------------------------------------------------
#
# Raw-int ports of lowering's `_int_binary_plan` / `_int_conversion_plan`:
# same rules, same error kinds and messages, but ``int -> int`` so the VM
# never boxes on the fast path.  Comparisons yield 0/1.

_RAW_CONV_PLANS: dict = {}


def raw_conversion_plan(target: ct.CType, profile: ct.ImplementationProfile):
    """``int -> int`` port of ``_int_conversion_plan`` (None if unplanable)."""
    if not isinstance(target, _FLAT_INT_TYPES):
        return None
    key = (target, profile)
    plan = _RAW_CONV_PLANS.get(key)
    if plan is None and key not in _RAW_CONV_PLANS:
        if isinstance(target, ct.BoolType):
            def plan(value: int) -> int:
                return 1 if value != 0 else 0
        else:
            lo, hi = ct.integer_range(target, profile)
            bits = ct.integer_bits(target, profile)
            signed = ct.is_signed_type(target, profile)
            mask = (1 << bits) - 1
            half = 1 << (bits - 1)

            def plan(value: int) -> int:
                if lo <= value <= hi:
                    return value
                wrapped = value & mask
                if signed and wrapped >= half:
                    wrapped -= 1 << bits
                return wrapped
        if len(_RAW_CONV_PLANS) < 65536:
            _RAW_CONV_PLANS[key] = plan
    return plan


_RELATIONAL = {"<": True, ">": True, "<=": True, ">=": True, "==": True, "!=": True}


def raw_binary_plan(
    op: str,
    left_type: ct.CType,
    right_type: ct.CType,
    options: CheckerOptions,
    line: int,
):
    """``(int, int) -> int`` port of ``_int_binary_plan``.

    Returns ``(plan, common_type)`` or ``None`` when the operand types are
    not planable — which makes the compiling function fall back, keeping
    the generic checked path authoritative.
    """
    if not isinstance(left_type, _FLAT_INT_TYPES) or not isinstance(
        right_type, _FLAT_INT_TYPES
    ):
        return None
    profile = options.profile
    try:
        common = ct.usual_arithmetic_conversions(left_type, right_type, profile)
    except (TypeError, AssertionError):
        return None
    if not isinstance(common, ct.IntType):
        return None
    lo, hi = ct.integer_range(common, profile)
    bits = ct.integer_bits(common, profile)
    signed = ct.is_signed_type(common, profile)
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    check_arithmetic = options.check_arithmetic

    def conv(value: int) -> int:
        if lo <= value <= hi:
            return value
        wrapped = value & mask
        if signed and wrapped >= half:
            wrapped -= 1 << bits
        return wrapped

    def arith_result(value: int, overflow_possible: bool = True) -> int:
        if lo <= value <= hi:
            return value
        if signed:
            if check_arithmetic and overflow_possible:
                raise UndefinedBehaviorError(
                    UBKind.SIGNED_OVERFLOW,
                    f"Signed integer overflow: result {value} does not fit in {common}.",
                    line=line,
                )
            wrapped = value & mask
            if wrapped >= half:
                wrapped -= 1 << bits
            return wrapped
        return value & mask

    if op in _RELATIONAL:
        import operator as _operator
        comparator = {
            "<": _operator.lt,
            ">": _operator.gt,
            "<=": _operator.le,
            ">=": _operator.ge,
            "==": _operator.eq,
            "!=": _operator.ne,
        }[op]

        def compare(a: int, b: int) -> int:
            return 1 if comparator(conv(a), conv(b)) else 0
        return compare, ct.INT

    if op == "+":
        def add(a: int, b: int) -> int:
            return arith_result(conv(a) + conv(b))
        return add, common
    if op == "-":
        def sub(a: int, b: int) -> int:
            return arith_result(conv(a) - conv(b))
        return sub, common
    if op == "*":
        def mul(a: int, b: int) -> int:
            return arith_result(conv(a) * conv(b))
        return mul, common
    if op in ("/", "%"):
        is_div = op == "/"

        def divmod_(a: int, b: int) -> int:
            a = conv(a)
            b = conv(b)
            if b == 0:
                if check_arithmetic:
                    raise UndefinedBehaviorError(
                        UBKind.DIVISION_BY_ZERO,
                        "Division or modulus by zero.",
                        line=line,
                    )
                return 0
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if is_div:
                return arith_result(quotient)
            return arith_result(a - quotient * b)
        return divmod_, common
    if op in ("&", "|", "^"):
        import operator as _operator
        bitop = {"&": _operator.and_, "|": _operator.or_, "^": _operator.xor}[op]

        def bitwise(a: int, b: int) -> int:
            return arith_result(bitop(conv(a), conv(b)), overflow_possible=False)
        return bitwise, common
    if op in ("<<", ">>"):
        is_left = op == "<<"

        def shift(a: int, b: int) -> int:
            a = conv(a)
            b = conv(b)
            if check_arithmetic and (b < 0 or b >= bits):
                raise UndefinedBehaviorError(
                    UBKind.SHIFT_TOO_FAR,
                    f"Shift amount {b} is negative or >= width of the type "
                    f"({bits} bits).",
                    line=line,
                )
            b = max(0, min(b, bits - 1))
            if is_left:
                if check_arithmetic and signed and a < 0:
                    raise UndefinedBehaviorError(
                        UBKind.SHIFT_NEGATIVE,
                        "Left shift of a negative value.",
                        line=line,
                    )
                result = a << b
                if signed and check_arithmetic and not lo <= result <= hi:
                    raise UndefinedBehaviorError(
                        UBKind.SHIFT_OVERFLOW,
                        f"Left shift of {a} by {b} overflows {common}.",
                        line=line,
                    )
                return arith_result(result, overflow_possible=not signed)
            return a >> b
        return shift, common
    return None


def raw_unary_plan(op: str, operand_type: ct.CType, options: CheckerOptions, line: int):
    """Raw plan for unary ``+``/``-``/``~`` (promote, operate, overflow-check).

    Returns ``(plan, promoted_type)`` or None.  Mirrors the lowered
    ``run_arith`` path: ``_promote`` then ``_arith_result`` on the promoted
    type — the overflow message names the promoted type.
    """
    if not isinstance(operand_type, _FLAT_INT_TYPES):
        return None
    profile = options.profile
    promoted = ct.promote_integer(operand_type, profile)
    if not isinstance(promoted, _FLAT_INT_TYPES):
        return None
    to_promoted = raw_conversion_plan(promoted, profile)
    if to_promoted is None:
        return None
    lo, hi = ct.integer_range(promoted, profile)
    bits = ct.integer_bits(promoted, profile)
    signed = ct.is_signed_type(promoted, profile)
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    check_arithmetic = options.check_arithmetic
    result_type = promoted.unqualified()

    def arith_result(value: int) -> int:
        if lo <= value <= hi:
            return value
        if signed:
            if check_arithmetic:
                raise UndefinedBehaviorError(
                    UBKind.SIGNED_OVERFLOW,
                    f"Signed integer overflow: result {value} does not fit in "
                    f"{result_type}.",
                    line=line,
                )
            wrapped = value & mask
            if wrapped >= half:
                wrapped -= 1 << bits
            return wrapped
        return value & mask

    if op == "+":
        return to_promoted, result_type
    if op == "-":
        def negate(value: int) -> int:
            return arith_result(-to_promoted(value))
        return negate, result_type
    if op == "~":
        def invert(value: int) -> int:
            return arith_result(~to_promoted(value))
        return invert, result_type
    return None


def raw_incdec_plan(delta: int, var_type: ct.CType, options: CheckerOptions, line: int):
    """Raw plan for ``++``/``--`` on a register variable.

    Composes promote -> ``_arith_result(value + delta)`` at the promoted
    type -> conversion back to the variable type, exactly the lowered
    ``run_incdec_ident`` integer path.
    """
    if not isinstance(var_type, _FLAT_INT_TYPES):
        return None
    profile = options.profile
    promoted = ct.promote_integer(var_type, profile)
    if not isinstance(promoted, _FLAT_INT_TYPES):
        return None
    to_promoted = raw_conversion_plan(promoted, profile)
    to_var = raw_conversion_plan(var_type, profile)
    if to_promoted is None or to_var is None:
        return None
    lo, hi = ct.integer_range(promoted, profile)
    bits = ct.integer_bits(promoted, profile)
    signed = ct.is_signed_type(promoted, profile)
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    check_arithmetic = options.check_arithmetic
    promoted_type = promoted.unqualified()

    def plan(value: int) -> int:
        result = to_promoted(value) + delta
        if not lo <= result <= hi:
            if signed:
                if check_arithmetic:
                    raise UndefinedBehaviorError(
                        UBKind.SIGNED_OVERFLOW,
                        f"Signed integer overflow: result {result} does not fit "
                        f"in {promoted_type}.",
                        line=line,
                    )
                result = result & mask
                if result >= half:
                    result -= 1 << bits
            else:
                result = result & mask
        return to_var(result)
    return plan


# ---------------------------------------------------------------------------
# Compile-time variable model
# ---------------------------------------------------------------------------

class _RegVar:
    """A flat integer scalar living in a virtual register."""

    __slots__ = ("reg", "ctype", "read_msg", "signed", "is_bool", "size")

    def __init__(
        self, reg: int, ctype: ct.CType, profile: ct.ImplementationProfile
    ) -> None:
        self.reg = reg
        self.ctype = ctype
        self.size = ct.size_of(ctype, profile)
        self.is_bool = isinstance(ctype, ct.BoolType)
        self.signed = ct.is_signed_type(ctype, profile)
        # The message `_read_binding` raises on an uninitialized read of this
        # binding; None when the uninit side condition does not apply
        # (character types stay exempt, matching the walker).
        if ctype.is_scalar and not ct.is_character_type(ctype):
            self.read_msg = (
                "Read of an uninitialized (indeterminate) value " f"of type {ctype}."
            )
        else:
            self.read_msg = None


def _is_native_pointer(ctype: Optional[ct.CType]) -> bool:
    """``T *`` with a flat integer ``T``: the pointer types kept in registers."""
    return isinstance(ctype, ct.PointerType) and isinstance(
        ctype.pointee, _FLAT_INT_TYPES
    )


class _PtrVar:
    """A flat-integer pointer local living in a virtual register.

    The register holds the boxed value the lowered engine would read back
    from the object — a ``PointerValue`` typed as the variable's unqualified
    type, another ``CValue`` in the rare non-pointer cases, or ``UNINIT``.
    """

    __slots__ = ("reg", "ctype", "read_msg", "size")

    def __init__(
        self, reg: int, ctype: ct.CType, profile: ct.ImplementationProfile
    ) -> None:
        self.reg = reg
        self.ctype = ctype
        self.size = ct.size_of(ctype, profile)
        # Pointers are non-character scalars: the uninit side condition of
        # `_read_binding` always applies.
        self.read_msg = (
            "Read of an uninitialized (indeterminate) value " f"of type {ctype}."
        )


_REGISTER_VARS = (_RegVar, _PtrVar)


def _is_place_target(node) -> bool:
    """Lvalue shapes compiled to a memory :class:`_Place`."""
    return isinstance(node, c_ast.ArraySubscript) or (
        isinstance(node, c_ast.UnaryOp) and node.op == "*"
    )


class _Place:
    """A compiled memory lvalue: an array element or a dereferenced pointer.

    ``var`` is the array's :class:`_MemVar` when ``addr`` holds a ``CHKE``
    element address, None when it holds an ``LValue`` (pointer path).
    """

    __slots__ = ("addr", "elem", "var", "line")

    def __init__(self, addr: int, elem: ct.CType, var, line: int) -> None:
        self.addr = addr
        self.elem = elem
        self.var = var
        self.line = line


class _MemVar:
    """A memory-resident variable (local/global array, global scalar)."""

    __slots__ = (
        "slot", "ctype", "is_array", "elem", "esize", "smode", "length", "info"
    )

    def __init__(
        self, slot: int, ctype: ct.CType, profile: ct.ImplementationProfile
    ) -> None:
        self.slot = slot
        self.ctype = ctype
        self.is_array = isinstance(ctype, ct.ArrayType)
        elem = ctype.element if self.is_array else ctype
        self.elem = elem
        self.esize = ct.size_of(elem, profile)
        self.length = ctype.length if self.is_array else None
        if isinstance(elem, ct.BoolType):
            self.smode = _SMODE_BOOL
        elif ct.is_signed_type(elem, profile):
            self.smode = _SMODE_SIGNED
        else:
            self.smode = _SMODE_UNSIGNED
        # Slow-path info: everything vm._slow_* needs to rebuild the exact
        # lowered access (access plan fields + element type + uninit flag).
        uninit = elem.is_scalar and not ct.is_character_type(elem)
        try:
            align = ct.align_of(elem, profile)
        except ct.LayoutError:
            align = 1
        from repro.core.lowering import _int_conversion_plan
        self.info = (
            elem,
            self.esize,
            align,
            uninit,
            elem.const,
            _int_conversion_plan(elem, profile),
        )


class _Value:
    """Compile-time description of an expression result."""

    __slots__ = ("reg", "ctype", "read_msg", "read_line")

    def __init__(
        self,
        reg: int,
        ctype: Optional[ct.CType],
        read_msg: Optional[str] = None,
        read_line: int = 0,
    ) -> None:
        self.reg = reg
        self.ctype = ctype  # None: void (discard-only)
        self.read_msg = read_msg  # uninit-read message of a direct var read
        self.read_line = read_line  # the read site (where lowered reports)


_BAD = object()  # scope marker: name exists but is not natively accessible


class _FnCompiler:
    """Compiles one function definition to :class:`FnCode`.

    Raises :class:`_Unsupported` as soon as the body leaves the native
    subset; the caller then simply omits the function from the program.
    """

    def __init__(
        self,
        definition: c_ast.FunctionDef,
        unit_globals: dict,
        unit_functions: dict,
        options: CheckerOptions,
        order_mode: int,
        L: LoweringContext,
    ) -> None:
        self.definition = definition
        self.unit_globals = unit_globals  # name -> CType (objects)
        self.unit_functions = unit_functions  # name -> FunctionType
        self.options = options
        self.profile = options.profile
        self.order_mode = order_mode
        self.L = L
        self.code: list = []
        self.scopes: list[dict] = [{}]
        self.n_regs = 0
        self.n_slots = 0
        self.consts: dict[int, int] = {}
        self.pending_steps = 0
        self.dirty = False  # memory locs possibly nonempty
        self.pending_names: set[str] = set()  # register writes this region
        self.loop_stack: list[tuple] = []  # (break_l, cont_l, scope_depth)
        self.labels: dict[int, int] = {}  # label id -> pc
        self.next_label = 0
        self.global_slots: dict[str, _MemVar] = {}
        self.check_seq = options.check_sequencing
        self.check_uninit = options.check_uninitialized

    # -- infrastructure ----------------------------------------------------

    def new_reg(self) -> int:
        reg = self.n_regs
        self.n_regs += 1
        return reg

    def const_reg(self, value: int) -> int:
        # Constants live in registers pre-loaded by ``r_init``; they are
        # only ever read, so one register per distinct value suffices.
        reg = self.consts.get(value)
        if reg is None:
            reg = self.new_reg()
            self.consts[value] = reg
        return reg

    def new_label(self) -> int:
        label = self.next_label
        self.next_label = 1 + label
        return label

    def bind(self, label: int) -> None:
        self.flush_steps()
        self.labels[label] = len(self.code)

    def emit(self, ins: tuple) -> None:
        self.code.append(ins)

    def flush_steps(self) -> None:
        if self.pending_steps:
            self.emit((OP_STEP, self.pending_steps))
            self.pending_steps = 0

    def emit_jmp(self, label: int) -> None:
        self.flush_steps()
        self.emit((OP_JMP, label))

    def emit_jz(self, value: _Value, label: int, line: int) -> None:
        self.flush_steps()
        self.emit((OP_JZ, value.reg, label, line, value.read_msg, value.read_line))

    def emit_jnz(self, value: _Value, label: int, line: int) -> None:
        self.flush_steps()
        self.emit((OP_JNZ, value.reg, label, line, value.read_msg, value.read_line))

    def emit_seqpt(self) -> None:
        """A lowered ``memory.sequence_point()`` site."""
        if self.dirty:
            self.emit((OP_SEQPT,))
            self.dirty = False
        self.pending_names.clear()

    def protect_read(self, value: _Value, mark: int) -> None:
        """Eagerly check a deferred register read overtaken by later code.

        A direct register read costs no instruction; its uninitialized-read
        check rides along to the consumer.  That is only report-order-safe
        while nothing between the read site and the consumer can raise.
        When a potentially raising instruction was emitted after ``mark``
        (the end of the read's own stream) — a sibling operand with a
        bounds check, a folded-UB raise, a call — the lowered engine would
        report the read *first*, so insert the check eagerly at ``mark``.
        """
        if value.read_msg is None or not self.check_uninit:
            return
        if all(ins[0] in _SAFE_OPS for ins in self.code[mark:]):
            return
        self.code.insert(mark, (OP_RDCHK, value.reg, value.read_msg, value.read_line))
        for label, pc in self.labels.items():
            if pc >= mark:
                self.labels[label] = pc + 1
        value.read_msg = None

    def snapshot(self, value: _Value, mark: int) -> _Value:
        """Copy a held register value that later code clobbers.

        A variable read costs no instruction — the value IS the variable's
        register.  When a sibling subtree compiled after it assigns that
        same variable (``i + (i = 2)``), the register no longer holds the
        value the earlier operand computed by the time the consumer reads
        it.  Scan the code emitted since ``mark`` (the end of the value's
        own stream) for a write to the register; if one exists, insert a
        MOV into a fresh temporary at ``mark`` — before the clobbering
        stream runs — and hand the consumer the temporary.  No-op, and no
        run-time cost, in the overwhelmingly common unclobbered case.
        """
        for ins in self.code[mark:]:
            for field in _DST_FIELDS.get(ins[0], ()):
                if ins[field] == value.reg:
                    break
            else:
                continue
            break
        else:
            return value
        temp = self.new_reg()
        self.code.insert(mark, (OP_MOV, temp, value.reg))
        for label, pc in self.labels.items():
            if pc >= mark:
                self.labels[label] = pc + 1
        return _Value(temp, value.ctype, value.read_msg, value.read_line)

    # -- static sequencing of register operations --------------------------
    #
    # The lowered engine detects unsequenced conflicts through the byte
    # locations of *memory* writes.  Register variables never touch memory
    # here, so conflicts between register operations are resolved at compile
    # time instead: a read or write of a register written earlier in the
    # same region *may* be the conflict the generic path reports — fall
    # back and let it.

    def sim_read(self, name: str) -> None:
        if self.check_seq and name in self.pending_names:
            raise _Unsupported("potentially unsequenced register read")

    def sim_write(self, name: str) -> None:
        if self.check_seq:
            if name in self.pending_names:
                raise _Unsupported("potentially unsequenced register write")
            self.pending_names.add(name)

    # -- scope handling ----------------------------------------------------

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        var = self.global_slots.get(name)
        if var is not None:
            return var
        gtype = self.unit_globals.get(name)
        if gtype is not None:
            if isinstance(gtype, ct.ArrayType):
                if gtype.length is None or not isinstance(
                    gtype.element, _FLAT_INT_TYPES
                ):
                    raise _Unsupported(f"global '{name}' outside native subset")
            elif not isinstance(gtype, _FLAT_INT_TYPES):
                raise _Unsupported(f"global '{name}' outside native subset")
            var = _MemVar(self.new_slot(), gtype, self.profile)
            self.global_slots[name] = var
            return var
        return None

    def new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    # -- entry point -------------------------------------------------------

    def compile(self) -> FnCode:
        definition = self.definition
        ftype = definition.type
        if not isinstance(ftype, ct.FunctionType) or ftype.variadic:
            raise _Unsupported("variadic or untyped definition")
        if definition.body is None:
            raise _Unsupported("definition without a body")
        rtype = ftype.return_type
        if not (rtype.is_void or isinstance(rtype, _FLAT_INT_TYPES)):
            raise _Unsupported("non-flat return type")
        # Parameters: flat scalars become registers bound from the freshly
        # written parameter objects; any other parameter type poisons its
        # name (touching it falls back) but not the function.
        scope = self.scopes[0]
        for index, param_type in enumerate(ftype.parameters):
            if index >= len(definition.parameter_names):
                raise _Unsupported("unnamed parameter")
            name = definition.parameter_names[index]
            if param_type.is_void:
                continue
            if isinstance(param_type, _FLAT_INT_TYPES):
                var = _RegVar(self.new_reg(), param_type, self.profile)
                scope[name] = var
                self.emit((OP_BINDR, var.reg, name, var.size, var.signed, var.is_bool))
            elif _is_native_pointer(param_type):
                var = _PtrVar(self.new_reg(), param_type, self.profile)
                scope[name] = var
                self.emit((OP_BINDP, var.reg, name, var.size))
            else:
                scope[name] = _BAD
        # The function-body compound charges no step and pushes no scope
        # (LoweredFunction.run_body runs it with new_scope=False).
        for item in definition.body.items:
            self.compile_block_item(item)
        self.flush_steps()
        self.emit((OP_RET, -1, None, None, 0))
        code = self._patch_jumps()
        r_init = [UNINIT] * self.n_regs
        for value, reg in self.consts.items():
            r_init[reg] = value
        return FnCode(
            definition.name,
            code,
            self.n_regs,
            tuple(r_init),
            self.n_slots,
            rtype,
            self.options.max_steps,
        )

    def _patch_jumps(self) -> tuple:
        labels = self.labels
        patched = []
        for ins in self.code:
            op = ins[0]
            if op == OP_JMP:
                patched.append((op, labels[ins[1]]))
            elif op == OP_JZ or op == OP_JNZ:
                patched.append((op, ins[1], labels[ins[2]], ins[3], ins[4], ins[5]))
            else:
                patched.append(ins)
        return tuple(patched)

    # -- statements --------------------------------------------------------

    def compile_block_item(self, item) -> None:
        if isinstance(item, c_ast.Declaration):
            self.compile_declaration(item)
        elif isinstance(item, c_ast.StaticAssert):
            self.pending_steps += 1  # lowered charges the node, then no-ops
        elif isinstance(item, c_ast.Statement):
            self.compile_statement(item)
        else:
            raise _Unsupported(f"block item {type(item).__name__}")

    def compile_statement(self, stmt) -> None:
        handler = self._STMTS.get(type(stmt))
        if handler is None:
            raise _Unsupported(f"statement {type(stmt).__name__}")
        handler(self, stmt)

    def stmt_expression(self, stmt: c_ast.ExpressionStmt) -> None:
        self.pending_steps += 1
        if stmt.expression is not None:
            value = self.compile_expr(stmt.expression, discard=True)
            self._discard_check(value, stmt.expression)
        self.emit_seqpt()

    def _discard_check(self, value: _Value, expr) -> None:
        """A discarded value whose computation was a bare variable read still
        raises the lowered uninitialized-read error; check it explicitly."""
        if value.read_msg is not None and self.check_uninit:
            self.emit((OP_RDCHK, value.reg, value.read_msg, value.read_line))

    def stmt_compound(self, stmt: c_ast.Compound) -> None:
        self.pending_steps += 1
        self.push_scope()
        try:
            for item in stmt.items:
                self.compile_block_item(item)
        finally:
            self.pop_scope()

    def push_scope(self) -> None:
        self.scopes.append({})
        self.emit((OP_PUSHSC,))

    def pop_scope(self) -> None:
        self.scopes.pop()
        self.emit((OP_POPSC,))

    def stmt_if(self, stmt: c_ast.If) -> None:
        self.pending_steps += 1
        condition = self.compile_expr(stmt.condition)
        self.emit_seqpt()
        pending_before = set(self.pending_names)
        else_label = self.new_label()
        self.emit_jz(condition, else_label, stmt.line)
        self.compile_statement(stmt.then)
        dirty_then = self.dirty
        pending_then = self.pending_names
        if stmt.otherwise is not None:
            end_label = self.new_label()
            self.emit_jmp(end_label)
            self.bind(else_label)
            self.dirty = False
            self.pending_names = set(pending_before)
            self.compile_statement(stmt.otherwise)
            self.bind(end_label)
        else:
            self.bind(else_label)
            self.pending_names = set(pending_before)
        self.dirty = self.dirty or dirty_then
        self.pending_names |= pending_then

    def stmt_while(self, stmt: c_ast.While) -> None:
        self.pending_steps += 1
        top = self.new_label()
        end = self.new_label()
        self.bind(top)
        self.pending_steps += 1  # per-iteration charge
        condition = self.compile_expr(stmt.condition)
        self.emit_seqpt()
        self.emit_jz(condition, end, stmt.line)
        self.loop_stack.append((end, top, len(self.scopes)))
        self.compile_statement(stmt.body)
        self.loop_stack.pop()
        self.emit_jmp(top)
        self.bind(end)
        self.dirty = True  # conservative across the loop join
        self.pending_names.clear()

    def stmt_dowhile(self, stmt: c_ast.DoWhile) -> None:
        self.pending_steps += 1
        top = self.new_label()
        cont = self.new_label()
        end = self.new_label()
        self.bind(top)
        self.pending_steps += 1
        self.loop_stack.append((end, cont, len(self.scopes)))
        self.compile_statement(stmt.body)
        self.loop_stack.pop()
        self.bind(cont)
        condition = self.compile_expr(stmt.condition)
        self.emit_seqpt()
        self.emit_jnz(condition, top, stmt.line)
        self.bind(end)
        self.dirty = True
        self.pending_names.clear()

    def stmt_for(self, stmt: c_ast.For) -> None:
        self.pending_steps += 1
        self.push_scope()
        try:
            init = stmt.init
            if isinstance(init, c_ast.Declaration):
                self.compile_declaration(init)
            elif isinstance(init, list):
                for declaration in init:
                    self.compile_declaration(declaration)
            elif init is not None:
                value = self.compile_expr(init, discard=True)
                self._discard_check(value, init)
                self.emit_seqpt()
            top = self.new_label()
            cont = self.new_label()
            end = self.new_label()
            self.bind(top)
            self.pending_steps += 1
            if stmt.condition is not None:
                condition = self.compile_expr(stmt.condition)
                self.emit_seqpt()
                self.emit_jz(condition, end, stmt.line)
            self.loop_stack.append((end, cont, len(self.scopes)))
            self.compile_statement(stmt.body)
            self.loop_stack.pop()
            self.bind(cont)
            if stmt.step is not None:
                value = self.compile_expr(stmt.step, discard=True)
                self._discard_check(value, stmt.step)
                self.emit_seqpt()
            self.emit_jmp(top)
            self.bind(end)
            self.dirty = True
            self.pending_names.clear()
        finally:
            self.pop_scope()

    def stmt_break(self, stmt: c_ast.Break) -> None:
        if not self.loop_stack:
            raise _Unsupported("break outside a native loop")
        self.pending_steps += 1
        break_label, _cont, scope_depth = self.loop_stack[-1]
        self.flush_steps()
        for _ in range(len(self.scopes) - scope_depth):
            self.emit((OP_POPSC,))
        self.emit_jmp(break_label)

    def stmt_continue(self, stmt: c_ast.Continue) -> None:
        if not self.loop_stack:
            raise _Unsupported("continue outside a native loop")
        self.pending_steps += 1
        _break, cont_label, scope_depth = self.loop_stack[-1]
        self.flush_steps()
        for _ in range(len(self.scopes) - scope_depth):
            self.emit((OP_POPSC,))
        self.emit_jmp(cont_label)

    def stmt_return(self, stmt: c_ast.Return) -> None:
        self.pending_steps += 1
        if stmt.value is None:
            self.emit_seqpt()
            self.flush_steps()
            self.emit((OP_RET, -1, None, None, 0))
            return
        value = self.compile_expr(stmt.value)
        if value.ctype is None:
            raise _Unsupported("returning a void value")
        self._require_flat(value)
        self.emit_seqpt()
        self.flush_steps()
        self.emit((OP_RET, value.reg, value.ctype, value.read_msg, value.read_line))

    def stmt_static_assert(self, stmt: c_ast.StaticAssert) -> None:
        self.pending_steps += 1  # lowered charges the node, then no-ops

    _STMTS = {}

    # -- declarations ------------------------------------------------------

    def compile_declaration(self, decl: c_ast.Declaration) -> None:
        if decl.storage not in (None, "auto", "register"):
            raise _Unsupported(f"storage class {decl.storage!r}")
        ctype = decl.type
        if ctype is None or isinstance(ctype, ct.FunctionType):
            raise _Unsupported("local function declaration")
        self.pending_steps += 1  # the Declaration statement node
        if isinstance(ctype, _FLAT_INT_TYPES):
            self._declare_register(decl, ctype)
            return
        if _is_native_pointer(ctype):
            self._declare_pointer(decl, ctype)
            return
        if (
            isinstance(ctype, ct.ArrayType)
            and isinstance(ctype.element, _FLAT_INT_TYPES)
            and ctype.length is not None
        ):
            self._declare_array(decl, ctype)
            return
        raise _Unsupported(f"declaration of type {ctype}")

    def _declare_register(self, decl: c_ast.Declaration, ctype: ct.CType) -> None:
        initializer = decl.initializer
        var = _RegVar(self.new_reg(), ctype, self.profile)
        if initializer is None or self._walker_safe(initializer):
            # The shared declaration executor runs the initializer (it
            # cannot touch registerized state — walker-safety was checked)
            # and charges the walker's per-node steps itself; the register
            # then binds from the freshly initialized object bytes.
            self.flush_steps()
            self.emit((OP_DECL, decl, -1, decl.line))
            self.emit((OP_BINDR, var.reg, decl.name, var.size, var.signed, var.is_bool))
            self.scopes[-1][decl.name] = var
            self.dirty = False  # exec_local_declaration sequence-points
            self.pending_names.clear()
            return
        if isinstance(initializer, c_ast.InitList):
            raise _Unsupported("scalar initializer list with register reads")
        # Initializer references registerized state: run the declaration
        # without it, then compile the initialization natively (same step
        # charges, same checks, register stays authoritative).
        bare = dc_replace(decl, initializer=None)
        self.flush_steps()
        self.emit((OP_DECL, bare, -1, decl.line))
        # Declare before compiling the initializer: C scopes the name from
        # its declarator on, so `int x = x;` reads the fresh (indeterminate) x.
        self.scopes[-1][decl.name] = var
        if ctype.const:
            raise _Unsupported("const register initializer in native path")
        value = self.compile_expr(initializer)
        converted = self.convert_to(value, ctype, decl.line)
        self.emit((OP_MOV, var.reg, converted.reg))
        self.sim_write(decl.name)
        self.emit_seqpt()

    def _declare_pointer(self, decl: c_ast.Declaration, ctype: ct.PointerType) -> None:
        """``T *p [= init];`` — the register twin of :meth:`_declare_register`."""
        initializer = decl.initializer
        var = _PtrVar(self.new_reg(), ctype, self.profile)
        if initializer is None or self._walker_safe(initializer):
            self.flush_steps()
            self.emit((OP_DECL, decl, -1, decl.line))
            self.emit((OP_BINDP, var.reg, decl.name, var.size))
            self.scopes[-1][decl.name] = var
            self.dirty = False
            self.pending_names.clear()
            return
        if isinstance(initializer, c_ast.InitList) or ctype.const:
            raise _Unsupported("pointer initializer with register reads")
        self.flush_steps()
        self.emit((OP_DECL, dc_replace(decl, initializer=None), -1, decl.line))
        self.scopes[-1][decl.name] = var
        value = self.compile_expr(initializer)
        converted = self.convert_pointer(value, ctype, decl.line)
        self.emit((OP_MOV, var.reg, converted.reg))
        self.sim_write(decl.name)
        self.emit_seqpt()

    def _declare_array(self, decl: c_ast.Declaration, ctype: ct.ArrayType) -> None:
        initializer = decl.initializer
        if initializer is not None and not self._walker_safe(initializer):
            raise _Unsupported("array initializer reads registerized state")
        var = _MemVar(self.new_slot(), ctype, self.profile)
        self.flush_steps()
        self.emit((OP_DECL, decl, var.slot, decl.line))
        self.scopes[-1][decl.name] = var
        self.dirty = False
        self.pending_names.clear()

    def _walker_safe(self, expr) -> bool:
        """True when the shared (walker) executor can run ``expr`` without
        observing registerized state: no identifier in it names a register
        variable.  Memory-resident variables, globals, calls, and literals
        are coherent either way."""
        for node in c_ast.walk(expr):
            if isinstance(node, c_ast.Identifier):
                for scope in reversed(self.scopes):
                    var = scope.get(node.name)
                    if var is not None:
                        if isinstance(var, _REGISTER_VARS) or var is _BAD:
                            return False
                        break
        return True

    # -- expressions -------------------------------------------------------

    def compile_expr(self, expr, discard: bool = False) -> _Value:
        L = self.L
        if L.fold:
            try:
                folded = _try_fold(expr, L)
            except _FoldUB as fold_error:
                self.pending_steps += _subtree_step_cost(expr)
                self.flush_steps()
                self.emit(
                    (OP_RAISE, fold_error.kind, fold_error.message, fold_error.line)
                )
                return _Value(self.const_reg(0), ct.INT)
            if folded is not None:
                self.pending_steps += _subtree_step_cost(expr)
                return _Value(self.const_reg(folded.value), folded.type)
        handler = self._EXPRS.get(type(expr))
        if handler is None:
            raise _Unsupported(f"expression {type(expr).__name__}")
        return handler(self, expr, discard)

    def expr_int_literal(self, expr: c_ast.IntegerLiteral, discard) -> _Value:
        # Only reached with folding off (never in practice for the compiled
        # engine, which compiles with the folding context); keep it correct.
        self.pending_steps += 1
        return _Value(self.const_reg(expr.value), expr.type or ct.INT)

    def expr_char_literal(self, expr: c_ast.CharLiteral, discard) -> _Value:
        self.pending_steps += 1
        return _Value(self.const_reg(expr.value), ct.INT)

    def expr_string_literal(self, expr: c_ast.StringLiteral, discard) -> _Value:
        self.pending_steps += 1
        dst = self.new_reg()
        self.emit((OP_STR, dst, expr.value))
        # The register holds a boxed PointerValue; only the call-argument
        # path may consume it (enforced by ctype=None handling elsewhere).
        return _Value(dst, ct.PointerType(pointee=ct.CHAR))

    def expr_identifier(self, expr: c_ast.Identifier, discard) -> _Value:
        self.pending_steps += 1
        var = self.lookup(expr.name)
        if var is None or var is _BAD:
            raise _Unsupported(f"identifier '{expr.name}' outside native subset")
        if isinstance(var, _REGISTER_VARS):
            self.sim_read(expr.name)
            return _Value(var.reg, var.ctype.unqualified(), var.read_msg, expr.line)
        dst = self.new_reg()
        if var.is_array:
            # Array-to-pointer decay: the binding's cached decayed pointer.
            self.emit((OP_DECAY, dst, var.slot, expr.line, expr.name))
            return _Value(dst, ct.PointerType(pointee=var.elem))
        self.emit(
            (
                OP_LDG,
                dst,
                var.slot,
                var.esize,
                var.smode,
                expr.line,
                (expr.name, var.info),
            )
        )
        return _Value(dst, var.elem.unqualified())

    def expr_unary(self, expr: c_ast.UnaryOp, discard) -> _Value:
        op = expr.op
        if op in ("++pre", "--pre", "++post", "--post"):
            return self._compile_incdec(expr, discard)
        if op == "*":
            self.pending_steps += 1
            place = self._compile_deref_place(expr)
            return _Value(self._emit_load(place), place.elem.unqualified())
        if op == "!":
            self.pending_steps += 1
            value = self.compile_expr(expr.operand)
            self._require_scalar(value)
            dst = self.new_reg()
            self.emit(
                (OP_NOT, dst, value.reg, expr.line, value.read_msg, value.read_line)
            )
            return _Value(dst, ct.INT)
        if op in ("+", "-", "~"):
            self.pending_steps += 1
            value = self.compile_expr(expr.operand)
            self._require_flat(value)
            planned = raw_unary_plan(op, value.ctype, self.options, expr.line)
            if planned is None:
                raise _Unsupported(f"unary {op} on {value.ctype}")
            plan, result_type = planned
            dst = self.new_reg()
            slow = (
                f"operand of unary {op}",
                expr.line,
                value.ctype,
                value.read_msg,
                value.read_line,
                plan,
            )
            self.emit((OP_UNOP, dst, value.reg, plan, slow))
            return _Value(dst, result_type)
        raise _Unsupported(f"unary operator {op!r}")

    def _require_flat(self, value: _Value) -> None:
        if value.ctype is None or not isinstance(value.ctype, _FLAT_INT_TYPES):
            raise _Unsupported("non-flat operand")

    def _require_scalar(self, value: _Value) -> None:
        """A truth-tested operand: flat integer or native pointer (the
        branch/boolean slow paths hand non-int values to ``to_boolean``)."""
        if not _is_native_pointer(value.ctype):
            self._require_flat(value)

    def _compile_incdec(self, expr: c_ast.UnaryOp, discard) -> _Value:
        delta = 1 if expr.op.startswith("++") else -1
        is_post = expr.op.endswith("post")
        operand = expr.operand
        self.pending_steps += 1
        if isinstance(operand, c_ast.Identifier):
            var = self.lookup(operand.name)
            if var is None or var is _BAD:
                raise _Unsupported("incdec target outside native subset")
            if isinstance(var, _PtrVar):
                self.pending_steps += 1  # the binding resolve step
                if var.ctype.const:
                    raise _Unsupported("incdec on const lvalue")
                self.sim_read(operand.name)
                self.sim_write(operand.name)
                old_dst = self.new_reg() if is_post else -1
                slow = (expr.line, var.ctype.unqualified(), var.read_msg)
                self.emit((OP_PINC, var.reg, old_dst, delta, slow))
                result_reg = old_dst if is_post else var.reg
                return _Value(result_reg, var.ctype.unqualified())
            if isinstance(var, _RegVar):
                self.pending_steps += 1  # the binding resolve step
                if var.ctype.const:
                    raise _Unsupported("incdec on const lvalue")
                plan = raw_incdec_plan(delta, var.ctype, self.options, expr.line)
                if plan is None:
                    raise _Unsupported("incdec plan unavailable")
                self.sim_read(operand.name)
                self.sim_write(operand.name)
                old_dst = self.new_reg() if is_post else -1
                slow = (expr.line, var.ctype.unqualified(), var.read_msg, plan)
                self.emit((OP_INC, var.reg, old_dst, plan, slow))
                result_reg = old_dst if is_post else var.reg
                return _Value(result_reg, var.ctype.unqualified())
            # Memory scalar (global): load, plan, store.
            if var.is_array:
                raise _Unsupported("incdec on an array")
            if var.elem.const:
                raise _Unsupported("incdec on const lvalue")
            self.pending_steps += 1
            old = self.new_reg()
            self.emit(
                (
                    OP_LDG,
                    old,
                    var.slot,
                    var.esize,
                    var.smode,
                    expr.line,
                    (operand.name, var.info),
                )
            )
            plan = raw_incdec_plan(delta, var.elem, self.options, expr.line)
            if plan is None:
                raise _Unsupported("incdec plan unavailable")
            new = self.new_reg()
            slow = (
                "operand of ++/--", expr.line, var.elem.unqualified(), None, 0, plan
            )
            self.emit((OP_UNOP, new, old, plan, slow))
            self._emit_store_global(var, operand.name, _Value(new, var.elem), expr.line)
            return _Value(old if is_post else new, var.elem.unqualified())
        if _is_place_target(operand):
            place = self._compile_place(operand)
            elem = place.elem
            old = self._emit_load(place)
            if elem.const:
                raise _Unsupported("incdec on const element")
            plan = raw_incdec_plan(delta, elem, self.options, expr.line)
            if plan is None:
                raise _Unsupported("incdec plan unavailable")
            new = self.new_reg()
            slow = ("operand of ++/--", expr.line, elem.unqualified(), None, 0, plan)
            self.emit((OP_UNOP, new, old, plan, slow))
            self._emit_store(place, _Value(new, elem), expr.line)
            return _Value(old if is_post else new, elem.unqualified())
        raise _Unsupported("incdec on unsupported lvalue")

    def expr_binary(self, expr: c_ast.BinaryOp, discard) -> _Value:
        op = expr.op
        if op == "&&" or op == "||":
            return self._compile_logical(expr)
        self.pending_steps += 1
        if self.order_mode == 0:
            left = self.compile_expr(expr.left)
            mark = len(self.code)
            right = self.compile_expr(expr.right)
            grown = len(self.code)
            self.protect_read(left, mark)
            left = self.snapshot(left, mark + (len(self.code) - grown))
        else:
            right = self.compile_expr(expr.right)
            mark = len(self.code)
            left = self.compile_expr(expr.left)
            grown = len(self.code)
            self.protect_read(right, mark)
            right = self.snapshot(right, mark + (len(self.code) - grown))
        if _is_native_pointer(left.ctype) or _is_native_pointer(right.ctype):
            return self._pointer_binary(op, left, right, expr.line)
        self._require_flat(left)
        self._require_flat(right)
        planned = raw_binary_plan(op, left.ctype, right.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"binary {op} on {left.ctype}, {right.ctype}")
        plan, result_type = planned
        dst = self.new_reg()
        slow = (
            op,
            expr.line,
            left.ctype,
            right.ctype,
            left.read_msg,
            left.read_line,
            right.read_msg,
            right.read_line,
            plan,
        )
        self.emit((OP_BINOP, dst, left.reg, right.reg, plan, slow))
        return _Value(dst, result_type)

    def _pointer_binary(
        self, op: str, left: _Value, right: _Value, line: int
    ) -> _Value:
        """Pointer arithmetic and comparison: always ``apply_binary``.

        A pointer-typed result is stored boxed (``keep``): its register never
        holds a raw int (the ablated uninitialized cases make
        ``apply_binary`` return an ``IntValue`` where a pointer was meant).
        """
        left_ptr = _is_native_pointer(left.ctype)
        right_ptr = _is_native_pointer(right.ctype)
        for value, is_ptr in ((left, left_ptr), (right, right_ptr)):
            if not is_ptr:
                self._require_flat(value)
        if op in _RELATIONAL:
            result_type = ct.INT
        elif op == "+" and left_ptr != right_ptr:
            result_type = left.ctype if left_ptr else right.ctype
        elif op == "-" and left_ptr:
            if right_ptr:
                pointee = left.ctype.pointee.unqualified()
                if pointee != right.ctype.pointee.unqualified():
                    raise _Unsupported("difference of incompatible pointers")
                result_type = ct.LONG
            else:
                result_type = left.ctype
        else:
            raise _Unsupported(f"binary {op} on {left.ctype}, {right.ctype}")
        keep = _is_native_pointer(result_type)
        dst = self.new_reg()
        slow = (
            op,
            line,
            left.ctype,
            right.ctype,
            left.read_msg,
            left.read_line,
            right.read_msg,
            right.read_line,
            None,
        )
        self.emit((OP_PBIN, dst, left.reg, right.reg, slow, keep))
        return _Value(dst, result_type)

    def _compile_logical(self, expr: c_ast.BinaryOp) -> _Value:
        is_and = expr.op == "&&"
        self.pending_steps += 1
        left = self.compile_expr(expr.left)
        self._require_scalar(left)
        self.emit_seqpt()
        dst = self.new_reg()
        short_label = self.new_label()
        end_label = self.new_label()
        pending_before = set(self.pending_names)
        if is_and:
            self.emit_jz(left, short_label, expr.line)
        else:
            self.emit_jnz(left, short_label, expr.line)
        right = self.compile_expr(expr.right)
        self._require_scalar(right)
        self.emit((OP_BOOL, dst, right.reg, expr.line, right.read_msg, right.read_line))
        self.emit_jmp(end_label)
        self.bind(short_label)
        self.emit((OP_LOADI, dst, 0 if is_and else 1))
        self.bind(end_label)
        self.pending_names |= pending_before
        return _Value(dst, ct.INT)

    def expr_conditional(self, expr: c_ast.Conditional, discard) -> _Value:
        self.pending_steps += 1
        condition = self.compile_expr(expr.condition)
        self.emit_seqpt()
        pending_before = set(self.pending_names)
        else_label = self.new_label()
        end_label = self.new_label()
        self.emit_jz(condition, else_label, expr.line)
        then_value = self.compile_expr(expr.then, discard=discard)
        pending_then = self.pending_names
        dirty_then = self.dirty
        dst = self.new_reg()
        self._emit_arm_result(then_value, dst, expr.then)
        self.emit_jmp(end_label)
        self.bind(else_label)
        self.pending_names = set(pending_before)
        self.dirty = False
        else_value = self.compile_expr(expr.otherwise, discard=discard)
        self._emit_arm_result(else_value, dst, expr.otherwise)
        self.bind(end_label)
        self.pending_names |= pending_then
        self.dirty = self.dirty or dirty_then
        if then_value.ctype is None or else_value.ctype is None:
            if discard and then_value.ctype is None and else_value.ctype is None:
                return _Value(dst, None)
            raise _Unsupported("void conditional arm")
        if then_value.ctype != else_value.ctype:
            raise _Unsupported("conditional arms of differing types")
        return _Value(dst, then_value.ctype)

    def _emit_arm_result(self, value: _Value, dst: int, node) -> None:
        if value.ctype is None:
            return
        if value.read_msg is not None and self.check_uninit:
            self.emit((OP_RDCHK, value.reg, value.read_msg, value.read_line))
        if value.reg != dst:
            self.emit((OP_MOV, dst, value.reg))

    def expr_comma(self, expr: c_ast.Comma, discard) -> _Value:
        self.pending_steps += 1
        left = self.compile_expr(expr.left, discard=True)
        self._discard_check(left, expr.left)
        self.emit_seqpt()
        return self.compile_expr(expr.right, discard=discard)

    def expr_cast(self, expr: c_ast.Cast, discard) -> _Value:
        target = expr.target_type
        if isinstance(expr.operand, c_ast.InitList):
            raise _Unsupported("compound literal")
        self.pending_steps += 1
        value = self.compile_expr(
            expr.operand, discard=target is not None and target.is_void
        )
        if target is not None and target.is_void:
            self._discard_check(value, expr.operand)
            return _Value(value.reg, None)
        if _is_native_pointer(target):
            return self.convert_pointer(value, target, expr.line, explicit=True)
        if not isinstance(target, _FLAT_INT_TYPES):
            raise _Unsupported(f"cast to {target}")
        self._require_flat(value)
        plan = raw_conversion_plan(target, self.profile)
        if plan is None:
            raise _Unsupported("cast plan unavailable")
        dst = self.new_reg()
        slow = (target.unqualified(), expr.line, value.read_msg, value.read_line)
        self.emit((OP_CONV, dst, value.reg, plan, slow))
        return _Value(dst, target.unqualified())

    def expr_subscript(self, expr: c_ast.ArraySubscript, discard) -> _Value:
        self.pending_steps += 1
        parts = self._subscript_parts(expr)
        if parts is None:
            place = self._compile_pointer_subscript(expr)
            return _Value(self._emit_load(place), place.elem.unqualified())
        reg, var = self._compile_subscript_load(expr, parts)
        return _Value(reg, var.elem.unqualified())

    def _subscript_parts(self, expr: c_ast.ArraySubscript):
        """Resolve which side is the array; keep syntactic evaluation order.

        None when neither side names an array variable: the subscript then
        goes through a pointer value (:meth:`_compile_pointer_subscript`).
        """
        def array_var(node):
            if isinstance(node, c_ast.Identifier):
                var = self.lookup(node.name)
                if isinstance(var, _MemVar) and var.is_array:
                    return var
            return None
        a_var = array_var(expr.array)
        i_var = array_var(expr.index)
        if a_var is not None and i_var is None:
            return a_var, expr.array, expr.index, False
        if a_var is None and i_var is not None:
            return i_var, expr.index, expr.array, True
        if a_var is None:
            return None
        raise _Unsupported("subscript outside native subset")

    def _compile_subscript_load(self, expr: c_ast.ArraySubscript, parts):
        var, array_node, index_node, swapped = parts
        index = self._compile_subscript_index(
            expr, var, array_node, index_node, swapped
        )
        dst = self.new_reg()
        self.emit(
            (
                OP_LDE,
                dst,
                var.slot,
                index.reg,
                var.esize,
                var.smode,
                expr.line,
                (
                    array_node.name,
                    index.ctype,
                    index.read_msg,
                    index.read_line,
                    var.info,
                ),
            )
        )
        return dst, var

    def _compile_subscript_index(
        self, expr, var, array_node, index_node, swapped
    ) -> _Value:
        # The array identifier charges one step and decays (no read); the
        # index expression runs per the order mode, in syntactic positions.
        if self.order_mode == 0:
            if swapped:
                index = self.compile_expr(index_node)
                self.pending_steps += 1
            else:
                self.pending_steps += 1
                index = self.compile_expr(index_node)
        else:
            if swapped:
                self.pending_steps += 1
                index = self.compile_expr(index_node)
            else:
                index = self.compile_expr(index_node)
                self.pending_steps += 1
        self._require_flat(index)
        return index

    def _compile_subscript_address(self, expr: c_ast.ArraySubscript, parts):
        """CHKE: resolve the element address (pointer-add checks) now."""
        var, array_node, index_node, swapped = parts
        index = self._compile_subscript_index(
            expr, var, array_node, index_node, swapped
        )
        addr = self.new_reg()
        self.emit(
            (
                OP_CHKE,
                addr,
                var.slot,
                index.reg,
                var.esize,
                expr.line,
                (
                    array_node.name,
                    index.ctype,
                    index.read_msg,
                    index.read_line,
                    var.info,
                ),
            )
        )
        return addr, var

    # -- pointer lvalues ---------------------------------------------------

    def _compile_pointer_subscript(self, expr: c_ast.ArraySubscript) -> _Place:
        """``e1[e2]`` through a pointer value: PIDX, the lowered subscript
        core (``_require_pointer``/``_require_int``/``_pointer_add``)."""
        if self.order_mode == 0:
            first = self.compile_expr(expr.array)
            mark = len(self.code)
            second = self.compile_expr(expr.index)
            grown = len(self.code)
            self.protect_read(first, mark)
            base = self.snapshot(first, mark + (len(self.code) - grown))
            index = second
        else:
            first = self.compile_expr(expr.index)
            mark = len(self.code)
            base = self.compile_expr(expr.array)
            grown = len(self.code)
            self.protect_read(first, mark)
            index = self.snapshot(first, mark + (len(self.code) - grown))
        if _is_native_pointer(base.ctype):
            pointer = base
            self._require_flat(index)
        elif _is_native_pointer(index.ctype):
            pointer = index
            self._require_flat(base)
        else:
            raise _Unsupported("subscript outside native subset")
        dst = self.new_reg()
        info = (
            base.ctype,
            base.read_msg,
            base.read_line,
            index.ctype,
            index.read_msg,
            index.read_line,
        )
        self.emit((OP_PIDX, dst, base.reg, index.reg, expr.line, info))
        return _Place(dst, pointer.ctype.pointee, None, expr.line)

    def _compile_deref_place(self, expr: c_ast.UnaryOp) -> _Place:
        """``*e``: DEREF, the lowered ``_deref_to_lvalue``."""
        value = self.compile_expr(expr.operand)
        if not _is_native_pointer(value.ctype):
            raise _Unsupported(f"dereference of {value.ctype}")
        dst = self.new_reg()
        self.emit(
            (
                OP_DEREF,
                dst,
                value.reg,
                expr.line,
                value.read_msg,
                value.read_line,
                value.ctype,
            )
        )
        return _Place(dst, value.ctype.pointee, None, expr.line)

    def _compile_place(self, target) -> _Place:
        """A memory lvalue target; charges the lvalue node's step."""
        self.pending_steps += 1
        if isinstance(target, c_ast.UnaryOp):
            return self._compile_deref_place(target)
        parts = self._subscript_parts(target)
        if parts is None:
            return self._compile_pointer_subscript(target)
        addr, var = self._compile_subscript_address(target, parts)
        return _Place(addr, var.elem, var, target.line)

    def _emit_load(self, place: _Place) -> int:
        dst = self.new_reg()
        var = place.var
        if var is not None:
            self.emit(
                (OP_LDA, dst, place.addr, var.esize, var.smode, place.line, var.info)
            )
        else:
            self.emit((OP_LDL, dst, place.addr, place.line, _AccessPlanCache()))
        return dst

    def _emit_store(self, place: _Place, value: _Value, line: int) -> None:
        if place.var is not None:
            self._emit_store_element(place.var, place.addr, value, line)
            return
        if place.elem.const:
            raise _Unsupported("store through a pointer to const")
        self.emit((OP_STL, place.addr, value.reg, line, _AccessPlanCache()))
        if self.check_seq:
            self.dirty = True

    def expr_assignment(self, expr: c_ast.Assignment, discard) -> _Value:
        target = expr.target
        if isinstance(target, c_ast.Identifier):
            var = self.lookup(target.name)
            if var is None or var is _BAD:
                raise _Unsupported("assignment target outside native subset")
            if isinstance(var, _RegVar):
                return self._assign_register(expr, var)
            if isinstance(var, _PtrVar):
                return self._assign_pointer(expr, var)
            if var.is_array:
                raise _Unsupported("assignment to an array")
            return self._assign_global(expr, var)
        if _is_place_target(target):
            return self._assign_element(expr)
        raise _Unsupported("assignment target outside native subset")

    def _assign_pointer(self, expr: c_ast.Assignment, var: _PtrVar) -> _Value:
        name = expr.target.name
        if var.ctype.const:
            raise _Unsupported("assignment to const register")
        self.pending_steps += 1
        if expr.op == "=":
            if self.order_mode == 0:
                self.pending_steps += 1  # binding resolve
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                self.pending_steps += 1
            converted = self.convert_pointer(value, var.ctype, expr.line)
            self.sim_write(name)
            self.emit((OP_MOV, var.reg, converted.reg))
            return _Value(var.reg, var.ctype.unqualified())
        # Compound: the lowered engine reads the old value before the rhs
        # runs and stores apply_binary's result unconverted when it is a
        # pointer (PCONV is the identity on it, and covers the rest).
        self.pending_steps += 1  # binding resolve
        self.sim_read(name)
        if self.check_uninit:
            self.emit((OP_RDCHK, var.reg, var.read_msg, expr.line))
        old = _Value(var.reg, var.ctype.unqualified())
        mark = len(self.code)
        rhs = self.compile_expr(expr.value)
        old = self.snapshot(old, mark)
        result = self._pointer_binary(expr.op[:-1], old, rhs, expr.line)
        if not _is_native_pointer(result.ctype):
            raise _Unsupported(f"compound {expr.op} on a pointer")
        converted = self.convert_pointer(result, var.ctype, expr.line)
        self.sim_write(name)
        self.emit((OP_MOV, var.reg, converted.reg))
        return _Value(var.reg, var.ctype.unqualified())

    def _assign_register(self, expr: c_ast.Assignment, var: _RegVar) -> _Value:
        name = expr.target.name
        if var.ctype.const:
            raise _Unsupported("assignment to const register")
        self.pending_steps += 1
        if expr.op == "=":
            if self.order_mode == 0:
                self.pending_steps += 1  # binding resolve
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                self.pending_steps += 1
            converted = self.convert_to(value, var.ctype, expr.line)
            self.sim_write(name)
            if converted.reg != var.reg:
                self.emit((OP_MOV, var.reg, converted.reg))
            return _Value(var.reg, var.ctype.unqualified())
        # Compound assignment: resolve, read, rhs, op, convert, write.
        op = expr.op[:-1]
        self.pending_steps += 1  # binding resolve
        self.sim_read(name)
        old = _Value(var.reg, var.ctype.unqualified(), var.read_msg, expr.line)
        mark = len(self.code)
        rhs = self.compile_expr(expr.value)
        self.protect_read(old, mark)
        self._require_flat(rhs)
        planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"compound {op} plan unavailable")
        plan, result_type = planned
        result = self.new_reg()
        slow = (
            op,
            expr.line,
            old.ctype,
            rhs.ctype,
            old.read_msg,
            old.read_line,
            rhs.read_msg,
            rhs.read_line,
            plan,
        )
        self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
        converted = self.convert_to(_Value(result, result_type), var.ctype, expr.line)
        self.sim_write(name)
        if converted.reg != var.reg:
            self.emit((OP_MOV, var.reg, converted.reg))
        return _Value(var.reg, var.ctype.unqualified())

    def _assign_global(self, expr: c_ast.Assignment, var: _MemVar) -> _Value:
        name = expr.target.name
        if var.elem.const:
            raise _Unsupported("assignment to const global")
        self.pending_steps += 1
        if expr.op == "=":
            if self.order_mode == 0:
                self.pending_steps += 1
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                self.pending_steps += 1
            converted = self.convert_to(value, var.elem, expr.line)
            self._emit_store_global(var, name, converted, expr.line)
            return _Value(converted.reg, var.elem.unqualified())
        op = expr.op[:-1]
        self.pending_steps += 1
        old_reg = self.new_reg()
        self.emit(
            (
                OP_LDG,
                old_reg,
                var.slot,
                var.esize,
                var.smode,
                expr.line,
                (name, var.info),
            )
        )
        old = _Value(old_reg, var.elem.unqualified())
        rhs = self.compile_expr(expr.value)
        self._require_flat(rhs)
        planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"compound {op} plan unavailable")
        plan, result_type = planned
        result = self.new_reg()
        slow = (
            op,
            expr.line,
            old.ctype,
            rhs.ctype,
            None,
            0,
            rhs.read_msg,
            rhs.read_line,
            plan,
        )
        self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
        converted = self.convert_to(_Value(result, result_type), var.elem, expr.line)
        self._emit_store_global(var, name, converted, expr.line)
        return _Value(converted.reg, var.elem.unqualified())

    def _assign_element(self, expr: c_ast.Assignment) -> _Value:
        target = expr.target
        self.pending_steps += 1  # the assignment node
        if expr.op == "=":
            if self.order_mode == 0:
                place = self._compile_place(target)
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                mark = len(self.code)
                place = self._compile_place(target)
                grown = len(self.code)
                self.protect_read(value, mark)
                value = self.snapshot(value, mark + (len(self.code) - grown))
            if place.elem.const:
                raise _Unsupported("assignment to const element")
            converted = self.convert_to(value, place.elem, expr.line)
            self._emit_store(place, converted, expr.line)
            return _Value(converted.reg, place.elem.unqualified())
        op = expr.op[:-1]
        place = self._compile_place(target)  # resolved first in every mode
        elem = place.elem
        if elem.const:
            raise _Unsupported("assignment to const element")
        old = _Value(self._emit_load(place), elem.unqualified())
        rhs = self.compile_expr(expr.value)
        self._require_flat(rhs)
        planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"compound {op} plan unavailable")
        plan, result_type = planned
        result = self.new_reg()
        slow = (
            op,
            expr.line,
            old.ctype,
            rhs.ctype,
            None,
            0,
            rhs.read_msg,
            rhs.read_line,
            plan,
        )
        self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
        converted = self.convert_to(_Value(result, result_type), elem, expr.line)
        self._emit_store(place, converted, expr.line)
        return _Value(converted.reg, elem.unqualified())

    def _emit_store_global(
        self, var: _MemVar, name: str, value: _Value, line: int
    ) -> None:
        mask = (1 << (var.esize * 8)) - 1
        self.emit(
            (
                OP_STG,
                var.slot,
                value.reg,
                var.esize,
                mask,
                line,
                (name, self.check_seq, value.read_msg, value.read_line, var.info),
            )
        )
        if self.check_seq:
            self.dirty = True

    def _emit_store_element(
        self, var: _MemVar, addr: int, value: _Value, line: int
    ) -> None:
        mask = (1 << (var.esize * 8)) - 1
        self.emit(
            (
                OP_STE,
                addr,
                value.reg,
                var.esize,
                mask,
                line,
                (self.check_seq, value.read_msg, value.read_line, var.info),
            )
        )
        if self.check_seq:
            self.dirty = True

    def convert_to(self, value: _Value, target: ct.CType, line: int) -> _Value:
        """Convert a flat value to ``target`` (assignment conversion)."""
        self._require_flat(value)
        plan = raw_conversion_plan(target, self.profile)
        if plan is None:
            raise _Unsupported("conversion plan unavailable")
        dst = self.new_reg()
        slow = (target.unqualified(), line, value.read_msg, value.read_line)
        self.emit((OP_CONV, dst, value.reg, plan, slow))
        return _Value(dst, target.unqualified())

    def convert_pointer(
        self, value: _Value, target: ct.CType, line: int, explicit: bool = False
    ) -> _Value:
        """Convert a pointer or integer value to a native pointer type
        (``convert`` on the boxed value, PCONV)."""
        if not _is_native_pointer(value.ctype):
            self._require_flat(value)
        dst = self.new_reg()
        self.emit(
            (
                OP_PCONV,
                dst,
                value.reg,
                target.unqualified(),
                line,
                value.read_msg,
                value.read_line,
                (value.ctype, explicit),
            )
        )
        return _Value(dst, target.unqualified())

    def expr_call(self, expr: c_ast.Call, discard) -> _Value:
        function = expr.function
        if not isinstance(function, c_ast.Identifier):
            raise _Unsupported("call through a non-identifier designator")
        name = function.name
        # Compile-time designator resolution mirroring the lowered resolve:
        # a local or global *object* shadowing the name forces the function-
        # pointer path (unsupported); a unit function or builtin resolves.
        for scope in reversed(self.scopes):
            if name in scope:
                raise _Unsupported("call through a shadowed designator")
        if name in self.unit_globals:
            raise _Unsupported("call through an object designator")
        ftype = self.unit_functions.get(name)
        if ftype is None:
            if name not in BUILTIN_FUNCTIONS:
                # Undeclared: the lowered engine reports at run time, with
                # argument evaluation unreached; fall back to preserve that.
                raise _Unsupported(f"call to undeclared '{name}'")
        self.pending_steps += 1
        argument_values: list[Optional[_Value]] = [None] * len(expr.arguments)
        marks: list[int] = [0] * len(expr.arguments)
        if self.order_mode == 0:
            order = range(len(expr.arguments))
        else:
            order = range(len(expr.arguments) - 1, -1, -1)
        for position in order:
            argument_values[position] = self.compile_expr(expr.arguments[position])
            marks[position] = len(self.code)
        # Deferred read checks of earlier arguments must not be overtaken
        # by raising instructions in later arguments' streams (the call
        # itself checks the *surviving* deferred reads in argument order).
        # Latest stream first, so earlier insertion points stay valid; an
        # inserted check is itself a raising instruction, cascading the
        # protection to every argument evaluated before it.
        for position in sorted(range(len(marks)), key=marks.__getitem__, reverse=True):
            grown = len(self.code)
            self.protect_read(argument_values[position], marks[position])
            argument_values[position] = self.snapshot(
                argument_values[position], marks[position] + (len(self.code) - grown)
            )
        args = []
        for position, value in enumerate(argument_values):
            if value.ctype is None:
                raise _Unsupported("void argument")
            args.append((value.reg, value.ctype, value.read_msg, value.read_line))
        # Result typing: unit functions return their declared type; builtin
        # results are only usable when discarded (no static type available).
        if ftype is not None:
            rtype = ftype.return_type
        else:
            rtype = None
        if rtype is not None and isinstance(rtype, _FLAT_INT_TYPES):
            dst = self.new_reg()
            result = _Value(dst, rtype.unqualified())
        elif discard or (rtype is not None and rtype.is_void):
            dst = -1
            result = _Value(-1, None)
        else:
            raise _Unsupported("call result type outside native subset")
        self.flush_steps()
        self.emit((OP_CALL, dst, name, ftype, tuple(args), expr.line))
        # The call site runs a real sequence point before entering the
        # callee, which clears the sequencing window for register state
        # too.  Unit functions save/restore the (now empty) location set,
        # so memory is clean afterwards; a builtin may add new locations.
        self.pending_names.clear()
        self.dirty = ftype is None and self.check_seq
        return result

    _EXPRS = {}


_FnCompiler._STMTS = {
    c_ast.ExpressionStmt: _FnCompiler.stmt_expression,
    c_ast.Compound: _FnCompiler.stmt_compound,
    c_ast.If: _FnCompiler.stmt_if,
    c_ast.While: _FnCompiler.stmt_while,
    c_ast.DoWhile: _FnCompiler.stmt_dowhile,
    c_ast.For: _FnCompiler.stmt_for,
    c_ast.Break: _FnCompiler.stmt_break,
    c_ast.Continue: _FnCompiler.stmt_continue,
    c_ast.Return: _FnCompiler.stmt_return,
    c_ast.StaticAssert: _FnCompiler.stmt_static_assert,
}

_FnCompiler._EXPRS = {
    c_ast.IntegerLiteral: _FnCompiler.expr_int_literal,
    c_ast.CharLiteral: _FnCompiler.expr_char_literal,
    c_ast.StringLiteral: _FnCompiler.expr_string_literal,
    c_ast.Identifier: _FnCompiler.expr_identifier,
    c_ast.UnaryOp: _FnCompiler.expr_unary,
    c_ast.BinaryOp: _FnCompiler.expr_binary,
    c_ast.Assignment: _FnCompiler.expr_assignment,
    c_ast.Conditional: _FnCompiler.expr_conditional,
    c_ast.Comma: _FnCompiler.expr_comma,
    c_ast.Cast: _FnCompiler.expr_cast,
    c_ast.ArraySubscript: _FnCompiler.expr_subscript,
    c_ast.Call: _FnCompiler.expr_call,
}


# ---------------------------------------------------------------------------
# Unit compilation
# ---------------------------------------------------------------------------

_ORDER_MODES = {"left-to-right": 0, "right-to-left": 1}


def compile_unit_bytecode(
    unit: c_ast.TranslationUnit, options: CheckerOptions
) -> Optional[CompiledProgram]:
    """Compile every native-subset function of ``unit``; None if none fit.

    The evaluation order must be pre-resolved (fixed strategies only): the
    bytecode hard-codes operand order, so scripted/search strategies keep
    using the walker's decision points.
    """
    order_mode = _ORDER_MODES.get(options.evaluation_order)
    if order_mode is None:
        return None
    unit_globals: dict[str, ct.CType] = {}
    unit_functions: dict[str, ct.FunctionType] = {}
    definitions: list[c_ast.FunctionDef] = []
    for declaration in unit.declarations:
        if isinstance(declaration, c_ast.FunctionDef):
            if isinstance(declaration.type, ct.FunctionType):
                unit_functions[declaration.name] = declaration.type
                if declaration.body is not None:
                    definitions.append(declaration)
        elif isinstance(declaration, c_ast.Declaration):
            if declaration.storage == "typedef":
                continue
            if isinstance(declaration.type, ct.FunctionType):
                unit_functions.setdefault(declaration.name, declaration.type)
            elif declaration.type is not None:
                unit_globals[declaration.name] = declaration.type
    functions: dict[str, FnCode] = {}
    fallbacks: dict[str, str] = {}
    L = LoweringContext(options)
    for definition in definitions:
        compiler = _FnCompiler(
            definition, unit_globals, unit_functions, options, order_mode, L
        )
        try:
            functions[definition.name] = compiler.compile()
        except _Unsupported as reason:
            fallbacks[definition.name] = str(reason)
        except _FoldUB as fold_error:
            fallbacks[definition.name] = f"constant folding: {fold_error.message}"
    if not functions:
        return None
    return CompiledProgram(functions, order_mode, options, fallbacks)
