"""The dispatch loop of the compiled engine.

:func:`run_native` executes one :class:`repro.core.bytecode.FnCode` inside a
live :class:`~repro.core.interpreter.Interpreter` activation: the caller
(``Interpreter._execute_call_body``) has already allocated and written the
parameter objects, and consumes the returned :class:`CValue` through the
same return-value post-processing the walker and the lowered closures use.

Design notes
------------

* **One frame.**  The whole function body runs inside this single Python
  frame: a ``while`` loop over a tuple of instruction tuples, registers in
  a plain list.  Fast paths touch raw ints only (``v.__class__ is int``);
  the ``UNINIT`` sentinel and boxed values automatically fail that test
  and fall into slow helpers that rebuild the exact lowered-engine
  behavior by calling the *shared* helpers (``_read_binding``,
  ``_write_with_plan``, ``apply_binary``, ``to_boolean``, ...), so error
  kinds, messages, and order never fork from the lowered semantics.
  Pointer registers hold boxed ``PointerValue`` objects, so every pointer
  opcode is such a slow path over ``_pointer_add``, ``_deref_to_lvalue``,
  ``_read_with_plan``/``_write_with_plan`` and ``apply_binary``.
* **Memory slots** cache ``(data, base, size, binding)`` per activation:
  local arrays bind at their ``DECL``, globals bind lazily on first touch.
  ``data`` is the object's arena-backed byte store; flat loads/stores go
  through its ``read_int``/``write_int`` integer fast path and fall back
  to the generic byte path whenever exotic (symbolic/indeterminate) bytes
  are in range.
* **Sequencing** keeps feeding ``Memory.locs_written`` with plain
  ``(base, offset)`` tuples (hash-equal to the ``ByteLocation`` entries of
  the generic path), so unsequenced-conflict detection composes with any
  non-native code in the same program.
* **Steps** accumulate in a local and are synchronized with
  ``interp._steps`` around every boundary that can observe them (calls,
  declarations, returns, resource-limit raises).
"""

from __future__ import annotations

from repro.cfront import ctypes as ct
from repro.core.bytecode import (
    _SMODE_SIGNED,
    CompiledProgram,
    FnCode,
    OP_BINDP,
    OP_BINDR,
    OP_BINOP,
    OP_BOOL,
    OP_CALL,
    OP_CHKE,
    OP_CONV,
    OP_DECAY,
    OP_DECL,
    OP_DEREF,
    OP_INC,
    OP_JMP,
    OP_JNZ,
    OP_JZ,
    OP_LDA,
    OP_LDE,
    OP_LDG,
    OP_LDL,
    OP_LOADI,
    OP_MOV,
    OP_NOT,
    OP_PBIN,
    OP_PCONV,
    OP_PIDX,
    OP_PINC,
    OP_POPSC,
    OP_PUSHSC,
    OP_RAISE,
    OP_RDCHK,
    OP_RET,
    OP_SEQPT,
    OP_STE,
    OP_STEP,
    OP_STG,
    OP_STL,
    OP_STR,
    OP_UNOP,
    UNINIT,
)
from repro.core.conversions import convert, to_boolean
from repro.core.environment import LValue
from repro.core.lowering import _read_binding, _read_with_plan, _write_with_plan
from repro.core.memory import ArenaBytes
from repro.core.values import (
    ConcreteByte,
    IndeterminateValue,
    IntValue,
    PointerValue,
    UnknownByte,
    decode_value,
    unknown_bytes,
)
from repro.errors import ResourceLimitError, UBKind, UndefinedBehaviorError

__all__ = ["run_native"]


# ---------------------------------------------------------------------------
# Raw byte-store access (tolerates the dict store's plain byte lists)
# ---------------------------------------------------------------------------

def _read_flat(data, offset: int, size: int, signed: bool):
    """Read a little-endian integer; None when any byte is not concrete."""
    if type(data) is ArenaBytes:
        return data.read_int(offset, size, signed)
    value = 0
    for index in range(size):
        byte = data[offset + index]
        if type(byte) is not ConcreteByte:
            return None
        value |= (byte.value & 0xFF) << (8 * index)
    if signed:
        half = 1 << (size * 8 - 1)
        if value >= half:
            value -= half << 1
    return value


def _write_flat(data, offset: int, size: int, value: int) -> None:
    """Write a masked (non-negative) little-endian integer."""
    if type(data) is ArenaBytes:
        data.write_int(offset, size, value)
        return
    data[offset:offset + size] = [
        ConcreteByte((value >> (8 * index)) & 0xFF) for index in range(size)
    ]


# ---------------------------------------------------------------------------
# Boxing between registers and CValues
# ---------------------------------------------------------------------------

def _box(value, ctype: ct.CType, profile):
    """Box a register value for a shared helper (slow paths only)."""
    if value.__class__ is int:
        return IntValue(value, ctype)
    if value is UNINIT:
        try:
            size = ct.size_of(ctype, profile)
        except ct.LayoutError:
            size = 0
        return IndeterminateValue(type=ctype, data=tuple(unknown_bytes(size)))
    return value  # already a CValue (string-literal pointer)


def _unbox(value):
    """Unbox a shared-helper result back into a register value."""
    if type(value) is IntValue:
        return value.value
    if type(value) is IndeterminateValue:
        return UNINIT
    return value


def _raise_read(msg: str, line: int):
    raise UndefinedBehaviorError(UBKind.UNINITIALIZED_READ, msg, line=line)


_UNSEQ_WRITE = (
    "Unsequenced side effect on scalar object with side effect of same object."
)


# ---------------------------------------------------------------------------
# Slot binding
# ---------------------------------------------------------------------------

def _bind_slot(interp, S: list, slot: int, name: str):
    """Resolve the runtime object behind a memory slot (cached per call)."""
    binding = interp.frames[-1].lookup(name)
    if binding is None:
        binding = interp.global_bindings[name]
    obj = interp.memory.objects[binding.base]
    record = (obj.data, binding.base, obj.size, binding)
    S[slot] = record
    return record


# ---------------------------------------------------------------------------
# Slow helpers (cold paths; every one defers to the shared semantics)
# ---------------------------------------------------------------------------

def _cond_slow(interp, value, rdmsg, rdline: int, line: int) -> bool:
    """A branch condition that is not a raw int (UNINIT or boxed)."""
    options = interp.options
    if value is UNINIT:
        if rdmsg is not None and options.check_uninitialized:
            _raise_read(rdmsg, rdline)
        value = IndeterminateValue(type=ct.INT, data=())
    return to_boolean(value, options, line=line)


def _check_pair_reads(interp, a, amsg, aline, b, bmsg, bline, order_mode: int):
    """Raise the deferred uninitialized read of an unsequenced operand pair,
    the first operand in evaluation order first."""
    if not interp.options.check_uninitialized:
        return
    if order_mode == 0:
        if a is UNINIT and amsg is not None:
            _raise_read(amsg, aline)
        if b is UNINIT and bmsg is not None:
            _raise_read(bmsg, bline)
    else:
        if b is UNINIT and bmsg is not None:
            _raise_read(bmsg, bline)
        if a is UNINIT and amsg is not None:
            _raise_read(amsg, aline)


def _binop_slow(interp, a, b, slow, order_mode: int, keep: bool = False):
    """``apply_binary`` on boxed operands; ``keep`` leaves the result boxed
    (pointer-typed results never live in a register as raw ints)."""
    op, line, ltype, rtype, lmsg, lline, rmsg, rline, _plan = slow
    _check_pair_reads(interp, a, lmsg, lline, b, rmsg, rline, order_mode)
    profile = interp.profile
    result = interp.apply_binary(
        op, _box(a, ltype, profile), _box(b, rtype, profile), line
    )
    return result if keep else _unbox(result)


def _unop_slow(interp, value, slow):
    what, line, ctype, rdmsg, rdline, plan = slow
    if value is UNINIT and rdmsg is not None and interp.options.check_uninitialized:
        _raise_read(rdmsg, rdline)
    checked = interp._require_arithmetic(_box(value, ctype, interp.profile), line, what)
    return plan(checked.value)


def _conv_slow(interp, value, slow):
    _target, _line, rdmsg, rdline = slow
    if value is UNINIT:
        if rdmsg is not None and interp.options.check_uninitialized:
            _raise_read(rdmsg, rdline)
        return UNINIT  # convert() passes indeterminate values through
    return value  # boxed values never reach native conversions


def _inc_slow(interp, value, slow):
    """Increment of an indeterminate register value; returns (old, new)."""
    line, vtype, rdmsg, plan = slow
    if value is UNINIT and rdmsg is not None and interp.options.check_uninitialized:
        _raise_read(rdmsg, line)
    checked = interp._require_arithmetic(
        _box(value, vtype, interp.profile), line, "operand of ++/--"
    )
    old = checked.value
    return old, plan(old)


def _elem_pointer_slow(interp, record, index_value, info, line: int):
    """Replicate the lowered subscript resolution: decay, index, add."""
    _name, idx_ctype, idx_msg, idx_line, vinfo = info
    elem = vinfo[0]
    if (
        index_value is UNINIT
        and idx_msg is not None
        and interp.options.check_uninitialized
    ):
        _raise_read(idx_msg, idx_line)
    boxed = _box(index_value, idx_ctype, interp.profile)
    index = interp._require_int(boxed, line, "array subscript")
    decayed = PointerValue(base=record[1], offset=0, type=ct.PointerType(pointee=elem))
    return interp._pointer_add(decayed, index, line), elem


def _lde_slow(interp, record, index_value, info, line: int):
    pointer, elem = _elem_pointer_slow(interp, record, index_value, info, line)
    vinfo = info[4]
    plan = (vinfo[1], vinfo[2], vinfo[3], vinfo[4], vinfo[5])
    value = _read_with_plan(interp, LValue(pointer=pointer, type=elem), plan, line)
    return _unbox(value)


def _lda_slow(interp, address, value_reg_unused, esize, info, line: int):
    """Load through a slow (boxed-pointer) element address."""
    elem = info[0]
    plan = (info[1], info[2], info[3], info[4], info[5])
    value = _read_with_plan(interp, LValue(pointer=address, type=elem), plan, line)
    return _unbox(value)


def _store_slow(interp, address, value, vinfo, rdmsg, rdline, line: int):
    """Store through a boxed pointer / of a non-int register value."""
    if type(address) is tuple:
        _data, base, offset = address
        address = PointerValue(
            base=base, offset=offset, type=ct.PointerType(pointee=vinfo[0])
        )
    if value is UNINIT and rdmsg is not None and interp.options.check_uninitialized:
        _raise_read(rdmsg, rdline)
    elem = vinfo[0]
    plan = (vinfo[1], vinfo[2], vinfo[3], vinfo[4], vinfo[5])
    boxed = _box(value, elem.unqualified(), interp.profile)
    _write_with_plan(interp, LValue(pointer=address, type=elem), plan, boxed, line)


def _stg_slow(interp, record, value, info, line: int):
    from repro.core.lowering import _write_binding
    _name, _check_seq, rdmsg, rdline, vinfo = info
    if value is UNINIT and rdmsg is not None and interp.options.check_uninitialized:
        _raise_read(rdmsg, rdline)
    boxed = _box(value, vinfo[0].unqualified(), interp.profile)
    _write_binding(interp, record[3], boxed, line)


def _ldg_slow(interp, record, line: int):
    return _unbox(_read_binding(interp, record[3], line))


def _bind_pointer(interp, name: str, size: int):
    """The register value of a freshly written pointer object: what
    ``_read_binding`` decodes, with ``UNINIT`` standing for the reads that
    would raise the uninitialized-read error."""
    binding = interp.frames[-1].lookup(name)
    data = interp.memory.objects[binding.base].data[0:size]
    value = decode_value(data, binding.type, interp.profile)
    if type(value) is IndeterminateValue and any(
        type(byte) is UnknownByte for byte in data
    ):
        return UNINIT
    return value


def _pointer_operand(interp, value, ptype, rdmsg, rdline: int):
    """Box a pointer register for a shared helper, raising the deferred
    uninitialized read where ``_read_binding`` would have."""
    if value is UNINIT:
        if rdmsg is not None and interp.options.check_uninitialized:
            _raise_read(rdmsg, rdline)
        return _box(value, ptype, interp.profile)
    return value


def _pinc_slow(interp, value, delta: int, slow):
    """``p++``/``p--`` on a non-pointer register value; returns (old, new)
    exactly as the lowered ``run_incdec_ident`` computes them."""
    line, vtype, rdmsg = slow
    value = _pointer_operand(interp, value, vtype, rdmsg, line)
    if type(value) is PointerValue:
        return value, interp._pointer_add(value, delta, line)
    old_int = interp._require_arithmetic(value, line, "operand of ++/--")
    promoted = interp._promote(old_int)
    result = interp._arith_result(promoted.value + delta, promoted.type, line)
    new = convert(
        result,
        vtype,
        interp.options,
        line=line,
        pointer_registry=interp.pointer_registry,
    )
    return value, new


def _pidx(interp, a, b, info, line: int, order_mode: int):
    """The lowered subscript core over a pointer operand: an ``LValue``."""
    atype, amsg, aline, btype, bmsg, bline = info
    _check_pair_reads(interp, a, amsg, aline, b, bmsg, bline, order_mode)
    profile = interp.profile
    base_value = _box(a, atype, profile)
    index_value = _box(b, btype, profile)
    if isinstance(index_value, PointerValue) and not isinstance(
        base_value, PointerValue
    ):
        base_value, index_value = index_value, base_value  # i[p] form
    pointer = interp._require_pointer(base_value, line, "subscripted value")
    index = interp._require_int(index_value, line, "array subscript")
    return LValue(
        pointer=interp._pointer_add(pointer, index, line), type=pointer.pointee_type
    )


def _ldl(interp, lvalue, plans, line: int):
    """Load through an ``LValue`` register (a dereferenced pointer)."""
    plan = plans.plan_for(lvalue.type, interp.profile)
    if plan is not None:
        return _unbox(_read_with_plan(interp, lvalue, plan, line))
    return _unbox(interp.read_lvalue(lvalue, line))


def _stl(interp, lvalue, value, plans, line: int) -> None:
    """Store a converted register value through an ``LValue`` register."""
    boxed = _box(value, lvalue.type.unqualified(), interp.profile)
    plan = plans.plan_for(lvalue.type, interp.profile)
    if plan is not None:
        _write_with_plan(interp, lvalue, plan, boxed, line)
    else:
        interp.write_lvalue(lvalue, boxed, line)


def _pconv(interp, value, target, line: int, rdmsg, rdline: int, source):
    """Conversion to a native pointer type (``convert`` on the boxed value)."""
    if value is UNINIT:
        if rdmsg is not None and interp.options.check_uninitialized:
            _raise_read(rdmsg, rdline)
        return UNINIT  # convert() passes indeterminate values through
    src_type, explicit = source
    return convert(
        _box(value, src_type, interp.profile),
        target,
        interp.options,
        line=line,
        explicit=explicit,
        pointer_registry=interp.pointer_registry,
    )


def _seq_conflict_check(memory, base: int, start: int, size: int, line: int) -> None:
    """The fast-path port of ``write_bytes``'s unsequenced-write detection."""
    locs = memory.locs_written
    if locs:
        for offset in range(start, start + size):
            if (base, offset) in locs:
                raise UndefinedBehaviorError(
                    UBKind.UNSEQUENCED_SIDE_EFFECT, _UNSEQ_WRITE, line=line
                )
    for offset in range(start, start + size):
        locs.add((base, offset))


# ---------------------------------------------------------------------------
# The dispatch loop
# ---------------------------------------------------------------------------

def run_native(interp, program: CompiledProgram, fn: FnCode):
    """Run one compiled function body; returns the boxed return value.

    The return value feeds ``Interpreter._execute_call_body``'s shared
    post-processing (None means "fell off the end", exactly like a lowered
    body that never raised ``ReturnSignal``).
    """
    code = fn.code
    R = list(fn.r_init)
    S: list = [None] * fn.n_slots
    memory = interp.memory
    options = program.options
    check_seq = options.check_sequencing
    check_uninit = options.check_uninitialized
    order_mode = program.order_mode
    max_steps = fn.max_steps
    steps = interp._steps
    pc = 0
    while True:
        ins = code[pc]
        pc += 1
        op = ins[0]
        if op == OP_BINOP:
            a = R[ins[2]]
            b = R[ins[3]]
            if a.__class__ is int and b.__class__ is int:
                R[ins[1]] = ins[4](a, b)
            else:
                R[ins[1]] = _binop_slow(interp, a, b, ins[5], order_mode)
        elif op == OP_LDE:
            record = S[ins[2]]
            if record is None:
                record = _bind_slot(interp, S, ins[2], ins[7][0])
            index = R[ins[3]]
            esize = ins[4]
            if (
                index.__class__ is int
                and 0 <= index
                and (index + 1) * esize <= record[2]
                and not (check_seq and memory.locs_written)
            ):
                value = _read_flat(
                    record[0], index * esize, esize, ins[5] == _SMODE_SIGNED
                )
                if value is not None:
                    R[ins[1]] = value
                    continue
            R[ins[1]] = _lde_slow(interp, record, index, ins[7], ins[6])
        elif op == OP_STEP:
            steps += ins[1]
            if steps > max_steps:
                interp._steps = steps
                raise ResourceLimitError(fn.limit_message)
        elif op == OP_JZ:
            value = R[ins[1]]
            if value.__class__ is not int:
                value = 1 if _cond_slow(interp, value, ins[4], ins[5], ins[3]) else 0
            if value == 0:
                pc = ins[2]
        elif op == OP_CONV:
            value = R[ins[2]]
            if value.__class__ is int:
                R[ins[1]] = ins[3](value)
            else:
                R[ins[1]] = _conv_slow(interp, value, ins[4])
        elif op == OP_STE:
            address = R[ins[1]]
            value = R[ins[2]]
            if address.__class__ is tuple and value.__class__ is int:
                esize = ins[3]
                if check_seq:
                    _seq_conflict_check(memory, address[1], address[2], esize, ins[5])
                _write_flat(address[0], address[2], esize, value & ins[4])
            else:
                info = ins[6]
                _store_slow(interp, address, value, info[3], info[1], info[2], ins[5])
        elif op == OP_JMP:
            pc = ins[1]
        elif op == OP_CHKE:
            record = S[ins[2]]
            if record is None:
                record = _bind_slot(interp, S, ins[2], ins[6][0])
            index = R[ins[3]]
            esize = ins[4]
            if index.__class__ is int and 0 <= index and (index + 1) * esize <= record[
                2
            ]:
                R[ins[1]] = (record[0], record[1], index * esize)
            else:
                pointer, _elem = _elem_pointer_slow(
                    interp, record, index, ins[6], ins[5]
                )
                R[ins[1]] = pointer
        elif op == OP_MOV:
            R[ins[1]] = R[ins[2]]
        elif op == OP_JNZ:
            value = R[ins[1]]
            if value.__class__ is not int:
                value = 1 if _cond_slow(interp, value, ins[4], ins[5], ins[3]) else 0
            if value != 0:
                pc = ins[2]
        elif op == OP_LDG:
            record = S[ins[2]]
            if record is None:
                record = _bind_slot(interp, S, ins[2], ins[6][0])
            if not (check_seq and memory.locs_written):
                value = _read_flat(record[0], 0, ins[3], ins[4] == _SMODE_SIGNED)
                if value is not None:
                    R[ins[1]] = value
                    continue
            R[ins[1]] = _ldg_slow(interp, record, ins[5])
        elif op == OP_STG:
            record = S[ins[1]]
            if record is None:
                record = _bind_slot(interp, S, ins[1], ins[6][0])
            value = R[ins[2]]
            if value.__class__ is int:
                if check_seq:
                    _seq_conflict_check(memory, record[1], 0, ins[3], ins[5])
                _write_flat(record[0], 0, ins[3], value & ins[4])
            else:
                _stg_slow(interp, record, value, ins[6], ins[5])
        elif op == OP_SEQPT:
            memory.locs_written.clear()
        elif op == OP_INC:
            value = R[ins[1]]
            if value.__class__ is int:
                R[ins[1]] = ins[3](value)
                if ins[2] >= 0:
                    R[ins[2]] = value
            else:
                old, new = _inc_slow(interp, value, ins[4])
                R[ins[1]] = new
                if ins[2] >= 0:
                    R[ins[2]] = old
        elif op == OP_LDA:
            address = R[ins[2]]
            if address.__class__ is tuple:
                value = _read_flat(
                    address[0], address[2], ins[3], ins[4] == _SMODE_SIGNED
                )
                if value is not None and not (check_seq and memory.locs_written):
                    R[ins[1]] = value
                    continue
                address = PointerValue(
                    base=address[1],
                    offset=address[2],
                    type=ct.PointerType(pointee=ins[6][0]),
                )
            R[ins[1]] = _lda_slow(interp, address, None, ins[3], ins[6], ins[5])
        elif op == OP_UNOP:
            value = R[ins[2]]
            if value.__class__ is int:
                R[ins[1]] = ins[3](value)
            else:
                R[ins[1]] = _unop_slow(interp, value, ins[4])
        elif op == OP_NOT:
            value = R[ins[2]]
            if value.__class__ is int:
                R[ins[1]] = 1 if value == 0 else 0
            else:
                R[ins[1]] = (
                    0 if _cond_slow(interp, value, ins[4], ins[5], ins[3]) else 1
                )
        elif op == OP_BOOL:
            value = R[ins[2]]
            if value.__class__ is int:
                R[ins[1]] = 1 if value != 0 else 0
            else:
                R[ins[1]] = (
                    1 if _cond_slow(interp, value, ins[4], ins[5], ins[3]) else 0
                )
        elif op == OP_LOADI:
            R[ins[1]] = ins[2]
        elif op == OP_RDCHK:
            if R[ins[1]] is UNINIT:
                _raise_read(ins[2], ins[3])
        elif op == OP_DEREF:
            value = R[ins[2]]
            if value.__class__ is not PointerValue:
                value = _pointer_operand(interp, value, ins[6], ins[4], ins[5])
            R[ins[1]] = interp._deref_to_lvalue(value, ins[3])
        elif op == OP_LDL:
            R[ins[1]] = _ldl(interp, R[ins[2]], ins[4], ins[3])
        elif op == OP_PINC:
            value = R[ins[1]]
            if value.__class__ is PointerValue:
                new = interp._pointer_add(value, ins[3], ins[4][0])
            else:
                value, new = _pinc_slow(interp, value, ins[3], ins[4])
            R[ins[1]] = new
            if ins[2] >= 0:
                R[ins[2]] = value
        elif op == OP_PBIN:
            R[ins[1]] = _binop_slow(
                interp, R[ins[2]], R[ins[3]], ins[4], order_mode, ins[5]
            )
        elif op == OP_STL:
            _stl(interp, R[ins[1]], R[ins[2]], ins[4], ins[3])
        elif op == OP_PIDX:
            R[ins[1]] = _pidx(interp, R[ins[2]], R[ins[3]], ins[5], ins[4], order_mode)
        elif op == OP_PCONV:
            R[ins[1]] = _pconv(
                interp, R[ins[2]], ins[3], ins[4], ins[5], ins[6], ins[7]
            )
        elif op == OP_DECAY:
            record = S[ins[2]]
            if record is None:
                record = _bind_slot(interp, S, ins[2], ins[4])
            R[ins[1]] = _read_binding(interp, record[3], ins[3])
        elif op == OP_CALL:
            _dst, name, ftype, args, line = ins[1], ins[2], ins[3], ins[4], ins[5]
            interp.current_line = line
            if check_uninit and args:
                scan = args if order_mode == 0 else reversed(args)
                for reg, _ctype, rdmsg, rdline in scan:
                    if R[reg] is UNINIT and rdmsg is not None:
                        _raise_read(rdmsg, rdline)
            profile = interp.profile
            values = [_box(R[reg], ctype, profile) for reg, ctype, _m, _l in args]
            values = interp._convert_arguments(values, name, ftype, line)
            memory.sequence_point()
            interp._steps = steps
            result = interp.call_function(name, values, line, declared_type=ftype)
            steps = interp._steps
            if _dst >= 0:
                R[_dst] = _unbox(result)
        elif op == OP_RET:
            interp._steps = steps
            if ins[1] < 0:
                return None
            value = R[ins[1]]
            if value.__class__ is int:
                return IntValue(value, ins[2])
            if value is UNINIT:
                if ins[3] is not None and check_uninit:
                    _raise_read(ins[3], ins[4])
                return _box(UNINIT, ins[2], interp.profile)
            return value
        elif op == OP_DECL:
            interp.current_line = ins[3]
            interp._steps = steps
            interp.exec_local_declaration(ins[1])
            steps = interp._steps
            if ins[2] >= 0:
                _bind_slot(interp, S, ins[2], ins[1].name)
        elif op == OP_BINDR:
            binding = interp.frames[-1].lookup(ins[2])
            obj = memory.objects[binding.base]
            value = _read_flat(obj.data, 0, ins[3], ins[4])
            R[ins[1]] = UNINIT if value is None else value
        elif op == OP_BINDP:
            R[ins[1]] = _bind_pointer(interp, ins[2], ins[3])
        elif op == OP_PUSHSC:
            interp.frames[-1].push_scope()
        elif op == OP_POPSC:
            scope = interp.frames[-1].pop_scope()
            for base in scope.owned_bases:
                memory.kill(base)
        elif op == OP_RAISE:
            interp._steps = steps
            raise UndefinedBehaviorError(ins[1], ins[2], line=ins[3])
        elif op == OP_STR:
            R[ins[1]] = interp.string_literal_object(ins[2])[0]
        else:  # pragma: no cover - the compiler only emits known opcodes
            raise AssertionError(f"unknown opcode {op}")
