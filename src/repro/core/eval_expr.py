"""Expression evaluation rules of the dynamic semantics.

Each ``_eval_*`` method corresponds to a family of K rules in the paper's C
semantics; the ``if options.check_*`` branches are the *side conditions* and
*embedded checks* of Section 4.1 that turn the positive semantics into an
undefinedness checker.  When a check fires the evaluator raises
:class:`UndefinedBehaviorError`, which is the Python analogue of the rewrite
system getting stuck on an undefined redex (and of the explicit
``reportError`` rules of Section 4.5.1).
"""

from __future__ import annotations


from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.core.conversions import convert, to_boolean
from repro.core.environment import FunctionBinding, LValue
from repro.core.values import (
    CValue,
    FloatValue,
    IndeterminateValue,
    IntValue,
    PointerValue,
    StructValue,
    VoidValue,
    decode_value,
    encode_value,
)
from repro.errors import UBKind, UndefinedBehaviorError, UnsupportedFeatureError
from repro.events import (
    FAMILY_ARITHMETIC,
    FAMILY_CONST,
    FAMILY_MEMORY,
    FAMILY_PROVENANCE,
    FAMILY_UNINITIALIZED,
    ArithCheckEvent,
    BranchEvent,
    LvalueConvertEvent,
    report_undefined,
)


class ExpressionEvaluatorMixin:
    """Expression evaluation; mixed into :class:`repro.core.interpreter.Interpreter`."""

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def eval_expr(self, expr: c_ast.Expression) -> CValue:
        """Evaluate ``expr`` to a value (performing lvalue conversion)."""
        self.step(expr.line)
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise UnsupportedFeatureError(f"cannot evaluate {type(expr).__name__}")
        return method(expr)

    def eval_lvalue(self, expr: c_ast.Expression) -> LValue:
        """Evaluate ``expr`` as an lvalue (a designated object location)."""
        self.step(expr.line)
        if isinstance(expr, c_ast.Identifier):
            binding = self.lookup_binding(expr.name, expr.line)
            if isinstance(binding, FunctionBinding):
                raise UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL,
                    f"Function designator '{expr.name}' used where an object is required.",
                    line=expr.line)
            pointer = PointerValue(base=binding.base, offset=0,
                                   type=ct.PointerType(pointee=binding.type))
            return LValue(pointer=pointer, type=binding.type)
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "*":
            value = self.eval_expr(expr.operand)
            return self._deref_to_lvalue(value, expr.line)
        if isinstance(expr, c_ast.ArraySubscript):
            return self._subscript_lvalue(expr)
        if isinstance(expr, c_ast.Member):
            return self._member_lvalue(expr)
        if isinstance(expr, c_ast.StringLiteral):
            pointer, array_type = self.string_literal_object(expr.value)
            return LValue(pointer=pointer.with_type(ct.PointerType(pointee=array_type)),
                          type=array_type)
        if isinstance(expr, c_ast.Cast):
            if isinstance(expr.operand, c_ast.InitList):
                # A compound literal is an lvalue (§6.5.2.5); its address can
                # be taken, and outlives only its enclosing block.
                return self.compound_literal_lvalue(
                    expr.target_type, expr.operand, expr.line)
            # A plain cast is not an lvalue in C; accepting it would hide bugs.
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL, "Cast expression used as an lvalue.", line=expr.line)
        if isinstance(expr, c_ast.Comma):
            self.eval_expr(expr.left)
            self.memory.sequence_point()
            return self.eval_lvalue(expr.right)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL,
            f"Expression of kind {type(expr).__name__} is not an lvalue.", line=expr.line)

    # ------------------------------------------------------------------
    # Loads and stores
    # ------------------------------------------------------------------
    def read_lvalue(self, lvalue: LValue, line: int) -> CValue:
        """Lvalue conversion: read the designated object (§6.3.2.1:2)."""
        ltype = lvalue.type
        if self.events is not None:
            self.events.emit(LvalueConvertEvent(ltype, line))
        if isinstance(ltype, ct.ArrayType):
            # Arrays convert to a pointer to their first element.
            return PointerValue(base=lvalue.base, offset=lvalue.offset,
                                type=ct.PointerType(pointee=ltype.element))
        if isinstance(ltype, ct.FunctionType):
            return PointerValue(base=None, offset=0, function=lvalue.pointer.function,
                                type=ct.PointerType(pointee=ltype))
        size = ct.size_of(ltype, self.profile)
        self.memory.check_alignment(lvalue.pointer, ltype, line)
        data = self.memory.read_bytes(lvalue.pointer, size, line=line, lvalue_type=ltype)
        value = decode_value(data, ltype, self.profile)
        if type(value) is StructValue:
            # Remember where the bytes came from so a whole-object store can
            # detect an overlapping-object assignment (§6.5.16.1:3).
            value = StructValue(data=value.data, type=value.type,
                                source_base=lvalue.pointer.base,
                                source_offset=lvalue.pointer.offset)
        if (isinstance(value, IndeterminateValue) and self.options.check_uninitialized
                and ltype.is_scalar and not ct.is_character_type(ltype)
                and any(type(b).__name__ == "UnknownByte" for b in data)):
            report_undefined(UndefinedBehaviorError(
                UBKind.UNINITIALIZED_READ,
                f"Read of an uninitialized (indeterminate) value of type {ltype}.", line=line),
                FAMILY_UNINITIALIZED)
        return value

    def write_lvalue(self, lvalue: LValue, value: CValue, line: int) -> None:
        """Store ``value`` into the object designated by ``lvalue``."""
        ltype = lvalue.type
        if isinstance(ltype, (ct.ArrayType, ct.FunctionType)):
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL, f"Cannot assign to an expression of type {ltype}.",
                line=line)
        if self.options.check_const and ltype.const:
            report_undefined(UndefinedBehaviorError(
                UBKind.CONST_VIOLATION,
                "Assignment to an lvalue with const-qualified type.", line=line),
                FAMILY_CONST)
        self.memory.check_alignment(lvalue.pointer, ltype, line)
        data = encode_value(value, ltype, self.profile)
        if (type(value) is StructValue and value.source_base is not None
                and self.options.check_memory
                and value.source_base == lvalue.pointer.base):
            # §6.5.16.1:3 — assignment between inexactly overlapping objects.
            size = len(data)
            src = value.source_offset
            dst = lvalue.pointer.offset
            if src != dst and src < dst + size and dst < src + size:
                report_undefined(UndefinedBehaviorError(
                    UBKind.OVERLAPPING_COPY,
                    "Assignment between overlapping objects.", line=line),
                    FAMILY_MEMORY, check="overlap")
        self.memory.write_bytes(lvalue.pointer, data, line=line, lvalue_type=ltype)

    # ------------------------------------------------------------------
    # Primary expressions
    # ------------------------------------------------------------------
    def _eval_IntegerLiteral(self, expr: c_ast.IntegerLiteral) -> CValue:
        return IntValue(expr.value, expr.type or ct.INT)

    def _eval_FloatLiteral(self, expr: c_ast.FloatLiteral) -> CValue:
        return FloatValue(expr.value, expr.type or ct.DOUBLE)

    def _eval_CharLiteral(self, expr: c_ast.CharLiteral) -> CValue:
        return IntValue(expr.value, ct.INT)

    def _eval_StringLiteral(self, expr: c_ast.StringLiteral) -> CValue:
        pointer, array_type = self.string_literal_object(expr.value)
        return pointer.with_type(ct.PointerType(pointee=array_type.element))

    def _eval_Identifier(self, expr: c_ast.Identifier) -> CValue:
        binding = self.lookup_binding(expr.name, expr.line)
        if isinstance(binding, FunctionBinding):
            return PointerValue(base=None, offset=0, function=binding.name,
                                type=ct.PointerType(pointee=binding.type))
        lvalue = LValue(
            pointer=PointerValue(base=binding.base, offset=0,
                                 type=ct.PointerType(pointee=binding.type)),
            type=binding.type)
        return self.read_lvalue(lvalue, expr.line)

    # ------------------------------------------------------------------
    # Postfix expressions
    # ------------------------------------------------------------------
    def _subscript_lvalue(self, expr: c_ast.ArraySubscript) -> LValue:
        base_value, index_value = self._eval_unsequenced(
            [expr.array, expr.index], expr.line)
        if isinstance(index_value, PointerValue) and not isinstance(base_value, PointerValue):
            base_value, index_value = index_value, base_value  # i[a] form
        pointer = self._require_pointer(base_value, expr.line, "subscripted value")
        index = self._require_int(index_value, expr.line, "array subscript")
        element_type = pointer.pointee_type
        new_pointer = self._pointer_add(pointer, index, expr.line)
        return LValue(pointer=new_pointer, type=element_type)

    def _eval_ArraySubscript(self, expr: c_ast.ArraySubscript) -> CValue:
        return self.read_lvalue(self._subscript_lvalue(expr), expr.line)

    def _member_lvalue(self, expr: c_ast.Member) -> LValue:
        if expr.arrow:
            pointer_value = self.eval_expr(expr.object)
            pointer = self._require_pointer(pointer_value, expr.line, "'->' operand")
            record_type = pointer.pointee_type
            base_pointer = pointer
        else:
            inner = self.eval_lvalue(expr.object)
            record_type = inner.type
            base_pointer = inner.pointer
        record_type = self.resolve_record(record_type, expr.line)
        if not isinstance(record_type, (ct.StructType, ct.UnionType)) or record_type.fields is None:
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"Member access on non-record or incomplete type {record_type}.", line=expr.line)
        layout = ct.struct_layout(record_type, self.profile)
        field_layout = layout.field(expr.member)
        if field_layout is None:
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"{record_type} has no member named '{expr.member}'.", line=expr.line)
        field_type = field_layout.type
        if record_type.const:
            field_type = field_type.with_qualifiers(const=True)
        pointer = PointerValue(
            base=base_pointer.base,
            offset=base_pointer.offset + field_layout.offset,
            type=ct.PointerType(pointee=field_type),
            function=base_pointer.function)
        return LValue(pointer=pointer, type=field_type)

    def _eval_Member(self, expr: c_ast.Member) -> CValue:
        return self.read_lvalue(self._member_lvalue(expr), expr.line)

    def _eval_Call(self, expr: c_ast.Call) -> CValue:
        return self.eval_call(expr)

    # ------------------------------------------------------------------
    # Unary operators
    # ------------------------------------------------------------------
    def _eval_UnaryOp(self, expr: c_ast.UnaryOp) -> CValue:
        op = expr.op
        line = expr.line
        if op == "&":
            lvalue = self.eval_lvalue(expr.operand)
            pointee = lvalue.type
            return PointerValue(base=lvalue.base, offset=lvalue.offset,
                                type=ct.PointerType(pointee=pointee),
                                function=lvalue.pointer.function)
        if op == "*":
            value = self.eval_expr(expr.operand)
            lvalue = self._deref_to_lvalue(value, line)
            return self.read_lvalue(lvalue, line)
        if op == "sizeof":
            operand_type = self.type_of_expression(expr.operand)
            try:
                size = ct.size_of(operand_type, self.profile)
            except ct.LayoutError as exc:
                raise UndefinedBehaviorError(
                    UBKind.INCOMPLETE_TYPE_OBJECT, f"sizeof applied to {operand_type}: {exc}",
                    line=line)
            return IntValue(size, ct.ULONG)
        if op in ("++pre", "--pre", "++post", "--post"):
            return self._eval_incdec(expr, op, line)
        value = self.eval_expr(expr.operand)
        if op == "!":
            return IntValue(0 if to_boolean(value, self.options, line=line) else 1, ct.INT)
        value = self._require_arithmetic(value, line, f"operand of unary {op}")
        if op == "+":
            return self._promote(value)
        if op == "-":
            promoted = self._promote(value)
            if isinstance(promoted, FloatValue):
                return FloatValue(-promoted.value, promoted.type)
            return self._arith_result(-promoted.value, promoted.type, line)
        if op == "~":
            promoted = self._promote(value)
            if not isinstance(promoted, IntValue):
                raise UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL, "Operand of '~' must have integer type.", line=line)
            return self._arith_result(~promoted.value, promoted.type, line)
        raise UnsupportedFeatureError(f"unary operator {op!r}")

    def _eval_incdec(self, expr: c_ast.UnaryOp, op: str, line: int) -> CValue:
        lvalue = self.eval_lvalue(expr.operand)
        old = self.read_lvalue(lvalue, line)
        delta = 1 if op.startswith("++") else -1
        if isinstance(old, PointerValue):
            new = self._pointer_add(old, delta, line)
        elif isinstance(old, FloatValue):
            new = FloatValue(old.value + delta, old.type)
        else:
            old_int = self._require_arithmetic(old, line, "operand of ++/--")
            promoted = self._promote(old_int)
            assert isinstance(promoted, IntValue)
            result = self._arith_result(promoted.value + delta, promoted.type, line)
            new = convert(result, lvalue.type, self.options, line=line,
                          pointer_registry=self.pointer_registry)
        converted_new = new if isinstance(new, (PointerValue, FloatValue)) else convert(
            new, lvalue.type, self.options, line=line, pointer_registry=self.pointer_registry)
        self.write_lvalue(lvalue, converted_new, line)
        return old if op.endswith("post") else converted_new

    def _eval_SizeofType(self, expr: c_ast.SizeofType) -> CValue:
        try:
            size = expr.measure(self.profile)
        except ct.LayoutError as exc:
            raise UndefinedBehaviorError(
                UBKind.INCOMPLETE_TYPE_OBJECT, f"sizeof: {exc}", line=expr.line)
        return IntValue(size, ct.ULONG)

    _eval_AlignofType = _eval_SizeofType

    def _eval_Cast(self, expr: c_ast.Cast) -> CValue:
        target = expr.target_type
        if isinstance(expr.operand, c_ast.InitList):
            # Compound literal: build a temporary object.
            return self.build_compound_literal(target, expr.operand, expr.line)
        value = self.eval_expr(expr.operand)
        return convert(value, target, self.options, line=expr.line, explicit=True,
                       pointer_registry=self.pointer_registry)

    # ------------------------------------------------------------------
    # Binary operators
    # ------------------------------------------------------------------
    def _eval_BinaryOp(self, expr: c_ast.BinaryOp) -> CValue:
        op = expr.op
        line = expr.line
        if op == "&&":
            left = self.eval_expr(expr.left)
            self.memory.sequence_point()
            left_true = to_boolean(left, self.options, line=line)
            if self.events is not None:
                self.events.emit(BranchEvent(left_true, line))
            if not left_true:
                return IntValue(0, ct.INT)
            right = self.eval_expr(expr.right)
            return IntValue(1 if to_boolean(right, self.options, line=line) else 0, ct.INT)
        if op == "||":
            left = self.eval_expr(expr.left)
            self.memory.sequence_point()
            left_true = to_boolean(left, self.options, line=line)
            if self.events is not None:
                self.events.emit(BranchEvent(left_true, line))
            if left_true:
                return IntValue(1, ct.INT)
            right = self.eval_expr(expr.right)
            return IntValue(1 if to_boolean(right, self.options, line=line) else 0, ct.INT)
        left, right = self._eval_unsequenced([expr.left, expr.right], line)
        return self.apply_binary(op, left, right, line)

    def apply_binary(self, op: str, left: CValue, right: CValue, line: int) -> CValue:
        """Apply a (non-short-circuit) binary operator to evaluated operands."""
        left = self._check_usable(left, line, f"left operand of '{op}'")
        right = self._check_usable(right, line, f"right operand of '{op}'")

        if op in ("==", "!="):
            return self._equality(op, left, right, line)
        if op in ("<", ">", "<=", ">="):
            return self._relational(op, left, right, line)

        left_is_ptr = isinstance(left, PointerValue)
        right_is_ptr = isinstance(right, PointerValue)
        if op == "+" and (left_is_ptr or right_is_ptr):
            if left_is_ptr and right_is_ptr:
                raise UndefinedBehaviorError(
                    UBKind.INVALID_POINTER_ARITHMETIC, "Addition of two pointers.", line=line)
            pointer = left if left_is_ptr else right
            index = self._require_int(right if left_is_ptr else left, line, "pointer offset")
            return self._pointer_add(pointer, index, line)
        if op == "-" and left_is_ptr:
            if right_is_ptr:
                return self._pointer_difference(left, right, line)
            index = self._require_int(right, line, "pointer offset")
            return self._pointer_add(left, -index, line)
        if op == "-" and right_is_ptr:
            raise UndefinedBehaviorError(
                UBKind.INVALID_POINTER_ARITHMETIC,
                "Integer minus pointer is not a valid operation.", line=line)

        left_arith = self._require_arithmetic(left, line, f"operand of '{op}'")
        right_arith = self._require_arithmetic(right, line, f"operand of '{op}'")
        common = ct.usual_arithmetic_conversions(left_arith.type, right_arith.type, self.profile)
        left_conv = convert(left_arith, common, self.options, line=line,
                            pointer_registry=self.pointer_registry)
        right_conv = convert(right_arith, common, self.options, line=line,
                             pointer_registry=self.pointer_registry)

        if isinstance(common, ct.FloatType):
            return self._float_binary(op, left_conv, right_conv, common, line)
        assert isinstance(left_conv, IntValue) and isinstance(right_conv, IntValue)
        return self._integer_binary(op, left_conv, right_conv, common, line)

    def _float_binary(self, op: str, left: CValue, right: CValue,
                      common: ct.CType, line: int) -> CValue:
        assert isinstance(left, FloatValue) and isinstance(right, FloatValue)
        a, b = left.value, right.value
        if op == "+":
            return FloatValue(a + b, common)
        if op == "-":
            return FloatValue(a - b, common)
        if op == "*":
            return FloatValue(a * b, common)
        if op == "/":
            if b == 0.0:
                # IEEE-754 division by zero yields inf/nan; annex F makes this
                # defined, so we do not flag it (unlike the integer case).
                inf = float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
                return FloatValue(inf, common)
            return FloatValue(a / b, common)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Operator '{op}' applied to floating operands.", line=line)

    def _integer_binary(self, op: str, left: IntValue, right: IntValue,
                        common: ct.CType, line: int) -> CValue:
        a, b = left.value, right.value
        if op in ("/", "%"):
            if b == 0:
                if self.options.check_arithmetic:
                    report_undefined(UndefinedBehaviorError(
                        UBKind.DIVISION_BY_ZERO, "Division or modulus by zero.", line=line),
                        FAMILY_ARITHMETIC)
                return IntValue(0, common)
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if op == "/":
                return self._arith_result(quotient, common, line)
            return self._arith_result(a - quotient * b, common, line)
        if op in ("<<", ">>"):
            return self._shift(op, a, b, common, line)
        if op == "+":
            return self._arith_result(a + b, common, line)
        if op == "-":
            return self._arith_result(a - b, common, line)
        if op == "*":
            return self._arith_result(a * b, common, line)
        if op == "&":
            return self._arith_result(a & b, common, line, overflow_possible=False)
        if op == "|":
            return self._arith_result(a | b, common, line, overflow_possible=False)
        if op == "^":
            return self._arith_result(a ^ b, common, line, overflow_possible=False)
        raise UnsupportedFeatureError(f"integer operator {op!r}")

    def _shift(self, op: str, a: int, b: int, common: ct.CType, line: int) -> CValue:
        bits = ct.integer_bits(common, self.profile)
        if self.options.check_arithmetic and (b < 0 or b >= bits):
            report_undefined(UndefinedBehaviorError(
                UBKind.SHIFT_TOO_FAR,
                f"Shift amount {b} is negative or >= width of the type ({bits} bits).",
                line=line), FAMILY_ARITHMETIC)
        b = max(0, min(b, bits - 1))
        signed = ct.is_signed_type(common, self.profile)
        if op == "<<":
            if self.options.check_arithmetic and signed and a < 0:
                report_undefined(UndefinedBehaviorError(
                    UBKind.SHIFT_NEGATIVE, "Left shift of a negative value.", line=line),
                    FAMILY_ARITHMETIC)
            result = a << b
            if signed and self.options.check_arithmetic and not ct.fits_in(result, common, self.profile):
                report_undefined(UndefinedBehaviorError(
                    UBKind.SHIFT_OVERFLOW,
                    f"Left shift of {a} by {b} overflows {common}.", line=line),
                    FAMILY_ARITHMETIC)
            return self._arith_result(result, common, line, overflow_possible=not signed)
        # Right shift of a negative value is implementation-defined (not UB);
        # we use arithmetic shift like every mainstream compiler.
        return IntValue(a >> b, common)

    def _arith_result(self, value: int, result_type: ct.CType, line: int, *,
                      overflow_possible: bool = True) -> IntValue:
        """Wrap or flag an integer arithmetic result (§6.5:5)."""
        if self.events is not None:
            self.events.emit(ArithCheckEvent(value, result_type, line))
        if ct.fits_in(value, result_type, self.profile):
            return IntValue(value, result_type)
        if ct.is_signed_type(result_type, self.profile):
            if self.options.check_arithmetic and overflow_possible:
                report_undefined(UndefinedBehaviorError(
                    UBKind.SIGNED_OVERFLOW,
                    f"Signed integer overflow: result {value} does not fit in {result_type}.",
                    line=line), FAMILY_ARITHMETIC)
            bits = ct.integer_bits(result_type, self.profile)
            wrapped = value & ((1 << bits) - 1)
            if wrapped >= 1 << (bits - 1):
                wrapped -= 1 << bits
            return IntValue(wrapped, result_type)
        return IntValue(ct.wrap_unsigned(value, result_type, self.profile), result_type)

    # -- pointer arithmetic and comparisons --------------------------------
    def _pointer_add(self, pointer: PointerValue, index: int, line: int) -> PointerValue:
        if pointer.is_null:
            if index == 0 or not self.options.check_memory:
                return pointer
            report_undefined(UndefinedBehaviorError(
                UBKind.NULL_POINTER_ARITHMETIC, "Arithmetic on a null pointer.", line=line),
                FAMILY_MEMORY, check="pointer-arith")
            return pointer
        if pointer.is_function:
            raise UndefinedBehaviorError(
                UBKind.INVALID_POINTER_ARITHMETIC, "Arithmetic on a function pointer.", line=line)
        pointee = pointer.pointee_type
        try:
            element_size = ct.size_of(pointee, self.profile) if not pointee.is_void else 1
        except ct.LayoutError:
            element_size = 1
        new_offset = pointer.offset + index * element_size
        obj = self.memory.object_for(pointer.base)
        if self.options.check_memory and obj is not None:
            if not obj.alive:
                kind = UBKind.USE_AFTER_FREE if obj.freed else UBKind.DANGLING_DEREFERENCE
                report_undefined(UndefinedBehaviorError(
                    kind, "Pointer arithmetic on an object whose lifetime has ended.",
                    line=line), FAMILY_MEMORY, check="pointer-arith")
            elif new_offset < 0 or new_offset > obj.size:
                report_undefined(UndefinedBehaviorError(
                    UBKind.INVALID_POINTER_ARITHMETIC,
                    f"Pointer arithmetic produces offset {new_offset}, outside object "
                    f"'{obj.name or obj.base}' of size {obj.size} (one past the end is allowed).",
                    line=line), FAMILY_MEMORY, check="pointer-arith")
        if self.options.check_memory and obj is None:
            report_undefined(UndefinedBehaviorError(
                UBKind.DANGLING_DEREFERENCE,
                "Pointer arithmetic on an invalid pointer.", line=line),
                FAMILY_MEMORY, check="pointer-arith")
        return pointer.with_offset(new_offset)

    def _pointer_difference(self, left: PointerValue, right: PointerValue, line: int) -> IntValue:
        if self.options.check_pointer_provenance and left.base != right.base:
            report_undefined(UndefinedBehaviorError(
                UBKind.POINTER_SUBTRACT_UNRELATED,
                "Subtraction of pointers that do not point into the same object.", line=line),
                FAMILY_PROVENANCE)
        pointee = left.pointee_type
        try:
            element_size = ct.size_of(pointee, self.profile) if not pointee.is_void else 1
        except ct.LayoutError:
            element_size = 1
        diff = (left.offset - right.offset) // max(element_size, 1)
        if self.options.check_arithmetic and not ct.fits_in(diff, ct.LONG, self.profile):
            # §6.5.6:9 — the difference must be representable in ptrdiff_t
            # (LONG under both supported profiles).
            report_undefined(UndefinedBehaviorError(
                UBKind.SIGNED_OVERFLOW,
                f"Pointer difference {diff} is not representable in ptrdiff_t.",
                line=line), FAMILY_ARITHMETIC)
            bits = ct.integer_bits(ct.LONG, self.profile)
            diff &= (1 << bits) - 1
            if diff >= 1 << (bits - 1):
                diff -= 1 << bits
        return IntValue(diff, ct.LONG)

    def _relational(self, op: str, left: CValue, right: CValue, line: int) -> IntValue:
        if isinstance(left, PointerValue) and isinstance(right, PointerValue):
            if self.options.check_pointer_provenance and (
                    left.base != right.base or left.base is None):
                report_undefined(UndefinedBehaviorError(
                    UBKind.POINTER_COMPARE_UNRELATED,
                    "Relational comparison of pointers that do not point into the same object.",
                    line=line), FAMILY_PROVENANCE)
            a, b = left.offset, right.offset
        else:
            left_num = self._require_arithmetic(left, line, f"operand of '{op}'")
            right_num = self._require_arithmetic(right, line, f"operand of '{op}'")
            common = ct.usual_arithmetic_conversions(left_num.type, right_num.type, self.profile)
            lc = convert(left_num, common, self.options, line=line)
            rc = convert(right_num, common, self.options, line=line)
            a = lc.value if isinstance(lc, (IntValue, FloatValue)) else 0
            b = rc.value if isinstance(rc, (IntValue, FloatValue)) else 0
        table = {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}
        return IntValue(1 if table[op] else 0, ct.INT)

    def _equality(self, op: str, left: CValue, right: CValue, line: int) -> IntValue:
        if isinstance(left, PointerValue) or isinstance(right, PointerValue):
            left_ptr = self._as_pointer_for_equality(left, line)
            right_ptr = self._as_pointer_for_equality(right, line)
            same = (left_ptr.base == right_ptr.base
                    and left_ptr.offset == right_ptr.offset
                    and left_ptr.function == right_ptr.function)
            result = same if op == "==" else not same
            return IntValue(1 if result else 0, ct.INT)
        left_num = self._require_arithmetic(left, line, f"operand of '{op}'")
        right_num = self._require_arithmetic(right, line, f"operand of '{op}'")
        common = ct.usual_arithmetic_conversions(left_num.type, right_num.type, self.profile)
        lc = convert(left_num, common, self.options, line=line)
        rc = convert(right_num, common, self.options, line=line)
        same = lc.value == rc.value  # type: ignore[union-attr]
        result = same if op == "==" else not same
        return IntValue(1 if result else 0, ct.INT)

    def _as_pointer_for_equality(self, value: CValue, line: int) -> PointerValue:
        if isinstance(value, PointerValue):
            return value
        if isinstance(value, IntValue) and value.value == 0:
            return PointerValue(base=None, offset=0, type=ct.VOID_PTR)
        if isinstance(value, IntValue):
            return PointerValue(base=-abs(value.value) - 1, offset=0, type=ct.VOID_PTR)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, "Invalid operand in pointer comparison.", line=line)

    # ------------------------------------------------------------------
    # Assignment, conditional, comma
    # ------------------------------------------------------------------
    def _eval_Assignment(self, expr: c_ast.Assignment) -> CValue:
        line = expr.line
        if expr.op == "=":
            # The value computation of both operands is unsequenced (§6.5.16).
            order = self.operand_order(2, expr)
            strategy = self.strategy
            results: dict[int, object] = {}
            for position in order:
                strategy.note_operand(expr, position)
                if position == 0:
                    results[0] = self.eval_lvalue(expr.target)
                else:
                    results[1] = self.eval_expr(expr.value)
            strategy.note_group_end(expr)
            lvalue: LValue = results[0]  # type: ignore[assignment]
            value: CValue = results[1]   # type: ignore[assignment]
            if isinstance(value, StructValue) and lvalue.type.is_record:
                converted = value
            else:
                converted = convert(value, lvalue.type, self.options, line=line,
                                    pointer_registry=self.pointer_registry)
            self.write_lvalue(lvalue, converted, line)
            return converted
        # Compound assignment reads, computes, and writes the same object.
        op = expr.op[:-1]
        lvalue = self.eval_lvalue(expr.target)
        old = self.read_lvalue(lvalue, line)
        rhs = self.eval_expr(expr.value)
        result = self.apply_binary(op, old, rhs, line)
        if isinstance(result, PointerValue):
            converted = result
        else:
            converted = convert(result, lvalue.type, self.options, line=line,
                                pointer_registry=self.pointer_registry)
        self.write_lvalue(lvalue, converted, line)
        return converted

    def _eval_Conditional(self, expr: c_ast.Conditional) -> CValue:
        condition = self.eval_expr(expr.condition)
        self.memory.sequence_point()
        taken = to_boolean(condition, self.options, line=expr.line)
        if self.events is not None:
            self.events.emit(BranchEvent(taken, expr.line))
        if taken:
            return self.eval_expr(expr.then)
        return self.eval_expr(expr.otherwise)

    def _eval_Comma(self, expr: c_ast.Comma) -> CValue:
        self.eval_expr(expr.left)
        self.memory.sequence_point()
        return self.eval_expr(expr.right)

    def _eval_InitList(self, expr: c_ast.InitList) -> CValue:
        raise UnsupportedFeatureError(
            "initializer list used outside of a declaration or compound literal")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _eval_unsequenced(self, exprs: list[c_ast.Expression], line: int) -> list[CValue]:
        """Evaluate sibling subexpressions in the strategy-chosen order.

        The subexpressions are unsequenced with respect to each other, which
        is exactly the nondeterminism the evaluation-order search explores
        (§2.5.2); the ``locsWrittenTo`` tracking in memory catches conflicts
        that manifest on the chosen order.
        """
        site = exprs[0] if exprs else None
        order = self.operand_order(len(exprs), site)
        results: dict[int, CValue] = {}
        if len(exprs) > 1:
            # Boundary hooks let the search engine segment the event stream
            # into per-operand footprints (commutativity filter); they are
            # no-ops for fixed-order strategies.
            strategy = self.strategy
            for position in order:
                strategy.note_operand(site, position)
                results[position] = self.eval_expr(exprs[position])
            strategy.note_group_end(site)
        else:
            for position in order:
                results[position] = self.eval_expr(exprs[position])
        return [results[i] for i in range(len(exprs))]

    def _deref_to_lvalue(self, value: CValue, line: int) -> LValue:
        if isinstance(value, IndeterminateValue):
            raise UndefinedBehaviorError(
                UBKind.UNINITIALIZED_READ,
                "Dereference of an indeterminate pointer value.", line=line)
        pointer = self._require_pointer(value, line, "operand of unary '*'")
        pointee = pointer.pointee_type
        if self.options.check_memory and pointee.is_void:
            report_undefined(UndefinedBehaviorError(
                UBKind.VOID_DEREFERENCE, "Dereference of a void pointer.", line=line),
                FAMILY_MEMORY, check="pointer-arith")
        if pointer.is_function:
            return LValue(pointer=pointer, type=pointee)
        return LValue(pointer=pointer, type=pointee)

    def _require_pointer(self, value: CValue, line: int, what: str) -> PointerValue:
        if isinstance(value, PointerValue):
            return value
        if isinstance(value, IndeterminateValue):
            raise UndefinedBehaviorError(
                UBKind.UNINITIALIZED_READ,
                f"Indeterminate value used as {what}.", line=line)
        if isinstance(value, IntValue):
            # Using an integer where a pointer is required (e.g. subscripting
            # an int) is a constraint violation; report it as a bad access.
            raise UndefinedBehaviorError(
                UBKind.DANGLING_DEREFERENCE,
                f"Integer value {value.value} used as {what}.", line=line)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Value of class {type(value).__name__} used as {what}.",
            line=line)

    def _require_int(self, value: CValue, line: int, what: str) -> int:
        value = self._check_usable(value, line, what)
        if isinstance(value, IntValue):
            return value.value
        if isinstance(value, FloatValue):
            return int(value.value)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"{what} must have integer type.", line=line)

    def _require_arithmetic(self, value: CValue, line: int, what: str):
        value = self._check_usable(value, line, what)
        if isinstance(value, (IntValue, FloatValue)):
            return value
        if isinstance(value, PointerValue):
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL, f"Pointer value used as {what}.", line=line)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Non-arithmetic value used as {what}.", line=line)

    def _check_usable(self, value: CValue, line: int, what: str) -> CValue:
        if isinstance(value, VoidValue):
            raise UndefinedBehaviorError(
                UBKind.VOID_VALUE_USED, f"The value of a void expression used as {what}.",
                line=line)
        if isinstance(value, IndeterminateValue):
            if self.options.check_uninitialized:
                report_undefined(UndefinedBehaviorError(
                    UBKind.UNINITIALIZED_READ,
                    f"Indeterminate value used as {what}.", line=line),
                    FAMILY_UNINITIALIZED)
            return IntValue(0, value.type if value.type.is_integer else ct.INT)
        return value

    def _promote(self, value: CValue) -> CValue:
        if isinstance(value, IntValue):
            promoted_type = ct.promote_integer(value.type, self.profile)
            return convert(value, promoted_type, self.options,
                           pointer_registry=self.pointer_registry)
        return value
