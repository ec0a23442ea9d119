"""Recursive-descent parser for the supported C subset.

The parser consumes tokens from :mod:`repro.cfront.lexer` and produces the
AST of :mod:`repro.cfront.ast` with types from :mod:`repro.cfront.ctypes`.
It never backtracks: at most two tokens of lookahead pick every production,
and binary expressions are parsed by precedence climbing over
:data:`repro.cfront.ast.BINARY_PRECEDENCE`.

Supported subset (roughly freestanding C99 minus VLAs, bit-fields,
designated initializers, and ``_Generic``):

* all basic types, pointers, arrays, structs, unions, enums, typedefs,
  function types (with prototypes and variadic ``...``),
* all expression forms and operators, ``sizeof``, casts, string literals,
* all statements: ``if``/``while``/``do``/``for`` (with declarations in the
  init clause), ``switch``/``case``/``default``, ``goto``/labels, blocks,
* function definitions and global declarations with initializers,
* ``_Static_assert``.

The parser deliberately accepts some constraint-violating programs (for
example arrays of size zero) so the *static undefinedness checker* in
:mod:`repro.sema` can flag them, mirroring the paper's observation that the
semantics must contain extra checks that correct programs never need.
"""

from __future__ import annotations

from typing import Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.lexer import IntConstant, FloatConstant, Token, TokenKind, tokenize
from repro.cfront.preprocessor import preprocess
from repro.errors import CParseError, UnsupportedFeatureError

_TYPE_SPECIFIER_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "_Bool", "struct", "union", "enum",
})
_STORAGE_KEYWORDS = frozenset({"typedef", "extern", "static", "auto", "register"})
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile", "restrict"})
_FUNCTION_SPECIFIERS = frozenset({"inline", "_Noreturn"})

_ASSIGN_OPS = frozenset({"=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=", "&=", "^=", "|="})
_UNARY_OPS = frozenset({"&", "*", "+", "-", "~", "!"})


class Parser:
    """Parses a token stream into a :class:`repro.cfront.ast.TranslationUnit`."""

    def __init__(self, tokens: list[Token], *, filename: str = "<input>",
                 profile: ct.ImplementationProfile = ct.LP64) -> None:
        # One more EOF past the end, so one token of lookahead needs no bound.
        self.tokens = [*tokens, tokens[-1]]
        self.index = 0
        self.filename = filename
        self.profile = profile
        self.typedefs: dict[str, ct.CType] = {}
        self.struct_tags: dict[str, ct.StructType] = {}
        self.union_tags: dict[str, ct.UnionType] = {}
        self.enum_tags: dict[str, ct.EnumType] = {}
        self.enum_constants: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Token helpers
    #
    # Only punctuator tokens are spelled like punctuators and only keyword
    # tokens like keywords (literal tokens keep their quotes), so a token's
    # ``text`` alone tells whether it is a given punctuator or keyword.
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _accept(self, text: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.text == text:
            self.index += 1
            return token
        return None

    def _expect_punct(self, name: str) -> Token:
        token = self.tokens[self.index]
        if token.text != name:
            raise self._error(f"expected {name!r}, found {token.text!r}")
        self.index += 1
        return token

    def _expect_keyword(self, name: str) -> Token:
        token = self.tokens[self.index]
        if token.text != name:
            raise self._error(f"expected keyword {name!r}, found {token.text!r}")
        self.index += 1
        return token

    def _expect_identifier(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENTIFIER:
            raise self._error(f"expected identifier, found {token.text!r}")
        return self._next()

    def _error(self, message: str) -> CParseError:
        token = self._peek()
        return CParseError(message, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> c_ast.TranslationUnit:
        unit = c_ast.TranslationUnit(line=1, filename=self.filename)
        while not self._at_eof():
            if self._accept(";"):
                continue
            unit.declarations.extend(self._parse_external_declaration())
        return unit

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _parse_external_declaration(self) -> list[c_ast.Node]:
        if self._peek().is_keyword("_Static_assert"):
            return [self._parse_static_assert()]
        start = self._peek()
        base_type, storage = self._parse_declaration_specifiers()
        if self._accept(";"):
            # struct/union/enum declaration with no declarators
            return []
        declarations: list[c_ast.Node] = []
        first = True
        while True:
            name, full_type, param_names = self._parse_declarator(base_type)
            if first and isinstance(full_type, ct.FunctionType) and self._peek().is_punct("{"):
                body = self._parse_compound_statement()
                declarations.append(c_ast.FunctionDef(
                    line=start.line, name=name or "", type=full_type,
                    parameter_names=param_names, body=body, storage=storage))
                return declarations
            first = False
            initializer = None
            if self._accept("="):
                initializer = self._parse_initializer()
            if storage == "typedef":
                if name:
                    self.typedefs[name] = full_type
            else:
                declarations.append(c_ast.Declaration(
                    line=start.line, name=name or "", type=full_type,
                    initializer=initializer, storage=storage,
                    is_definition=storage != "extern" or initializer is not None))
            if self._accept(","):
                continue
            self._expect_punct(";")
            return declarations

    def _parse_static_assert(self) -> c_ast.StaticAssert:
        token = self._expect_keyword("_Static_assert")
        self._expect_punct("(")
        condition = self._parse_conditional()
        message = ""
        if self._accept(","):
            msg_token = self._next()
            if msg_token.kind is TokenKind.STRING:
                message = str(msg_token.value)
        self._expect_punct(")")
        self._expect_punct(";")
        return c_ast.StaticAssert(line=token.line, condition=condition, message=message)

    def _starts_declaration(self) -> bool:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD:
            return (token.text in _TYPE_SPECIFIER_KEYWORDS
                    or token.text in _STORAGE_KEYWORDS
                    or token.text in _QUALIFIER_KEYWORDS
                    or token.text in _FUNCTION_SPECIFIERS
                    or token.text == "_Static_assert")
        if token.kind is TokenKind.IDENTIFIER and token.text in self.typedefs:
            # A typedef name only starts a declaration when followed by
            # something that can continue a declarator.
            nxt = self._peek(1)
            return (nxt.kind is TokenKind.IDENTIFIER
                    or nxt.is_punct("*", "(", ";")
                    or (nxt.kind is TokenKind.KEYWORD and nxt.text in _QUALIFIER_KEYWORDS))
        return False

    def _parse_declaration_specifiers(self) -> tuple[ct.CType, Optional[str]]:
        storage: Optional[str] = None
        const = False
        volatile = False
        specifiers: list[str] = []
        base_type: Optional[ct.CType] = None
        while True:
            token = self._peek()
            if token.kind is TokenKind.KEYWORD and token.text in _STORAGE_KEYWORDS:
                self._next()
                if storage is not None and storage != token.text:
                    raise self._error("multiple storage class specifiers")
                storage = token.text
            elif token.kind is TokenKind.KEYWORD and token.text in _QUALIFIER_KEYWORDS:
                self._next()
                if token.text == "const":
                    const = True
                elif token.text == "volatile":
                    volatile = True
            elif token.kind is TokenKind.KEYWORD and token.text in _FUNCTION_SPECIFIERS:
                self._next()
            elif token.is_keyword("struct", "union"):
                base_type = self._parse_struct_or_union_specifier()
            elif token.is_keyword("enum"):
                base_type = self._parse_enum_specifier()
            elif token.kind is TokenKind.KEYWORD and token.text in _TYPE_SPECIFIER_KEYWORDS:
                self._next()
                specifiers.append(token.text)
            elif (token.kind is TokenKind.IDENTIFIER and token.text in self.typedefs
                  and base_type is None and not specifiers):
                self._next()
                base_type = self.typedefs[token.text]
            else:
                break
        if base_type is None:
            base_type = self._type_from_specifiers(specifiers)
        elif specifiers:
            raise self._error("both a named type and basic type specifiers given")
        if const or volatile:
            base_type = base_type.with_qualifiers(const=const, volatile=volatile)
        return base_type, storage

    def _type_from_specifiers(self, specifiers: list[str]) -> ct.CType:
        if not specifiers:
            # Implicit int (pre-C99 style); we accept it for the test corpus.
            return ct.INT
        spec = sorted(specifiers)
        counts = {s: specifiers.count(s) for s in set(specifiers)}
        if "void" in counts:
            return ct.VOID
        if "_Bool" in counts:
            return ct.BOOL
        if "float" in counts:
            return ct.FLOAT
        if "double" in counts:
            return ct.LDOUBLE if "long" in counts else ct.DOUBLE
        unsigned = "unsigned" in counts
        signed = "signed" in counts
        if "char" in counts:
            if unsigned:
                return ct.UCHAR
            if signed:
                return ct.SCHAR
            return ct.CHAR
        long_count = counts.get("long", 0)
        if long_count >= 2:
            return ct.ULLONG if unsigned else ct.LLONG
        if long_count == 1:
            return ct.ULONG if unsigned else ct.LONG
        if "short" in counts:
            return ct.USHORT if unsigned else ct.SHORT
        if "int" in counts or signed or unsigned:
            return ct.UINT if unsigned else ct.INT
        raise self._error(f"unsupported type specifier combination: {' '.join(spec)}")

    # -- struct/union/enum -------------------------------------------------
    def _parse_struct_or_union_specifier(self) -> ct.CType:
        keyword = self._next()
        is_union = keyword.text == "union"
        tag: Optional[str] = None
        if self._peek().kind is TokenKind.IDENTIFIER:
            tag = self._next().text
        registry = self.union_tags if is_union else self.struct_tags
        if tag is not None and tag in registry:
            record = registry[tag]
        else:
            record = ct.UnionType(tag=tag) if is_union else ct.StructType(tag=tag)
            if tag is not None:
                registry[tag] = record
        if self._accept("{"):
            fields = self._parse_struct_declaration_list()
            record.complete(tuple(fields))
            self._expect_punct("}")
        return record

    def _parse_struct_declaration_list(self) -> list[ct.StructField]:
        fields: list[ct.StructField] = []
        while not self._peek().is_punct("}"):
            base_type, storage = self._parse_declaration_specifiers()
            if storage is not None:
                raise self._error("storage class specifier in struct member")
            if self._accept(";"):
                continue  # anonymous struct/union member: flattened below
            while True:
                bit_width: Optional[int] = None
                if self._peek().is_punct(":"):
                    name = None
                    full_type = base_type
                else:
                    name, full_type, _ = self._parse_declarator(base_type)
                if self._accept(":"):
                    width_expr = self._parse_conditional()
                    bit_width = self._fold_const(width_expr)
                if name is not None:
                    fields.append(ct.StructField(name=name, type=full_type, bit_width=bit_width))
                if not self._accept(","):
                    break
            self._expect_punct(";")
        return fields

    def _parse_enum_specifier(self) -> ct.CType:
        self._expect_keyword("enum")
        tag: Optional[str] = None
        if self._peek().kind is TokenKind.IDENTIFIER:
            tag = self._next().text
        if self._accept("{"):
            enumerators: list[tuple[str, int]] = []
            next_value = 0
            while not self._peek().is_punct("}"):
                name_token = self._expect_identifier()
                value = next_value
                if self._accept("="):
                    expr = self._parse_conditional()
                    folded = self._fold_const(expr)
                    if folded is None:
                        raise self._error("enumerator value is not a constant expression")
                    value = folded
                enumerators.append((name_token.text, value))
                self.enum_constants[name_token.text] = value
                next_value = value + 1
                if not self._accept(","):
                    break
            self._expect_punct("}")
            enum_type = ct.EnumType(tag=tag, enumerators=tuple(enumerators))
            if tag is not None:
                self.enum_tags[tag] = enum_type
            return enum_type
        if tag is not None and tag in self.enum_tags:
            return self.enum_tags[tag]
        enum_type = ct.EnumType(tag=tag)
        if tag is not None:
            self.enum_tags[tag] = enum_type
        return enum_type

    # -- declarators ---------------------------------------------------------
    def _parse_declarator(self, base_type: ct.CType,
                          abstract_ok: bool = True) -> tuple[Optional[str], ct.CType, list[str]]:
        """Parse a (possibly abstract) declarator.

        Returns ``(name, type, parameter_names)``.  ``parameter_names`` is
        only meaningful when the resulting type is a function type (it is the
        ordered list of parameter identifiers used by function definitions).
        """
        pointer_layers: list[tuple[bool, bool]] = []
        while self._peek().is_punct("*"):
            self._next()
            const = volatile = False
            while self._peek().kind is TokenKind.KEYWORD and self._peek().text in _QUALIFIER_KEYWORDS:
                qual = self._next().text
                const = const or qual == "const"
                volatile = volatile or qual == "volatile"
            pointer_layers.append((const, volatile))

        name: Optional[str] = None
        nested: Optional[tuple[Optional[str], list, list[str]]] = None
        if self._peek().is_punct("(") and self._is_nested_declarator():
            self._next()
            inner_name, inner_type_marker, inner_params = self._parse_declarator_shape()
            self._expect_punct(")")
            nested = (inner_name, inner_type_marker, inner_params)
            name = inner_name
        elif self._peek().kind is TokenKind.IDENTIFIER:
            name = self._next().text
        elif not abstract_ok and not self._peek().is_punct("(", "["):
            raise self._error("expected declarator")

        suffixes: list[tuple] = []
        param_names: list[str] = []
        while True:
            if self._accept("["):
                if self._accept("]"):
                    suffixes.append(("array", None))
                else:
                    size_expr = self._parse_conditional()
                    self._expect_punct("]")
                    suffixes.append(("array", size_expr))
            elif self._peek().is_punct("("):
                self._next()
                params, variadic, names, has_prototype = self._parse_parameter_list()
                self._expect_punct(")")
                suffixes.append(("function", params, variadic, has_prototype))
                if not param_names:
                    param_names = names
            else:
                break

        result = base_type
        for const, volatile in pointer_layers:
            result = ct.PointerType(pointee=result, const=const, volatile=volatile)
        for suffix in reversed(suffixes):
            if suffix[0] == "array":
                size = None
                if suffix[1] is not None:
                    size = self._fold_const(suffix[1])
                    if size is None:
                        raise UnsupportedFeatureError(
                            "variable length arrays are not supported")
                result = ct.ArrayType(element=result, length=size)
            else:
                _, params, variadic, has_prototype = suffix
                result = ct.FunctionType(
                    return_type=result, parameters=tuple(params),
                    variadic=variadic, has_prototype=has_prototype)
        if nested is not None:
            name, result, inner_param_names = self._apply_nested(nested, result)
            if inner_param_names:
                param_names = inner_param_names
        return name, result, param_names

    def _parse_declarator_shape(self) -> tuple[Optional[str], list, list[str]]:
        """Parse the inside of a parenthesised declarator without a base type.

        Returns the name, a list of "type builders" (recorded operations to
        apply around the base type later), and function parameter names.
        """
        pointer_layers: list[tuple[bool, bool]] = []
        while self._peek().is_punct("*"):
            self._next()
            const = volatile = False
            while self._peek().kind is TokenKind.KEYWORD and self._peek().text in _QUALIFIER_KEYWORDS:
                qual = self._next().text
                const = const or qual == "const"
                volatile = volatile or qual == "volatile"
            pointer_layers.append((const, volatile))
        name: Optional[str] = None
        nested: Optional[tuple[Optional[str], list, list[str]]] = None
        if self._peek().is_punct("(") and self._is_nested_declarator():
            self._next()
            nested = self._parse_declarator_shape()
            self._expect_punct(")")
            name = nested[0]
        elif self._peek().kind is TokenKind.IDENTIFIER:
            name = self._next().text
        suffixes: list[tuple] = []
        param_names: list[str] = []
        while True:
            if self._accept("["):
                if self._accept("]"):
                    suffixes.append(("array", None))
                else:
                    size_expr = self._parse_conditional()
                    self._expect_punct("]")
                    suffixes.append(("array", size_expr))
            elif self._peek().is_punct("("):
                self._next()
                params, variadic, names, has_prototype = self._parse_parameter_list()
                self._expect_punct(")")
                suffixes.append(("function", params, variadic, has_prototype))
                if not param_names:
                    param_names = names
            else:
                break
        builders: list = [("pointers", pointer_layers), ("suffixes", suffixes), ("nested", nested)]
        return name, builders, param_names

    def _apply_nested(self, nested: tuple[Optional[str], list, list[str]],
                      base: ct.CType) -> tuple[Optional[str], ct.CType, list[str]]:
        name, builders, param_names = nested
        pointer_layers = builders[0][1]
        suffixes = builders[1][1]
        inner = builders[2][1]
        result = base
        for const, volatile in pointer_layers:
            result = ct.PointerType(pointee=result, const=const, volatile=volatile)
        for suffix in reversed(suffixes):
            if suffix[0] == "array":
                size = None
                if suffix[1] is not None:
                    size = self._fold_const(suffix[1])
                    if size is None:
                        raise UnsupportedFeatureError("variable length arrays are not supported")
                result = ct.ArrayType(element=result, length=size)
            else:
                _, params, variadic, has_prototype = suffix
                result = ct.FunctionType(
                    return_type=result, parameters=tuple(params),
                    variadic=variadic, has_prototype=has_prototype)
        if inner is not None:
            return self._apply_nested(inner, result)
        return name, result, param_names

    def _is_nested_declarator(self) -> bool:
        """Disambiguate ``(declarator)`` from a parameter list after '('."""
        nxt = self._peek(1)
        if nxt.is_punct("*", "("):
            return True
        if nxt.kind is TokenKind.IDENTIFIER and nxt.text not in self.typedefs:
            return True
        return False

    def _parse_parameter_list(self) -> tuple[list[ct.CType], bool, list[str], bool]:
        params: list[ct.CType] = []
        names: list[str] = []
        variadic = False
        has_prototype = True
        if self._peek().is_punct(")"):
            # Empty parens: an old-style declaration with no prototype.
            return params, variadic, names, False
        if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
            self._next()
            return params, variadic, names, True
        while True:
            if self._accept("..."):
                variadic = True
                break
            base_type, storage = self._parse_declaration_specifiers()
            name, full_type, _ = self._parse_declarator(base_type)
            # Parameters of array/function type adjust to pointers (§6.7.6.3).
            full_type = ct.decay(full_type)
            params.append(full_type)
            names.append(name or "")
            if not self._accept(","):
                break
        return params, variadic, names, has_prototype

    def _parse_type_name(self) -> ct.CType:
        base_type, storage = self._parse_declaration_specifiers()
        if storage is not None:
            raise self._error("storage class in type name")
        name, full_type, _ = self._parse_declarator(base_type, abstract_ok=True)
        if name is not None:
            raise self._error("type name must not declare an identifier")
        return full_type

    def _parse_initializer(self) -> c_ast.Expression:
        if self._peek().is_punct("{"):
            token = self._next()
            items: list[c_ast.Expression] = []
            while not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept(","):
                    break
            self._expect_punct("}")
            return c_ast.InitList(line=token.line, items=items)
        return self._parse_assignment()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_compound_statement(self) -> c_ast.Compound:
        start = self._expect_punct("{")
        block = c_ast.Compound(line=start.line)
        while not self._peek().is_punct("}"):
            if self._at_eof():
                raise self._error("unterminated block")
            block.items.extend(self._parse_block_item())
        self._expect_punct("}")
        return block

    def _parse_block_item(self) -> list[c_ast.Node]:
        if self._peek().is_keyword("_Static_assert"):
            return [self._parse_static_assert()]
        if self._starts_declaration():
            return self._parse_local_declaration()
        return [self._parse_statement()]

    def _parse_local_declaration(self) -> list[c_ast.Node]:
        start = self._peek()
        base_type, storage = self._parse_declaration_specifiers()
        declarations: list[c_ast.Node] = []
        if self._accept(";"):
            return declarations
        while True:
            name, full_type, _ = self._parse_declarator(base_type)
            initializer = None
            if self._accept("="):
                initializer = self._parse_initializer()
            if storage == "typedef":
                if name:
                    self.typedefs[name] = full_type
            else:
                declarations.append(c_ast.Declaration(
                    line=start.line, name=name or "", type=full_type,
                    initializer=initializer, storage=storage))
            if not self._accept(","):
                break
        self._expect_punct(";")
        return declarations

    def _parse_statement(self) -> c_ast.Statement:
        token = self._peek()
        text = token.text
        if text == "{":
            return self._parse_compound_statement()
        if text == "if":
            return self._parse_if()
        if text == "while":
            return self._parse_while()
        if text == "do":
            return self._parse_do_while()
        if text == "for":
            return self._parse_for()
        if text == "return":
            self._next()
            value = None
            if self._peek().text != ";":
                value = self._parse_expression()
            self._expect_punct(";")
            return c_ast.Return(line=token.line, value=value)
        if text == "break":
            self._next()
            self._expect_punct(";")
            return c_ast.Break(line=token.line)
        if text == "continue":
            self._next()
            self._expect_punct(";")
            return c_ast.Continue(line=token.line)
        if text == "switch":
            return self._parse_switch()
        if text == "case":
            self._next()
            expr = self._parse_conditional()
            self._expect_punct(":")
            stmt = self._parse_statement()
            return c_ast.Case(line=token.line, expression=expr, statement=stmt)
        if text == "default":
            self._next()
            self._expect_punct(":")
            stmt = self._parse_statement()
            return c_ast.Default(line=token.line, statement=stmt)
        if text == "goto":
            self._next()
            label = self._expect_identifier().text
            self._expect_punct(";")
            return c_ast.Goto(line=token.line, label=label)
        if text == ";":
            self._next()
            return c_ast.ExpressionStmt(line=token.line, expression=None)
        if token.kind is TokenKind.IDENTIFIER and self._peek(1).text == ":":
            self._next()
            self._next()
            stmt = self._parse_statement()
            return c_ast.Label(line=token.line, name=token.text, statement=stmt)
        expr = self._parse_expression()
        self._expect_punct(";")
        return c_ast.ExpressionStmt(line=token.line, expression=expr)

    def _parse_if(self) -> c_ast.If:
        token = self._expect_keyword("if")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept("else"):
            otherwise = self._parse_statement()
        return c_ast.If(line=token.line, condition=condition, then=then, otherwise=otherwise)

    def _parse_while(self) -> c_ast.While:
        token = self._expect_keyword("while")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return c_ast.While(line=token.line, condition=condition, body=body)

    def _parse_do_while(self) -> c_ast.DoWhile:
        token = self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return c_ast.DoWhile(line=token.line, body=body, condition=condition)

    def _parse_for(self) -> c_ast.For:
        token = self._expect_keyword("for")
        self._expect_punct("(")
        init: Optional[object] = None
        if not self._peek().is_punct(";"):
            if self._starts_declaration():
                declarations = self._parse_local_declaration()
                init = declarations
            else:
                init = self._parse_expression()
                self._expect_punct(";")
        else:
            self._next()
        condition = None
        if not self._peek().is_punct(";"):
            condition = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._peek().is_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return c_ast.For(line=token.line, init=init, condition=condition, step=step, body=body)

    def _parse_switch(self) -> c_ast.Switch:
        token = self._expect_keyword("switch")
        self._expect_punct("(")
        expression = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return c_ast.Switch(line=token.line, expression=expression, body=body)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> c_ast.Expression:
        expr = self._parse_assignment()
        while self.tokens[self.index].text == ",":
            token = self._next()
            rhs = self._parse_assignment()
            expr = c_ast.Comma(line=token.line, left=expr, right=rhs)
        return expr

    def _parse_assignment(self) -> c_ast.Expression:
        left = self._parse_conditional()
        token = self.tokens[self.index]
        if token.text in _ASSIGN_OPS:
            self.index += 1
            value = self._parse_assignment()
            return c_ast.Assignment(line=token.line, op=token.text, target=left, value=value)
        return left

    def _parse_conditional(self) -> c_ast.Expression:
        condition = self._parse_binary(1)
        token = self.tokens[self.index]
        if token.text == "?":
            self.index += 1
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return c_ast.Conditional(line=token.line, condition=condition,
                                     then=then, otherwise=otherwise)
        return condition

    def _parse_binary(self, min_precedence: int) -> c_ast.Expression:
        """Precedence climbing: the operand, then every operator binding at
        least ``min_precedence``, each left-associative."""
        expr = self._parse_cast()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            precedence = c_ast.BINARY_PRECEDENCE.get(token.text, 0)
            if precedence < min_precedence:
                return expr
            self.index += 1
            rhs = self._parse_binary(precedence + 1)
            expr = c_ast.BinaryOp(line=token.line, op=token.text, left=expr, right=rhs)

    def _starts_type_name(self, offset: int = 0) -> bool:
        token = self.tokens[self.index + offset]
        if token.kind is TokenKind.KEYWORD:
            return token.text in _TYPE_SPECIFIER_KEYWORDS or token.text in _QUALIFIER_KEYWORDS
        return token.kind is TokenKind.IDENTIFIER and token.text in self.typedefs

    def _parse_cast(self) -> c_ast.Expression:
        if self.tokens[self.index].text == "(" and self._starts_type_name(1):
            token = self._next()
            target_type = self._parse_type_name()
            self._expect_punct(")")
            if self.tokens[self.index].text == "{":
                # Compound literal: treat as an initializer-list expression
                # cast to the target type.
                init = self._parse_initializer()
                return c_ast.Cast(line=token.line, target_type=target_type, operand=init)
            operand = self._parse_cast()
            return c_ast.Cast(line=token.line, target_type=target_type, operand=operand)
        return self._parse_unary()

    def _parse_unary(self) -> c_ast.Expression:
        token = self.tokens[self.index]
        text = token.text
        if text == "++" or text == "--":
            self.index += 1
            operand = self._parse_unary()
            return c_ast.UnaryOp(line=token.line, op=text + "pre", operand=operand)
        if text in _UNARY_OPS:
            self.index += 1
            operand = self._parse_cast()
            return c_ast.UnaryOp(line=token.line, op=text, operand=operand)
        if text == "sizeof":
            self.index += 1
            if self.tokens[self.index].text == "(" and self._starts_type_name(1):
                self.index += 1
                type_name = self._parse_type_name()
                self._expect_punct(")")
                return c_ast.SizeofType(line=token.line, type_name=type_name)
            operand = self._parse_unary()
            return c_ast.UnaryOp(line=token.line, op="sizeof", operand=operand)
        if text == "_Alignof":
            self.index += 1
            self._expect_punct("(")
            type_name = self._parse_type_name()
            self._expect_punct(")")
            return c_ast.AlignofType(line=token.line, type_name=type_name)
        return self._parse_postfix()

    def _parse_postfix(self) -> c_ast.Expression:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            text = token.text
            if text == "[":
                self.index += 1
                subscript = self._parse_expression()
                self._expect_punct("]")
                expr = c_ast.ArraySubscript(line=token.line, array=expr, index=subscript)
            elif text == "(":
                self.index += 1
                arguments: list[c_ast.Expression] = []
                if tokens[self.index].text != ")":
                    arguments.append(self._parse_assignment())
                    while self._accept(","):
                        arguments.append(self._parse_assignment())
                self._expect_punct(")")
                expr = c_ast.Call(line=token.line, function=expr, arguments=arguments)
            elif text == "." or text == "->":
                self.index += 1
                member = self._expect_identifier().text
                expr = c_ast.Member(line=token.line, object=expr, member=member,
                                    arrow=text == "->")
            elif text == "++" or text == "--":
                self.index += 1
                expr = c_ast.UnaryOp(line=token.line, op=text + "post", operand=expr)
            else:
                return expr

    def _parse_primary(self) -> c_ast.Expression:
        token = self.tokens[self.index]
        kind = token.kind
        if kind is TokenKind.IDENTIFIER:
            self.index += 1
            if token.text in self.enum_constants:
                return c_ast.IntegerLiteral(
                    line=token.line, value=self.enum_constants[token.text], type=ct.INT)
            return c_ast.Identifier(line=token.line, name=token.text)
        if kind is TokenKind.INT_CONST:
            self.index += 1
            constant = token.value
            assert isinstance(constant, IntConstant)
            return c_ast.IntegerLiteral(
                line=token.line, value=constant.value,
                type=self._integer_constant_type(constant))
        if kind is TokenKind.FLOAT_CONST:
            self.index += 1
            constant = token.value
            assert isinstance(constant, FloatConstant)
            ftype = ct.FLOAT if constant.is_float else (
                ct.LDOUBLE if constant.is_long_double else ct.DOUBLE)
            return c_ast.FloatLiteral(line=token.line, value=constant.value, type=ftype)
        if kind is TokenKind.CHAR_CONST:
            self.index += 1
            return c_ast.CharLiteral(line=token.line, value=int(token.value))
        if kind is TokenKind.STRING:
            self.index += 1
            text = str(token.value)
            # Adjacent string literals concatenate (§6.4.5).
            while self.tokens[self.index].kind is TokenKind.STRING:
                text += str(self._next().value)
            return c_ast.StringLiteral(line=token.line, value=text)
        if token.text == "(":
            self.index += 1
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error(f"unexpected token {token.text!r} in expression")

    def _integer_constant_type(self, constant: IntConstant) -> ct.CType:
        """Pick the type of an integer constant (§6.4.4.1)."""
        candidates: list[ct.CType]
        if constant.unsigned:
            candidates = [ct.UINT, ct.ULONG, ct.ULLONG]
        elif constant.base != 10:
            candidates = [ct.INT, ct.UINT, ct.LONG, ct.ULONG, ct.LLONG, ct.ULLONG]
        else:
            candidates = [ct.INT, ct.LONG, ct.LLONG]
        if constant.long_long:
            candidates = [c for c in candidates if isinstance(c, ct.IntType) and c.rank >= 5]
        elif constant.long:
            candidates = [c for c in candidates if isinstance(c, ct.IntType) and c.rank >= 4]
        for candidate in candidates:
            if ct.fits_in(constant.value, candidate, self.profile):
                return candidate
        return candidates[-1] if candidates else ct.ULLONG

    # ------------------------------------------------------------------
    # Constant folding (for array bounds, enum values, case labels)
    # ------------------------------------------------------------------
    def _fold_const(self, expr: c_ast.Expression) -> Optional[int]:
        return fold_constant(expr, self.profile)


def fold_constant(expr: c_ast.Expression,
                  profile: ct.ImplementationProfile = ct.LP64) -> Optional[int]:
    """Best-effort integer constant folding used at parse/static-check time."""
    if isinstance(expr, c_ast.IntegerLiteral):
        return expr.value
    if isinstance(expr, c_ast.CharLiteral):
        return expr.value
    if isinstance(expr, c_ast.SizeofType) and expr.type_name is not None:
        try:
            return expr.measure(profile)
        except ct.LayoutError:
            return None
    if isinstance(expr, c_ast.UnaryOp) and expr.operand is not None:
        inner = fold_constant(expr.operand, profile)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "+":
            return inner
        if expr.op == "~":
            return ~inner
        if expr.op == "!":
            return 0 if inner else 1
        return None
    if isinstance(expr, c_ast.Cast) and expr.operand is not None:
        inner = fold_constant(expr.operand, profile)
        if inner is None or expr.target_type is None:
            return None
        if expr.target_type.is_integer:
            if ct.is_signed_type(expr.target_type, profile):
                bits = ct.integer_bits(expr.target_type, profile)
                inner &= (1 << bits) - 1
                if inner >= (1 << (bits - 1)):
                    inner -= 1 << bits
                return inner
            return ct.wrap_unsigned(inner, expr.target_type, profile)
        return None
    if isinstance(expr, c_ast.Conditional):
        cond = fold_constant(expr.condition, profile) if expr.condition else None
        if cond is None:
            return None
        branch = expr.then if cond else expr.otherwise
        return fold_constant(branch, profile) if branch is not None else None
    if isinstance(expr, c_ast.BinaryOp) and expr.left is not None and expr.right is not None:
        left = fold_constant(expr.left, profile)
        right = fold_constant(expr.right, profile)
        if left is None or right is None:
            return None
        op = expr.op
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return None
                return int(left / right) if (left < 0) != (right < 0) else left // right
            if op == "%":
                if right == 0:
                    return None
                quotient = int(left / right) if (left < 0) != (right < 0) else left // right
                return left - quotient * right
            if op == "<<":
                return left << right if right >= 0 else None
            if op == ">>":
                return left >> right if right >= 0 else None
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "==":
                return int(left == right)
            if op == "!=":
                return int(left != right)
            if op == "<":
                return int(left < right)
            if op == ">":
                return int(left > right)
            if op == "<=":
                return int(left <= right)
            if op == ">=":
                return int(left >= right)
            if op == "&&":
                return int(bool(left) and bool(right))
            if op == "||":
                return int(bool(left) or bool(right))
        except (ValueError, OverflowError):
            return None
    return None


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def parse(source: str, *, filename: str = "<input>",
          profile: ct.ImplementationProfile = ct.LP64,
          extra_headers: Optional[dict[str, str]] = None,
          run_preprocessor: bool = True) -> c_ast.TranslationUnit:
    """Preprocess, tokenize and parse C source text."""
    text = preprocess(source, extra_headers=extra_headers, filename=filename) \
        if run_preprocessor else source
    tokens = tokenize(text, filename)
    parser = Parser(tokens, filename=filename, profile=profile)
    unit = parser.parse_translation_unit()
    return unit


def parse_file(path: str, *, profile: ct.ImplementationProfile = ct.LP64) -> c_ast.TranslationUnit:
    """Parse a C file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), filename=path, profile=profile)
