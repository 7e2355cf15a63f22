"""Surface syntax for BeePL: tokenizer, parser and pretty-printer.

Input files use extension .bpl, UTF-8, with // line comments.  Diagnostics
render as ``file:line:col: error[CODE]: message`` and can be serialized to
JSON.  Parsing is deterministic and stops at the first error.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import (
    App, ArrayTy, Assign, Bop, BopKind, BOOL, BYTES, BytesView, Cast,
    Composite, Cond, ConstBool, ConstInt, ConstLong, CoreError, Deref,
    Direction, Effect, EffectAtom, Expr, ExtDecl, Field, For, Frame, FunDecl,
    GlobDecl, I8, I16, INT, Let, LONG, Loc, Match, NoneLit, OptionTy,
    Pattern, Pbytes, Pnone, Program, Prim, Psome, Pwild, RefOp, RefTy,
    RepeatedName, Seq, SomeLit, Span, StructInit, StructTy, Ty, U8, U16,
    U32, ULONG, UNIT, UnitLit, Uop, UopKind, Var,
)


class FrontendError(Exception):
    def __init__(self, diagnostic: "Diagnostic"):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class LexError(FrontendError):
    pass


class ParseError(FrontendError):
    pass


class UnprintableInternalNode(Exception):
    pass


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Span
    note: Optional[str] = None
    filename: str = "<input>"

    def render(self) -> str:
        base = (f"{self.filename}:{self.span.line}:{self.span.col}: "
                f"{self.severity}[{self.code}]: {self.message}")
        if self.note:
            base += f" ({self.note})"
        return base

    def to_json(self) -> dict:
        out = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "line": self.span.line,
            "col": self.span.col,
        }
        if self.note:
            out["note"] = self.note
        return out

    def __str__(self):
        return self.render()


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "fun", "let", "in", "if", "then", "else", "match", "with", "for",
    "Up", "Down", "ref", "true", "false", "none", "some", "pnone", "psome",
    "struct", "extern", "global", "vars", "option", "not", "char",
    "bool", "int", "long", "ulong", "unit", "bytes",
    "i8", "i16", "i32", "u8", "u16", "u32",
    "int8", "int16", "int32", "uint8", "uint16", "uint32",
}

PUNCT = [
    "...", ":=", "=>", "==", "!=", "<=", ">=", "<<", ">>", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "|", "!", "=",
    "<", ">", "+", "-", "*", "/", "%", "&", "^", "~", "_", "#",
]


@dataclass(slots=True)
class Token:
    kind: str  # "kw" | "ident" | "int" | "string" | "punct" | "eof"
    lexeme: str
    span: Span
    value: int = 0  # numeric payload for int tokens
    is_long: bool = False  # literal carried an explicit L suffix


# One alternative per token class, tried in order; a match is a token and the
# blanks after it (blanks before it would make trailing blanks quadratic).
# Digits are ASCII only.  A word may start with any letter or '_' and
# continue with any letter, digit, '_' or "'"; the pattern also lets a
# non-ASCII numeral start one, which the lexer rejects.  A string that meets
# a newline or the end of the input is open.  Punctuation is tried longest
# first.  The last alternative takes any character but a newline, which the
# first takes, so a match starts at every position: matches are contiguous.
_TOKEN_RE = re.compile("(" + "|".join((
    r"\n",
    r"//[^\n]*",
    r'"[^"\n]*"?',
    r"(?:0[xX][0-9a-fA-F]*|[0-9]+)L?",
    r"[^\W\d][\w']*",
    *map(re.escape, sorted(PUNCT, key=len, reverse=True)),
    r".",
)) + r")([ \t\r]*)")

# A token's class, from its first character.  '/' starts a comment or the
# division operator.  A character missing here starts an identifier if it
# is a letter (no keyword has a non-ASCII one) and is illegal otherwise.
_FIRST_CHAR = {
    **{p[0]: "punct" for p in PUNCT},
    **dict.fromkeys("0123456789", "int"),
    **dict.fromkeys("_abcdefghijklmnopqrstuvwxyz"
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "word"),
    '"': "string", "\n": "newline", "/": "slash",
}


def _lex(source: str, filename: str):
    """The tokens of ``source`` as parallel lists of kinds, texts (a
    string's quotes included) and start offsets, ending with one ``eof``;
    the offset of each line's start; and the offset the ``eof`` column is
    counted at, which a trailing comment does not advance."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    lines = [0]
    n = eof_at = len(source)
    pos = n - len(source.lstrip(" \t\r"))
    for text, blanks in _TOKEN_RE.findall(source, pos):
        kind = _FIRST_CHAR.get(text[0], "other")
        if kind != "punct":
            if kind == "word":
                if text in KEYWORDS:
                    kind = "kw"
                elif text == "_":
                    kind = "punct"
                elif text.startswith("__bpl_"):
                    _lex_error("L003", "identifiers starting with '__bpl_' "
                               "are reserved", lines, pos, len(text),
                               filename)
                else:
                    kind = "ident"
            elif kind == "int":
                if text in ("0x", "0X", "0xL", "0XL"):
                    _lex_error("L004", "hexadecimal literal has no digits",
                               lines, pos, len(text), filename)
            elif kind == "newline":
                lines.append(pos + 1)
                pos += 1 + len(blanks)
                continue
            elif kind == "slash":
                if text != "/":  # a comment, which runs to the newline
                    if pos + len(text) == n:
                        eof_at = pos
                    pos += len(text)
                    continue
                kind = "punct"
            elif kind == "string":
                if len(text) == 1 or text[-1] != '"':
                    _lex_error("L002", "unterminated string literal",
                               lines, pos, len(text), filename)
            elif text[0].isalpha():
                kind = "ident"
            else:
                _lex_error("L001", f"illegal character {text[0]!r}",
                           lines, pos, 1, filename)
        kinds.append(kind)
        texts.append(text)
        starts.append(pos)
        pos += len(text) + len(blanks)
    kinds.append("eof")
    texts.append("")
    starts.append(n)
    return kinds, texts, starts, lines, eof_at


def _span(lines: list[int], at: int, start: int, end: int) -> Span:
    """The span from ``start`` to ``end``, with the line and column of
    offset ``at``; ``lines`` holds the offset of each line's start."""
    line = bisect_right(lines, at)
    return Span(line, at - lines[line - 1] + 1, start, end)


def _lex_error(code: str, message: str, lines: list[int], start: int,
               length: int, filename: str):
    raise LexError(Diagnostic("error", code, message,
                              _span(lines, start, start, start + length),
                              filename=filename))


def _int_value(text: str) -> tuple[int, bool]:
    """An int token's value, and whether it has the L suffix."""
    is_long = text[-1] == "L"
    digits = text[:-1] if is_long else text
    if digits[1:2] in ("x", "X"):
        return int(digits, 16), is_long
    # int() converts at most 4,300 decimal digits, leading zeros counted, so
    # a wider decimal goes 4,000 digits at a time.
    digits = digits.lstrip("0") or "0"
    if len(digits) <= 4300:
        return int(digits), is_long
    value = 0
    for k in range(0, len(digits), 4000):
        chunk = digits[k:k + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value, is_long


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """The lexer's tokens as ``Token`` objects, each with its span and an int
    token with its exact value; the parser reads the lexer's lists
    directly."""
    p = Parser(source, filename)
    tokens = []
    for i, kind in enumerate(p.kinds[:-2]):
        payload = _int_value(p.texts[i]) if kind == "int" else ()
        tokens.append(Token(kind, p.lexeme(i), p.span(i), *payload))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

PRIM_TYPE_NAMES = {
    "bool": BOOL,
    "int": INT,
    "long": LONG,
    "ulong": ULONG,
    "char": I8,
    "i8": I8, "int8": I8,
    "i16": I16, "int16": I16,
    "i32": INT, "int32": INT,
    "u8": U8, "uint8": U8,
    "u16": U16, "uint16": U16,
    "u32": U32, "uint32": U32,
}

INT_MAX = (1 << 31) - 1
LONG_MAX = (1 << 63) - 1

# Operator precedence, read by both the parser and the printer.  Binary
# operators come one level per row, loosest first; all of them associate to
# the left, and each one's lexeme is its BopKind's value.
BINARY_OPS: dict[str, tuple[BopKind, int]] = {
    kind.value: (kind, bp)
    for bp, level in enumerate((
        (BopKind.LOR,),
        (BopKind.LAND,),
        (BopKind.OR,),
        (BopKind.XOR,),
        (BopKind.AND,),
        (BopKind.EQ, BopKind.NE),
        (BopKind.LT, BopKind.LE, BopKind.GT, BopKind.GE),
        (BopKind.SHL, BopKind.SHR),
        (BopKind.ADD, BopKind.SUB),
        (BopKind.MUL, BopKind.DIV, BopKind.MOD),
    ), start=1)
    for kind in level
}
_BOP_PREC = {kind: bp for kind, bp in BINARY_OPS.values()}
_LOW_PREC = 0  # ':=', which associates to the right, and let/if/match bodies
_UNARY_PREC = max(_BOP_PREC.values()) + 1  # prefix operators and casts
_POSTFIX_PREC = _UNARY_PREC + 1  # calls and field access

_PREFIX_OPS = {"!": Deref(), **{k.value: Uop(k) for k in UopKind}}

# The tallest expression tree the parser accepts (P005).  Every later stage
# walks expressions recursively; README says how the limit was sized.
MAX_EXPR_DEPTH = 200


def _negated(lit: Expr, span: Optional[Span]) -> Expr:
    """The negation of an int or long literal.  INT_MIN is an int literal;
    -INT_MIN, like any literal past INT_MAX, is a long one."""
    value = -lit.value
    if value == -(1 << 31) or (isinstance(lit, ConstInt) and value <= INT_MAX):
        return ConstInt(value, span=span)
    return ConstLong(value, span=span)


class Parser:
    """Reads the lexer's lists by index.  A token's span is built only for a
    node or a diagnostic that keeps it (``span``)."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.filename = filename
        (self.kinds, self.texts, self.starts, self.lines,
         self.eof_at) = _lex(source, filename)
        # Two more eof entries: the parser looks at most two tokens ahead.
        self.kinds += ("eof", "eof")
        self.texts += ("", "")
        self.starts += self.starts[-1:] * 2
        self.pos = 0
        self._depth = 0  # parse_expr calls now open
        self._height = 0  # see parse_expr

    # -- token plumbing ------------------------------------------------------

    def span(self, i: int) -> Span:
        start = self.starts[i]
        if self.kinds[i] == "eof":
            return _span(self.lines, self.eof_at, start, start)
        return _span(self.lines, start, start, start + len(self.texts[i]))

    def lexeme(self, i: int) -> str:
        """Token i's text, a string's without its quotes."""
        text = self.texts[i]
        return text[1:-1] if self.kinds[i] == "string" else text

    def at(self, kind: str, lexeme: Optional[str] = None,
           ahead: int = 0) -> bool:
        i = self.pos + ahead
        return self.kinds[i] == kind and (lexeme is None
                                          or self.texts[i] == lexeme)

    def accept(self, kind: str, lexeme: Optional[str] = None
               ) -> Optional[int]:
        """The next token's index, if it is a ``kind`` (and ``lexeme``):
        the token is consumed."""
        i = self.pos
        if self.kinds[i] == kind and (lexeme is None
                                      or self.texts[i] == lexeme):
            self.pos = i + 1
            return i
        return None

    def expect(self, kind: str, lexeme: Optional[str] = None,
               what: str = "") -> int:
        i = self.accept(kind, lexeme)
        if i is not None:
            return i
        i = self.pos
        wanted = lexeme or kind
        msg = (f"expected {what or wanted!r}, "
               f"found {self.lexeme(i) or self.kinds[i]!r}")
        raise ParseError(Diagnostic("error", "P001", msg, self.span(i),
                                    filename=self.filename))

    def fail(self, message: str, span: Optional[Span] = None, code: str = "P001"):
        raise ParseError(Diagnostic("error", code, message,
                                    span or self.span(self.pos),
                                    filename=self.filename))

    def items(self, close: str, item: Callable[[], object]) -> list:
        """The ``item``s of a comma-separated list up to the punctuation
        ``close``, which is consumed; a trailing comma is allowed."""
        out = []
        while not self.at("punct", close):
            out.append(item())
            if self.accept("punct", ",") is None:
                break
        self.expect("punct", close)
        return out

    # -- programs ------------------------------------------------------------

    def parse_program(self) -> Program:
        decls = []
        composites = []
        while not self.at("eof"):
            sec = None
            if self.at("punct", "#"):
                sec = self.parse_section_attr()
            if self.at("kw", "struct"):
                if sec is not None:
                    self.fail("a struct definition takes no section attribute")
                composites.append(self.parse_struct_def())
            elif self.at("kw", "fun"):
                decls.append(self.parse_fun_decl(sec))
            elif self.at("kw", "extern"):
                if sec is not None:
                    self.fail("an extern declaration takes no section attribute")
                decls.append(self.parse_extern_decl())
            elif self.at("kw", "global"):
                decls.append(self.parse_glob_decl(sec))
            elif self.at("kw", "char"):
                decls.append(self.parse_char_array_decl(sec))
            else:
                self.fail("expected a declaration")
        try:
            return Program(tuple(decls), tuple(composites))
        except RepeatedName as exc:  # reported at the second declaration
            again = [d for d in decls if d.name == exc.name][1]
            self.fail(str(exc), again.span, code="P002")

    def parse_section_attr(self) -> str:
        self.expect("punct", "#")
        name = self.expect("ident", what="section")
        if self.texts[name] != "section":
            self.fail("expected 'section' after '#'", self.span(name))
        return self.lexeme(self.expect("string", what="section name"))

    def parse_struct_def(self) -> Composite:
        self.expect("kw", "struct")
        name = self.expect("ident", what="struct name")
        self.expect("punct", "{")

        def field() -> tuple[str, Ty]:
            fname = self.expect("ident", what="field name")
            self.expect("punct", ":")
            return self.texts[fname], self.parse_type()
        fields = self.items("}", field)
        try:
            return Composite(self.texts[name], tuple(fields),
                             span=self.span(name))
        except CoreError as exc:
            self.fail(str(exc), self.span(name), code="P002")

    def parse_fun_decl(self, sec: Optional[str]) -> FunDecl:
        kw = self.expect("kw", "fun")
        name = self.expect("ident", what="function name")
        self.expect("punct", "(")
        args = self.items(")", lambda: self.typed_name("parameter name"))
        self.expect("punct", ":")
        rt = self.parse_type()
        ef = None
        if self.accept("punct", ",") is not None:
            ef = self.parse_effect_annotation()
        local_vars = []
        if self.accept("kw", "vars") is not None:
            self.expect("punct", "(")
            local_vars = self.items(")", lambda: self.typed_name("local name"))
        self.expect("punct", "{")
        body = self.parse_expr()
        self.accept("punct", ";")
        self.expect("punct", "}")
        span = self.span(kw)
        try:
            return FunDecl(self.texts[name], rt, tuple(args), body,
                           vars=tuple(local_vars), ef=ef, sec=sec, span=span)
        except CoreError as exc:
            self.fail(str(exc), span, code="P002")

    def typed_name(self, what: str) -> tuple[str, Ty]:
        """A parameter or a local, ``T x``, as ``(x, T)``."""
        ty = self.parse_type()
        return self.texts[self.expect("ident", what=what)], ty

    def parse_effect_annotation(self) -> Effect:
        self.expect("punct", "<")

        def atom() -> EffectAtom:
            t = self.expect("ident", what="effect name")
            try:
                return EffectAtom(self.texts[t])
            except ValueError:
                self.fail(f"unknown effect {self.texts[t]!r}", self.span(t))
        return Effect(self.items(">", atom))

    def parse_extern_decl(self) -> ExtDecl:
        kw = self.expect("kw", "extern")
        self.expect("kw", "fun")
        name = self.expect("ident", what="function name")
        self.expect("punct", "(")

        def param() -> Ty:
            ty = self.parse_type()
            self.accept("ident")  # optional parameter name
            return ty
        arg_types = self.items(")", param)
        self.expect("punct", ":")
        rt = self.parse_type()
        ef = Effect()
        if self.accept("punct", ",") is not None:
            ef = self.parse_effect_annotation()
        self.accept("punct", ";")
        return ExtDecl(self.texts[name], tuple(arg_types), rt, ef,
                       span=self.span(kw))

    def parse_glob_decl(self, sec: Optional[str]) -> GlobDecl:
        kw = self.expect("kw", "global")
        name = self.expect("ident", what="global name")
        self.expect("punct", ":")
        ty = self.parse_type()
        self.expect("punct", "=")
        at = self.span(self.pos)
        init = self.parse_glob_init()
        self.accept("punct", ";")
        return GlobDecl(self.texts[name], ty, init, sec=sec,
                        span=self.span(kw), init_span=at)

    def parse_glob_init(self) -> Union[Expr, bytes]:
        """A global's initial value: a string or a literal, which the checker
        types at the declared type."""
        if self.at("string"):
            return self.lexeme(self.expect("string")).encode() + b"\x00"
        t = self.accept("kw", "none")
        if t is not None:
            return NoneLit(span=self.span(t))
        t = self.accept("kw", "true")
        if t is None:
            t = self.accept("kw", "false")
        if t is not None:
            return ConstBool(self.texts[t] == "true", span=self.span(t))
        minus = self.accept("punct", "-")
        lit = self._int_literal(self.expect("int", what="initial value"))
        return lit if minus is None else _negated(lit, self.span(minus))

    def parse_char_array_decl(self, sec: Optional[str]) -> GlobDecl:
        kw = self.expect("kw", "char")
        name = self.expect("ident", what="global name")
        self.expect("punct", "[")
        self.expect("punct", "]")
        if self.at("punct", "#"):
            sec = self.parse_section_attr()
        self.expect("punct", "=")
        text = self.expect("string", what="string initializer")
        self.accept("punct", ";")
        data = self.lexeme(text).encode() + b"\x00"
        return GlobDecl(self.texts[name], ArrayTy(I8, len(data)), data,
                        sec=sec, span=self.span(kw))

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Ty:
        t = self.pos
        lexeme = self.texts[t]
        if self.kinds[t] == "kw" and lexeme in PRIM_TYPE_NAMES:
            self.pos += 1
            base: Ty = PRIM_TYPE_NAMES[lexeme]
        elif self.accept("kw", "unit") is not None:
            base = UNIT
        elif self.accept("kw", "bytes") is not None:
            base = BYTES
        elif self.accept("kw", "struct") is not None:
            name = self.expect("ident", what="struct name")
            base = StructTy(self.texts[name])
        elif self.accept("kw", "option") is not None:
            self.expect("punct", "(")
            inner = self.parse_type()
            self.expect("punct", ")")
            if not isinstance(inner, RefTy):
                self.fail(f"option wraps a pointer type, not {inner}",
                          self.span(t), code="P004")
            return OptionTy(inner)
        else:
            self.fail("expected a type")
        while True:
            if self.at("punct", "*"):
                self.pos += 1
                try:
                    base = RefTy(base)
                except CoreError as exc:
                    self.fail(str(exc), self.span(t), code="P004")
            elif self.at("punct", "[") and self.at("int", ahead=1):
                self.pos += 1
                length = self._int_literal(self.expect("int")).value
                self.expect("punct", "]")
                try:
                    base = ArrayTy(base, length)
                except CoreError as exc:
                    self.fail(str(exc), self.span(t), code="P004")
            else:
                break
        return base

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, min_bp: int = _LOW_PREC) -> Expr:
        """Parse an expression whose infix operators bind at least as tightly
        as ``min_bp`` (Pratt's top-down operator precedence).

        Tree heights travel up in ``self._height``: after a call returns, it
        holds the height of the tallest expression parsed since the caller
        last cleared it.  Parentheses count as one level.
        """
        siblings = self._height
        self._depth += 1
        if self._depth > MAX_EXPR_DEPTH:
            self._too_deep(self.pos)
        self._height = 0
        lhs = self.parse_prefix()
        height = self._height + 1
        kinds, texts = self.kinds, self.texts
        while True:
            t = self.pos
            if kinds[t] != "punct":
                break
            lexeme = texts[t]
            self._height = 0
            if lexeme in BINARY_OPS:
                kind, bp = BINARY_OPS[lexeme]
                if bp < min_bp or (kind is BopKind.OR
                                   and self._bar_starts_pattern()):
                    break
                self.pos = t + 1
                lhs = Prim(Bop(kind), (lhs, self.parse_expr(bp + 1)),
                           span=self.span(t))
            elif lexeme == "(":
                self.pos = t + 1
                args = self.items(")", self.parse_expr)
                lhs = App(lhs, tuple(args), span=self.span(t))
            elif lexeme == ".":
                self.pos = t + 1
                fname = self.expect("ident", what="field name")
                lhs = Field(lhs, texts[fname], span=self.span(fname))
            elif lexeme == ":=" and min_bp == _LOW_PREC:
                self.pos = t + 1
                lhs = Prim(Assign(), (lhs, self.parse_expr(_LOW_PREC)),
                           span=self.span(t))
            else:
                break
            height = max(height, self._height) + 1
            if height > MAX_EXPR_DEPTH:
                self._too_deep(t)
        self._depth -= 1
        self._height = max(siblings, height)
        return lhs

    def _too_deep(self, t: int):
        self.fail(f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                  self.span(t), code="P005")

    def _bar_starts_pattern(self) -> bool:
        i = self.pos + 1
        kind, lexeme = self.kinds[i], self.texts[i]
        if kind == "kw" and lexeme in ("pnone", "psome"):
            return True
        if kind == "punct" and lexeme == "_":
            return True
        return kind == "ident" and self.kinds[i + 1] == "punct" \
            and self.texts[i + 1] in (",", "=>")

    def parse_prefix(self) -> Expr:
        """A prefix operator or cast with its operand, or a primary."""
        t = self.pos
        kind, lexeme = self.kinds[t], self.texts[t]
        if kind == "ident":
            self.pos = t + 1
            if self.at("punct", "{"):
                return self.parse_struct_init(t)
            return Var(lexeme, span=self.span(t))
        if kind == "int":
            self.pos = t + 1
            return self._int_literal(t)
        if kind == "punct" and lexeme == "(":
            self.pos = t + 1
            ty = self.texts[t + 1]
            if (self.kinds[t + 1] == "kw" and ty in PRIM_TYPE_NAMES
                    and self.at("punct", ")", ahead=1)):
                self.pos = t + 3
                return Prim(Cast(PRIM_TYPE_NAMES[ty]),
                            (self.parse_expr(_UNARY_PREC),), span=self.span(t))
            if self.accept("punct", ")") is not None:
                return UnitLit(span=self.span(t))
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if kind == "punct" or kind == "kw":
            op = _PREFIX_OPS.get(lexeme)
            if op is not None:
                self.pos = t + 1
                operand = self.parse_expr(_UNARY_PREC)
                # Fold negated literals so printed constants re-parse
                # structurally.
                if lexeme == "-" and isinstance(operand,
                                                (ConstInt, ConstLong)):
                    return _negated(operand, self.span(t))
                return Prim(op, (operand,), span=self.span(t))
        if kind == "kw":
            if lexeme == "let":
                return self.parse_let()
            if lexeme == "if":
                return self.parse_if()
            if lexeme == "match":
                return self.parse_match()
            if lexeme == "for":
                return self.parse_for()
            if lexeme in ("true", "false"):
                self.pos = t + 1
                return ConstBool(lexeme == "true", span=self.span(t))
            if lexeme == "none":
                self.pos = t + 1
                return NoneLit(span=self.span(t))
            if lexeme in ("some", "ref"):
                self.pos = t + 1
                self.expect("punct", "(")
                inner = self.parse_expr()
                self.expect("punct", ")")
                if lexeme == "some":
                    return SomeLit(inner, span=self.span(t))
                return Prim(RefOp(), (inner,), span=self.span(t))
        self.fail("expected an expression")

    def _int_literal(self, t: int) -> Expr:
        text = self.texts[t]
        # Past 20 significant digits a decimal exceeds 64 bits; int() would
        # refuse one past 4,300 digits, so it is not converted.
        wide = len(text) > 20 and text[1:2] not in "xX" and \
            len(text.rstrip("L").lstrip("0")) > 20
        value, is_long = (0, False) if wide else _int_value(text)
        if wide or value > LONG_MAX:
            self.fail("integer literal exceeds 64 bits", self.span(t),
                      code="P003")
        if is_long or value > INT_MAX:
            return ConstLong(value, span=self.span(t))
        return ConstInt(value, span=self.span(t))

    def parse_struct_init(self, name: int) -> Expr:
        self.expect("punct", "{")

        def field() -> tuple[str, Expr]:
            fname = self.expect("ident", what="field name")
            self.expect("punct", "=")
            return self.texts[fname], self.parse_expr()
        fields = self.items("}", field)
        return StructInit(self.texts[name], tuple(fields),
                          span=self.span(name))

    def parse_let(self) -> Expr:
        kw = self.expect("kw", "let")
        if self.accept("punct", "_") is not None:
            name = "_"
            declared = UNIT
            if self.accept("punct", ":") is not None:
                declared = self.parse_type()
        else:
            name = self.texts[self.expect("ident", what="binder")]
            self.expect("punct", ":")
            declared = self.parse_type()
        self.expect("punct", "=")
        bound = self.parse_expr()
        self.expect("kw", "in")
        body = self.parse_expr()
        return Let(name, declared, bound, body, span=self.span(kw))

    def parse_if(self) -> Expr:
        kw = self.expect("kw", "if")
        guard = self.parse_expr()
        self.expect("kw", "then")
        then = self.parse_expr()
        self.expect("kw", "else")
        otherwise = self.parse_expr()
        return Cond(guard, then, otherwise, span=self.span(kw))

    def parse_for(self) -> Expr:
        kw = self.expect("kw", "for")
        self.expect("punct", "(")
        lo = self.parse_expr()
        self.expect("punct", "...")
        hi = self.parse_expr()
        self.expect("punct", ",")
        if self.accept("kw", "Up") is not None:
            d = Direction.UP
        elif self.accept("kw", "Down") is not None:
            d = Direction.DOWN
        else:
            self.fail("expected Up or Down")
        self.expect("punct", ")")
        self.expect("punct", "{")
        body = self.parse_expr()
        self.accept("punct", ";")
        self.expect("punct", "}")
        return For(lo, hi, d, body, span=self.span(kw))

    def parse_match(self) -> Expr:
        kw = self.expect("kw", "match")
        scrutinee = self.parse_expr()
        self.expect("kw", "with")
        arms = []
        while self.accept("punct", "|") is not None:
            pat = self.parse_pattern()
            self.expect("punct", "=>")
            arms.append((pat, self.parse_expr()))
        if not arms:
            self.fail("match needs at least one arm")
        return Match(scrutinee, tuple(arms), span=self.span(kw))

    def parse_pattern(self) -> Pattern:
        if self.accept("kw", "pnone") is not None:
            return Pnone()
        if self.accept("kw", "psome") is not None:
            binder = self.expect("ident", what="binder")
            return Psome(self.texts[binder])
        if self.accept("punct", "_") is not None:
            return Pwild()
        binder = self.expect("ident", what="pattern binder")
        self.expect("punct", ",")
        target = self.parse_type()
        fields = []
        if self.accept("punct", ":") is not None:
            while self.accept("punct", "(") is not None:
                y = self.expect("ident", what="field binder")
                self.expect("punct", ",")
                fty = self.parse_type()
                self.expect("punct", ")")
                fields.append((self.texts[y], fty))
                if self.accept("punct", ",") is None:
                    break
        try:
            return Pbytes(self.texts[binder], target, tuple(fields))
        except CoreError as exc:
            self.fail(str(exc), self.span(binder),
                      code="P002" if isinstance(exc, RepeatedName) else "P004")


def parse_program(source: str, filename: str = "<input>") -> Program:
    return Parser(source, filename).parse_program()


def parse_expr(source: str, filename: str = "<input>") -> Expr:
    p = Parser(source, filename)
    e = p.parse_expr()
    p.expect("eof")
    return e


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def print_expr(e: Expr) -> str:
    return _pe(e, _LOW_PREC)


def _pe(e: Expr, ctx: int) -> str:
    if isinstance(e, (Loc, BytesView, Seq, Frame)):
        raise UnprintableInternalNode(f"{type(e).__name__} has no surface syntax")
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ConstInt):
        return str(e.value)
    if isinstance(e, ConstLong):
        return f"{e.value}L"
    if isinstance(e, ConstBool):
        return "true" if e.value else "false"
    if isinstance(e, UnitLit):
        return "()"
    if isinstance(e, NoneLit):
        return "none"
    if isinstance(e, SomeLit):
        return f"some({_pe(e.value, _LOW_PREC)})"
    if isinstance(e, App):
        args = ", ".join(_pe(a, _LOW_PREC) for a in e.args)
        return f"{_pe(e.callee, _POSTFIX_PREC)}({args})"
    if isinstance(e, Field):
        return f"{_pe(e.target, _POSTFIX_PREC)}.{e.fname}"
    if isinstance(e, Prim):
        return _print_prim(e, ctx)
    if isinstance(e, Let):
        txt = (f"let {e.name} : {e.declared} = "
               f"{_pe(e.bound, _LOW_PREC)} in {_pe(e.body, _LOW_PREC)}")
        return _paren(txt, ctx) if ctx > _LOW_PREC else txt
    if isinstance(e, Cond):
        txt = (f"if {_pe(e.guard, _LOW_PREC)} then {_pe(e.then, _LOW_PREC)} "
               f"else {_pe(e.otherwise, _LOW_PREC)}")
        return _paren(txt, ctx) if ctx > _LOW_PREC else txt
    if isinstance(e, For):
        return (f"for ({_pe(e.lo, _LOW_PREC)} ... {_pe(e.hi, _LOW_PREC)}, "
                f"{e.direction.value}) {{ {_pe(e.body, _LOW_PREC)} }}")
    if isinstance(e, Match):
        arms = " ".join(f"| {_print_pattern(p)} => {_pe(b, _LOW_PREC + 1)}"
                        for p, b in e.arms)
        txt = f"match {_pe(e.scrutinee, _LOW_PREC)} with {arms}"
        return _paren(txt, ctx) if ctx > _LOW_PREC else txt
    if isinstance(e, StructInit):
        fields = ", ".join(f"{f} = {_pe(fe, _LOW_PREC)}" for f, fe in e.fields)
        return f"{e.name} {{ {fields} }}"
    raise UnprintableInternalNode(f"cannot print {e!r}")


def _print_prim(e: Prim, ctx: int) -> str:
    op = e.op
    if isinstance(op, RefOp):
        return f"ref({_pe(e.operands[0], _LOW_PREC)})"
    if isinstance(op, Deref):
        return _paren(f"!{_pe(e.operands[0], _UNARY_PREC)}", ctx,
                      when=ctx > _UNARY_PREC)
    if isinstance(op, Assign):
        txt = (f"{_pe(e.operands[0], _LOW_PREC + 1)} := "
               f"{_pe(e.operands[1], _LOW_PREC)}")
        return _paren(txt, ctx) if ctx > _LOW_PREC else txt
    if isinstance(op, Uop):
        spelling = "not " if op.kind is UopKind.LOGNOT else op.kind.value
        return _paren(f"{spelling}{_pe(e.operands[0], _UNARY_PREC)}", ctx,
                      when=ctx > _UNARY_PREC)
    if isinstance(op, Cast):
        return _paren(f"({op.target}){_pe(e.operands[0], _UNARY_PREC)}",
                      ctx, when=ctx > _UNARY_PREC)
    if isinstance(op, Bop):
        prec = _BOP_PREC[op.kind]
        # '|' chains are always parenthesized so match arms stay unambiguous.
        if op.kind is BopKind.OR:
            return f"({_pe(e.operands[0], prec)} | {_pe(e.operands[1], prec + 1)})"
        txt = (f"{_pe(e.operands[0], prec)} {op.kind.value} "
               f"{_pe(e.operands[1], prec + 1)}")
        return _paren(txt, ctx, when=ctx > prec)
    raise UnprintableInternalNode(f"cannot print primitive {op!r}")


def _print_pattern(p: Pattern) -> str:
    if isinstance(p, Pnone):
        return "pnone"
    if isinstance(p, Psome):
        return f"psome {p.binder}"
    if isinstance(p, Pwild):
        return "_"
    if isinstance(p, Pbytes):
        base = f"{p.binder}, {p.target}"
        if p.fields:
            base += " : " + ", ".join(f"({y}, {t})" for y, t in p.fields)
        return base
    raise UnprintableInternalNode(f"cannot print pattern {p!r}")


def _paren(txt: str, ctx: int, when: Optional[bool] = None) -> str:
    need = (ctx > _LOW_PREC) if when is None else when
    return f"({txt})" if need else txt


def print_program(p: Program) -> str:
    lines: list[str] = []
    for co in p.composites:
        fields = ", ".join(f"{f} : {t}" for f, t in co.fields)
        lines.append(f"struct {co.sid} {{ {fields} }}")
    for d in p.decls:
        if isinstance(d, FunDecl):
            if d.sec is not None:
                lines.append(f'#section "{d.sec}"')
            args = ", ".join(f"{t} {x}" for x, t in d.args)
            head = f"fun {d.name}({args}) : {d.rt}"
            if d.ef is not None:
                head += f", {d.ef}"
            if d.vars:
                head += " vars (" + ", ".join(f"{t} {y}"
                                              for y, t in d.vars) + ")"
            lines.append(head + " {")
            lines.append("    " + print_expr(d.body))
            lines.append("}")
        elif isinstance(d, ExtDecl):
            args = ", ".join(str(t) for t in d.arg_types)
            head = f"extern fun {d.name}({args}) : {d.res_type}"
            if d.ef:
                head += f", {d.ef}"
            lines.append(head + ";")
        elif isinstance(d, GlobDecl):
            if isinstance(d.init, bytes) and isinstance(d.ty, ArrayTy):
                sec = f' #section "{d.sec}"' if d.sec else ""
                text = d.init[:-1].decode()
                lines.append(f'char {d.name}[]{sec} = "{text}";')
                continue
            if d.sec is not None:
                lines.append(f'#section "{d.sec}"')
            lines.append(f"global {d.name} : {d.ty} = "
                         f"{print_expr(d.init)};")
    return "\n".join(lines) + "\n"
