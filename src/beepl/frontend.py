"""Surface syntax for BeePL: tokenizer, parser and pretty-printer.

Input files use extension .bpl, UTF-8, with // line comments.  Diagnostics
render as ``file:line:col: error[CODE]: message`` and can be serialized to
JSON.  Parsing is deterministic and stops at the first error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    App, ArrayTy, Assign, Bop, BopKind, BOOL, BYTES, BytesView, Cast,
    Composite, Cond, ConstBool, ConstInt, ConstLong, CoreError, Deref,
    Direction, Effect, EffectAtom, Expr, ExtDecl, Field, For, FunDecl,
    GlobDecl, I8, I16, INT, Let, LONG, Loc, Match, NoneLit, OptionTy,
    Pattern, Pbytes, Pnone, Program, Prim, Psome, Pwild, RefOp, RefTy, Seq,
    SomeLit, Span, StructInit, StructTy, Ty, U8, U16, U32, ULONG, UNIT,
    UnitLit, Uop, UopKind, Var,
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
# non-ASCII numeral start one, which tokenize rejects.  Punctuation is tried
# longest first.
_TOKEN_RE = re.compile("(?:" + "|".join((
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*)",
    r'(?P<string>"[^"\n]*")',
    r'(?P<open_string>"[^"\n]*)',
    r"(?P<int>(?:0[xX][0-9a-fA-F]*|[0-9]+)L?)",
    r"(?P<word>[^\W\d][\w']*)",
    "(?P<punct>" + "|".join(
        map(re.escape, sorted(PUNCT, key=len, reverse=True))) + ")",
    r"(?P<illegal>.)",
)) + r")[ \t\r]*")


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    m = None
    first = len(source) - len(source.lstrip(" \t\r"))
    for m in _TOKEN_RE.finditer(source, first):
        kind = m.lastgroup
        if kind == "comment":
            continue
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        text = m[kind]
        span = Span(line, start - line_start + 1, start, start + len(text))
        if kind == "punct":
            append(Token("punct", text, span))
        elif kind == "word":
            if text in KEYWORDS:
                append(Token("kw", text, span))
            elif text == "_":
                append(Token("punct", text, span))
            elif not (text[0].isalpha() or text[0] == "_"):
                _lex_error("L001", f"illegal character {text[0]!r}",
                           Span(span.line, span.col, start, start + 1),
                           filename)
            elif text.startswith("__bpl_"):
                _lex_error("L003",
                           "identifiers starting with '__bpl_' are reserved",
                           span, filename)
            else:
                append(Token("ident", text, span))
        elif kind == "int":
            is_long = text[-1] == "L"
            digits = text[:-1] if is_long else text
            if digits[1:2] in ("x", "X"):
                if len(digits) == 2:
                    _lex_error("L004", "hexadecimal literal has no digits",
                               span, filename)
                value = int(digits, 16)
            else:
                value = int(digits)
            append(Token("int", text, span, value, is_long))
        elif kind == "string":
            append(Token("string", text[1:-1], span))
        elif kind == "open_string":
            _lex_error("L002", "unterminated string literal", span, filename)
        else:
            _lex_error("L001", f"illegal character {text!r}", span, filename)
    # A trailing comment does not advance the end-of-input column.
    n = len(source)
    end = m.start() if m is not None and m.lastgroup == "comment" else n
    append(Token("eof", "", Span(line, end - line_start + 1, n, n)))
    return tokens


def _lex_error(code: str, message: str, span: Span, filename: str):
    raise LexError(Diagnostic("error", code, message, span, filename=filename))


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
    def __init__(self, source: str, filename: str = "<input>"):
        self.filename = filename
        self.tokens = tokenize(source, filename)
        self.tokens += self.tokens[-1:] * 2  # peek and at look 2 ahead at most
        self.pos = 0
        self._depth = 0  # parse_expr calls now open
        self._height = 0  # see parse_expr

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, lexeme: Optional[str] = None, ahead: int = 0) -> bool:
        t = self.tokens[self.pos + ahead]
        return t.kind == kind and (lexeme is None or t.lexeme == lexeme)

    def accept(self, kind: str, lexeme: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, lexeme):
            return self.next()
        return None

    def expect(self, kind: str, lexeme: Optional[str] = None, what: str = "") -> Token:
        if self.at(kind, lexeme):
            return self.next()
        t = self.peek()
        wanted = lexeme or kind
        msg = f"expected {what or wanted!r}, found {t.lexeme or t.kind!r}"
        raise ParseError(Diagnostic("error", "P001", msg, t.span,
                                    filename=self.filename))

    def fail(self, message: str, span: Optional[Span] = None, code: str = "P001"):
        raise ParseError(Diagnostic("error", code, message,
                                    span or self.peek().span,
                                    filename=self.filename))

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
        except CoreError as exc:
            self.fail(str(exc), Span(1, 1), code="P002")

    def parse_section_attr(self) -> str:
        self.expect("punct", "#")
        name = self.expect("ident", what="section")
        if name.lexeme != "section":
            self.fail("expected 'section' after '#'", name.span)
        return self.expect("string", what="section name").lexeme

    def parse_struct_def(self) -> Composite:
        self.expect("kw", "struct")
        name = self.expect("ident", what="struct name")
        self.expect("punct", "{")
        fields = []
        while not self.at("punct", "}"):
            fname = self.expect("ident", what="field name")
            self.expect("punct", ":")
            fty = self.parse_type()
            fields.append((fname.lexeme, fty))
            if not self.accept("punct", ","):
                break
        self.expect("punct", "}")
        try:
            return Composite(name.lexeme, tuple(fields))
        except CoreError as exc:
            self.fail(str(exc), name.span, code="P002")

    def parse_fun_decl(self, sec: Optional[str]) -> FunDecl:
        kw = self.expect("kw", "fun")
        name = self.expect("ident", what="function name")
        self.expect("punct", "(")
        args = []
        while not self.at("punct", ")"):
            ty = self.parse_type()
            arg = self.expect("ident", what="parameter name")
            args.append((arg.lexeme, ty))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        self.expect("punct", ":")
        rt = self.parse_type()
        ef = None
        if self.accept("punct", ","):
            ef = self.parse_effect_annotation()
        local_vars = []
        if self.accept("kw", "vars"):
            self.expect("punct", "(")
            while not self.at("punct", ")"):
                vty = self.parse_type()
                v = self.expect("ident", what="local name")
                local_vars.append((v.lexeme, vty))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        self.expect("punct", "{")
        body = self.parse_expr()
        self.accept("punct", ";")
        self.expect("punct", "}")
        try:
            return FunDecl(name.lexeme, rt, tuple(args), body,
                           vars=tuple(local_vars), ef=ef, sec=sec,
                           span=kw.span)
        except CoreError as exc:
            self.fail(str(exc), kw.span, code="P002")

    def parse_effect_annotation(self) -> Effect:
        self.expect("punct", "<")
        atoms = []
        while not self.at("punct", ">"):
            t = self.expect("ident", what="effect name")
            try:
                atoms.append(EffectAtom(t.lexeme))
            except ValueError:
                self.fail(f"unknown effect {t.lexeme!r}", t.span)
            if not self.accept("punct", ","):
                break
        self.expect("punct", ">")
        return Effect(atoms)

    def parse_extern_decl(self) -> ExtDecl:
        kw = self.expect("kw", "extern")
        self.expect("kw", "fun")
        name = self.expect("ident", what="function name")
        self.expect("punct", "(")
        arg_types = []
        while not self.at("punct", ")"):
            arg_types.append(self.parse_type())
            self.accept("ident")  # optional parameter name
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        self.expect("punct", ":")
        rt = self.parse_type()
        ef = Effect()
        if self.accept("punct", ","):
            ef = self.parse_effect_annotation()
        self.accept("punct", ";")
        return ExtDecl(name.lexeme, tuple(arg_types), rt, ef, span=kw.span)

    def parse_glob_decl(self, sec: Optional[str]) -> GlobDecl:
        kw = self.expect("kw", "global")
        name = self.expect("ident", what="global name")
        self.expect("punct", ":")
        ty = self.parse_type()
        self.expect("punct", "=")
        at = self.peek().span
        init = self.parse_glob_init()
        self.accept("punct", ";")
        return GlobDecl(name.lexeme, ty, init, sec=sec, span=kw.span,
                        init_span=at)

    def parse_glob_init(self) -> Union[Expr, bytes]:
        """A global's initial value: a string or a literal, which the checker
        types at the declared type."""
        if self.at("string"):
            return self.expect("string").lexeme.encode() + b"\x00"
        t = self.accept("kw", "none")
        if t:
            return NoneLit(span=t.span)
        t = self.accept("kw", "true") or self.accept("kw", "false")
        if t:
            return ConstBool(t.lexeme == "true", span=t.span)
        minus = self.accept("punct", "-")
        lit = self._int_literal(self.expect("int", what="initial value"))
        return _negated(lit, minus.span) if minus else lit

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
        data = text.lexeme.encode() + b"\x00"
        return GlobDecl(name.lexeme, ArrayTy(I8, len(data)), data, sec=sec,
                        span=kw.span)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Ty:
        t = self.peek()
        if t.kind == "kw" and t.lexeme in PRIM_TYPE_NAMES:
            self.next()
            base: Ty = PRIM_TYPE_NAMES[t.lexeme]
        elif self.accept("kw", "unit"):
            base = UNIT
        elif self.accept("kw", "bytes"):
            base = BYTES
        elif self.accept("kw", "struct"):
            name = self.expect("ident", what="struct name")
            base = StructTy(name.lexeme)
        elif self.accept("kw", "option"):
            self.expect("punct", "(")
            inner = self.parse_type()
            self.expect("punct", ")")
            if not isinstance(inner, (RefTy,)):
                self.fail("option wraps a pointer type", t.span, code="P004")
            return OptionTy(inner)
        else:
            self.fail("expected a type")
        while True:
            if self.at("punct", "*"):
                self.next()
                try:
                    base = RefTy(base)
                except CoreError as exc:
                    self.fail(str(exc), t.span, code="P004")
            elif self.at("punct", "[") and self.at("int", ahead=1):
                self.next()
                length = self.expect("int").value
                self.expect("punct", "]")
                try:
                    base = ArrayTy(base, length)
                except CoreError as exc:
                    self.fail(str(exc), t.span, code="P004")
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
            self._too_deep(self.peek())
        self._height = 0
        lhs = self.parse_prefix()
        height = self._height + 1
        tokens = self.tokens
        while True:
            t = tokens[self.pos]
            if t.kind != "punct":
                break
            lexeme = t.lexeme
            self._height = 0
            if lexeme in BINARY_OPS:
                kind, bp = BINARY_OPS[lexeme]
                if bp < min_bp or (kind is BopKind.OR
                                   and self._bar_starts_pattern()):
                    break
                self.pos += 1
                lhs = Prim(Bop(kind), (lhs, self.parse_expr(bp + 1)),
                           span=t.span)
            elif lexeme == "(":
                self.pos += 1
                args = []
                while not self.at("punct", ")"):
                    args.append(self.parse_expr())
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", ")")
                lhs = App(lhs, tuple(args), span=t.span)
            elif lexeme == ".":
                self.pos += 1
                fname = self.expect("ident", what="field name")
                lhs = Field(lhs, fname.lexeme, span=fname.span)
            elif lexeme == ":=" and min_bp == _LOW_PREC:
                self.pos += 1
                lhs = Prim(Assign(), (lhs, self.parse_expr(_LOW_PREC)),
                           span=t.span)
            else:
                break
            height = max(height, self._height) + 1
            if height > MAX_EXPR_DEPTH:
                self._too_deep(t)
        self._depth -= 1
        self._height = max(siblings, height)
        return lhs

    def _too_deep(self, t: Token):
        self.fail(f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                  t.span, code="P005")

    def _bar_starts_pattern(self) -> bool:
        nxt = self.peek(1)
        if nxt.kind == "kw" and nxt.lexeme in ("pnone", "psome"):
            return True
        if nxt.kind == "punct" and nxt.lexeme == "_":
            return True
        if nxt.kind == "ident":
            after = self.peek(2)
            if after.kind == "punct" and after.lexeme in (",", "=>"):
                return True
        return False

    def parse_prefix(self) -> Expr:
        """A prefix operator or cast with its operand, or a primary."""
        t = self.tokens[self.pos]
        kind, lexeme = t.kind, t.lexeme
        if kind == "ident":
            self.pos += 1
            if self.at("punct", "{"):
                return self.parse_struct_init(t)
            return Var(lexeme, span=t.span)
        if kind == "int":
            self.pos += 1
            return self._int_literal(t)
        if kind == "punct" and lexeme == "(":
            self.pos += 1
            ty = self.peek()
            if (ty.kind == "kw" and ty.lexeme in PRIM_TYPE_NAMES
                    and self.at("punct", ")", ahead=1)):
                self.pos += 2
                return Prim(Cast(PRIM_TYPE_NAMES[ty.lexeme]),
                            (self.parse_expr(_UNARY_PREC),), span=t.span)
            if self.accept("punct", ")"):
                return UnitLit(span=t.span)
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if kind == "punct" or kind == "kw":
            op = _PREFIX_OPS.get(lexeme)
            if op is not None:
                self.pos += 1
                operand = self.parse_expr(_UNARY_PREC)
                # Fold negated literals so printed constants re-parse
                # structurally.
                if lexeme == "-" and isinstance(operand,
                                                (ConstInt, ConstLong)):
                    return _negated(operand, t.span)
                return Prim(op, (operand,), span=t.span)
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
                self.pos += 1
                return ConstBool(lexeme == "true", span=t.span)
            if lexeme == "none":
                self.pos += 1
                return NoneLit(span=t.span)
            if lexeme in ("some", "ref"):
                self.pos += 1
                self.expect("punct", "(")
                inner = self.parse_expr()
                self.expect("punct", ")")
                if lexeme == "some":
                    return SomeLit(inner, span=t.span)
                return Prim(RefOp(), (inner,), span=t.span)
        self.fail("expected an expression")

    def _int_literal(self, t: Token) -> Expr:
        if t.value > LONG_MAX:
            self.fail("integer literal exceeds 64 bits", t.span, code="P003")
        if t.is_long or t.value > INT_MAX:
            return ConstLong(t.value, span=t.span)
        return ConstInt(t.value, span=t.span)

    def parse_struct_init(self, name: Token) -> Expr:
        self.expect("punct", "{")
        fields = []
        while not self.at("punct", "}"):
            fname = self.expect("ident", what="field name")
            self.expect("punct", "=")
            fields.append((fname.lexeme, self.parse_expr()))
            if not self.accept("punct", ","):
                break
        self.expect("punct", "}")
        return StructInit(name.lexeme, tuple(fields), span=name.span)

    def parse_let(self) -> Expr:
        kw = self.expect("kw", "let")
        if self.accept("punct", "_"):
            name = "_"
            declared = UNIT
            if self.accept("punct", ":"):
                declared = self.parse_type()
        else:
            name = self.expect("ident", what="binder").lexeme
            self.expect("punct", ":")
            declared = self.parse_type()
        self.expect("punct", "=")
        bound = self.parse_expr()
        self.expect("kw", "in")
        body = self.parse_expr()
        return Let(name, declared, bound, body, span=kw.span)

    def parse_if(self) -> Expr:
        kw = self.expect("kw", "if")
        guard = self.parse_expr()
        self.expect("kw", "then")
        then = self.parse_expr()
        self.expect("kw", "else")
        otherwise = self.parse_expr()
        return Cond(guard, then, otherwise, span=kw.span)

    def parse_for(self) -> Expr:
        kw = self.expect("kw", "for")
        self.expect("punct", "(")
        lo = self.parse_expr()
        self.expect("punct", "...")
        hi = self.parse_expr()
        self.expect("punct", ",")
        if self.accept("kw", "Up"):
            d = Direction.UP
        elif self.accept("kw", "Down"):
            d = Direction.DOWN
        else:
            self.fail("expected Up or Down")
        self.expect("punct", ")")
        self.expect("punct", "{")
        body = self.parse_expr()
        self.accept("punct", ";")
        self.expect("punct", "}")
        return For(lo, hi, d, body, span=kw.span)

    def parse_match(self) -> Expr:
        kw = self.expect("kw", "match")
        scrutinee = self.parse_expr()
        self.expect("kw", "with")
        arms = []
        while self.at("punct", "|"):
            self.next()
            pat = self.parse_pattern()
            self.expect("punct", "=>")
            arms.append((pat, self.parse_expr()))
        if not arms:
            self.fail("match needs at least one arm")
        return Match(scrutinee, tuple(arms), span=kw.span)

    def parse_pattern(self) -> Pattern:
        if self.accept("kw", "pnone"):
            return Pnone()
        if self.accept("kw", "psome"):
            binder = self.expect("ident", what="binder")
            return Psome(binder.lexeme)
        if self.accept("punct", "_"):
            return Pwild()
        binder = self.expect("ident", what="pattern binder")
        self.expect("punct", ",")
        target = self.parse_type()
        fields = []
        if self.accept("punct", ":"):
            while self.at("punct", "("):
                self.next()
                y = self.expect("ident", what="field binder")
                self.expect("punct", ",")
                fty = self.parse_type()
                self.expect("punct", ")")
                fields.append((y.lexeme, fty))
                if not self.accept("punct", ","):
                    break
        try:
            return Pbytes(binder.lexeme, target, tuple(fields))
        except CoreError as exc:
            self.fail(str(exc), binder.span, code="P004")


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
    if isinstance(e, (Loc, BytesView, Seq)):
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
