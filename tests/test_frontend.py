import json
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from beepl import frontend
from beepl.cgen import emit_program
from beepl.core import (
    App, Assign, Bop, BopKind, BOOL, BytesView, Cast, Cond, ConstBool,
    ConstInt, ConstLong, Deref, Direction, EffectAtom, Expr, For, FunDecl,
    GlobDecl, INT, Let, LONG, Loc, Match, NoneLit, OptionTy, Pbytes, Pnone,
    Prim, Psome, Program, Pwild, RefOp, RefTy, Repeat, Seq, SomeLit, Span,
    StructTy, U16, UNIT, UnitLit, Uop, UopKind, Var, expr_children,
)
from beepl.driver import CORPUS_DIR, corpus_path, evaluate_with_audit
from beepl.frontend import (
    MAX_EXPR_DEPTH, PRIM_TYPE_NAMES, Diagnostic, LexError, ParseError, Parser,
    UnprintableInternalNode, parse_expr, parse_program, print_expr,
    print_program, tokenize,
)
from beepl.gen import GenConfig, generate_well_typed
from beepl.interp import ExternalWorld, run_program
from beepl.typecheck import (
    TypeCheckError, TypingContext, check_program, infer_expr,
)


# --- tokenizer -----------------------------------------------------------------

def test_tokenize_let_binding():
    toks = tokenize("let x : int = 2 in x")
    kinds = [(t.kind, t.lexeme) for t in toks[:-1]]
    assert kinds == [("kw", "let"), ("ident", "x"), ("punct", ":"),
                     ("kw", "int"), ("punct", "="), ("int", "2"),
                     ("kw", "in"), ("ident", "x")]
    assert toks[-1].kind == "eof"


def test_tokenize_empty():
    toks = tokenize("")
    assert [t.kind for t in toks] == ["eof"]


def test_tokenize_wide_hex_literal():
    toks = tokenize("0x100000000")
    assert toks[0].kind == "int" and toks[0].value == 4294967296
    assert isinstance(parse_expr("0x100000000"), ConstLong)


def test_tokenize_keeps_a_wide_decimal_exact():
    # The parser reports a decimal past 64 bits without converting it; the
    # token view still gives its value, leading zeros not counted.
    wide = "1" + "0" * 24
    toks = tokenize(f"{wide} {'0' * 5000}{wide}L")
    assert [(t.value, t.is_long) for t in toks[:2]] == \
        [(10 ** 24, False), (10 ** 24, True)]
    with pytest.raises(ParseError) as err:
        parse_expr(wide)
    assert err.value.diagnostic.code == "P003"


def test_tokenize_keeps_a_5000_digit_decimal_exact():
    # Past int()'s 4,300-digit limit, with and without leading zeros.
    nines = "9" * 5000
    toks = tokenize(f"{nines} {'0' * 5000}{nines}L")
    assert [(t.value, t.is_long) for t in toks[:2]] == \
        [(10 ** 5000 - 1, False), (10 ** 5000 - 1, True)]


def test_tokenize_comments_skipped():
    toks = tokenize("1 // trailing comment\n2")
    assert [t.lexeme for t in toks[:-1]] == ["1", "2"]


def test_tokenize_blank_edges():
    """Blanks are skipped with the token before them, so each position is
    pinned: trailing blanks still move the eof column, a trailing comment
    does not, a CR belongs to no token, and a blank is never illegal."""
    src = "fun main() : int { 1 }"
    assert tokenize(src + "   ")[-1].span == Span(1, 26, 25, 25)
    assert tokenize(src + " // c")[-1].span == Span(1, 24, 27, 27)
    assert tokenize(src + "\t\r\n  ")[-1].span == Span(2, 3, 27, 27)
    assert tokenize("  x")[0].span == Span(1, 3, 2, 3)
    y = tokenize("x\r\n\ty")[1]
    assert (y.lexeme, y.span.line, y.span.col) == ("y", 2, 2)
    with pytest.raises(LexError) as exc:
        tokenize("x  $")
    d = exc.value.diagnostic
    assert (d.code, d.span.line, d.span.col) == ("L001", 1, 4)
    assert d.message == "illegal character '$'"


def test_tokenize_spans_cover_input():
    src = "let x = ref(1)"
    toks = tokenize(src)[:-1]
    spans = [(t.span.start, t.span.end) for t in toks]
    assert spans == sorted(spans)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b <= c  # non-overlapping


def test_lex_error_illegal_char():
    # Digits are ASCII: other numerals are illegal characters, even where
    # int() would read them.  A hex prefix needs a digit after it.
    for src, code, col in [("let $x = 1", "L001", 5), ("\u00b2", "L001", 1),
                           ("1\u00b2", "L001", 2), ("\u0663", "L001", 1),
                           ("x = 0x", "L004", 5), ("0XL", "L004", 1)]:
        with pytest.raises(LexError) as err:
            tokenize(src)
        d = err.value.diagnostic
        assert (d.code, d.span.col) == (code, col), src


def test_lex_error_unterminated_string():
    for src in ['char L[] = "GPL', '"GPL\n"']:
        with pytest.raises(LexError) as err:
            tokenize(src)
        assert err.value.diagnostic.code == "L002", src


def test_reserved_prefix_rejected():
    with pytest.raises(LexError):
        tokenize("let __bpl_x : int = 1 in 2")


def _line_col(source: str, start: int) -> tuple[int, int]:
    """The line and column of an offset, counted from the text itself."""
    return (source.count("\n", 0, start) + 1,
            start - source.rfind("\n", 0, start))


# What may lie between two tokens, and after the last: blanks, newlines and
# comments, a comment ending at a newline unless it ends the input.
_GAP = re.compile(r"(?:[ \t\r\n]|//[^\n]*\n)*")
_LAST_GAP = re.compile(r"(?:[ \t\r\n]|//[^\n]*\n)*(?://[^\n]*)?")
# Characters that start, end or break each kind of token.
_LEXER_TEXT = st.text(st.sampled_from(list(
    " \t\r\n/\"_xXL09az(){}.:=<>|-!#$'\u00e9\u00b2\u0663")), max_size=40)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_LEXER_TEXT, st.text(max_size=40)))
@example("x // c\n\"s\" 0x1fL_")
def test_tokens_tile_the_input(source):
    """Each token's offset is a sum of the lengths before it; whatever the
    text, the tokens lie in order over it with only blanks, newlines and
    comments between them, or lexing stops at an error inside it."""
    try:
        *tokens, eof = tokenize(source)
    except LexError as exc:
        span = exc.diagnostic.span
        assert 0 <= span.start < span.end <= len(source)
        assert (span.line, span.col) == _line_col(source, span.start)
        return
    pos = 0
    for t in tokens:
        s = t.span
        assert _GAP.fullmatch(source, pos, s.start), (pos, t)
        assert source[s.start:s.end] == (
            f'"{t.lexeme}"' if t.kind == "string" else t.lexeme)
        assert (s.line, s.col) == _line_col(source, s.start)
        pos = s.end
    assert _LAST_GAP.fullmatch(source, pos)
    assert (eof.kind, eof.span.start, eof.span.end) == \
        ("eof", len(source), len(source))
    assert eof.span.line == source.count("\n") + 1


# --- parser ----------------------------------------------------------------------

def test_parse_minimal_function():
    p = parse_program("fun f() : int { 1 }")
    (fd,) = p.decls
    assert isinstance(fd, FunDecl)
    assert fd.rt == INT and fd.args == () and fd.body == ConstInt(1)
    assert fd.sec is None and fd.ef is None


def test_parse_bprog3_shape():
    src = '''
#section ".maps"
global counter_table : option(struct bpf_map*) = none;
#section "xdp"
fun bprog3(option(struct xdp_md*) ctx) : int {
    let p : option(long*) = bpf_map_lookup_elem(counter_table, uid) in
        match p with
            | pnone => -1
            | psome p' => (int)!p'
}
'''
    p = parse_program(src)
    fd = next(d for d in p.decls if isinstance(d, FunDecl))
    assert fd.sec == "xdp"
    assert fd.args[0][1] == OptionTy(RefTy(StructTy("xdp_md")))
    let = fd.body
    assert isinstance(let, Let)
    m = let.body
    assert isinstance(m, Match)
    assert isinstance(m.arms[0][0], Pnone)
    assert m.arms[0][1] == ConstInt(-1)
    assert m.arms[1][0] == Psome("p'")
    some_body = m.arms[1][1]
    assert isinstance(some_body, Prim) and isinstance(some_body.op, Cast)
    assert isinstance(some_body.operands[0].op, Deref)


def test_parse_bprog4_shape():
    src = '''
struct ethhdr { h_dest : u8[6], h_source : u8[6], h_proto : u16 }
#section "xdp"
fun bprog4(option(struct xdp_md*) ctx) : int {
    match ctx.data with
        | eth, struct ethhdr : (h_proto, u16) => 1
        | _ => 0
}
'''
    p = parse_program(src)
    fd = next(d for d in p.decls if isinstance(d, FunDecl))
    m = fd.body
    pat = m.arms[0][0]
    assert pat == Pbytes("eth", StructTy("ethhdr"), (("h_proto", U16),))
    assert isinstance(m.arms[1][0], Pwild)


def test_parse_license_global():
    p = parse_program('char LICENSE[] #section "license" = "GPL";')
    (gd,) = p.decls
    assert isinstance(gd, GlobDecl)
    assert gd.sec == "license"
    assert gd.init == b"GPL\x00"
    assert gd.ty.length == 4 and gd.ty.elem.size == 8


def test_parse_effect_annotation():
    p = parse_program(
        "fun f() : int, <alloc, read> { let x : int* = ref(2) in !x }")
    fd = p.decls[0]
    assert fd.ef == {EffectAtom.ALLOC, EffectAtom.READ}


def test_parse_extern_decl():
    p = parse_program("extern fun probe(long, int k) : long, <io>;")
    (xd,) = p.decls
    assert xd.arg_types == (LONG, INT)
    assert xd.ef == {EffectAtom.IO}


def test_parse_error_has_span():
    with pytest.raises(ParseError) as err:
        parse_program("fun f( : int { 1 }")
    d = err.value.diagnostic
    assert d.code.startswith("P") and d.span.line == 1 and d.span.col > 1


@pytest.mark.parametrize("src, message", [
    ("fun f(int x, int x) : int { x }\nfun main() : int { f(3, 4) }",
     "parameter 'x' of f is declared twice"),
    ("struct s { a : int }\n"
     "fun main() : int vars (struct s* v, struct s* v) { 1 }",
     "local 'v' of main is declared twice"),
    ("struct s { a : int, a : long }\nfun main() : int { 1 }",
     "field 'a' of struct s is declared twice"),
    ("fun main(int a) : int vars (int a) { 1 }",
     "parameter and local 'a' of main is declared twice"),
])
def test_a_name_declared_twice_is_rejected(src, message):
    # Each of these but the last once checked and ran, and its C did not
    # compile; the last was reported without naming 'a'.
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert err.value.diagnostic.code == "P002"
    assert err.value.diagnostic.message == message


def test_a_repeated_declaration_is_reported_where_it_repeats():
    with pytest.raises(ParseError) as err:
        parse_program("fun f() : int { 1 }\n"
                      "global g : int = 2;\n"
                      "  fun f() : int { 3 }\n")
    d = err.value.diagnostic
    assert (d.code, d.message) == ("P002", "duplicate declaration name f")
    assert (d.span.line, d.span.col) == (3, 3)


def _check_code(check) -> str:
    with pytest.raises(TypeCheckError) as err:
        check()
    return err.value.code


def test_literal_too_wide_for_declared_type():
    # The parser builds a literal from its token; the checker types it.
    e = parse_expr("let x : int = 0x100000000 in x")
    assert e.bound == ConstLong(1 << 32)
    assert _check_code(lambda: infer_expr(TypingContext(), e)) == \
        "LetTypeMismatch"


def test_global_literal_obeys_the_let_bounds():
    for decl in ("g : u8 = 300", "g : u8 = -1", "g : i8 = 128",
                 "g : u32 = 4294967295", "g : int = 2147483648",
                 "g : u8 = 300L", "g : int = 5L"):
        program = parse_program(f"global {decl};")
        assert _check_code(lambda: check_program(program)) == \
            "GlobalInitMismatch", decl
    for src in ("global g : long = 99999999999999999999;",
                "global g : int[99999999999999999999] = 0;",
                f"global g : long = {'9' * 5000};",
                f"global g : int[{'9' * 5000}] = 0;"):
        with pytest.raises(ParseError) as err:
            parse_program(src)
        assert err.value.diagnostic.code == "P003", src[:40]
    e = parse_expr("let x : u8 = 300L in x")
    assert _check_code(lambda: infer_expr(TypingContext(), e)) == \
        "LetTypeMismatch"
    for decl, init in (("g : i8 = -128", ConstInt(-128)),
                       ("g : int = -2147483648", ConstInt(-(1 << 31))),
                       ("g : long = -5", ConstLong(-5))):
        program = check_program(parse_program(f"global {decl};")).program
        assert program.decls[0].init == init, decl
        assert parse_program(print_program(program)) == program, decl
    assert print_program(check_program(
        parse_program("global g : long = 5;")).program) == \
        "global g : long = 5L;\n"


def test_long_suffix_literal():
    assert parse_expr("5L") == ConstLong(5)
    assert parse_expr("-5L") == ConstLong(-5)


def test_negated_int_min_is_a_long_literal():
    assert parse_expr("-2147483648") == ConstInt(-(1 << 31))
    assert parse_expr("- -2147483648") == ConstLong(1 << 31)
    assert parse_expr("-(-2147483647)") == ConstInt(2147483647)


def contains_internal(e: Expr) -> bool:
    """Whether e holds a node that only evaluation produces."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, (Loc, BytesView, Seq, Repeat)):
            return True
        todo.extend(expr_children(e))
    return False


def test_no_internal_nodes_from_surface():
    srcs = ["fun f() : int { 1 + 2 }",
            "fun g() : int { let x : int* = ref(1) in !x }",
            "fun h() : unit { for (1 ... 3, Up) { () } }"]
    for src in srcs:
        for d in parse_program(src).decls:
            assert not contains_internal(d.body)


def test_parse_deterministic():
    src = "fun f() : int { if 1 < 2 then 3 else 4 }"
    assert parse_program(src) == parse_program(src)


def test_assign_precedence():
    e = parse_expr("x := !x + 1")
    assert isinstance(e.op, Assign)
    rhs = e.operands[1]
    assert isinstance(rhs.op, Bop) and rhs.op.kind is BopKind.ADD


def _spans(p: Program):
    """The span of every declaration and expression node of p, and of each
    global's initializer, where the parser set one."""
    for d in p.decls:
        todo = [e for e in (getattr(d, "body", None), getattr(d, "init", None))
                if isinstance(e, Expr)]
        yield d.span
        if isinstance(d, GlobDecl):
            yield d.init_span
        while todo:
            e = todo.pop()
            yield e.span
            todo.extend(expr_children(e))


def test_node_spans_agree_with_the_text():
    sources = [path.read_text() for path in sorted(CORPUS_DIR.glob("*.bpl"))]
    for seed in range(200):
        for cfg in (GenConfig(seed=seed),
                    GenConfig(seed=seed, bytes_match=True, externals=True)):
            sources.append(print_program(generate_well_typed(cfg)))
    for source in sources:
        tokens = {(t.span.start, t.span.end) for t in tokenize(source)}
        for s in filter(None, _spans(parse_program(source))):
            assert (s.line, s.col) == _line_col(source, s.start), (s, source)
            assert (s.start, s.end) in tokens, (s, source)


# --- printer ---------------------------------------------------------------------

def test_print_expr_examples():
    assert print_expr(ConstInt(5)) == "5"
    e = Let("x", INT, ConstInt(2), Var("x"))
    assert print_expr(e) == "let x : int = 2 in x"
    assert print_expr(Prim(RefOp(), (ConstInt(2),))) == "ref(2)"


def test_print_internal_node_raises():
    with pytest.raises(UnprintableInternalNode):
        print_expr(Loc(1, 0))
    with pytest.raises(UnprintableInternalNode):
        print_expr(Seq((ConstInt(1),)))


def test_print_parse_preserves_precedence():
    for src in ["1 + 2 * 3", "(1 + 2) * 3", "1 - (2 - 3)", "1 - 2 - 3",
                "- (1 + x)", "!p + 1", "~x % 5", "a & b ^ c",
                "x << 2 >> y", "a < b == (c > d)", "(int)x + 1"]:
        e = parse_expr(src)
        assert parse_expr(print_expr(e)) == e, src


# --- round-trip property ------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "zed"])
_leaf = st.one_of(
    st.integers(-(1 << 31), (1 << 31) - 1).map(ConstInt),
    st.integers(-(1 << 63) + 1, (1 << 63) - 1)
      .filter(lambda v: v != -(1 << 31)).map(ConstLong),
    st.booleans().map(ConstBool),
    st.just(UnitLit()),
    st.just(NoneLit()),
    _names.map(Var),
)

_bops = st.sampled_from(list(BopKind))
# Every one-operand operator but NEG, which folds into negative literals.
_UOPS = ([Deref(), RefOp(), Uop(UopKind.BITNOT), Uop(UopKind.LOGNOT)]
         + [Cast(ty) for ty in sorted(set(PRIM_TYPE_NAMES.values()), key=str)])
_uops = st.sampled_from(_UOPS)


def _compose(children):
    return st.one_of(
        st.tuples(_bops, children, children)
          .map(lambda t: Prim(Bop(t[0]), (t[1], t[2]))),
        st.tuples(_uops, children).map(lambda t: Prim(t[0], (t[1],))),
        children.filter(lambda e: not isinstance(e, (ConstInt, ConstLong)))
                .map(lambda e: Prim(Uop(UopKind.NEG), (e,))),
        st.tuples(children, children)
          .map(lambda t: Prim(Assign(), (t[0], t[1]))),
        # A long literal under an int-declared binder is normalized by the
        # parser, so it is not a canonical form; keep the strategy inside
        # the parser's image.
        st.tuples(_names, children.filter(
            lambda b: not isinstance(b, ConstLong)), children)
          .map(lambda t: Let(t[0], INT, t[1], t[2])),
        st.tuples(children, children, children)
          .map(lambda t: Cond(*t)),
        st.tuples(children, children, children)
          .map(lambda t: For(t[0], t[1], Direction.UP, t[2])),
        st.tuples(children, _names, children, children)
          .map(lambda t: Match(t[0], ((Pnone(), t[2]),
                                      (Psome(t[1]), t[3])))),
        st.tuples(_names, st.lists(children, max_size=2))
          .map(lambda t: App(Var(t[0]), tuple(t[1]))),
        children.map(SomeLit),
    )


_exprs = st.recursive(_leaf, _compose, max_leaves=20)


def _every_operator_pair() -> Expr:
    """Each binary operator under each other one and under ':=', on both
    sides, and under and over each one-operand operator."""
    a, b, c = Var("a"), Var("b"), Var("c")
    bops = [lambda x, y, k=k: Prim(Bop(k), (x, y)) for k in BopKind]
    bops.append(lambda x, y: Prim(Assign(), (x, y)))
    terms = []
    for outer in bops:
        for inner in bops:
            terms += [outer(inner(a, b), c), outer(a, inner(b, c))]
    for u in _UOPS + [Uop(UopKind.NEG)]:
        for k in BopKind:
            terms += [Prim(u, (Prim(Bop(k), (a, b)),)),
                      Prim(Bop(k), (Prim(u, (a,)), Prim(u, (b,))))]
    return App(Var("f"), tuple(terms))


@settings(max_examples=200, deadline=None)
@given(_exprs)
@example(_every_operator_pair())
def test_round_trip_generated_exprs(e):
    assert parse_expr(print_expr(e)) == e


def test_round_trip_generated_programs():
    for seed in range(30):
        p = generate_well_typed(GenConfig(seed=seed, bytes_match=True,
                                          externals=True))
        text = print_program(p)
        assert parse_program(text) == p, f"seed {seed}\n{text}"


# --- nesting limit ----------------------------------------------------------------

# Each builds an int expression whose tree, as the parser counts it, is n
# levels tall: a parenthesized expression counts one level above its contents.
NESTED = {
    "parens": lambda n: "(" * (n - 1) + "1" + ")" * (n - 1),
    "let": lambda n: "let x : int = " * (n - 1) + "1" + " in x" * (n - 1),
    "if": lambda n: "if true then " * (n - 1) + "1" + " else 0" * (n - 1),
    "plus": lambda n: " + ".join(["1"] * n),
}
NESTED_VALUE = {"parens": 1, "let": 1, "if": 1, "plus": MAX_EXPR_DEPTH}


def nested_program(shape: str, n: int) -> str:
    return f"fun main() : int {{ {NESTED[shape](n)} }}\n"


def test_nesting_limit_is_a_diagnostic():
    for shape in NESTED:
        parse_program(nested_program(shape, MAX_EXPR_DEPTH))
        for n in (MAX_EXPR_DEPTH + 1, 1000):
            with pytest.raises(ParseError) as err:
                parse_program(nested_program(shape, n))
            assert err.value.diagnostic.code == "P005", (shape, n)


def test_every_stage_runs_at_the_nesting_limit():
    # Every stage needs at most about three frames per level, the audit
    # (which re-types through the checker's own rules) included, so each
    # runs with room to spare under a limit of 750.  The round trip's
    # structural comparison is not a stage and runs at the default limit.
    old = sys.getrecursionlimit()
    round_trips = []
    sys.setrecursionlimit(750)
    try:
        for shape in NESTED:
            p = parse_program(nested_program(shape, MAX_EXPR_DEPTH))
            tp = check_program(p)
            assert run_program(tp).value.value == NESTED_VALUE[shape], shape
            audit = evaluate_with_audit(tp, ExternalWorld())
            assert audit.violations == [], shape
            round_trips.append((shape, p, parse_program(print_program(p))))
            for mode in ("ebpf", "host"):
                emit_program(tp, mode)
    finally:
        sys.setrecursionlimit(old)
    for shape, p, reparsed in round_trips:
        assert reparsed == p, shape


def test_programs_stay_well_under_the_nesting_limit(monkeypatch):
    monkeypatch.setattr(frontend, "MAX_EXPR_DEPTH", MAX_EXPR_DEPTH // 4)
    for name in ("bprog1", "bprog2", "bprog3", "bprog4", "shift64"):
        parse_program(corpus_path(f"{name}.bpl").read_text())
    for seed in range(100):
        for cfg in (GenConfig(seed=seed),
                    GenConfig(seed=seed, bytes_match=True, externals=True)):
            parse_program(print_program(generate_well_typed(cfg)))


# --- diagnostics -----------------------------------------------------------------

def test_diagnostic_render_format():
    d = Diagnostic("error", "P001", "boo", span=tokenize("x")[0].span,
                   filename="f.bpl")
    assert d.render() == "f.bpl:1:1: error[P001]: boo"


def test_diagnostic_json_fields():
    with pytest.raises(ParseError) as err:
        parse_program("fun f() : int {", "f.bpl")
    blob = json.dumps([err.value.diagnostic.to_json()])
    (obj,) = json.loads(blob)
    assert set(obj) >= {"severity", "code", "message", "line", "col"}
