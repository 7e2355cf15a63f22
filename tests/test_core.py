import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from beepl.core import (
    ALLOC, BOOL, BytesView, Composite, ConstBool, ConstInt, ConstLong,
    CoreError, Effect, EffectAtom, Expr, For, Frame, Direction, FunDecl, I8,
    INT,
    IntTy, LEAVES, LONG, Let, Loc, LongTy, Match, NoneLit, OptionTy, Prim,
    Program, READ, RefTy, Repeat, SHAPES, Seq, Sign, SomeLit, StructTy, U16,
    U8, UNIT, UnitLit, UnknownStruct, Var, Assign, ArrayTy, Bop, BopKind,
    Deref, Pbytes, RefOp, WRITE, effect_concat, effect_subset, expr_children,
    fvar, is_value, sizeof, subst,
    struct_layout, with_children, UopKind,
)
from beepl import interp, typecheck
from beepl.cgen import emit_program
from beepl.driver import evaluate_with_audit, load_corpus, world_for_seed
from beepl.frontend import parse_expr, print_program
from beepl.gen import GenConfig, generate_well_typed
from beepl.interp import ExternalWorld, run_program
from beepl.typecheck import (
    JudgmentMemo, TypeCheckError, TypingContext, check_program, infer_expr,
)

atoms = st.lists(st.sampled_from(list(EffectAtom)), max_size=5)
effects = atoms.map(lambda xs: Effect(tuple(xs)))


# --- effect algebra ---------------------------------------------------------

def test_every_enum_hashes_by_identity():
    # Enum members key the operator tables and, through the types, the
    # audit's memo: Enum's own __hash__ runs in Python on every lookup.
    for cls in (BopKind, UopKind, Sign, EffectAtom, Direction):
        assert cls.__hash__ is object.__hash__, cls
        assert all(cls(m.value) is m for m in cls), cls


def test_effect_concat_examples():
    assert effect_concat(ALLOC, READ) == \
        Effect((EffectAtom.ALLOC, EffectAtom.READ))
    assert effect_concat(Effect(), Effect()) == Effect()
    assert effect_concat(READ, Effect((EffectAtom.WRITE, EffectAtom.READ))) \
        == Effect((EffectAtom.READ, EffectAtom.WRITE, EffectAtom.READ))


def test_effect_subset_examples():
    assert effect_subset(Effect(), READ)
    assert effect_subset(READ, effect_concat(ALLOC, READ))
    assert not effect_subset(Effect((EffectAtom.DIVERGENCE,)),
                             effect_concat(READ, WRITE))


def test_effect_subset_ignores_multiplicity():
    assert effect_subset(Effect((EffectAtom.READ, EffectAtom.READ)), READ)


@given(effects)
def test_effect_subset_reflexive(a):
    assert effect_subset(a, a)


@given(effects, effects, effects)
def test_effect_subset_transitive(a, b, c):
    if effect_subset(a, b) and effect_subset(b, c):
        assert effect_subset(a, c)


@given(effects, effects, effects)
def test_effect_concat_monotone(a, b, c):
    if effect_subset(a, b):
        assert effect_subset(effect_concat(a, c), effect_concat(b, c))
        assert effect_subset(effect_concat(c, a), effect_concat(c, b))


@given(effects, effects, effects)
def test_effect_concat_associative_with_identity(a, b, c):
    assert effect_concat(effect_concat(a, b), c) == \
        effect_concat(a, effect_concat(b, c))
    assert effect_concat(a, Effect()) == a
    assert effect_concat(Effect(), a) == a


# --- free variables ---------------------------------------------------------

def test_fvar_var():
    assert fvar(Var("x")) == {"x"}


def test_fvar_let_shadows():
    assert fvar(parse_expr("let x : int = 1 in x + y")) == {"y"}


def test_fvar_loop_example():
    e = parse_expr("for (1 ... 5, Up) { x := !x + 1 }")
    assert fvar(e) == {"x"}


def test_fvar_match_binders():
    e = parse_expr("match o with | pnone => n | psome p => !p + m")
    assert fvar(e) == {"o", "n", "m"}


def test_subst_examples():
    five = ConstInt(5)
    assert subst(Var("x"), {"x": five}) == five
    shadowed = parse_expr("let x : int = 1 in x")
    assert subst(shadowed, {"x": five}) == shadowed
    assert subst(parse_expr("x + y"), {"x": ConstInt(2)}) == \
        parse_expr("2 + y")
    # Several names at once; a variable as a value renames.
    assert subst(parse_expr("x + y"), {"x": Var("y"), "y": five}) == \
        parse_expr("y + 5")


def test_subst_struct_init_target_shadows():
    e = parse_expr("s { f = x }")
    got = subst(e, {"s": ConstInt(1)})
    assert got == e  # the initialized variable shadows the substitution


def _fun_bodies(seed):
    """The example term and the function bodies of one generated program."""
    cfg = GenConfig(seed=seed, bytes_match=seed % 2 == 1,
                    externals=seed % 2 == 1)
    p = generate_well_typed(cfg)
    return [parse_expr("let a : int = x + 1 in a + x + y"),
            *(d.body for d in p.decls if isinstance(d, FunDecl))]


def _subterms(e):
    yield e
    for c in expr_children(e):
        yield from _subterms(c)


def _names(e):
    """Every variable name in e, free or bound."""
    out = set(fvar(e))
    for t in _subterms(e):
        if isinstance(t, Let):
            out.add(t.name)
        elif isinstance(t, Match):
            for p, _ in t.arms:
                out |= p.binders
    return out


@settings(deadline=None)
@given(st.integers(-100, 100), st.integers(0, 199))
def test_fvar_after_subst_closed_value(v, seed):
    for e in _fun_bodies(seed):
        for x in sorted(_names(e) | {"x"}):
            assert fvar(subst(e, {x: ConstInt(v)})) == fvar(e) - {x}


def _corpus_bodies():
    return [d.body
            for name in ("bprog1.bpl", "bprog2.bpl", "bprog3.bpl",
                         "bprog4.bpl", "shift64.bpl")
            for d in load_corpus(name).decls if isinstance(d, FunDecl)]


def _assert_shared(old, new, x):
    """Every subterm of old without a free x is in new as the same object."""
    if x not in fvar(old):
        assert new is old
    elif type(old) is not Var:
        for o, n in zip(expr_children(old), expr_children(new)):
            _assert_shared(o, n, x)


def test_subst_shares_every_untouched_subterm():
    bodies = _corpus_bodies()
    for seed in range(60):
        bodies += _fun_bodies(seed)
    bodies.append(parse_expr("s { f = s + 1, g = y } + s"))
    for e in bodies:
        for x in sorted(_names(e) | {"x", "s"}):
            _assert_shared(e, subst(e, {x: ConstInt(0)}), x)


def _rebuilt(e):
    """A copy of e that shares no compound node with it."""
    return with_children(e, [_rebuilt(c) for c in expr_children(e)])


def test_sharing_changes_no_run(monkeypatch):
    # Runs with substitution that shares against runs where every
    # substitution returns a fresh copy.
    programs = [load_corpus(name) for name in
                ("bprog1.bpl", "bprog3.bpl", "bprog4.bpl", "shift64.bpl")]
    programs += [generate_well_typed(GenConfig(seed=seed, bytes_match=True,
                                               externals=True))
                 for seed in range(30)]

    def outcomes():
        out = []
        for i, p in enumerate(programs):
            tp = check_program(p)
            r = run_program(tp, world_for_seed(i))
            a = evaluate_with_audit(tp, world_for_seed(i))
            out.append((r.value, r.steps, a.value, a.steps, a.violations))
        return out

    shared = outcomes()
    monkeypatch.setattr(interp, "subst",
                        lambda e, subs: _rebuilt(subst(e, subs)))
    assert outcomes() == shared
    assert all(a_violations == [] for *_, a_violations in shared)


# --- the shape table --------------------------------------------------------

def _concrete_exprs(cls=Expr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_exprs(sub)


def test_every_expr_class_is_a_leaf_or_has_a_shape():
    classes = set(_concrete_exprs())
    assert classes == set(SHAPES) | LEAVES
    assert not set(SHAPES) & LEAVES


def test_every_expr_class_has_one_typing_rule():
    assert set(typecheck._TYPING_RULES) == set(SHAPES) | LEAVES

    class Stray:
        """A node of a class the checker has no rule for."""

    for ctx in (TypingContext(), TypingContext(memo=JudgmentMemo())):
        for e in (Stray(), Prim(Bop(BopKind.ADD), (Stray(), ConstInt(1))),
                  Let("x", INT, ConstInt(1), Stray())):
            with pytest.raises(TypeCheckError) as err:
                infer_expr(ctx, e)
            assert err.value.code == "UnsupportedExpr"


def test_with_children_rebuilds_every_subterm():
    bodies = _corpus_bodies()
    for seed in range(100):
        cfg = GenConfig(seed=seed, bytes_match=seed % 2 == 1,
                        externals=seed % 2 == 1)
        bodies += [d.body for d in generate_well_typed(cfg).decls
                   if isinstance(d, FunDecl)]
    # Neither source has the internal nodes, nor a struct initialization.
    bodies += [Seq((Repeat(Loc(1, 4), 2), BytesView(1, 0, 14), UnitLit(),
                    Frame("g", {"a": 1}, Var("a")))),
               parse_expr("s { f = x, g = 1 }")]
    seen = set()
    for body in bodies:
        for t in _subterms(body):
            seen.add(type(t))
            assert with_children(t, expr_children(t)) == t
            # Every expression the node holds is one of its children.
            children = expr_children(t)
            for f in dataclasses.fields(t):
                if f.compare:
                    for v in _held(getattr(t, f.name)):
                        if isinstance(v, Expr):
                            assert any(v is c for c in children), f.name
    assert seen == set(SHAPES) | LEAVES


def _held(value):
    """What a field holds, looking into tuples."""
    if type(value) is tuple:
        for v in value:
            yield from _held(v)
    else:
        yield value


# --- records: slotted, unhashable, left as they were ------------------------

def _records(p: Program):
    """Every expression node of p's declarations, and every node's span."""
    for d in p.decls:
        roots = [d.body] if isinstance(d, FunDecl) else [d.init]
        for root in roots:
            if isinstance(root, Expr):
                for e in _subterms(root):
                    yield e
                    if e.span is not None:
                        yield e.span


def _snapshot(programs):
    return [(r, [(f.name, getattr(r, f.name)) for f in dataclasses.fields(r)])
            for p in programs for r in _records(p)]


def test_no_stage_changes_a_node():
    """Nodes and spans are mutable records, immutable by convention: every
    field of every node, span and ty included, still holds the same object
    after checking, running, auditing, emitting and printing."""
    cases = [(load_corpus(name), ExternalWorld())
             for name in ("bprog1.bpl", "bprog3.bpl", "bprog4.bpl",
                          "shift64.bpl")]
    for seed in range(50):
        for extras in (False, True):
            cfg = GenConfig(seed=seed, bytes_match=extras, externals=extras)
            cases.append((generate_well_typed(cfg), world_for_seed(seed)))
    typed = [check_program(p) for p, _ in cases]
    snapshot = _snapshot([p for p, _ in cases] + [tp.program for tp in typed])
    for (p, world), tp in zip(cases, typed):
        check_program(p)
        run_program(tp, copy.deepcopy(world))
        assert not evaluate_with_audit(tp, copy.deepcopy(world)).violations
        for mode in ("ebpf", "host"):
            emit_program(tp, mode)
        print_program(p)
        print_program(tp.program)
    for record, fields in snapshot:
        for name, value in fields:
            assert getattr(record, name) is value, (record, name)
    for record, _ in snapshot:
        with pytest.raises(TypeError):
            hash(record)
    hash(INT)
    hash(Pbytes("b", StructTy("s"), (("f", U8),)))


def test_a_bytes_pattern_binds_each_name_once():
    for fields in ((("b", U8),), (("f", U8), ("f", U16))):
        with pytest.raises(CoreError, match="binds '[bf]' twice"):
            Pbytes("b", StructTy("s"), fields)


# --- sizes and layout --------------------------------------------------------

def test_sizeof_prims():
    assert sizeof(IntTy(32, Sign.SIGNED), {}) == 4
    assert sizeof(LongTy(Sign.UNSIGNED), {}) == 8
    assert sizeof(I8, {}) == 1
    assert sizeof(U16, {}) == 2
    assert sizeof(BOOL, {}) == 1


def test_sizeof_pointers_and_option():
    assert sizeof(RefTy(INT), {}) == 8
    assert sizeof(OptionTy(RefTy(LONG)), {}) == 8


def test_sizeof_struct_sum_of_fields():
    comps = {"h": Composite("h", (("h_proto", U16),))}
    assert sizeof(StructTy("h"), comps) == 2


def test_sizeof_struct_alignment_padding():
    # u8 then u32: the second field aligns to 4, total rounds to 8
    comps = {"s": Composite("s", (("a", U8), ("b", IntTy(32, Sign.UNSIGNED))))}
    offsets, size, align = struct_layout(comps["s"], comps)
    assert offsets == {"a": 0, "b": 4}
    assert size == 8 and align == 4


def test_sizeof_ethhdr_is_14():
    comps = {"ethhdr": Composite("ethhdr", (
        ("h_dest", ArrayTy(U8, 6)), ("h_source", ArrayTy(U8, 6)),
        ("h_proto", U16)))}
    assert sizeof(StructTy("ethhdr"), comps) == 14


def test_sizeof_array():
    assert sizeof(ArrayTy(U8, 6), {}) == 6
    assert sizeof(ArrayTy(INT, 3), {}) == 12


def test_sizeof_unknown_struct():
    with pytest.raises(UnknownStruct):
        sizeof(StructTy("nope"), {})


# --- constructor invariants ---------------------------------------------------

def test_option_wraps_only_pointers():
    with pytest.raises(CoreError):
        OptionTy(INT)
    with pytest.raises(CoreError):
        OptionTy(OptionTy(RefTy(INT)))  # no nesting


def test_ref_wraps_only_basic():
    with pytest.raises(CoreError):
        RefTy(RefTy(INT))
    RefTy(StructTy("s"))  # structs and arrays are basic
    RefTy(ArrayTy(U8, 2))


def test_array_length_positive():
    with pytest.raises(CoreError):
        ArrayTy(U8, 0)


def test_fun_decl_args_vars_disjoint():
    with pytest.raises(CoreError):
        FunDecl("f", INT, (("x", INT),), ConstInt(1),
                vars=(("x", RefTy(StructTy("s"))),))


def test_program_unique_names():
    fd = FunDecl("f", INT, (), ConstInt(1))
    with pytest.raises(CoreError):
        Program((fd, fd))


# --- values ---------------------------------------------------------------

def test_is_value_is_exactly_the_value_forms():
    loc = Loc(1, 0)
    for v in (UnitLit(), ConstBool(True), ConstInt(-1), ConstLong(1 << 40),
              loc, BytesView(1, 0, 4), NoneLit(), SomeLit(loc)):
        assert is_value(v), v
    for e in (Var("x"), SomeLit(ConstInt(1)), SomeLit(Var("p")),
              SomeLit(SomeLit(loc)), Prim(RefOp(), (ConstInt(1),)),
              Seq((UnitLit(),))):
        assert not is_value(e), e


def test_integer_literals_hold_their_lane_range():
    # The checker, which judges every literal for the checker and the
    # audit, is where a literal's lane range is enforced; the parser and
    # the rules' wrapping never build one outside it.
    for lit, ty in ((ConstInt((1 << 31) - 1), INT),
                    (ConstInt(-(1 << 31)), INT),
                    (ConstLong((1 << 63) - 1), LONG),
                    (ConstLong(-(1 << 63)), LONG)):
        assert infer_expr(TypingContext(), lit) == (ty, Effect())
    for cls, v in ((ConstInt, 1 << 31), (ConstInt, -(1 << 31) - 1),
                   (ConstLong, 1 << 63), (ConstLong, -(1 << 63) - 1)):
        lane = "int" if cls is ConstInt else "long"
        for expected in (None, INT, LONG):
            with pytest.raises(TypeCheckError) as info:
                infer_expr(TypingContext(), cls(v), expected)
            assert (info.value.code, info.value.rule, info.value.message) \
                == ("LiteralOutOfRange", "TCONST",
                    f"{lane} literal out of range: {v}")
