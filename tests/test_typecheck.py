import pytest

from beepl.core import (
    ALLOC, App, Assign, BOOL, Bop, BopKind, ConstBool, ConstInt, ConstLong,
    Deref, Effect, EffectAtom, For, INT, LONG, Let, Match, OptionTy, Prim,
    Program, RefOp, RefTy, StructTy, UNIT, Var, effect_of, effect_subset,
    expr_children, fvar,
)
from beepl.frontend import parse_expr, parse_program, print_program
from beepl.gen import GenConfig, generate_well_typed
from beepl.typecheck import (
    JudgmentMemo, TypeCheckError, TypingContext, check_fun_decl, check_program,
    check_source, default_helper_registry, infer_expr, section_ok,
)

REG = default_helper_registry()


def ctx_with(**gamma):
    return TypingContext(gamma=dict(gamma),
                         pi={c.sid: c for c in REG.composites},
                         psi=dict(REG.entries),
                         consts=dict(REG.constants))


def infer_src(src, **gamma):
    return infer_expr(ctx_with(**gamma), parse_expr(src))


def err_code(fn):
    with pytest.raises(TypeCheckError) as err:
        fn()
    return err.value.code


# --- infer_expr spec examples -------------------------------------------------

def test_deref_of_option_rejected():
    code = err_code(lambda: infer_src("!p", p=OptionTy(RefTy(LONG))))
    assert code == "DerefOfOption"


def test_ref_allocates():
    assert infer_src("ref(2)") == (RefTy(INT), ALLOC)


def test_const_bool():
    assert infer_src("true") == (BOOL, Effect())


def test_bar_body_effect_order():
    body = "let x : int* = ref(2) in let _ = x := !x + 1 in !x"
    ty, eff = infer_src(body)
    assert ty == INT
    assert eff == effect_of(["alloc", "read", "write", "read"])


def test_for_body_captures_bounds():
    code = err_code(
        lambda: infer_src("for (n ... 5, Up) { n := 1 }", n=RefTy(INT)))
    assert code == "ForBodyCapturesBounds"


def test_nested_literal_loops_check_in_linear_time(monkeypatch):
    # Every call of fvar, the recursive ones too, goes through the counter:
    # it stands for the work of the disjointness premise.
    import beepl.core
    import beepl.typecheck

    calls = 0
    real_fvar = beepl.core.fvar

    def counting_fvar(e):
        nonlocal calls
        calls += 1
        return real_fvar(e)

    def fvar_calls(n):
        nonlocal calls
        p = parse_program("fun main() : int { let _ = "
                          + "for (0 ... 0, Up) { " * n + "()" + " }" * n
                          + " in 1 }")
        calls = 0
        check_program(p)
        return calls

    monkeypatch.setattr(beepl.core, "fvar", counting_fvar)
    monkeypatch.setattr(beepl.typecheck, "fvar", counting_fvar)
    assert 0 < fvar_calls(80) <= 5 * fvar_calls(20)


def test_foo_effect():
    ty, eff = infer_src("let x : int* = ref(2) in let r : int = !x + 1 in r")
    assert (ty, eff) == (INT, effect_of(["alloc", "read"]))


def test_pointer_arithmetic_rejected():
    code = err_code(lambda: infer_src("p + 1", p=RefTy(INT)))
    assert code == "PointerArithmetic"


def test_branch_type_mismatch():
    code = err_code(lambda: infer_src("if true then 1 else false"))
    assert code == "BranchTypeMismatch"


def test_guard_not_bool():
    assert err_code(lambda: infer_src("if 1 then 2 else 3")) == "GuardNotBool"


def test_unknown_helper():
    assert err_code(lambda: infer_src("no_such_helper()")) == "UnknownHelper"


def test_arity_mismatch():
    code = err_code(lambda: infer_src("bpf_get_current_uid_gid(1)"))
    assert code == "ArgArityMismatch"


def test_match_requires_both_arms():
    src = "match o with | psome p => 1 | psome q => 2"
    code = err_code(lambda: infer_src(src, o=OptionTy(RefTy(INT))))
    assert code == "NonExhaustiveOptionMatch"


def test_wildcard_may_replace_one_arm():
    src = "match o with | pnone => 1 | _ => 2"
    ty, _ = infer_src(src, o=OptionTy(RefTy(INT)))
    assert ty == INT


def test_literal_widens_against_long():
    ty, _ = infer_src("x & 0xFF", x=LONG)
    assert ty == LONG


def test_cast_targets_limited():
    assert infer_src("(int)x", x=LONG)[0] == INT
    assert err_code(lambda: infer_src("(u8)x", x=LONG)) == "BadCastTarget"


def test_ref_of_pointer_rejected():
    assert err_code(lambda: infer_src("ref(ref(2))")) == "RefOfNonBasic"
    assert err_code(lambda: infer_src("ref(p)",
                                      p=OptionTy(RefTy(INT)))) == \
        "RefOfNonBasic"


def test_some_of_non_pointer_rejected():
    assert err_code(lambda: infer_src("some(1)")) == "SomeOfNonPointer"


def test_aggregate_deref_and_assign_rejected():
    s = RefTy(StructTy("xdp_md"))
    assert err_code(lambda: infer_src("!p", p=s)) == "DerefOfAggregate"
    assert err_code(lambda: infer_src("p := q", p=s, q=s)) == \
        "AssignToAggregate"


def test_array_variables_are_not_values():
    from beepl.core import ArrayTy, U8
    assert err_code(lambda: infer_src("a", a=ArrayTy(U8, 4))) == \
        "ArrayNotFirstClass"


def test_effects_through_cond_collect_both_branches():
    ty, eff = infer_src("if b then !p else 0", b=BOOL, p=RefTy(INT))
    assert ty == INT
    assert EffectAtom.READ in eff.atoms()


# --- check_fun_decl -------------------------------------------------------------

def test_returns_pointer_rejected():
    src = "fun f() : int* { ref(2) }"
    code = err_code(lambda: check_source(src))
    assert code == "ReturnsPointer"


def test_minimal_fun_accepted_with_empty_effect():
    tp = check_source("fun f() : int { 1 }")
    assert tp.funs["f"].inferred == Effect()


def test_bprog3_accepted_with_expected_effects():
    src = '''
#section ".maps"
global counter_table : option(struct bpf_map*) = none;
#section "xdp"
fun bprog3(option(struct xdp_md*) ctx) : int {
    let uid : long* = ref(0) in
        let _ = uid := bpf_get_current_uid_gid() & 0xFFFFFFFF in
            let p : option(long*) = bpf_map_lookup_elem(counter_table, uid) in
                match p with
                    | pnone => -1
                    | psome p' => (int)!p'
}
'''
    tp = check_source(src)
    atoms = tp.funs["bprog3"].inferred.atoms()
    assert {EffectAtom.ALLOC, EffectAtom.IO, EffectAtom.WRITE,
            EffectAtom.READ} <= atoms


def test_effect_annotation_too_small():
    src = "fun f() : int, <read> { let x : int* = ref(2) in !x }"
    assert err_code(lambda: check_source(src)) == "EffectAnnotationTooSmall"


def test_effect_annotation_may_exceed_inferred():
    src = "fun f() : int, <alloc, read, io> { let x : int* = ref(2) in !x }"
    tp = check_source(src)
    assert tp.funs["f"].effect == effect_of(["alloc", "read", "io"])


def test_section_mismatch_on_argument():
    src = '#section "socket"\nfun f(option(struct xdp_md*) c) : int { 1 }'
    assert err_code(lambda: check_source(src)) == "SectionMismatch"


# --- section_ok ------------------------------------------------------------------

def test_section_ok_table():
    xdp = OptionTy(RefTy(StructTy("xdp_md")))
    skb = OptionTy(RefTy(StructTy("__sk_buff")))
    assert section_ok(xdp, "xdp")
    assert section_ok(INT, None)
    assert not section_ok(xdp, "socket")
    assert not section_ok(skb, "xdp")
    assert section_ok(skb, "socket")
    assert section_ok(xdp, None)  # no section, no constraint
    assert section_ok(INT, "xdp")  # other combinations default to allowed


# --- check_program ----------------------------------------------------------------

def test_empty_program_accepted():
    check_program(Program())


def test_bprog2_rejected():
    from beepl.driver import load_corpus
    with pytest.raises(TypeCheckError) as err:
        check_program(load_corpus("bprog2.bpl"))
    assert err.value.code == "DerefOfOption"
    assert err.value.rule == "TDEREF"


def test_bprog3_corpus_accepted():
    from beepl.driver import load_corpus
    check_program(load_corpus("bprog3.bpl"))


def test_duplicate_names_rejected():
    src = "fun f() : int { 1 }\nfun f() : int { 2 }"
    with pytest.raises(Exception):
        check_source(src)


def test_recursion_rejected():
    src = "fun f() : int { f() }"
    assert err_code(lambda: check_source(src)) == "UnknownHelper"


def test_forward_call_rejected_backward_allowed():
    assert err_code(lambda: check_source(
        "fun f() : int { g() }\nfun g() : int { 1 }")) == "UnknownHelper"
    tp = check_source("fun g() : int { 1 }\nfun f() : int { g() }")
    assert tp.funs["f"].inferred == Effect()


def test_locals_shadowing_globals_rejected():
    src = "global g : int = 1;\nfun f(int g) : int { g }"
    assert err_code(lambda: check_source(src)) == "DuplicateName"


# --- default_helper_registry ------------------------------------------------------

def test_registry_lookup_map_helper():
    sig = REG.lookup("bpf_map_lookup_elem")
    assert len(sig.arg_types) == 2
    assert sig.eff == effect_of(["read", "io"])
    assert sig.res_type == OptionTy(RefTy(LONG))


def test_registry_lookup_uid_gid():
    sig = REG.lookup("bpf_get_current_uid_gid")
    assert sig.arg_types == ()
    assert sig.eff == effect_of(["io"])
    assert sig.res_type == LONG


def test_registry_absent_helper():
    assert REG.lookup("no_such_helper") is None


def test_registry_constants():
    assert REG.constants["XDP_PASS"] == 2
    assert REG.constants["XDP_DROP"] == 1
    assert REG.constants["XDP_ABORTED"] == 0
    assert REG.constants["ETH_P_IPV6"] == 0x86DD


# --- invariants over generated programs ---------------------------------------------

def _generated(seed, **kw):
    return generate_well_typed(GenConfig(seed=seed, **kw))


def test_determinism_of_inference():
    e = parse_expr("let x : int* = ref(2) in !x + 1")
    c = ctx_with()
    assert infer_expr(c, e) == infer_expr(c, e)


def test_generated_programs_never_infer_divergence():
    for seed in range(40):
        tp = check_program(_generated(seed, bytes_match=True, externals=True))
        for name, tf in tp.funs.items():
            assert EffectAtom.DIVERGENCE not in tf.inferred.atoms(), name


def test_deref_of_any_option_is_rejected():
    # Wrap the scrutinee of each generated option match in a deref, in
    # place: the mutated program must always be rejected.
    from dataclasses import replace as dc_replace

    from beepl.core import Deref, Match, Prim
    from beepl.gen import _positions, _replace_at

    hits = 0
    for seed in range(60):
        p = _generated(seed, externals=True)
        for i, d in enumerate(p.decls):
            if not hasattr(d, "body"):
                continue
            for path, node in _positions(d.body):
                if not isinstance(node, Match):
                    continue
                mutant = _replace_at(d.body, path,
                                     Prim(Deref(), (node.scrutinee,)))
                decls = list(p.decls)
                decls[i] = dc_replace(d, body=mutant)
                with pytest.raises(TypeCheckError) as err:
                    check_program(Program(tuple(decls), p.composites))
                assert err.value.code in ("DerefOfOption", "NotAPointer",
                                          "BranchTypeMismatch",
                                          "ReturnTypeMismatch",
                                          "BopTypeMismatch", "LetTypeMismatch",
                                          "ArgTypeMismatch")
                if err.value.code == "DerefOfOption":
                    hits += 1
                break
    assert hits >= 5


def test_accepted_for_loops_have_disjoint_bounds():
    for seed in range(40):
        p = _generated(seed)
        check_program(p)

        def walk(e):
            if isinstance(e, For):
                assert not (fvar(e.body) & (fvar(e.lo) | fvar(e.hi)))
            for c in expr_children(e):
                walk(c)

        for d in p.decls:
            if hasattr(d, "body"):
                walk(d.body)


# --- derivation soundness hook -------------------------------------------------------

def test_rule_audit_recomputes_conclusions():
    """Re-checking immediate subexpressions reconstructs each conclusion."""
    from beepl.core import Cond, effect_concat

    ctx = ctx_with(b=BOOL, p=RefTy(INT))
    cases = [
        ("ref(2)", lambda sub: (RefTy(sub[0][0]),
                                effect_concat(ALLOC, sub[0][1]))),
        ("!p", lambda sub: (sub[0][0].target,
                            effect_concat(effect_of(["read"]), sub[0][1]))),
        ("1 + 2", lambda sub: (sub[0][0],
                               effect_concat(sub[0][1], sub[1][1]))),
        ("if b then 1 else 2",
         lambda sub: (sub[1][0],
                      effect_concat(sub[0][1], sub[1][1], sub[2][1]))),
        ("p := !p + 1",
         lambda sub: (UNIT, effect_concat(sub[0][1], sub[1][1],
                                          effect_of(["write"])))),
    ]
    for src, conclusion in cases:
        e = parse_expr(src)
        got = infer_expr(ctx, e)
        subs = [infer_expr(ctx, c) for c in expr_children(e)]
        assert got == conclusion(subs), src


def test_elaboration_records_node_types():
    tp = check_source("fun main() : long { let p : int* = ref(3) in "
                      "if !p < 2 then 1 else (long)!p }")
    body = tp.program.fun_decls()["main"].body
    assert (body.ty, body.bound.ty) == (LONG, RefTy(INT))
    cond = body.body
    assert (cond.ty, cond.guard.ty, cond.guard.operands[0].ty) == \
        (LONG, BOOL, INT)
    assert cond.otherwise.ty == LONG
    # The recorded types take no part in equality, so printing and
    # re-parsing the elaborated program still gives an equal program.
    assert parse_program(print_program(tp.program)) == tp.program


def test_memo_keys_on_expected_type_and_free_local_binders():
    # Nodes judged under one runtime context (y : int) with different
    # expected types and local binders: with a memo, each answer is the one
    # a context without a memo gives.
    memo = JudgmentMemo()
    five = ConstInt(5)
    body = parse_expr("x + 1")
    scaled = parse_expr("y * 2")
    judgments = [
        (five, None), (five, LONG), (five, None),
        (Let("x", INT, ConstInt(1), body), None),
        (Let("x", LONG, ConstLong(1), body), None),
        (Let("x", BOOL, ConstBool(True), body), None),
        (body, None),
        (Let("y", LONG, ConstLong(1), scaled), None),
        (scaled, None),
        (Let("y", LONG, ConstLong(1), scaled), None),
    ]
    answers = {}
    for m in (None, memo):
        for i, (e, expected) in enumerate(judgments):
            ctx = TypingContext(gamma={"y": INT}, memo=m)
            try:
                answers.setdefault(i, []).append(infer_expr(ctx, e, expected))
            except TypeCheckError as exc:
                answers.setdefault(i, []).append(exc.code)
    assert all(full == memoized for full, memoized in answers.values()), \
        answers
    assert answers[1][0] == (LONG, Effect()) and answers[6][0] == \
        "UnknownVariable" and answers[8][0] == (INT, Effect())
    # Only successful judgments were kept.
    assert all(type(judged) is tuple for _, judged in memo.judgments.values())
