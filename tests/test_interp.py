import pytest

from beepl.core import (
    ArrayTy, BopKind, BYTES, Composite, ConstBool, ConstInt, ConstLong,
    Deref, Direction, INT, IntTy, LONG, Loc, Match, NoneLit, Pnone, Prim,
    Psome, RefOp, RefTy, Sign, SomeLit, StructTy, U16, U32, U8, UnitLit,
    VBool, VBytes, VInt, VLoc, VLong, VUndef, VUnit, Var, expr_children,
    is_value, sizeof,
)
from beepl.driver import CORPUS_DIR, load_corpus, world_for_seed
from beepl.frontend import parse_expr, parse_program
from beepl.interp import (
    ExternalWorld, FuelExhausted, IsValue, Memory, Monitors, State, Stepped,
    Stuck, StuckState, TooShort, bop_sem, entry_call, eval_multi, extract,
    init_state, range_count, run_program, runtime_gamma, step, subst, uop_sem,
    unsafe, well_formed, wrap,
)
from beepl.core import Bop, BytesView, Cast, Uop, UopKind
from beepl.gen import GenConfig, generate_well_typed
from beepl.typecheck import check_program, check_source, infer_expr, \
    TypeCheckError, TypingContext


def empty_state(**composites):
    return State({}, {}, Memory(), {}, dict(composites))


def eval_src(src, world=None, entry=None, fuel=10**6):
    tp = check_source(src)
    return run_program(tp, world, entry=entry, fuel=fuel)


# --- step ------------------------------------------------------------------------

def test_step_derefv_reads_cell():
    s = empty_state()
    w = ExternalWorld()
    b = s.theta.alloc(4)
    s.theta.store(b, 0, VInt(7))
    s.sigma[b] = INT
    out = step(s, w, Prim(Deref(), (Loc(b, 0),)))
    assert isinstance(out, Stepped)
    assert out.expr == ConstInt(7)
    assert out.rule == "DREFV"


def test_step_refv_allocates_fresh_block():
    s = empty_state()
    w = ExternalWorld()
    before = set(s.theta.blocks)
    out = step(s, w, parse_expr("ref(2)"))
    assert isinstance(out, Stepped) and out.rule == "REFV"
    (new,) = set(s.theta.blocks) - before
    assert out.expr == Loc(new, 0)
    assert s.sigma[new] == INT  # the new location types as a ref to int
    ctx = TypingContext(sigma=s.sigma)
    assert infer_expr(ctx, out.expr)[0] == RefTy(INT)
    assert s.theta.load(new, 0) == VInt(2)


def test_step_freshness_is_monotone():
    s = empty_state()
    w = ExternalWorld()
    ids = []
    for _ in range(5):
        out = step(s, w, parse_expr("ref(1)"))
        ids.append(out.expr.block)
    assert ids == sorted(ids) and len(set(ids)) == 5


def test_step_match_none():
    s = empty_state()
    w = ExternalWorld()
    m = Match(NoneLit(), ((Pnone(), ConstInt(-1)),
                          (Psome("p"), ConstInt(0))))
    out = step(s, w, m)
    assert isinstance(out, Stepped) and out.rule == "MNONE"
    assert out.expr == ConstInt(-1)


def test_step_on_value_is_value():
    out = step(empty_state(), ExternalWorld(), ConstInt(3))
    assert isinstance(out, IsValue) and out.value == VInt(3)


# --- eval_multi --------------------------------------------------------------------

def test_loop_program_evaluates_to_seven():
    src = ("fun main() : int { let x : int* = ref(2) in "
           "let _ = for (1 ... 5, Up) { x := !x + 1 } in !x }")
    r = eval_src(src)
    assert r.value == VInt(7)


def test_constant_is_value_in_zero_steps():
    s = empty_state()
    r = eval_multi(s, ExternalWorld(), ConstInt(1))
    assert r.value == VInt(1) and r.steps == 0


def test_fig2_truncated_divisor_guarded():
    src = ("fun main() : int { let r0 : long = 0x100000000 in "
           "let w0 : int = (int)r0 in let w1 : int = 3 in "
           "if r0 != 0 then w1 % w0 else w1 }")
    assert eval_src(src).value == VInt(0)


def test_fig2_whole_program_returns_xdp_pass():
    from beepl.driver import load_corpus
    tp = check_program(load_corpus("bprog1.bpl"))
    assert run_program(tp).value == VInt(2)


def test_fuel_exhaustion_reported():
    s = empty_state()
    with pytest.raises(FuelExhausted):
        eval_multi(s, ExternalWorld(), parse_expr("1 + 2 + 3"), fuel=1)


def test_eval_deterministic():
    src = ("fun main() : int { let x : int* = ref(1) in "
           "let _ = for (0 ... 3, Up) { x := !x * 2 } in !x }")
    r1, r2 = eval_src(src), eval_src(src)
    assert (r1.value, r1.steps) == (r2.value, r2.steps)


# --- unsafe ---------------------------------------------------------------------------

def test_unsafe_table():
    assert unsafe(BopKind.MOD, VInt(3), VInt(0))
    assert unsafe(BopKind.SHR, VLong(808464432), VLong(64))
    assert not unsafe(BopKind.ADD, VInt(2), VInt(3))
    assert unsafe(BopKind.DIV, VInt(-2147483648), VInt(-1))
    assert unsafe(BopKind.SHL, VInt(1), VInt(-1))  # negative shift
    assert unsafe(BopKind.DIV, VLong(5), VLong(0))
    assert unsafe(BopKind.MOD, VLong(-(1 << 63)), VLong(-1))
    assert not unsafe(BopKind.SHR, VInt(1), VInt(31))
    assert unsafe(BopKind.SHR, VInt(1), VInt(32))
    assert not unsafe(BopKind.EQ, VInt(1), VInt(0))


# --- bop_sem / uop_sem -------------------------------------------------------------------

from oracles import bop_oracle as oracle  # noqa: E402  (shared test oracle)


def test_bop_wrapping_examples():
    assert bop_sem(BopKind.MUL, VInt(65536), VInt(65536)) == VInt(0)
    assert uop_sem(Uop(UopKind.NEG), VInt(5)) == VInt(-5)
    assert uop_sem(Cast(INT), VLong(0x100000000)) == VInt(0)
    assert uop_sem(Cast(LONG), VInt(-1)) == VLong(-1)
    assert uop_sem(Uop(UopKind.NEG), VInt(-2147483648)) == VInt(-2147483648)


def test_bop_sem_matches_bigint_oracle_sampled_grid():
    import random
    rng = random.Random(7)
    ops = [BopKind.ADD, BopKind.SUB, BopKind.MUL, BopKind.DIV, BopKind.MOD,
           BopKind.AND, BopKind.OR, BopKind.XOR, BopKind.SHL, BopKind.SHR]
    checked = 0
    while checked < 64:
        op = rng.choice(ops)
        bits = rng.choice([32, 64])
        mk = VInt if bits == 32 else VLong
        a = wrap(rng.getrandbits(bits), bits)
        b = wrap(rng.getrandbits(bits), bits)
        if op in (BopKind.SHL, BopKind.SHR):
            b = rng.randrange(0, bits)
        if unsafe(op, mk(a), mk(b)):
            continue
        got = bop_sem(op, mk(a), mk(b))
        assert got == mk(oracle(op, a, b, bits)), (op, a, b)
        checked += 1


def test_bop_sem_unsafe_inputs_yield_undef():
    assert bop_sem(BopKind.DIV, VInt(1), VInt(0)) == VUndef()
    assert bop_sem(BopKind.SHL, VLong(1), VLong(64)) == VUndef()


def test_comparisons_yield_bool():
    assert bop_sem(BopKind.LT, VInt(1), VInt(2)) == VBool(True)
    assert bop_sem(BopKind.EQ, VLong(5), VLong(5)) == VBool(True)
    assert bop_sem(BopKind.GE, VInt(-1), VInt(0)) == VBool(False)


# --- subst -----------------------------------------------------------------------------

def test_subst_examples():
    assert subst(Var("x"), "x", ConstInt(5)) == ConstInt(5)
    shadowed = parse_expr("let x : int = 1 in x")
    assert subst(shadowed, "x", ConstInt(5)) == shadowed
    assert subst(parse_expr("x + y"), "x", ConstInt(2)) == parse_expr("2 + y")


# --- range ------------------------------------------------------------------------------

def test_range_examples():
    assert range_count(VInt(1), VInt(5), Direction.UP) == 5
    assert range_count(VInt(5), VInt(1), Direction.UP) == 0
    assert range_count(VInt(5), VInt(1), Direction.DOWN) == 5


def test_range_grid_matches_inclusive_count_oracle():
    for lo in range(-3, 4):
        for hi in range(-3, 4):
            up = len([i for i in range(lo, hi + 1)])
            down = len([i for i in range(hi, lo + 1)])
            assert range_count(VInt(lo), VInt(hi), Direction.UP) == up
            assert range_count(VInt(lo), VInt(hi), Direction.DOWN) == down


def _depth(e):
    return 1 + max((_depth(c) for c in expr_children(e)), default=0)


def test_loop_term_depth_does_not_grow_with_iterations():
    src = ("fun main() : int { let x : int* = ref(2) in "
           "let _ = for (1 ... 300, Up) { x := !x * 3 + 1 } in !x }")
    depths = []
    r = run_program(check_source(src),
                    on_step=lambda s, e, rule: depths.append(_depth(e)))
    assert len(depths) == r.steps > 300
    assert max(depths) < 20


def test_loop_semantics_against_range():
    # Each loop adds 1 per iteration; final cell equals the range size.
    for lo in range(-3, 4):
        for hi in range(-3, 4):
            for d in ("Up", "Down"):
                src = ("fun main() : int { let x : int* = ref(0) in "
                       f"let _ = for ({lo} ... {hi}, {d}) "
                       "{ x := !x + 1 } in !x }")
                expected = range_count(VInt(lo), VInt(hi), Direction(d))
                assert eval_src(src).value == VInt(expected), (lo, hi, d)


# --- extract ----------------------------------------------------------------------------

ETHHDR = Composite("ethhdr", (("h_dest", ArrayTy(U8, 6)),
                              ("h_source", ArrayTy(U8, 6)),
                              ("h_proto", U16)))
H_PROTO_ONLY = Composite("h", (("h_proto", U16),))


def region(data: bytes):
    s = empty_state(ethhdr=ETHHDR, h=H_PROTO_ONLY)
    b = s.theta.alloc(len(data), raw=data)
    s.sigma[b] = BYTES
    return s, VBytes(b, 0, len(data))


def test_extract_too_short_for_ethhdr():
    s, v = region(bytes(10))
    with pytest.raises(TooShort):
        extract(v, StructTy("ethhdr"), s.theta, s.composites, s.sigma)


def test_extract_decodes_little_endian_u16():
    s, v = region(bytes([0xDD, 0x86]))
    vx, binds = extract(v, StructTy("h"), s.theta, s.composites, s.sigma)
    assert binds["h_proto"] == VInt(0x86DD)
    assert isinstance(vx, VLoc)
    assert s.theta.load(vx.block, 0) == VInt(0x86DD)


def test_extract_empty_region_u8():
    s, v = region(b"")
    with pytest.raises(TooShort):
        extract(v, U8, s.theta, s.composites, s.sigma)


def test_extract_prim_scalar():
    s, v = region(bytes([0x80, 0xFF]))
    got, binds = extract(v, U8, s.theta, s.composites, s.sigma)
    assert got == VInt(0x80) and binds == {}
    got, _ = extract(v, IntTy(8, Sign.SIGNED), s.theta, s.composites, s.sigma)
    assert got == VInt(-128)


def test_extract_signed_field_sign_extends():
    s, v = region(bytes([0xFF, 0xFF]))
    got, _ = extract(v, IntTy(16, Sign.SIGNED), s.theta, s.composites,
                     s.sigma)
    assert got == VInt(-1)
    got, _ = extract(v, U16, s.theta, s.composites, s.sigma)
    assert got == VInt(0xFFFF)


def test_bounds_exhaustive_over_region_lengths():
    targets = [
        ("u8", U8, 1),
        ("one u16", StructTy("h"), 2),
        ("u32", U32, 4),
        ("long", LONG, 8),
        ("ethhdr", StructTy("ethhdr"), 14),
    ]
    for name, ty, size in targets:
        assert sizeof(ty, {"ethhdr": ETHHDR, "h": H_PROTO_ONLY}) == size
        for length in range(0, 2 * size + 1):
            s, v = region(bytes(range(length % 251 + 1))[:1] * length)
            ok = length >= size
            try:
                extract(v, ty, s.theta, s.composites, s.sigma)
                assert ok, (name, length)
            except TooShort:
                assert not ok, (name, length)


def test_match_bytes_fallback_taken_exactly_on_short_regions():
    src_tpl = '''
struct h {{ h_proto : u16 }}
#section "xdp"
fun prog(option(struct xdp_md*) ctx) : int {{
    match ctx.data with
        | x, struct h : (h_proto, u16) => 1
        | _ => 0
}}
'''
    tp = check_source(src_tpl.format())
    for length in range(0, 5):
        w = ExternalWorld(packet=bytes(length))
        r = run_program(tp, w)
        assert r.value == (VInt(1) if length >= 2 else VInt(0)), length


# --- well_formed -----------------------------------------------------------------------

def _fresh_program_state():
    tp = check_source('#section ".maps"\n'
                      "global counter_table : option(struct bpf_map*) = none;\n"
                      "fun main() : int { 1 }")
    w = ExternalWorld()
    return tp, w, init_state(tp, w)


def test_well_formed_fresh_state():
    tp, w, s = _fresh_program_state()
    ok, bad = well_formed(runtime_gamma(s), s.sigma, s)
    assert ok, bad


def test_well_formed_detects_deleted_block():
    tp, w, s = _fresh_program_state()
    victim = next(iter(s.sigma))
    del s.theta.blocks[victim]
    ok, bad = well_formed(runtime_gamma(s), s.sigma, s)
    assert not ok
    assert any("Freeable" in c for c in bad)


def test_well_formed_after_refv():
    tp, w, s = _fresh_program_state()
    out = step(s, w, parse_expr("ref(2)"))
    assert isinstance(out, Stepped)
    ok, bad = well_formed(runtime_gamma(s), s.sigma, s)
    assert ok, bad


def test_allocation_preserves_existing_blocks():
    tp, w, s = _fresh_program_state()
    before = s.snapshot()
    step(s, w, parse_expr("ref(2)"))
    for bid, blk in before.theta.blocks.items():
        after = s.theta.blocks[bid]
        assert after.cells == blk.cells
        assert after.perm == blk.perm
        assert after.size == blk.size


# --- monitors ---------------------------------------------------------------------------

def test_null_monitor_counts_deref_of_none():
    s = empty_state()
    w = ExternalWorld()
    from beepl.core import Deref, Prim
    out = step(s, w, Prim(Deref(), (NoneLit(),)))
    assert isinstance(out, Stuck)
    assert s.monitors.null_deref_events == 1


def test_uninit_monitor_counts_missing_cell():
    s = empty_state()
    w = ExternalWorld()
    b = s.theta.alloc(4)
    s.sigma[b] = INT
    from beepl.core import Deref, Prim
    out = step(s, w, Prim(Deref(), (Loc(b, 0),)))
    assert isinstance(out, Stuck)
    assert s.monitors.uninit_read_events == 1


def test_undef_monitor_without_guard():
    s = empty_state()
    w = ExternalWorld()
    out = step(s, w, parse_expr("1 / 0"), guard_unsafe=False)
    assert isinstance(out, Stuck)
    assert s.monitors.undef_events == 1


def test_guarded_division_by_zero_steps_to_zero():
    s = empty_state()
    out = step(s, ExternalWorld(), parse_expr("1 / 0"))
    assert isinstance(out, Stepped) and out.expr == ConstInt(0)
    assert s.monitors.clean()


# --- external world ------------------------------------------------------------------------

def test_world_uid_gid_default():
    src = "fun main() : long { bpf_get_current_uid_gid() }"
    assert eval_src(src).value == VLong(0x000003E8000003E8)


def test_world_lookup_hit_and_miss():
    src = '''
#section ".maps"
global counter_table : option(struct bpf_map*) = none;
fun main() : long {
    let k : long* = ref(7) in
    match bpf_map_lookup_elem(counter_table, k) with
        | pnone => -1
        | psome v => !v
}
'''
    tp = check_source(src)
    assert run_program(tp, ExternalWorld()).value == VLong(-1)
    w = ExternalWorld(maps={"counter_table": {7: 1234}})
    assert run_program(tp, w).value == VLong(1234)
    assert w.io_log == ["bpf_map_lookup_elem"]


def test_world_determinism():
    src = "fun main() : long { bpf_get_current_uid_gid() & 0xFFFFFFFF }"
    tp = check_source(src)
    w1 = ExternalWorld(uid_gid=0x0000100000002000)
    w2 = ExternalWorld(uid_gid=0x0000100000002000)
    assert run_program(tp, w1).value == run_program(tp, w2).value == \
        VLong(0x2000)


def test_unknown_external_returns_zero_of_result_type():
    src = ("extern fun mystery(int) : long, <io>;\n"
           "fun main() : long { mystery(3) }")
    assert eval_src(src).value == VLong(0)


# --- one value representation ---------------------------------------------

def test_memory_cells_and_results_are_values():
    programs = []
    for path in sorted(CORPUS_DIR.glob("*.bpl")):
        try:
            programs.append(check_program(load_corpus(path.name)))
        except TypeCheckError:
            continue  # bprog2 is rejected by design
    programs += [check_program(generate_well_typed(GenConfig(
        seed=seed, bytes_match=True, externals=True))) for seed in range(100)]
    assert len(programs) == 104
    for i, tp in enumerate(programs):
        r = run_program(tp, world_for_seed(i))
        assert is_value(r.value), (i, r.value)
        for bid, block in r.state.theta.blocks.items():
            for off, cell in block.cells.items():
                assert is_value(cell), (i, bid, off, cell)


def test_ref_types_its_block_as_the_checker_types_the_value():
    s = empty_state()
    w = ExternalWorld()
    cell = s.theta.alloc(4)
    s.theta.store(cell, 0, ConstInt(3))
    s.sigma[cell] = INT
    forms = (ConstInt(-5), ConstLong(1 << 40), ConstBool(True), UnitLit(),
             Loc(cell, 0), SomeLit(Loc(cell, 0)))
    for v in forms:
        expected, _ = infer_expr(TypingContext(sigma=dict(s.sigma)), v)
        out = step(s, w, Prim(RefOp(), (v,)))
        assert isinstance(out, Stepped) and out.rule == "REFV", v
        assert s.sigma[out.expr.block] == expected, v
        assert s.theta.load(out.expr.block, 0) is v
    # A bare none and a location without store typing have no type.
    for v in (NoneLit(), Loc(999, 0)):
        assert isinstance(step(s, w, Prim(RefOp(), (v,))), Stuck), v


def test_operators_on_the_wrong_kind_of_value_are_stuck():
    # Unchecked terms: the operator rules name the operator and the operand
    # classes instead of raising out of step.
    s = empty_state()
    w = ExternalWorld()
    cases = [
        (Prim(Bop(BopKind.ADD), (VLoc(1, 0), VInt(1))),
         "operator '+' does not apply to Loc and ConstInt"),
        (Prim(Uop(UopKind.NEG), (BytesView(1, 0, 4),)),
         "operator '-' does not apply to BytesView"),
        (Prim(Bop(BopKind.MUL), (SomeLit(VLoc(1, 0)), VInt(2))),
         "operator '*' does not apply to SomeLit and ConstInt"),
        (Prim(Bop(BopKind.DIV), (VInt(1), VLong(0))),
         "operator '/' does not apply to ConstInt and ConstLong"),
        (Prim(Bop(BopKind.LAND), (VInt(1), VBool(True))),
         "operator '&&' does not apply to ConstInt and ConstBool"),
        (Prim(Uop(UopKind.LOGNOT), (VInt(0),)),
         "operator 'not' does not apply to ConstInt"),
        (Prim(Uop(UopKind.BITNOT), (NoneLit(),)),
         "operator '~' does not apply to NoneLit"),
        (Prim(Cast(LONG), (VBool(True),)),
         "cast to long does not apply to ConstBool"),
    ]
    for e, reason in cases:
        for guard in (True, False):
            assert step(s, w, e, guard) == Stuck(reason), e
    assert s.monitors.clean()
    assert step(s, w, Prim(Bop(BopKind.LOR), (VBool(False), VBool(True)))) \
        == Stepped(VBool(True), "BOPV")
