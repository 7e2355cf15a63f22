import copy
import functools
import itertools
import operator
import sys

import pytest

from beepl import interp

from beepl.core import (
    App, ArrayTy, BOOL, BopKind, BYTES, Composite, ConstBool, ConstInt,
    ConstLong, Deref, Direction, I16, INT, IntTy, LONG, Loc, Match, NoneLit,
    OptionTy, Pnone, Prim, Psome, RefOp, RefTy, Shape, Sign, SomeLit,
    StructInit, StructTy, U16, U32, U8, ULONG, VBool, VBytes, VInt, VLoc,
    VLong, VUnit, Var, expr_children, is_value, sizeof,
)
from beepl.driver import (
    CORPUS_DIR, evaluate_with_audit, load_corpus, world_for_seed,
)
from beepl.frontend import parse_expr, parse_program
from beepl.interp import (
    Block, ExternalWorld, FuelExhausted, InterpError, Memory, NoEntryPoint,
    State, StuckState, TooShort,
    bop_sem, eval_multi, extract, init_state, range_count, run_program,
    runtime_gamma, start, subst, uop_sem, unsafe, well_formed, wrap,
)
from beepl.core import Bop, BytesView, Cast, Uop, UopKind
from beepl.gen import GenConfig, generate_well_typed
from beepl.typecheck import check_program, check_source, infer_elab, \
    infer_expr, TypeCheckError, TypingContext


def empty_state(**composites):
    return State({}, {}, Memory(), dict(composites))


def elaborated(src, expected=None):
    """The expression src as the checker elaborates it."""
    return infer_elab(TypingContext(), parse_expr(src), expected)[2]


def eval_src(src, world=None, entry=None, fuel=10**6):
    tp = check_source(src)
    return run_program(tp, world, entry=entry, fuel=fuel)


# --- step ------------------------------------------------------------------------

def step(s, w, e):
    """The event of e's first step from its root, through eval_multi; None
    when e is a value.  A step that gets stuck raises StuckState."""
    events = []
    try:
        eval_multi(s, w, e, fuel=1, on_event=events.append)
    except FuelExhausted:
        pass
    return events[0] if events else None


def stuck(s, w, e):
    """The reason e, a redex, gets stuck; its event is the step's."""
    with pytest.raises(StuckState) as info:
        step(s, w, e)
    event = info.value.event
    assert event.rule is None and event.depth == 0 and event.path == []
    assert event.redex is e and event.term is e
    return info.value.reason


def test_step_derefv_reads_cell():
    s = empty_state()
    w = ExternalWorld()
    b = s.theta.alloc(INT)
    s.theta.store(b, 0, VInt(7))
    e = Prim(Deref(), (Loc(b, 0),))
    out = step(s, w, e)
    assert out.term == ConstInt(7)
    assert out.rule == "DREFV"
    assert out.redex is e and out.depth == 0
    assert out.path == [(e, out.term)]


def test_step_refv_allocates_fresh_block():
    s = empty_state()
    w = ExternalWorld()
    before = set(s.theta.blocks)
    out = step(s, w, elaborated("ref(2)"))
    assert out.rule == "REFV"
    (new,) = set(s.theta.blocks) - before
    assert out.term == Loc(new, 0)
    assert s.sigma[new] == INT  # the new location types as a ref to int
    ctx = TypingContext(sigma=s.sigma)
    assert infer_expr(ctx, out.term)[0] == RefTy(INT)
    assert s.theta.load(new, 0) == VInt(2)


def test_step_freshness_is_monotone():
    s = empty_state()
    w = ExternalWorld()
    ids = []
    for _ in range(5):
        out = step(s, w, elaborated("ref(1)"))
        ids.append(out.term.block)
    assert ids == sorted(ids) and len(set(ids)) == 5


def test_step_match_none():
    s = empty_state()
    w = ExternalWorld()
    m = Match(NoneLit(), ((Pnone(), ConstInt(-1)),
                          (Psome("p"), ConstInt(0))))
    out = step(s, w, m)
    assert out.rule == "MNONE"
    assert out.term == ConstInt(-1)


def test_step_on_value_is_value():
    events = []
    r = eval_multi(empty_state(), ExternalWorld(), ConstInt(3),
                   on_event=events.append)
    assert r.value == VInt(3) and r.steps == 0 and events == []


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
from oracles import unsafe_oracle, wrap_oracle  # noqa: E402


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


def _lane_edges(bits):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return (lo, lo + 1, -1, 0, 1, bits - 1, bits, hi - 1, hi)


LANES = ((32, VInt), (64, VLong))
COMPARISONS = {BopKind.EQ: operator.eq, BopKind.NE: operator.ne,
               BopKind.LT: operator.lt, BopKind.LE: operator.le,
               BopKind.GT: operator.gt, BopKind.GE: operator.ge}
LOGIC = {BopKind.LAND: lambda a, b: a and b,
         BopKind.LOR: lambda a, b: a or b}


def test_bop_sem_matches_the_oracle_on_every_operator_and_lane_edge():
    for bits, mk in LANES:
        edges = _lane_edges(bits)
        for op in BopKind:
            if op in LOGIC:
                continue
            for a, b in itertools.product(edges, edges):
                got = bop_sem(op, mk(a), mk(b))
                assert unsafe(op, mk(a), mk(b)) == \
                    unsafe_oracle(op, a, b, bits), (op, a, b)
                if op in COMPARISONS:
                    expected = VBool(COMPARISONS[op](a, b))
                elif unsafe_oracle(op, a, b, bits):
                    expected = mk(0)
                else:
                    expected = mk(oracle(op, a, b, bits))
                assert type(got) is type(expected), (op, a, b)
                assert got == expected, (op, a, b)
    for op, fn in LOGIC.items():
        for a, b in itertools.product((False, True), repeat=2):
            got = bop_sem(op, VBool(a), VBool(b))
            assert type(got) is ConstBool and got == VBool(fn(a, b))


def test_uop_sem_matches_the_oracle_on_lane_edges():
    for bits, mk in LANES:
        for a in _lane_edges(bits):
            assert uop_sem(Uop(UopKind.NEG), mk(a)) == \
                mk(wrap_oracle(-a, bits))
            assert uop_sem(Uop(UopKind.BITNOT), mk(a)) == \
                mk(wrap_oracle(~a, bits))
            assert uop_sem(Cast(INT), mk(a)) == VInt(wrap_oracle(a, 32))
            assert uop_sem(Cast(LONG), mk(a)) == VLong(wrap_oracle(a, 64))
    for a in (False, True):
        assert uop_sem(Uop(UopKind.LOGNOT), VBool(a)) == VBool(not a)


def test_operators_on_mixed_lanes_or_booleans_are_stuck():
    s, w = empty_state(), ExternalWorld()
    for op in BopKind:
        if op in LOGIC:
            continue
        for v1, v2 in ((VInt(1), VLong(1)), (VLong(1), VInt(1)),
                       (VBool(True), VInt(1)), (VLong(1), VBool(False))):
            names = " and ".join(type(v).__name__ for v in (v1, v2))
            assert stuck(s, w, Prim(Bop(op), (v1, v2))) == \
                f"operator {op.value!r} does not apply to {names}"
    for kind in (UopKind.NEG, UopKind.BITNOT):
        assert stuck(s, w, Prim(Uop(kind), (VBool(True),))) == \
            f"operator {kind.value!r} does not apply to ConstBool"


def test_bop_sem_unsafe_inputs_yield_zero():
    assert bop_sem(BopKind.DIV, VInt(1), VInt(0)) == VInt(0)
    assert bop_sem(BopKind.SHL, VLong(1), VLong(64)) == VLong(0)


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


def test_run_program_takes_one_hook():
    tp = check_source("fun main() : int { 1 + 2 }")
    with pytest.raises(ValueError):
        run_program(tp, on_step=lambda s, e, rule: None,
                    on_event=lambda ev: None)


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
    b = s.theta.alloc(BYTES, raw=data)
    return s, VBytes(b, 0, len(data))


def test_extract_too_short_for_ethhdr():
    s, v = region(bytes(10))
    with pytest.raises(TooShort):
        extract(v, StructTy("ethhdr"), s.theta, s.composites)


def test_extract_decodes_little_endian_u16():
    s, v = region(bytes([0xDD, 0x86]))
    vx, binds = extract(v, StructTy("h"), s.theta, s.composites)
    assert binds["h_proto"] == VInt(0x86DD)
    assert isinstance(vx, VLoc)
    assert s.theta.load(vx.block, 0) == VInt(0x86DD)


def test_extract_empty_region_u8():
    s, v = region(b"")
    with pytest.raises(TooShort):
        extract(v, U8, s.theta, s.composites)


def test_extract_prim_scalar():
    s, v = region(bytes([0x80, 0xFF]))
    got, binds = extract(v, U8, s.theta, s.composites)
    assert got == VInt(0x80) and binds == {}
    got, _ = extract(v, IntTy(8, Sign.SIGNED), s.theta, s.composites)
    assert got == VInt(-128)


def test_extract_signed_field_sign_extends():
    s, v = region(bytes([0xFF, 0xFF]))
    got, _ = extract(v, IntTy(16, Sign.SIGNED), s.theta, s.composites)
    assert got == VInt(-1)
    got, _ = extract(v, U16, s.theta, s.composites)
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
                extract(v, ty, s.theta, s.composites)
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
    ok, bad = well_formed(runtime_gamma(s), s)
    assert ok, bad


def test_well_formed_detects_deleted_block():
    # Memory and the store typing hold the same blocks: a block deleted from
    # memory, or one put there without a type, breaks that either way round.
    tp, w, s = _fresh_program_state()
    victim = next(iter(s.sigma))
    del s.theta.blocks[victim]
    ok, bad = well_formed(runtime_gamma(s), s)
    assert not ok
    assert f"store typing and memory differ on blocks [{victim}]" in bad
    tp, w, s = _fresh_program_state()
    stray = s.theta.next_block
    s.theta.blocks[stray] = Block()
    ok, bad = well_formed(runtime_gamma(s), s)
    assert bad == [f"store typing and memory differ on blocks [{stray}]"]


def test_well_formed_ties_a_cell_to_its_block_type():
    # An int, long or bool block holds a value of that lane; an unwritten
    # cell is for the uninitialized-read rules to get stuck on, not for this
    # clause.
    s = empty_state()
    s.theta.alloc(LONG)
    for ty, good, wrong in ((U8, VInt(7), VLong(7)), (LONG, VLong(7), VInt(7)),
                            (BOOL, VBool(True), VInt(1))):
        bid = s.theta.alloc(ty)
        s.theta.store(bid, 0, good)
        assert well_formed({}, s) == (True, [])
        s.theta.store(bid, 0, wrong)
        assert well_formed({}, s)[1] == [
            f"block {bid} of type {ty} holds a {type(wrong).__name__}"]
        s.theta.store(bid, 0, good)


def test_well_formed_after_refv():
    tp, w, s = _fresh_program_state()
    out = step(s, w, elaborated("ref(2)"))
    assert out.rule == "REFV"
    ok, bad = well_formed(runtime_gamma(s), s)
    assert ok, bad


def test_allocation_preserves_existing_blocks():
    tp, w, s = _fresh_program_state()
    before = copy.deepcopy(s)
    out = step(s, w, elaborated("ref(2)"))
    assert out.rule == "REFV" and out.term.block not in before.theta.blocks
    for bid, blk in before.theta.blocks.items():
        after = s.theta.blocks[bid]
        assert after.cells == blk.cells


# --- faults ---------------------------------------------------------------------------

def test_null_monitor_counts_deref_of_none():
    s = empty_state()
    w = ExternalWorld()
    assert stuck(s, w, Prim(Deref(), (NoneLit(),))) == \
        "dereference of an option value"


def test_uninit_monitor_counts_missing_cell():
    s = empty_state()
    w = ExternalWorld()
    b = s.theta.alloc(INT)
    assert stuck(s, w, Prim(Deref(), (Loc(b, 0),))) == \
        "read of uninitialized memory"


def test_guarded_division_by_zero_steps_to_zero():
    s = empty_state()
    out = step(s, ExternalWorld(), parse_expr("1 / 0"))
    assert out.rule == "BOPV" and out.term == ConstInt(0)


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


NULLS = """
global g : option(int*) = none;
extern fun maybe() : option(long*);
#section ".maps"
global counter_table : option(struct bpf_map*) = none;
fun f(option(int*) o) : int { match o with | pnone => 1 | psome p => !p }
fun main(option(int*) o) : long {
    let k : long* = ref(7L) in
    let a : int = f(o) + f(g) in
    match maybe() with
    | pnone => (match bpf_map_lookup_elem(counter_table, k) with
                | pnone => (long)a | psome v => !v)
    | psome q => !q
}
"""


def test_every_null_a_run_holds_is_typed():
    # A null is typed where it is made: by the checker, a global's by its
    # declaration, and an entry argument's or a helper's answer by
    # zero_value.  A read or a call gives the null back as it is.
    tp = check_source(NULLS)
    w = ExternalWorld()
    s, call = start(tp, w)
    assert call.args == (NoneLit(),)
    assert call.args[0].ty == OptionTy(RefTy(INT))
    nulls, rules = [], set()

    def on_event(ev):
        rules.add(ev.rule)
        nulls.extend(ty for cls, ty in _nodes(ev.term) if cls is NoneLit)
        nulls.extend(cell.ty for block in s.theta.blocks.values()
                     for cell in block.cells.values() if type(cell) is NoneLit)
    assert eval_multi(s, w, call, on_event=on_event).value == VLong(2)
    assert {"LVAR", "GVAR", "EAPP"} <= rules
    assert nulls and all(isinstance(ty, OptionTy) for ty in nulls)
    assert evaluate_with_audit(tp, ExternalWorld()).violations == []


def test_start_needs_an_entry_point():
    tp = check_source("fun f() : int { 1 } fun g() : int { 2 }")
    with pytest.raises(NoEntryPoint):
        start(tp, ExternalWorld())
    with pytest.raises(InterpError, match="no entry point"):
        run_program(tp)
    s, call = start(tp, ExternalWorld(), "g")
    assert call == App(Var("g"), ()) and s.delta.keys() == {"f", "g"}


def test_struct_initialization_uses_the_storage_of_its_call():
    # A call gives each struct local its storage; a cell without it is an
    # ill-typed term, which gets stuck and allocates nothing.
    s = empty_state(pt=Composite("pt", (("x", INT),)))
    s.omega["p"] = s.theta.alloc(RefTy(StructTy("pt")))
    init = StructInit("p", (("x", ConstInt(1)),))
    assert stuck(s, ExternalWorld(), init) == \
        "struct variable 'p' has no storage"
    assert len(s.theta.blocks) == 1


def test_ref_allocates_at_its_checked_target_type():
    # The block takes the type the checker gave the ref, whatever the value:
    # a literal checked at u8 gets a one-byte u8 block.
    s = empty_state()
    w = ExternalWorld()
    for src, expected, target in (("ref(3)", RefTy(U8), U8),
                                  ("ref(3)", None, INT),
                                  ("ref(-5)", RefTy(I16), I16),
                                  ("ref(5)", RefTy(ULONG), ULONG),
                                  ("ref(1L)", None, LONG),
                                  ("ref(true)", None, BOOL)):
        e = elaborated(src, expected)
        assert e.ty == RefTy(target), src
        out = step(s, w, e)
        assert out.rule == "REFV", src
        assert s.sigma[out.term.block] == target, src
        assert s.theta.load(out.term.block, 0) is e.operands[0], src
    # A ref the checker has not typed has no type to allocate at.
    blocks = dict(s.theta.blocks)
    for v in (ConstInt(3), ConstLong(1 << 40), ConstBool(True)):
        assert stuck(s, w, Prim(RefOp(), (v,))) == \
            "ref without a checked type", v
    assert s.theta.blocks == blocks


def test_operators_on_the_wrong_kind_of_value_are_stuck():
    # Unchecked terms: the operator rules name the operator and the operand
    # classes in a stuck reason instead of failing with a Python error.
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
        assert stuck(s, w, e) == reason, e
    out = step(s, w, Prim(Bop(BopKind.LOR), (VBool(False), VBool(True))))
    assert (out.term, out.rule) == (VBool(True), "BOPV")


# --- the refocusing machine ---------------------------------------------------

# A `some` that its child's steps turn into a value while an argument after
# it still has steps to take.
SOME_BEFORE_A_STEP = """
fun f(option(int*) p, int y) : int {
  match p with | pnone => y | psome q => !q + y
}
fun main() : int { f(some(ref(1)), 2 + 3) }
"""


def _machine_programs(n_generated):
    """The corpus programs the checker accepts, SOME_BEFORE_A_STEP and n
    generated programs, plain and with packets and helpers, each with its
    world."""
    programs = [check_source(SOME_BEFORE_A_STEP)]
    for path in sorted(CORPUS_DIR.glob("*.bpl")):
        try:
            programs.append(check_program(load_corpus(path.name)))
        except TypeCheckError:
            continue  # bprog2 is rejected by design
    for extras in (False, True):
        programs += [check_program(generate_well_typed(GenConfig(
            seed=seed, bytes_match=extras, externals=extras)))
            for seed in range(n_generated)]
    return [(tp, world_for_seed(i)) for i, tp in enumerate(programs)]


def _nodes(e):
    """Every node in pre-order, with its class and its ty."""
    todo, out = [e], []
    while todo:
        e = todo.pop()
        out.append((type(e), getattr(e, "ty", None)))
        todo.extend(reversed(expr_children(e)))
    return out


def _path_lengths(e, target, depth=0):
    """The lengths of the paths from e to the node target, by identity."""
    if e is target:
        yield depth
    for c in expr_children(e):
        yield from _path_lengths(c, target, depth + 1)


def test_each_event_redex_is_a_node_of_the_term_before_the_step():
    # One run per program, the context kept between steps: each event's
    # redex is found, by identity, at its depth in the term before the step,
    # and its path leads from the root of that term to the redex, each new
    # node the old one with only the next node on the path replaced.
    steps = 0
    for tp, world in _machine_programs(50):
        s, e = start(tp, world)
        events = []
        r = eval_multi(s, world, e, on_event=events.append)
        for ev in events:
            assert ev.depth in set(_path_lengths(e, ev.redex))
            assert len(ev.path) == ev.depth + 1
            assert ev.path[0][0] is e and ev.path[0][1] is ev.term
            assert ev.path[-1][0] is ev.redex
            for (old, new), (old_kid, new_kid) in zip(ev.path, ev.path[1:]):
                kids, before = expr_children(new), expr_children(old)
                hole = next(i for i, c in enumerate(before) if c is old_kid)
                assert kids[hole] is new_kid
                assert all(a is b for i, (a, b) in
                           enumerate(zip(kids, before)) if i != hole)
            e = ev.term
        assert e is r.value
        steps += r.steps
    assert steps > 1000


def test_eval_multi_hook_sees_the_terms_of_stepping_from_the_root():
    # The machine keeps its context between steps; stepping from the root
    # rebuilds it each time.  The hook sees the same rules and terms, down
    # to the class and ty of every node.
    steps = 0
    for tp, world in _machine_programs(30):
        seen = []
        w = copy.deepcopy(world)
        s, e = start(tp, w)
        r = eval_multi(s, w, e, on_event=seen.append)
        s, e = start(tp, world)
        for ev in seen:
            out = step(s, world, e)
            assert (out.term, out.rule) == (ev.term, ev.rule)
            assert _nodes(out.term) == _nodes(ev.term)
            e = out.term
        assert step(s, world, e) is None and e == r.value
        steps += r.steps
    assert steps > 1000


def test_eval_multi_descends_and_rebuilds_in_linear_total_work(monkeypatch):
    # A loop under 100 nested `let _ = ... in` binders: descending from the
    # root at each step costs about 100 levels per step; refocusing costs a
    # constant per step and the depth once.
    calls = 0

    def counted(f):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return f(*args)
        return wrapper

    for cls, (shape, start, stop) in list(interp._CONTEXTS.items()):
        monkeypatch.setitem(interp._CONTEXTS, cls, (Shape(
            counted(shape.children), counted(shape.rebuild), shape.binds),
            start, stop))
    depth = 100
    nest = "for (1 ... 50, Up) { x := !x * 3 + 1 }"
    for _ in range(depth):
        nest = f"let _ = {nest} in ()"
    tp = check_source("fun main() : int { let x : int* = ref(2) in "
                      f"let _ = {nest} in !x }}")
    r = run_program(tp)
    assert r.value == VInt(wrap(
        functools.reduce(lambda x, _: 3 * x + 1, range(50), 2), 32))
    assert r.steps > 350
    assert calls <= 3 * r.steps + 3 * depth, (calls, r.steps)


def test_a_loop_step_makes_at_most_six_python_calls():
    # The step loop's dispatch budget: a value is tested inline and a binary
    # operator's meaning is one lookup from its rule, so a step of CI's int
    # loop makes about 5.3 Python-level calls.
    tp = check_source("fun main() : int { let x : int* = ref(2) in let _ = "
                      "for (1 ... 1000, Up) { x := !x * 3 + 1 } in !x }")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        r = run_program(tp)
    finally:
        sys.setprofile(before)
    assert r.steps == 6007
    assert calls <= 6 * r.steps, (calls, r.steps)
