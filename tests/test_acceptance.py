"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.  Budgets are wall-clock upper bounds."""

import random
import time

import pytest

from oracles import bop_oracle, wrap_oracle

from beepl.core import (
    ArrayTy, BopKind, BYTES, Composite, Direction, StructTy, U16, U32, U8,
    VBytes, VInt, VLong, sizeof,
)
from beepl.driver import (
    find_cc, run_cve_corpus, run_differential, run_property_suite,
)
from beepl.gen import GenConfig
from beepl.interp import (
    ExternalWorld, Memory, State, TooShort, extract, range_count,
    run_program, unsafe,
)
from beepl.typecheck import check_source


def report(name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"[PASS] {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


# -- criterion 1: CVE regression corpus ----------------------------------------------

def test_criterion_1_cve_corpus():
    t0 = time.monotonic()

    # The Figure 2 analog alone: truncation makes the divisor zero, and the
    # guarded modulo gives 0.
    analog = check_source(
        "fun main() : int { let r0 : long = 0x100000000 in "
        "let w0 : int = (int)r0 in let w1 : int = 3 in "
        "if r0 != 0 then w1 % w0 else w1 }")
    assert run_program(analog).value == VInt(0)

    summary = run_cve_corpus()
    assert summary.ok(), [(r.program_id, r.violations)
                          for r in summary.failures]
    report("criterion-1 cve-regression-corpus", t0, 5.0)


# -- criterion 2: metatheory over generated programs -----------------------------------

def test_criterion_2_metatheory_1000_programs():
    t0 = time.monotonic()
    cfg = GenConfig(seed=0, max_depth=8, bytes_match=True, externals=True)
    summary = run_property_suite(1000, cfg, fuel=10 ** 6)
    assert summary.total == 1000
    assert summary.passed == 1000, \
        [(r.seed, r.violations, r.reproducer) for r in summary.failures[:3]]
    report("criterion-2 metatheory-1000-programs", t0, 120.0)


# -- criterion 3: bounds-safety exhaustion ----------------------------------------------

BOUNDS_COMPOSITES = {
    "s1": Composite("s1", (("b", U8),)),
    "s2": Composite("s2", (("h", U16),)),
    "s4": Composite("s4", (("w", U32),)),
    "s8": Composite("s8", (("x", U32), ("y", U32))),
    "ethhdr": Composite("ethhdr", (("h_dest", ArrayTy(U8, 6)),
                                   ("h_source", ArrayTy(U8, 6)),
                                   ("h_proto", U16))),
}


def test_criterion_3_bounds_exhaustion():
    t0 = time.monotonic()
    sizes = {"s1": 1, "s2": 2, "s4": 4, "s8": 8, "ethhdr": 14}
    for sid, size in sizes.items():
        assert sizeof(StructTy(sid), BOUNDS_COMPOSITES) == size
        for length in range(0, 2 * size + 1):
            s = State({}, Memory(), dict(BOUNDS_COMPOSITES))
            b = s.theta.alloc(BYTES, raw=bytes(length))
            v = VBytes(b, 0, length)
            try:
                extract(v, StructTy(sid), s.theta, s.composites)
                assert length >= size, (sid, length)
            except TooShort:
                assert length < size, (sid, length)
    # The fallback arm is taken exactly in the failure cases.
    src = '''
struct s2 { h : u16 }
#section "xdp"
fun prog(option(struct xdp_md*) ctx) : int {
    match ctx.data with | x, struct s2 : (h, u16) => 1 | _ => 0
}
'''
    tp = check_source(src)
    for length in range(0, 5):
        got = run_program(tp, ExternalWorld(packet=bytes(length))).value
        assert got == (VInt(1) if length >= 2 else VInt(0)), length
    report("criterion-3 bounds-exhaustion", t0, 1.0)


# -- criterion 4: unsafe predicate and wrapping oracle -------------------------------------

def test_criterion_4_unsafe_table_and_grid():
    t0 = time.monotonic()
    # the four unsafe classes
    assert unsafe(BopKind.DIV, VInt(1), VInt(0))  # zero divisor
    assert unsafe(BopKind.MOD, VLong(3), VLong(0))
    assert unsafe(BopKind.DIV, VInt(-(1 << 31)), VInt(-1))  # min / -1
    assert unsafe(BopKind.MOD, VLong(-(1 << 63)), VLong(-1))
    assert unsafe(BopKind.SHL, VInt(1), VInt(32))  # shift >= width
    assert unsafe(BopKind.SHR, VLong(1), VLong(64))
    assert unsafe(BopKind.SHL, VInt(1), VInt(-1))  # negative shift
    assert unsafe(BopKind.SHR, VLong(1), VLong(-5))

    from beepl.interp import bop_sem
    rng = random.Random(4242)
    ops = [BopKind.ADD, BopKind.SUB, BopKind.MUL, BopKind.DIV, BopKind.MOD,
           BopKind.AND, BopKind.OR, BopKind.XOR, BopKind.SHL, BopKind.SHR]
    checked = 0
    while checked < 64:
        op = rng.choice(ops)
        bits = rng.choice([32, 64])
        mk = VInt if bits == 32 else VLong
        a = wrap_oracle(rng.getrandbits(bits), bits)
        b = rng.randrange(0, bits) if op in (BopKind.SHL, BopKind.SHR) \
            else wrap_oracle(rng.getrandbits(bits), bits)
        if unsafe(op, mk(a), mk(b)):
            continue
        assert not unsafe(op, mk(a), mk(b))
        assert bop_sem(op, mk(a), mk(b)) == mk(bop_oracle(op, a, b, bits)), \
            (op, a, b, bits)
        checked += 1
    report("criterion-4 unsafe-predicate-table", t0, 1.0)


# -- criterion 5: differential compiler correctness -----------------------------------------

def test_criterion_5_differential_100_programs():
    t0 = time.monotonic()
    if find_cc() is None:
        print("[SKIP] criterion-5 differential (no C compiler configured)")
        pytest.skip("no C compiler configured")
    summary = run_differential(100, GenConfig(seed=500))
    assert summary.total == 100
    assert summary.passed == 100, \
        [(r.seed, r.violations) for r in summary.failures[:3]]
    report("criterion-5 differential-100-programs", t0, 180.0)


# -- criterion 6: loop semantics --------------------------------------------------------------

def test_criterion_6_loop_semantics():
    t0 = time.monotonic()
    loop = check_source(
        "fun main() : int { let x : int* = ref(2) in "
        "let _ = for (1 ... 5, Up) { x := !x + 1 } in !x }")
    assert run_program(loop).value == VInt(7)
    for lo in range(-3, 4):
        for hi in range(-3, 4):
            expect_up = max(0, hi - lo + 1)
            expect_down = max(0, lo - hi + 1)
            assert range_count(VInt(lo), VInt(hi), Direction.UP) == \
                len(range(lo, hi + 1)) == expect_up
            assert range_count(VInt(lo), VInt(hi), Direction.DOWN) == \
                len(range(hi, lo + 1)) == expect_down
    report("criterion-6 loop-semantics", t0, 1.0)
