import copy
import re

import pytest

from beepl import driver, interp, typecheck
from beepl.cgen import emit_program
from beepl.core import App, Bop, ConstInt, ConstLong, INT, LONG, Let, Prim
from beepl.driver import (
    evaluate_with_audit, find_cc, load_corpus, run_cve_corpus,
    run_differential, run_property_suite, world_for_seed,
)
from beepl.frontend import parse_program, print_program
from beepl.gen import (
    GenConfig, expr_size, generate_well_typed, shrink_program,
)
from beepl.interp import ExternalWorld, eval_multi, run_program
from beepl.typecheck import (
    JudgmentMemo, TypeCheckError, check_program, check_source, infer_expr,
)


# --- generator ------------------------------------------------------------------

def test_generator_deterministic_text():
    cfg = GenConfig(seed=123, bytes_match=True, externals=True)
    assert print_program(generate_well_typed(cfg)) == \
        print_program(generate_well_typed(cfg))


def test_generated_programs_always_check():
    # generate_well_typed does not check what it makes; the checker accepts
    # it all the same, plain and with packets and helpers.
    for extras in (False, True):
        for seed in range(200):
            check_program(generate_well_typed(GenConfig(
                seed=seed, bytes_match=extras, externals=extras)))


def test_depth_one_program_is_a_literal_body():
    p = generate_well_typed(GenConfig(seed=0, max_depth=1, max_decls=1))
    check_program(p)
    fd = [d for d in p.decls if hasattr(d, "body")][-1]
    assert expr_size(fd.body) <= 3


# --- property suite ---------------------------------------------------------------

def test_property_suite_empty():
    s = run_property_suite(0, GenConfig())
    assert s.total == 0 and s.passed == 0 and s.ok()


def test_property_suite_small_run_clean():
    s = run_property_suite(40, GenConfig(seed=9, bytes_match=True,
                                         externals=True))
    assert s.ok(), [r.violations for r in s.failures]


def test_property_suite_reproducible():
    cfg = GenConfig(seed=31, bytes_match=True, externals=True)
    a = run_property_suite(15, cfg)
    b = run_property_suite(15, cfg)
    assert [(r.outcome, r.steps) for r in a.reports] == \
        [(r.outcome, r.steps) for r in b.reports]


def _stuck_on_unsafe_operands(monkeypatch):
    """Break the operator rule: an unsafe operand pair is stuck, not zero."""
    def broken(s, w, e, values):
        if isinstance(e.op, Bop) and interp.unsafe(e.op.kind, *values):
            raise interp.StuckState("binary operator produced undef")
        return prim_rule(s, w, e, values)

    prim_rule = interp._REDEX_RULES[Prim]
    monkeypatch.setitem(interp._REDEX_RULES, Prim, broken)


def test_suite_over_broken_interpreter_reports_undef(monkeypatch):
    # Without the BOPV zero, divisions by zero get stuck as undef.
    _stuck_on_unsafe_operands(monkeypatch)
    program = parse_program(
        "fun main() : int { let a : int = 5 in a % (a - a) }")
    s = run_property_suite(1, GenConfig(), programs=[program])
    assert not s.ok()
    assert any("undef" in v for r in s.failures for v in r.violations)


def test_guarded_interpreter_passes_same_program():
    program = parse_program(
        "fun main() : int { let a : int = 5 in a % (a - a) }")
    s = run_property_suite(1, GenConfig(), programs=[program])
    assert s.ok()


def test_shrinking_preserves_violation(monkeypatch):
    _stuck_on_unsafe_operands(monkeypatch)
    program = parse_program(
        "fun main() : int { let a : int = 5 in "
        "if a < 9 then (a + 1) % (a - a) else 2 }")

    def still_fails(q):
        return driver._still_fails(q, 0, interp.DEFAULT_FUEL)

    assert still_fails(program)
    shrunk = shrink_program(program, still_fails)
    audit = evaluate_with_audit(check_program(shrunk), world_for_seed(0))
    assert any("undef" in v for v in audit.violations)
    old = [d for d in program.decls if hasattr(d, "body")][0].body
    new = [d for d in shrunk.decls if hasattr(d, "body")][0].body
    assert expr_size(new) < expr_size(old)


def test_suite_shrinks_a_generated_program_that_fails(monkeypatch):
    # Seed 11's generated program shifts by a negative amount: with the
    # BOPV zero broken, the suite reports it with a shrunk reproducer.
    _stuck_on_unsafe_operands(monkeypatch)
    cfg = GenConfig(seed=11, bytes_match=True, externals=True)
    s = run_property_suite(1, cfg)
    failure, = s.failures
    assert failure.seed == 11 and failure.outcome == "violation"
    assert failure.violations == [
        "stuck after 4 steps: binary operator produced undef"]
    shrunk = parse_program(failure.reproducer)
    assert driver._still_fails(shrunk, 11, interp.DEFAULT_FUEL)
    original = generate_well_typed(cfg)
    assert expr_size(shrunk.decls[-1].body) < \
        expr_size(original.decls[-1].body)


def test_audit_agrees_with_plain_evaluation():
    for seed in range(50):
        tp = check_program(generate_well_typed(
            GenConfig(seed=seed, bytes_match=True, externals=True)))
        audit = evaluate_with_audit(tp, world_for_seed(seed))
        plain = run_program(tp, world_for_seed(seed))
        assert audit.violations == [], seed
        assert (audit.value, audit.steps) == (plain.value, plain.steps), seed


def test_audit_stops_at_the_fuel_limit():
    tp = check_source(
        "fun main() : int { let x : int* = ref(0) in "
        "let _ = for (1 ... 50, Up) { x := !x + 1 } in !x }")
    assert run_program(tp).steps > 40
    audit = evaluate_with_audit(tp, world_for_seed(0), fuel=40)
    assert audit.violations == ["fuel exhausted at 40 steps"]
    assert audit.steps == 40 and audit.value is None


def test_audit_of_a_thousand_iteration_loop_is_clean():
    # The second loop allocates a block and calls g each iteration, so the
    # store typing grows at every one, and each call's frame returns.
    for src in ("fun main() : int { let x : int* = ref(2) in "
                "let _ = for (1 ... 1000, Up) { x := !x * 3 + 1 } in !x }",
                "fun g(int a) : int { a + 1 } "
                "fun main() : int { let x : int* = ref(0) in "
                "let _ = for (1 ... 200, Up) { let r : int* = ref(1) in "
                "x := g(!x) + !r } in !x }"):
        tp = check_source(src)
        audit = evaluate_with_audit(tp, world_for_seed(0))
        plain = run_program(tp)
        assert audit.violations == [], src
        assert (audit.value, audit.steps) == (plain.value, plain.steps), src
    assert len(plain.state.sigma) > 400 and plain.state.stack == []


CALL_LOOP = ("fun g(int a) : int { a + 1 } "
             "fun main() : int { let x : int* = ref(0) in "
             "let _ = for (1 ... %d, Up) { let r : int* = ref(1) in "
             "x := g(!x) + !r } in !x }")


def _audit_cost_per_step(n, monkeypatch):
    """Typing-rule runs, and the globals, blocks and cells the state check
    visits, per audited step of the call loop at n iterations."""
    runs = visits = 0

    def counted(rule):
        def run(ctx, e, expected):
            nonlocal runs
            runs += ctx.memo is not None
            return rule(ctx, e, expected)
        return run

    def counted_check(s, blocks=None):
        nonlocal visits
        visits += len(s.theta.written) + (
            len(s.delta) + len(s.theta.blocks) if blocks is None else
            len(blocks))
        return well_formed(s, blocks)

    well_formed = driver.well_formed
    with monkeypatch.context() as m:
        for cls, rule in typecheck._TYPING_RULES.items():
            m.setitem(typecheck._TYPING_RULES, cls, counted(rule))
        m.setattr(driver, "well_formed", counted_check)
        audit = evaluate_with_audit(check_source(CALL_LOOP % n),
                                    world_for_seed(0))
    assert audit.violations == [] and audit.value == ConstInt(2 * n)
    return runs / audit.steps, visits / audit.steps


def test_audit_cost_per_step_does_not_grow_with_the_run(monkeypatch):
    # Each iteration adds two blocks that stay, so a check of every block
    # at every step would grow with the run.
    short = _audit_cost_per_step(250, monkeypatch)
    long = _audit_cost_per_step(1000, monkeypatch)
    for a, b in zip(short, long):
        assert abs(b - a) <= 0.05 * a, (short, long)


def test_audit_memo_stays_as_small_as_the_live_term(monkeypatch):
    sizes = []

    class RecordingMemo(JudgmentMemo):
        def prune(self, term):
            sizes.append(len(self.judgments))
            super().prune(term)

    monkeypatch.setattr(driver, "JudgmentMemo", RecordingMemo)
    tp = check_source(
        "fun main() : int { let x : int* = ref(2) in "
        "let _ = for (1 ... 1000, Up) { x := !x * 3 + 1 } in !x }")
    audit = evaluate_with_audit(tp, world_for_seed(0))
    assert audit.violations == [] and len(sizes) == audit.steps
    # Without pruning the memo would grow by about 4 judgments a step.
    pruned = sum(b < a for a, b in zip(sizes, sizes[1:]))
    assert pruned >= 3 and max(sizes) <= 2 * JudgmentMemo.PRUNE_FLOOR


def test_audit_reports_monitor_events(monkeypatch):
    # A fault is its stuck reason, reported once.
    _stuck_on_unsafe_operands(monkeypatch)
    tp = check_source("fun main() : int { let a : int = 3 in 1 + a % 0 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [
        "stuck after 2 steps: binary operator produced undef"]
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full


# --- the incremental audit against full re-inference -------------------------------

def _judge(ctx, e, expected=None):
    try:
        return infer_expr(ctx, e, expected)
    except TypeCheckError as exc:
        return str(exc)


def _audit_both_ways(tp, world, monkeypatch):
    """The incremental audit with an oracle hook beside it that re-infers
    each step's whole term with no memo, at the entry's result type, then
    the same audit with its memo taken away.  Returns both results and both
    per-step judgments."""
    incremental, full = [], []

    def recording_infer(ctx, e, expected=None):
        assert ctx.memo is not None
        incremental.append(_judge(ctx, e, expected))
        return infer_expr(ctx, e, expected)

    def eval_with_oracle(s, w, e, fuel, on_event):
        def both(ev):
            ctx = driver._audit_ctx(tp, ev.state)
            assert ctx.memo is None
            full.append(_judge(ctx, ev.term, tp.program.entry_point().rt))
            on_event(ev)
        return eval_multi(s, w, e, fuel, both)

    with monkeypatch.context() as m:
        m.setattr(driver, "infer_expr", recording_infer)
        m.setattr(driver, "eval_multi", eval_with_oracle)
        result = evaluate_with_audit(tp, copy.deepcopy(world))
    with monkeypatch.context() as m:
        audit_ctx = driver._audit_ctx
        m.setattr(driver, "_audit_ctx",
                  lambda tp, s, memo=None: audit_ctx(tp, s))
        no_memo = evaluate_with_audit(tp, copy.deepcopy(world))
    return result, no_memo, incremental[1:], full


def _audit_programs():
    programs = [(load_corpus(name), ExternalWorld(
        packet=bytes(12) + bytes([0x86, 0xDD]) + bytes(4)))
        for name in ("bprog1.bpl", "bprog3.bpl", "bprog4.bpl",
                     "shift64.bpl")]
    programs += [(generate_well_typed(GenConfig(
        seed=seed, bytes_match=True, externals=True)), world_for_seed(seed))
        for seed in range(30)]
    return [(check_program(p), w) for p, w in programs]


def _outcome(a):
    return a.violations, a.steps, a.value


@pytest.mark.parametrize("prune_floor", [JudgmentMemo.PRUNE_FLOOR, 16])
def test_incremental_audit_judges_every_step_as_full_reinference(
        monkeypatch, prune_floor):
    # With a floor of 16 the memo is pruned to the live term every few steps.
    monkeypatch.setattr(JudgmentMemo, "PRUNE_FLOOR", prune_floor)
    steps = 0
    for tp, world in _audit_programs():
        result, no_memo, incremental, full = \
            _audit_both_ways(tp, world, monkeypatch)
        assert incremental == full
        assert len(full) == result.steps
        assert _outcome(result) == _outcome(no_memo)
        assert result.violations == []
        steps += result.steps
    assert steps > 500


def test_incremental_audit_agrees_where_a_literal_is_coerced(monkeypatch):
    # Once `!r` steps to 200, the comparison's other side is still the u8
    # parameter y, so _coerce_pair types the literal at u8: a judgment that
    # differs from the one `!r` had only in that the node is a literal.
    tp = check_source("fun g(u8 y) : int { let r : u8* = ref(200) in "
                      "if (!r) == y then 1 else 0 } "
                      "fun main() : int { g(7) }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [] and result.value == ConstInt(0)
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full and len(full) == result.steps


def _retyping_int_results(rule):
    """rule, broken so that every int it produces comes out as a long."""
    def broken(s, w, e, values):
        out, name = rule(s, w, e, values)
        if type(out) is ConstInt:
            out = ConstLong(out.value)
        return out, name
    return broken


def test_audit_catches_an_operator_rule_of_the_wrong_type(monkeypatch):
    monkeypatch.setitem(interp._REDEX_RULES, Prim,
                        _retyping_int_results(interp._REDEX_RULES[Prim]))
    tp = check_source("fun main() : int { let x : int = 5 in "
                      "if x > 2 then x * 7 else 0 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [
        "step 5 untypeable (BOPV): ReturnTypeMismatch: body of 'main' has "
        "type long, declared int"]
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full
    caught = 0
    for tp, world in _audit_programs():
        result, no_memo, incremental, full = \
            _audit_both_ways(tp, world, monkeypatch)
        assert _outcome(result) == _outcome(no_memo)
        assert incremental == full
        caught += bool(result.violations)
    assert caught > 10


def test_audit_catches_a_long_stored_as_an_int(monkeypatch):
    # The operator rule returns each long as an int.  The int is assigned
    # where a long literal may stand and is never read again, so no step
    # changes type and nothing gets stuck: only the stored cell shows it.
    def int_for_long(s, w, e, values):
        out, name = prim_rule(s, w, e, values)
        if name == "BOPV" and type(out) is ConstLong:
            out = ConstInt(out.value)
        return out, name

    prim_rule = interp._REDEX_RULES[Prim]
    monkeypatch.setitem(interp._REDEX_RULES, Prim, int_for_long)
    tp = check_source("fun main() : int { let x : long* = ref(5L) in "
                      "let _ = x := !x + 1L in 0 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [
        "step 6 ill-formed state: block 1 of type long holds a ConstInt"]
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full


def test_audit_empties_its_memo_when_a_rule_retypes_a_block(monkeypatch):
    # After `let _`, the remaining term is the let's body, the very node the
    # last step judged.  The broken rule retypes the int cell that `!p`
    # reads, so a memo kept across the step would still call that node an
    # int.
    def retyping_let(s, w, e, values):
        if e.name == "_":
            for bid, ty in s.sigma.items():
                if ty == INT:
                    s.sigma[bid] = LONG
        return let_rule(s, w, e, values)

    let_rule = interp._REDEX_RULES[Let]
    monkeypatch.setitem(interp._REDEX_RULES, Let, retyping_let)
    tp = check_source("fun main() : int { let p : int* = ref(1) in "
                      "let _ = p := 2 in !p + 1 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations[0] == (
        "step 5 untypeable (LETV): ReturnTypeMismatch: body of 'main' has "
        "type long, declared int")
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full
    # With the rewrite check broken, the memo hides the retyped block.
    monkeypatch.setattr(driver, "_rewritten", lambda s: False)
    stale = evaluate_with_audit(tp, world_for_seed(0))
    assert not any("type long" in v for v in stale.violations)


def test_audit_catches_a_let_rule_that_forgets_to_substitute(monkeypatch):
    # The let's body comes back as it is, the very node the last step
    # judged under the binder; at the top it has a free variable.
    monkeypatch.setitem(interp._REDEX_RULES, Let,
                        lambda s, w, e, values: (e.body, "LETV"))
    tp = check_source("fun main() : int { let x : int = 5 in x + 1 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [
        "step 2 untypeable (LETV): UnknownVariable: unbound variable 'x'"]
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full


def test_every_call_shares_its_function_body():
    # A call renames nothing: each frame of g holds g's elaborated body
    # itself, and each returns before the next call.
    tp = check_source(CALL_LOOP % 50)
    body = tp.program.fun_decls()["g"].body
    frames = []

    def on_event(ev):
        if ev.rule == "APP3" and ev.path[-1][1].name == "g":
            frames.append(ev.path[-1][1])
    r = run_program(tp, on_event=on_event)
    assert r.value == ConstInt(100) and r.state.stack == []
    assert len(frames) == 50 and all(f.body is body for f in frames)


def test_audit_catches_a_call_that_binds_a_parameter_at_the_wrong_type(
        monkeypatch):
    # The call rule gives g's int parameter a long block: the frame's own
    # typing rule reports it at the call, before the body reads it.
    def long_parameter(s, w, e, values):
        out, rule = app_rule(s, w, e, values)
        if out.name == "g":
            out.env["a"] = s.theta.alloc(LONG)
            s.theta.store(out.env["a"], 0, ConstLong(values[0].value))
        return out, rule

    app_rule = interp._REDEX_RULES[App]
    monkeypatch.setitem(interp._REDEX_RULES, App, long_parameter)
    tp = check_source("fun g(int a) : int { a + 1 } "
                      "fun main() : int { let x : int = 2 in g(x) * 3 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [
        "step 3 untypeable (APP3): FrameMismatch: a call of 'g' does not "
        "bind each of its variables to a block of its declared type"]
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full


def test_audit_catches_a_rule_value_outside_its_lane(monkeypatch):
    # A node class no longer checks its value's range; the checker's
    # literal rule does, and the audit runs it on the value the step made.
    def unwrapped_bop(s, w, e, values):
        out, rule = prim_rule(s, w, e, values)
        if rule == "BOPV" and type(out) is ConstInt:
            out = ConstInt(out.value + 2 ** 32)
        return out, rule

    prim_rule = interp._REDEX_RULES[Prim]
    monkeypatch.setitem(interp._REDEX_RULES, Prim, unwrapped_bop)
    tp = check_source("fun main() : int { let x : int* = ref(2) in "
                      "let _ = x := !x * 3 + 1 in !x + 0 }")
    result, no_memo, incremental, full = \
        _audit_both_ways(tp, world_for_seed(0), monkeypatch)
    assert result.violations == [
        "step 5 untypeable (BOPV): LiteralOutOfRange: int literal out of "
        f"range: {6 + 2 ** 32}"]
    assert _outcome(result) == _outcome(no_memo)
    assert incremental == full


# --- corpus -----------------------------------------------------------------------

def test_cve_corpus_all_pass():
    s = run_cve_corpus()
    assert s.ok(), [(r.program_id, r.violations) for r in s.failures]
    assert s.total == 5


SEVEN = "fun main() : int { 7 }\n"

# Corpus files, each departing from its expect lines in one way, and the
# violation each is reported with.
BAD_CORPUS = {
    "wrong-value.bpl": ("// expect: value 8\n" + SEVEN,
                        "entry returned 7, expected value 8"),
    "no-verdict.bpl": ("// expect: c return 7;\n" + SEVEN,
                       "0 'reject' or 'value' lines, expected one"),
    "unknown-key.bpl": ("// expect: value 7\n// expect: vaule 7\n" + SEVEN,
                        "unknown expect key 'vaule'"),
    "c-mismatch.bpl": ("// expect: value 7\n// expect: c return 8;\n" + SEVEN,
                       "eBPF C does not match 'return 8;'"),
    "accepted.bpl": ("// expect: reject DerefOfOption\n" + SEVEN,
                     "accepted, expected reject DerefOfOption"),
    "wrong-code.bpl": ("// expect: reject DerefOfOption\n"
                       "fun main() : int { true }\n",
                       "rejected with ReturnTypeMismatch, expected reject "
                       "DerefOfOption"),
}


def test_corpus_files_fail_their_own_expect_lines(tmp_path, monkeypatch):
    (tmp_path / "good.bpl").write_text(
        "// A comment above the header.\n// expect: value 7\n"
        "// expect: c return 7;\n" + SEVEN)
    for name, (text, _) in BAD_CORPUS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(driver, "CORPUS_DIR", tmp_path)
    s = run_cve_corpus()
    assert (s.total, s.passed) == (len(BAD_CORPUS) + 1, 1)
    assert {r.program_id: r.violations for r in s.failures} == \
        {name: [why] for name, (_, why) in BAD_CORPUS.items()}


def test_bprog4_pattern_fails_on_a_field_read_before_the_bounds_check():
    text = driver.corpus_path("bprog4.bpl").read_text()
    [pattern] = [arg for key, arg in driver.EXPECT_LINE.findall(text)
                 if key == "c"]
    c = driver._normalize_c(emit_program(
        check_program(parse_program(text)), "ebpf").text)
    assert re.search(pattern, c)
    check = re.search(r"\w+\.start \+ sizeof\(struct ethhdr\)", c).start()
    spliced = c[:check] + "(void) eth->h_proto; " + c[check:]
    assert not re.search(pattern, spliced)


# --- differential -------------------------------------------------------------------

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")


@needs_cc
def test_differential_small_run():
    s = run_differential(8, GenConfig(seed=300))
    assert s.ok(), [r.violations for r in s.failures]


@needs_cc
def test_differential_reports_a_program_without_an_entry_point():
    program = parse_program("fun f() : int { 1 } fun g() : int { 2 }")
    (report,) = run_differential(1, programs=[program]).reports
    assert (report.outcome, report.violations) == \
        ("violation", ["no entry point"])


@needs_cc
def test_differential_guarded_mod_program():
    program = parse_program("fun main() : int { 7 % 0 }")
    s = run_differential(1, programs=[program])
    assert s.ok(), [r.violations for r in s.failures]


@needs_cc
@pytest.mark.parametrize("gold", [True, False])
def test_differential_builds_each_program_once(monkeypatch, gold):
    """One cc run and one binary run per program.  cc links with gold
    exactly when ld.gold is on the PATH; hidden, the command is the plain
    ``cc -std=c11 -O1 -o EXE FILE.c``."""
    which, run = driver.shutil.which, driver.subprocess.run
    if gold and which("ld.gold") is None:
        pytest.skip("no ld.gold on the PATH")
    monkeypatch.setattr(driver.shutil, "which", lambda name, *a, **k: (
        which(name, *a, **k) if gold or name != "ld.gold" else None))
    calls = []
    monkeypatch.setattr(driver.subprocess, "run",
                        lambda args, **kw: calls.append(args) or
                        run(args, **kw))
    s = run_differential(3, GenConfig(seed=40))
    assert s.ok(), [r.violations for r in s.failures]
    assert len(calls) == 6
    for i, (build, binary) in enumerate(zip(calls[::2], calls[1::2])):
        assert build[0] == find_cc()
        assert build[1:] == ["-std=c11", "-O1",
                             *["-fuse-ld=gold"] * gold,
                             "-o", binary[0], build[-1]]
        assert build[-1] == binary[0] + ".c" and binary[0].endswith(f"d{i}")


EVAL_ORDER_CASES = [
    # the left operand is read before the right operand writes
    "fun main() : int { let x : int* = ref(5) in "
    "!x + (let _ = x := !x + 10 in 2) }",
    # arguments evaluate left to right with writes in between
    "fun g(int a, int b) : int { a * 100 + b }\n"
    "fun main() : int { let x : int* = ref(1) in "
    "g(!x, (let _ = x := 7 in !x)) }",
    # a match arm mutates state its continuation reads
    "fun main() : int { let x : int* = ref(3) in "
    "(match some(ref(4)) with | pnone => 0 "
    "| psome p => (let _ = x := !x + !p in !p)) + !x }",
    # loop writes interleave with later reads
    "fun main() : int { let a : int* = ref(0) in let b : int* = ref(100) in "
    "let _ = for (1 ... 3, Up) { a := !a + !b } in !a + !b }",
    # conditional branches with effects, used in value position
    "fun main() : int { let x : int* = ref(2) in "
    "(if !x > 1 then (let _ = x := 50 in !x) else 0) + !x }",
    # '&&' evaluates both operands; the write must land on both sides
    "fun main() : int { let x : int* = ref(0) in "
    "let b : bool = false && (let _ = x := 9 in true) in "
    "(if b then 1 else 0) + !x }",
    # the divisor guard sees the mutated value
    "fun main() : int { let d : int* = ref(3) in "
    "let _ = d := !d - 3 in 42 / !d }",
]


@needs_cc
def test_differential_evaluation_order_cases():
    programs = [parse_program(src) for src in EVAL_ORDER_CASES]
    s = run_differential(len(programs), programs=programs)
    assert s.ok(), [(r.program_id, r.violations, r.reproducer)
                    for r in s.failures]


# A parameter or global of type option(struct S*) receives a kernel object:
# never null and zero-filled, in the interpreter and in host C alike.
KERNEL_OBJECT_CASES = [
    "global counter_table : option(struct bpf_map*) = none;\n"
    "fun main() : int { match counter_table with "
    "| pnone => 1 | psome m => 2 }",
    "struct hdr2 { tag : int, len : long }\n"
    "global h : option(struct hdr2*) = none;\n"
    "fun main() : int { match h with | pnone => 1 | psome m => 2 }",
    "fun main(option(struct bpf_map*) m) : int { match m with "
    "| pnone => 1 | psome x => 2 }",
    "struct hdr2 { tag : int, len : long }\n"
    "fun main(option(struct hdr2*) c) : int { match c with "
    "| pnone => 1 | psome x => 2 }",
    "struct hdr2 { tag : int, len : long }\n"
    "fun main(option(struct hdr2*) c) : int { (int)c.tag }",
]


@needs_cc
def test_differential_kernel_objects_are_non_null_and_zeroed():
    programs = [parse_program(src) for src in KERNEL_OBJECT_CASES]
    assert [run_program(check_program(p)).value.value
            for p in programs] == [2, 2, 2, 2, 0]
    s = run_differential(len(programs), programs=programs)
    assert s.ok(), [(r.program_id, r.violations) for r in s.failures]


# An entry parameter of type T* receives a fresh zero-filled T: in host C
# the address of a zeroed compound literal.
REF_PARAM_CASES = [
    "fun main(int* p) : int { !p }",
    "fun main(int* p, long* q) : int { let _ = p := !p + 3 in "
    "!p + (int)!q }",
    "struct s { a : int, b : long }\n"
    "fun main(struct s* v, bool* b) : int { "
    "(int)v.b + v.a + (if !b then 1 else 0) }",
]


@needs_cc
def test_differential_reference_parameters_point_at_zero():
    programs = [parse_program(src) for src in REF_PARAM_CASES]
    assert [run_program(check_program(p)).value.value
            for p in programs] == [0, 3, 0]
    s = run_differential(len(programs), programs=programs)
    assert s.ok(), [(r.program_id, r.violations) for r in s.failures]


def test_differential_empty_is_skipped():
    s = run_differential(0)
    assert s.skipped


def test_differential_without_compiler_is_skipped(monkeypatch):
    monkeypatch.setenv("PATH", "/nonexistent")
    monkeypatch.delenv("BEEPLC_CC", raising=False)
    s = run_differential(3)
    assert s.skipped and s.ok()
