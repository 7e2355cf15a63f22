"""Metatheory harness, CVE regression corpus and the differential runner.

The property suites execute the language's safety theorems as per-step
audits over generated well-typed programs: progress (never stuck, so no null
dereference, uninitialized read or undefined operator), preservation (same
type, shrinking effects, well-formed states) and termination (bounded fuel,
no divergence effect).  A fault is reported once, by its stuck reason.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional

from .cgen import emit_program
from .core import ConstInt, ConstLong, EffectAtom, Expr, Program
from .frontend import parse_program, print_program
from .gen import GenConfig, generate_well_typed, shrink_program
from .interp import (
    DEFAULT_FUEL, ExternalWorld, FuelExhausted, NoEntryPoint, State,
    StepEvent, StuckState, eval_multi, run_program, runtime_gamma, start,
    well_formed,
)
from .typecheck import (
    JudgmentMemo, TypeCheckError, TypedProgram, TypingContext, check_program,
    fun_context, infer_expr,
)

CORPUS_DIR = Path(__file__).parent / "corpus"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    program_id: str
    seed: int
    outcome: str  # "value" | "diagnostic" | "violation"
    steps: int = 0
    violations: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    reproducer: Optional[str] = None  # shrunk program text for violations


@dataclass
class SuiteSummary:
    name: str
    total: int
    passed: int
    skipped: bool = False
    reports: list[RunReport] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failures(self) -> list[RunReport]:
        return [r for r in self.reports if r.outcome != "value"]

    def ok(self) -> bool:
        return self.skipped or self.passed == self.total

    def render(self) -> str:
        if self.skipped:
            return f"[skip] {self.name}"
        status = "pass" if self.ok() else "FAIL"
        return (f"[{status}] {self.name}: {self.passed}/{self.total} "
                f"({self.elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Per-step audited evaluation
# ---------------------------------------------------------------------------

@dataclass
class AuditResult:
    violations: list[str]
    steps: int
    value: Optional[Expr] = None


def _audit_ctx(tp: TypedProgram, s: State,
               memo: Optional[JudgmentMemo] = None) -> TypingContext:
    """The typing context of a state's term: the globals, sigma, and each
    function's context for its frames, built once."""
    ctx = TypingContext(runtime_gamma(s), s.sigma, tp.composites, tp.psi,
                        {}, memo=memo)
    for fd in tp.program.fun_decls().values():
        ctx.funs[fd.name] = fd, fun_context(ctx, fd)
    return ctx


def _rewritten(s: State) -> bool:
    """Whether a write since the last call replaced or removed an entry of
    delta or sigma, which no rule does; forgets those writes."""
    if not (s.delta.rewritten or s.sigma.rewritten):
        return False
    s.delta.rewritten.clear()
    s.sigma.rewritten.clear()
    return True


class _Violation(Exception):
    """Stops an audited evaluation at its first violation."""


def evaluate_with_audit(tp: TypedProgram, world: ExternalWorld,
                        fuel: int = DEFAULT_FUEL) -> AuditResult:
    """Evaluate the entry point, re-checking the term and the state after
    every step through ``eval_multi``'s event hook.

    The re-check is incremental and exact.  Evaluation never goes under a
    binder, a frame's body is judged in its function's fixed context, and
    block ids are never reused, so a judgment made at an earlier step still
    holds for the same node as long as sigma extends the one it was made in
    (weakening).  The run's memo keeps those judgments, and the frames a
    step rebuilt, its event's path, are judged from the hole up only until
    one keeps the judgment of the node it replaced
    (``JudgmentMemo.rejudge``).  The state check takes in only the blocks a
    step added; a step that rewrote an entry of delta or sigma empties the
    memo and is checked in full.
    """
    violations: list[str] = []
    for name, eff in tp.effects.items():
        if EffectAtom.DIVERGENCE in eff:
            violations.append(f"divergence effect inferred for {name}")
    try:
        s, expr = start(tp, world)
    except NoEntryPoint:
        return AuditResult(["no entry point"], 0)
    memo = JudgmentMemo()
    ctx = _audit_ctx(tp, s, memo)
    try:
        ty0, eff = infer_expr(ctx, expr)
    except TypeCheckError as exc:
        return AuditResult([f"initial call untypeable: {exc}"], 0)
    steps = 0
    value = None
    seen = s.theta.next_block  # the blocks checked

    def recheck(ev: StepEvent) -> None:
        nonlocal steps, eff, ctx, seen
        steps += 1
        expr, rule = ev.term, ev.rule  # the new term, and the rule that fired
        if _rewritten(s):  # the context need not extend the last one
            ctx = _audit_ctx(tp, s, memo)
            blocks = None
            memo.judgments.clear()
        else:
            blocks = range(seen, s.theta.next_block)
            memo.rejudge(ctx, ev.path)
        seen = s.theta.next_block
        try:
            ty_i, eff_i = infer_expr(ctx, expr, ty0)
        except TypeCheckError as exc:
            raise _Violation(f"step {steps} untypeable ({rule}): {exc}")
        if ty_i != ty0:
            raise _Violation(f"step {steps} changed type "
                             f"{ty0} -> {ty_i} ({rule})")
        if not eff_i <= eff:
            raise _Violation(f"step {steps} grew effects "
                             f"{eff} -> {eff_i} ({rule})")
        eff = eff_i
        ok, clauses = well_formed(s, blocks)
        if not ok:
            raise _Violation(f"step {steps} ill-formed state: {clauses[0]}")
        s.theta.written.clear()  # their cells are checked
        memo.prune(expr)

    try:
        value = eval_multi(s, world, expr, fuel, recheck).value
    except StuckState as exc:
        violations.append(f"stuck after {steps} steps: {exc.reason}")
    except FuelExhausted:
        violations.append(f"fuel exhausted at {fuel} steps")
    except _Violation as exc:
        violations.append(str(exc))
    # The function contexts and their map refer to each other: emptying the
    # map frees the run's memo now rather than at a full collection.
    ctx.funs.clear()
    return AuditResult(violations, steps, value)


def world_for_seed(seed: int) -> ExternalWorld:
    rng = random.Random(seed * 2_654_435_761 + 97)
    packet = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 24)))
    maps = {"counter_table": {k: rng.randint(-100, 100)
                              for k in range(rng.randrange(0, 4))}}
    return ExternalWorld(maps=maps, packet=packet)


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def run_property_suite(n_programs: int, cfg: GenConfig,
                       fuel: int = DEFAULT_FUEL,
                       programs: Optional[Iterable[Program]] = None
                       ) -> SuiteSummary:
    t0 = time.monotonic()
    summary = SuiteSummary("metatheory", n_programs, 0)
    supplied = list(programs) if programs is not None else None
    for i in range(n_programs):
        seed = cfg.seed + i
        t1 = time.monotonic()
        if supplied is not None:
            program = supplied[i % len(supplied)]
        else:
            program = generate_well_typed(replace(cfg, seed=seed))
        try:
            tp = check_program(program)
        except TypeCheckError as exc:
            summary.reports.append(RunReport(
                f"p{i}", seed, "violation",
                violations=[f"generator produced ill-typed program: {exc}"],
                reproducer=print_program(program)))
            continue
        audit = evaluate_with_audit(tp, world_for_seed(seed), fuel)
        if audit.violations:
            repro = print_program(program)
            if supplied is None:
                shrunk = shrink_program(
                    program, lambda q: _still_fails(q, seed, fuel))
                repro = print_program(shrunk)
            summary.reports.append(RunReport(
                f"p{i}", seed, "violation", audit.steps,
                audit.violations, time.monotonic() - t1, repro))
        else:
            summary.passed += 1
            summary.reports.append(RunReport(
                f"p{i}", seed, "value", audit.steps,
                elapsed=time.monotonic() - t1))
    summary.elapsed = time.monotonic() - t0
    return summary


def _still_fails(program: Program, seed: int, fuel: int) -> bool:
    try:
        tp = check_program(program)
    except TypeCheckError:
        return False
    audit = evaluate_with_audit(tp, world_for_seed(seed), fuel)
    return bool(audit.violations)


# ---------------------------------------------------------------------------
# Differential testing against a C compiler
# ---------------------------------------------------------------------------

def find_cc(explicit: Optional[str] = None) -> Optional[str]:
    for cand in (explicit, os.environ.get("BEEPLC_CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return shutil.which(cand)
    return None


def build_host(compiler: str, cfile: Path, exe: Path, *flags: str
               ) -> subprocess.CompletedProcess:
    """One cc run: ``cc -std=c11 FLAGS -o EXE FILE.c``.  The binary is
    linked by gold when ``ld.gold`` is on the PATH, since linking against
    libc is the part of a cc run that gold makes cheaper than GNU ld, and by
    cc's default linker otherwise."""
    gold = ["-fuse-ld=gold"] if shutil.which("ld.gold") else []
    return subprocess.run([compiler, "-std=c11", *flags, *gold,
                           "-o", str(exe), str(cfile)],
                          capture_output=True, text=True)


def run_differential(n_programs: int, cfg: Optional[GenConfig] = None,
                     cc: Optional[str] = None,
                     programs: Optional[list[Program]] = None
                     ) -> SuiteSummary:
    """Interpreter value vs. compiled C output for closed int programs."""
    t0 = time.monotonic()
    compiler = find_cc(cc)
    if compiler is None:
        return SuiteSummary("differential", 0, 0, skipped=True)
    cfg = cfg or GenConfig(bytes_match=False, externals=False)
    summary = SuiteSummary("differential", n_programs, 0)
    with tempfile.TemporaryDirectory(prefix="beepl-diff-") as tmp:
        for i in range(n_programs):
            seed = cfg.seed + i
            if programs is not None:
                program = programs[i % len(programs)]
            else:
                program = generate_well_typed(replace(
                    cfg, seed=seed, bytes_match=False, externals=False))
            report = _differential_one(program, compiler, Path(tmp), i, seed)
            summary.reports.append(report)
            if report.outcome == "value":
                summary.passed += 1
    if not summary.reports:
        summary.skipped = True
    summary.elapsed = time.monotonic() - t0
    return summary


def _differential_one(program: Program, compiler: str, tmp: Path,
                      idx: int, seed: int) -> RunReport:
    t1 = time.monotonic()

    def violation(*found: str) -> RunReport:
        return RunReport(f"d{idx}", seed, "violation", violations=list(found),
                         reproducer=print_program(program))
    try:
        tp = check_program(program)
        s, call = start(tp, w := ExternalWorld())
        interp = eval_multi(s, w, call, fuel=DEFAULT_FUEL)
    except NoEntryPoint:
        return violation("no entry point")
    except Exception as exc:
        return violation(f"interpreter failed: {exc}")
    cu = emit_program(tp, "host")
    cfile = tmp / f"d{idx}.c"
    exe = tmp / f"d{idx}"
    cfile.write_text(cu.text)
    comp = build_host(compiler, cfile, exe, "-O1")
    if comp.returncode != 0:
        return violation(f"cc failed: {comp.stderr[:500]}")
    run = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=30)
    line = run.stdout.strip().splitlines()[0] if run.stdout.strip() else ""
    expected = interp.value
    if not isinstance(expected, (ConstInt, ConstLong)):
        return violation("entry did not return an integer")
    mismatch = []
    if line != str(expected.value):
        mismatch.append(f"printed {line!r}, interpreter {expected.value}")
    if run.returncode != (expected.value & 0xFF):
        mismatch.append(f"exit {run.returncode}, "
                        f"interpreter low byte {expected.value & 0xFF}")
    if mismatch:
        return violation(*mismatch)
    return RunReport(f"d{idx}", seed, "value", interp.steps,
                     elapsed=time.monotonic() - t1)


# ---------------------------------------------------------------------------
# CVE regression corpus
# ---------------------------------------------------------------------------

def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def load_corpus(name: str) -> Program:
    path = corpus_path(name)
    return parse_program(path.read_text(), str(path))


def _normalize_c(text: str) -> str:
    return re.sub(r"\s+", " ", text)


NULL_GUARD = re.compile(r"\b(\w+) == (NULL|\(long \*\) 0)\b")
ZERO_DIV_GUARD = re.compile(r"\(?\s*(\w+)\s*==\s*0\s*\?\s*0\s*:")
BOUNDS_GUARD = re.compile(
    r"(\w+)\.start \+ sizeof\(struct ethhdr\) > (\w+)\.end")


def run_cve_corpus() -> SuiteSummary:
    t0 = time.monotonic()
    checks: list[tuple[str, Callable[[], Optional[str]]]] = [
        ("fig4-rejected-deref-of-option", _check_bprog2),
        ("fig5-accepted-null-guard", _check_bprog3),
        ("fig2-guarded-div-mod", _check_bprog1),
        ("fig10-bounds-check", _check_bprog4),
        ("oversized-shift-zero", _check_shift),
    ]
    summary = SuiteSummary("cve-corpus", len(checks), 0)
    for name, fn in checks:
        t1 = time.monotonic()
        try:
            failure = fn()
        except Exception as exc:
            failure = f"raised {type(exc).__name__}: {exc}"
        if failure is None:
            summary.passed += 1
            summary.reports.append(RunReport(name, 0, "value",
                                             elapsed=time.monotonic() - t1))
        else:
            summary.reports.append(RunReport(name, 0, "violation",
                                             violations=[failure]))
    summary.elapsed = time.monotonic() - t0
    return summary


def _check_bprog2() -> Optional[str]:
    try:
        check_program(load_corpus("bprog2.bpl"))
    except TypeCheckError as exc:
        if exc.code == "DerefOfOption":
            return None
        return f"rejected with {exc.code}, expected DerefOfOption"
    return "bprog2 was accepted; it must be rejected"


def _check_bprog3() -> Optional[str]:
    tp = check_program(load_corpus("bprog3.bpl"))
    text = _normalize_c(emit_program(tp, "ebpf").text)
    if not NULL_GUARD.search(text):
        return "emitted C lacks a NULL guard on the looked-up pointer"
    r = run_program(tp)
    if r.value != ConstInt(-1):
        return f"lookup miss returned {r.value}, expected -1"
    return None


FIG2_ANALOG_EXPR = """
let r0 : long = 0x100000000 in
let w0 : int = (int)r0 in
let w1 : int = 3 in
if r0 != 0 then w1 % w0 else w1
"""


def _check_bprog1() -> Optional[str]:
    tp = check_program(load_corpus("bprog1.bpl"))
    r = run_program(tp)
    if r.value != ConstInt(2):
        return f"bprog1 returned {r.value}, expected XDP_PASS (2)"
    # The mod itself: truncation makes the divisor zero, the guard yields 0.
    from .typecheck import check_source
    probe = check_source("fun main() : int { %s }" % FIG2_ANALOG_EXPR)
    r2 = run_program(probe)
    if r2.value != ConstInt(0):
        return f"w1 % w0 evaluated to {r2.value}, expected 0"
    text = _normalize_c(emit_program(tp, "ebpf").text)
    if not ZERO_DIV_GUARD.search(text):
        return "emitted C lacks the zero-divisor guard"
    return None


def _check_bprog4() -> Optional[str]:
    tp = check_program(load_corpus("bprog4.bpl"))
    text = _normalize_c(emit_program(tp, "ebpf").text)
    m = BOUNDS_GUARD.search(text)
    if not m:
        return "emitted C lacks the sizeof(struct ethhdr) bounds check"
    field_read = text.find("->h_proto")
    if field_read != -1 and field_read < m.start():
        return "field access appears before the bounds check"
    r = run_program(tp, ExternalWorld(
        packet=bytes(12) + bytes([0x86, 0xDD]) + bytes(4)))
    if r.value != ConstInt(1):
        return f"IPv6 packet gave {r.value}, expected XDP_DROP (1)"
    return None


def _check_shift() -> Optional[str]:
    tp = check_program(load_corpus("shift64.bpl"))
    r = run_program(tp)
    if r.value != ConstLong(0):
        return f"oversized shift gave {r.value}, expected 0"
    return None
