"""Metatheory harness, CVE regression corpus and the differential runner.

The property suites execute the language's safety theorems as per-step
audits over generated well-typed programs: progress (never stuck),
preservation (same type, shrinking effects, well-formed states), termination
(bounded fuel, no divergence effect), never-undef, and the null-dereference
and uninitialized-read monitors.
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
from .core import (
    ConstInt, ConstLong, EffectAtom, Expr, Program, RefTy, StructTy,
)
from .frontend import parse_program, print_program
from .gen import GenConfig, generate_well_typed, shrink_program
from .interp import (
    DEFAULT_FUEL, ExternalWorld, FuelExhausted, State, StuckState,
    entry_call, eval_multi, init_state, run_program, runtime_gamma,
    well_formed,
)
from .typecheck import (
    JudgmentMemo, TypeCheckError, TypedProgram, TypingContext, check_program,
    infer_expr,
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
    struct_vars = frozenset(
        x for x, (_, ty) in s.omega.items()
        if isinstance(ty, RefTy) and isinstance(ty.target, StructTy))
    return TypingContext(runtime_gamma(s), s.sigma, tp.composites, tp.psi,
                         tp.fun_sigs, {}, struct_vars, memo)


def _extends(new: dict, old: dict) -> bool:
    return old.items() <= new.items()


class _Violation(Exception):
    """Stops an audited evaluation at its first violation."""


def evaluate_with_audit(tp: TypedProgram, world: ExternalWorld,
                        fuel: int = DEFAULT_FUEL,
                        guard_unsafe: bool = True) -> AuditResult:
    """Evaluate the entry point, re-checking the term and the state after
    every step through ``eval_multi``'s step hook.

    The re-check is incremental and exact.  Evaluation never goes under a
    binder, runtime names are fresh and block ids are never reused, so a
    judgment made at an earlier step still holds for the same node as long
    as the runtime gamma, sigma and struct variables extend the ones it was
    made in (weakening).  The run's memo keeps those judgments and is
    emptied whenever a step's context does not extend the last one's.
    """
    violations: list[str] = []
    for name, tf in tp.funs.items():
        if EffectAtom.DIVERGENCE in tf.inferred.atoms():
            violations.append(f"divergence effect inferred for {name}")
    entry = tp.entry_point()
    if entry is None:
        return AuditResult(["no entry point"], 0)
    s = init_state(tp, world)
    expr = entry_call(tp, s, world, entry)
    memo = JudgmentMemo()
    made_in: tuple = ({}, {}, frozenset())  # gamma, sigma, struct variables

    def audit_ctx(s: State) -> TypingContext:
        nonlocal made_in
        ctx = _audit_ctx(tp, s, memo)
        gamma, sigma, struct_vars = made_in
        if not (_extends(ctx.gamma, gamma) and _extends(s.sigma, sigma)
                and ctx.struct_vars >= struct_vars):
            memo.judgments.clear()
        made_in = (ctx.gamma, dict(s.sigma), ctx.struct_vars)
        return ctx

    try:
        ty0, eff = infer_expr(audit_ctx(s), expr)
    except TypeCheckError as exc:
        return AuditResult([f"initial call untypeable: {exc}"], 0)
    atoms = eff.atoms()
    steps = 0
    value = None

    def recheck(s: State, expr: Expr, rule: str) -> None:
        nonlocal steps, eff, atoms
        steps += 1
        ctx = audit_ctx(s)
        memo.prune(expr)
        try:
            ty_i, eff_i = infer_expr(ctx, expr)
        except TypeCheckError as exc:
            raise _Violation(f"step {steps} untypeable ({rule}): {exc}")
        if ty_i != ty0:
            raise _Violation(f"step {steps} changed type "
                             f"{ty0} -> {ty_i} ({rule})")
        atoms_i = eff_i.atoms()  # effect_subset, reusing the last step's
        if not atoms_i <= atoms:
            raise _Violation(f"step {steps} grew effects "
                             f"{eff} -> {eff_i} ({rule})")
        eff, atoms = eff_i, atoms_i
        ok, clauses = well_formed(ctx.gamma, s.sigma, s)
        if not ok:
            raise _Violation(f"step {steps} ill-formed state: {clauses[0]}")

    try:
        value = eval_multi(s, world, expr, fuel, guard_unsafe, recheck).value
    except StuckState as exc:
        violations.append(f"stuck after {steps} steps: {exc.reason}")
    except FuelExhausted:
        violations.append(f"fuel exhausted at {fuel} steps")
    except _Violation as exc:
        violations.append(str(exc))
    if not s.monitors.clean():
        m = s.monitors
        violations.append(
            f"monitors: null={m.null_deref_events} "
            f"uninit={m.uninit_read_events} undef={m.undef_events}")
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
                       guard_unsafe: bool = True,
                       programs: Optional[Iterable[Program]] = None,
                       shrink: bool = True) -> SuiteSummary:
    t0 = time.monotonic()
    summary = SuiteSummary("metatheory", n_programs, 0)
    supplied = list(programs) if programs is not None else None
    for i in range(n_programs):
        seed = cfg.seed + i
        t1 = time.monotonic()
        if supplied is not None:
            program = supplied[i % len(supplied)]
        else:
            try:
                program = generate_well_typed(replace(cfg, seed=seed))
            except Exception as exc:  # exhaustion is a reportable failure
                summary.reports.append(RunReport(
                    f"p{i}", seed, "violation",
                    violations=[f"generation failed: {exc}"]))
                continue
        try:
            tp = check_program(program)
        except TypeCheckError as exc:
            summary.reports.append(RunReport(
                f"p{i}", seed, "violation",
                violations=[f"generator produced ill-typed program: {exc}"],
                reproducer=print_program(program)))
            continue
        audit = evaluate_with_audit(tp, world_for_seed(seed), fuel,
                                    guard_unsafe)
        if audit.violations:
            repro = print_program(program)
            if shrink and supplied is None:
                shrunk = shrink_program(program, lambda q: _still_fails(
                    q, seed, fuel, guard_unsafe))
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


def _still_fails(program: Program, seed: int, fuel: int,
                 guard_unsafe: bool) -> bool:
    try:
        tp = check_program(program)
    except TypeCheckError:
        return False
    audit = evaluate_with_audit(tp, world_for_seed(seed), fuel, guard_unsafe)
    return bool(audit.violations)


# ---------------------------------------------------------------------------
# Differential testing against a C compiler
# ---------------------------------------------------------------------------

def find_cc(explicit: Optional[str] = None) -> Optional[str]:
    for cand in (explicit, os.environ.get("BEEPLC_CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return shutil.which(cand)
    return None


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
    try:
        tp = check_program(program)
        interp = eval_multi(
            s := init_state(tp, w := ExternalWorld()), w,
            entry_call(tp, s, w, tp.entry_point()), fuel=DEFAULT_FUEL)
    except Exception as exc:
        return RunReport(f"d{idx}", seed, "violation",
                         violations=[f"interpreter failed: {exc}"],
                         reproducer=print_program(program))
    cu = emit_program(tp, "host")
    cfile = tmp / f"d{idx}.c"
    exe = tmp / f"d{idx}"
    cfile.write_text(cu.text)
    comp = subprocess.run([compiler, "-std=c11", "-O1", "-o", str(exe),
                           str(cfile)], capture_output=True, text=True)
    if comp.returncode != 0:
        return RunReport(f"d{idx}", seed, "violation",
                         violations=[f"cc failed: {comp.stderr[:500]}"],
                         reproducer=print_program(program))
    run = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=30)
    line = run.stdout.strip().splitlines()[0] if run.stdout.strip() else ""
    expected = interp.value
    if not isinstance(expected, (ConstInt, ConstLong)):
        return RunReport(f"d{idx}", seed, "violation",
                         violations=["entry did not return an integer"],
                         reproducer=print_program(program))
    mismatch = []
    if line != str(expected.value):
        mismatch.append(f"printed {line!r}, interpreter {expected.value}")
    if run.returncode != (expected.value & 0xFF):
        mismatch.append(f"exit {run.returncode}, "
                        f"interpreter low byte {expected.value & 0xFF}")
    if mismatch:
        return RunReport(f"d{idx}", seed, "violation",
                         violations=mismatch,
                         reproducer=print_program(program))
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
