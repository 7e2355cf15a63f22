"""End-to-end programs exercising paths the generator leaves out:
struct locals, nested calls with clashing parameter names, and audited
evaluation of programs with calls."""

import subprocess

import pytest

from beepl.cgen import emit_program
from beepl.core import UnitLit, VInt, VLong
from beepl.driver import (
    build_host, evaluate_with_audit, find_cc, world_for_seed,
)
from beepl.frontend import parse_program, print_program
from beepl.interp import ExternalWorld, run_program
from beepl.typecheck import TypeCheckError, check_program, check_source

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")


NESTED_CALLS = """
fun g(int x) : int { x + 1 }
fun f(int x) : int { g(x + 2) + x }
fun main() : int { f(10) }
"""

STRUCT_LOCALS = """
struct point { px : int, py : int }
fun main() : int vars (struct point* pt) {
    let _ : struct point* = pt { px = 3, py = 4 } in pt.px + pt.py
}
"""

REINIT = """
struct pair { a : int, b : int }
fun main() : int vars (struct pair* p) {
    let _ : struct pair* = p { a = 1, b = 2 } in
    let _ : struct pair* = p { a = 10, b = 20 } in
    p.a + p.b
}
"""

CALL_CHAIN_EFFECTS = """
fun bump(long k) : long, <alloc, read, write> {
    let c : long* = ref(k) in let _ = c := !c + 1 in !c
}
fun main() : long { bump(41) }
"""


def test_nested_calls_with_shadowed_parameter_names():
    tp = check_source(NESTED_CALLS)
    assert run_program(tp).value == VInt(23)


def test_struct_locals_initialize_and_read():
    tp = check_source(STRUCT_LOCALS)
    assert run_program(tp).value == VInt(7)


def test_struct_reinitialization_overwrites_in_place():
    tp = check_source(REINIT)
    assert run_program(tp).value == VInt(30)


def test_effectful_call_chain():
    tp = check_source(CALL_CHAIN_EFFECTS)
    assert run_program(tp).value == VLong(42)


def test_struct_init_outside_declared_locals_rejected():
    src = """
struct point { px : int, py : int }
fun main() : int {
    let pt : int = 1 in let _ : int = pt { px = 1, py = 2 } in 0
}
"""
    with pytest.raises(TypeCheckError) as err:
        check_source(src)
    assert err.value.code == "StructInitTarget"


def test_audited_evaluation_of_call_programs():
    for src in (NESTED_CALLS, STRUCT_LOCALS, REINIT, CALL_CHAIN_EFFECTS):
        tp = check_source(src)
        audit = evaluate_with_audit(tp, world_for_seed(1))
        assert audit.violations == [], (src, audit.violations)


@needs_cc
def test_struct_and_call_programs_compile_and_match(tmp_path):
    cc = find_cc()
    cases = [(NESTED_CALLS, 23), (STRUCT_LOCALS, 7), (REINIT, 30),
             (CALL_CHAIN_EFFECTS, 42)]
    for i, (src, expected) in enumerate(cases):
        tp = check_source(src)
        cfile = tmp_path / f"p{i}.c"
        cfile.write_text(emit_program(tp, "host").text)
        exe = tmp_path / f"p{i}"
        r = build_host(cc, cfile, exe)
        assert r.returncode == 0, r.stderr
        out = subprocess.run([str(exe)], capture_output=True, text=True)
        assert out.stdout.strip() == str(expected)


def test_named_unit_binder_has_no_c_value():
    src = ("fun main() : int { let p : int* = ref(0) in "
           "let u : unit = (p := 1) in let _ : unit = u in !p + 8 }")
    tp = check_source(src)
    assert run_program(tp).value == VInt(9)
    text = emit_program(tp, "host").text
    assert "void u" not in text  # unit values never become C locals


def test_unit_parameters_rejected():
    with pytest.raises(TypeCheckError) as err:
        check_source("fun f(unit u) : int { 1 }")
    assert err.value.code == "BadParamType"


def test_array_reference_parameters_rejected():
    # A reference to an array has no C parameter form: before this was
    # rejected, emit-c ended in a traceback and run could not start main.
    for src in ("fun main(int[4]* p) : int { 1 }",
                "fun main(option(int[4]*) p) : int { 1 }",
                "fun f(long[2]* p) : int { 1 } fun main() : int { 2 }"):
        with pytest.raises(TypeCheckError) as err:
            check_source(src)
        assert err.value.code == "BadParamType", src


def test_array_reference_globals_lets_and_externs_rejected():
    # Nor has a reference to an array a C form as a global, a local or an
    # extern's parameter or result: these checked and ran, and emit-c then
    # ended in a traceback.
    for src, code in (
            ("global g : option(int[4]*) = none; fun main() : int { 2 }",
             "BadGlobalType"),
            ("fun main() : int { let p : option(int[4]*) = none in 2 }",
             "BadLetType"),
            ("extern fun f(int[4]*) : int; fun main() : int { 2 }",
             "BadExternType"),
            ("extern fun f(int) : option(u8[2]*); fun main() : int { 2 }",
             "BadExternType")):
        with pytest.raises(TypeCheckError) as err:
            check_source(src)
        assert err.value.code == code, src


def test_corpus_print_parse_round_trip():
    from beepl.driver import CORPUS_DIR, load_corpus
    from beepl.frontend import parse_program, print_program
    for path in sorted(CORPUS_DIR.glob("*.bpl")):
        p = load_corpus(path.name)
        assert parse_program(print_program(p)) == p, path.name


def test_io_log_records_external_calls_in_order():
    src = """
fun main() : long {
    let a : long = bpf_get_current_uid_gid() in
    let b : long = bpf_get_current_uid_gid() in
    a + b
}
"""
    tp = check_source(src)
    w = ExternalWorld(uid_gid=5)
    assert run_program(tp, w).value == VLong(10)
    assert w.io_log == ["bpf_get_current_uid_gid"] * 2


# --- the literal rule: a value types where the variable it replaces did ------

# A value of each narrow int type that no wider-signed or narrower type holds.
NARROW = {"u8": 200, "u16": 60000, "u32": 3000000, "i8": -100, "i16": -30000}

# Each position a literal of type T can stand in, as a program whose main
# returns that literal's value; {e} is the literal, or the variable v of
# type T bound to it.
POSITIONS = {
    "let bound": "fun main() : int {{ {pre}let z : {t} = {e} in (int)z }}",
    "ref operand":
        "fun main() : int {{ {pre}let r : {t}* = ref({e}) in (int)!r }}",
    "if branches": "fun main() : int {{ {pre}let y : {t} = {lit} in "
                   "let z : {t} = if true then {e} else y in (int)z }}",
    "match arms": "fun main() : int {{ {pre}let o : option(int*) = none in "
                  "let z : {t} = match o with | pnone => {e} "
                  "| psome q => {e} in (int)z }}",
    "call argument": "fun f({t} a) : int {{ (int)a }} "
                     "fun main() : int {{ {pre}f({e}) }}",
    "function body": "fun f() : {t} {{ {pre}{e} }} "
                     "fun main() : int {{ (int)f() }}",
    "let body": "fun main() : int {{ {pre}let z : {t} = "
                "let w : int = 0 in {e} in (int)z }}",
    "entry result": "fun main() : {t} {{ {pre}{e} }}",
}


def literal_rule_programs():
    """(source, value) for each narrow type, position, and literal or
    variable, and the ulong cases."""
    out = []
    for t, lit in NARROW.items():
        for template in POSITIONS.values():
            for pre, e in (("", lit), (f"let v : {t} = {lit} in ", "v")):
                out.append((template.format(t=t, lit=lit, pre=pre, e=e), lit))
    out += [
        ("fun main() : long { let x : ulong = 5 in (long)x }", 5),
        ("fun main() : long { let x : ulong = 5L in (long)x }", 5),
        ("fun f(ulong a) : long { (long)a } fun main() : long { f(5L) }", 5),
    ]
    # A dereference passes its expected type down to the ref it reads.
    for t in ("u8", "u16", "i8", "i16"):
        out.append((f"fun main() : int {{ let z : {t} = !ref({NARROW[t]}) "
                    "in (int)z }", NARROW[t]))
    out.append(("fun main() : long { let z : long = !ref(5) in z }", 5))
    # With nothing expected, a second branch or arm is judged at the first
    # one's type.
    later = "(let w : int = 0 in -100)"
    for e in (f"if true then v else {later}",
              f"match o with | pnone => v | psome q => {later}"):
        out.append(("fun main() : int { let v : i8 = -100 in "
                    "let o : option(int*) = none in "
                    f"if ({e}) == v then -100 else 0 }}", -100))
    return out


def test_literal_rule_programs_check_and_audit_clean():
    programs = literal_rule_programs()
    assert len(programs) == len(NARROW) * len(POSITIONS) * 2 + 10
    for src, value in programs:
        tp = check_source(src)
        run = run_program(tp, ExternalWorld())
        audit = evaluate_with_audit(tp, ExternalWorld())
        assert audit.violations == [], src
        assert run.value == audit.value and run.value.value == value, src


@needs_cc
def test_narrow_ref_compiles_with_matching_pointer_types(tmp_path):
    # The ref's temporary has the ref's checked target type, so a u8* points
    # at a u8 and the host binary prints what the interpreter computes.
    src = ("fun main() : int { let x : u8 = 200 in let r : u8* = ref(x) in "
           "let s : i16* = ref(-30000) in (int)!r + (int)!s }")
    tp = check_source(src)
    expected = run_program(tp, ExternalWorld()).value.value
    assert expected == 200 - 30000
    cfile = tmp_path / "narrow_ref.c"
    cfile.write_text(emit_program(tp, "host").text)
    exe = tmp_path / "narrow_ref"
    r = build_host(find_cc(), cfile, exe, "-Werror=incompatible-pointer-types")
    assert r.returncode == 0, r.stderr
    out = subprocess.run([str(exe)], capture_output=True, text=True)
    assert out.stdout.strip() == str(expected)


# Constructs the generator never writes: externs, one of them unit-typed, a
# bool global, integer, bool and option entry parameters (the host shim
# passes 0 and a null pointer), and a unit entry point.
WRITTEN = [
    "extern fun probe(int, long) : int, <io>;\n"
    "extern fun note(int) : unit, <io>;\n"
    "fun main() : int, <io> { let _ : unit = note(1) in probe(2, 3L) + 5 }",
    "global flag : bool = true; fun main() : int { if flag then 3 else 4 }",
    "fun main(int a, long b, bool c) : int { "
    "if c then 1 else a + (int) b + 7 }",
    "fun main(option(int*) p) : int { "
    "match p with | pnone => 11 | psome q => !q }",
    "fun main() : unit { let x : int* = ref(1) in x := 2 }",
]


@needs_cc
def test_written_programs_print_emit_and_run_as_interpreted(tmp_path):
    cc = find_cc()
    for i, src in enumerate(WRITTEN):
        p = parse_program(src)
        assert parse_program(print_program(p)) == p, src
        tp = check_program(p)
        cfile = tmp_path / f"w{i}.ebpf.c"
        cfile.write_text(emit_program(tp, "ebpf").text)
        r = subprocess.run([cc, "-fsyntax-only", str(cfile)],
                           capture_output=True, text=True)
        assert r.returncode == 0, (src, r.stderr)
        value = run_program(tp, ExternalWorld()).value
        # A unit entry point's host binary prints 0.
        expected = 0 if isinstance(value, UnitLit) else value.value
        cfile = tmp_path / f"w{i}.c"
        cfile.write_text(emit_program(tp, "host").text)
        exe = tmp_path / f"w{i}"
        r = build_host(cc, cfile, exe)
        assert r.returncode == 0, (src, r.stderr)
        out = subprocess.run([str(exe)], capture_output=True, text=True)
        assert (out.stdout, out.returncode) == \
            (f"{expected}\n", expected & 0xFF), src
