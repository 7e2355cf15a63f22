import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import beepl
from beepl.cli import main
from beepl.core import Loc, Span
from beepl.driver import corpus_path, find_cc
from beepl.frontend import KEYWORDS, MAX_EXPR_DEPTH, PUNCT, parse_program
from beepl.interp import run_program
from beepl.typecheck import (
    TypeCheckError, TypingContext, check_program, infer_expr,
)
from test_driver import _stuck_on_unsafe_operands
from test_frontend import NESTED, NESTED_VALUE, nested_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, err = run_cli(capsys, "check", str(corpus_path("bprog3.bpl")))
    assert code == 0


def test_check_diagnostics_exit_1(capsys):
    code, out, err = run_cli(capsys, "check", str(corpus_path("bprog2.bpl")))
    assert code == 1
    assert "error[DerefOfOption]" in err
    assert "bprog2.bpl:" in err  # file:line:col prefix


def test_check_json(capsys):
    code, out, err = run_cli(capsys, "check", "--json",
                             str(corpus_path("bprog2.bpl")))
    assert code == 1
    (obj,) = json.loads(out)
    assert obj["code"] == "DerefOfOption"
    assert obj["note"] == "TDEREF"  # the typing rule that failed


def test_check_prints_types_as_source_syntax(tmp_path, capsys):
    f = tmp_path / "wide.bpl"
    f.write_text("fun main() : int { let x : u8 = 300 in (int)x }\n")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "error[LetTypeMismatch]" in err
    assert "let binds int, declared u8" in err


def test_check_points_at_the_mismatched_expression(tmp_path, capsys):
    # A let or global mismatch points at the bound expression or the
    # initializer, not at the keyword, and names the initializer's type.
    f = tmp_path / "wide.bpl"
    f.write_text("fun main() : int { let x : u8 = 300 in (int)x }\n")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert f"{f}:1:33: error[LetTypeMismatch]" in err
    f.write_text("global g : u8 = 300;\nfun main() : int { (int)g }\n")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert f"{f}:1:17: error[GlobalInitMismatch]: initializer of 'g' " \
        "has type int, declared u8" in err


def test_check_points_at_a_none_or_boolean_initializer(tmp_path, capsys):
    f = tmp_path / "init.bpl"
    for init, ty in (("true", "bool"), ("false", "bool"), ("none", "option")):
        f.write_text(f"global h : int = {init};\nfun main() : int {{ h }}\n")
        code, out, err = run_cli(capsys, "check", str(f))
        assert code == 1
        assert f"{f}:1:18: error[GlobalInitMismatch]: initializer of 'h' " \
            f"has type {ty}, declared int" in err


def test_check_points_at_a_string_initializer(tmp_path, capsys):
    f = tmp_path / "init.bpl"
    f.write_text('global h : int = "ab";\nfun main() : int { h }\n')
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert f"{f}:1:18: error[GlobalInitMismatch]: initializer of 'h' " \
        "has type i8[3], declared int" in err


# One row per checker code that no other test names: a minimal program, its
# code and its line:column, then the message where a row gives it.  A row
# with a built term instead of a program is for a code that only runtime
# terms reach.
DIAGNOSTICS = [
    ("AssignThroughOption", "fun main() : int {\n"
     "  let p : option(int*) = none in\n  let _ = p := 1 in 0 }", "3:13"),
    ("AssignTypeMismatch", "fun main() : int {\n"
     "  let p : int* = ref(1) in\n  let _ = p := true in 0 }",
     "3:13 cannot assign bool to a cell of type int"),
    ("CannotInferOption", "fun main() : int {\n"
     "  match none with | pnone => 0 | psome p => 1 }", "2:9"),
    ("FieldMismatch", "struct pt { x : int }\n"
     "fun main() : int vars (struct pt* p) {\n  let _ = p { y = 1 } in 0 }",
     "3:11"),
    ("FieldOfNonStruct", "fun main() : int {\n  let a : int = 1 in a.x }",
     "2:24"),
    ("ForBoundsType", "fun main() : int {\n"
     "  let _ = for (true ... false, Up) { () } in 0 }", "2:11"),
    ("MatchBytesShape", "fun main(option(struct xdp_md*) c) : int {\n"
     "  match c.data with | _ => 1 }", "2:3"),
    ("MatchScrutineeType", "fun main() : int {\n  match 1 with | _ => 1 }",
     "2:3"),
    ("NotAFunction", "fun main() : int {\n  1(2) }", "2:4"),
    ("NotFirstClassFunction", "fun f() : int { 1 }\n"
     "fun main() : int {\n  let g : int = f in g }", "3:17"),
    ("PointerFieldInBytes", "fun main(option(struct xdp_md*) c) : int {\n"
     "  match c.data with | x, struct xdp_md => 1 | _ => 3 }", "2:3"),
    ("UnknownLocation", Loc(7, 0, span=Span(4, 2)), "4:2"),
    ("UopTypeMismatch", "fun main() : int {\n  let b : bool = not 1 in 0 }",
     "2:18"),
    ("VarNotStructRef", "fun main() : int vars (int* p) {\n  0 }", "1:1"),
]


@pytest.mark.parametrize("code, program, where", DIAGNOSTICS,
                         ids=[row[0] for row in DIAGNOSTICS])
def test_each_diagnostic_is_raised_and_placed(tmp_path, capsys, code,
                                              program, where):
    where, _, message = where.partition(" ")
    if isinstance(program, Loc):
        with pytest.raises(TypeCheckError) as err:
            infer_expr(TypingContext(), program)
        assert (err.value.code, f"{err.value.span.line}:"
                f"{err.value.span.col}") == (code, where)
        return
    f = tmp_path / "p.bpl"
    f.write_text(program + "\n")
    rc, out, err = run_cli(capsys, "check", str(f))
    assert rc == 1
    assert err.startswith(f"{f}:{where}: error[{code}]: {message}"), err


def test_check_points_at_the_struct_a_diagnostic_is_about(tmp_path, capsys):
    # A struct's diagnostics point at its name: the second one for a
    # redefinition, the struct's own for a field, which has no span.
    f = tmp_path / "s.bpl"
    main_fun = "fun main() : int { 1 }\n"
    for structs, where, diagnostic in (
            ("struct s { a : int[4]* }\n", "2:8", "BadFieldType]: field 'a' "
             "of struct 's' must be a primitive or array type"),
            ("struct s { a : int }\n  struct s { a : int }\n", "3:10",
             "DuplicateName]: struct 's' redefined"),
            ("struct xdp_md { a : int }\n", "2:8",
             "DuplicateName]: struct 'xdp_md' redefined"),
            ("  struct main { a : int }\n", "2:10",
             "ReservedName]: struct name 'main' is not free in the emitted C"),
            ("struct s {\n  a : int,\n  NULL : int\n}\n", "2:8",
             "ReservedName]: field name 'NULL' is not free in the emitted C")):
        f.write_text(main_fun + structs)
        code, out, err = run_cli(capsys, "check", str(f))
        assert code == 1
        assert f"{f}:{where}: error[{diagnostic} (TPROG)" in err, err


def test_check_a_section_takes_any_struct_but_a_kernel_one(tmp_path, capsys):
    # Only a kernel struct's table entry names a section; a pointer to a
    # program's own struct, or to one it does not declare, goes in any.
    f = tmp_path / "sec.bpl"
    for src in (
            'struct pt { x : int }\n#section "xdp"\n'
            "fun f(option(struct pt*) c) : int { 1 }",
            'struct pt { x : int }\n#section "xdp"\n'
            "global g : option(struct pt*) = none;\nfun main() : int { 1 }",
            '#section "xdp"\nfun f(option(struct nope*) c) : int { 1 }'):
        f.write_text(src + "\n")
        code, out, err = run_cli(capsys, "check", str(f))
        assert (code, err) == (0, ""), src


def test_check_names_the_type_an_option_wraps(tmp_path, capsys):
    # The diagnostic points at 'option' and names the type given, which is
    # not a pointer.
    f = tmp_path / "opt.bpl"
    for src, where, given in (
            ("global g : option(int[4]) = none;", "1:12", "int[4]"),
            ("fun main() : int { let p : option(option(int*)) = none in 1 }",
             "1:28", "option(int*)"),
            ("fun main() : int { let p : option(int) = none in 1 }",
             "1:28", "int")):
        f.write_text(src + "\n")
        code, out, err = run_cli(capsys, "check", str(f))
        assert code == 1
        assert f"{f}:{where}: error[P004]: option wraps a pointer type, " \
            f"not {given}" in err, (src, err)


def test_emit_c_rejects_array_references(tmp_path, capsys):
    # A global or let typed as a reference to an array has no C form: the
    # checker rejects it, so emit-c reports a diagnostic in both modes.
    f = tmp_path / "arr.bpl"
    for src, where in (
            ("global g : option(int[4]*) = none; fun main() : int { 2 }",
             "1:1: error[BadGlobalType]"),
            ("fun main() : int { let p : option(int[4]*) = none in 2 }",
             "1:20: error[BadLetType]")):
        f.write_text(src + "\n")
        for mode in ("ebpf", "host"):
            code, out, err = run_cli(capsys, "emit-c", str(f), "-o",
                                     str(tmp_path / "arr.c"), f"--mode={mode}")
            assert code == 1 and f"{f}:{where}" in err, (src, mode, err)
            assert "Traceback" not in err


def test_run_prints_value(capsys):
    code, out, err = run_cli(capsys, "run", str(corpus_path("shift64.bpl")))
    assert code == 0
    assert out.strip() == "0"


def test_run_prints_bool_and_unit_results(tmp_path, capsys):
    f = tmp_path / "main.bpl"
    for src, shown in (("fun main() : bool { 1 < 2 }", "true"),
                       ("fun main() : unit { () }", "()")):
        f.write_text(src + "\n")
        assert run_cli(capsys, "run", str(f)) == (0, shown + "\n", ""), src


def test_check_rejects_a_bytes_pattern_that_binds_a_name_twice(tmp_path,
                                                               capsys):
    # The checker gave 'tag' the binder's type while evaluation substituted
    # the field's value, so the program checked and then got stuck.
    f = tmp_path / "dup.bpl"
    f.write_text('struct hdr2 { tag : u16 } #section "xdp" '
                 "fun prog(option(struct xdp_md*) ctx) : int { "
                 "match ctx.data with | tag, struct hdr2 : (tag, u16) "
                 "=> tag.tag | _ => 0 }\n")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert f"{f}:1:109: error[P002]: pattern binds 'tag' twice" in err


def test_run_with_packet(tmp_path, capsys):
    pkt = tmp_path / "packet.hex"
    pkt.write_text("00 00 00 00 00 00 00 00 00 00 00 00 86 dd 00 00\n")
    code, out, err = run_cli(capsys, "run", str(corpus_path("bprog4.bpl")),
                             "--packet", str(pkt))
    assert code == 0
    assert out.strip() == "1"  # XDP_DROP for an IPv6 frame


def test_run_entry_override(tmp_path, capsys):
    f = tmp_path / "two.bpl"
    f.write_text("fun a() : int { 10 }\nfun main() : int { 20 }\n")
    code, out, _ = run_cli(capsys, "run", str(f))
    assert (code, out.strip()) == (0, "20")
    code, out, _ = run_cli(capsys, "run", str(f), "--entry", "a")
    assert (code, out.strip()) == (0, "10")


def test_run_trace_lists_rules(tmp_path, capsys):
    f = tmp_path / "p.bpl"
    f.write_text("fun main() : int { let x : int* = ref(2) in !x }\n")
    code, out, err = run_cli(capsys, "run", str(f), "--trace")
    assert code == 0
    assert "REFV" in err and "blocks=" in err


def test_run_trace_keeps_its_plain_format(tmp_path, capsys):
    f = tmp_path / "p.bpl"
    f.write_text("fun main() : int { let x : int* = ref(2) in !x }\n")
    code, out, err = run_cli(capsys, "run", str(f), "--trace")
    assert (code, out) == (0, "2\n")
    assert err.splitlines() == [
        "APP3       App          blocks=0", "REFV       Prim         blocks=1",
        "LETV       Let          blocks=1", "DREFV      Prim         blocks=1",
        "RET        Frame        blocks=1"]


def test_run_trace_json_writes_a_line_per_step(capsys):
    path = corpus_path("bprog3.bpl")
    code, out, err = run_cli(capsys, "run", str(path), "--trace", "--json")
    assert (code, out) == (0, "-1\n")
    lines = [json.loads(line) for line in err.splitlines()]
    steps = run_program(check_program(parse_program(path.read_text())))
    assert len(lines) == steps.steps
    assert lines[0] == {"rule": "APP3", "redex": "bprog3(some(<loc 5+0>))",
                        "depth": 0, "size": 23, "blocks": 6}
    assert lines[3] == {"rule": "EAPP", "redex": "bpf_get_current_uid_gid()",
                        "depth": 4, "size": 19, "blocks": 7}
    assert [line["rule"] for line in lines][-3:] == ["LETV", "MNONE", "RET"]
    # A frame prints with its variables' blocks.
    assert lines[-1] == {"rule": "RET", "redex": "<frame bprog3 ctx=6 { -1 }>",
                         "depth": 0, "size": 1, "blocks": 7}


def test_run_trace_json_gives_the_stuck_step(tmp_path, capsys):
    f = tmp_path / "p.bpl"
    f.write_text("struct pt { x : int, y : int }\n"
                 "fun main() : int vars (struct pt* s) { s.x }\n")
    code, out, err = run_cli(capsys, "run", str(f), "--trace", "--json")
    assert code == 1
    *steps, stuck, error = err.splitlines()
    assert [json.loads(line)["rule"] for line in steps] == ["APP3", "LVAR"]
    assert json.loads(stuck) == {
        "rule": None, "redex": "<loc 2+0>.x", "depth": 1, "size": 3,
        "blocks": 2, "stuck": "read of uninitialized field 'x'"}
    assert error == "error: read of uninitialized field 'x'"


def test_run_trace_json_on_a_term_deeper_than_any_source(tmp_path, capsys):
    # Each function nests its callee's call at the nesting limit, and a
    # call's frame holds its body at the call's depth, so the term grows about three
    # limits deep: a recursive walk of it would pass Python's stack limit.
    n = MAX_EXPR_DEPTH
    chain = [("f2", "1"), ("f1", "f2()"), ("f0", "f1()")]
    f = tmp_path / "chain.bpl"
    f.write_text("".join(
        f"fun {name}() : int {{ {'let x : int = ' * (n - 1)}{inner}"
        f"{' in x' * (n - 1)} }}\n" for name, inner in chain)
        + "fun main() : int { f0() }\n")
    code, out, err = run_cli(capsys, "run", str(f), "--trace", "--json")
    assert (code, out) == (0, "1\n")
    lines = [json.loads(line) for line in err.splitlines()]
    steps = run_program(check_program(parse_program(f.read_text())))
    assert len(lines) == steps.steps
    assert max(line["depth"] for line in lines) >= 3 * (n - 2)


def test_run_json_needs_trace(capsys):
    code, out, err = run_cli(capsys, "run", str(corpus_path("bprog3.bpl")),
                             "--json")
    assert code == 3 and "--json goes with --trace" in err


def test_run_fuel_exhaustion_is_an_error(tmp_path, capsys):
    f = tmp_path / "p.bpl"
    f.write_text("fun main() : int { 1 + 2 + 3 + 4 }\n")
    code, out, err = run_cli(capsys, "run", str(f), "--fuel", "1")
    assert code == 1


def test_emit_c_modes(tmp_path, capsys):
    out_c = tmp_path / "out.c"
    code, _, _ = run_cli(capsys, "emit-c", str(corpus_path("bprog3.bpl")),
                         "-o", str(out_c), "--mode=ebpf")
    assert code == 0
    text = out_c.read_text()
    assert 'SEC("xdp")' in text and "== NULL" in text
    code, _, _ = run_cli(capsys, "emit-c", str(corpus_path("bprog3.bpl")),
                         "-o", str(out_c), "--mode=host")
    assert code == 0
    assert "int main(void)" in out_c.read_text()


def test_selftest_small(capsys):
    code, out, err = run_cli(capsys, "selftest", "--n", "10",
                             "--skip-differential")
    assert code == 0
    assert "cve-corpus: 5/5" in out
    assert "metatheory: 10/10" in out
    assert "[skip] differential" in out


def test_selftest_prints_the_seed_and_a_shrunk_reproducer(monkeypatch,
                                                        capsys):
    # Seed 11's generated program shifts by a negative amount; with the
    # BOPV zero broken, the metatheory suite reports it, shrunk.
    _stuck_on_unsafe_operands(monkeypatch)
    code, out, err = run_cli(capsys, "selftest", "--n", "1", "--seed", "11",
                             "--skip-differential")
    assert code == 2
    assert "metatheory: 0/1" in out
    assert "  seed 11: stuck after 4 steps: binary operator produced undef" \
        in out
    repro = out.split("  reproducer:\n", 1)[1].split("[skip]", 1)[0]
    assert "fun prog(option(struct xdp_md*) ctx) : int" in repro
    assert all(line.startswith("    ") for line in repro.splitlines())


def test_usage_error_exit_3(capsys):
    assert main(["no-such-command"]) == 3
    assert main([]) == 3


def test_missing_file_exit_usage(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/prog.bpl")
    assert code == 3


# --- input errors: exit 3 and one line on stderr ------------------------------------

def _ok_program(tmp_path):
    f = tmp_path / "ok.bpl"
    f.write_text("fun main() : int { 1 }\n")
    return f


def test_run_bad_packet_hex_exit_3(tmp_path, capsys):
    pkt = tmp_path / "bad.hex"
    pkt.write_text("zz 00\n")
    code, out, err = run_cli(capsys, "run", str(_ok_program(tmp_path)),
                             "--packet", str(pkt))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "bad.hex" in err


def test_check_a_literal_of_5000_digits_is_p003(tmp_path, capsys):
    # Past 4,300 digits int() refuses a decimal string; the literal is still
    # one that exceeds 64 bits, as an expression and as an array length.
    nines = "9" * 5000
    f = tmp_path / "big.bpl"
    for src, col in ((f"fun main() : long {{ {nines} }}", 21),
                     (f"fun main() : int {{ let a : int[{nines}] = 0 in 1 }}",
                      32),
                     (f"global g : long = {nines};", 19)):
        f.write_text(src + "\n")
        code, out, err = run_cli(capsys, "check", str(f))
        assert (code, out) == (1, "")
        assert err == f"{f}:1:{col}: error[P003]: integer literal exceeds " \
            "64 bits\n", src[:40]
    f.write_text(f"fun main() : long {{ {'0' * 5000}7L }}\n")
    assert run_cli(capsys, "run", str(f)) == (0, "7\n", "")


def test_check_non_utf8_source_exit_3(tmp_path, capsys):
    f = tmp_path / "latin1.bpl"
    f.write_bytes("fun main() : int { 1 } // café\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 3
    assert len(err.splitlines()) == 1 and "UTF-8" in err


def test_run_fuel_must_be_positive(tmp_path, capsys):
    for fuel in ("0", "-3", "many"):
        code, out, err = run_cli(capsys, "run", str(_ok_program(tmp_path)),
                                 "--fuel", fuel)
        assert code == 3, fuel
        assert len(err.splitlines()) == 1 and "--fuel" in err


def test_selftest_n_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "selftest", "--n", "-1")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "--n" in err


def test_nesting_limit_through_the_cli(tmp_path, capsys):
    f = tmp_path / "deep.bpl"
    for shape in NESTED:
        f.write_text(nested_program(shape, MAX_EXPR_DEPTH))
        code, out, err = run_cli(capsys, "run", str(f))
        assert (code, out.strip()) == (0, str(NESTED_VALUE[shape])), shape
        for n in (MAX_EXPR_DEPTH + 1, 1000):
            f.write_text(nested_program(shape, n))
            code, out, err = run_cli(capsys, "run", str(f))
            assert code == 1 and "error[P005]" in err, (shape, n)
            assert "Traceback" not in err


def test_known_bad_inputs_print_no_traceback(tmp_path):
    ok = _ok_program(tmp_path)
    bad_hex = tmp_path / "bad.hex"
    bad_hex.write_text("0g\n")
    latin = tmp_path / "latin1.bpl"
    latin.write_bytes(b"fun main() : int { 1 } // caf\xe9\n")
    deep = tmp_path / "deep.bpl"
    deep.write_text(nested_program("parens", 1000))
    numeral = tmp_path / "numeral.bpl"
    numeral.write_text("fun main() : int { 0x + ² }\n")
    narrow = tmp_path / "narrow.bpl"
    narrow.write_text("global g : u8 = 300;\nfun main() : int { (int)g }\n")
    wide = tmp_path / "wide.bpl"
    wide.write_text("global g : long = 99999999999999999999;\n"
                    "fun main() : long { g }\n")
    cases = [
        (["run", ok, "--packet", bad_hex], 3),
        (["check", latin], 3),
        (["run", ok, "--fuel", "0"], 3),
        (["run", ok, "--fuel", "-3"], 3),
        (["selftest", "--n", "-1"], 3),
        (["emit-c", deep, "-o", tmp_path / "deep.c"], 1),
        (["check", numeral], 1),
        (["check", narrow], 1),
        (["run", narrow], 1),
        (["check", wide], 1),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(beepl.__file__).parent.parent))
    for argv, want in cases:
        proc = subprocess.run([sys.executable, "-m", "beepl.cli",
                               *map(str, argv)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert len(proc.stderr.splitlines()) == 1, (argv, proc.stderr)


# --- hostile inputs ------------------------------------------------------------------

_WORDS = sorted(KEYWORDS) + PUNCT + ["x", "main", "7", "0x1f", '"s"']
_soup = st.lists(st.sampled_from(_WORDS), max_size=60).map(" ".join)

# Int-typed contexts that each nest their argument one or more levels.
_WRAPPERS = ["({})", "let y : int = {} in y", "let y : int = 1 in {}",
             "if true then {} else 0", "~{}", "-{}", "{} + 1", "1 * {}",
             "f({})", "(int){}",
             "(let o : option(int*) = none in "
             "match o with | pnone => {} | psome p => !p)"]


def _wrap(wrappers):
    text = "1"
    for w in wrappers:
        text = w.format(text)
    return text


# Global declarations whose literal may not fit the declared type.
_EDGES = [(1 << k) + d for k in (7, 8, 15, 16, 31, 32, 63, 64)
          for d in (-1, 0, 1)]
_globals = st.tuples(
    st.sampled_from(["int", "u8", "u16", "u32", "i8", "i16", "long", "ulong",
                     "bool"]),
    st.sampled_from(["", "-"]),
    st.sampled_from(_EDGES) | st.integers(1 << 31, 1 << 70),
    st.sampled_from(["", "L"]),
).map(lambda t: (f"global g : {t[0]} = {t[1]}{t[2]}{t[3]};\n"
                 "fun main() : int { 0 }\n").encode())

_sources = st.one_of(
    st.binary(max_size=200),
    _soup.map(str.encode),
    _soup.map(lambda s: f"fun main() : int {{ {s} }}".encode()),
    st.tuples(st.sampled_from(sorted(NESTED)),
              st.integers(1, 1000) | st.integers(MAX_EXPR_DEPTH - 3,
                                                 MAX_EXPR_DEPTH + 3))
      .map(lambda t: nested_program(*t).encode()),
    st.integers(0, 120)
      .flatmap(lambda n: st.lists(st.sampled_from(_WRAPPERS),
                                  min_size=n, max_size=n))
      .map(lambda ws: ("fun f(int a) : int { a }\n"
                       f"fun main() : int {{ {_wrap(ws)} }}\n").encode()),
    _globals,
)
_flags = st.lists(st.sampled_from(
    ["--json", "--mode=ebpf", "--mode=host", "--mode=wasm", "--fuel", "0",
     "-3", "--n", "--entry", "main", "--bogus", "-o", ""]), max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


# Two examples in three take no flags, so that most sources reach the parser
# and the checker instead of stopping at a usage error.
@settings(max_examples=150, deadline=None)
@given(source=_sources, command=st.sampled_from(["check", "emit-c"]),
       flags=st.one_of(st.just([]), st.just([]), _flags))
def test_hostile_inputs_exit_cleanly(workdir, source, command, flags):
    src = workdir / "input.bpl"
    src.write_bytes(source)
    argv = [command, str(src)] + flags
    if command == "emit-c":
        argv += ["-o", str(workdir / "out.c")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3), err.getvalue()


# --- declared types ------------------------------------------------------------------

_DECLARED = ["int", "u8", "long", "bool", "unit", "bytes", "struct s",
             "struct s*", "int*", "option(int*)", "int[4]", "int[4]*"]
_POSITIONS = {"f": "fun f({0} x) : int {{ 0 }}",
              "g": "fun g({0} x) : {0} {{ x }}",
              "e": "extern fun e({0}) : int", "h": "extern fun h() : {0}"}
# The declarations the checker rejects, by position and type.
_REJECTED = {
    **{("f", t): "BadParamType" for t in ("unit", "int[4]", "int[4]*")},
    **{("g", t): "BadParamType" for t in ("unit", "int[4]")},
    **{("g", t): "ReturnsPointer"
       for t in ("bytes", "struct s*", "int*", "option(int*)", "int[4]*")},
    **{("e", t): "BadExternType" for t in ("unit", "int[4]", "int[4]*")},
    **{("h", t): "BadExternType"
       for t in ("bytes", "struct s", "struct s*", "int*", "int[4]",
                 "int[4]*")},
}


def test_every_entry_parameter_is_given_or_rejected(tmp_path, capsys):
    # A default entry point with a by-value struct or a bytes parameter
    # used to check; then `run` could not give it an argument (exit 1) and
    # its host C did not compile.  A function that is not the entry point
    # may still take them (see the test below).
    cc = find_cc()
    f = tmp_path / "entry.bpl"
    for entry in ("fun main({0} x) : int {{ 0 }}",
                  '#section "xdp" fun prog(int y, {0} x) : int {{ 0 }}'):
        rejected = []
        for ty in _DECLARED + ["option(struct xdp_md*)"]:
            f.write_text("struct s { a : int }\n" + entry.format(ty) + "\n")
            code, _, err = run_cli(capsys, "check", str(f))
            if code == 1:
                assert f"{f}:2:" in err and "error[BadParamType]" in err, err
                rejected.append(ty)
                continue
            assert run_cli(capsys, "run", str(f)) == (0, "0\n", ""), ty
            out = tmp_path / "entry.c"
            assert run_cli(capsys, "emit-c", str(f), "-o", str(out),
                           "--mode=host") == (0, "", ""), ty
            if cc is not None:
                r = subprocess.run([cc, "-std=c11", "-fsyntax-only",
                                    str(out)], capture_output=True, text=True)
                assert r.returncode == 0, (ty, r.stderr)
        assert rejected == ["unit", "bytes", "struct s", "int[4]", "int[4]*"]


def test_every_declared_type_is_accepted_and_emitted_or_rejected(tmp_path,
                                                                 capsys):
    # An extern of a type that neither the interpreter nor C can honour
    # used to check, and then emit-c ended in a traceback, or its host C did
    # not compile, or a call answered with a value of another type.
    cc = find_cc()
    f = tmp_path / "decl.bpl"
    rejected = {}
    for name, pos in _POSITIONS.items():
        for ty in _DECLARED:
            decl = pos.format(ty)
            f.write_text("struct s { a : int }\n" + decl + "\n")
            code, _, err = run_cli(capsys, "check", str(f))
            if code == 1:
                rejected[name, ty] = err.split("error[")[1].split("]")[0]
                continue
            assert code == 0, (decl, err)
            for mode in ("ebpf", "host"):
                out = tmp_path / f"decl-{mode}.c"
                assert run_cli(capsys, "emit-c", str(f), "-o", str(out),
                               f"--mode={mode}") == (0, "", ""), (decl, mode)
                if cc is not None:
                    r = subprocess.run([cc, "-std=c11", "-fsyntax-only",
                                        str(out)], capture_output=True,
                                       text=True)
                    assert r.returncode == 0, (decl, mode, r.stderr)
    assert rejected == _REJECTED
