import re
import subprocess

import pytest

from beepl import typecheck
from beepl.cgen import audit_guards, cdecl, ctype, emit_program, mangle
from beepl.core import (
    ArrayTy, BOOL, BYTES, C_TAKEN, FunDecl, HOST_TAKEN, INT, LONG, Let, Match,
    OptionTy, Pbytes, Program, Psome, RefTy, U8, VInt, Var, expr_children,
    subst, with_children,
)
from beepl.driver import build_host, find_cc, load_corpus
from beepl.gen import GenConfig, generate_well_typed
from beepl.interp import ExternalWorld, run_program
from beepl.typecheck import check_program, check_source


def emit_src(src, mode="host"):
    return emit_program(check_source(src), mode)


def norm(text):
    return re.sub(r"\s+", " ", text)


ACCEPTED_CORPUS = ["bprog1.bpl", "bprog3.bpl", "bprog4.bpl", "shift64.bpl"]


# --- shapes from the translation rules ---------------------------------------------

def test_trivial_function_shape():
    cu = emit_src("fun f() : int { 1 }", "ebpf")
    assert re.search(r"i32 f\(void\) \{\s*return 1;\s*\}", cu.text)


def test_ref_lowering_fresh_local_and_address():
    cu = emit_src("fun f() : int { let x : int* = ref(2) in !x }", "ebpf")
    body = norm(cu.text)
    assert "__bpl_tmp0 = 2;" in body
    assert "x = (&__bpl_tmp0);" in body


def test_ref_of_compound_expression():
    cu = emit_src("fun f(int a) : int { let x : int* = ref(a + 1) in !x }",
                  "ebpf")
    assert re.search(r"__bpl_tmp0 = \(i32\)\(\(u32\)a \+ \(u32\)1\);",
                     cu.text)


def test_for_lowering_up():
    cu = emit_src(
        "fun f() : int { let x : int* = ref(0) in "
        "let _ = for (1 ... 5, Up) { x := !x + 1 } in !x }", "ebpf")
    body = norm(cu.text)
    assert re.search(r"__bpl_l0 = 1; __bpl_h0 = 5;", body)
    assert re.search(r"if \(__bpl_l0 <= __bpl_h0\) \{ "
                     r"for \(__bpl_i0 = __bpl_l0; __bpl_i0 <= __bpl_h0; "
                     r"__bpl_i0\+\+\)", body)


def test_for_lowering_down():
    cu = emit_src("fun f() : unit { for (5 ... 1, Down) { () } }", "ebpf")
    body = norm(cu.text)
    assert ">= __bpl_h0" in body and "__bpl_i0--" in body


def test_guarded_mod():
    cu = emit_src("fun f(int w1, int w0) : int { w1 % w0 }", "ebpf")
    body = norm(cu.text)
    assert re.search(
        r"\(w0 == 0 \? 0 : \(\(w1 == BPL_INT_MIN && w0 == -1\) \? 0 : "
        r"w1 % w0\)\)", body)
    assert cu.guarded_ops == 1


def test_guarded_long_shift():
    cu = emit_src("fun f(long r, long s) : long { r >> s }", "ebpf")
    assert re.search(r"\(\(u64\)s >= 64 \? 0 : \(r >> s\)\)", norm(cu.text))


def test_literal_shift_is_const_safe():
    cu = emit_src("fun f(int a) : int { a << 3 }", "ebpf")
    assert cu.const_safe_ops == 1 and cu.guarded_ops == 0
    assert "? 0 :" not in cu.text


def test_plain_add_wraps_through_unsigned():
    cu = emit_src("fun f(int a, int b) : int { a + b }", "ebpf")
    assert "(i32)((u32)a + (u32)b)" in cu.text


def test_neg_wraps_through_unsigned():
    cu = emit_src("fun f(int a) : int { -a }", "ebpf")
    assert "(i32)(0u - (u32)a)" in cu.text


def test_match_option_null_guard():
    tp = check_program(load_corpus("bprog3.bpl"))
    body = norm(emit_program(tp, "ebpf").text)
    assert re.search(r"if \(p == NULL\) \{ return -1; \} else \{ "
                     r"p_prime = p; return \(i32\)\(u32\)\(\(\*p_prime\)\);",
                     body)


def test_match_option_guard_always_emitted():
    src = ("fun f() : int { match some(ref(1)) with "
           "| pnone => 0 | psome p => !p }")
    body = norm(emit_src(src, "ebpf").text)
    assert "== NULL" in body


def test_match_bytes_bounds_check_before_field_access():
    tp = check_program(load_corpus("bprog4.bpl"))
    text = norm(emit_program(tp, "ebpf").text)
    m = re.search(r"(\w+)\.start \+ sizeof\(struct ethhdr\) > \1\.end", text)
    assert m, text
    read = text.find("->h_proto")
    assert read == -1 or read > m.start()
    assert ".start += sizeof(struct ethhdr);" in text


def test_match_bytes_prim_target():
    src = ('#section "xdp"\n'
           "fun f(option(struct xdp_md*) ctx) : int {\n"
           "  match ctx.data with | x, u8 => x | _ => 0 }\n")
    body = norm(emit_src(src, "ebpf").text)
    assert "+ sizeof(u8) >" in body
    assert "*(u8 *)" in body


def test_sec_annotations_in_ebpf_mode_only():
    src = ('#section "xdp"\nfun f(option(struct xdp_md*) c) : int { 1 }\n'
           'char LICENSE[] #section "license" = "GPL";')
    ebpf = emit_src(src, "ebpf").text
    host = emit_src(src, "host").text
    assert 'SEC("xdp")' in ebpf and 'SEC("license")' in ebpf
    assert "SEC(" not in host
    assert "int main(void)" in host and "printf" in host
    assert "int main(void)" not in ebpf


def test_emit_deterministic():
    src = load_corpus("bprog4.bpl")
    tp = check_program(src)
    assert emit_program(tp, "ebpf").text == emit_program(tp, "ebpf").text


def test_ctype_mapping():
    assert ctype(INT) == "i32"
    assert ctype(LONG) == "i64"
    assert ctype(U8) == "u8"
    assert ctype(BOOL) == "bpl_bool"
    assert ctype(RefTy(LONG)) == "i64 *"
    assert ctype(OptionTy(RefTy(LONG))) == "i64 *"  # options erase
    assert ctype(BYTES) == "bytes_t"
    assert cdecl(ArrayTy(U8, 6), "h_dest") == "u8 h_dest[6]"


def test_mangle_primes():
    assert mangle("p'", "ebpf") == "p_prime"


def test_mangle_is_one_to_one_and_avoids_taken_names():
    names = ["x", "x'", "x''", "x_prime", "x_prime'", "_x", "__x", "_X",
             "bpl_x", "bpl_x'", "bpl'_x", "short", "short'", "i64", "NULL",
             "main", "main'", "printf", "bpl_main", "x__2", "_Bool"]
    for mode in ("ebpf", "host"):
        cnames = [mangle(x, mode) for x in names]
        assert len(set(cnames)) == len(names), mode
        for c in cnames:
            assert re.fullmatch(r"[A-Za-z]\w*", c), c
            assert c not in (HOST_TAKEN if mode == "host" else C_TAKEN)
    assert mangle("main", "ebpf") == "main"
    assert mangle("main", "host") == "bpl_main"


def test_bytes_t_prelude_definition():
    cu = emit_src("fun f() : int { 1 }")
    assert ("typedef struct { unsigned char *start; unsigned char *end; } "
            "bytes_t;") in cu.text


# --- audits ----------------------------------------------------------------------------

def test_audit_zero_violations_on_corpus():
    for name in ["bprog1.bpl", "bprog3.bpl", "bprog4.bpl", "shift64.bpl"]:
        tp = check_program(load_corpus(name))
        for mode in ("ebpf", "host"):
            cu = emit_program(tp, mode)
            assert audit_guards(cu) == [], name


def test_audit_over_generated_programs():
    for seed in range(25):
        p = generate_well_typed(GenConfig(seed=seed))
        cu = emit_program(check_program(p), "host")
        assert audit_guards(cu) == [], seed


def test_audit_flags_unguarded_output():
    cu = emit_src("fun f(int a, int b) : int { a / b }", "ebpf")
    broken = type(cu)(cu.text, 0, 0)  # claim nothing is guarded
    assert audit_guards(broken)


# --- typed AST -----------------------------------------------------------------------

def test_emission_reads_the_checkers_types(monkeypatch):
    """Emission uses the types that checking recorded and infers none."""
    tps = [check_program(load_corpus(name)) for name in ACCEPTED_CORPUS]
    tps += [check_program(generate_well_typed(
                GenConfig(seed=seed, bytes_match=seed % 2 == 1,
                          externals=seed % 2 == 1)))
            for seed in range(50)]

    def no_inference(*args, **kwargs):
        raise AssertionError("cgen re-inferred a type")

    monkeypatch.setattr(typecheck, "infer_elab", no_inference)
    for tp in tps:
        for mode in ("ebpf", "host"):
            assert emit_program(tp, mode).text


# --- compile-and-run smoke --------------------------------------------------------------

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")


@needs_cc
def test_host_output_compiles_and_matches(tmp_path):
    cases = {
        "fun main() : int { let x : int* = ref(2) in !x }": 2,
        "fun main() : int { 7 % 0 }": 0,
        "fun main() : int { let a : int = -5 in a / 3 }": -1,
        "fun main() : int { (int)(1099511627776L >> 38) }": 4,
        # A struct initialization inside a value-position conditional.
        "struct pt { a : int, b : int } "
        "fun main() : int vars (struct pt* q) { let r : struct pt* = "
        "if true then q { a = 1, b = 2 } else q { a = 3, b = 4 } in r.a }": 1,
        # On none, an option match prefers the pnone arm to an earlier
        # wildcard, in tail and in value position.
        "fun main() : int { let o : option(int*) = none in "
        "match o with | _ => 1 | pnone => 2 }": 2,
        "fun main() : int { let o : option(int*) = none in let r : int = "
        "match o with | _ => 1 | pnone => 2 in r }": 2,
        # Names that are not C names as they stand.
        "global x' : int = 1; fun main() : int { x' }": 1,
        "fun main() : int { let short : int = 3 in "
        "let register : int = 4 in short + register }": 7,
        "global x_prime : int = 5; global x' : int = 1; "
        "fun f'(int i64) : int { i64 } fun main() : int { f'(x') + x_prime }": 6,
    }
    cc = find_cc()
    for i, (src, expected) in enumerate(cases.items()):
        tp = check_source(src)
        assert run_program(tp).value == VInt(expected)
        cfile = tmp_path / f"case{i}.c"
        cfile.write_text(emit_program(tp, "host").text)
        exe = tmp_path / f"case{i}"
        r = build_host(cc, cfile, exe)
        assert r.returncode == 0, r.stderr
        out = subprocess.run([str(exe)], capture_output=True, text=True)
        assert out.stdout.strip() == str(expected), src
        assert out.returncode == expected & 0xFF


@needs_cc
def test_corpus_host_binaries_match_interpreter(tmp_path):
    """The host shim passes a zeroed, never-null context (an empty packet),
    as the interpreter's entry call does with an empty world."""
    cc = find_cc()
    for name in ACCEPTED_CORPUS:
        tp = check_program(load_corpus(name))
        expected = run_program(tp, ExternalWorld()).value.value
        cfile = tmp_path / f"{name}.c"
        cfile.write_text(emit_program(tp, "host").text)
        exe = tmp_path / name[:-4]
        r = build_host(cc, cfile, exe, "-O1")
        assert r.returncode == 0, f"{name}: {r.stderr}"
        out = subprocess.run([str(exe)], capture_output=True, text=True,
                             timeout=30)
        assert out.stdout.strip() == str(expected), name
        assert out.returncode == expected & 0xFF, name


@needs_cc
def test_host_helper_stubs_answer_as_the_default_world(tmp_path):
    """A host stub returns its helper's host answer, which is what the
    interpreter's default world answers: the uid/gid, and a map miss."""
    cc = find_cc()
    for i, src in enumerate((
            "fun main() : long { bpf_get_current_uid_gid() }",
            "global counter_table : option(struct bpf_map*) = none;\n"
            "fun main() : long { let k : long* = ref(7) in "
            "match bpf_map_lookup_elem(counter_table, k) with "
            "| pnone => -1 | psome v => !v }")):
        tp = check_source(src)
        expected = run_program(tp, ExternalWorld()).value.value
        cfile = tmp_path / f"helper{i}.c"
        cfile.write_text(emit_program(tp, "host").text)
        exe = tmp_path / f"helper{i}"
        r = build_host(cc, cfile, exe)
        assert r.returncode == 0, r.stderr
        out = subprocess.run([str(exe)], capture_output=True, text=True,
                             timeout=30)
        assert out.stdout.strip() == str(expected), src
        assert out.returncode == expected & 0xFF, src


@needs_cc
def test_corpus_c_compiles_in_both_modes(tmp_path):
    cc = find_cc()
    for name in ["bprog1.bpl", "bprog2.bpl", "bprog3.bpl", "bprog4.bpl",
                 "shift64.bpl"]:
        if name == "bprog2.bpl":
            continue  # rejected by the checker, nothing to emit
        tp = check_program(load_corpus(name))
        for mode in ("ebpf", "host"):
            cfile = tmp_path / f"{name}.{mode}.c"
            cfile.write_text(emit_program(tp, mode).text)
            args = [cc, "-std=c11", "-c", "-o", str(tmp_path / "out.o"),
                    str(cfile)]
            r = subprocess.run(args, capture_output=True, text=True)
            assert r.returncode == 0, f"{name} {mode}: {r.stderr}"


# Each binder of a generated program gets one of these, or its own name
# primed: C keywords that BeePL lets a program use as names, names the
# prelude and shim define, and names that look like the backend's own.
HOSTILE_NAMES = [
    "short", "register", "auto", "static", "volatile", "double", "signed",
    "unsigned", "return", "while", "do", "goto", "switch", "case", "default",
    "const", "float", "union", "enum", "typedef", "sizeof", "void", "break",
    "continue", "restrict", "inline", "i64", "u64", "bytes_t", "NULL", "SEC",
    "printf", "bpl_bool", "bpl_main", "x_prime", "_Bool", "__x", "_tmp",
]


def _binders(e):
    if isinstance(e, Let) and e.name != "_":
        yield e.name
    if isinstance(e, Match):
        yield from (p.binder for p, _ in e.arms
                    if isinstance(p, (Psome, Pbytes)))
    for c in expr_children(e):
        yield from _binders(c)


def _rename_binders(e, new):
    """e with each binder x in ``new`` renamed new[x], with its uses."""
    e = with_children(e, [_rename_binders(c, new) for c in expr_children(e)])
    if isinstance(e, Let) and e.name in new:
        return Let(new[e.name], e.declared, e.bound,
                   subst(e.body, {e.name: Var(new[e.name])}))
    if isinstance(e, Match):
        arms = []
        for p, body in e.arms:
            if isinstance(p, (Psome, Pbytes)) and p.binder in new:
                body = subst(body, {p.binder: Var(new[p.binder])})
                p = Psome(new[p.binder]) if isinstance(p, Psome) else \
                    Pbytes(new[p.binder], p.target, p.fields)
            arms.append((p, body))
        return Match(e.scrutinee, tuple(arms))
    return e


def _with_hostile_names(p: Program, tp) -> Program:
    """p with its locals, parameters and non-entry functions renamed to
    distinct hostile or primed names."""
    entry = tp.program.entry_point().name
    funs = [d for d in p.decls if isinstance(d, FunDecl)]
    old = sorted({n for d in funs for n in _binders(d.body)}
                 | {x for d in funs for x, _ in d.args}
                 | {d.name for d in funs if d.name != entry})
    new = {x: HOSTILE_NAMES[i // 2] if i % 2 == 0 and i // 2 < len(
           HOSTILE_NAMES) else x + "'" for i, x in enumerate(old)}
    decls = []
    for d in p.decls:
        if isinstance(d, FunDecl):
            body = subst(_rename_binders(d.body, new), {
                x: Var(new[x]) for x in [x for x, _ in d.args]
                + [f.name for f in funs] if x in new})
            d = FunDecl(new.get(d.name, d.name), d.rt,
                        tuple((new[x], ty) for x, ty in d.args), body,
                        d.vars, d.ef, d.sec)
        decls.append(d)
    return Program(tuple(decls), p.composites)


@needs_cc
def test_hostile_binder_names_compile_and_match(tmp_path):
    """Renamed to C keywords, taken names and primed names, generated
    programs still compile in both modes, and the host binary prints what
    the interpreter computes."""
    cc = find_cc()
    for seed in range(12):
        extras = seed % 2 == 1
        p = generate_well_typed(GenConfig(seed=seed, bytes_match=extras,
                                          externals=extras))
        tp = check_program(_with_hostile_names(p, check_program(p)))
        expected = run_program(tp, ExternalWorld()).value.value
        assert expected == run_program(check_program(p),
                                       ExternalWorld()).value.value
        for mode in ("ebpf", "host"):
            cfile = tmp_path / f"{seed}.{mode}.c"
            cfile.write_text(emit_program(tp, mode).text)
            exe = tmp_path / f"{seed}.{mode}"
            r = build_host(cc, cfile, exe) if mode == "host" else \
                subprocess.run([cc, "-std=c11", "-c", "-o", str(exe),
                                str(cfile)], capture_output=True, text=True)
            assert r.returncode == 0, f"seed {seed} {mode}: {r.stderr}"
        out = subprocess.run([str(tmp_path / f"{seed}.host")],
                             capture_output=True, text=True, timeout=30)
        assert out.stdout.strip() == str(expected), seed


SANITIZE = ["-fsanitize=undefined,address", "-fno-sanitize-recover=all"]


def _sanitized(cc, ctext, exe):
    """Build host C under UBSan and ASan and run it."""
    cfile = exe.with_suffix(".c")
    cfile.write_text(ctext)
    r = build_host(cc, cfile, exe, "-g", *SANITIZE)
    assert r.returncode == 0, r.stderr
    return subprocess.run([str(exe)], capture_output=True, text=True,
                          timeout=30)


@needs_cc
def test_host_c_has_no_undefined_behaviour(tmp_path):
    """Generated programs' host binaries run clean under UBSan and ASan and
    print what the interpreter computes.  As a control, the same build of a
    division whose guard is dropped makes UBSan report."""
    cc = find_cc()
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if build_host(cc, probe, tmp_path / "probe", *SANITIZE).returncode != 0:
        pytest.skip("the C compiler does not link the sanitizers")
    for seed in range(20):
        for extras in (False, True):
            tp = check_program(generate_well_typed(
                GenConfig(seed=seed, bytes_match=extras, externals=extras)))
            expected = run_program(tp, ExternalWorld()).value.value
            out = _sanitized(cc, emit_program(tp, "host").text,
                             tmp_path / f"s{seed}_{int(extras)}")
            assert (out.stdout.strip(), out.stderr) == (str(expected), ""), \
                (seed, extras)

    tp = check_source("fun main() : int { let z : int = 0 in 7 / z }")
    assert run_program(tp).value == VInt(0)
    guard = re.compile(r"\((\w+) == 0 \? 0 : \(\(\w+ == BPL_INT_MIN && "
                       r"\1 == -1\) \? 0 : ([^()]+)\)\)")
    unguarded, n = guard.subn(r"(\2)", emit_program(tp, "host").text)
    assert n == 1, "the control's division has no guard to drop"
    out = _sanitized(cc, unguarded, tmp_path / "unguarded")
    assert out.returncode != 0 and "division by zero" in out.stderr
