"""C code generation for checked BeePL programs.

The translation inserts the guards that make the output free of the undefined
behaviors the source semantics already excludes: option matches become NULL
checks, byte-pattern matches become pointer-range checks, division/modulo and
shifts are wrapped in operand guards, and signed arithmetic is routed through
unsigned idioms so it wraps instead of overflowing.

Output is a single self-contained translation unit.  ``mode="ebpf"`` emits
SEC()-annotated code against helper stubs; ``mode="host"`` adds a main shim
that prints the entry point's result, for differential runs against the
interpreter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .core import (
    App, ArrayTy, Assign, BOOL, BoolTy, Bop, BopKind, BYTES, BytesTy, C_TAKEN,
    Cast, COMPARE_BOPS, Cond, ConstBool, ConstInt, ConstLong, Deref, Direction,
    Expr, ExtDecl, Field, For, FunDecl, GlobDecl, HELPERS, HOST_TAKEN, INT,
    IntTy, KERNEL_STRUCTS, Let, LOGIC_BOPS, LONG, LongTy, Match, NoneLit,
    OptionTy, Pnone, Prim, Psome, RefOp, RefTy, Sign, Signature, SomeLit,
    StructInit, StructTy, Ty, UNIT, UnitTy, UnitLit, Uop, UopKind, Var,
    entry_arg_given, kernel_object, select_arm,
)
from .typecheck import TypedProgram, lane_type


class CgenError(Exception):
    pass


@dataclass
class CUnit:
    text: str
    guarded_ops: int  # div/mod/shift sites emitted with an operand guard
    const_safe_ops: int  # sites proven safe from literal operands


PRELUDE = """\
typedef signed char i8;
typedef short i16;
typedef int i32;
typedef long long i64;
typedef unsigned char u8;
typedef unsigned short u16;
typedef unsigned int u32;
typedef unsigned long long u64;
typedef unsigned char bpl_bool;
#define NULL ((void *)0)
#define BPL_INT_MIN (-2147483647 - 1)
#define BPL_LONG_MIN (-9223372036854775807LL - 1LL)
typedef struct { unsigned char *start; unsigned char *end; } bytes_t;
""" + "".join(co.c_decl + "\n" for co in KERNEL_STRUCTS.values())

def ctype(ty: Ty) -> str:
    if isinstance(ty, BoolTy):
        return "bpl_bool"
    if isinstance(ty, IntTy):
        return ("u" if ty.sign is Sign.UNSIGNED else "i") + str(ty.size)
    if isinstance(ty, LongTy):
        return "u64" if ty.sign is Sign.UNSIGNED else "i64"
    if isinstance(ty, RefTy):
        return ctype(ty.target) + " *"
    if isinstance(ty, OptionTy):
        return ctype(ty.inner)
    if isinstance(ty, BytesTy):
        return "bytes_t"
    if isinstance(ty, StructTy):
        return f"struct {ty.sid}"
    if isinstance(ty, UnitTy):
        return "void"
    raise CgenError(f"type {ty} has no C rendering")


def cdecl(ty: Ty, name: str) -> str:
    if isinstance(ty, ArrayTy):
        return f"{ctype(ty.elem)} {name}[{ty.length}]"
    return f"{ctype(ty)} {name}"


def emit_extern(name: str, sig: Signature, mode: str) -> str:
    """A callable the program does not define: a host C stub that returns its
    answer, or in eBPF C the helper it numbers or an extern."""
    rt = ctype(sig.res_type)
    if mode == "host":
        args = ", ".join(f"{ctype(t)} __bpl_a{i}"
                         for i, t in enumerate(sig.arg_types)) or "void"
        body = "" if sig.res_type == UNIT else f" return {sig.answer};"
        ignores = "".join(f" (void) __bpl_a{i};"
                          for i in range(len(sig.arg_types)))
        return f"static {rt} {name}({args}) {{{ignores}{body} }}"
    args = ", ".join(ctype(t) for t in sig.arg_types) or "void"
    if sig.number is None:
        return f"extern {rt} {name}({args});"
    star = "" if rt.endswith("*") else " "
    return f"static {rt}{star}(*{name})({args}) = (void *) {sig.number};"


# What each mode defines before the program: host C completes the map
# struct, whose kernel objects it points at; then every helper.
MODE_PRELUDE = {mode: "\n".join([text] + [
    emit_extern(name, sig, mode) for name, sig in HELPERS.items()])
    for mode, text in (
        ("ebpf", "#define SEC(name) __attribute__((section(name), used))"),
        ("host", "extern int printf(const char *, ...);\n"
                 "struct bpf_map { int fd; };"))}


def mangle(name: str, mode: str) -> str:
    """The C name of a BeePL global, function, parameter or local; one to
    one.  A name stands for itself, ``'`` written ``_prime``, unless it holds
    ``_prime``, starts with ``_`` (reserved in C) or ``bpl_``, or is taken.
    Then it gets the prefix ``bpl_`` with ``_`` doubled, which no other name,
    ``__bpl_`` temporary or taken name has."""
    cname = name.replace("'", "_prime")
    if ("_prime" in name or cname[0] == "_" or cname.startswith("bpl_")
            or cname in (HOST_TAKEN if mode == "host" else C_TAKEN)):
        return "bpl_" + name.replace("_", "__").replace("'", "_prime")
    return cname


_SIMPLE_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|-?\d+(?:LL)?|\(&[A-Za-z_][A-Za-z0-9_]*\)")


def _is_simple(c: str) -> bool:
    return bool(_SIMPLE_RE.fullmatch(c))


def _p(c: str) -> str:
    """Parenthesize unless trivially atomic."""
    return c if c.replace("_", "").isalnum() else f"({c})"


_LITERAL_TYPES = {ConstInt: INT, ConstLong: LONG, ConstBool: BOOL,
                  UnitLit: UNIT}


@dataclass
class _Frag:
    stmts: list[str]
    cexpr: Optional[str]  # None for unit-typed expressions
    pure: bool  # safe to duplicate / reorder across statements


# The destination of a value in tail position: the function returns it.
RETURN = object()


class FunctionEmitter:
    """Lowers one function body.  ``emit_value`` gives an expression's C
    value as a fragment; ``emit_into`` sends it to a destination: RETURN, a
    C variable to assign, or None to drop it."""

    def __init__(self, gen: "ProgramEmitter", fd: FunDecl):
        self.gen = gen
        self.fd = fd
        self.hoisted: dict[str, int] = {}  # temps made so far, by prefix
        self.locals: list[str] = []  # hoisted declarations
        # Each source name in scope: its C name (None for a binder that
        # carries no C value) and its type; shadowed entries wait below.
        self.scope: dict[str, tuple[Optional[str], Ty]] = {
            g: (gen.cnames[g], ty) for g, ty in gen.globals_gamma.items()}
        self.shadowed: list[tuple[str, Optional[tuple]]] = []
        self.used_cnames: set[str] = set(gen.cnames.values())
        self.struct_storage: dict[str, str] = {}
        for x, ty in fd.args:
            self.scope[x] = (self.fresh_cname(x), ty)
        for y, ty in fd.vars:
            storage = self.fresh_cname(y, "_storage")
            self.struct_storage[y] = storage
            self.scope[y] = (f"(&{storage})", ty)

    # -- helpers ---------------------------------------------------------

    def ty_of(self, e: Expr) -> Ty:
        """The checker's type of an elaborated subterm: a variable's comes
        from its binder, a literal's from its class, and a compound node
        carries the type that elaboration recorded on it."""
        if isinstance(e, Var):
            return self.scope[e.name][1]
        ty = _LITERAL_TYPES.get(type(e)) or e.ty
        if ty is None:
            raise CgenError(f"{type(e).__name__} carries no checked type")
        return ty

    def hoist(self, ty: Ty, prefix: str = "tmp") -> str:
        n = self.hoisted.get(prefix, 0)
        self.hoisted[prefix] = n + 1
        name = f"__bpl_{prefix}{n}"
        self.locals.append(cdecl(ty, name) + ";")
        return name

    def bind(self, name: str, cname: Optional[str], ty: Ty) -> None:
        self.shadowed.append((name, self.scope.get(name)))
        self.scope[name] = (cname, ty)

    def fresh_cname(self, name: str, suffix: str = "") -> str:
        """A C name for binder ``name`` that no other C name here has."""
        base = cname = mangle(name, self.gen.mode) + suffix
        n = 1
        while cname in self.used_cnames:
            n += 1
            cname = f"{base}__{n}"
        self.used_cnames.add(cname)
        return cname

    def bind_local(self, name: str, ty: Ty) -> str:
        """Bind ``name`` to a fresh hoisted C variable and return it."""
        cname = self.fresh_cname(name)
        self.locals.append(cdecl(ty, cname) + ";")
        self.bind(name, cname, ty)
        return cname

    def unbind(self, count: int = 1) -> None:
        """Undo the last ``count`` binds, uncovering what they shadowed."""
        for _ in range(count):
            name, entry = self.shadowed.pop()
            if entry is None:
                del self.scope[name]
            else:
                self.scope[name] = entry

    def materialize(self, frag: _Frag, ty: Ty) -> _Frag:
        """Pin a value into a temp so later statements cannot disturb it."""
        if frag.cexpr is None or frag.pure and _is_simple(frag.cexpr):
            return frag
        t = self.hoist(ty)
        return _Frag(frag.stmts + [f"{t} = {frag.cexpr};"], t, True)

    # -- function --------------------------------------------------------

    def emit(self) -> str:
        fd = self.fd
        body_stmts = self.emit_into(fd.body, RETURN)
        args = ", ".join(cdecl(ty, self.scope[x][0]) for x, ty in fd.args) \
            or "void"
        struct_vars = [cdecl(ty.target, self.struct_storage[y]) + ";"
                       for y, ty in fd.vars]
        head = f"{ctype(fd.rt)} {self.gen.cnames[fd.name]}({args})"
        if fd.sec is not None and self.gen.mode == "ebpf":
            head = f'SEC("{fd.sec}")\n' + head
        lines = [head + " {"]
        for d in struct_vars + self.locals:
            lines.append("    " + d)
        for st in body_stmts:
            lines.extend("    " + ln for ln in st.splitlines())
        lines.append("}")
        return "\n".join(lines)

    # -- destinations ------------------------------------------------------

    def emit_into(self, e: Expr, dest) -> list[str]:
        """Statements that evaluate ``e`` and send its value to ``dest``.
        A ``let`` sends its body on; an ``if`` or ``match`` sends its
        branches on only in tail position, and elsewhere is a value."""
        if isinstance(e, Let):
            stmts = self.emit_let_binding(e)
            stmts += self.emit_into(e.body, dest)
            self.unbind()
            return stmts
        if dest is RETURN and isinstance(e, Cond):
            g = self.emit_value(e.guard)
            return g.stmts + self._if_else(
                g.cexpr, self.emit_into(e.then, RETURN),
                self.emit_into(e.otherwise, RETURN))
        if dest is RETURN and isinstance(e, Match):
            return self.emit_match(e, RETURN)[0]
        return _deliver(self.emit_value(e), dest)

    def _if_else(self, guard: str, then_s: list[str],
                 else_s: list[str]) -> list[str]:
        out = [f"if ({guard}) {{"]
        out.extend("    " + ln for st in then_s for ln in st.splitlines())
        if else_s:
            out.append("} else {")
            out.extend("    " + ln for st in else_s for ln in st.splitlines())
        out.append("}")
        return out

    def emit_let_binding(self, e: Let) -> list[str]:
        """Statements performing the binding, which stays in scope until
        the caller's ``unbind``."""
        bound = self.emit_value(e.bound)
        if e.name == "_" or isinstance(e.declared, UnitTy) \
                or bound.cexpr is None:
            self.bind(e.name, None, e.declared)
            return _deliver(bound, None)
        return _deliver(bound, self.bind_local(e.name, e.declared))

    # -- value position ----------------------------------------------------

    def emit_value(self, e: Expr) -> _Frag:
        if isinstance(e, Var):
            cname, ty = self.scope[e.name]
            # unit carries no C value
            return _Frag([], None if isinstance(ty, UnitTy) else cname, True)
        if isinstance(e, ConstInt):
            if e.value == -(1 << 31):
                return _Frag([], "BPL_INT_MIN", True)
            return _Frag([], str(e.value), True)
        if isinstance(e, ConstLong):
            if e.value == -(1 << 63):
                return _Frag([], "BPL_LONG_MIN", True)
            return _Frag([], f"{e.value}LL", True)
        if isinstance(e, ConstBool):
            return _Frag([], "1" if e.value else "0", True)
        if isinstance(e, UnitLit):
            return _Frag([], None, True)
        if isinstance(e, NoneLit):
            return _Frag([], "NULL", True)
        if isinstance(e, SomeLit):
            return self.emit_value(e.value)  # option erases to the pointer
        if isinstance(e, Prim):
            return self.emit_prim(e)
        if isinstance(e, App):
            return self.emit_app(e)
        if isinstance(e, Let):
            stmts = self.emit_let_binding(e)
            body = self.emit_value(e.body)
            self.unbind()
            return _Frag(stmts + body.stmts, body.cexpr, False)
        if isinstance(e, Cond):
            return self.emit_cond_value(e)
        if isinstance(e, Match):
            stmts, t = self.emit_match(e)
            return _Frag(stmts, t, False)
        if isinstance(e, Field):
            return self.emit_field(e)
        if isinstance(e, StructInit):
            return self.emit_struct_init(e)
        if isinstance(e, For):
            return self.emit_for(e)
        raise CgenError(f"cannot emit {type(e).__name__}")

    # -- operators ---------------------------------------------------------

    def emit_prim(self, e: Prim) -> _Frag:
        op = e.op
        if isinstance(op, RefOp):
            frag = self.emit_value(e.operands[0])
            t = self.hoist(e.ty.target)
            return _Frag(frag.stmts + [f"{t} = {frag.cexpr};"], f"(&{t})", True)
        if isinstance(op, Deref):
            inner = e.operands[0]
            ity = self.ty_of(inner)
            assert isinstance(ity, RefTy), "deref operand must be a ref"
            frag = self.emit_value(inner)
            return _Frag(frag.stmts, f"(*{_p(frag.cexpr)})", False)
        if isinstance(op, Assign):
            lhs = self.emit_value(e.operands[0])
            lty = self.ty_of(e.operands[0])
            assert isinstance(lty, RefTy), "assignment goes through a ref"
            rhs = self.emit_value(e.operands[1])
            if rhs.stmts:
                lhs = self.materialize(lhs, lty)
            stmts = lhs.stmts + rhs.stmts + \
                [f"*{_p(lhs.cexpr)} = {rhs.cexpr};"]
            return _Frag(stmts, None, False)
        if isinstance(op, Uop):
            inner = e.operands[0]
            frag = self.emit_value(inner)
            c = _p(frag.cexpr)
            if op.kind is UopKind.LOGNOT:
                return _Frag(frag.stmts, f"(!{c})", frag.pure)
            lane = self.ty_of(inner)
            u, s = ("u64", "i64") if isinstance(lane, LongTy) else ("u32", "i32")
            suffix = "uLL" if u == "u64" else "u"
            if op.kind is UopKind.NEG:
                return _Frag(frag.stmts,
                             f"({s})(0{suffix} - ({u}){c})", frag.pure)
            return _Frag(frag.stmts, f"(~{c})", frag.pure)
        if isinstance(op, Cast):
            inner = e.operands[0]
            frag = self.emit_value(inner)
            c = _p(frag.cexpr)
            if isinstance(op.target, IntTy):
                return _Frag(frag.stmts, f"(i32)(u32){c}", frag.pure)
            return _Frag(frag.stmts, f"(i64){c}", frag.pure)
        if isinstance(op, Bop):
            return self.emit_bop(e, op.kind)
        raise CgenError(f"cannot emit primitive {op!r}")

    def emit_bop(self, e: Prim, kind: BopKind) -> _Frag:
        lhs_e, rhs_e = e.operands
        lty = self.ty_of(lhs_e)
        lhs = self.emit_value(lhs_e)
        rhs = self.emit_value(rhs_e)
        if rhs.stmts:
            lhs = self.materialize(lhs, lty)
        u, s, width, tmin = (("u64", "i64", 64, "BPL_LONG_MIN")
                             if isinstance(lty, LongTy)
                             else ("u32", "i32", 32, "BPL_INT_MIN"))
        # A literal right operand can prove a division or a shift safe.
        # Otherwise a guard reads both operands of / and %, or the amount
        # of a shift, a second time, so materialize pins them first.
        n = rhs_e.value if isinstance(rhs_e, (ConstInt, ConstLong)) else None
        divmod_ = kind is BopKind.DIV or kind is BopKind.MOD
        shift = kind is BopKind.SHL or kind is BopKind.SHR
        guarded = (divmod_ and n in (None, 0, -1)
                   or shift and (n is None or not 0 <= n < width))
        if guarded:
            if divmod_:
                lhs = self.materialize(lhs, lty)
            rhs = self.materialize(rhs, lty)
        stmts = lhs.stmts + rhs.stmts
        pure = lhs.pure and rhs.pure and not stmts
        a, b, cop = _p(lhs.cexpr), _p(rhs.cexpr), kind.value
        if kind in COMPARE_BOPS:
            return _Frag(stmts, f"({a} {cop} {b})", pure)
        if kind in LOGIC_BOPS:
            # Both operands are already evaluated 0/1 values; bitwise '&' and
            # '|' mirror the source semantics, which never short-circuits.
            cop = "&" if kind is BopKind.LAND else "|"
            return _Frag(stmts, f"({a} {cop} {b})", pure)
        if not (divmod_ or shift):
            return _Frag(stmts, f"({s})(({u}){a} {cop} ({u}){b})", pure)
        if kind is BopKind.SHL:
            c = f"({s})(({u}){a} << {b})"
        else:
            c = f"({a} {cop} {b})"
        if not guarded:
            self.gen.const_safe_ops += 1
            return _Frag(stmts, c, pure)
        self.gen.guarded_ops += 1
        if divmod_:
            c = (f"({b} == 0 ? 0 : "
                 f"(({a} == {tmin} && {b} == -1) ? 0 : {a} {cop} {b}))")
        else:
            c = f"(({u}){b} >= {width} ? 0 : {c})"
        return _Frag(stmts, c, False)

    # -- calls, fields, structs ---------------------------------------------

    def emit_app(self, e: App) -> _Frag:
        assert isinstance(e.callee, Var)
        name = e.callee.name
        sig = self.gen.tp.psi[name]
        frags = [(self.emit_value(a), ty)
                 for a, ty in zip(e.args, sig.arg_types)]
        # Pin earlier arguments whenever a later one needs statements.
        need_pin = False
        for i in range(len(frags) - 1, -1, -1):
            frag, ty = frags[i]
            if need_pin and frag.cexpr is not None:
                frags[i] = (self.materialize(frag, ty), ty)
            if frags[i][0].stmts:
                need_pin = True
        stmts = [st for frag, _ in frags for st in frag.stmts]
        args = ", ".join(frag.cexpr for frag, _ in frags)
        call = f"{self.gen.cnames[name]}({args})"
        if isinstance(e.ty, UnitTy):
            return _Frag(stmts + [call + ";"], None, False)
        t = self.hoist(e.ty, "r")
        return _Frag(stmts + [f"{t} = {call};"], t, True)

    def emit_field(self, e: Field) -> _Frag:
        tty = self.ty_of(e.target)
        frag = self.emit_value(e.target)
        sid = None
        deref = False
        if isinstance(tty, StructTy):
            sid = tty.sid
        elif isinstance(tty, RefTy) and isinstance(tty.target, StructTy):
            sid, deref = tty.target.sid, True
        elif isinstance(tty, OptionTy):
            sid, deref = tty.inner.target.sid, True
        co = self.gen.tp.composites[sid]
        fty = co.field_type(e.fname)
        if isinstance(fty, BytesTy):
            # Kernel contexts carry a packet as a {data, data_end} pair;
            # surface it as the bytes_t range the matcher checks against.
            t = self.hoist(BYTES, "b")
            acc = f"{_p(frag.cexpr)}->" if deref else f"{_p(frag.cexpr)}."
            stmts = frag.stmts + [
                f"{t}.start = (unsigned char *)(unsigned long){acc}data;",
                f"{t}.end = (unsigned char *)(unsigned long){acc}data_end;",
            ]
            return _Frag(stmts, t, True)
        acc = "->" if deref else "."
        return _Frag(frag.stmts, f"{_p(frag.cexpr)}{acc}{e.fname}", False)

    def emit_struct_init(self, e: StructInit) -> _Frag:
        ty = self.scope[e.name][1]
        assert isinstance(ty, RefTy) and isinstance(ty.target, StructTy)
        base = self.struct_storage[e.name]
        stmts: list[str] = []
        for fname, fe in e.fields:
            frag = self.emit_value(fe)
            stmts.extend(frag.stmts)
            stmts.append(f"{base}.{fname} = {frag.cexpr};")
        return _Frag(stmts, f"(&{base})", False)

    # -- control flow ---------------------------------------------------------

    def emit_cond_value(self, e: Cond) -> _Frag:
        g = self.emit_value(e.guard)
        then = self.emit_value(e.then)
        other = self.emit_value(e.otherwise)
        rty = self.ty_of(e)
        if not then.stmts and not other.stmts and then.cexpr is not None \
                and other.cexpr is not None:
            return _Frag(g.stmts,
                         f"({_p(g.cexpr)} ? {then.cexpr} : {other.cexpr})",
                         g.pure and then.pure and other.pure)
        t = self.hoist(rty) if not isinstance(rty, UnitTy) else None
        return _Frag(g.stmts + self._if_else(g.cexpr, _deliver(then, t),
                                             _deliver(other, t)), t, False)

    def emit_for(self, e: For) -> _Frag:
        lo = self.emit_value(e.lo)
        hi = self.emit_value(e.hi)
        if hi.stmts:
            lo = self.materialize(lo, self.ty_of(e.lo))
        l = self.hoist(LONG, "l")
        h = self.hoist(LONG, "h")
        i = self.hoist(LONG, "i")
        body_s = self.emit_into(e.body, None)
        if e.direction is Direction.UP:
            cmp_, step_ = "<=", f"{i}++"
        else:
            cmp_, step_ = ">=", f"{i}--"
        stmts = lo.stmts + hi.stmts + [
            f"{l} = {lo.cexpr};",
            f"{h} = {hi.cexpr};",
            f"if ({l} {cmp_} {h}) {{",
            f"    for ({i} = {l}; {i} {cmp_} {h}; {step_}) {{",
        ]
        stmts.extend("        " + ln for st in body_s for ln in st.splitlines())
        stmts.append("    }")
        stmts.append("}")
        return _Frag(stmts, None, False)

    def emit_match(self, e: Match, dest=None) -> tuple[list[str], object]:
        """The match's statements and where its arms send their value:
        RETURN in tail position, otherwise a temp hoisted after the
        scrutinee (None for a unit match), which is the match's value."""
        sty = self.ty_of(e.scrutinee)
        scrut = self.emit_value(e.scrutinee)
        if isinstance(sty, OptionTy):
            scrut = self.materialize(scrut, sty)
        else:  # bytes: the bounds check advances a copy of the view
            b = self.hoist(BYTES, "b")
            scrut = _Frag(scrut.stmts + [f"{b} = {scrut.cexpr};"], b, True)
        rty = self.ty_of(e)
        if dest is not RETURN and not isinstance(rty, UnitTy):
            dest = self.hoist(rty)
        if isinstance(sty, OptionTy):
            arms = self.emit_option_arms(e, sty.inner, scrut.cexpr, dest)
        else:
            arms = self.emit_bytes_arms(e, scrut.cexpr, dest)
        return scrut.stmts + arms, dest

    def emit_option_arms(self, e: Match, inner: Ty, c: str,
                         dest) -> list[str]:
        none_s = self.emit_into(select_arm(e.arms, Pnone)[1], dest)
        p, body = select_arm(e.arms, Psome)
        if isinstance(p, Psome):
            cname = self.bind_local(p.binder, inner)
            some_s = [f"{cname} = {c};"] + self.emit_into(body, dest)
            self.unbind()
        else:
            some_s = self.emit_into(body, dest)
        return self._if_else(f"{c} == NULL", none_s, some_s)

    def emit_bytes_arms(self, e: Match, b: str, dest) -> list[str]:
        (pat, body), (_, fallback) = e.arms
        fail_s = self.emit_into(fallback, dest)
        if isinstance(pat.target, StructTy):
            size_expr = f"sizeof(struct {pat.target.sid})"
            binder_c = self.bind_local(pat.binder, RefTy(pat.target))
            ok_s = [f"{binder_c} = (struct {pat.target.sid} *){b}.start;"]
            for y, yty in pat.fields:
                ycname = self.bind_local(y, lane_type(yty))
                ok_s.append(f"{ycname} = {binder_c}->{y};")
        else:
            size_expr = f"sizeof({ctype(pat.target)})"
            binder_c = self.bind_local(pat.binder, lane_type(pat.target))
            ok_s = [f"{binder_c} = *({ctype(pat.target)} *){b}.start;"]
        ok_s.append(f"{b}.start += {size_expr};")
        ok_s += self.emit_into(body, dest)
        self.unbind(1 + len(pat.fields))
        return self._if_else(f"{b}.start + {size_expr} > {b}.end",
                             fail_s, ok_s)


def _deliver(frag: _Frag, dest) -> list[str]:
    """A fragment's statements, then its value sent to ``dest``."""
    if dest is RETURN:
        return frag.stmts + ["return;" if frag.cexpr is None
                             else f"return {frag.cexpr};"]
    if dest is None:
        if frag.cexpr is not None and not frag.pure:
            return frag.stmts + [f"(void) ({frag.cexpr});"]
        return frag.stmts
    return frag.stmts + [f"{dest} = {frag.cexpr};"]


# ---------------------------------------------------------------------------
# Program emission
# ---------------------------------------------------------------------------

class ProgramEmitter:
    def __init__(self, tp: TypedProgram, mode: str = "host"):
        if mode not in ("host", "ebpf"):
            raise CgenError(f"unknown mode {mode!r}")
        self.tp = tp
        self.mode = mode
        self.guarded_ops = 0
        self.const_safe_ops = 0
        self.globals_gamma: dict[str, Ty] = {
            d.name: d.ty for d in tp.program.decls if isinstance(d, GlobDecl)
        }
        # Helpers and externs keep their names: they name C functions.
        self.cnames: dict[str, str] = {h: h for h in tp.psi} | {
            d.name: mangle(d.name, mode) for d in tp.program.decls
            if not isinstance(d, ExtDecl)}

    def emit(self) -> CUnit:
        parts = ["/* generated by beeplc; edits will be overwritten */",
                 PRELUDE, MODE_PRELUDE[self.mode]]
        for co in self.tp.program.composites:
            fields = "".join(f"    {cdecl(t, f)};\n" for f, t in co.fields)
            parts.append(f"struct {co.sid} {{\n{fields}}};")
        parts += [emit_extern(d.name, self.tp.psi[d.name], self.mode)
                  for d in self.tp.program.decls if isinstance(d, ExtDecl)]
        for d in self.tp.program.decls:
            if isinstance(d, GlobDecl):
                parts.append(self.emit_global(d))
        for d in self.tp.program.decls:
            if isinstance(d, FunDecl):
                parts.append(FunctionEmitter(self, d).emit())
        if self.mode == "host":
            parts.append(self.emit_main_shim())
        text = "\n\n".join(p.rstrip() for p in parts if p) + "\n"
        return CUnit(text, self.guarded_ops, self.const_safe_ops)

    def emit_global(self, d: GlobDecl) -> str:
        sec = f' SEC("{d.sec}")' if d.sec and self.mode == "ebpf" else ""
        prefix = "static " if self.mode == "host" else ""
        name = self.cnames[d.name]
        if isinstance(d.init, bytes):
            text = d.init[:-1].decode()
            return f'{prefix}char {name}[]{sec} = "{text}";'
        if isinstance(d.init, NoneLit):
            target = kernel_object(d.ty)
            if target is not None and self.mode == "host":
                return f"{prefix}{cdecl(d.ty, name)} = " \
                       f"{c_kernel_object(target)};"
            return f"{prefix}{cdecl(d.ty, name)}{sec};"
        if isinstance(d.init, (ConstInt, ConstLong)):
            suffix = "LL" if isinstance(d.init, ConstLong) else ""
            return f"{prefix}{cdecl(d.ty, name)}{sec} = {d.init.value}{suffix};"
        if isinstance(d.init, ConstBool):
            return f"{prefix}{cdecl(d.ty, name)}{sec} = " \
                   f"{1 if d.init.value else 0};"
        raise CgenError(f"cannot emit global {d.name}")

    def emit_main_shim(self) -> str:
        entry = self.tp.program.entry_point()
        if entry is None:
            return "/* no entry point; translation unit is a library */"
        args = []
        for _, ty in entry.args:
            if not entry_arg_given(ty):
                raise CgenError(f"cannot give an entry argument of type {ty}")
            target = kernel_object(ty)
            if target is not None or isinstance(ty, RefTy):
                args.append(c_kernel_object(target or ty.target))
            elif isinstance(ty, OptionTy):
                args.append(f"({ctype(ty)}) 0")
            else:
                args.append("0")
        call = f"{self.cnames[entry.name]}({', '.join(args)})"
        if isinstance(entry.rt, UnitTy):
            return ("int main(void) {\n"
                    f"    {call};\n"
                    "    printf(\"0\\n\");\n"
                    "    return 0;\n}")
        fmt, cast = ("%lld", "(long long)") if isinstance(entry.rt, LongTy) \
            else ("%d", "(int)")
        return ("int main(void) {\n"
                f"    {ctype(entry.rt)} __bpl_result = {call};\n"
                f"    printf(\"{fmt}\\n\", {cast} __bpl_result);\n"
                "    return (int) (__bpl_result & 0xff);\n}")


def c_kernel_object(target: Ty) -> str:
    """A kernel object, or an entry parameter's referent, in host C: the
    address of a zeroed object, the C side of ``interp.make_kernel_object``
    with an empty packet."""
    return f"&({ctype(target)}){{0}}"


def emit_program(tp: TypedProgram, mode: str = "host") -> CUnit:
    return ProgramEmitter(tp, mode).emit()


# ---------------------------------------------------------------------------
# Syntactic guard audit
# ---------------------------------------------------------------------------

_DIV_LIKE = re.compile(r"[^/*]/[^/*=]|[^%]%[^=]|<<|>>(?!=)")


def audit_guards(cu: CUnit) -> list[str]:
    """Every emitted /, %, <<, >> must sit inside an operand guard or be
    proven safe from literal operands; returns the violations."""
    text = re.sub(r'"(?:[^"\\]|\\.)*"', '""', cu.text)
    text = "\n".join(ln for ln in text.splitlines()
                     if not ln.strip().startswith("/*")
                     and not ln.strip().startswith("#"))
    hits = 0
    for m in _DIV_LIKE.finditer(text):
        hits += 1
    expected = cu.guarded_ops + cu.const_safe_ops
    if hits > expected:
        return [f"{hits} division/shift sites in output, "
                f"only {expected} accounted as guarded or constant-safe"]
    return []
