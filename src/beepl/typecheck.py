"""Type-and-effect checking for BeePL programs.

The checker implements the expression judgment over contexts
(gamma, sigma, pi, psi), the declaration-level rules (return types are never
pointers, section compatibility, effect annotations), and produces an
elaborated program: named constants are inlined, htons is folded, and integer
literals are widened where a long-typed position demands it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    ALLOC, App, ArrayTy, Assign, BOOL, Bop, BopKind, BYTES, BytesTy,
    BytesView, COMPARE_BOPS, Cast, Composite, Cond, ConstBool, ConstInt,
    ConstLong, Deref, EMPTY_EFFECT, Effect, Expr, ExtDecl, Field, For,
    FunDecl, GlobDecl, INT, IO, IntTy, LOGIC_BOPS, LONG, Let, Loc, LongTy,
    Match, NoneLit, OptionTy, Pbytes, Pnone, Program, Prim, Psome, Pwild,
    READ, RefOp, RefTy, Repeat, Seq, Sign, SomeLit, Span, StructInit,
    StructTy, Ty, UNIT, UnitLit, Uop, UopKind, Var, WRITE, effect_concat,
    effect_subset, expr_children, fvar, int_lane, is_basic, is_pointer,
    is_prim, struct_layout,
)
from .frontend import Diagnostic


class TypeCheckError(Exception):
    def __init__(self, code: str, message: str, span: Optional[Span] = None,
                 rule: Optional[str] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.span = span or Span(1, 1)
        self.rule = rule

    def diagnostic(self, filename: str = "<input>") -> Diagnostic:
        return Diagnostic("error", self.code, self.message, self.span,
                          note=self.rule, filename=filename)


@dataclass(frozen=True)
class Signature:
    """The signature of a declared function or an external helper."""

    arg_types: tuple[Ty, ...]
    eff: Effect
    res_type: Ty


@dataclass
class HelperRegistry:
    """External helper signatures and named constants preloaded into psi."""

    entries: dict[str, Signature] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    composites: tuple[Composite, ...] = ()

    def lookup(self, name: str) -> Optional[Signature]:
        return self.entries.get(name)


XDP_ABORTED = 0
XDP_DROP = 1
XDP_PASS = 2
ETH_P_IPV6 = 0x86DD

BPF_MAP_PTR = OptionTy(RefTy(StructTy("bpf_map")))


def default_helper_registry() -> HelperRegistry:
    entries = {
        "bpf_map_lookup_elem": Signature(
            (BPF_MAP_PTR, OptionTy(RefTy(LONG))),
            effect_concat(READ, IO),
            OptionTy(RefTy(LONG))),
        "bpf_get_current_uid_gid": Signature((), IO, LONG),
    }
    constants = {
        "XDP_ABORTED": XDP_ABORTED,
        "XDP_DROP": XDP_DROP,
        "XDP_PASS": XDP_PASS,
        "ETH_P_IPV6": ETH_P_IPV6,
    }
    composites = (
        Composite("bpf_map", ()),
        Composite("xdp_md", (("data", BYTES),)),
        Composite("__sk_buff", (("data", BYTES),)),
    )
    return HelperRegistry(entries, constants, composites)


class JudgmentMemo:
    """The successful judgments of one audited evaluation, by node identity.

    A judgment is keyed by the node's ``id``, the expected type, and the
    types of those binders under the runtime context (``TypingContext.local``)
    that are free in the node.  Each entry holds its node, so the ``id``
    cannot be reused while the memo lives.  The owner empties
    ``judgments`` when the runtime context stops extending the one the
    judgments were made in; free variables depend on the node alone and
    stay.
    """

    # The memo is pruned to the live term each time it has doubled, and
    # never while it holds fewer judgments than this.
    PRUNE_FLOOR = 1024

    def __init__(self) -> None:
        self.judgments: dict[tuple, tuple[Expr, tuple[Ty, Effect, Expr]]] = {}
        self._free: dict[int, tuple[Expr, frozenset[str]]] = {}
        self._prune_at = self.PRUNE_FLOOR

    def prune(self, term: Expr) -> None:
        """Forget the nodes that are no longer part of term, once the memo
        has doubled since it was last pruned; a long run then holds about
        as many judgments as its term has nodes."""
        if len(self.judgments) < self._prune_at:
            return
        live: set[int] = set()
        todo = [term]
        while todo:
            e = todo.pop()
            if id(e) not in live:
                live.add(id(e))
                todo.extend(expr_children(e))
        self.judgments = {k: v for k, v in self.judgments.items()
                          if k[0] in live}
        self._free = {k: v for k, v in self._free.items() if k in live}
        self._prune_at = max(2 * len(self.judgments), self.PRUNE_FLOOR)

    def key(self, ctx: "TypingContext", e: Expr,
            expected: Optional[Ty]) -> tuple:
        key: tuple = (id(e), expected)
        if ctx.local:
            bound = fvar(e, self._free) & ctx.local.keys()
            if bound:
                key += (frozenset((x, ctx.local[x]) for x in bound),)
        return key


@dataclass
class TypingContext:
    gamma: dict[str, Ty] = field(default_factory=dict)
    sigma: dict[int, Ty] = field(default_factory=dict)
    pi: dict[str, Composite] = field(default_factory=dict)
    psi: dict[str, Signature] = field(default_factory=dict)
    funs: dict[str, Signature] = field(default_factory=dict)
    consts: dict[str, int] = field(default_factory=dict)
    # Declared locals eligible as struct-initialization targets; shadowing
    # binders knock names out of this set.
    struct_vars: frozenset[str] = frozenset()
    # Set by the per-step audit only: its memo of judgments, and the binders
    # that ``extended`` added on top of the runtime context.
    memo: Optional[JudgmentMemo] = None
    local: Optional[dict[str, Ty]] = None

    def extended(self, **bindings: Ty) -> "TypingContext":
        g = dict(self.gamma)
        g.update(bindings)
        ctx = TypingContext(g, self.sigma, self.pi, self.psi, self.funs,
                            self.consts,
                            self.struct_vars - frozenset(bindings))
        if self.memo is not None:
            ctx.memo = self.memo
            ctx.local = {**(self.local or {}), **bindings}
        return ctx


def _err(code, msg, span=None, rule=None):
    raise TypeCheckError(code, msg, span, rule)


def htons16(v: int) -> int:
    """Pure 16-bit byte swap, constant-folded at elaboration time."""
    v &= 0xFFFF
    return ((v & 0xFF) << 8) | (v >> 8)


# ---------------------------------------------------------------------------
# Expression inference
# ---------------------------------------------------------------------------

def infer_expr(ctx: TypingContext, e: Expr,
               expected: Optional[Ty] = None) -> tuple[Ty, Effect]:
    ty, eff, _ = infer_elab(ctx, e, expected)
    return ty, eff


def infer_elab(ctx: TypingContext, e: Expr, expected: Optional[Ty] = None,
               _missed: bool = False) -> tuple[Ty, Effect, Expr]:
    # A context with a memo asks it first and, on a miss, judges e by the
    # rules below (``_missed``) and keeps the judgment if it succeeds.
    memo = ctx.memo
    if memo is not None and not _missed:
        key = memo.key(ctx, e, expected)
        entry = memo.judgments.get(key)
        if entry is None:
            entry = memo.judgments[key] = \
                (e, infer_elab(ctx, e, expected, True))
        return entry[1]
    if isinstance(e, Var):
        if e.name in ctx.gamma:
            ty = ctx.gamma[e.name]
            if isinstance(ty, ArrayTy):
                _err("ArrayNotFirstClass",
                     f"array variable {e.name!r} cannot be used as a value",
                     e.span, "TVAR")
            return ty, EMPTY_EFFECT, e
        if e.name in ctx.consts:
            return INT, EMPTY_EFFECT, ConstInt(ctx.consts[e.name], span=e.span)
        if e.name in ctx.funs or e.name in ctx.psi:
            _err("NotFirstClassFunction",
                 f"function {e.name!r} used outside a call", e.span, "TVAR")
        _err("UnknownVariable", f"unbound variable {e.name!r}", e.span, "TVAR")
    if isinstance(e, ConstInt):
        if isinstance(expected, LongTy):
            return expected, EMPTY_EFFECT, ConstLong(e.value, span=e.span)
        return INT, EMPTY_EFFECT, e
    if isinstance(e, ConstLong):
        return LONG, EMPTY_EFFECT, e
    if isinstance(e, ConstBool):
        return BOOL, EMPTY_EFFECT, e
    if isinstance(e, UnitLit):
        return UNIT, EMPTY_EFFECT, e
    if isinstance(e, Loc):
        # sigma maps blocks to their content type; a location is a reference
        # to that content.
        ty = ctx.sigma.get(e.block)
        if ty is None:
            _err("UnknownLocation", f"location {e.block} not in store typing",
                 e.span, "TLOC")
        if not is_basic(ty):
            _err("UnknownLocation",
                 f"location {e.block} holds non-basic content {ty}",
                 e.span, "TLOC")
        return RefTy(ty), EMPTY_EFFECT, e
    if isinstance(e, BytesView):
        ty = ctx.sigma.get(e.block)
        if not isinstance(ty, BytesTy):
            _err("UnknownLocation", f"block {e.block} is not a byte region",
                 e.span, "TLOC")
        return BYTES, EMPTY_EFFECT, e
    if isinstance(e, Seq):
        eff = EMPTY_EFFECT
        parts = []
        ty: Ty = UNIT
        for p in e.parts:
            ty, pe, pelab = infer_elab(ctx, p)
            eff = effect_concat(eff, pe)
            parts.append(pelab)
        return ty, eff, Seq(tuple(parts), ty=ty)
    if isinstance(e, Repeat):
        _, beff, belab = infer_elab(ctx, e.body)
        return UNIT, beff, Repeat(belab, e.count, ty=UNIT)
    if isinstance(e, NoneLit):
        if isinstance(expected, OptionTy):
            return expected, EMPTY_EFFECT, NoneLit(span=e.span, ty=expected)
        if isinstance(e.ty, OptionTy):
            return e.ty, EMPTY_EFFECT, e
        _err("CannotInferOption",
             "bare 'none' needs a declared option type", e.span, "TNONE")
    if isinstance(e, SomeLit):
        inner_exp = expected.inner if isinstance(expected, OptionTy) else None
        vty, veff, velab = infer_elab(ctx, e.value, inner_exp)
        if not isinstance(vty, RefTy):
            _err("SomeOfNonPointer",
                 f"'some' wraps pointers, got {vty}", e.span, "TSOME")
        ty = OptionTy(vty)
        return ty, veff, SomeLit(velab, span=e.span, ty=ty)
    if isinstance(e, Prim):
        return _infer_prim(ctx, e, expected)
    if isinstance(e, App):
        return _infer_app(ctx, e)
    if isinstance(e, Let):
        bty, beff, belab = infer_elab(ctx, e.bound, e.declared)
        bty, belab = _coerce(bty, belab, e.declared)
        if bty != e.declared:
            _err("LetTypeMismatch",
                 f"let binds {bty}, declared {e.declared}", e.span, "TBIND")
        inner = ctx if e.name == "_" else ctx.extended(**{e.name: e.declared})
        tty, teff, telab = infer_elab(inner, e.body, expected)
        return tty, effect_concat(beff, teff), \
            Let(e.name, e.declared, belab, telab, span=e.span, ty=tty)
    if isinstance(e, Cond):
        gty, geff, gelab = infer_elab(ctx, e.guard)
        if gty != BOOL:
            _err("GuardNotBool", f"condition has type {gty}", e.span, "TCOND")
        tty, teff, telab = infer_elab(ctx, e.then, expected)
        oty, oeff, oelab = infer_elab(ctx, e.otherwise, expected)
        tty, telab, oty, oelab = _coerce_pair(tty, telab, oty, oelab)
        if tty != oty:
            _err("BranchTypeMismatch",
                 f"branches have types {tty} and {oty}", e.span, "TCOND")
        return tty, effect_concat(geff, teff, oeff), \
            Cond(gelab, telab, oelab, span=e.span, ty=tty)
    if isinstance(e, StructInit):
        return _infer_struct_init(ctx, e)
    if isinstance(e, Field):
        return _infer_field(ctx, e)
    if isinstance(e, For):
        return _infer_for(ctx, e)
    if isinstance(e, Match):
        return _infer_match(ctx, e, expected)
    _err("UnsupportedExpr", f"cannot type {type(e).__name__}", None, None)


def _coerce(ty: Ty, elab: Expr, want: Optional[Ty]) -> tuple[Ty, Expr]:
    """Literal defaulting: a plain int literal adapts to the position's type."""
    if want is None or not isinstance(elab, ConstInt):
        return ty, elab
    if isinstance(want, LongTy) and isinstance(ty, IntTy):
        return want, ConstLong(elab.value, span=elab.span)
    if isinstance(want, IntTy) and isinstance(ty, IntTy) and want != ty:
        if want.sign is Sign.UNSIGNED:
            fits = 0 <= elab.value < min(1 << want.size, 1 << 31)
        else:
            fits = -(1 << (want.size - 1)) <= elab.value < (1 << (want.size - 1))
        if fits:
            return want, elab
    return ty, elab


def _coerce_pair(ty1, e1, ty2, e2):
    ty1, e1 = _coerce(ty1, e1, ty2 if isinstance(ty2, LongTy) else None)
    ty2, e2 = _coerce(ty2, e2, ty1 if isinstance(ty1, LongTy) else None)
    return ty1, e1, ty2, e2


def _infer_prim(ctx: TypingContext, e: Prim, expected: Optional[Ty]):
    op = e.op
    if isinstance(op, RefOp):
        want = expected.target if isinstance(expected, RefTy) else None
        ity, ieff, ielab = infer_elab(ctx, e.operands[0], want)
        if not (is_prim(ity) or isinstance(ity, (StructTy, ArrayTy))):
            _err("RefOfNonBasic", f"ref of non-basic type {ity}",
                 e.span, "TREF")
        ty = RefTy(ity)
        return ty, effect_concat(ALLOC, ieff), \
            Prim(RefOp(), (ielab,), span=e.span, ty=ty)
    if isinstance(op, Deref):
        ity, ieff, ielab = infer_elab(ctx, e.operands[0])
        if isinstance(ity, OptionTy):
            _err("DerefOfOption",
                 "dereferencing an option type is not allowed; "
                 "match on it first", e.span, "TDEREF")
        if not isinstance(ity, RefTy):
            _err("NotAPointer", f"cannot dereference {ity}", e.span, "TDEREF")
        if not is_prim(ity.target):
            _err("DerefOfAggregate",
                 "aggregates are read through field access, not '!'",
                 e.span, "TDEREF")
        return ity.target, effect_concat(READ, ieff), \
            Prim(Deref(), (ielab,), span=e.span, ty=ity.target)
    if isinstance(op, Assign):
        lty, leff, lelab = infer_elab(ctx, e.operands[0])
        if isinstance(lty, OptionTy):
            _err("AssignThroughOption",
                 "assigning through an option type is not allowed; "
                 "match on it first", e.span, "TMASSGN")
        if not isinstance(lty, RefTy):
            _err("NotAPointer", f"cannot assign through {lty}",
                 e.span, "TMASSGN")
        if not is_prim(lty.target):
            _err("AssignToAggregate",
                 "only primitive cells can be assigned through ':='",
                 e.span, "TMASSGN")
        rty, reff, relab = infer_elab(ctx, e.operands[1], lty.target)
        rty, relab = _coerce(rty, relab, lty.target)
        if rty != lty.target:
            _err("AssignTypeMismatch",
                 f"assigning {rty} into a {lty.target} cell",
                 e.span, "TMASSGN")
        return UNIT, effect_concat(leff, reff, WRITE), \
            Prim(Assign(), (lelab, relab), span=e.span, ty=UNIT)
    if isinstance(op, Uop):
        ity, ieff, ielab = infer_elab(ctx, e.operands[0])
        if op.kind is UopKind.LOGNOT:
            if ity != BOOL:
                _err("UopTypeMismatch", f"'not' needs bool, got {ity}",
                     e.span, "TUOP")
        else:
            if is_pointer(ity):
                _err("PointerArithmetic",
                     "arithmetic on pointers is not allowed", e.span, "TUOP")
            if ity not in (INT, LONG):
                _err("UopTypeMismatch",
                     f"unary {op.kind.value!r} needs int or long, got {ity}",
                     e.span, "TUOP")
        return ity, ieff, Prim(op, (ielab,), span=e.span, ty=ity)
    if isinstance(op, Cast):
        if op.target not in (INT, LONG):
            _err("BadCastTarget", "casts target int or long only",
                 e.span, "TUOP")
        ity, ieff, ielab = infer_elab(ctx, e.operands[0])
        if int_lane(ity) is None:
            _err("UopTypeMismatch", f"cannot cast {ity}", e.span, "TUOP")
        return op.target, ieff, Prim(op, (ielab,), span=e.span, ty=op.target)
    if isinstance(op, Bop):
        return _infer_bop(ctx, e, op.kind)
    _err("UnsupportedExpr", f"unknown primitive {op!r}", e.span, None)


def _infer_bop(ctx: TypingContext, e: Prim, kind: BopKind):
    lty, leff, lelab = infer_elab(ctx, e.operands[0])
    rty, reff, relab = infer_elab(ctx, e.operands[1])
    if is_pointer(lty) or is_pointer(rty):
        _err("PointerArithmetic", "arithmetic on pointers is not allowed",
             e.span, "TBOP")
    lty, lelab, rty, relab = _coerce_pair(lty, lelab, rty, relab)
    if kind in LOGIC_BOPS:
        if lty != BOOL or rty != BOOL:
            _err("BopTypeMismatch",
                 f"{kind.value!r} needs bool operands, got {lty} and {rty}",
                 e.span, "TBOP")
        ty = BOOL
    elif kind in COMPARE_BOPS:
        if kind in (BopKind.EQ, BopKind.NE):
            ok = (int_lane(lty) is not None and int_lane(lty) == int_lane(rty))
        else:
            ok = lty == rty and lty in (INT, LONG)
        if not ok:
            _err("BopTypeMismatch",
                 f"cannot compare {lty} with {rty}", e.span, "TBOP")
        ty = BOOL
    else:
        # arithmetic, bitwise and shifts: signed int or long, both sides alike
        if lty != rty or lty not in (INT, LONG):
            _err("BopTypeMismatch",
                 f"{kind.value!r} needs matching int or long operands, "
                 f"got {lty} and {rty}", e.span, "TBOP")
        ty = lty
    return ty, effect_concat(leff, reff), \
        Prim(Bop(kind), (lelab, relab), span=e.span, ty=ty)


def _infer_app(ctx: TypingContext, e: App):
    if not isinstance(e.callee, Var):
        _err("NotAFunction", "only named functions can be called",
             e.span, "TAPP")
    name = e.callee.name
    if name == "htons" and name not in ctx.funs and name not in ctx.psi:
        return _fold_htons(ctx, e)
    if name in ctx.funs:
        sig = ctx.funs[name]
    elif name in ctx.psi:
        sig = ctx.psi[name]
    else:
        _err("UnknownHelper", f"unknown function {name!r}", e.span, "TAPP")
    if len(e.args) != len(sig.arg_types):
        _err("ArgArityMismatch",
             f"{name} expects {len(sig.arg_types)} arguments, "
             f"got {len(e.args)}", e.span, "TAPP")
    eff = EMPTY_EFFECT
    elab_args = []
    for i, (arg, want) in enumerate(zip(e.args, sig.arg_types)):
        aty, aeff, aelab = infer_elab(ctx, arg, want)
        aty, aelab = _coerce(aty, aelab, want)
        if isinstance(want, OptionTy) and aty == want.inner:
            # A ref is always valid, so it passes where an optional pointer
            # is expected (helpers take option-typed pointer arguments).
            aty, aelab = want, SomeLit(aelab, span=e.span, ty=want)
        if aty != want:
            _err("ArgTypeMismatch",
                 f"argument {i + 1} of {name} has type {aty}, expected {want}",
                 e.span, "TAPP")
        eff = effect_concat(eff, aeff)
        elab_args.append(aelab)
    eff = effect_concat(eff, sig.eff)
    return sig.res_type, eff, \
        App(e.callee, tuple(elab_args), span=e.span, ty=sig.res_type)


def _fold_htons(ctx: TypingContext, e: App):
    if len(e.args) != 1:
        _err("ArgArityMismatch", "htons takes one argument", e.span, "TAPP")
    _, aeff, aelab = infer_elab(ctx, e.args[0])
    if not isinstance(aelab, ConstInt):
        _err("HtonsNonConstant",
             "htons folds at compile time and needs a constant argument",
             e.span, "TAPP")
    return INT, aeff, ConstInt(htons16(aelab.value), span=e.span)


def _infer_struct_init(ctx: TypingContext, e: StructInit):
    tty = ctx.gamma.get(e.name)
    if tty is None:
        _err("UnknownVariable", f"unbound struct variable {e.name!r}",
             e.span, "TSINIT")
    if e.name not in ctx.struct_vars:
        _err("StructInitTarget",
             f"{e.name!r} is not one of the function's declared struct "
             "locals", e.span, "TSINIT")
    if not (isinstance(tty, RefTy) and isinstance(tty.target, StructTy)):
        _err("StructInitTarget",
             f"{e.name!r} is not a struct reference", e.span, "TSINIT")
    sid = tty.target.sid
    co = ctx.pi.get(sid)
    if co is None:
        _err("UnknownStruct", f"struct {sid!r} is not declared",
             e.span, "TSINIT")
    if tuple(f for f, _ in e.fields) != tuple(f for f, _ in co.fields):
        _err("FieldMismatch",
             f"initializer fields must match struct {sid!r} "
             "in name and order", e.span, "TSINIT")
    eff = EMPTY_EFFECT
    elab_fields = []
    for (fname, fexpr), (_, fty) in zip(e.fields, co.fields):
        ety, feff, felab = infer_elab(ctx, fexpr, fty)
        ety, felab = _coerce(ety, felab, fty)
        if ety != fty:
            _err("FieldMismatch",
                 f"field {fname!r} has type {ety}, expected {fty}",
                 e.span, "TSINIT")
        eff = effect_concat(eff, feff)
        elab_fields.append((fname, felab))
    return tty, eff, \
        StructInit(e.name, tuple(elab_fields), span=e.span, ty=tty)


def _infer_field(ctx: TypingContext, e: Field):
    tty, teff, telab = infer_elab(ctx, e.target)
    sid = None
    if isinstance(tty, StructTy):
        sid = tty.sid
    elif isinstance(tty, RefTy) and isinstance(tty.target, StructTy):
        sid = tty.target.sid
    elif isinstance(tty, OptionTy) and isinstance(tty.inner, RefTy) \
            and isinstance(tty.inner.target, StructTy):
        # Kernel-provided contexts arrive as optional struct pointers and the
        # surface programs read their fields directly (e.g. ctx.data).
        sid = tty.inner.target.sid
    if sid is None:
        _err("FieldOfNonStruct", f"{tty} has no fields", e.span, "TFIELD")
    co = ctx.pi.get(sid)
    if co is None:
        _err("UnknownStruct", f"struct {sid!r} is not declared",
             e.span, "TFIELD")
    fty = co.field_type(e.fname)
    if fty is None:
        _err("FieldMismatch", f"struct {sid!r} has no field {e.fname!r}",
             e.span, "TFIELD")
    if isinstance(fty, ArrayTy):
        _err("ArrayNotFirstClass",
             f"array field {e.fname!r} cannot be read as a value",
             e.span, "TFIELD")
    # Narrow integer fields promote to their value lane on read, like C.
    if is_prim(fty):
        fty = lane_type(fty)
    return fty, teff, Field(telab, e.fname, span=e.span, ty=fty)


def _infer_for(ctx: TypingContext, e: For):
    # The disjointness premise is purely syntactic; check it first so the
    # diagnostic names the real problem.  Named constants are not variables.
    # The body is scanned only when the bounds mention a variable: scanning
    # it at every loop would make nested loops cost quadratic time.
    bounds_fv = (fvar(e.lo) | fvar(e.hi)) - set(ctx.consts)
    if bounds_fv and bounds_fv & fvar(e.body):
        _err("ForBodyCapturesBounds",
             "loop body references variables used in the bounds",
             e.span, "TFOR")
    lty, leff, lelab = infer_elab(ctx, e.lo)
    hty, heff, helab = infer_elab(ctx, e.hi)
    lty, lelab, hty, helab = _coerce_pair(lty, lelab, hty, helab)
    if lty != hty or lty not in (INT, LONG):
        _err("ForBoundsType",
             f"loop bounds must both be int or long, got {lty} and {hty}",
             e.span, "TFOR")
    _, beff, belab = infer_elab(ctx, e.body)
    return UNIT, effect_concat(leff, heff, beff), \
        For(lelab, helab, e.direction, belab, span=e.span, ty=UNIT)


def _infer_match(ctx: TypingContext, e: Match, expected: Optional[Ty]):
    sty, seff, selab = infer_elab(ctx, e.scrutinee)
    if isinstance(sty, OptionTy):
        return _infer_match_option(ctx, e, sty, seff, selab, expected)
    if isinstance(sty, BytesTy):
        return _infer_match_bytes(ctx, e, seff, selab, expected)
    _err("MatchScrutineeType",
         f"match works on option or bytes values, got {sty}",
         e.span, "TMATCHO")


def _infer_match_option(ctx, e: Match, sty: OptionTy, seff, selab, expected):
    if len(e.arms) != 2:
        _err("NonExhaustiveOptionMatch",
             "an option match has exactly two arms", e.span, "TMATCHO")
    pats = [p for p, _ in e.arms]
    wilds = sum(isinstance(p, Pwild) for p in pats)
    has_none = any(isinstance(p, Pnone) for p in pats)
    has_some = any(isinstance(p, Psome) for p in pats)
    ok = (wilds == 0 and has_none and has_some) or \
         (wilds == 1 and (has_none or has_some))
    if not ok or any(isinstance(p, Pbytes) for p in pats):
        _err("NonExhaustiveOptionMatch",
             "option match must cover pnone and psome "
             "(a wildcard may replace one of them)", e.span, "TMATCHO")
    arm_tys = []
    arm_effs = []
    elab_arms = []
    for p, body in e.arms:
        inner = ctx.extended(**{p.binder: sty.inner}) \
            if isinstance(p, Psome) else ctx
        bty, beff, belab = infer_elab(inner, body, expected)
        arm_tys.append(bty)
        arm_effs.append(beff)
        elab_arms.append((p, belab))
    t1, e1, t2, e2 = _coerce_pair(arm_tys[0], elab_arms[0][1],
                                  arm_tys[1], elab_arms[1][1])
    if t1 != t2:
        _err("BranchTypeMismatch",
             f"match arms have types {t1} and {t2}", e.span, "TMATCHO")
    elab_arms = [(elab_arms[0][0], e1), (elab_arms[1][0], e2)]
    return t1, effect_concat(seff, *arm_effs), \
        Match(selab, tuple(elab_arms), span=e.span, ty=t1)


def lane_type(ty: Ty) -> Ty:
    """Runtime value lane of a primitive type (narrow ints widen to int)."""
    if isinstance(ty, LongTy):
        return LONG
    if isinstance(ty, IntTy):
        return INT
    return ty


def _infer_match_bytes(ctx, e: Match, seff, selab, expected):
    if len(e.arms) != 2 or not isinstance(e.arms[0][0], Pbytes) \
            or not isinstance(e.arms[1][0], Pwild):
        _err("MatchBytesShape",
             "a bytes match has one pbytes arm followed by a wildcard arm",
             e.span, "TMATCHB")
    pat: Pbytes = e.arms[0][0]
    bindings: dict[str, Ty] = {}
    if isinstance(pat.target, StructTy):
        co = ctx.pi.get(pat.target.sid)
        if co is None:
            _err("UnknownStruct", f"struct {pat.target.sid!r} is not declared",
                 e.span, "TMATCHB")
        for _, fty in co.fields:
            if is_pointer(fty):
                _err("PointerFieldInBytes",
                     "bytes patterns target pointer-free structs",
                     e.span, "TMATCHB")
        for y, yty in pat.fields:
            fty = co.field_type(y)
            if fty is None:
                _err("FieldMismatch",
                     f"struct {pat.target.sid!r} has no field {y!r}",
                     e.span, "TMATCHB")
            if fty != yty:
                _err("FieldMismatch",
                     f"field {y!r} has type {fty}, pattern says {yty}",
                     e.span, "TMATCHB")
            if not is_prim(fty):
                _err("FieldMismatch",
                     f"field binder {y!r} must have a primitive type",
                     e.span, "TMATCHB")
            bindings[y] = lane_type(fty)
        bindings[pat.binder] = RefTy(pat.target)
    else:
        bindings[pat.binder] = lane_type(pat.target)
    inner = ctx.extended(**bindings)
    t1, ef1, b1 = infer_elab(inner, e.arms[0][1], expected)
    t2, ef2, b2 = infer_elab(ctx, e.arms[1][1], expected)
    t1, b1, t2, b2 = _coerce_pair(t1, b1, t2, b2)
    if t1 != t2:
        _err("BranchTypeMismatch",
             f"match arms have types {t1} and {t2}", e.span, "TMATCHB")
    return t1, effect_concat(seff, ef1, ef2), \
        Match(selab, ((pat, b1), (e.arms[1][0], b2)), span=e.span, ty=t1)


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------

def section_ok(ty: Ty, sec: Optional[str]) -> bool:
    """Argument-type / section-attribute compatibility."""
    if sec is None:
        return True
    required = {"xdp_md": "xdp", "__sk_buff": "socket"}
    if isinstance(ty, OptionTy) and isinstance(ty.inner, RefTy) \
            and isinstance(ty.inner.target, StructTy):
        sid = ty.inner.target.sid
        if sid in required:
            return sec == required[sid]
    return True


@dataclass(frozen=True)
class TypedFunDecl:
    decl: FunDecl  # body elaborated
    inferred: Effect
    effect: Effect  # declared annotation when present, else inferred


@dataclass(frozen=True)
class TypedProgram:
    program: Program  # elaborated declarations
    composites: dict[str, Composite]
    funs: dict[str, TypedFunDecl]
    fun_sigs: dict[str, Signature]
    psi: dict[str, Signature]
    consts: dict[str, int]

    def entry_point(self, name: Optional[str] = None) -> Optional[FunDecl]:
        decls = self.program.fun_decls()
        if name is not None:
            return decls.get(name)
        if "main" in decls:
            return decls["main"]
        flagged = [d for d in decls.values() if d.flag]
        if len(flagged) == 1:
            return flagged[0]
        return None


def check_fun_decl(ctx: TypingContext, fd: FunDecl) -> TypedFunDecl:
    if is_pointer(fd.rt):
        _err("ReturnsPointer",
             f"function {fd.name!r} returns a pointer type", fd.span, "TFDECL")
    for x, ty in fd.args:
        if ty == UNIT or isinstance(ty, ArrayTy):
            _err("BadParamType",
                 f"argument {x!r} of {fd.name!r} cannot have type {ty}",
                 fd.span, "TFDECL")
        if not section_ok(ty, fd.sec):
            _err("SectionMismatch",
                 f"argument {x!r} of {fd.name!r} is incompatible with "
                 f"section {fd.sec!r}", fd.span, "TFDECL")
    for y, ty in fd.vars:
        if not (isinstance(ty, RefTy) and isinstance(ty.target, StructTy)):
            _err("VarNotStructRef",
                 f"local {y!r} must be a struct reference "
                 "(locals exist to back struct initialization)",
                 fd.span, "TFDECL")
    bindings = dict(fd.args)
    bindings.update(fd.vars)
    inner = ctx.extended(**bindings)
    inner.struct_vars = frozenset(y for y, _ in fd.vars)
    bty, beff, belab = infer_elab(inner, fd.body, fd.rt)
    bty, belab = _coerce(bty, belab, fd.rt)
    if bty != fd.rt:
        _err("ReturnTypeMismatch",
             f"body of {fd.name!r} has type {bty}, declared {fd.rt}",
             fd.span, "TFDECL")
    if fd.ef is not None and not effect_subset(beff, fd.ef):
        _err("EffectAnnotationTooSmall",
             f"{fd.name!r} is annotated {fd.ef} but its body performs {beff}",
             fd.span, "TFDECL")
    elaborated = replace(fd, body=belab)
    return TypedFunDecl(elaborated, beff, fd.ef if fd.ef is not None else beff)


def check_glob_decl(gd: GlobDecl, pi: dict[str, Composite]) -> None:
    if not section_ok(gd.ty, gd.sec):
        _err("SectionMismatch",
             f"global {gd.name!r} is incompatible with section {gd.sec!r}",
             gd.span, "TGDECL")
    init = gd.init
    ok = ((isinstance(init, ConstInt) and isinstance(gd.ty, IntTy)) or
          (isinstance(init, ConstLong) and isinstance(gd.ty, LongTy)) or
          (isinstance(init, ConstBool) and gd.ty == BOOL) or
          (isinstance(init, NoneLit) and isinstance(gd.ty, OptionTy)) or
          (isinstance(init, bytes) and isinstance(gd.ty, ArrayTy)
           and gd.ty.elem.size == 8 and len(init) == gd.ty.length))
    if not ok:
        _err("GlobalInitMismatch",
             f"initializer of {gd.name!r} does not have type {gd.ty}",
             gd.span, "TGDECL")


def check_program(p: Program,
                  registry: Optional[HelperRegistry] = None) -> TypedProgram:
    registry = registry or default_helper_registry()
    pi: dict[str, Composite] = {}
    for co in registry.composites + p.composites:
        if co.sid in pi:
            _err("DuplicateName", f"struct {co.sid!r} redefined", None, "TPROG")
        pi[co.sid] = co
    for co in p.composites:
        for fname, fty in co.fields:
            if not (is_prim(fty) or isinstance(fty, (ArrayTy, BytesTy))):
                _err("BadFieldType",
                     f"field {fname!r} of struct {co.sid!r} must be a "
                     "primitive, array or bytes type", None, "TPROG")
        struct_layout(co, pi)  # resolves sizes early

    psi = dict(registry.entries)
    globals_gamma: dict[str, Ty] = {}
    funs: dict[str, Signature] = {}
    names: set[str] = set(psi) | set(registry.constants)
    for d in p.decls:
        if d.name in names:
            _err("DuplicateName", f"{d.name!r} is already declared",
                 d.span, "TPROG")
        names.add(d.name)
        if isinstance(d, ExtDecl):
            psi[d.name] = Signature(d.arg_types, d.ef, d.res_type)
        elif isinstance(d, GlobDecl):
            check_glob_decl(d, pi)
            globals_gamma[d.name] = d.ty

    typed_funs: dict[str, TypedFunDecl] = {}
    elaborated: list = []
    for d in p.decls:
        if isinstance(d, FunDecl):
            clash = ({x for x, _ in d.args} | {y for y, _ in d.vars}) \
                & set(globals_gamma)
            if clash:
                _err("DuplicateName",
                     f"locals of {d.name!r} shadow globals: "
                     f"{sorted(clash)}", d.span, "TFDECL")
            # Functions may only call functions declared before them, which
            # rules out recursion and keeps every loop bounded.
            ctx = TypingContext(dict(globals_gamma), {}, pi, psi, dict(funs),
                                dict(registry.constants))
            tf = check_fun_decl(ctx, d)
            typed_funs[d.name] = tf
            funs[d.name] = Signature(tuple(t for _, t in d.args), tf.effect,
                                     d.rt)
            elaborated.append(tf.decl)
        else:
            elaborated.append(d)

    program = Program(tuple(elaborated), p.composites)
    return TypedProgram(program, pi, typed_funs, funs, psi,
                        dict(registry.constants))


def check_source(source: str, filename: str = "<input>",
                 registry: Optional[HelperRegistry] = None) -> TypedProgram:
    from .frontend import parse_program
    return check_program(parse_program(source, filename), registry)
