"""Type-and-effect checking for BeePL programs.

The checker implements the expression judgment over contexts
(gamma, sigma, pi, psi), the declaration-level rules (return types are never
pointers, section compatibility, effect annotations), and produces an
elaborated program: named constants are inlined, htons is folded, and each
integer literal is typed by its position and put in that type's lane.

psi is the one signature map: it holds every callable, the kernel helpers
(``HELPERS``), the program's externs and, once each is checked, its
functions.  A function's signature joins psi only after its body is
checked, so a body calls only functions declared before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    ALLOC, App, ArrayTy, Assign, BOOL, Bop, BopKind, BYTES, BytesTy,
    BytesView, COMPARE_BOPS, Cast, Composite, Cond, ConstBool, ConstInt,
    ConstLong, Deref, EMPTY_EFFECT, Effect, Expr, ExtDecl, Field, For,
    FunDecl, GlobDecl, HOST_TAKEN, I8, INT, IO, IntTy, LOGIC_BOPS, LONG, Let,
    Loc, LongTy, Match, NoneLit, OptionTy, Pbytes, Pnone, Program, Prim,
    Psome, Pwild, READ, RefOp, RefTy, Repeat, SHAPES, Seq, SomeLit, Span,
    StructInit, StructTy, Ty, UNIT, UnitLit, Uop, UopKind, Var, WRITE,
    effect_concat, effect_subset, expr_children, fvar, int_fits, is_basic,
    is_pointer, is_prim, kernel_object, struct_layout,
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


# The kernel helpers, preloaded into psi.
HELPERS: dict[str, Signature] = {
    "bpf_map_lookup_elem": Signature(
        (OptionTy(RefTy(StructTy("bpf_map"))), OptionTy(RefTy(LONG))),
        effect_concat(READ, IO),
        OptionTy(RefTy(LONG))),
    "bpf_get_current_uid_gid": Signature((), IO, LONG),
}

# The named constants, inlined as literals.
CONSTANTS: dict[str, int] = {
    "XDP_ABORTED": 0, "XDP_DROP": 1, "XDP_PASS": 2, "ETH_P_IPV6": 0x86DD,
}

# The kernel structs, preloaded into pi.
KERNEL_STRUCTS: tuple[Composite, ...] = (
    Composite("bpf_map", ()),
    Composite("xdp_md", (("data", BYTES),)),
    Composite("__sk_buff", (("data", BYTES),)),
)


class JudgmentMemo:
    """The successful judgments of one audited evaluation, by node identity.

    It keeps the judgments of compound nodes; a leaf's rule costs less than
    a lookup.  A judgment is keyed by the node's ``id``, the expected type
    (None for a node that records its type), and the types of those binders
    under the runtime context (``TypingContext.local``) that are free in the
    node.  Each entry holds its node, so the ``id`` cannot be reused while
    the memo lives.  The owner empties ``judgments`` when the runtime
    context stops extending the one the judgments were made in; free
    variables depend on the node alone and stay.
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

    def rejudge(self, ctx: "TypingContext",
                path: list[tuple[Expr, Expr]]) -> None:
        """Judge the nodes a step put in place of others, (old, new) pairs
        from the root down (an ``interp.StepEvent``'s path), deepest first,
        until one has the judgment of the node it replaced; each node above
        it then takes its predecessor's judgment, by the replacement lemma.
        Only nodes with a recorded type are judged and compared: they sit
        under no binder of the term, so the key of each is its identity
        alone, and none is a literal, which ``_coerce_pair`` treats apart.
        A contractum without one is judged by its parent's rule, at the type
        its position expects.  A rule that fails is left to the walk from
        the root, which reports the failure as full inference does."""
        judgments = self.judgments
        for i in range(len(path) - 1, -1, -1):
            old, new = path[i]
            if getattr(new, "ty", None) is None:
                continue
            try:
                ty, eff, _ = infer_elab(ctx, new)
            except TypeCheckError:
                return
            was = judgments.get((id(old), None)) \
                if getattr(old, "ty", None) is not None else None
            if was is not None and ty == was[1][0] and eff == was[1][1]:
                for old, new in path[:i]:
                    was = judgments.get((id(old), None))
                    if was is not None:
                        judgments[(id(new), None)] = (new, was[1])
                return

    def key(self, ctx: "TypingContext", e: Expr,
            expected: Optional[Ty]) -> tuple:
        local = ctx.local
        if local:
            known = self._free.get(id(e))
            free = fvar(e, self._free) if known is None else known[1]
            if not free.isdisjoint(local):
                return (id(e), expected,
                        frozenset((x, local[x]) for x in free & local.keys()))
        return (id(e), expected)


@dataclass
class TypingContext:
    gamma: dict[str, Ty] = field(default_factory=dict)
    sigma: dict[int, Ty] = field(default_factory=dict)
    pi: dict[str, Composite] = field(default_factory=dict)
    psi: dict[str, Signature] = field(default_factory=dict)
    consts: dict[str, int] = field(default_factory=dict)
    # Declared locals eligible as struct-initialization targets; shadowing
    # binders knock names out of this set.
    struct_vars: frozenset[str] = frozenset()
    # Set by the per-step audit only: its memo of judgments.
    memo: Optional[JudgmentMemo] = None
    # The binders that ``extended`` added on top of gamma; they shadow it.
    local: Optional[dict[str, Ty]] = None

    def extended(self, **bindings: Ty) -> "TypingContext":
        struct_vars = self.struct_vars
        if not struct_vars.isdisjoint(bindings):
            struct_vars = struct_vars - frozenset(bindings)
        return TypingContext(self.gamma, self.sigma, self.pi, self.psi,
                             self.consts, struct_vars, self.memo,
                             {**(self.local or {}), **bindings})

    def lookup(self, name: str) -> Optional[Ty]:
        """The type of variable ``name``, or None if it is unbound."""
        local = self.local
        if local and name in local:
            return local[name]
        return self.gamma.get(name)


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


def infer_elab(ctx: TypingContext, e: Expr,
               expected: Optional[Ty] = None) -> tuple[Ty, Effect, Expr]:
    """Judge e by its class's typing rule: at the type elaboration recorded
    on e, or on a node without one, at the type its position expects.  A
    context with a memo asks it first and keeps the judgment if the rule
    succeeds."""
    rule = _TYPING_RULES.get(type(e), _infer_unsupported)
    recorded = getattr(e, "ty", None)
    if recorded is not None:
        expected = None  # so the memo key names no type: e fixes it
    memo = ctx.memo
    if memo is None or type(e) not in SHAPES:  # a leaf costs less than a key
        return rule(ctx, e, recorded or expected)
    key = memo.key(ctx, e, expected) if ctx.local else (id(e), expected)
    entry = memo.judgments.get(key)
    if entry is None:
        entry = memo.judgments[key] = (e, rule(ctx, e, recorded or expected))
    return entry[1]


def _infer_unsupported(ctx: TypingContext, e: Expr, expected: Optional[Ty]):
    _err("UnsupportedExpr", f"cannot type {type(e).__name__}", None, None)


def _infer_var(ctx: TypingContext, e: Var, expected: Optional[Ty]):
    ty = ctx.lookup(e.name)
    if ty is not None:
        if isinstance(ty, ArrayTy):
            _err("ArrayNotFirstClass",
                 f"array variable {e.name!r} cannot be used as a value",
                 e.span, "TVAR")
        return ty, EMPTY_EFFECT, e
    if e.name in ctx.consts:
        return _infer_literal(ctx, ConstInt(ctx.consts[e.name], span=e.span),
                              expected)
    if e.name in ctx.psi:
        _err("NotFirstClassFunction",
             f"function {e.name!r} used outside a call", e.span, "TVAR")
    _err("UnknownVariable", f"unbound variable {e.name!r}", e.span, "TVAR")


def _infer_literal(ctx: TypingContext, e: Expr, expected: Optional[Ty]):
    """The one literal rule, for int and long literals, named constants and
    folded htons: a literal takes a long type its position expects, and
    becomes a long literal; an int literal takes an expected int type that
    its value fits; otherwise a literal keeps its own lane.  A long literal
    never takes an int type, so a rule that returns a long where an int
    belongs cannot pass the audit."""
    cls = type(e)
    if isinstance(expected, LongTy):
        return expected, EMPTY_EFFECT, \
            e if cls is ConstLong else ConstLong(e.value, span=e.span)
    if cls is ConstInt and isinstance(expected, IntTy) \
            and int_fits(e.value, expected):
        return expected, EMPTY_EFFECT, e
    return (INT if cls is ConstInt else LONG), EMPTY_EFFECT, e


def _infer_loc(ctx: TypingContext, e: Loc, expected: Optional[Ty]):
    # sigma maps blocks to their content type; a location is a reference to
    # that content.
    ty = ctx.sigma.get(e.block)
    if ty is None:
        _err("UnknownLocation", f"location {e.block} not in store typing",
             e.span, "TLOC")
    if not is_basic(ty):
        _err("UnknownLocation",
             f"location {e.block} holds non-basic content {ty}",
             e.span, "TLOC")
    return RefTy(ty), EMPTY_EFFECT, e


def _infer_bytes(ctx: TypingContext, e: BytesView, expected: Optional[Ty]):
    if not isinstance(ctx.sigma.get(e.block), BytesTy):
        _err("UnknownLocation", f"block {e.block} is not a byte region",
             e.span, "TLOC")
    return BYTES, EMPTY_EFFECT, e


def _infer_seq(ctx: TypingContext, e: Seq, expected: Optional[Ty]):
    eff = EMPTY_EFFECT
    parts = []
    ty: Ty = UNIT
    for p in e.parts:
        ty, pe, pelab = infer_elab(ctx, p)
        eff = effect_concat(eff, pe)
        parts.append(pelab)
    return ty, eff, Seq(tuple(parts), ty=ty)


def _infer_repeat(ctx: TypingContext, e: Repeat, expected: Optional[Ty]):
    _, beff, belab = infer_elab(ctx, e.body)
    return UNIT, beff, Repeat(belab, e.count, ty=UNIT)


def _infer_none(ctx: TypingContext, e: NoneLit, expected: Optional[Ty]):
    if isinstance(expected, OptionTy):
        return expected, EMPTY_EFFECT, NoneLit(span=e.span, ty=expected)
    _err("CannotInferOption",
         "bare 'none' needs a declared option type", e.span, "TNONE")


def _infer_some(ctx: TypingContext, e: SomeLit, expected: Optional[Ty]):
    inner_exp = expected.inner if isinstance(expected, OptionTy) else None
    vty, veff, velab = infer_elab(ctx, e.value, inner_exp)
    if not isinstance(vty, RefTy):
        _err("SomeOfNonPointer",
             f"'some' wraps pointers, got {vty}", e.span, "TSOME")
    ty = OptionTy(vty)
    return ty, veff, SomeLit(velab, span=e.span, ty=ty)


def _infer_let(ctx: TypingContext, e: Let, expected: Optional[Ty]):
    if _array_ref(e.declared):
        _err("BadLetType", f"let {e.name!r} cannot have type {e.declared}",
             e.span, "TBIND")
    bty, beff, belab = infer_elab(ctx, e.bound, e.declared)
    if bty != e.declared:
        _err("LetTypeMismatch", f"let binds {bty}, declared {e.declared}",
             e.bound.span or e.span, "TBIND")
    inner = ctx if e.name == "_" else ctx.extended(**{e.name: e.declared})
    tty, teff, telab = infer_elab(inner, e.body, expected)
    return tty, effect_concat(beff, teff), \
        Let(e.name, e.declared, belab, telab, span=e.span, ty=tty)


def _infer_cond(ctx: TypingContext, e: Cond, expected: Optional[Ty]):
    gty, geff, gelab = infer_elab(ctx, e.guard)
    if gty != BOOL:
        _err("GuardNotBool", f"condition has type {gty}", e.span, "TCOND")
    tty, teff, telab = infer_elab(ctx, e.then, expected)
    # With nothing expected, the else-branch is judged at the then-branch's
    # type, so a literal inside it can take that type.
    oty, oeff, oelab = infer_elab(ctx, e.otherwise, expected or tty)
    tty, telab, oty, oelab = _coerce_pair(ctx, tty, telab, oty, oelab)
    if tty != oty:
        _err("BranchTypeMismatch",
             f"branches have types {tty} and {oty}", e.span, "TCOND")
    return tty, effect_concat(geff, teff, oeff), \
        Cond(gelab, telab, oelab, span=e.span, ty=tty)


def _coerce_pair(ctx: TypingContext, ty1, e1, ty2, e2):
    """Two sides that must agree with no expected type to go by (binary
    operands, loop bounds, untyped branches and arms): the literal rule
    types a literal side at the other side's type, the left side first."""
    if ty1 is ty2:  # nothing to adapt; the common case, kept cheap
        return ty1, e1, ty2, e2
    if type(e1) in (ConstInt, ConstLong):
        ty1, _, e1 = _infer_literal(ctx, e1, ty2)
    if type(e2) in (ConstInt, ConstLong):
        ty2, _, e2 = _infer_literal(ctx, e2, ty1)
    return ty1, e1, ty2, e2


def _infer_prim(ctx: TypingContext, e: Prim, expected: Optional[Ty]):
    op = e.op
    if isinstance(op, Bop):
        return _infer_bop(ctx, e, op.kind)
    if isinstance(op, RefOp):
        want = expected.target if isinstance(expected, RefTy) else None
        ity, ieff, ielab = infer_elab(ctx, e.operands[0], want)
        if not (is_prim(ity) or isinstance(ity, (StructTy, ArrayTy))):
            _err("RefOfNonBasic", f"ref of non-basic type {ity}",
                 e.span, "TREF")
        ty = RefTy(ity)
        return ty, effect_concat(ALLOC, ieff), \
            Prim(op, (ielab,), span=e.span, ty=ty)
    if isinstance(op, Deref):
        want = RefTy(expected) if is_prim(expected) else None
        ity, ieff, ielab = infer_elab(ctx, e.operands[0], want)
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
            Prim(op, (ielab,), span=e.span, ty=ity.target)
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
        if rty != lty.target:
            _err("AssignTypeMismatch",
                 f"assigning {rty} into a {lty.target} cell",
                 e.span, "TMASSGN")
        return UNIT, effect_concat(leff, reff, WRITE), \
            Prim(op, (lelab, relab), span=e.span, ty=UNIT)
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
        if not isinstance(ity, (IntTy, LongTy)):
            _err("UopTypeMismatch", f"cannot cast {ity}", e.span, "TUOP")
        return op.target, ieff, Prim(op, (ielab,), span=e.span, ty=op.target)
    _err("UnsupportedExpr", f"unknown primitive {op!r}", e.span, None)


def _infer_bop(ctx: TypingContext, e: Prim, kind: BopKind):
    lty, leff, lelab = infer_elab(ctx, e.operands[0])
    rty, reff, relab = infer_elab(ctx, e.operands[1])
    if is_pointer(lty) or is_pointer(rty):
        _err("PointerArithmetic", "arithmetic on pointers is not allowed",
             e.span, "TBOP")
    lty, lelab, rty, relab = _coerce_pair(ctx, lty, lelab, rty, relab)
    if kind in LOGIC_BOPS:
        if lty != BOOL or rty != BOOL:
            _err("BopTypeMismatch",
                 f"{kind.value!r} needs bool operands, got {lty} and {rty}",
                 e.span, "TBOP")
        ty = BOOL
    elif kind in COMPARE_BOPS:
        if kind in (BopKind.EQ, BopKind.NE):
            ok = isinstance(lty, (IntTy, LongTy)) \
                and lane_type(lty) is lane_type(rty)
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
        Prim(e.op, (lelab, relab), span=e.span, ty=ty)


def _infer_app(ctx: TypingContext, e: App, expected: Optional[Ty]):
    if not isinstance(e.callee, Var):
        _err("NotAFunction", "only named functions can be called",
             e.span, "TAPP")
    name = e.callee.name
    sig = ctx.psi.get(name)
    if sig is None:
        if name == "htons":  # folded unless a function or extern is named so
            return _fold_htons(ctx, e, expected)
        _err("UnknownHelper", f"unknown function {name!r}", e.span, "TAPP")
    if len(e.args) != len(sig.arg_types):
        _err("ArgArityMismatch",
             f"{name} expects {len(sig.arg_types)} arguments, "
             f"got {len(e.args)}", e.span, "TAPP")
    eff = EMPTY_EFFECT
    elab_args = []
    for i, (arg, want) in enumerate(zip(e.args, sig.arg_types)):
        aty, aeff, aelab = infer_elab(ctx, arg, want)
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


def _fold_htons(ctx: TypingContext, e: App, expected: Optional[Ty]):
    if len(e.args) != 1:
        _err("ArgArityMismatch", "htons takes one argument", e.span, "TAPP")
    arg = infer_elab(ctx, e.args[0])[2]
    if not isinstance(arg, ConstInt):
        _err("HtonsNonConstant",
             "htons folds at compile time and needs a constant argument",
             e.span, "TAPP")
    return _infer_literal(ctx, ConstInt(htons16(arg.value), span=e.span),
                          expected)


def _infer_struct_init(ctx: TypingContext, e: StructInit,
                       expected: Optional[Ty]):
    tty = ctx.lookup(e.name)
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
        if ety != fty:
            _err("FieldMismatch",
                 f"field {fname!r} has type {ety}, expected {fty}",
                 e.span, "TSINIT")
        eff = effect_concat(eff, feff)
        elab_fields.append((fname, felab))
    return tty, eff, \
        StructInit(e.name, tuple(elab_fields), span=e.span, ty=tty)


def _infer_field(ctx: TypingContext, e: Field, expected: Optional[Ty]):
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


def _infer_for(ctx: TypingContext, e: For, expected: Optional[Ty]):
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
    lty, lelab, hty, helab = _coerce_pair(ctx, lty, lelab, hty, helab)
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


# The pattern classes of the two arms of an exhaustive option match.
_OPTION_ARMS = ({Pnone, Psome}, {Pnone, Pwild}, {Psome, Pwild})


def _infer_match_option(ctx, e: Match, sty: OptionTy, seff, selab, expected):
    if len(e.arms) != 2:
        _err("NonExhaustiveOptionMatch",
             "an option match has exactly two arms", e.span, "TMATCHO")
    if {type(p) for p, _ in e.arms} not in _OPTION_ARMS:
        _err("NonExhaustiveOptionMatch",
             "option match must cover pnone and psome "
             "(a wildcard may replace one of them)", e.span, "TMATCHO")
    arms = []
    for p, body in e.arms:
        inner = ctx.extended(**{p.binder: sty.inner}) \
            if isinstance(p, Psome) else ctx
        arms.append((p, *infer_elab(inner, body, expected)))
        expected = expected or arms[0][1]  # as for an if's else-branch
    (p1, t1, ef1, b1), (p2, t2, ef2, b2) = arms
    t1, b1, t2, b2 = _coerce_pair(ctx, t1, b1, t2, b2)
    if t1 != t2:
        _err("BranchTypeMismatch",
             f"match arms have types {t1} and {t2}", e.span, "TMATCHO")
    return t1, effect_concat(seff, ef1, ef2), \
        Match(selab, ((p1, b1), (p2, b2)), span=e.span, ty=t1)


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
    t2, ef2, b2 = infer_elab(ctx, e.arms[1][1], expected or t1)
    t1, b1, t2, b2 = _coerce_pair(ctx, t1, b1, t2, b2)
    if t1 != t2:
        _err("BranchTypeMismatch",
             f"match arms have types {t1} and {t2}", e.span, "TMATCHB")
    return t1, effect_concat(seff, ef1, ef2), \
        Match(selab, ((pat, b1), (e.arms[1][0], b2)), span=e.span, ty=t1)


# Each expression class's typing rule, with the rule names its diagnostics
# carry.  A rule takes the context, the node and the type its position
# expects, and returns the node's type, its effect and its elaboration.
_TYPING_RULES = {
    Var: _infer_var,                # TVAR
    ConstInt: _infer_literal,
    ConstLong: _infer_literal,
    ConstBool: lambda ctx, e, expected: (BOOL, EMPTY_EFFECT, e),
    UnitLit: lambda ctx, e, expected: (UNIT, EMPTY_EFFECT, e),
    Loc: _infer_loc,                # TLOC
    BytesView: _infer_bytes,        # TLOC
    NoneLit: _infer_none,           # TNONE
    SomeLit: _infer_some,           # TSOME
    Prim: _infer_prim,              # TREF, TDEREF, TMASSGN, TUOP, TBOP
    App: _infer_app,                # TAPP
    Let: _infer_let,                # TBIND
    Cond: _infer_cond,              # TCOND
    StructInit: _infer_struct_init,  # TSINIT
    Field: _infer_field,            # TFIELD
    For: _infer_for,                # TFOR
    Match: _infer_match,            # TMATCHO, TMATCHB
    Seq: _infer_seq,
    Repeat: _infer_repeat,
}


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------

def section_ok(ty: Ty, sec: Optional[str]) -> bool:
    """Argument-type / section-attribute compatibility."""
    if sec is None:
        return True
    required = {"xdp_md": "xdp", "__sk_buff": "socket"}
    target = kernel_object(ty)
    return target is None or required.get(target.sid, sec) == sec


@dataclass(frozen=True)
class TypedProgram:
    program: Program  # elaborated declarations
    composites: dict[str, Composite]
    psi: dict[str, Signature]  # every callable: helpers, externs, functions
    effects: dict[str, Effect]  # each function body's inferred effect

    def entry_point(self, name: Optional[str] = None) -> Optional[FunDecl]:
        decls = self.program.fun_decls()
        if name is not None:
            return decls.get(name)
        if "main" in decls:
            return decls["main"]
        sections = [d for d in decls.values() if d.sec is not None]
        if len(sections) == 1:
            return sections[0]
        return None


def _array_ref(ty: Ty) -> bool:
    """ty is a reference to an array, nullable or not, which has no C form
    as a parameter, global, local or extern type."""
    ref = ty.inner if isinstance(ty, OptionTy) else ty
    return isinstance(ref, RefTy) and isinstance(ref.target, ArrayTy)


def _bad_param(ty: Ty) -> bool:
    """ty has no C parameter form: unit, an array or a reference to one."""
    return ty == UNIT or isinstance(ty, ArrayTy) or _array_ref(ty)


def check_fun_decl(ctx: TypingContext, fd: FunDecl) -> tuple[FunDecl, Effect]:
    """fd with its body elaborated, and the body's inferred effect."""
    # A bytes view is a pair of packet pointers.
    if is_pointer(fd.rt) or isinstance(fd.rt, BytesTy):
        _err("ReturnsPointer",
             f"function {fd.name!r} returns a pointer type", fd.span, "TFDECL")
    for x, ty in fd.args:
        if _bad_param(ty):
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
    if bty != fd.rt:
        _err("ReturnTypeMismatch",
             f"body of {fd.name!r} has type {bty}, declared {fd.rt}",
             fd.span, "TFDECL")
    if fd.ef is not None and not effect_subset(beff, fd.ef):
        _err("EffectAnnotationTooSmall",
             f"{fd.name!r} is annotated {fd.ef} but its body performs {beff}",
             fd.span, "TFDECL")
    return replace(fd, body=belab), beff


def check_glob_decl(gd: GlobDecl) -> GlobDecl:
    """gd, with an integer initializer typed by the literal rule, and a
    ``none``, at the declared type."""
    if _array_ref(gd.ty):
        _err("BadGlobalType", f"global {gd.name!r} cannot have type {gd.ty}",
             gd.span, "TGDECL")
    if not section_ok(gd.ty, gd.sec):
        _err("SectionMismatch",
             f"global {gd.name!r} is incompatible with section {gd.sec!r}",
             gd.span, "TGDECL")
    init = gd.init
    if type(init) in (ConstInt, ConstLong):
        ty, _, init = _infer_literal(None, init, gd.ty)
        ok = ty == gd.ty
    elif type(init) is NoneLit:
        ok, ty = isinstance(gd.ty, OptionTy), "option"
        init = NoneLit(span=init.span, ty=gd.ty)
    else:
        ok = ((isinstance(init, ConstBool) and gd.ty == BOOL) or
              (isinstance(init, bytes) and isinstance(gd.ty, ArrayTy)
               and gd.ty.elem.size == 8 and len(init) == gd.ty.length))
        ty = BOOL if isinstance(init, ConstBool) else \
            ArrayTy(I8, len(init))  # a string
    if not ok:
        _err("GlobalInitMismatch",
             f"initializer of {gd.name!r} has type {ty}, declared {gd.ty}",
             gd.init_span or gd.span, "TGDECL")
    return gd if init is gd.init else replace(gd, init=init)


def _check_c_name(what: str, name: str, span: Optional[Span]) -> None:
    """Extern, struct and field names are emitted as written (an extern's
    names a C function), so each must be a C name the emitted C leaves
    free."""
    if "'" in name or name in HOST_TAKEN:
        _err("ReservedName", f"{what} name {name!r} is not free in the "
             "emitted C", span, "TPROG")


def check_program(p: Program) -> TypedProgram:
    pi: dict[str, Composite] = {}
    for co in KERNEL_STRUCTS + p.composites:
        if co.sid in pi:
            _err("DuplicateName", f"struct {co.sid!r} redefined", None, "TPROG")
        pi[co.sid] = co
    for co in p.composites:
        _check_c_name("struct", co.sid, None)
        for fname, fty in co.fields:
            _check_c_name("field", fname, None)
            if not (is_prim(fty) or isinstance(fty, (ArrayTy, BytesTy))):
                _err("BadFieldType",
                     f"field {fname!r} of struct {co.sid!r} must be a "
                     "primitive, array or bytes type", None, "TPROG")
        struct_layout(co, pi)  # resolves sizes early

    psi = dict(HELPERS)
    ctx = TypingContext({}, {}, pi, psi, CONSTANTS)
    names: set[str] = set(psi) | set(CONSTANTS)
    decls = list(p.decls)
    for i, d in enumerate(decls):
        if d.name in names:
            _err("DuplicateName", f"{d.name!r} is already declared",
                 d.span, "TPROG")
        names.add(d.name)
        if isinstance(d, ExtDecl):
            _check_c_name("extern", d.name, d.span)
            for ty in d.arg_types:
                if _bad_param(ty):
                    _err("BadExternType", f"extern {d.name!r} cannot take "
                         f"{ty}", d.span, "TPROG")
            # A call answers with the zero value of the extern's result type.
            rt = d.res_type
            if _array_ref(rt) or not (is_prim(rt) or rt == UNIT
                                      or isinstance(rt, OptionTy)):
                _err("BadExternType", f"extern {d.name!r} cannot return "
                     f"{rt}", d.span, "TPROG")
            psi[d.name] = Signature(d.arg_types, d.ef, d.res_type)
        elif isinstance(d, GlobDecl):
            decls[i] = check_glob_decl(d)
            ctx.gamma[d.name] = d.ty

    effects: dict[str, Effect] = {}
    for i, d in enumerate(decls):
        if isinstance(d, FunDecl):
            clash = ({x for x, _ in d.args} | {y for y, _ in d.vars}) \
                & ctx.gamma.keys()
            if clash:
                _err("DuplicateName",
                     f"locals of {d.name!r} shadow globals: "
                     f"{sorted(clash)}", d.span, "TFDECL")
            decls[i], effects[d.name] = check_fun_decl(ctx, d)
            # A function joins psi only once its body is checked, so it
            # calls only functions declared before it: no recursion, and
            # every loop stays bounded.
            psi[d.name] = Signature(tuple(t for _, t in d.args),
                                    effects[d.name] if d.ef is None else d.ef,
                                    d.rt)

    return TypedProgram(Program(tuple(decls), p.composites), pi, psi, effects)


def check_source(source: str, filename: str = "<input>") -> TypedProgram:
    from .frontend import parse_program
    return check_program(parse_program(source, filename))
