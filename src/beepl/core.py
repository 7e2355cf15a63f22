"""Core AST, types, effects, patterns, values and program forms for BeePL.

Everything here is immutable after construction and safe to share across
threads.  Equality is structural; source spans never participate in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Union


class CoreError(Exception):
    pass


class UnknownStruct(CoreError):
    pass


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    start: int = 0
    end: int = 0


# A keyword-only, comparison-exempt slot shared by AST nodes.  Every node has
# a ``span``.  Compound nodes also have a ``ty``: the checker's type, recorded
# by elaboration and read by the C backend.  Leaves carry no ``ty``, since a
# literal's type follows from its class and a variable's from its binder.
# Nodes built during evaluation leave ``ty`` unset.
def _aux_field():
    return field(default=None, kw_only=True, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

class EffectAtom(Enum):
    DIVERGENCE = "divergence"
    READ = "read"
    WRITE = "write"
    ALLOC = "alloc"
    IO = "io"


@dataclass(frozen=True)
class Effect:
    """An ordered list of effect atoms.

    Concatenation keeps order and multiplicity; comparisons are set-based.
    """

    items: tuple[EffectAtom, ...] = ()

    def __iter__(self):
        return iter(self.items)

    def __bool__(self):
        return bool(self.items)

    def atoms(self) -> frozenset[EffectAtom]:
        return frozenset(self.items)

    def __str__(self):
        return "<" + ", ".join(a.value for a in self.items) + ">"


EMPTY_EFFECT = Effect()
ALLOC = Effect((EffectAtom.ALLOC,))
READ = Effect((EffectAtom.READ,))
WRITE = Effect((EffectAtom.WRITE,))
IO = Effect((EffectAtom.IO,))
DIVERGENCE = Effect((EffectAtom.DIVERGENCE,))


def effect_concat(*effs: Effect) -> Effect:
    items: list[EffectAtom] = []
    for e in effs:
        items.extend(e.items)
    return Effect(tuple(items))


def effect_subset(a: Effect, b: Effect) -> bool:
    return a.atoms() <= b.atoms()


def effect_of(names: Iterable[str]) -> Effect:
    return Effect(tuple(EffectAtom(n) for n in names))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Sign(Enum):
    SIGNED = "signed"
    UNSIGNED = "unsigned"


class Ty:
    """Base class for all BeePL types."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolTy(Ty):
    pass


@dataclass(frozen=True)
class IntTy(Ty):
    size: int = 32  # bits, one of 8/16/32
    sign: Sign = Sign.SIGNED

    def __post_init__(self):
        if self.size not in (8, 16, 32):
            raise CoreError(f"invalid int size {self.size}")


@dataclass(frozen=True)
class LongTy(Ty):
    sign: Sign = Sign.SIGNED


@dataclass(frozen=True)
class UnitTy(Ty):
    pass


@dataclass(frozen=True)
class BytesTy(Ty):
    pass


@dataclass(frozen=True)
class StructTy(Ty):
    sid: str


@dataclass(frozen=True)
class ArrayTy(Ty):
    elem: Ty
    length: int

    def __post_init__(self):
        if not is_prim(self.elem):
            raise CoreError("array element must be a primitive type")
        if self.length < 1:
            raise CoreError("array length must be >= 1")


@dataclass(frozen=True)
class RefTy(Ty):
    """Safe reference to an allocated basic value (prim, struct or array)."""

    target: Ty

    def __post_init__(self):
        if not is_basic(self.target):
            raise CoreError(f"ref of non-basic type {self.target}")


@dataclass(frozen=True)
class OptionTy(Ty):
    """Nullable pointer; wraps only pointer-kind types and never nests."""

    inner: Ty

    def __post_init__(self):
        if not isinstance(self.inner, RefTy):
            raise CoreError(f"option of non-pointer type {self.inner}")


INT = IntTy(32, Sign.SIGNED)
LONG = LongTy(Sign.SIGNED)
ULONG = LongTy(Sign.UNSIGNED)
BOOL = BoolTy()
UNIT = UnitTy()
BYTES = BytesTy()
U8 = IntTy(8, Sign.UNSIGNED)
U16 = IntTy(16, Sign.UNSIGNED)
U32 = IntTy(32, Sign.UNSIGNED)
I8 = IntTy(8, Sign.SIGNED)
I16 = IntTy(16, Sign.SIGNED)


def is_prim(ty: Ty) -> bool:
    return isinstance(ty, (BoolTy, IntTy, LongTy))


def is_basic(ty: Ty) -> bool:
    return is_prim(ty) or isinstance(ty, (StructTy, ArrayTy))


def is_pointer(ty: Ty) -> bool:
    return isinstance(ty, (RefTy, OptionTy))


def int_lane(ty: Ty) -> Optional[str]:
    """Runtime representation lane of a numeric type: 'int' or 'long'."""
    if isinstance(ty, IntTy):
        return "int"
    if isinstance(ty, LongTy):
        return "long"
    return None


# ---------------------------------------------------------------------------
# Struct layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composite:
    sid: str
    fields: tuple[tuple[str, Ty], ...]

    def field_type(self, name: str) -> Optional[Ty]:
        for f, t in self.fields:
            if f == name:
                return t
        return None


Composites = dict  # str -> Composite


def size_align(ty: Ty, composites: "Composites") -> tuple[int, int]:
    if isinstance(ty, BoolTy):
        return 1, 1
    if isinstance(ty, IntTy):
        n = ty.size // 8
        return n, n
    if isinstance(ty, LongTy):
        return 8, 8
    if isinstance(ty, (RefTy, OptionTy)):
        return 8, 8
    if isinstance(ty, BytesTy):
        return 16, 8  # {start, end} pointer pair
    if isinstance(ty, UnitTy):
        return 0, 1
    if isinstance(ty, ArrayTy):
        es, ea = size_align(ty.elem, composites)
        return es * ty.length, ea
    if isinstance(ty, StructTy):
        co = composites.get(ty.sid)
        if co is None:
            raise UnknownStruct(ty.sid)
        _, size, align = struct_layout(co, composites)
        return size, align
    raise CoreError(f"type {ty} has no size")


def struct_layout(co: Composite, composites: "Composites"):
    """C-style natural layout: (offsets by field name, total size, alignment)."""
    offsets: dict[str, int] = {}
    off = 0
    align = 1
    for fname, fty in co.fields:
        fs, fa = size_align(fty, composites)
        off = _round_up(off, fa)
        offsets[fname] = off
        off += fs
        align = max(align, fa)
    return offsets, _round_up(off, align), align


def sizeof(ty: Ty, composites: "Composites") -> int:
    return size_align(ty, composites)[0]


def _round_up(n: int, align: int) -> int:
    rem = n % align
    return n if rem == 0 else n + (align - rem)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class BopKind(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LAND = "&&"
    LOR = "||"


class UopKind(Enum):
    NEG = "-"
    LOGNOT = "not"
    BITNOT = "~"


COMPARE_BOPS = {BopKind.EQ, BopKind.NE, BopKind.LT, BopKind.LE, BopKind.GT, BopKind.GE}
LOGIC_BOPS = {BopKind.LAND, BopKind.LOR}


class PrimOp:
    __slots__ = ()


@dataclass(frozen=True)
class Deref(PrimOp):
    pass


@dataclass(frozen=True)
class Assign(PrimOp):
    pass


@dataclass(frozen=True)
class RefOp(PrimOp):
    pass


@dataclass(frozen=True)
class Uop(PrimOp):
    kind: UopKind


@dataclass(frozen=True)
class Cast(PrimOp):
    target: Ty  # restricted to int/long by the checker


@dataclass(frozen=True)
class Bop(PrimOp):
    kind: BopKind


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: str
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class ConstInt(Expr):
    value: int
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class ConstLong(Expr):
    value: int
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class ConstBool(Expr):
    value: bool
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class UnitLit(Expr):
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class App(Expr):
    callee: Expr
    args: tuple[Expr, ...]
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class Prim(Expr):
    op: PrimOp
    operands: tuple[Expr, ...]
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class Let(Expr):
    name: str
    declared: Ty
    bound: Expr
    body: Expr
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class Cond(Expr):
    guard: Expr
    then: Expr
    otherwise: Expr
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class StructInit(Expr):
    name: str  # a declared struct-reference variable being initialized
    fields: tuple[tuple[str, Expr], ...]
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class Field(Expr):
    target: Expr
    fname: str
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class NoneLit(Expr):
    span: Optional[Span] = _aux_field()
    # Also set by evaluation when a null option value re-enters expression
    # position, so that re-inference can type it.
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class SomeLit(Expr):
    value: Expr
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


class Direction(Enum):
    UP = "Up"
    DOWN = "Down"


@dataclass(frozen=True)
class For(Expr):
    lo: Expr
    hi: Expr
    direction: Direction
    body: Expr
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class Match(Expr):
    scrutinee: Expr
    arms: tuple[tuple["Pattern", Expr], ...]
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()

    def __post_init__(self):
        if not self.arms:
            raise CoreError("match must have at least one arm")


# Internal-only expressions; never produced by the parser.

@dataclass(frozen=True)
class Loc(Expr):
    block: int
    offset: int = 0
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class BytesView(Expr):
    """A byte-region value in expression position (block, offset, length)."""

    block: int
    offset: int
    length: int
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class Seq(Expr):
    """Evaluation-order sequence created by for-loop unrolling."""

    parts: tuple[Expr, ...]
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


@dataclass(frozen=True)
class Repeat(Expr):
    """Pending loop iterations; unrolls one body copy per step."""

    body: Expr
    count: int
    span: Optional[Span] = _aux_field()
    ty: Optional[Ty] = _aux_field()


INTERNAL_EXPRS = (Loc, BytesView, Seq, Repeat)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class Pnone(Pattern):
    pass


@dataclass(frozen=True)
class Psome(Pattern):
    binder: str


@dataclass(frozen=True)
class Pbytes(Pattern):
    binder: str
    target: Ty  # struct of non-pointer fields, or a prim type
    fields: tuple[tuple[str, Ty], ...] = ()

    def __post_init__(self):
        if not (is_prim(self.target) or isinstance(self.target, StructTy)):
            raise CoreError("pbytes target must be a prim or struct type")
        if is_prim(self.target) and self.fields:
            raise CoreError("pbytes on a prim type binds no fields")


@dataclass(frozen=True)
class Pwild(Pattern):
    pass


def pattern_binders(p: Pattern) -> frozenset[str]:
    if isinstance(p, Psome):
        return frozenset((p.binder,))
    if isinstance(p, Pbytes):
        return frozenset((p.binder,)) | frozenset(y for y, _ in p.fields)
    return frozenset()


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    __slots__ = ()


@dataclass(frozen=True)
class VUnit(Value):
    pass


@dataclass(frozen=True)
class VBool(Value):
    value: bool


@dataclass(frozen=True)
class VInt(Value):
    value: int  # canonical signed 32-bit representative

    def __post_init__(self):
        if not (-(1 << 31) <= self.value < (1 << 31)):
            raise CoreError(f"VInt out of range: {self.value}")


@dataclass(frozen=True)
class VLong(Value):
    value: int

    def __post_init__(self):
        if not (-(1 << 63) <= self.value < (1 << 63)):
            raise CoreError(f"VLong out of range: {self.value}")


@dataclass(frozen=True)
class VLoc(Value):
    block: int
    offset: int = 0


@dataclass(frozen=True)
class VOption(Value):
    value: Optional[VLoc]  # None models the null case


@dataclass(frozen=True)
class VBytes(Value):
    block: int
    offset: int
    length: int


@dataclass(frozen=True)
class VUndef(Value):
    """Internal sentinel; must never escape evaluation of a well-typed program."""


def value_to_expr(v: Value) -> Expr:
    if isinstance(v, VUnit):
        return UnitLit()
    if isinstance(v, VBool):
        return ConstBool(v.value)
    if isinstance(v, VInt):
        return ConstInt(v.value)
    if isinstance(v, VLong):
        return ConstLong(v.value)
    if isinstance(v, VLoc):
        return Loc(v.block, v.offset)
    if isinstance(v, VOption):
        if v.value is None:
            return NoneLit()
        return SomeLit(Loc(v.value.block, v.value.offset))
    if isinstance(v, VBytes):
        return BytesView(v.block, v.offset, v.length)
    raise CoreError(f"value {v} has no expression form")


# Value forms by node class.  The interpreter asks this of every node on the
# path to each redex, so one lookup answers the common case, a non-value.
_VALUE_FORMS = {
    UnitLit: lambda e: VUnit(),
    ConstBool: lambda e: VBool(e.value),
    ConstInt: lambda e: VInt(e.value),
    ConstLong: lambda e: VLong(e.value),
    Loc: lambda e: VLoc(e.block, e.offset),
    NoneLit: lambda e: VOption(None),
    SomeLit: lambda e: (VOption(VLoc(e.value.block, e.value.offset))
                        if isinstance(e.value, Loc) else None),
    BytesView: lambda e: VBytes(e.block, e.offset, e.length),
}


def expr_to_value(e: Expr) -> Optional[Value]:
    """The value denoted by a fully-evaluated expression, else None."""
    form = _VALUE_FORMS.get(type(e))
    return form(e) if form is not None else None


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunDecl:
    name: str
    rt: Ty
    args: tuple[tuple[str, Ty], ...]
    body: Expr
    vars: tuple[tuple[str, Ty], ...] = ()
    ef: Optional[Effect] = None  # None = infer; annotation otherwise
    sec: Optional[str] = None
    cc: str = "default"  # opaque calling-convention tag
    flag: bool = False  # marks an eBPF entry point
    span: Optional[Span] = _aux_field()

    def __post_init__(self):
        arg_names = {x for x, _ in self.args}
        var_names = {y for y, _ in self.vars}
        if arg_names & var_names:
            raise CoreError(f"args and vars of {self.name} overlap")


@dataclass(frozen=True)
class ExtDecl:
    name: str
    arg_types: tuple[Ty, ...]
    res_type: Ty
    ef: Effect = EMPTY_EFFECT
    cc: str = "default"
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class GlobDecl:
    name: str
    ty: Ty
    init: Union[Value, bytes]  # bytes for string initializers
    sec: Optional[str] = None
    span: Optional[Span] = _aux_field()


Decl = Union[FunDecl, ExtDecl, GlobDecl]


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...] = ()
    composites: tuple[Composite, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for d in self.decls:
            if d.name in seen:
                raise CoreError(f"duplicate declaration name {d.name}")
            seen.add(d.name)

    def fun_decls(self) -> dict[str, FunDecl]:
        return {d.name: d for d in self.decls if isinstance(d, FunDecl)}


# ---------------------------------------------------------------------------
# Free variables and substitution
# ---------------------------------------------------------------------------

def fvar(e: Expr) -> frozenset[str]:
    """Free variables of an expression; binders shadow their bodies."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (ConstInt, ConstLong, ConstBool, UnitLit, NoneLit,
                      Loc, BytesView)):
        return frozenset()
    if isinstance(e, SomeLit):
        return fvar(e.value)
    if isinstance(e, App):
        out = fvar(e.callee)
        for a in e.args:
            out |= fvar(a)
        return out
    if isinstance(e, Prim):
        out = frozenset()
        for a in e.operands:
            out |= fvar(a)
        return out
    if isinstance(e, Let):
        return fvar(e.bound) | (fvar(e.body) - {e.name})
    if isinstance(e, Cond):
        return fvar(e.guard) | fvar(e.then) | fvar(e.otherwise)
    if isinstance(e, StructInit):
        out = frozenset((e.name,))
        for _, fe in e.fields:
            out |= fvar(fe)
        return out
    if isinstance(e, Field):
        return fvar(e.target)
    if isinstance(e, Match):
        out = fvar(e.scrutinee)
        for p, body in e.arms:
            out |= fvar(body) - pattern_binders(p)
        return out
    if isinstance(e, For):
        return fvar(e.lo) | fvar(e.hi) | fvar(e.body)
    if isinstance(e, Seq):
        out = frozenset()
        for p in e.parts:
            out |= fvar(p)
        return out
    if isinstance(e, Repeat):
        return fvar(e.body)
    raise CoreError(f"fvar: unknown expression {e!r}")


def subst(e: Expr, x: str, v: Expr) -> Expr:
    """Capture-avoiding substitution e[x <- v]; same-named binders shadow."""
    if isinstance(e, Var):
        return v if e.name == x else e
    if isinstance(e, (ConstInt, ConstLong, ConstBool, UnitLit, NoneLit,
                      Loc, BytesView)):
        return e
    if isinstance(e, SomeLit):
        return SomeLit(subst(e.value, x, v))
    if isinstance(e, App):
        return App(subst(e.callee, x, v),
                   tuple(subst(a, x, v) for a in e.args))
    if isinstance(e, Prim):
        return Prim(e.op, tuple(subst(a, x, v) for a in e.operands))
    if isinstance(e, Let):
        bound = subst(e.bound, x, v)
        body = e.body if e.name == x else subst(e.body, x, v)
        return Let(e.name, e.declared, bound, body)
    if isinstance(e, Cond):
        return Cond(subst(e.guard, x, v), subst(e.then, x, v),
                    subst(e.otherwise, x, v))
    if isinstance(e, StructInit):
        if e.name == x:  # the initialized variable shadows the substitution
            return e
        return StructInit(e.name, tuple((f, subst(fe, x, v)) for f, fe in e.fields))
    if isinstance(e, Field):
        return Field(subst(e.target, x, v), e.fname)
    if isinstance(e, Match):
        arms = []
        for p, body in e.arms:
            if x in pattern_binders(p):
                arms.append((p, body))
            else:
                arms.append((p, subst(body, x, v)))
        return Match(subst(e.scrutinee, x, v), tuple(arms))
    if isinstance(e, For):
        return For(subst(e.lo, x, v), subst(e.hi, x, v), e.direction,
                   subst(e.body, x, v))
    if isinstance(e, Seq):
        return Seq(tuple(subst(p, x, v) for p in e.parts))
    if isinstance(e, Repeat):
        return Repeat(subst(e.body, x, v), e.count)
    raise CoreError(f"subst: unknown expression {e!r}")


def rename_var(e: Expr, old: str, new: str) -> Expr:
    """Rename free occurrences of a variable, including struct-init targets.

    Used when a call binds parameters and locals apart; unlike subst, the
    name slot of a struct initialization is an occurrence to rename.
    """
    if isinstance(e, Var):
        return Var(new) if e.name == old else e
    if isinstance(e, StructInit):
        name = new if e.name == old else e.name
        return StructInit(name, tuple((f, rename_var(fe, old, new))
                                      for f, fe in e.fields))
    if isinstance(e, Let):
        bound = rename_var(e.bound, old, new)
        body = e.body if e.name == old else rename_var(e.body, old, new)
        return Let(e.name, e.declared, bound, body)
    if isinstance(e, Match):
        arms = tuple((p, body if old in pattern_binders(p)
                      else rename_var(body, old, new))
                     for p, body in e.arms)
        return Match(rename_var(e.scrutinee, old, new), arms)
    if isinstance(e, (ConstInt, ConstLong, ConstBool, UnitLit, NoneLit,
                      Loc, BytesView)):
        return e
    if isinstance(e, SomeLit):
        return SomeLit(rename_var(e.value, old, new))
    if isinstance(e, App):
        return App(rename_var(e.callee, old, new),
                   tuple(rename_var(a, old, new) for a in e.args))
    if isinstance(e, Prim):
        return Prim(e.op, tuple(rename_var(a, old, new) for a in e.operands))
    if isinstance(e, Cond):
        return Cond(rename_var(e.guard, old, new),
                    rename_var(e.then, old, new),
                    rename_var(e.otherwise, old, new))
    if isinstance(e, Field):
        return Field(rename_var(e.target, old, new), e.fname)
    if isinstance(e, For):
        return For(rename_var(e.lo, old, new), rename_var(e.hi, old, new),
                   e.direction, rename_var(e.body, old, new))
    if isinstance(e, Seq):
        return Seq(tuple(rename_var(p, old, new) for p in e.parts))
    if isinstance(e, Repeat):
        return Repeat(rename_var(e.body, old, new), e.count)
    raise CoreError(f"rename_var: unknown expression {e!r}")


def contains_internal(e: Expr) -> bool:
    """True when e contains a node that only evaluation may produce."""
    if isinstance(e, INTERNAL_EXPRS):
        return True
    for child in expr_children(e):
        if contains_internal(child):
            return True
    return False


def expr_children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Var, ConstInt, ConstLong, ConstBool, UnitLit, NoneLit,
                      Loc, BytesView)):
        return ()
    if isinstance(e, SomeLit):
        return (e.value,)
    if isinstance(e, App):
        return (e.callee, *e.args)
    if isinstance(e, Prim):
        return e.operands
    if isinstance(e, Let):
        return (e.bound, e.body)
    if isinstance(e, Cond):
        return (e.guard, e.then, e.otherwise)
    if isinstance(e, StructInit):
        return tuple(fe for _, fe in e.fields)
    if isinstance(e, Field):
        return (e.target,)
    if isinstance(e, Match):
        return (e.scrutinee, *(b for _, b in e.arms))
    if isinstance(e, For):
        return (e.lo, e.hi, e.body)
    if isinstance(e, Seq):
        return e.parts
    if isinstance(e, Repeat):
        return (e.body,)
    raise CoreError(f"expr_children: unknown expression {e!r}")
