"""Core AST, types, effects, patterns, values and program forms for BeePL.

Everything here is immutable after construction and safe to share across
threads.  Equality is structural; source spans never participate in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import is_not
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union


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
    value: int  # canonical signed 32-bit representative
    span: Optional[Span] = _aux_field()

    def __post_init__(self):
        if not (-(1 << 31) <= self.value < (1 << 31)):
            raise CoreError(f"int literal out of range: {self.value}")


@dataclass(frozen=True)
class ConstLong(Expr):
    value: int
    span: Optional[Span] = _aux_field()

    def __post_init__(self):
        if not (-(1 << 63) <= self.value < (1 << 63)):
            raise CoreError(f"long literal out of range: {self.value}")


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
    # Also set by evaluation when it reads a null option from a typed
    # variable or receives one from a helper, so that re-inference can type
    # it.
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

# A value is an expression evaluation stops at: a literal, a location, a byte
# view, ``none``, or ``some`` around a location.  Memory cells, helper results
# and global initializers hold these nodes too.
_VALUE_CLASSES = frozenset({UnitLit, ConstBool, ConstInt, ConstLong, Loc,
                            BytesView, NoneLit})


def is_value(e: Expr) -> bool:
    cls = type(e)
    return cls in _VALUE_CLASSES or (cls is SomeLit and type(e.value) is Loc)


# The value names of the semantics, as aliases of the nodes they denote.
VUnit = UnitLit
VBool = ConstBool
VInt = ConstInt
VLong = ConstLong
VLoc = Loc
VBytes = BytesView


@dataclass(frozen=True)
class VUndef:
    """Internal sentinel for an undefined result; never an expression."""


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
    init: Union[Expr, bytes]  # a value node, or bytes for a string
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
# The shape of the AST: children, rebuilds and binders
# ---------------------------------------------------------------------------

class Shape(NamedTuple):
    """How a compound node comes apart and goes back together.

    ``children`` lists its subexpressions in a fixed order, which paths and
    evaluation contexts index.  ``rebuild`` makes the node anew from a
    sequence of that length and leaves ``span`` and ``ty`` unset.  ``binds``
    is set only on binder nodes: for each child, the names the node binds
    in it.
    """

    children: Callable[[Expr], tuple[Expr, ...]]
    rebuild: Callable[[Expr, Sequence[Expr]], Expr]
    binds: Optional[Callable[[Expr], tuple[frozenset[str], ...]]] = None


_NO_NAMES: frozenset[str] = frozenset()

SHAPES: dict[type, Shape] = {
    SomeLit: Shape(lambda e: (e.value,),
                   lambda e, c: SomeLit(c[0])),
    App: Shape(lambda e: (e.callee, *e.args),
               lambda e, c: App(c[0], tuple(c[1:]))),
    Prim: Shape(lambda e: e.operands,
                lambda e, c: Prim(e.op, tuple(c))),
    Let: Shape(lambda e: (e.bound, e.body),
               lambda e, c: Let(e.name, e.declared, c[0], c[1]),
               lambda e: (_NO_NAMES, frozenset((e.name,)))),
    Cond: Shape(lambda e: (e.guard, e.then, e.otherwise),
                lambda e, c: Cond(c[0], c[1], c[2])),
    StructInit: Shape(lambda e: tuple(fe for _, fe in e.fields),
                      lambda e, c: StructInit(e.name, tuple(
                          (f, fe) for (f, _), fe in zip(e.fields, c)))),
    Field: Shape(lambda e: (e.target,),
                 lambda e, c: Field(c[0], e.fname)),
    Match: Shape(lambda e: (e.scrutinee, *(b for _, b in e.arms)),
                 lambda e, c: Match(c[0], tuple(
                     (p, b) for (p, _), b in zip(e.arms, c[1:]))),
                 lambda e: (_NO_NAMES,
                            *(pattern_binders(p) for p, _ in e.arms))),
    For: Shape(lambda e: (e.lo, e.hi, e.body),
               lambda e, c: For(c[0], c[1], e.direction, c[2])),
    Seq: Shape(lambda e: e.parts,
               lambda e, c: Seq(tuple(c))),
    Repeat: Shape(lambda e: (e.body,),
                  lambda e, c: Repeat(c[0], e.count)),
}

LEAVES = frozenset({Var, ConstInt, ConstLong, ConstBool, UnitLit, NoneLit,
                    Loc, BytesView})


def _shape(e: Expr) -> Optional[Shape]:
    """The shape of a compound node; None for a leaf."""
    shape = SHAPES.get(type(e))
    if shape is None and type(e) not in LEAVES:
        raise CoreError(f"unknown expression {e!r}")
    return shape


def expr_children(e: Expr) -> tuple[Expr, ...]:
    shape = _shape(e)
    return () if shape is None else shape.children(e)


def with_children(e: Expr, children: Sequence[Expr]) -> Expr:
    """e rebuilt from new children, given in expr_children order."""
    shape = _shape(e)
    return e if shape is None else shape.rebuild(e, children)


def fvar(e: Expr, known: Optional[dict[int, tuple[Expr, frozenset[str]]]]
         = None) -> frozenset[str]:
    """Free variables of an expression; binders shadow their bodies.

    ``known``, when given, caches the answer for each compound subterm by
    node identity; each entry holds its node, so the identity is not reused.
    """
    if type(e) is Var:
        return frozenset((e.name,))
    shape = _shape(e)
    if shape is None:
        return _NO_NAMES
    if known is not None:
        entry = known.get(id(e))
        if entry is not None:
            return entry[1]
    # A struct initialization names the variable it initializes.
    out = frozenset((e.name,)) if type(e) is StructInit else _NO_NAMES
    if shape.binds is None:
        for c in shape.children(e):
            out |= fvar(c, known)
    else:
        for c, bound in zip(shape.children(e), shape.binds(e)):
            out |= fvar(c, known) - bound
    if known is not None:
        known[id(e)] = (e, out)
    return out


def _replace_free(e: Expr, x: str, v: Expr, rename: Optional[str]) -> Expr:
    """The walk behind subst and rename_var: free ``Var(x)`` becomes v.

    The two differ only at a struct initialization of x: substitution stops
    there, since the initialized variable shadows it, while renaming (when
    ``rename`` is the new name) renames the target and goes on into the
    fields.

    A node none of whose children changed is returned itself, so every
    subterm without a free x keeps its identity (and its ``span`` and
    ``ty``); the audit's memo of judgments keys on that identity.
    """
    if type(e) is Var:
        return v if e.name == x else e
    shape = _shape(e)
    if shape is None:
        return e
    if type(e) is StructInit and e.name == x:
        if rename is None:
            return e
        e = StructInit(rename, e.fields)
    children = shape.children(e)
    if shape.binds is None:
        new = [_replace_free(c, x, v, rename) for c in children]
    else:
        new = [c if x in bound else _replace_free(c, x, v, rename)
               for c, bound in zip(children, shape.binds(e))]
    if not any(map(is_not, new, children)):
        return e
    return shape.rebuild(e, new)


def subst(e: Expr, x: str, v: Expr) -> Expr:
    """Capture-avoiding substitution e[x <- v]; same-named binders shadow."""
    return _replace_free(e, x, v, None)


def rename_var(e: Expr, old: str, new: str) -> Expr:
    """Rename free occurrences of a variable, including struct-init targets.

    Used when a call binds parameters and locals apart; unlike subst, the
    name slot of a struct initialization is an occurrence to rename.
    """
    return _replace_free(e, old, Var(new), new)


def contains_internal(e: Expr) -> bool:
    """True when e contains a node that only evaluation may produce."""
    if isinstance(e, INTERNAL_EXPRS):
        return True
    for child in expr_children(e):
        if contains_internal(child):
            return True
    return False
