"""Core AST, types, effects, patterns, values and program forms for BeePL.

Types, patterns and declarations are frozen; memo keys hash types.  Spans
and expression nodes are slotted records that do not hash, immutable by
convention: no stage assigns to a node after construction.  Equality is
structural; source spans and a node's type never participate in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter, is_not, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union


class CoreError(Exception):
    pass


class UnknownStruct(CoreError):
    pass


class RepeatedName(CoreError):
    """A name declared or bound twice where names must be distinct."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


@dataclass(slots=True)
class Span:
    line: int
    col: int
    start: int = 0
    end: int = 0


# A keyword-only, comparison-exempt slot shared by AST nodes.  Every node has
# a ``span`` (from Expr).  Compound nodes also have a ``ty``: the checker's
# type, recorded by elaboration and read by the C backend and the
# interpreter.  Leaves carry no ``ty``: a literal's type follows from its
# position and a variable's from its binder.  A rebuilt node keeps its
# ``ty``; the nodes a loop unrolls into leave it unset.
def _aux_field():
    return field(default=None, kw_only=True, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

class EffectAtom(Enum):
    __hash__ = object.__hash__
    DIVERGENCE = "divergence"
    READ = "read"
    WRITE = "write"
    ALLOC = "alloc"
    IO = "io"


class Effect(frozenset):
    """A set of effect atoms; it prints in EffectAtom declaration order."""

    __slots__ = ()

    def __str__(self):
        return "<" + ", ".join(a.value for a in EffectAtom if a in self) + ">"


EMPTY_EFFECT = Effect()
ALLOC = Effect((EffectAtom.ALLOC,))
READ = Effect((EffectAtom.READ,))
WRITE = Effect((EffectAtom.WRITE,))
IO = Effect((EffectAtom.IO,))


def effect_concat(*effs: Effect) -> Effect:
    return Effect(EMPTY_EFFECT.union(*effs))


def effect_subset(a: Effect, b: Effect) -> bool:
    return a <= b


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Sign(Enum):
    __hash__ = object.__hash__
    SIGNED = "signed"
    UNSIGNED = "unsigned"


class Ty:
    """Base class for all BeePL types.  ``str`` gives a type's source syntax
    and ``repr`` its dataclass fields."""

    __slots__ = ()

    def __str__(self) -> str:
        name = TYPE_NAMES.get(self)
        if name is not None:
            return name
        if isinstance(self, StructTy):
            return f"struct {self.sid}"
        if isinstance(self, RefTy):
            return f"{self.target}*"
        if isinstance(self, OptionTy):
            return f"option({self.inner})"
        return f"{self.elem}[{self.length}]"  # ArrayTy


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

TYPE_NAMES = {
    BOOL: "bool", INT: "int", LONG: "long", ULONG: "ulong",
    I8: "i8", I16: "i16", U8: "u8", U16: "u16", U32: "u32",
    UNIT: "unit", BYTES: "bytes",
}


def is_prim(ty: Ty) -> bool:
    return isinstance(ty, (BoolTy, IntTy, LongTy))


def is_basic(ty: Ty) -> bool:
    return is_prim(ty) or isinstance(ty, (StructTy, ArrayTy))


def is_pointer(ty: Ty) -> bool:
    return isinstance(ty, (RefTy, OptionTy))


def kernel_object(ty: Ty) -> Optional[StructTy]:
    """The struct S whose kernel object a parameter or global of type
    ``option(struct S*)`` denotes, else None."""
    if isinstance(ty, OptionTy) and isinstance(ty.inner.target, StructTy):
        return ty.inner.target
    return None


def entry_arg_given(ty: Ty) -> bool:
    """Whether ``interp.start`` and the host shim can give an entry point an
    argument of type ty, of those a parameter may have: a prim or pointer."""
    return is_prim(ty) or is_pointer(ty)


def int_fits(value: int, ty: IntTy) -> bool:
    """Whether an integer literal's value is one of int type ty's.  Int
    values live in the signed 32-bit lane, so ``u32`` stops at INT_MAX."""
    if ty.sign is Sign.UNSIGNED:
        return 0 <= value < min(1 << ty.size, 1 << 31)
    return -(1 << (ty.size - 1)) <= value < (1 << (ty.size - 1))


# ---------------------------------------------------------------------------
# Struct layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composite:
    sid: str
    fields: tuple[tuple[str, Ty], ...]
    span: Optional[Span] = _aux_field()  # the struct's name
    # A kernel struct's eBPF C declaration, and the section an entry point or
    # global of its type needs (None: any).
    c_decl: Optional[str] = _aux_field()
    section: Optional[str] = _aux_field()

    def __post_init__(self):
        dup = _repeated(f for f, _ in self.fields)
        if dup is not None:
            raise RepeatedName(dup, f"field {dup!r} of struct {self.sid} "
                               "is declared twice")

    def field_type(self, name: str) -> Optional[Ty]:
        for f, t in self.fields:
            if f == name:
                return t
        return None


Composites = dict  # str -> Composite


def _repeated(names: Iterable[str]) -> Optional[str]:
    """The first name that occurs a second time, if any."""
    seen: set[str] = set()
    for x in names:
        if x in seen:
            return x
        seen.add(x)
    return None


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
    __hash__ = object.__hash__
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
    __hash__ = object.__hash__
    NEG = "-"
    LOGNOT = "not"
    BITNOT = "~"


# Tuples: a membership test compares by identity and hashes no enum member.
COMPARE_BOPS = (BopKind.EQ, BopKind.NE, BopKind.LT, BopKind.LE, BopKind.GT, BopKind.GE)
LOGIC_BOPS = (BopKind.LAND, BopKind.LOR)


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

@dataclass(slots=True)
class Expr:
    span: Optional[Span] = _aux_field()


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class ConstInt(Expr):
    value: int  # signed 32-bit; typecheck._infer_literal rejects others


@dataclass(slots=True)
class ConstLong(Expr):
    value: int  # signed 64-bit, likewise


@dataclass(slots=True)
class ConstBool(Expr):
    value: bool


@dataclass(slots=True)
class UnitLit(Expr):
    pass


@dataclass(slots=True)
class App(Expr):
    callee: Expr
    args: tuple[Expr, ...]
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Prim(Expr):
    op: PrimOp
    operands: tuple[Expr, ...]
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Let(Expr):
    name: str
    declared: Ty
    bound: Expr
    body: Expr
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Cond(Expr):
    guard: Expr
    then: Expr
    otherwise: Expr
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class StructInit(Expr):
    name: str  # a declared struct-reference variable being initialized
    fields: tuple[tuple[str, Expr], ...]
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Field(Expr):
    target: Expr
    fname: str
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class NoneLit(Expr):
    # Set by elaboration, and by interp.zero_value for a null that
    # evaluation makes, so that every null a run holds is typed.
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class SomeLit(Expr):
    value: Expr
    ty: Optional[Ty] = _aux_field()


class Direction(Enum):
    __hash__ = object.__hash__
    UP = "Up"
    DOWN = "Down"


@dataclass(slots=True)
class For(Expr):
    lo: Expr
    hi: Expr
    direction: Direction
    body: Expr
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Match(Expr):
    scrutinee: Expr
    arms: tuple[tuple["Pattern", Expr], ...]
    ty: Optional[Ty] = _aux_field()

    def __post_init__(self):
        if not self.arms:
            raise CoreError("match must have at least one arm")


# Internal-only expressions; never produced by the parser.

@dataclass(slots=True)
class Loc(Expr):
    block: int
    offset: int = 0


@dataclass(slots=True)
class BytesView(Expr):
    """A byte-region value in expression position (block, offset, length)."""

    block: int
    offset: int
    length: int


@dataclass(slots=True)
class Seq(Expr):
    """Evaluation-order sequence created by for-loop unrolling."""

    parts: tuple[Expr, ...]
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Repeat(Expr):
    """Pending loop iterations; unrolls one body copy per step."""

    body: Expr
    count: int
    ty: Optional[Ty] = _aux_field()


@dataclass(slots=True)
class Frame(Expr):
    """A call of function ``name`` in progress: ``env`` maps each parameter
    and local to the block the call gave it, and ``body`` starts as the
    function's elaborated body itself, shared by every call."""

    name: str
    env: dict[str, int]
    body: Expr
    ty: Optional[Ty] = _aux_field()


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

# The names a binder binds, one set for each tuple of names in use, so that
# a visit of a binder builds none.
_name_set = lru_cache(maxsize=1024)(frozenset)
_NO_NAMES: frozenset[str] = frozenset()


class Pattern:
    """``binders`` holds the names a pattern binds in its arm."""

    __slots__ = ()


@dataclass(frozen=True)
class Pnone(Pattern):
    binders = _NO_NAMES


@dataclass(frozen=True)
class Psome(Pattern):
    binder: str

    def __post_init__(self):
        object.__setattr__(self, "binders", _name_set((self.binder,)))


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
        names = (self.binder, *map(itemgetter(0), self.fields))
        dup = _repeated(names)
        if dup is not None:
            raise RepeatedName(dup, f"pattern binds {dup!r} twice")
        object.__setattr__(self, "binders", _name_set(names))


@dataclass(frozen=True)
class Pwild(Pattern):
    binders = _NO_NAMES


def select_arm(arms, cls: type):
    """The arm a match takes on a value of pattern class ``cls``: the first
    ``cls`` arm, else the first wildcard, else None.  The interpreter and the
    C backend both choose by it."""
    wild = None
    for arm in arms:
        if isinstance(arm[0], cls):
            return arm
        if wild is None and isinstance(arm[0], Pwild):
            wild = arm
    return wild


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
    sec: Optional[str] = None  # an eBPF entry point's section
    span: Optional[Span] = _aux_field()

    def __post_init__(self):
        for what, names in (("parameter", self.args), ("local", self.vars),
                            ("parameter and local", self.args + self.vars)):
            dup = _repeated(x for x, _ in names)
            if dup is not None:
                raise RepeatedName(dup, f"{what} {dup!r} of {self.name} is "
                                   "declared twice")


@dataclass(frozen=True)
class ExtDecl:
    name: str
    arg_types: tuple[Ty, ...]
    res_type: Ty
    ef: Effect = EMPTY_EFFECT
    span: Optional[Span] = _aux_field()


@dataclass(frozen=True)
class GlobDecl:
    name: str
    ty: Ty
    init: Union[Expr, bytes]  # a value node, or bytes for a string
    sec: Optional[str] = None
    span: Optional[Span] = _aux_field()
    init_span: Optional[Span] = _aux_field()  # bytes carry no span


Decl = Union[FunDecl, ExtDecl, GlobDecl]


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...] = ()
    composites: tuple[Composite, ...] = ()

    def __post_init__(self):
        dup = _repeated(d.name for d in self.decls)
        if dup is not None:
            raise RepeatedName(dup, f"duplicate declaration name {dup}")

    def fun_decls(self) -> dict[str, FunDecl]:
        return {d.name: d for d in self.decls if isinstance(d, FunDecl)}

    def entry_point(self, name: Optional[str] = None) -> Optional[FunDecl]:
        """The function a run and the host shim call: ``name``, else main,
        else the one function with a section."""
        decls = self.fun_decls()
        if name is not None:
            return decls.get(name)
        if "main" in decls:
            return decls["main"]
        sections = [d for d in decls.values() if d.sec is not None]
        return sections[0] if len(sections) == 1 else None


@dataclass(frozen=True)
class Signature:
    """The signature of a kernel helper, an extern or a declared function.  A
    helper has a number in the kernel's helper table, which eBPF C calls; a
    helper or an extern has a host answer, which the default
    ``interp.ExternalWorld`` and host C give (0: its type's zero, a null)."""

    arg_types: tuple[Ty, ...]
    eff: Effect
    res_type: Ty
    number: Optional[int] = None
    answer: int = 0


# The kernel helpers, preloaded into psi.
_LONG_CELL = OptionTy(RefTy(LONG))
HELPERS: dict[str, Signature] = {
    "bpf_map_lookup_elem": Signature(
        (OptionTy(RefTy(StructTy("bpf_map"))), _LONG_CELL),
        effect_concat(READ, IO), _LONG_CELL, 1),
    "bpf_get_current_uid_gid": Signature((), IO, LONG, 15, 0x000003E8000003E8),
}
# The kernel structs, preloaded into pi.
KERNEL_STRUCTS: dict[str, Composite] = {co.sid: co for co in (
    Composite("bpf_map", (), c_decl="struct bpf_map;"),
    Composite("xdp_md", (("data", BYTES),), section="xdp", c_decl=(
        "struct xdp_md { u32 data; u32 data_end; u32 data_meta;\n"
        "                u32 ingress_ifindex; u32 rx_queue_index; "
        "u32 egress_ifindex; };")),
    Composite("__sk_buff", (("data", BYTES),), section="socket",
              c_decl="struct __sk_buff { u32 data; u32 data_end; };"))}
# The named constants, inlined as literals.
CONSTANTS: dict[str, int] = {
    "XDP_ABORTED": 0, "XDP_DROP": 1, "XDP_PASS": 2, "ETH_P_IPV6": 0x86DD,
}

# C names no BeePL name may take as it is: the C11 keywords and what the
# emitted prelude and helper stubs define; in host mode also what the shim
# does.  Extern, struct and field names are emitted as written, so the
# checker rejects these names there; other names are mangled around them.
C_TAKEN = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    i8 i16 i32 i64 u8 u16 u32 u64 bpl_bool bytes_t NULL SEC BPL_INT_MIN
    BPL_LONG_MIN""".split()).union(HELPERS)
HOST_TAKEN = C_TAKEN | {"main", "printf"}


# ---------------------------------------------------------------------------
# The shape of the AST: children, rebuilds and binders
# ---------------------------------------------------------------------------

class Shape(NamedTuple):
    """How a compound node comes apart and goes back together.

    ``children`` lists its subexpressions in a fixed order, which paths and
    evaluation contexts index.  ``rebuild`` makes the node anew from a
    sequence of that length; it keeps ``ty`` and leaves ``span`` unset.
    ``binds`` is set only on binder nodes: for each child, the names the
    node binds in it.
    """

    children: Callable[[Expr], tuple[Expr, ...]]
    rebuild: Callable[[Expr, Sequence[Expr]], Expr]
    binds: Optional[Callable[[Expr], tuple[frozenset[str], ...]]] = None


# ``attrgetter`` reads fixed fields in C, so it pushes no Python frame.
SHAPES: dict[type, Shape] = {
    SomeLit: Shape(lambda e: (e.value,),
                   lambda e, c: SomeLit(c[0], ty=e.ty)),
    App: Shape(lambda e: (e.callee, *e.args),
               lambda e, c: App(c[0], tuple(c[1:]), ty=e.ty)),
    Prim: Shape(attrgetter("operands"),
                lambda e, c: Prim(e.op, tuple(c), ty=e.ty)),
    Let: Shape(attrgetter("bound", "body"),
               lambda e, c: Let(e.name, e.declared, c[0], c[1], ty=e.ty),
               lambda e: (_NO_NAMES, _name_set((e.name,)))),
    Cond: Shape(attrgetter("guard", "then", "otherwise"),
                lambda e, c: Cond(c[0], c[1], c[2], ty=e.ty)),
    StructInit: Shape(lambda e: tuple(fe for _, fe in e.fields),
                      lambda e, c: StructInit(e.name, tuple(
                          (f, fe) for (f, _), fe in zip(e.fields, c)),
                          ty=e.ty)),
    Field: Shape(lambda e: (e.target,),
                 lambda e, c: Field(c[0], e.fname, ty=e.ty)),
    Match: Shape(lambda e: (e.scrutinee, *(b for _, b in e.arms)),
                 lambda e, c: Match(c[0], tuple(
                     (p, b) for (p, _), b in zip(e.arms, c[1:])), ty=e.ty),
                 lambda e: (_NO_NAMES, *[p.binders for p, _ in e.arms])),
    For: Shape(attrgetter("lo", "hi", "body"),
               lambda e, c: For(c[0], c[1], e.direction, c[2], ty=e.ty)),
    Seq: Shape(attrgetter("parts"),
               lambda e, c: Seq(tuple(c), ty=e.ty)),
    Repeat: Shape(lambda e: (e.body,),
                  lambda e, c: Repeat(c[0], e.count, ty=e.ty)),
    Frame: Shape(lambda e: (e.body,),
                 lambda e, c: Frame(e.name, e.env, c[0], ty=e.ty),
                 lambda e: (_name_set(tuple(e.env)),)),
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


def subst(e: Expr, subs: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution: each free ``Var(x)`` with x in subs
    becomes ``subs[x]``, all in one walk.  A binder shadows the names it
    binds, and a struct initialization of x shadows x, since it names the
    variable it initializes.

    A node none of whose children changed is returned itself, so every
    subterm without a free name of subs keeps its identity (and its
    ``span`` and ``ty``); the audit's memo of judgments keys on that
    identity.
    """
    if type(e) is Var:
        return subs.get(e.name, e)
    shape = _shape(e)
    if shape is None:
        return e
    if type(e) is StructInit and e.name in subs:
        subs = {x: v for x, v in subs.items() if x != e.name}
        if not subs:
            return e
    children = shape.children(e)
    if shape.binds is None:
        new = [subst(c, subs) for c in children]
    else:
        new = [subst(c, inner)
               if (inner := subs if bound.isdisjoint(subs) else
                   {x: v for x, v in subs.items() if x not in bound}) else c
               for c, bound in zip(children, shape.binds(e))]
    if not any(map(is_not, new, children)):
        return e
    return shape.rebuild(e, new)
