"""Reference small-step interpreter for BeePL.

Evaluation works over states <Delta, Omega, Theta> with a block-based memory
model: fresh monotone block ids, per-block typed cells, and a raw-byte shadow
for byte regions.  External helpers are served by a deterministic
ExternalWorld.  Division, modulo and shifts go through the unsafe-operand
guard, which turns would-be undefined behavior into zero.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Optional, Union

from .core import (
    App, ArrayTy, Assign, BoolTy, Bop, BopKind, BYTES, BytesTy, BytesView,
    Cast, Composite, Cond, ConstBool, ConstInt, ConstLong, Deref, Direction,
    Expr, Field, For, FunDecl, GlobDecl, IntTy, Let, Loc, LONG, LongTy,
    Match, NoneLit, OptionTy, Pbytes, Pnone, Prim, Psome, Pwild, RefOp,
    RefTy, Repeat, Seq, Sign, SomeLit, StructInit, StructTy, Ty, UNIT,
    UnitLit, Uop, UopKind, VUndef, Var, SHAPES, is_value, rename_var, sizeof,
    struct_layout, subst,
)
from .frontend import print_type
from .typecheck import (
    TypeCheckError, TypedProgram, TypingContext, infer_expr,
)


class InterpError(Exception):
    pass


class FuelExhausted(InterpError):
    pass


class StuckState(InterpError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TooShort(InterpError):
    """Byte region smaller than the pattern target; drives the fallback arm."""


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class Perm(Enum):
    FREEABLE = "Freeable"
    READONLY = "ReadOnly"


@dataclass
class Block:
    size: int
    perm: Perm = Perm.FREEABLE
    cells: dict[int, Expr] = dc_field(default_factory=dict)
    raw: Optional[bytearray] = None


@dataclass
class Memory:
    blocks: dict[int, Block] = dc_field(default_factory=dict)
    next_block: int = 1

    def alloc(self, size: int, perm: Perm = Perm.FREEABLE,
              raw: Optional[bytes] = None) -> int:
        bid = self.next_block
        self.next_block += 1
        self.blocks[bid] = Block(size, perm,
                                 raw=bytearray(raw) if raw is not None else None)
        return bid

    def is_valid_access(self, bid: int, perm: Perm = Perm.FREEABLE) -> bool:
        b = self.blocks.get(bid)
        return b is not None and b.perm is perm

    def load(self, bid: int, off: int) -> Optional[Expr]:
        b = self.blocks.get(bid)
        if b is None:
            return None
        return b.cells.get(off)

    def store(self, bid: int, off: int, v: Expr) -> bool:
        b = self.blocks.get(bid)
        if b is None:
            return False
        b.cells[off] = v
        return True


@dataclass
class Monitors:
    """Runtime monitors backing the safety lemmas; all must stay at zero."""

    null_deref_events: int = 0
    uninit_read_events: int = 0
    undef_events: int = 0

    def clean(self) -> bool:
        return (self.null_deref_events == 0 and self.uninit_read_events == 0
                and self.undef_events == 0)


@dataclass(frozen=True)
class GlobalBinding:
    block: int
    ty: Ty


@dataclass
class State:
    delta: dict[str, Union[FunDecl, GlobalBinding]]
    omega: dict[str, tuple[int, Ty]]
    theta: Memory
    sigma: dict[int, Ty]  # block -> content type
    composites: dict[str, Composite]
    psi: dict = dc_field(default_factory=dict)  # external signatures
    monitors: Monitors = dc_field(default_factory=Monitors)
    rename_counter: int = 0

    def snapshot(self) -> "State":
        return copy.deepcopy(self)

    def fresh_name(self, base: str) -> str:
        self.rename_counter += 1
        return f"{base}#{self.rename_counter}"


# ---------------------------------------------------------------------------
# External world
# ---------------------------------------------------------------------------

DEFAULT_UID_GID = 0x000003E8000003E8


@dataclass
class ExternalWorld:
    """Deterministic mock of the kernel-side environment."""

    maps: dict[str, dict[int, int]] = dc_field(default_factory=dict)
    uid_gid: int = DEFAULT_UID_GID
    packet: bytes = b""
    io_log: list[str] = dc_field(default_factory=list)
    map_blocks: dict[int, str] = dc_field(default_factory=dict)

    def call(self, name: str, args: list[Expr], state: State,
             res_type: Ty) -> Expr:
        self.io_log.append(name)
        if name == "bpf_get_current_uid_gid":
            return ConstLong(wrap(self.uid_gid, 64))
        if name == "bpf_map_lookup_elem":
            return self._map_lookup(args, state)
        # Unknown externals answer with the zero value of their result type,
        # keeping evaluation total and deterministic.
        return zero_value(res_type)

    def _map_lookup(self, args: list[Expr], state: State) -> Expr:
        if len(args) != 2:
            return NoneLit()
        m, k = args
        if type(m) is not SomeLit:
            return NoneLit()
        name = self.map_blocks.get(m.value.block)
        if name is None:
            return NoneLit()
        if type(k) is not SomeLit:
            return NoneLit()
        kv = state.theta.load(k.value.block, k.value.offset)
        if not isinstance(kv, (ConstInt, ConstLong)):
            return NoneLit()
        stored = self.maps.get(name, {}).get(kv.value)
        if stored is None:
            return NoneLit()
        bid = state.theta.alloc(8)
        state.theta.store(bid, 0, ConstLong(wrap(stored, 64)))
        state.sigma[bid] = LONG
        return SomeLit(Loc(bid, 0))


def zero_value(ty: Ty) -> Expr:
    if isinstance(ty, IntTy):
        return ConstInt(0)
    if isinstance(ty, LongTy):
        return ConstLong(0)
    if isinstance(ty, BoolTy):
        return ConstBool(False)
    if isinstance(ty, OptionTy):
        return NoneLit()
    return UnitLit()


# ---------------------------------------------------------------------------
# Numeric semantics
# ---------------------------------------------------------------------------

def wrap(v: int, bits: int) -> int:
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >= (1 << (bits - 1)) else v


def _lane_bits(v: Expr) -> int:
    return 32 if type(v) is ConstInt else 64


def _mk(bits: int, v: int) -> Expr:
    return ConstInt(wrap(v, 32)) if bits == 32 else ConstLong(wrap(v, 64))


def unsafe(op: BopKind, v1: Expr, v2: Expr) -> bool:
    """Operand pairs whose C meaning would be undefined; they evaluate to 0."""
    if op not in (BopKind.DIV, BopKind.MOD, BopKind.SHL, BopKind.SHR):
        return False
    bits = _lane_bits(v1)
    a, b = v1.value, v2.value
    if op in (BopKind.DIV, BopKind.MOD):
        if b == 0:
            return True
        return a == -(1 << (bits - 1)) and b == -1
    # shifts
    return b < 0 or b >= bits


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def bop_sem(op: BopKind, v1: Expr, v2: Expr) -> Union[Expr, VUndef]:
    """Two's-complement wrapping semantics at the operand width.

    Unsafe operand pairs yield the undef sentinel; the BOPV guard normally
    intercepts them first and returns zero instead.
    """
    if op is BopKind.LAND:
        return ConstBool(v1.value and v2.value)
    if op is BopKind.LOR:
        return ConstBool(v1.value or v2.value)
    if op is BopKind.EQ:
        return ConstBool(v1.value == v2.value)
    if op is BopKind.NE:
        return ConstBool(v1.value != v2.value)
    if op in (BopKind.LT, BopKind.LE, BopKind.GT, BopKind.GE):
        a, b = v1.value, v2.value
        return ConstBool({BopKind.LT: a < b, BopKind.LE: a <= b,
                          BopKind.GT: a > b, BopKind.GE: a >= b}[op])
    if unsafe(op, v1, v2):
        return VUndef()
    bits = _lane_bits(v1)
    a, b = v1.value, v2.value
    if op is BopKind.ADD:
        return _mk(bits, a + b)
    if op is BopKind.SUB:
        return _mk(bits, a - b)
    if op is BopKind.MUL:
        return _mk(bits, a * b)
    if op is BopKind.DIV:
        return _mk(bits, _trunc_div(a, b))
    if op is BopKind.MOD:
        return _mk(bits, a - _trunc_div(a, b) * b)
    if op is BopKind.AND:
        return _mk(bits, a & b)
    if op is BopKind.OR:
        return _mk(bits, a | b)
    if op is BopKind.XOR:
        return _mk(bits, a ^ b)
    if op is BopKind.SHL:
        return _mk(bits, a << b)
    if op is BopKind.SHR:
        return _mk(bits, a >> b)  # arithmetic shift on the signed lane
    raise InterpError(f"bop_sem: unknown operator {op}")


def uop_sem(op, v: Expr) -> Expr:
    if isinstance(op, Uop):
        if op.kind is UopKind.NEG:
            return _mk(_lane_bits(v), -v.value)
        if op.kind is UopKind.BITNOT:
            return _mk(_lane_bits(v), ~v.value)
        if op.kind is UopKind.LOGNOT:
            return ConstBool(not v.value)
    if isinstance(op, Cast):
        if isinstance(op.target, IntTy):
            return ConstInt(wrap(v.value, 32))
        return ConstLong(wrap(v.value, 64))
    raise InterpError(f"uop_sem: unknown operator {op}")


def range_count(v1: Expr, v2: Expr, d: Direction) -> int:
    """Inclusive iteration count of a for-loop; empty ranges give zero."""
    if d is Direction.UP:
        return max(0, v2.value - v1.value + 1)
    return max(0, v1.value - v2.value + 1)


# ---------------------------------------------------------------------------
# Byte extraction
# ---------------------------------------------------------------------------

def _decode_prim(data: bytes, ty: Ty) -> Expr:
    if isinstance(ty, BoolTy):
        return ConstBool(data[0] != 0)
    raw = int.from_bytes(data, "little", signed=False)
    if isinstance(ty, IntTy):
        if ty.sign is Sign.SIGNED:
            raw = wrap(raw, ty.size)
        return ConstInt(wrap(raw, 32))
    if isinstance(ty, LongTy):
        return ConstLong(wrap(raw, 64))
    raise InterpError(f"cannot decode {ty} from bytes")


def extract(v: BytesView, target: Ty, theta: Memory,
            composites: dict[str, Composite],
            sigma: Optional[dict[int, Ty]] = None
            ) -> tuple[Expr, dict[str, Expr]]:
    """Decode a structured value from a byte region (little-endian fields).

    Raises TooShort when the region cannot hold the target, which sends
    evaluation to the fallback arm.
    """
    size = sizeof(target, composites)
    if v.length < size:
        raise TooShort(f"region of {v.length} bytes, need {size}")
    block = theta.blocks.get(v.block)
    if block is None or block.raw is None:
        raise StuckState("byte region without raw backing")
    data = bytes(block.raw[v.offset:v.offset + size])
    if len(data) < size:
        raise TooShort("byte region inconsistent with its backing block")
    if not isinstance(target, StructTy):
        return _decode_prim(data, target), {}
    co = composites[target.sid]
    offsets, _, _ = struct_layout(co, composites)
    bid = theta.alloc(size)
    values: dict[str, Expr] = {}
    for fname, fty in co.fields:
        if isinstance(fty, (ArrayTy, BytesTy)):
            continue  # aggregate fields are not readable as values
        off = offsets[fname]
        fsize = sizeof(fty, composites)
        values[fname] = _decode_prim(data[off:off + fsize], fty)
        theta.store(bid, off, values[fname])
    if sigma is not None:
        sigma[bid] = target
    return Loc(bid, 0), values


# ---------------------------------------------------------------------------
# Small-step evaluation
# ---------------------------------------------------------------------------

@dataclass
class Stepped:
    expr: Expr
    rule: str


@dataclass
class IsValue:
    value: Expr


@dataclass
class Stuck:
    reason: str


StepOutcome = Union[Stepped, IsValue, Stuck]


class _StuckSignal(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _typed_value_expr(v: Expr, ty: Optional[Ty]) -> Expr:
    """v, with a null option given its type so that re-inference can type it."""
    if type(v) is NoneLit and isinstance(ty, OptionTy):
        return NoneLit(ty=ty)
    return v


def step(s: State, w: ExternalWorld, e: Expr,
         guard_unsafe: bool = True) -> StepOutcome:
    """One computational step; exactly one rule applies to a non-value."""
    if is_value(e):
        return IsValue(e)
    try:
        expr, rule = _step(s, w, e, guard_unsafe)
        return Stepped(expr, rule)
    except _StuckSignal as sig:
        return Stuck(sig.reason)


def _stuck(reason: str):
    raise _StuckSignal(reason)


# Evaluation contexts as data: for each node class, the children (as
# positions in expr_children order, stop None meaning to the last child) that
# evaluate, left to right, before the node's own rule fires.  Classes not
# listed reduce at once.
EVAL_POSITIONS: dict[type, tuple[int, Optional[int]]] = {
    Let: (0, 1),            # the bound expression
    Cond: (0, 1),           # the guard
    App: (1, None),         # the arguments, never the callee
    Prim: (0, None),        # every operand
    StructInit: (0, None),  # every field
    Field: (0, 1),          # the target
    For: (0, 2),            # lo, then hi
    Match: (0, 1),          # the scrutinee
    Seq: (0, 1),            # the head only
    SomeLit: (0, 1),        # the wrapped value
}

# The same table with each class's shape attached, so that a step down the
# path to the redex costs one lookup.
_CONTEXTS = {cls: (SHAPES[cls], start, stop)
             for cls, (start, stop) in EVAL_POSITIONS.items()}


def _step(s: State, w: ExternalWorld, e: Expr,
          guard: bool) -> tuple[Expr, str]:
    """Split e into an evaluation context and a redex, reduce the redex by
    its class's rule, and plug the result back into the context.

    The descent goes, at each node, into the first child in evaluation
    position that is not a value; the redex is the node whose children in
    evaluation position are all values, and its rule receives those values.
    """
    frames = []  # (node, shape, children, hole index), outermost first
    while True:
        values: list[Expr] = []
        hole = None
        context = _CONTEXTS.get(type(e))
        if context is not None:
            shape, start, stop = context
            children = shape.children(e)
            for i in range(start, len(children) if stop is None else stop):
                if not is_value(children[i]):
                    hole = i
                    break
                values.append(children[i])
        if hole is None:
            break
        frames.append((e, shape, children, hole))
        e = children[hole]
    rule = _REDEX_RULES.get(type(e))
    if rule is None:
        _stuck(f"no rule applies to {type(e).__name__}")
    out, name = rule(s, w, e, values, guard)
    for node, shape, children, i in reversed(frames):
        out = shape.rebuild(node, (*children[:i], out, *children[i + 1:]))
    return out, name


def _step_let(s: State, w: ExternalWorld, e: Let, values: list[Expr],
              guard: bool) -> tuple[Expr, str]:
    if e.name == "_":
        return e.body, "LETV"
    return subst(e.body, e.name, e.bound), "LETV"


def _step_cond(s: State, w: ExternalWorld, e: Cond, values: list[Expr],
               guard: bool) -> tuple[Expr, str]:
    gv, = values
    if type(gv) is not ConstBool:
        _stuck("condition guard is not a boolean")
    return (e.then, "CONDT") if gv.value else (e.otherwise, "CONDF")


def _step_seq(s: State, w: ExternalWorld, e: Seq, values: list[Expr],
              guard: bool) -> tuple[Expr, str]:
    # A two-part sequence steps straight to its tail, so a loop's term stays
    # one Seq deep however many iterations it runs.
    if len(e.parts) <= 2:
        return e.parts[-1], "SEQT"
    return Seq(e.parts[1:]), "SEQT"


def _step_repeat(s: State, w: ExternalWorld, e: Repeat, values: list[Expr],
                 guard: bool) -> tuple[Expr, str]:
    if e.count <= 0:
        return UnitLit(), "FORV0"
    return Seq((e.body, Repeat(e.body, e.count - 1))), "FORVN"


def _step_var(s: State, w: ExternalWorld, e: Var, values: list[Expr],
              guard: bool) -> tuple[Expr, str]:
    if e.name in s.omega:
        block, ty = s.omega[e.name]
        v = s.theta.load(block, 0)
        if v is None:
            s.monitors.uninit_read_events += 1
            _stuck(f"read of uninitialized variable {e.name!r}")
        return _typed_value_expr(v, ty), "LVAR"
    binding = s.delta.get(e.name)
    if isinstance(binding, GlobalBinding):
        v = s.theta.load(binding.block, 0)
        if v is None:
            s.monitors.uninit_read_events += 1
            _stuck(f"read of uninitialized global {e.name!r}")
        return _typed_value_expr(v, binding.ty), "GVAR"
    _stuck(f"unbound variable {e.name!r}")


def _step_prim(s: State, w: ExternalWorld, e: Prim, values: list[Expr],
               guard: bool) -> tuple[Expr, str]:
    op = e.op
    if isinstance(op, RefOp):
        v, = values
        try:
            ty, _ = infer_expr(TypingContext(sigma=s.sigma), v)
        except TypeCheckError as exc:
            _stuck(f"cannot type the referenced value: {exc.message}")
        bid = s.theta.alloc(sizeof(ty, s.composites))
        s.theta.store(bid, 0, v)
        s.sigma[bid] = ty
        return Loc(bid, 0), "REFV"
    if isinstance(op, Deref):
        v, = values
        if isinstance(v, (NoneLit, SomeLit)):
            s.monitors.null_deref_events += 1
            _stuck("dereference of an option value")
        if type(v) is not Loc:
            _stuck("dereference of a non-location")
        cell = s.theta.load(v.block, v.offset)
        if cell is None:
            s.monitors.uninit_read_events += 1
            _stuck("read of uninitialized memory")
        return cell, "DREFV"
    if isinstance(op, Assign):
        lv, rv = values
        if isinstance(lv, (NoneLit, SomeLit)):
            s.monitors.null_deref_events += 1
            _stuck("assignment through an option value")
        if type(lv) is not Loc:
            _stuck("assignment through a non-location")
        if not s.theta.store(lv.block, lv.offset, rv):
            _stuck("assignment into an invalid block")
        return UnitLit(), "MASSGNV"
    if isinstance(op, (Uop, Cast)):
        v, = values
        _check_operands(op, values)
        result = uop_sem(op, v)
        if isinstance(result, VUndef):
            s.monitors.undef_events += 1
            _stuck("unary operator produced undef")
        return result, "UOPV"
    if isinstance(op, Bop):
        lv, rv = values
        _check_operands(op, values)
        if guard and unsafe(op.kind, lv, rv):
            return _mk(_lane_bits(lv), 0), "BOPV"
        result = bop_sem(op.kind, lv, rv)
        if isinstance(result, VUndef):
            s.monitors.undef_events += 1
            _stuck("binary operator produced undef")
        return result, "BOPV"
    _stuck(f"unknown primitive {op!r}")


# The operand classes an operator's rule reads: booleans for the logical
# operators, integers of one lane for every other operator and for casts.
_BOOL_OPERANDS = frozenset({(ConstBool,), (ConstBool, ConstBool)})
_INT_OPERANDS = frozenset({(ConstInt,), (ConstLong,), (ConstInt, ConstInt),
                           (ConstLong, ConstLong)})
_LOGICAL = frozenset({BopKind.LAND, BopKind.LOR, UopKind.LOGNOT})


def _check_operands(op, values: list[Expr]) -> None:
    kinds = tuple(map(type, values))
    logical = getattr(op, "kind", None) in _LOGICAL  # a cast has no kind
    if kinds not in (_BOOL_OPERANDS if logical else _INT_OPERANDS):
        name = f"cast to {print_type(op.target)}" if isinstance(op, Cast) \
            else f"operator {op.kind.value!r}"
        _stuck(f"{name} does not apply to "
               + " and ".join(k.__name__ for k in kinds))


def _step_app(s: State, w: ExternalWorld, e: App, values: list[Expr],
              guard: bool) -> tuple[Expr, str]:
    if not isinstance(e.callee, Var):
        _stuck("callee is not a function name")
    name = e.callee.name
    target = s.delta.get(name)
    if isinstance(target, FunDecl):
        return _apply_fun(s, target, values), "APP3"
    res_type = _external_result_type(s, name)
    if res_type is None:
        _stuck(f"unknown function {name!r}")
    result = w.call(name, values, s, res_type)
    return _typed_value_expr(result, res_type), "EAPP"


def _external_result_type(s: State, name: str) -> Optional[Ty]:
    sig = s.psi.get(name)
    return sig.res_type if sig is not None else None


def _apply_fun(s: State, fd: FunDecl, values: list[Expr]) -> Expr:
    if len(values) != len(fd.args):
        _stuck(f"arity mismatch calling {fd.name!r}")
    body = fd.body
    # Rename parameters and locals apart so nested calls cannot collide in
    # the shared variable environment.
    for (x, ty), v in zip(fd.args, values):
        fresh = s.fresh_name(x)
        body = rename_var(body, x, fresh)
        bid = s.theta.alloc(sizeof(ty, s.composites))
        s.theta.store(bid, 0, v)
        s.sigma[bid] = ty
        s.omega[fresh] = (bid, ty)
    for (y, ty) in fd.vars:
        fresh = s.fresh_name(y)
        body = rename_var(body, y, fresh)
        bid = s.theta.alloc(sizeof(ty, s.composites))
        s.sigma[bid] = ty
        s.omega[fresh] = (bid, ty)
        # Struct locals receive their storage at call time, like C locals;
        # the fields stay unwritten until initialization and field reads
        # before that still trip the uninitialized-read monitor.
        if isinstance(ty, RefTy) and isinstance(ty.target, StructTy):
            sb = s.theta.alloc(sizeof(ty.target, s.composites))
            s.sigma[sb] = ty.target
            s.theta.store(bid, 0, Loc(sb, 0))
    return body


def _step_struct_init(s: State, w: ExternalWorld, e: StructInit,
                      values: list[Expr], guard: bool) -> tuple[Expr, str]:
    if e.name not in s.omega:
        _stuck(f"struct variable {e.name!r} is not allocated")
    var_block, var_ty = s.omega[e.name]
    if not (isinstance(var_ty, RefTy) and isinstance(var_ty.target, StructTy)):
        _stuck(f"{e.name!r} is not a struct reference")
    sid = var_ty.target.sid
    co = s.composites.get(sid)
    if co is None:
        _stuck(f"unknown struct {sid!r}")
    existing = s.theta.load(var_block, 0)
    if type(existing) is Loc:
        sb = existing.block  # re-initialization reuses the allocation
    else:
        sb = s.theta.alloc(sizeof(var_ty.target, s.composites))
        s.sigma[sb] = var_ty.target
        s.theta.store(var_block, 0, Loc(sb, 0))
    offsets, _, _ = struct_layout(co, s.composites)
    for (fname, _), v in zip(e.fields, values):
        s.theta.store(sb, offsets[fname], v)
    return Loc(sb, 0), "STRUCTV"


def _step_field(s: State, w: ExternalWorld, e: Field, values: list[Expr],
                guard: bool) -> tuple[Expr, str]:
    tv, = values
    if type(tv) is NoneLit:
        s.monitors.null_deref_events += 1
        _stuck("field access through a null option")
    if type(tv) is SomeLit:
        tv = tv.value
    if type(tv) is not Loc:
        _stuck("field access on a non-location")
    content = s.sigma.get(tv.block)
    if not isinstance(content, StructTy):
        _stuck("field access on a non-struct block")
    co = s.composites.get(content.sid)
    if co is None:
        _stuck(f"unknown struct {content.sid!r}")
    offsets, _, _ = struct_layout(co, s.composites)
    if e.fname not in offsets:
        _stuck(f"struct {content.sid!r} has no field {e.fname!r}")
    cell = s.theta.load(tv.block, tv.offset + offsets[e.fname])
    if cell is None:
        s.monitors.uninit_read_events += 1
        _stuck(f"read of uninitialized field {e.fname!r}")
    return cell, "FACCESSV"


def _step_for(s: State, w: ExternalWorld, e: For, values: list[Expr],
              guard: bool) -> tuple[Expr, str]:
    lv, hv = values
    if not isinstance(lv, (ConstInt, ConstLong)) or type(lv) is not type(hv):
        _stuck("loop bounds are not matching numeric values")
    n = range_count(lv, hv, e.direction)
    return Repeat(e.body, n), "FORV"


def _step_match(s: State, w: ExternalWorld, e: Match, values: list[Expr],
                guard: bool) -> tuple[Expr, str]:
    sv, = values

    def find(pred):
        for p, body in e.arms:
            if pred(p):
                return p, body
        return None

    if type(sv) is NoneLit:
        arm = find(lambda p: isinstance(p, Pnone)) or \
            find(lambda p: isinstance(p, Pwild))
        if arm is None:
            _stuck("no arm matches none")
        return arm[1], "MNONE"
    if type(sv) is SomeLit:
        arm = find(lambda p: isinstance(p, Psome))
        if arm is not None:
            p, body = arm
            return subst(body, p.binder, sv.value), "MSOME"
        arm = find(lambda p: isinstance(p, Pwild))
        if arm is None:
            _stuck("no arm matches some")
        return arm[1], "MSOME"
    if type(sv) is BytesView:
        arm = find(lambda p: isinstance(p, Pbytes))
        fallback = find(lambda p: isinstance(p, Pwild))
        if arm is None:
            _stuck("no bytes arm in match")
        p, body = arm
        try:
            vx, bindings = extract(sv, p.target, s.theta, s.composites,
                                   s.sigma)
        except TooShort:
            if fallback is None:
                _stuck("region too short and no fallback arm")
            return fallback[1], "MBYTESF"
        out = body
        for y, yv in bindings.items():
            if any(y == name for name, _ in p.fields):
                out = subst(out, y, yv)
        out = subst(out, p.binder, vx)
        return out, "MBYTES"
    _stuck("match scrutinee is neither an option nor bytes")


# Each class's own rule, applied once its children in evaluation position
# are values.  SomeLit has none: it is a value once its child is a location.
_REDEX_RULES = {
    Var: _step_var, Prim: _step_prim, Let: _step_let, Cond: _step_cond,
    App: _step_app, StructInit: _step_struct_init, Field: _step_field,
    For: _step_for, Match: _step_match, Seq: _step_seq, Repeat: _step_repeat,
}


# ---------------------------------------------------------------------------
# Multi-step evaluation
# ---------------------------------------------------------------------------

DEFAULT_FUEL = 10 ** 6


@dataclass
class EvalResult:
    state: State
    value: Expr
    steps: int


def eval_multi(s: State, w: ExternalWorld, e: Expr,
               fuel: int = DEFAULT_FUEL, guard_unsafe: bool = True,
               on_step: Optional[Callable[[State, Expr, str], None]] = None
               ) -> EvalResult:
    """Iterate step until a value; returns the exact step count."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    steps = 0
    current = e
    while True:
        out = step(s, w, current, guard_unsafe)
        if isinstance(out, IsValue):
            return EvalResult(s, out.value, steps)
        if isinstance(out, Stuck):
            raise StuckState(out.reason)
        current = out.expr
        steps += 1
        if on_step is not None:
            on_step(s, current, out.rule)
        if steps >= fuel:
            raise FuelExhausted(f"no value after {fuel} steps")


# ---------------------------------------------------------------------------
# Program-level setup
# ---------------------------------------------------------------------------

def init_state(tp: TypedProgram, w: ExternalWorld) -> State:
    s = State({}, {}, Memory(), {}, dict(tp.composites), psi=dict(tp.psi))
    for d in tp.program.decls:
        if isinstance(d, FunDecl):
            s.delta[d.name] = d
        elif isinstance(d, GlobDecl):
            _alloc_global(s, w, d)
    return s


def _alloc_global(s: State, w: ExternalWorld, gd: GlobDecl) -> None:
    if isinstance(gd.init, bytes):
        bid = s.theta.alloc(len(gd.init), raw=gd.init)
        s.sigma[bid] = gd.ty
        s.delta[gd.name] = GlobalBinding(bid, gd.ty)
        return
    bid = s.theta.alloc(sizeof(gd.ty, s.composites))
    s.sigma[bid] = gd.ty
    init = gd.init
    if isinstance(gd.ty, OptionTy) and isinstance(gd.ty.inner, RefTy) \
            and isinstance(gd.ty.inner.target, StructTy):
        # Globals of optional struct-pointer type back kernel objects such as
        # maps: materialize the pointee so lookups can identify it.
        target = gd.ty.inner.target
        ob = s.theta.alloc(sizeof(target, s.composites))
        s.sigma[ob] = target
        if target.sid == "bpf_map":
            w.map_blocks[ob] = gd.name
        init = SomeLit(Loc(ob, 0))
    s.theta.store(bid, 0, init)
    s.delta[gd.name] = GlobalBinding(bid, gd.ty)


def make_context_arg(s: State, w: ExternalWorld, sid: str) -> Expr:
    """Allocate a packet-backed context struct and return its option value."""
    pb = s.theta.alloc(len(w.packet), raw=w.packet)
    s.sigma[pb] = BYTES
    ctx_ty = StructTy(sid)
    cb = s.theta.alloc(sizeof(ctx_ty, s.composites))
    s.sigma[cb] = ctx_ty
    co = s.composites[sid]
    offsets, _, _ = struct_layout(co, s.composites)
    if "data" in offsets:
        s.theta.store(cb, offsets["data"], BytesView(pb, 0, len(w.packet)))
    return SomeLit(Loc(cb, 0))


def entry_call(tp: TypedProgram, s: State, w: ExternalWorld,
               entry: FunDecl) -> Expr:
    args: list[Expr] = []
    for _, ty in entry.args:
        if isinstance(ty, OptionTy) and isinstance(ty.inner, RefTy) \
                and isinstance(ty.inner.target, StructTy) \
                and ty.inner.target.sid in s.composites:
            args.append(make_context_arg(s, w, ty.inner.target.sid))
        elif isinstance(ty, (IntTy, LongTy, BoolTy)) or ty == UNIT:
            args.append(zero_value(ty))
        elif isinstance(ty, OptionTy):
            args.append(NoneLit())
        else:
            raise InterpError(
                f"cannot synthesize a default argument of type {ty}")
    return App(Var(entry.name), tuple(args))


def run_program(tp: TypedProgram, w: Optional[ExternalWorld] = None,
                entry: Optional[str] = None, fuel: int = DEFAULT_FUEL,
                on_step=None) -> EvalResult:
    w = w if w is not None else ExternalWorld()
    fd = tp.entry_point(entry)
    if fd is None:
        raise InterpError("no entry point (declare main or one #section fun)")
    s = init_state(tp, w)
    call = entry_call(tp, s, w, fd)
    return eval_multi(s, w, call, fuel=fuel, on_step=on_step)


# ---------------------------------------------------------------------------
# Well-formedness (Definition 1)
# ---------------------------------------------------------------------------

def well_formed(gamma: dict[str, Ty], sigma: dict[int, Ty],
                s: State) -> tuple[bool, list[str]]:
    """Checks the state-consistency contract; returns violated clauses."""
    bad: list[str] = []
    if set(s.omega) & set(s.delta):
        bad.append("omega and delta domains overlap")
    for x, ty in gamma.items():
        if x in s.omega:
            block, bty = s.omega[x]
            if bty != ty:
                bad.append(f"variable {x!r} bound at {bty}, typed {ty}")
            elif block not in sigma:
                bad.append(f"variable {x!r} block lacks store typing")
            elif s.theta.load(block, 0) is None:
                bad.append(f"variable {x!r} is uninitialized")
        else:
            binding = s.delta.get(x)
            if not isinstance(binding, GlobalBinding):
                bad.append(f"variable {x!r} resolves nowhere")
            elif binding.block not in sigma:
                bad.append(f"global {x!r} block lacks store typing")
            elif s.theta.load(binding.block, 0) is None and \
                    s.theta.blocks.get(binding.block, Block(0)).raw is None:
                bad.append(f"global {x!r} is uninitialized")
    for bid in sigma:
        if not s.theta.is_valid_access(bid, Perm.FREEABLE):
            bad.append(f"typed block {bid} is not Freeable-accessible")
    for bid, block in s.theta.blocks.items():
        if block.perm is Perm.FREEABLE and bid not in sigma:
            bad.append(f"accessible block {bid} lacks store typing")
    for name, d in s.delta.items():
        if isinstance(d, FunDecl):
            if {x for x, _ in d.args} & {y for y, _ in d.vars}:
                bad.append(f"function {name!r} has overlapping args and vars")
    for x, ty in gamma.items():
        sid = None
        if isinstance(ty, StructTy):
            sid = ty.sid
        elif isinstance(ty, RefTy) and isinstance(ty.target, StructTy):
            sid = ty.target.sid
        if sid is not None and sid not in s.composites:
            bad.append(f"struct {sid!r} of variable {x!r} is undeclared")
    return not bad, bad


def runtime_gamma(s: State) -> dict[str, Ty]:
    """Typing environment induced by the live variable bindings."""
    gamma = {x: ty for x, (_, ty) in s.omega.items()}
    for name, d in s.delta.items():
        if isinstance(d, GlobalBinding):
            gamma[name] = d.ty
    return gamma
