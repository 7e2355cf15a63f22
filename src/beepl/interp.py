"""Reference small-step interpreter for BeePL.

Evaluation works over states <Delta, Theta> with a block-based memory
model: fresh monotone block ids, a store typing that allocation alone
writes, per-block cells, and a raw-byte shadow for byte regions.  A call
steps to a frame that holds its own variables' blocks, and the state keeps
the environments of the calls in progress as a stack.  External
helpers are served by a deterministic ExternalWorld.  An unsafe division,
modulo or shift is zero.  A null dereference, an uninitialized read or an
operator applied to the wrong values is a stuck state, whose reason names
the fault.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .core import (
    App, ArrayTy, Assign, BoolTy, Bop, BopKind, BYTES, BytesTy, BytesView,
    Cast, COMPARE_BOPS, Composite, Cond, ConstBool, ConstInt, ConstLong, Deref,
    Direction, Expr, Field, For, Frame, FunDecl, GlobDecl, HELPERS, IntTy, Let,
    Loc, LONG, LongTy, Match, NoneLit, OptionTy, Pbytes, Pnone, Prim, Psome,
    Pwild, RefOp, RefTy, Repeat, Seq, Sign, SomeLit, StructInit, StructTy, Ty,
    UnitLit, Uop, UopKind, Var, SHAPES, _VALUE_CLASSES, entry_arg_given,
    is_prim, is_value, kernel_object, select_arm, sizeof, struct_layout, subst,
)
from .typecheck import TypedProgram


class InterpError(Exception):
    pass


class NoEntryPoint(InterpError):
    """The program has no entry point for ``start`` to call."""


class FuelExhausted(InterpError):
    pass


class StuckState(InterpError):
    """No rule applies; under a hook, ``event`` is the step that got stuck."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
        self.event: Optional[StepEvent] = None


class TooShort(InterpError):
    """Byte region smaller than the pattern target; drives the fallback arm."""


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class GrowOnly(dict):
    """A map that a run only adds to: delta and the store typing.
    A write through ``[]`` or ``del`` that replaces or removes an entry,
    which no rule makes, notes its key in ``rewritten``, so that the audit
    can tell whether a step kept every old entry without walking the map."""

    __slots__ = ("rewritten",)

    def __init__(self) -> None:
        super().__init__()
        self.rewritten: set = set()

    def __setitem__(self, key, value) -> None:
        if key in self:
            self.rewritten.add(key)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        self.rewritten.add(key)
        dict.__delitem__(self, key)


@dataclass
class Block:
    cells: dict[int, Expr] = dc_field(default_factory=dict)
    raw: Optional[bytearray] = None


@dataclass
class Memory:
    blocks: dict[int, Block] = dc_field(default_factory=dict)
    next_block: int = 1
    # The store typing: block -> content type.  alloc is its one writer.
    sigma: GrowOnly = dc_field(default_factory=GrowOnly)
    # The blocks stored into since the audit last checked their cells.
    written: set[int] = dc_field(default_factory=set)

    def alloc(self, ty: Ty, raw: Optional[bytes] = None) -> int:
        bid = self.next_block
        self.next_block += 1
        self.blocks[bid] = Block(
            raw=bytearray(raw) if raw is not None else None)
        self.sigma[bid] = ty
        return bid

    def load(self, bid: int, off: int) -> Optional[Expr]:
        b = self.blocks.get(bid)
        return None if b is None else b.cells.get(off)

    def store(self, bid: int, off: int, v: Expr) -> bool:
        b = self.blocks.get(bid)
        if b is None:
            return False
        b.cells[off] = v
        self.written.add(bid)
        return True


@dataclass(frozen=True)
class GlobalBinding:
    block: int


@dataclass
class State:
    delta: dict[str, Union[FunDecl, GlobalBinding]]
    theta: Memory
    composites: dict[str, Composite]
    # The env of each call in progress, innermost last: a call pushes its
    # frame's, and the frame's return pops it.
    stack: list[dict[str, int]] = dc_field(default_factory=list)

    @property
    def sigma(self) -> GrowOnly:
        """The store typing, owned by the memory."""
        return self.theta.sigma


# ---------------------------------------------------------------------------
# External world
# ---------------------------------------------------------------------------

@dataclass
class ExternalWorld:
    """Deterministic mock of the kernel-side environment."""

    maps: dict[str, dict[int, int]] = dc_field(default_factory=dict)
    uid_gid: int = HELPERS["bpf_get_current_uid_gid"].answer
    packet: bytes = b""
    io_log: list[str] = dc_field(default_factory=list)
    map_blocks: dict[int, str] = dc_field(default_factory=dict)

    def call(self, name: str, args: list[Expr], state: State,
             res_type: Ty) -> Expr:
        self.io_log.append(name)
        # An extern, and a helper whose meaning gives None, answer with the
        # zero value of the result type, keeping evaluation total.
        meaning = _HELPER_SEM.get(name)
        return meaning and meaning(self, args, state) or zero_value(res_type)

    def _map_lookup(self, args: list[Expr], state: State) -> Optional[Expr]:
        """The found value's location, or None for a miss."""
        if len(args) != 2 or any(type(a) is not SomeLit for a in args):
            return None
        m, k = args
        name = self.map_blocks.get(m.value.block)
        kv = state.theta.load(k.value.block, k.value.offset)
        if name is None or not isinstance(kv, (ConstInt, ConstLong)):
            return None
        stored = self.maps.get(name, {}).get(kv.value)
        if stored is None:
            return None
        bid = state.theta.alloc(LONG)
        state.theta.store(bid, 0, ConstLong(wrap(stored, 64)))
        return SomeLit(Loc(bid, 0))


# Each helper's meaning by its name in core.HELPERS: an answer, or None.
_HELPER_SEM = {
    "bpf_get_current_uid_gid": lambda w, *_: ConstLong(wrap(w.uid_gid, 64)),
    "bpf_map_lookup_elem": ExternalWorld._map_lookup,
}


# The one unit value that rules give: no code mutates a value node, and the
# audit memoizes the judgments of compound nodes only.
_UNIT = UnitLit()


def zero_value(ty: Ty) -> Expr:
    """The zero of a primitive, unit or option type; a null is typed."""
    if isinstance(ty, IntTy):
        return ConstInt(0)
    if isinstance(ty, LongTy):
        return ConstLong(0)
    if isinstance(ty, BoolTy):
        return ConstBool(False)
    if isinstance(ty, OptionTy):
        return NoneLit(ty=ty)
    return _UNIT


# ---------------------------------------------------------------------------
# Numeric semantics
# ---------------------------------------------------------------------------

def wrap(v: int, bits: int) -> int:
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >= (1 << (bits - 1)) else v


def unsafe(op: BopKind, v1: Expr, v2: Expr) -> bool:
    """Operand pairs whose C meaning would be undefined; they evaluate to 0."""
    if op not in (BopKind.DIV, BopKind.MOD, BopKind.SHL, BopKind.SHR):
        return False
    bits = 32 if type(v1) is ConstInt else 64
    a, b = v1.value, v2.value
    if op is BopKind.DIV or op is BopKind.MOD:
        return b == 0 or a == -(1 << (bits - 1)) and b == -1
    return b < 0 or b >= bits  # shifts


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# An operator's meaning is one function that computes, wraps and builds its
# value: a comparison or logical operator gives a boolean, an arithmetic
# operator a value of its operands' lane, or the lane's zero on a pair that
# ``unsafe`` names, and a cast a value of its target's lane.
def _test(fn: Callable[[int, int], bool]):
    return lambda v1, v2: ConstBool(fn(v1.value, v2.value))


def _arith(cls: type, bits: int, fn: Callable[..., int],
           op: Optional[BopKind] = None):
    """fn on the lane of cls: binary operator op's meaning, or with no op a
    unary operator's or a cast's."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    guarded = op in (BopKind.DIV, BopKind.MOD, BopKind.SHL, BopKind.SHR)

    def unary(v: Expr) -> Expr:
        r = fn(v.value) & mask
        return cls(r - mask - 1 if r >= half else r)

    def binary(v1: Expr, v2: Expr) -> Expr:
        if guarded and unsafe(op, v1, v2):
            return cls(0)
        r = fn(v1.value, v2.value) & mask
        return cls(r - mask - 1 if r >= half else r)
    return unary if op is None else binary


# Each operator's meaning by its kind (a cast's by its target's type class)
# and its operands' classes: booleans for the logical operators, one
# integer lane for every other.  A key the table lacks is a stuck step.
_LANES = ((ConstInt, 32, IntTy), (ConstLong, 64, LongTy))
_BOP_SEM = {
    (kind, cls, cls): _test(fn) if kind in COMPARE_BOPS
    else _arith(cls, bits, fn, kind)
    for cls, bits, _ in _LANES for kind, fn in (
        (BopKind.ADD, operator.add), (BopKind.SUB, operator.sub),
        (BopKind.MUL, operator.mul), (BopKind.AND, operator.and_),
        (BopKind.OR, operator.or_), (BopKind.XOR, operator.xor),
        (BopKind.DIV, _trunc_div),
        (BopKind.MOD, lambda a, b: a - _trunc_div(a, b) * b),
        # an arithmetic shift on the signed lane
        (BopKind.SHL, operator.lshift), (BopKind.SHR, operator.rshift),
        (BopKind.EQ, operator.eq), (BopKind.NE, operator.ne),
        (BopKind.LT, operator.lt), (BopKind.LE, operator.le),
        (BopKind.GT, operator.gt), (BopKind.GE, operator.ge))}
_BOP_SEM[BopKind.LAND, ConstBool, ConstBool] = _test(lambda a, b: a and b)
_BOP_SEM[BopKind.LOR, ConstBool, ConstBool] = _test(lambda a, b: a or b)
_UOP_SEM = {(kind, cls): _arith(cls, bits, fn) for cls, bits, _ in _LANES
            for kind, fn in ((UopKind.NEG, operator.neg),
                             (UopKind.BITNOT, operator.invert))}
_UOP_SEM[UopKind.LOGNOT, ConstBool] = lambda v: ConstBool(not v.value)
_CAST_SEM = {(target, operand): _arith(cls, bits, operator.pos)
             for cls, bits, target in _LANES for operand, _, _ in _LANES}


def bop_sem(op: BopKind, v1: Expr, v2: Expr) -> Expr:
    """Two's-complement wrapping semantics at the operand width; an unsafe
    operand pair gives zero.  The Prim rule reads this table itself."""
    return _BOP_SEM[op, type(v1), type(v2)](v1, v2)


def uop_sem(op: Union[Uop, Cast], v: Expr) -> Expr:
    """A cast wraps to the lane of its target type."""
    if type(op) is Cast:
        return _CAST_SEM[type(op.target), type(v)](v)
    return _UOP_SEM[op.kind, type(v)](v)


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
            composites: dict[str, Composite]
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
    bid = theta.alloc(target)
    values: dict[str, Expr] = {}
    for fname, fty in co.fields:
        if isinstance(fty, ArrayTy):
            continue  # an array field is not readable as a value
        off = offsets[fname]
        fsize = sizeof(fty, composites)
        values[fname] = _decode_prim(data[off:off + fsize], fty)
        theta.store(bid, off, values[fname])
    return Loc(bid, 0), values


# ---------------------------------------------------------------------------
# Small-step evaluation
# ---------------------------------------------------------------------------

class StepEvent(NamedTuple):
    """One step of ``eval_multi``, as its hook sees it: the rule, the redex
    (a node of the term before the step) and the length of its path from the
    root, the whole term after the step, and that path as (old node, new
    node) pairs from the root down to the hole the contractum fills, the
    redex and the contractum last; the two terms differ only there.  A step
    that gets stuck has no rule and an empty path."""

    state: State
    rule: Optional[str]
    redex: Expr
    depth: int
    term: Expr
    path: list[tuple[Expr, Expr]]


def _stuck(reason: str):
    raise StuckState(reason)


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
    Frame: (0, 1),          # the body
}

# The same table with each class's shape attached, so that a step down the
# path to the redex costs one lookup.
_CONTEXTS = {cls: (SHAPES[cls], start, stop)
             for cls, (start, stop) in EVAL_POSITIONS.items()}


def _refocus(frames: list, e: Expr) -> tuple[Expr, Sequence[Expr]]:
    """The next redex once e stands in the hole of the context ``frames``:
    the redex and the values of its children in evaluation position.

    A frame is [node, context, children, hole, own], outermost first; own
    holds while children are the node's own.  A non-value is searched from
    its top; a value fills the innermost hole, popping its frame.  The
    search goes on at the node's next child in evaluation position that is
    not a value, and only then is the node's frame pushed.  A node with none
    left is the redex as it stands, handed over with the values (its
    children themselves when they are all of them), so it is not rebuilt.
    Only ``some`` is, since around a location it is a value that fills the
    next hole up.  A value is tested inline by its class; only ``some``
    goes to ``is_value``, which reads its child.
    """
    while True:
        cls = type(e)
        if cls in _VALUE_CLASSES or cls is SomeLit and is_value(e):
            if not frames:
                return e, ()
            node, context, children, i, own = frames.pop()
            if own:
                children = list(children)
            children[i] = e
            i, own = i + 1, False
        else:
            context = _CONTEXTS.get(cls)
            if context is None:
                return e, ()
            node, children, own = e, context[0].children(e), True
            i = context[1]
        shape, start, stop = context
        end = len(children) if stop is None else stop
        while i < end:
            e = children[i]
            cls = type(e)
            if cls not in _VALUE_CLASSES and (cls is not SomeLit
                                              or not is_value(e)):
                break
            i += 1
        else:
            if type(node) is not SomeLit:
                return node, children if start == 0 and end == len(
                    children) else children[start:end]
            e = node if node.value is children[0] \
                else shape.rebuild(node, children)
            if not is_value(e):
                return e, ()
            continue
        frames.append([node, context, children, i, own])


def _no_rule(s: State, w: ExternalWorld, e: Expr,
             values: list[Expr]) -> tuple[Expr, str]:
    _stuck(f"no rule applies to {type(e).__name__}")


def _step_let(s: State, w: ExternalWorld, e: Let,
              values: list[Expr]) -> tuple[Expr, str]:
    if e.name == "_":
        return e.body, "LETV"
    return subst(e.body, {e.name: values[0]}), "LETV"


def _step_cond(s: State, w: ExternalWorld, e: Cond,
               values: list[Expr]) -> tuple[Expr, str]:
    gv, = values
    if type(gv) is not ConstBool:
        _stuck("condition guard is not a boolean")
    return (e.then, "CONDT") if gv.value else (e.otherwise, "CONDF")


def _step_seq(s: State, w: ExternalWorld, e: Seq,
              values: list[Expr]) -> tuple[Expr, str]:
    # A two-part sequence steps straight to its tail, so a loop's term stays
    # one Seq deep however many iterations it runs.
    rest = e.parts[1:]
    return (Seq(rest) if len(rest) > 1 else (rest or values)[0]), "SEQT"


def _step_repeat(s: State, w: ExternalWorld, e: Repeat,
                 values: list[Expr]) -> tuple[Expr, str]:
    if e.count <= 0:
        return _UNIT, "FORV0"
    return Seq((e.body, Repeat(e.body, e.count - 1))), "FORVN"


def _step_var(s: State, w: ExternalWorld, e: Var,
              values: list[Expr]) -> tuple[Expr, str]:
    block = s.stack[-1].get(e.name) if s.stack else None
    if block is not None:
        v = s.theta.load(block, 0)
        if v is None:
            _stuck(f"read of uninitialized variable {e.name!r}")
        return v, "LVAR"
    binding = s.delta.get(e.name)
    if isinstance(binding, GlobalBinding):
        v = s.theta.load(binding.block, 0)
        if v is None:
            _stuck(f"read of uninitialized global {e.name!r}")
        return v, "GVAR"
    _stuck(f"unbound variable {e.name!r}")


def _step_prim(s: State, w: ExternalWorld, e: Prim,
               values: list[Expr]) -> tuple[Expr, str]:
    op = e.op
    if type(op) is Bop:
        # A binary operator's meaning is one lookup in bop_sem's table.
        v1, v2 = values
        sem = _BOP_SEM.get((op.kind, type(v1), type(v2)))
        if sem is None:
            _operands_stuck(op, values)
        return sem(v1, v2), "BOPV"
    rule = _PRIM_RULES.get(type(op))
    if rule is None:
        _stuck(f"unknown primitive {op!r}")
    return rule(s, e, values)


def _prim_uop(s: State, e: Prim, values: list[Expr]) -> tuple[Expr, str]:
    op = e.op
    v, = values
    sem = _UOP_SEM.get((op.kind, type(v))) if type(op) is Uop \
        else _CAST_SEM.get((type(op.target), type(v)))
    if sem is None:
        _operands_stuck(op, values)
    return sem(v), "UOPV"


def _prim_ref(s: State, e: Prim, values: list[Expr]) -> tuple[Expr, str]:
    # The block takes the type the checker gave the reference.
    if not isinstance(e.ty, RefTy):
        _stuck("ref without a checked type")
    bid = s.theta.alloc(e.ty.target)
    s.theta.store(bid, 0, values[0])
    return Loc(bid, 0), "REFV"


def _prim_deref(s: State, e: Prim, values: list[Expr]) -> tuple[Expr, str]:
    v, = values
    if isinstance(v, (NoneLit, SomeLit)):
        _stuck("dereference of an option value")
    if type(v) is not Loc:
        _stuck("dereference of a non-location")
    cell = s.theta.load(v.block, v.offset)
    if cell is None:
        _stuck("read of uninitialized memory")
    return cell, "DREFV"


def _prim_assign(s: State, e: Prim, values: list[Expr]) -> tuple[Expr, str]:
    lv, rv = values
    if isinstance(lv, (NoneLit, SomeLit)):
        _stuck("assignment through an option value")
    if type(lv) is not Loc:
        _stuck("assignment through a non-location")
    if not s.theta.store(lv.block, lv.offset, rv):
        _stuck("assignment into an invalid block")
    return _UNIT, "MASSGNV"


# The rule of each primitive operator class but Bop, whose case is in
# _step_prim.
_PRIM_RULES = {Deref: _prim_deref, Assign: _prim_assign, RefOp: _prim_ref,
               Uop: _prim_uop, Cast: _prim_uop}


def _operands_stuck(op, values: list[Expr]):
    name = f"cast to {op.target}" if isinstance(op, Cast) \
        else f"operator {op.kind.value!r}"
    _stuck(f"{name} does not apply to "
           + " and ".join(type(v).__name__ for v in values))


def _step_app(s: State, w: ExternalWorld, e: App,
              values: list[Expr]) -> tuple[Expr, str]:
    if not isinstance(e.callee, Var):
        _stuck("callee is not a function name")
    name = e.callee.name
    target = s.delta.get(name)
    if isinstance(target, FunDecl):
        return _apply_fun(s, target, values), "APP3"
    # A helper's result has the type the checker gave the call.
    if e.ty is None:
        _stuck(f"unknown function {name!r}")
    return w.call(name, values, s, e.ty), "EAPP"


def _apply_fun(s: State, fd: FunDecl, values: list[Expr]) -> Frame:
    """The frame of a call of fd: a block for each parameter, holding its
    argument, and for each local; the body is fd's own."""
    if len(values) != len(fd.args):
        _stuck(f"arity mismatch calling {fd.name!r}")
    env = {}
    for (x, ty), v in zip(fd.args, values):
        env[x] = bid = s.theta.alloc(ty)
        s.theta.store(bid, 0, v)
    for (y, ty) in fd.vars:
        # A local is a struct reference, and receives its storage at call
        # time, like a C local; the fields stay unwritten until
        # initialization, and a field read before that is stuck.
        env[y] = bid = s.theta.alloc(ty)
        s.theta.store(bid, 0, Loc(s.theta.alloc(ty.target), 0))
    s.stack.append(env)
    return Frame(fd.name, env, fd.body, ty=fd.rt)


def _step_return(s: State, w: ExternalWorld, e: Frame,
                 values: list[Expr]) -> tuple[Expr, str]:
    s.stack.pop()
    return values[0], "RET"


def _step_struct_init(s: State, w: ExternalWorld, e: StructInit,
                      values: list[Expr]) -> tuple[Expr, str]:
    var_block = s.stack[-1].get(e.name) if s.stack else None
    if var_block is None:
        _stuck(f"struct variable {e.name!r} is not allocated")
    var_ty = s.sigma.get(var_block)
    if not (isinstance(var_ty, RefTy) and isinstance(var_ty.target, StructTy)):
        _stuck(f"{e.name!r} is not a struct reference")
    sid = var_ty.target.sid
    co = s.composites.get(sid)
    if co is None:
        _stuck(f"unknown struct {sid!r}")
    # The storage that the call gave the local; re-initialization reuses it.
    existing = s.theta.load(var_block, 0)
    if type(existing) is not Loc:
        _stuck(f"struct variable {e.name!r} has no storage")
    sb = existing.block
    offsets, _, _ = struct_layout(co, s.composites)
    for (fname, _), v in zip(e.fields, values):
        s.theta.store(sb, offsets[fname], v)
    return Loc(sb, 0), "STRUCTV"


def _step_field(s: State, w: ExternalWorld, e: Field,
                values: list[Expr]) -> tuple[Expr, str]:
    tv, = values
    if type(tv) is NoneLit:
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
        _stuck(f"read of uninitialized field {e.fname!r}")
    return cell, "FACCESSV"


def _step_for(s: State, w: ExternalWorld, e: For,
              values: list[Expr]) -> tuple[Expr, str]:
    lv, hv = values
    if not isinstance(lv, (ConstInt, ConstLong)) or type(lv) is not type(hv):
        _stuck("loop bounds are not matching numeric values")
    n = range_count(lv, hv, e.direction)
    return Repeat(e.body, n), "FORV"


def _step_match(s: State, w: ExternalWorld, e: Match,
                values: list[Expr]) -> tuple[Expr, str]:
    sv, = values
    if type(sv) is NoneLit:
        arm = select_arm(e.arms, Pnone)
        if arm is None:
            _stuck("no arm matches none")
        return arm[1], "MNONE"
    if type(sv) is SomeLit:
        arm = select_arm(e.arms, Psome)
        if arm is None:
            _stuck("no arm matches some")
        p, body = arm
        if isinstance(p, Psome):
            return subst(body, {p.binder: sv.value}), "MSOME"
        return body, "MSOME"
    if type(sv) is BytesView:
        arm = next((a for a in e.arms if isinstance(a[0], Pbytes)), None)
        fallback = select_arm(e.arms, Pwild)
        if arm is None:
            _stuck("no bytes arm in match")
        p, body = arm
        try:
            vx, bindings = extract(sv, p.target, s.theta, s.composites)
        except TooShort:
            if fallback is None:
                _stuck("region too short and no fallback arm")
            return fallback[1], "MBYTESF"
        subs = {y: bindings[y] for y, _ in p.fields if y in bindings}
        subs[p.binder] = vx
        return subst(body, subs), "MBYTES"
    _stuck("match scrutinee is neither an option nor bytes")


# Each class's own rule, applied once its children in evaluation position
# are values.  SomeLit has none: it is a value once its child is a location.
_REDEX_RULES = {
    Var: _step_var, Prim: _step_prim, Let: _step_let, Cond: _step_cond,
    App: _step_app, StructInit: _step_struct_init, Field: _step_field,
    For: _step_for, Match: _step_match, Seq: _step_seq, Repeat: _step_repeat,
    Frame: _step_return,
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
               fuel: int = DEFAULT_FUEL,
               on_event: Optional[Callable[[StepEvent], None]] = None
               ) -> EvalResult:
    """Iterate the redex rules until a value; returns the exact step count.
    The context is kept between steps (refocusing).  Only for on_event is
    the whole term plugged together, and each step handed to it as a
    ``StepEvent``."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    steps = 0
    frames: list = []
    focus, values = _refocus(frames, e)
    rules = _REDEX_RULES
    term = e
    while (cls := type(focus)) not in _VALUE_CLASSES and not (
            cls is SomeLit and is_value(focus)):
        try:
            out, rule = rules.get(cls, _no_rule)(s, w, focus, values)
        except StuckState as exc:
            if on_event is not None:
                exc.event = StepEvent(s, None, focus, len(frames), term, [])
            raise
        if on_event is not None:
            # Plug while the frames are the redex's, writing each rebuilt
            # node back: a frame's node is its node in the last whole term,
            # and a frame that a value completes gives back that node.
            path = [(focus, out)]
            term = out
            for frame in reversed(frames):
                node, (shape, _, _), children, i, _ = frame
                kids = (*children[:i], term, *children[i + 1:])
                term = shape.rebuild(node, kids)
                path.append((node, term))
                frame[0], frame[2], frame[4] = term, kids, True
            path.reverse()
            on_event(StepEvent(s, rule, focus, len(frames), term, path))
        focus, values = _refocus(frames, out)
        steps += 1
        if steps >= fuel:
            raise FuelExhausted(f"no value after {fuel} steps")
    return EvalResult(s, focus, steps)


# ---------------------------------------------------------------------------
# Program-level setup
# ---------------------------------------------------------------------------

def init_state(tp: TypedProgram, w: ExternalWorld) -> State:
    s = State(GrowOnly(), Memory(), dict(tp.composites))
    for d in tp.program.decls:
        if isinstance(d, FunDecl):
            s.delta[d.name] = d
        elif isinstance(d, GlobDecl):
            _alloc_global(s, w, d)
    return s


def _alloc_global(s: State, w: ExternalWorld, gd: GlobDecl) -> None:
    raw = gd.init if isinstance(gd.init, bytes) else None  # a string
    bid = s.theta.alloc(gd.ty, raw=raw)
    s.delta[gd.name] = GlobalBinding(bid)
    if raw is None:
        init, target = gd.init, kernel_object(gd.ty)
        if target is not None:
            init = SomeLit(make_kernel_object(s, w, target))
            if target.sid == "bpf_map":  # so that lookups can find the map
                w.map_blocks[init.value.block] = gd.name
        s.theta.store(bid, 0, init)


def make_kernel_object(s: State, w: ExternalWorld, target: Ty) -> Loc:
    """A fresh object of type ``target``, filled as C's ``{0}`` fills it: the
    kernel object that a parameter or global of type ``option(struct S*)``
    receives, never null, and the referent of an entry parameter of type
    ``T*``.  Its one cell or its primitive fields are zero, and its bytes
    fields view the packet, whose block is allocated first."""
    if is_prim(target):
        ob = s.theta.alloc(target)
        s.theta.store(ob, 0, zero_value(target))
        return Loc(ob, 0)
    co = s.composites[target.sid]
    offsets, _, _ = struct_layout(co, s.composites)
    if any(isinstance(fty, BytesTy) for _, fty in co.fields):
        packet = BytesView(s.theta.alloc(BYTES, raw=w.packet), 0,
                           len(w.packet))
    ob = s.theta.alloc(target)
    for fname, fty in co.fields:
        if is_prim(fty):
            s.theta.store(ob, offsets[fname], zero_value(fty))
        elif isinstance(fty, BytesTy):
            s.theta.store(ob, offsets[fname], packet)
    return Loc(ob, 0)


def start(tp: TypedProgram, w: ExternalWorld,
          entry: Optional[str] = None) -> tuple[State, Expr]:
    """The initial state and the call of the entry point (``entry``, or main
    or the one sectioned function), each parameter given a kernel object, a
    fresh zero-filled referent or its type's zero."""
    fd = tp.program.entry_point(entry)
    if fd is None:
        raise NoEntryPoint("no entry point (declare main or one #section fun)")
    s = init_state(tp, w)
    args: list[Expr] = []
    for _, ty in fd.args:
        if not entry_arg_given(ty):
            raise InterpError(f"cannot give an entry argument of type {ty}")
        target = kernel_object(ty)
        if target is not None:
            args.append(SomeLit(make_kernel_object(s, w, target)))
        elif isinstance(ty, RefTy):
            args.append(make_kernel_object(s, w, ty.target))
        else:
            args.append(zero_value(ty))
    return s, App(Var(fd.name), tuple(args))


def run_program(tp: TypedProgram, w: Optional[ExternalWorld] = None,
                entry: Optional[str] = None, fuel: int = DEFAULT_FUEL,
                on_step: Optional[Callable[[State, Expr, str], None]] = None,
                on_event: Optional[Callable[[StepEvent], None]] = None
                ) -> EvalResult:
    """Evaluate the entry point's call.  on_event is eval_multi's hook;
    on_step, an older one in its place, sees each state, term and rule."""
    if on_step is not None and on_event is not None:
        raise ValueError("give on_step or on_event, not both")
    w = w if w is not None else ExternalWorld()
    s, call = start(tp, w, entry)
    if on_step is not None:
        def on_event(ev: StepEvent) -> None:
            on_step(ev.state, ev.term, ev.rule)
    return eval_multi(s, w, call, fuel=fuel, on_event=on_event)


# ---------------------------------------------------------------------------
# Well-formedness (Definition 1)
# ---------------------------------------------------------------------------

# The value class that a cell of each primitive block type holds.
_CELL_CLASS = {IntTy: ConstInt, LongTy: ConstLong, BoolTy: ConstBool}


def well_formed(s: State, blocks: Optional[Iterable[int]] = None
               ) -> tuple[bool, list[str]]:
    """Checks the state-consistency contract; returns violated clauses.
    With ``blocks`` None it checks every global and all of memory; given
    the blocks a step allocated, it checks only those, since a run binds no
    global once it has started.  Only the cells of the blocks in
    ``theta.written`` are checked against their blocks' types: the audit
    empties it after each step."""
    bad: list[str] = []
    sigma, memory = s.sigma, s.theta.blocks
    for x, d in (s.delta.items() if blocks is None else ()):
        if type(d) is not GlobalBinding:
            continue
        if d.block not in sigma:
            bad.append(f"global {x!r} block lacks store typing")
        elif s.theta.load(d.block, 0) is None and \
                memory.get(d.block, Block()).raw is None:
            bad.append(f"global {x!r} is uninitialized")
    # Both maps gain a block only through Memory.alloc, so when they hold
    # as many blocks and each new one is in both, they hold the same.
    if (sigma.keys() != memory.keys() if blocks is None else
            len(sigma) != len(memory)
            or not all(b in sigma and b in memory for b in blocks)):
        bad.append("store typing and memory differ on blocks "
                   f"{sorted(sigma.keys() ^ memory.keys())}")
    else:
        for block in s.theta.written:
            ty = sigma[block]
            cls = _CELL_CLASS.get(type(ty))
            cell = memory[block].cells.get(0)
            if cls is not None and cell is not None and type(cell) is not cls:
                bad.append(f"block {block} of type {ty} holds a "
                           f"{type(cell).__name__}")
    return not bad, bad


def runtime_gamma(s: State) -> dict[str, Ty]:
    """The globals' types: each global's block type in sigma."""
    return {name: s.sigma[d.block] for name, d in s.delta.items()
            if isinstance(d, GlobalBinding)}
