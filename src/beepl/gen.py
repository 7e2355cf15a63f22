"""Deterministic generation of well-typed BeePL programs.

Generation is type-directed: pick a goal type, then a production whose
conclusion matches it, so every output passes the checker by construction.
For-loop bounds are always literals, which keeps them disjoint from any
variable the body mentions.  The same seed always yields the same program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .core import (
    App, Assign, BOOL, Bop, BopKind, Cast, Composite, Cond, ConstBool,
    ConstInt, ConstLong, Deref, Direction, Expr, Field, For, FunDecl,
    GlobDecl, INT, Let, LONG, LongTy, Match, NoneLit, OptionTy, Pbytes,
    Pnone, Prim, Program, Psome, Pwild, RefOp, RefTy, SomeLit, StructTy, Ty,
    U16, U32, U8, UNIT, UnitLit, Uop, UopKind, Var, expr_children,
    fvar, with_children,
)
from .typecheck import TypeCheckError, check_program


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_depth: int = 8
    max_decls: int = 3
    bytes_match: bool = False
    externals: bool = False
    loop_lo: int = -3
    loop_hi: int = 6


INT_LO, INT_HI = -64, 64  # range of integer literals


ARITH = [BopKind.ADD, BopKind.SUB, BopKind.MUL, BopKind.AND, BopKind.OR,
         BopKind.XOR, BopKind.DIV, BopKind.MOD, BopKind.SHL, BopKind.SHR]
COMPARE = [BopKind.EQ, BopKind.NE, BopKind.LT, BopKind.LE, BopKind.GT,
           BopKind.GE]

# The types the generator writes are these objects (and struct references,
# which no production asks for), so a type test is an identity test and
# costs no generated dataclass __eq__.
REF_INT, REF_LONG = RefTy(INT), RefTy(LONG)
LET_TYPES = (INT, LONG, BOOL, REF_INT, REF_LONG)


def _ref(lane: Ty) -> RefTy:
    return REF_INT if lane is INT else REF_LONG


PACKET_STRUCTS = (
    Composite("hdr2", (("tag", U16),)),
    Composite("hdr8", (("word_a", U32), ("word_b", U32))),
)


@dataclass
class _Env:
    rng: random.Random
    cfg: GenConfig
    vars: list[tuple[str, Ty]] = field(default_factory=list)
    funs: list[FunDecl] = field(default_factory=list)
    counter: int = 0
    has_map: bool = False
    has_ctx: bool = False

    def fresh(self, base: str = "x") -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def vars_of(self, ty: Ty) -> list[str]:
        return [x for x, t in self.vars if t is ty]


def generate_well_typed(cfg: GenConfig) -> Program:
    """A random program that check_program accepts by construction.  It is
    not checked here: every consumer checks it, and the property suite
    reports an ill-typed one with a reproducer."""
    return _gen_program(random.Random(cfg.seed * 1_000_003), cfg)


def _gen_program(rng: random.Random, cfg: GenConfig) -> Program:
    env = _Env(rng, cfg)
    decls: list = []
    composites: tuple = ()
    if cfg.externals and rng.random() < 0.8:
        decls.append(GlobDecl("counter_table",
                              OptionTy(RefTy(StructTy("bpf_map"))),
                              NoneLit(), sec=".maps"))
        env.has_map = True
    n_aux = rng.randrange(0, cfg.max_decls)
    for i in range(n_aux):
        fd = _gen_aux_fun(env, f"f{i}")
        env.funs.append(fd)
        decls.append(fd)
    use_ctx = cfg.bytes_match and rng.random() < 0.7
    if use_ctx:
        composites = PACKET_STRUCTS
        env.has_ctx = True
        body = _gen_expr(env, INT, cfg.max_depth)
        decls.append(FunDecl("prog", INT,
                             (("ctx", OptionTy(RefTy(StructTy("xdp_md")))),),
                             body, sec="xdp"))
    else:
        body = _gen_expr(env, INT, cfg.max_depth)
        decls.append(FunDecl("main", INT, (), body))
    return Program(tuple(decls), composites)


def _gen_aux_fun(env: _Env, name: str) -> FunDecl:
    rng = env.rng
    rt = rng.choice([INT, INT, LONG, BOOL])
    n_args = rng.randrange(0, 3)
    args = tuple((f"a{i}", rng.choice([INT, LONG, BOOL]))
                 for i in range(n_args))
    inner = _Env(rng, env.cfg, vars=list(args), funs=list(env.funs),
                 counter=env.counter, has_map=env.has_map)
    body = _gen_expr(inner, rt, max(2, env.cfg.max_depth - 2))
    env.counter = inner.counter
    return FunDecl(name, rt, args, body)


def _literal(env: _Env, ty: Ty) -> Expr:
    rng = env.rng
    if ty is BOOL:
        return ConstBool(rng.random() < 0.5)
    if ty is UNIT:
        return UnitLit()
    v = rng.randint(INT_LO, INT_HI)
    if isinstance(ty, LongTy):
        if rng.random() < 0.15:
            v = rng.choice([0x100000000, -(1 << 40), (1 << 62)])
        return ConstLong(v)
    if rng.random() < 0.1:
        v = rng.choice([0, 1, -1, (1 << 31) - 1, -(1 << 31), 65536])
    return ConstInt(v)


def _gen_expr(env: _Env, ty: Ty, depth: int) -> Expr:
    rng = env.rng
    if depth <= 0:
        choices = env.vars_of(ty)
        if choices and rng.random() < 0.5:
            return Var(rng.choice(choices))
        return _literal(env, ty)
    prods = [_p_literal, _p_literal, _p_let, _p_cond]
    if env.vars_of(ty):
        prods += [_p_var, _p_var]
    lane = ty is INT or ty is LONG
    if lane:
        prods += [_p_arith, _p_arith, _p_uop, _p_cast, _p_deref]
        if any(f.rt is ty for f in env.funs):
            prods.append(_p_call)
    if ty is LONG and env.cfg.externals:
        prods.append(_p_uid_gid)
    if ty is BOOL:
        prods += [_p_compare, _p_compare, _p_logic, _p_lognot]
    if ty is UNIT:
        prods += [_p_assign, _p_assign, _p_loop, _p_loop]
    if lane and rng.random() < 0.2:
        prods.append(_p_loop_then)
    if lane or ty is BOOL:
        prods += [_p_match_option]
        if env.cfg.externals and env.has_map:
            prods.append(_p_match_lookup)
        if env.has_ctx:
            prods += [_p_match_bytes, _p_match_bytes]
    return rng.choice(prods)(env, ty, depth)


def _p_literal(env, ty, depth):
    return _literal(env, ty)


def _p_var(env, ty, depth):
    return Var(env.rng.choice(env.vars_of(ty)))


def _p_let(env, ty, depth):
    rng = env.rng
    bty = rng.choice(LET_TYPES)
    name = env.fresh()
    if isinstance(bty, RefTy):
        bound = Prim(RefOp(), (_gen_expr(env, bty.target, depth - 1),))
    else:
        bound = _gen_expr(env, bty, depth - 1)
    env.vars.append((name, bty))
    body = _gen_expr(env, ty, depth - 1)
    env.vars.pop()
    return Let(name, bty, bound, body)


def _p_cond(env, ty, depth):
    return Cond(_gen_expr(env, BOOL, depth - 1),
                _gen_expr(env, ty, depth - 1),
                _gen_expr(env, ty, depth - 1))


def _p_arith(env, ty, depth):
    op = env.rng.choice(ARITH)
    return Prim(Bop(op), (_gen_expr(env, ty, depth - 1),
                          _gen_expr(env, ty, depth - 1)))


def _p_uop(env, ty, depth):
    kind = env.rng.choice([UopKind.NEG, UopKind.BITNOT])
    inner = _gen_expr(env, ty, depth - 1)
    if kind is UopKind.NEG and isinstance(inner, (ConstInt, ConstLong)):
        # The parser folds negated literals; stay inside its image.
        folded = -inner.value
        if isinstance(inner, ConstInt):
            return ConstInt(folded if folded < (1 << 31) else 0)
        return ConstLong(folded if folded < (1 << 63) else 0)
    return Prim(Uop(kind), (inner,))


def _p_cast(env, ty, depth):
    src = LONG if ty is INT else INT
    return Prim(Cast(ty), (_gen_expr(env, src, depth - 1),))


def _p_deref(env, ty, depth):
    refs = env.vars_of(_ref(ty))
    if refs and env.rng.random() < 0.6:
        return Prim(Deref(), (Var(env.rng.choice(refs)),))
    return Prim(Deref(), (Prim(RefOp(), (_gen_expr(env, ty, depth - 1),)),))


def _p_call(env, ty, depth):
    rng = env.rng
    candidates = [f for f in env.funs if f.rt is ty]
    fd = rng.choice(candidates)
    args = tuple(_gen_expr(env, t, min(depth - 1, 2)) for _, t in fd.args)
    return App(Var(fd.name), args)


def _p_uid_gid(env, ty, depth):
    return App(Var("bpf_get_current_uid_gid"), ())


def _p_compare(env, ty, depth):
    lane = env.rng.choice([INT, LONG])
    op = env.rng.choice(COMPARE)
    return Prim(Bop(op), (_gen_expr(env, lane, depth - 1),
                          _gen_expr(env, lane, depth - 1)))


def _p_logic(env, ty, depth):
    op = env.rng.choice([BopKind.LAND, BopKind.LOR])
    return Prim(Bop(op), (_gen_expr(env, BOOL, depth - 1),
                          _gen_expr(env, BOOL, depth - 1)))


def _p_lognot(env, ty, depth):
    return Prim(Uop(UopKind.LOGNOT), (_gen_expr(env, BOOL, depth - 1),))


def _p_assign(env, ty, depth):
    rng = env.rng
    for lane in rng.sample([INT, LONG], 2):
        refs = env.vars_of(_ref(lane))
        if refs:
            return Prim(Assign(), (Var(rng.choice(refs)),
                                   _gen_expr(env, lane, depth - 1)))
    lane = rng.choice([INT, LONG])
    target = Prim(RefOp(), (_literal(env, lane),))
    return Prim(Assign(), (target, _gen_expr(env, lane, depth - 1)))


def _p_loop(env, ty, depth):
    rng = env.rng
    lo = ConstInt(rng.randint(env.cfg.loop_lo, env.cfg.loop_hi))
    hi = ConstInt(rng.randint(env.cfg.loop_lo, env.cfg.loop_hi))
    d = rng.choice([Direction.UP, Direction.DOWN])
    return For(lo, hi, d, _gen_expr(env, UNIT, depth - 1))


def _p_loop_then(env, ty, depth):
    loop = _p_loop(env, UNIT, depth - 1)
    return Let("_", UNIT, loop, _gen_expr(env, ty, depth - 1))


def _p_match_option(env, ty, depth):
    rng = env.rng
    inner_lane = rng.choice([INT, LONG])
    if rng.random() < 0.3:
        name = env.fresh("o")
        oty = OptionTy(_ref(inner_lane))
        scrut_bound: Expr = NoneLit() if rng.random() < 0.5 else \
            SomeLit(Prim(RefOp(), (_literal(env, inner_lane),)))
        some_name = env.fresh("p")
        env.vars.append((some_name, _ref(inner_lane)))
        some_body = _gen_expr(env, ty, depth - 1)
        env.vars.pop()
        none_body = _gen_expr(env, ty, depth - 1)
        arms = ((Pnone(), none_body), (Psome(some_name), some_body))
        if rng.random() < 0.15:
            arms = ((Pwild(), none_body), (Psome(some_name), some_body))
        return Let(name, oty, scrut_bound, Match(Var(name), arms))
    scrut = SomeLit(Prim(RefOp(), (_gen_expr(env, inner_lane, depth - 1),)))
    some_name = env.fresh("p")
    env.vars.append((some_name, _ref(inner_lane)))
    some_body = _gen_expr(env, ty, depth - 1)
    env.vars.pop()
    arms = ((Pnone(), _gen_expr(env, ty, depth - 1)),
            (Psome(some_name), some_body))
    return Match(scrut, arms)


def _p_match_lookup(env, ty, depth):
    rng = env.rng
    key = Prim(RefOp(), (ConstLong(rng.randint(0, 4)),))
    scrut = App(Var("bpf_map_lookup_elem"), (Var("counter_table"), key))
    some_name = env.fresh("p")
    env.vars.append((some_name, REF_LONG))
    some_body = _gen_expr(env, ty, depth - 1)
    env.vars.pop()
    return Match(scrut, ((Pnone(), _gen_expr(env, ty, depth - 1)),
                         (Psome(some_name), some_body)))


def _p_match_bytes(env, ty, depth):
    rng = env.rng
    co = rng.choice(PACKET_STRUCTS)
    binder = env.fresh("h")
    mark = len(env.vars)
    if rng.random() < 0.3:
        target: Ty = rng.choice([U8, U16])
        pat = Pbytes(binder, target)
        env.vars.append((binder, INT))
    else:
        fields = tuple((f, t) for f, t in co.fields
                       if rng.random() < 0.8) or (co.fields[0],)
        pat = Pbytes(binder, StructTy(co.sid), fields)
        env.vars.append((binder, RefTy(StructTy(co.sid))))
        for f, _ in fields:
            env.vars.append((f, INT))
    ok_body = _gen_expr(env, ty, depth - 1)
    del env.vars[mark:]
    fail_body = _gen_expr(env, ty, depth - 1)
    return Match(Field(Var("ctx"), "data"),
                 ((pat, ok_body), (Pwild(), fail_body)))


# ---------------------------------------------------------------------------
# Type-preserving shrinking
# ---------------------------------------------------------------------------

def shrink_candidates(e: Expr) -> list[Expr]:
    """Smaller same-typed replacements for the root of e."""
    out: list[Expr] = []
    if isinstance(e, Cond):
        out += [e.then, e.otherwise]
    if isinstance(e, Let) and e.name not in fvar(e.body):
        out.append(e.body)
    if isinstance(e, Match):
        for p, body in e.arms:
            if not (p.binders & fvar(body)):
                out.append(body)
    if isinstance(e, Prim) and isinstance(e.op, Bop) \
            and e.op.kind in ARITH:
        out += list(e.operands)
    if isinstance(e, Prim) and isinstance(e.op, Uop):
        if e.op.kind in (UopKind.NEG, UopKind.BITNOT, UopKind.LOGNOT):
            out.append(e.operands[0])
    if isinstance(e, For):
        out.append(UnitLit())
    if isinstance(e, ConstInt) and e.value != 0:
        out.append(ConstInt(0))
    if isinstance(e, ConstLong) and e.value != 0:
        out.append(ConstLong(0))
    return out


def _replace_at(e: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    idx, rest = path[0], path[1:]
    children = list(expr_children(e))
    children[idx] = _replace_at(children[idx], rest, new)
    return with_children(e, children)


def _positions(e: Expr, prefix: tuple[int, ...] = ()):
    yield prefix, e
    for i, c in enumerate(expr_children(e)):
        yield from _positions(c, prefix + (i,))


def expr_size(e: Expr) -> int:
    """The number of nodes in e, counted with a stack, not recursion."""
    size, todo = 0, [e]
    while todo:
        size += 1
        todo.extend(expr_children(todo.pop()))
    return size


def shrink_program(p: Program, still_fails) -> Program:
    """Greedy type-preserving shrink; keeps the failure observable."""
    improved = True
    while improved:
        improved = False
        fun_idx = [i for i, d in enumerate(p.decls) if isinstance(d, FunDecl)]
        for di in fun_idx:
            fd = p.decls[di]
            for path, node in sorted(_positions(fd.body),
                                     key=lambda kv: -len(kv[0])):
                for cand in shrink_candidates(node):
                    if expr_size(cand) >= expr_size(node):
                        continue
                    new_body = _replace_at(fd.body, path, cand)
                    new_fd = replace(fd, body=new_body)
                    decls = list(p.decls)
                    decls[di] = new_fd
                    candidate = Program(tuple(decls), p.composites)
                    try:
                        check_program(candidate)
                    except TypeCheckError:
                        continue
                    if still_fails(candidate):
                        p = candidate
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return p
