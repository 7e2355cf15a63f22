"""Compare the interpreter's steps between two checkouts.

Runs GenConfig seeds 0-299 (or --seeds N), plain and with packets and
helpers, under world_for_seed, in each checkout's own src/, and checks that
every run is identical: each step's rule and term (the class, fields and
``ty`` of every node) as the step hook sees it, and the value, step count
and final memory (each block's store typing, which fixes its size, raw
bytes and cells) of the same run without a hook.  It also runs unchecked
mutants of seeds 0-59 (--mutants N), each a random subterm of a function
body replaced by another subterm of the program, under a fuel of 1,000
steps, and compares their steps and their value, stuck message or
exception.  Generated programs run only short loops, so it also runs 40
written loop programs of 50-300 iterations on the int and the long lane:
one accumulator, two accumulators, nested loops, and a conditional body
with division, modulo and comparisons.  And since generated operands seldom
sit at a lane's edge, it runs written edge programs: every binary operator
on both lanes with each edge operand (the lane's minimum and maximum, -1,
0, 1 and the shift counts 31, 32, 63 and 64) on either side, so that
INT_MIN / -1, % 0 and every out-of-range shift take the guarded zero;
negation and complement of each edge, including the minimum; casts of each
edge both ways; and the logical operators.

    python3 tools/compare_steps.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N]
                                   [--mutants N]

For each set it prints two counts: the runs whose outcome differs (the
checker's verdict, the value or stuck message, the step count or the final
memory), and the runs whose step digests alone differ, as when a change
adds steps to the trace or changes the terms it shows but no outcome.  It
exits 0 when the results are identical and 1 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

from checkout import dump

DUMP = r"""
import dataclasses, hashlib, json, random, sys, time
from beepl.core import FunDecl, Program, expr_children, with_children
from beepl.driver import world_for_seed
from beepl.frontend import parse_program
from beepl.gen import GenConfig, generate_well_typed
from beepl.interp import run_program
from beepl.typecheck import TypeCheckError, check_program


def tys(e):
    todo, out = [e], []
    while todo:
        e = todo.pop()
        out.append(repr(getattr(e, "ty", None)))
        todo.extend(reversed(expr_children(e)))
    return out


def memory(s):
    return [[bid, repr(s.sigma.get(bid)),
             b.raw.hex() if b.raw else None,
             sorted([off, repr(v)] for off, v in b.cells.items())]
            for bid, b in sorted(s.theta.blocks.items())]


def run(tp, seed, fuel):
    # The hooked run gives the steps, the run without a hook the outcome.
    # The hook is called by the step loop itself, so that a term too deep
    # to print fails at the same depth of the stack.
    digests = []

    def on_event(ev):
        record = json.dumps([ev.rule, repr(ev.term), tys(ev.term)])
        digests.append(ev.rule + ":" + hashlib.sha256(
            record.encode()).hexdigest()[:16])

    out = {}
    for key, hooks in (("hooked", {"on_event": on_event}), ("plain", {})):
        try:
            r = run_program(tp, world_for_seed(seed), fuel=fuel, **hooks)
            out[key] = ["value", repr(r.value), r.steps, memory(r.state)]
        except Exception as exc:
            out[key] = [type(exc).__name__, str(exc)]
    return {"steps": digests, **out}


def subterms(e, path=()):
    yield path, e
    for i, c in enumerate(expr_children(e)):
        yield from subterms(c, (*path, i))


def replace_at(e, path, new):
    if not path:
        return new
    children = list(expr_children(e))
    children[path[0]] = replace_at(children[path[0]], path[1:], new)
    return with_children(e, children)


def mutant(tp, rng):
    funs = [d for d in tp.program.decls if isinstance(d, FunDecl)]
    spots = [(fd, path) for fd in funs for path, _ in subterms(fd.body)]
    pool = [e for fd in funs for _, e in subterms(fd.body)]
    fd, path = rng.choice(spots)
    body = replace_at(fd.body, path, rng.choice(pool))
    decls = tuple(dataclasses.replace(d, body=body) if d is fd else d
                  for d in tp.program.decls)
    return dataclasses.replace(
        tp, program=Program(decls, tp.program.composites))


# The loop bodies by shape; {s} is the lane's literal suffix.
LOOP_BODIES = {
    "one-acc": "x := !x * {m}{s} + {c}{s}",
    "two-acc": "let _ = x := !x * {m}{s} - {c}{s} in y := !y ^ (!x >> 3{s})",
    "nested": "for ({i} ... 1, Down) {{ x := (!x ^ {c}{s}) * {m}{s} }}",
    "cond": "x := if !x % 7{s} == 0{s} || !x < 0{s} then !x / 3{s} + {c}{s} "
            "else !x * {m}{s} - (!y & 255{s})",
}


LOOPS = 40


# Loop program k: its shape and lane cycle with k, and it runs 50-300
# iterations in all.
def loop_source(k):
    rng = random.Random(k)
    shape = list(LOOP_BODIES)[k % len(LOOP_BODIES)]
    t, s = ("long", "L") if k // len(LOOP_BODIES) % 2 else ("int", "")
    n = rng.randint(50, 300)
    outer = rng.randint(2, 5) if shape == "nested" else n
    lo = rng.randint(-50, 50)
    up = rng.random() < 0.5
    hi = lo + outer - 1 if up else lo - outer + 1
    body = LOOP_BODIES[shape].format(
        m=rng.randrange(3, 1 << 20, 2), c=rng.randint(0, 10_000),
        i=max(1, n // outer), s=s)
    return f"{shape}-{t}", (
        f"fun main() : {t} {{ let x : {t}* = ref({rng.randint(-1000, 1000)}"
        f"{s}) in let y : {t}* = ref(1{s}) in let _ = for ({lo} ... {hi}, "
        f"{'Up' if up else 'Down'}) {{ {body} }} in !x + !y }}")


# The edge operands of each lane as source text.  The long lane's minimum
# is written as an expression: its magnitude is no long literal (P003).
EDGES = {
    "int": ["-2147483648", "-2147483647", "-1", "0", "1", "31", "32", "63",
            "64", "2147483647"],
    "long": ["(-9223372036854775807L - 1L)", "-9223372036854775807L", "-1L",
             "0L", "1L", "31L", "32L", "63L", "64L", "9223372036854775807L"],
}
BINARY = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
          "==", "!=", "<", "<=", ">", ">="]


# (name, source) of each edge program.  Each binds its left operand to a
# variable, so that no literal is folded, and xors every result into one
# cell; a comparison xors in its index when it holds.
def edge_sources():
    for t, edges in EDGES.items():
        s = "L" if t == "long" else ""
        other = "int" if t == "long" else "long"
        head = f"fun main() : {t} {{ let x : {t}* = ref(0{s}) in "
        for op in BINARY:
            for i, a in enumerate(edges):
                if op in ("==", "!=", "<", "<=", ">", ">="):
                    results = [f"(if a {op} {b} then {k}{s} else 0{s})"
                               for k, b in enumerate(edges)]
                else:
                    results = [f"(a {op} {b})" for b in edges]
                uses = "".join(f"let _ = x := !x ^ {r} in " for r in results)
                yield f"{t}{op}{i}", f"{head}let a : {t} = {a} in {uses}!x }}"
        uses = "".join(
            f"let a : {t} = {a} in let _ = x := !x ^ -a ^ ~a ^ ({t})a ^ "
            f"({t})({other})a in " for a in edges)
        yield f"{t}-unary", f"{head}{uses}!x }}"
    yield "logic", ("fun main() : bool { let t : bool = true in let f : bool "
                    "= false in (t && f || f && t || t && t) && not (f || f) "
                    "&& (t || f) && not not t }")


seeds, n_mutants = int(sys.argv[1]), int(sys.argv[2])
runs, mutants, loops, edges, t0 = [], [], [], [], time.perf_counter()
for extras in (False, True):
    for seed in range(seeds):
        program = generate_well_typed(
            GenConfig(seed=seed, bytes_match=extras, externals=extras))
        try:
            tp = check_program(program)
        except TypeCheckError as exc:
            runs.append({"id": [extras, seed], "rejected": str(exc)})
            continue
        runs.append({"id": [extras, seed], **run(tp, seed, 10 ** 6)})
        if seed < n_mutants:
            rng = random.Random(seed * 2 + extras)
            for k in range(4):
                mutants.append({"id": [extras, seed, k],
                                **run(mutant(tp, rng), seed, 1000)})
for k in range(LOOPS):
    name, src = loop_source(k)
    try:
        tp = check_program(parse_program(src, name))
    except TypeCheckError as exc:
        loops.append({"id": [name, k], "rejected": str(exc)})
        continue
    loops.append({"id": [name, k], **run(tp, k, 10 ** 6)})
for name, src in edge_sources():
    try:
        tp = check_program(parse_program(src, name))
    except TypeCheckError as exc:
        edges.append({"id": [name], "rejected": str(exc)})
        continue
    edges.append({"id": [name], **run(tp, 0, 10 ** 6)})
print(json.dumps({"runs": runs, "mutants": mutants, "loops": loops,
                  "edges": edges, "seconds": time.perf_counter() - t0}))
"""


def outcome(r: dict) -> list:
    """A run's outcome: all of it but its step digests."""
    return [r.get(k) for k in ("rejected", "hooked", "plain")]


def first_difference(a: dict, b: dict) -> str:
    """Where two runs part: the checker, an outcome, or a step."""
    if "rejected" in a or "rejected" in b:
        return f"checker: {a.get('rejected')} / {b.get('rejected')}"
    if outcome(a) != outcome(b):
        key = "hooked" if a["hooked"] != b["hooked"] else "plain"
        return f"{key} outcome: {str(a[key])[:1000]} / {str(b[key])[:1000]}"
    for i, (x, y) in enumerate(zip(a["steps"], b["steps"])):
        if x != y:
            return f"step {i + 1}: {x} / {y}"
    return f"{len(a['steps'])} / {len(b['steps'])} hooked steps"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--seeds", type=int, default=300)
    p.add_argument("--mutants", type=int, default=60,
                   help="mutate the first N seeds, four mutants each")
    args = p.parse_args()
    old = dump(args.old, DUMP, args.seeds, args.mutants)
    new = dump(args.new, DUMP, args.seeds, args.mutants)
    ok = True
    for key in ("runs", "mutants", "loops", "edges"):
        pairs = list(zip(old[key], new[key]))
        differ = [(a, b) for a, b in pairs if outcome(a) != outcome(b)]
        traces = [(a, b) for a, b in pairs
                  if outcome(a) == outcome(b) and a != b]
        ran = [r for r in new[key] if "rejected" not in r]
        outcomes: dict[str, int] = {}
        for r in ran:
            outcomes[r["plain"][0]] = outcomes.get(r["plain"][0], 0) + 1
        print(f"{key}: {len(new[key])}, "
              f"{sum(len(r['steps']) for r in ran)} hooked steps, outcomes "
              f"{json.dumps(outcomes, sort_keys=True)}; {len(differ)} differ "
              f"in outcome, {len(traces)} in step digests alone")
        for a, b in (differ[:5] or traces[:5]):
            print(f"  {a['id']}: {first_difference(a, b)}")
        ok = ok and not differ and not traces \
            and len(old[key]) == len(new[key])
    print(f"time {old['seconds']:.2f} s -> {new['seconds']:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
