"""Compare the checker and evaluate_with_audit between two checkouts.

Checks and audits GenConfig seeds 0-599 (or --seeds N), plain and with
packets and helpers, under world_for_seed, in each checkout's own src/, and
checks that every run is identical: what the checker infers (each function's
effect as a sorted atom list, and the class and ``ty`` of every node of each
elaborated body, in pre-order) and what the audit finds (violations, step
count and value).

    python3 tools/compare_audits.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N]

Exits 0 when the results are identical and 1 otherwise.
"""

import argparse
import sys
from pathlib import Path

from checkout import dump

DUMP = r"""
import json, sys, time
from beepl.core import expr_children
from beepl.driver import evaluate_with_audit, world_for_seed
from beepl.gen import GenConfig, generate_well_typed
from beepl.typecheck import TypeCheckError, check_program


def nodes(e):
    todo = [e]
    while todo:
        e = todo.pop()
        yield [type(e).__name__, repr(getattr(e, "ty", None))]
        todo.extend(reversed(expr_children(e)))


runs, audit_s = [], 0.0
for extras in (False, True):
    for seed in range(int(sys.argv[1])):
        program = generate_well_typed(
            GenConfig(seed=seed, bytes_match=extras, externals=extras))
        try:
            tp = check_program(program)
        except TypeCheckError as exc:
            runs.append([extras, seed, "rejected", str(exc)])
            continue
        # Older checkouts keep each function's effect in tp.funs.
        effects = tp.effects if hasattr(tp, "effects") else \
            {name: tf.inferred for name, tf in tp.funs.items()}
        checked = {name: [sorted({a.value for a in effects[name]}),
                          list(nodes(fd.body))]
                   for name, fd in tp.program.fun_decls().items()}
        t0 = time.perf_counter()
        audit = evaluate_with_audit(tp, world_for_seed(seed))
        audit_s += time.perf_counter() - t0
        runs.append([extras, seed, audit.violations, audit.steps,
                     repr(audit.value), checked])
print(json.dumps({"runs": runs, "audit_s": audit_s}))
"""


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--seeds", type=int, default=600)
    args = p.parse_args()
    old = dump(args.old, DUMP, args.seeds)
    new = dump(args.new, DUMP, args.seeds)
    differ = [(a, b) for a, b in zip(old["runs"], new["runs"]) if a != b]
    audited = [r for r in new["runs"] if r[2] != "rejected"]
    print(f"{len(new['runs'])} runs, {len(audited)} audited, "
          f"{sum(len(r[5]) for r in audited)} functions checked, "
          f"{sum(len(f[1]) for r in audited for f in r[5].values())} "
          f"elaborated nodes, {sum(r[3] for r in audited)} steps, "
          f"{sum(bool(r[2]) for r in audited)} with violations; "
          f"audit time {old['audit_s']:.2f} s -> {new['audit_s']:.2f} s; "
          f"{len(differ)} differ")
    for a, b in differ[:5]:
        print(f"  old {str(a)[:2000]}\n  new {str(b)[:2000]}")
    return 0 if not differ and len(old["runs"]) == len(new["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
