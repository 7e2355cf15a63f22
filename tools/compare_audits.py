"""Compare the checker and evaluate_with_audit between two checkouts.

Checks and audits GenConfig seeds 0-599 (or --seeds N), plain and with
packets and helpers, under world_for_seed, in each checkout's own src/, and
checks that every run is identical: what the checker infers (each function's
effect as a sorted atom list, and the class and ``ty`` of every node of each
elaborated body, in pre-order) and what the audit finds (violations, step
count and value).

    python3 tools/compare_audits.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N]

It prints two counts: the runs whose outcome differs (the checker's output,
the violations or the value), and the runs whose audited step count alone
differs, as when a change adds steps to a run but no outcome.  For the first
few it prints the first field that differs.  It exits 0 when the results are
identical and 1 otherwise.
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
        checked = {name: [sorted({a.value for a in tp.effects[name]}),
                          list(nodes(fd.body))]
                   for name, fd in tp.program.fun_decls().items()}
        t0 = time.perf_counter()
        audit = evaluate_with_audit(tp, world_for_seed(seed))
        audit_s += time.perf_counter() - t0
        runs.append([extras, seed, audit.violations, audit.steps,
                     repr(audit.value), checked])
print(json.dumps({"runs": runs, "audit_s": audit_s}))
"""


# The fields of an audited run; a rejected one holds the checker's message
# in place of the violations and the rest.
FIELDS = ("extras", "seed", "violations", "steps", "value", "checked")


def outcome(r: list) -> list:
    """A run's outcome: all of it but its audited step count."""
    return r if r[2] == "rejected" else r[:3] + r[4:]


def first_difference(a: list, b: list) -> str:
    """The first field in which two runs differ, both values truncated."""
    if "rejected" in (a[2], b[2]):
        return f"checker: {str(a[2:])[:500]} / {str(b[2:])[:500]}"
    name, x, y = next(f for f in zip(FIELDS, a, b) if f[1] != f[2])
    return f"{name}: {str(x)[:500]} / {str(y)[:500]}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--seeds", type=int, default=600)
    args = p.parse_args()
    old = dump(args.old, DUMP, args.seeds)
    new = dump(args.new, DUMP, args.seeds)
    pairs = list(zip(old["runs"], new["runs"]))
    differ = [(a, b) for a, b in pairs if outcome(a) != outcome(b)]
    steps = [(a, b) for a, b in pairs if outcome(a) == outcome(b) and a != b]
    audited = [r for r in new["runs"] if r[2] != "rejected"]
    print(f"{len(new['runs'])} runs, {len(audited)} audited, "
          f"{sum(len(r[5]) for r in audited)} functions checked, "
          f"{sum(len(f[1]) for r in audited for f in r[5].values())} "
          f"elaborated nodes, {sum(r[3] for r in audited)} steps, "
          f"{sum(bool(r[2]) for r in audited)} with violations; "
          f"audit time {old['audit_s']:.2f} s -> {new['audit_s']:.2f} s; "
          f"{len(differ)} differ in outcome, {len(steps)} in step count "
          "alone")
    for a, b in (differ[:5] or steps[:5]):
        print(f"  {a[:2]}: {first_difference(a, b)}")
    return 0 if not differ and not steps \
        and len(old["runs"]) == len(new["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
