"""Stratified input sets for the generated-program workloads.

A generated program's cost varies by orders of magnitude, and a few rare,
large programs hold much of a set's total.  A plain seeded draw of a few
hundred programs therefore changes a workload's throughput by 10-20% from
one seed to the next.  Instead, each set is filled by a ladder: a size
measure of the program (known before the program runs) falls into a
geometric bin, and each bin takes a fixed number of programs, its share in
a reference draw times the set size.  The quotas are filled from twice as
many seeded draws as the set holds.  The seed still chooses every program;
it no longer chooses how many large ones there are.  Bins whose expected
count in the set is below one half get none, since a set of ``n`` programs
cannot represent a share below ``1 / (2n)``.

The measures look only at the program text, so a change to the checker,
interpreter or C backend cannot move programs between bins.  Running this
file prints the share tables from a fresh reference draw; do that when the
generator changes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

# Bin -> share of a 4000-program reference draw (seeds 10_000_000 onward,
# GenConfig(bytes_match=True, externals=True), as selftest's metatheory
# suite uses).  See ``reference_shares``.
COMPILE_FACTOR = 1.25   # bins of printed-source length, in characters
COMPILE_SHARES = {
    14: 0.00375, 15: 0.0035, 16: 0.00075, 18: 0.00125, 19: 0.00025,
    20: 0.01375, 21: 0.00575, 22: 0.0155, 23: 0.04, 24: 0.0355, 25: 0.02575,
    26: 0.02175, 27: 0.034, 28: 0.04225, 29: 0.05125, 30: 0.0635, 31: 0.08,
    32: 0.08525, 33: 0.1025, 34: 0.10425, 35: 0.0965, 36: 0.075, 37: 0.0535,
    38: 0.0305, 39: 0.00975, 40: 0.00375, 41: 0.00025, 42: 0.00025}
AUDIT_FACTOR = 2.0      # bins of ``audit_cost`` (static steps x nodes)
AUDIT_SHARES = {
    0: 0.05275, 1: 0.0185, 2: 0.01275, 3: 0.0195, 4: 0.022, 5: 0.033,
    6: 0.047, 7: 0.0405, 8: 0.0335, 9: 0.0425, 10: 0.0635, 11: 0.0945,
    12: 0.144, 13: 0.15575, 14: 0.1275, 15: 0.07275, 16: 0.0185,
    17: 0.00125, 19: 0.00025}
# The same, for the closed integer programs of GenConfig() that the
# differential workload compiles; bins of printed-source length.
DIFFERENTIAL_SHARES = {
    14: 0.04125, 15: 0.0455, 16: 0.0105, 17: 0.00725, 18: 0.0205,
    19: 0.01525, 20: 0.01725, 21: 0.01875, 22: 0.01675, 23: 0.0155,
    24: 0.0245, 25: 0.03425, 26: 0.0475, 27: 0.0555, 28: 0.07725,
    29: 0.0785, 30: 0.09575, 31: 0.103, 32: 0.0905, 33: 0.0765,
    34: 0.05125, 35: 0.03675, 36: 0.01475, 37: 0.005, 38: 0.0005}

REFERENCE_SEED = 10_000_000
REFERENCE_SIZE = 4000


def bin_of(value: float, factor: float) -> int:
    return int(math.log(max(value, 1.0)) / math.log(factor))


def ladder(candidates: Iterable[T], measure: Callable[[T], float],
           shares: dict[int, float], factor: float, n: int,
           draws: int) -> list[T]:
    """Fill each bin's quota from the first ``draws`` candidates.

    The number of draws is fixed, so building a set costs the same for
    every seed; a rare bin that the draws do not fill stays short.
    """
    quotas = {b: round(n * s) for b, s in shares.items()}
    filled: Counter = Counter()
    picked: list[T] = []
    for cand in islice(candidates, draws):
        b = bin_of(measure(cand), factor)
        if filled[b] < quotas.get(b, 0):
            filled[b] += 1
            picked.append(cand)
    return picked


def expr_size(e, core) -> int:
    return 1 + sum(expr_size(c, core) for c in core.expr_children(e))


def static_steps(e, funs: dict, core) -> float:
    """Reduction steps estimated from the syntax alone.

    Loops multiply their body by the literal iteration count, branches
    count the mean of their arms, calls add the callee's body.
    """
    if isinstance(e, core.For):
        n = 1
        if isinstance(e.lo, core.ConstInt) and isinstance(e.hi, core.ConstInt):
            span = e.hi.value - e.lo.value
            if e.direction is core.Direction.DOWN:
                span = -span
            n = max(0, span + 1)
        return 3 + n * (static_steps(e.body, funs, core) + 2)
    if isinstance(e, core.Cond):
        return 1 + static_steps(e.guard, funs, core) + (
            static_steps(e.then, funs, core)
            + static_steps(e.otherwise, funs, core)) / 2
    if isinstance(e, core.Match):
        arms = [static_steps(b, funs, core) for _, b in e.arms]
        return (1 + static_steps(e.scrutinee, funs, core)
                + sum(arms) / len(arms))
    cost = 1 + sum(static_steps(c, funs, core) for c in core.expr_children(e))
    if isinstance(e, core.App) and isinstance(e.callee, core.Var) \
            and e.callee.name in funs:
        cost += static_steps(funs[e.callee.name], funs, core)
    return cost


def audit_cost(program, core) -> float:
    """Static steps of the entry function times the program's node count.

    Audited evaluation re-infers the whole term after every step, so its
    cost follows steps x term size.
    """
    funs = {d.name: d.body for d in program.decls
            if isinstance(d, core.FunDecl)}
    entry = [d for d in program.decls if isinstance(d, core.FunDecl)][-1]
    nodes = sum(expr_size(b, core) for b in funs.values())
    return nodes * static_steps(entry.body, funs, core)


def generated(gen, cfg, seeds: Iterable[int]) -> Iterator[tuple[int, object]]:
    for s in seeds:
        yield s, gen.generate_well_typed(replace(cfg, seed=s))


def reference_shares(measure: Callable, factor: float, cfg, mods) -> dict:
    counts: Counter = Counter()
    for s, program in generated(mods.gen, cfg, range(
            REFERENCE_SEED, REFERENCE_SEED + REFERENCE_SIZE)):
        counts[bin_of(measure(program), factor)] += 1
    return {b: round(c / REFERENCE_SIZE, 5) for b, c in sorted(counts.items())}


if __name__ == "__main__":
    from run import import_beepl
    mods = import_beepl()
    packets = mods.gen.GenConfig(bytes_match=True, externals=True)
    chars = lambda p: len(mods.frontend.print_program(p))  # noqa: E731
    print("COMPILE_SHARES =", reference_shares(
        chars, COMPILE_FACTOR, packets, mods))
    print("AUDIT_SHARES =", reference_shares(
        lambda p: audit_cost(p, mods.core), AUDIT_FACTOR, packets, mods))
    print("DIFFERENTIAL_SHARES =", reference_shares(
        chars, COMPILE_FACTOR, mods.gen.GenConfig(), mods))
