"""Compare the C backend's output between two checkouts.

Emits eBPF and host C, in each checkout's own src/, for the corpus, for
GenConfig seeds 0-299 (or --seeds N), plain and with packets and helpers,
and for five written programs with what neither of those has: externs (one
unit-typed), a bool global, integer, bool and option entry parameters, and
a unit entry point.  Checks that every unit is identical: the C text and the
guarded_ops and const_safe_ops counts.  A program the checker rejects, or
one the backend cannot emit, is compared by its error.

    python3 tools/compare_c.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N]

Prints how many units differ in each mode (and how many checker verdicts
differ), then the first difference as a unified diff, and exits 0 when the
results are identical and 1 otherwise.
"""

import argparse
import difflib
import sys
from pathlib import Path

from checkout import dump

DUMP = r"""
import json, sys, time
from beepl.cgen import emit_program
from beepl.driver import CORPUS_DIR, load_corpus
from beepl.frontend import parse_program
from beepl.gen import GenConfig, generate_well_typed
from beepl.typecheck import TypeCheckError, check_program

WRITTEN = [
    "extern fun probe(int, long) : int, <io>;\n"
    "extern fun note(int) : unit, <io>;\n"
    "fun main() : int, <io> { let _ : unit = note(1) in probe(2, 3L) + 5 }",
    "global flag : bool = true; fun main() : int { if flag then 3 else 4 }",
    "fun main(int a, long b, bool c) : int { "
    "if c then 1 else a + (int) b + 7 }",
    "fun main(option(int*) p) : int { "
    "match p with | pnone => 11 | psome q => !q }",
    "fun main() : unit { let x : int* = ref(1) in x := 2 }",
]

programs = [(path.name, lambda name=path.name: load_corpus(name))
            for path in sorted(CORPUS_DIR.glob("*.bpl"))]
for extras in (False, True):
    for seed in range(int(sys.argv[1])):
        cfg = GenConfig(seed=seed, bytes_match=extras, externals=extras)
        programs.append((f"seed {seed}" + " packets" * extras,
                         lambda cfg=cfg: generate_well_typed(cfg)))
programs += [(f"written {k}", lambda src=src: parse_program(src))
             for k, src in enumerate(WRITTEN)]
units, emit_s = [], 0.0
for name, make in programs:
    try:
        tp = check_program(make())
    except TypeCheckError as exc:
        units.append({"id": name, "rejected": str(exc)})
        continue
    for mode in ("ebpf", "host"):
        t0 = time.perf_counter()
        try:
            cu = emit_program(tp, mode)
            unit = {"text": cu.text, "guarded_ops": cu.guarded_ops,
                    "const_safe_ops": cu.const_safe_ops}
        except Exception as exc:
            unit = {"error": f"{type(exc).__name__}: {exc}"}
        emit_s += time.perf_counter() - t0
        units.append({"id": f"{name} {mode}", **unit})
print(json.dumps({"units": units, "emit_s": emit_s}))
"""


def first_difference(a: dict, b: dict) -> str:
    """The counts that differ, then a diff of the text (or the errors)."""
    lines = [f"  {k}: {a.get(k)} / {b.get(k)}"
             for k in ("id", "guarded_ops", "const_safe_ops", "rejected",
                       "error") if a.get(k) != b.get(k)]
    diff = difflib.unified_diff(a.get("text", "").splitlines(),
                                b.get("text", "").splitlines(),
                                "old", "new", lineterm="", n=2)
    return "\n".join(lines + [f"  {ln}" for ln in list(diff)[:60]])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--seeds", type=int, default=300)
    args = p.parse_args()
    old = dump(args.old, DUMP, args.seeds)
    new = dump(args.new, DUMP, args.seeds)
    differ = [(a, b) for a, b in zip(old["units"], new["units"]) if a != b]
    emitted = [u for u in new["units"] if "text" in u]
    ebpf = sum(a["id"].endswith(" ebpf") for a, _ in differ)
    host = sum(a["id"].endswith(" host") for a, _ in differ)
    print(f"{len(new['units'])} units, {len(emitted)} emitted, "
          f"{sum(len(u['text']) for u in emitted)} bytes of C, "
          f"{sum(u['guarded_ops'] for u in emitted)} guarded and "
          f"{sum(u['const_safe_ops'] for u in emitted)} const-safe ops; "
          f"emit time {old['emit_s']:.2f} s -> {new['emit_s']:.2f} s; "
          f"differ: {ebpf} eBPF, {host} host, "
          f"{len(differ) - ebpf - host} checker verdicts")
    if differ:
        print(first_difference(*differ[0]))
    same_count = len(old["units"]) == len(new["units"])
    return 0 if not differ and same_count else 1


if __name__ == "__main__":
    sys.exit(main())
