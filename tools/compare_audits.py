"""Compare evaluate_with_audit results between two checkouts.

Runs the audit on GenConfig seeds 0-599 (or --seeds N), plain and with
packets and helpers, under world_for_seed, in each checkout's own src/, and
checks that every run's violations, step count and value are identical.

    python3 tools/compare_audits.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N]

Exits 0 when the results are identical and 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DUMP = r"""
import json, sys, time
from beepl.driver import evaluate_with_audit, world_for_seed
from beepl.gen import GenConfig, generate_well_typed
from beepl.typecheck import TypeCheckError, check_program

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
        t0 = time.perf_counter()
        audit = evaluate_with_audit(tp, world_for_seed(seed))
        audit_s += time.perf_counter() - t0
        runs.append([extras, seed, audit.violations, audit.steps,
                     repr(audit.value)])
print(json.dumps({"runs": runs, "audit_s": audit_s}))
"""


def dump(checkout: Path, seeds: int) -> dict:
    out = subprocess.run([sys.executable, "-c", DUMP, str(seeds)],
                         cwd=checkout,
                         env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--seeds", type=int, default=600)
    args = p.parse_args()
    old, new = dump(args.old, args.seeds), dump(args.new, args.seeds)
    differ = [(a, b) for a, b in zip(old["runs"], new["runs"]) if a != b]
    audited = [r for r in new["runs"] if r[2] != "rejected"]
    print(f"{len(new['runs'])} runs, {len(audited)} audited, "
          f"{sum(r[3] for r in audited)} steps, "
          f"{sum(bool(r[2]) for r in audited)} with violations; "
          f"audit time {old['audit_s']:.2f} s -> {new['audit_s']:.2f} s; "
          f"{len(differ)} differ")
    for a, b in differ[:5]:
        print(f"  old {a}\n  new {b}")
    return 0 if not differ and len(old["runs"]) == len(new["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
