"""Benchmark of the BeePL toolchain in ``src/beepl``, one workload per run.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 28 --trace 0

One caller runs one program at a time (a closed loop) in whole passes over
the workload's input set while a pass still fits in ``--seconds`` from the
start of the run, set-up included, checks every output, and prints the
result as the last line of standard output: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
spends the first half of the time untraced and the second with spans around
each call into a layer, writes the spans to
``.bench_out/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics, the tracing overhead among them.  The workloads are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

from hostspeed import Clock
from spans import Probe, mean
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("core", "gen", "frontend", "typecheck", "interp", "cgen", "driver")
SETUP_REPS = 3
MIN_PASSES = 3          # a median of fewer passes lets one slow pass through
MIN_TRACED_PASSES = 2   # per half of a traced run

# (module, attribute, span name, counts taken from the result).  Names are
# bound where the caller looks them up: driver imports its helpers by name.
# A dotted attribute is a function of a module that the layer imports whole.
HOOKS = [
    ("gen", "generate_well_typed", "gen.generate_well_typed", None),
    ("driver", "generate_well_typed", "gen.generate_well_typed", None),
    ("frontend", "print_program", "frontend.print_program", None),
    ("frontend", "parse_program", "frontend.parse_program", None),
    ("typecheck", "check_program", "typecheck.check_program", None),
    ("driver", "check_program", "typecheck.check_program", None),
    ("cgen", "emit_program", "cgen.emit_program",
     lambda args, r: {"c_bytes": len(r.text)}),
    ("driver", "emit_program", "cgen.emit_program",
     lambda args, r: {"c_bytes": len(r.text)}),
    ("interp", "run_program", "interp.run_program",
     lambda args, r: {"steps": r.steps}),
    ("driver", "eval_multi", "interp.eval_multi",
     lambda args, r: {"steps": r.steps}),
    ("driver", "evaluate_with_audit", "driver.evaluate_with_audit",
     lambda args, r: {"steps": r.steps}),
    ("driver", "run_property_suite", "driver.run_property_suite", None),
    ("driver", "run_differential", "driver.run_differential", None),
    ("driver", "subprocess.run",
     lambda args: "cc.compile" if "-o" in args[0] else "cc.exec", None),
]

END_TO_END = {  # name -> unit
    "programs_per_s": "programs/s", "latency_ms_p50": "ms",
    "latency_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "c_bytes_per_program": "bytes",
}
PER_LAYER = {
    "gen.generate_ms": "ms", "frontend.print_ms": "ms",
    "frontend.parse_ms": "ms", "frontend.tokens_per_s": "tokens/s",
    "typecheck.check_ms": "ms", "cgen.emit_ms": "ms", "cgen.c_bytes": "bytes",
    "interp.eval_ms": "ms", "interp.steps": "steps",
    "interp.steps_per_s": "steps/s", "interp.peak_term_depth": "nodes",
    "driver.audit_ms": "ms", "driver.audit_over_eval": "ratio",
    "driver.differential_ms": "ms", "cc.compile_ms": "ms",
    "cc.exec_ms": "ms", "bench.trace_overhead_pct": "%",
}


class SetupError(Exception):
    pass


def import_beepl() -> SimpleNamespace:
    """Import (again) the beepl modules of this checkout's ``src``."""
    if not (SRC / "beepl" / "__init__.py").is_file():
        raise SetupError(f"no beepl package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "beepl" or m.startswith("beepl.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module("beepl." + m)
                              for m in MODULES})
    if not Path(mods.core.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"beepl imported from {mods.core.__file__}")
    return mods


def install(probe, mods, keep: tuple[str, ...], traced: bool) -> None:
    for module, attr, name, counts in HOOKS:
        key = f"{module}.{attr}"
        if not (traced or key in keep):
            continue
        owner = getattr(mods, module)
        if "." in attr:   # wrap it in a copy of the module seen by this layer
            outer, attr = attr.split(".")
            copy = ModuleType(outer)
            copy.__dict__.update(vars(getattr(owner, outer)))
            probe.patch(owner, outer, copy)
            owner = copy
        probe.hook(owner, attr, name, key if key in keep else None, counts)


def run_passes(w, mods, probe, items, until: float, min_passes: int, cc,
               clock) -> dict:
    """Whole passes over ``items``: at least ``min_passes``, and then more
    while one more, as long as the last, would end by ``until`` (a
    ``time.perf_counter()`` reading).

    Each program's time, in reference seconds (see ``hostspeed``), is the
    median of its passes, so a stall of the machine during one pass does
    not move the figures.  An operation that raises is counted as failed;
    the outputs of the others are checked."""
    if not items:
        raise SetupError(f"{w.name}: the input set is empty")
    times: list[list[float]] = [[] for _ in items]
    raw: list[list[float]] = [[] for _ in items]
    first: list = [None] * len(items)   # (item, output, kept) per program
    failed = passes = 0
    errors: list[str] = []     # wrong outputs
    failures: list[str] = []   # operations that raised
    while True:
        pass_start = time.perf_counter()
        for i, item in enumerate(items):
            for calls in probe.kept.values():
                calls.clear()
            factor = clock.factor()
            with probe.program(item.id):
                t0 = time.perf_counter()
                try:
                    out = w.op(mods, item, cc)
                    ok = True
                except Exception as exc:  # a failed operation is counted
                    ok = False
                    failed += 1
                    failures.append(f"{item.id}: {type(exc).__name__}: "
                                    f"{exc}")
                dt = time.perf_counter() - t0
            raw[i].append(dt)
            times[i].append(dt * factor)
            if not ok:
                continue
            kept = {k: list(v) for k, v in probe.kept.items()}
            error = w.check(mods, item, out, kept)
            if error:
                errors.append(error)
            if first[i] is None:
                first[i] = (item, out, kept)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now + (now - pass_start) > until:
            break
    per_program = [statistics.median(t) for t in times]
    return {"per_program": per_program,
            "programs_per_s": len(items) / sum(per_program),
            "raw_programs_per_s": len(items) / sum(
                statistics.median(t) for t in raw),
            "passes": passes, "attempted": passes * len(items),
            "failed": failed, "errors": errors, "failures": failures,
            "done": [f for f in first if f is not None]}


def p90(values) -> float:
    """The 90th percentile by ``statistics.quantiles``."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def plain_run(w, args, cc, tmp: Path) -> dict:
    start = time.perf_counter()
    setup_clock = Clock()
    setups = []
    for _ in range(SETUP_REPS):
        factor = setup_clock.factor()
        t0 = time.perf_counter()
        mods = import_beepl()
        items = w.build(mods, args.seed, ROOT)
        setups.append((time.perf_counter() - t0) * factor)
    probe = Probe()
    install(probe, mods, w.keep, traced=False)
    clock = Clock()
    res = run_passes(w, mods, probe, items, start + args.seconds, MIN_PASSES,
                     cc, clock)
    c_bytes, errs = w.finish(mods, probe, res["done"], cc, tmp)
    probe.unhook()
    lat = res["per_program"]
    metrics = {
        "programs_per_s": res["programs_per_s"],
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_p90": p90(lat) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "c_bytes_per_program": c_bytes,
    }
    print(f"{w.name}: {len(items)} programs x {res['passes']} passes, "
          f"setup runs {[round(s, 3) for s in setups]}, host speed "
          f"{clock.speed():.3f}, unscaled {res['raw_programs_per_s']:.2f} "
          "programs/s", file=sys.stderr)
    return _result(res, errs, metrics, END_TO_END)


def traced_run(w, args, cc, tmp: Path) -> dict:
    start = time.perf_counter()
    clock = Clock()
    mods = import_beepl()
    probe = Probe()
    probe.tracing = True
    install(probe, mods, w.keep, traced=True)
    with probe.program("setup"):
        items = w.build(mods, args.seed, ROOT)
    probe.unhook()

    probe.tracing = False
    install(probe, mods, w.keep, traced=False)
    plain = run_passes(w, mods, probe, items, start + args.seconds / 2,
                       MIN_TRACED_PASSES, cc, clock)
    probe.unhook()

    probe.tracing = True
    install(probe, mods, w.keep, traced=True)
    traced = run_passes(w, mods, probe, items, start + args.seconds,
                        MIN_TRACED_PASSES, cc, clock)
    _, errs = w.finish(mods, probe, traced["done"], cc, tmp)
    probe.tracing = False
    depths = [peak_term_depth(mods, tp, world)
              for tp, world in w.evaluated(mods, traced["done"])]
    probe.unhook()
    path = OUT / f"trace-{w.name}-{args.seed}.jsonl"
    probe.write(path)

    speed = clock.speed()   # span durations are raw; metrics are scaled

    def ms(name):
        return mean(s["dur_ms"] for s in probe.named(name)) * speed

    interp = probe.layer_roots("interp")
    interp_ms = sum(s["dur_ms"] for s in interp) * speed
    eval_ms = interp_ms / len(interp) if interp else 0.0
    steps = sum(s.get("steps", 0) for s in interp)
    parse_ms = ms("frontend.parse_program")
    audit_ms = ms("driver.evaluate_with_audit")
    tokens = mean(len(mods.frontend.tokenize(i.src)) for i in items if i.src)
    pps_plain = plain["programs_per_s"]
    pps_traced = traced["programs_per_s"]
    metrics = {
        "gen.generate_ms": ms("gen.generate_well_typed"),
        "frontend.print_ms": ms("frontend.print_program"),
        "frontend.parse_ms": parse_ms,
        "frontend.tokens_per_s": tokens / parse_ms * 1e3 if parse_ms else 0.0,
        "typecheck.check_ms": ms("typecheck.check_program"),
        "cgen.emit_ms": ms("cgen.emit_program"),
        "cgen.c_bytes": mean(s["c_bytes"]
                             for s in probe.named("cgen.emit_program")),
        "interp.eval_ms": eval_ms,
        "interp.steps": steps / len(interp) if interp else 0.0,
        "interp.steps_per_s": steps / interp_ms * 1e3 if interp_ms else 0.0,
        "interp.peak_term_depth": mean(depths),
        "driver.audit_ms": audit_ms,
        "driver.audit_over_eval":
            audit_ms / eval_ms if audit_ms and eval_ms else 0.0,
        "driver.differential_ms": ms("driver.run_differential"),
        "cc.compile_ms": ms("cc.compile"),
        "cc.exec_ms": ms("cc.exec"),
        "bench.trace_overhead_pct": 100 * (1 - pps_traced / pps_plain),
    }
    print(f"{w.name}: untraced {pps_plain:.2f} programs/s, traced "
          f"{pps_traced:.2f} programs/s, host speed {speed:.3f}, "
          f"{len(probe.spans)} spans in {path}", file=sys.stderr)
    both = {k: plain[k] + traced[k]
            for k in ("attempted", "failed", "errors", "failures")}
    return _result(both, errs, metrics, PER_LAYER)


def peak_term_depth(mods, tp, world) -> int:
    """Deepest term the interpreter reaches, via ``run_program``'s hook."""
    children = mods.core.expr_children
    peak = 0

    def depth(e) -> int:
        return 1 + max((depth(c) for c in children(e)), default=0)

    def on_step(state, expr, rule):
        nonlocal peak
        peak = max(peak, depth(expr))

    mods.interp.run_program(tp, world, on_step=on_step)
    return peak


def _result(res, errs, metrics, units) -> dict:
    errors = res["errors"] + errs
    for e in res["failures"][:10]:
        print(f"operation failed: {e}", file=sys.stderr)
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        mods = import_beepl()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)   # cc's temporaries stay in the checkout
    tempfile.tempdir = str(tmp)
    cc = mods.driver.find_cc()
    if cc is None:
        print("error: no C compiler (cc, gcc or clang) found", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    result = (traced_run if args.trace else plain_run)(w, args, cc, tmp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
