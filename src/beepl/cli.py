"""beeplc command line: check, run, emit-c and selftest.

Exit codes: 0 ok, 1 diagnostics, 2 property violation, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cgen import emit_program
from .core import (
    BytesView, ConstBool, ConstInt, ConstLong, Loc, Repeat, Seq, Var,
    expr_children, with_children,
)
from .driver import (
    run_cve_corpus, run_differential, run_property_suite,
)
from .frontend import FrontendError, parse_program, print_expr
from .gen import GenConfig, expr_size
from .interp import (
    DEFAULT_FUEL, ExternalWorld, InterpError, StuckState, run_program,
)
from .typecheck import TypeCheckError, check_program

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="beeplc",
                description="BeePL checker, interpreter and C backend")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse and type-check a .bpl file")
    c.add_argument("file")
    c.add_argument("--json", action="store_true",
                   help="emit diagnostics as a JSON array")

    r = sub.add_parser("run", help="evaluate a program in the interpreter")
    r.add_argument("file")
    r.add_argument("--entry", default=None,
                   help="entry function (default: main or the flagged one)")
    r.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL)
    r.add_argument("--trace", action="store_true",
                   help="print per step the rule name, the class of the "
                        "whole resulting term and the block count")
    r.add_argument("--json", action="store_true",
                   help="with --trace, write each step as a JSON object")
    r.add_argument("--packet", default=None,
                   help="hex-string file backing the packet context")

    e = sub.add_parser("emit-c", help="translate a checked program to C")
    e.add_argument("file")
    e.add_argument("-o", "--output", required=True)
    e.add_argument("--mode", choices=["ebpf", "host"], default="ebpf")

    s = sub.add_parser("selftest",
                       help="metatheory, corpus and differential suites")
    s.add_argument("--n", type=_positive_int, default=1000,
                   help="number of generated programs")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cc", default=None,
                   help="C compiler for the differential run "
                        "(or env BEEPLC_CC)")
    s.add_argument("--skip-differential", action="store_true")
    return p


def _load_checked(path: str, as_json: bool = False):
    try:
        source = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        _usage_error(f"{path} is not UTF-8 text: {exc.reason} at byte "
                     f"{exc.start}")
    try:
        program = parse_program(source, path)
        return check_program(program)
    except FrontendError as exc:
        d = exc.diagnostic
        _report([d.to_json()] if as_json else [d.render()], as_json)
        raise SystemExit(EXIT_DIAGNOSTICS)
    except TypeCheckError as exc:
        d = exc.diagnostic(path)
        _report([d.to_json()] if as_json else [d.render()], as_json)
        raise SystemExit(EXIT_DIAGNOSTICS)


def _report(items, as_json):
    if as_json:
        print(json.dumps(items, indent=2))
    else:
        for it in items:
            print(it, file=sys.stderr)


def cmd_check(args) -> int:
    _load_checked(args.file, args.json)
    if args.json:
        print("[]")
    return EXIT_OK


def _render_value(v) -> str:
    if isinstance(v, (ConstInt, ConstLong)):
        return str(v.value)
    if isinstance(v, ConstBool):
        return "true" if v.value else "false"
    return "()"  # no function returns a pointer or bytes


def cmd_run(args) -> int:
    tp = _load_checked(args.file)
    world = ExternalWorld()
    if args.packet:
        try:
            hexstr = "".join(Path(args.packet).read_text(encoding="utf-8")
                             .split())
            world.packet = bytes.fromhex(hexstr)
        except ValueError as exc:
            _usage_error(f"packet file {args.packet} does not hold hex "
                         f"bytes: {exc}")
    if args.json and not args.trace:
        _usage_error("--json goes with --trace")

    def on_event(ev) -> None:
        print(json.dumps(_trace_record(ev)) if args.json else
              f"{ev.rule:10s} {type(ev.term).__name__:12s} "
              f"blocks={len(ev.state.theta.blocks)}", file=sys.stderr)
    try:
        result = run_program(tp, world, entry=args.entry, fuel=args.fuel,
                             on_event=on_event if args.trace else None)
    except InterpError as exc:
        if args.json and isinstance(exc, StuckState):
            print(json.dumps({**_trace_record(exc.event),
                              "stuck": exc.reason}), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    print(_render_value(result.value))
    return EXIT_OK


def _trace_record(ev) -> dict:
    """A step of ``run --trace --json``, from its ``interp.StepEvent``."""
    return {"rule": ev.rule, "redex": _print_term(ev.redex), "depth": ev.depth,
            "size": expr_size(ev.term), "blocks": len(ev.state.theta.blocks)}


# The nodes that only evaluation makes have no surface syntax; a trace prints
# each as a variable named by its runtime form.
_RUNTIME_FORMS = {
    Loc: lambda e: f"<loc {e.block}+{e.offset}>",
    BytesView: lambda e: f"<bytes {e.block}+{e.offset}:{e.length}>",
    Seq: lambda e: f"<seq {'; '.join(map(_print_term, e.parts))}>",
    Repeat: lambda e: f"<repeat {e.count} {{ {_print_term(e.body)} }}>",
}


def _print_term(e) -> str:
    def forms(e):
        form = _RUNTIME_FORMS.get(type(e))
        return Var(form(e)) if form else \
            with_children(e, [forms(c) for c in expr_children(e)])
    return print_expr(forms(e))


def cmd_emit_c(args) -> int:
    tp = _load_checked(args.file)
    cu = emit_program(tp, args.mode)
    Path(args.output).write_text(cu.text)
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = 0
    corpus = run_cve_corpus()
    print(corpus.render())
    for r in corpus.failures:
        print(f"  {r.program_id}: {'; '.join(r.violations)}")
    failures += len(corpus.failures)

    cfg = GenConfig(seed=args.seed, bytes_match=True, externals=True)
    meta = run_property_suite(args.n, cfg)
    print(meta.render())
    for r in meta.failures[:5]:
        print(f"  seed {r.seed}: {'; '.join(r.violations)}")
        if r.reproducer:
            print("  reproducer:")
            for line in r.reproducer.splitlines():
                print("    " + line)
    failures += len(meta.failures)

    if args.skip_differential:
        print("[skip] differential")
    else:
        diff = run_differential(max(100, args.n // 10),
                                GenConfig(seed=args.seed + 7919),
                                cc=args.cc)
        print(diff.render())
        for r in diff.failures[:5]:
            print(f"  seed {r.seed}: {'; '.join(r.violations)}")
        failures += 0 if diff.skipped else len(diff.failures)

    return EXIT_VIOLATION if failures else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "check": cmd_check,
            "run": cmd_run,
            "emit-c": cmd_emit_c,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
