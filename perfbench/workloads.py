"""The four workloads: input sets, the timed operation, and output checks.

Each workload builds a fixed input set from the seed (``build``), runs one
program at a time through the same functions a ``beeplc`` command calls
(``op``), checks each output after the clock stops (``check``), and once per
run measures and checks what needs more than the timed operation returns
(``finish``).  ``keep`` names the calls made inside the operation whose
arguments and results the checks need; they are kept in untraced runs too,
and handed to the checks per program, as ``{name: [(args, result), ...]}``.
"""

from __future__ import annotations

import itertools
import random
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import strata
from spans import mean

CORPUS_VERDICTS = {  # file -> expected TypeCheckError code, None = accepted
    "bprog1.bpl": None, "bprog2.bpl": "DerefOfOption", "bprog3.bpl": None,
    "bprog4.bpl": None, "shift64.bpl": None,
}
SYNTAX_SAMPLE = 4   # emitted eBPF C files per run checked by cc -fsyntax-only


@dataclass
class Item:
    id: str
    seed: int = 0
    src: str = ""
    program: Any = None      # compile: the generated AST, for the round trip
    expect: Any = None       # compile: verdict; loops: oracle value


class Workload:
    name = ""
    keep: tuple[str, ...] = ()   # "<module>.<attr>" calls the checks read

    def build(self, mods, seed: int, root: Path) -> list[Item]:
        raise NotImplementedError

    def op(self, mods, item: Item, cc: Optional[str]):
        raise NotImplementedError

    def check(self, mods, item: Item, out, kept) -> Optional[str]:
        """What is wrong with one operation's output, if anything."""
        return None

    def finish(self, mods, probe, done, cc, tmp: Path
               ) -> tuple[float, list[str]]:
        """Returns the mean eBPF C size of the set and any check errors.

        ``done`` holds ``(item, output, kept)`` of each program's first
        operation that did not raise."""
        raise NotImplementedError

    def evaluated(self, mods, done) -> list:
        """(typed program, world) pairs for the peak-depth measurement."""
        return []


def _gen_cfg(mods):
    return mods.gen.GenConfig(bytes_match=True, externals=True)


def _ebpf_bytes(mods, tps) -> float:
    return mean(len(mods.cgen.emit_program(tp, "ebpf").text) for tp in tps)


def _once(kept, key):
    """The (args, result) of the one kept call ``key``; None unless the
    operation made exactly one such call."""
    calls = kept.get(key, [])
    return calls[0] if len(calls) == 1 else None


# ---------------------------------------------------------------------------
# compile: source text -> parse -> check -> eBPF C, as `beeplc emit-c`
# ---------------------------------------------------------------------------

class Compile(Workload):
    name = "compile"
    size = 300

    def build(self, mods, seed, root):
        cfg = _gen_cfg(mods)
        pf = mods.frontend.print_program
        cands = ((s, p, pf(p)) for s, p in strata.generated(
            mods.gen, cfg, itertools.count(seed * 100_000)))
        picked = strata.ladder(cands, lambda c: len(c[2]),
                               strata.COMPILE_SHARES, strata.COMPILE_FACTOR,
                               self.size, draws=2 * self.size)
        items = [Item(f"g{s}", s, src, p) for s, p, src in picked]
        corpus = root / "src" / "beepl" / "corpus"
        for fname, verdict in CORPUS_VERDICTS.items():
            items.append(Item(f"corpus/{fname}",
                              src=(corpus / fname).read_text(),
                              expect=verdict))
        return items

    def op(self, mods, item, cc):
        program = mods.frontend.parse_program(item.src, item.id)
        try:
            tp = mods.typecheck.check_program(program)
        except mods.typecheck.TypeCheckError as exc:
            return exc.code, program, None
        return None, program, mods.cgen.emit_program(tp, "ebpf").text

    def check(self, mods, item, out, kept):
        verdict, program, text = out
        if verdict != item.expect:
            return f"{item.id}: verdict {verdict}, expected {item.expect}"
        if item.program is not None and program != item.program:
            return f"{item.id}: parse(print(p)) != p"
        if verdict is None and not text:
            return f"{item.id}: empty C output"
        return None

    def finish(self, mods, probe, done, cc, tmp):
        texts = [(item, text) for item, (_, _, text), _ in done if text]
        errors = []
        rng = random.Random(done[0][0].seed if done else 0)
        for item, text in rng.sample(texts, min(SYNTAX_SAMPLE, len(texts))):
            cfile = tmp / "syntax.c"
            cfile.write_text(text)
            res = subprocess.run([cc, "-std=c11", "-fsyntax-only",
                                  str(cfile)], capture_output=True, text=True)
            if res.returncode != 0:
                errors.append(f"{item.id}: cc -fsyntax-only failed: "
                              f"{res.stderr[:300]}")
        return mean(len(t) for _, t in texts), errors


# ---------------------------------------------------------------------------
# audit: run_property_suite with packet and helper programs, as `selftest`
# ---------------------------------------------------------------------------

class Audit(Workload):
    name = "audit"
    size = 400
    keep = ("driver.evaluate_with_audit",)

    def build(self, mods, seed, root):
        cfg = _gen_cfg(mods)
        picked = strata.ladder(
            strata.generated(mods.gen, cfg, itertools.count(seed * 100_000)),
            lambda c: strata.audit_cost(c[1], mods.core),
            strata.AUDIT_SHARES, strata.AUDIT_FACTOR, self.size,
            draws=2 * self.size)
        return [Item(f"s{s}", s) for s, _ in picked]

    def op(self, mods, item, cc):
        return mods.driver.run_property_suite(
            1, replace(_gen_cfg(mods), seed=item.seed))

    def check(self, mods, item, summary, kept):
        if summary.passed != 1 or summary.failures:
            return (f"{item.id}: violation "
                    f"{[r.violations[:2] for r in summary.failures]}")
        if _once(kept, "driver.evaluate_with_audit") is None:
            return f"{item.id}: evaluate_with_audit was not called once"
        return None

    def _audits(self, done):
        return [(item, audit) for item, _, kept in done
                if (audit := _once(kept, "driver.evaluate_with_audit"))]

    def finish(self, mods, probe, done, cc, tmp):
        errors = []
        audits = self._audits(done)
        for item, ((tp, *_), audit) in audits:
            with probe.program(item.id):
                plain = mods.interp.run_program(
                    tp, mods.driver.world_for_seed(item.seed))
            if (plain.value, plain.steps) != (audit.value, audit.steps):
                errors.append(f"{item.id}: audited {audit.value} in "
                              f"{audit.steps} steps, plain {plain.value} in "
                              f"{plain.steps}")
        with probe.program("c_bytes"):
            size = _ebpf_bytes(mods, [args[0] for _, (args, _) in audits])
        return size, errors

    def evaluated(self, mods, done):
        return [(args[0], mods.driver.world_for_seed(item.seed))
                for item, (args, _) in self._audits(done)]


# ---------------------------------------------------------------------------
# loops: long `for` loops through parse -> check -> run, as `beeplc run`
# ---------------------------------------------------------------------------

def wrap(v: int, bits: int) -> int:
    """Two's-complement wrap-around of ``v`` to a signed ``bits`` lane."""
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >> (bits - 1) else v


def iterations(lo: int, hi: int, up: bool) -> int:
    """Inclusive trip count of ``for (lo ... hi, Up|Down)``; empty is 0."""
    return max(0, (hi - lo if up else lo - hi) + 1)


def _lit(v: int, bits: int) -> str:
    return f"{v}L" if bits == 64 else str(v)


def _term(v: int, bits: int) -> str:
    return f"+ {_lit(v, bits)}" if v >= 0 else f"- {_lit(-v, bits)}"


def loop_program(kind: str, n: int, rng: random.Random) -> tuple[str, int]:
    """Source text of one loop template with about ``n`` iterations, and its
    value computed in Python with 32- or 64-bit wrap-around."""
    bits = 64 if kind in ("down-long", "nested-long") else 32
    ty = "long" if bits == 64 else "int"
    a = rng.randint(-1000, 1000)
    m = rng.randrange(3, 1 << (20 if bits == 32 else 40), 2)
    c = rng.randint(-10_000, 10_000)
    head = f"fun main() : {ty} {{ let x : {ty}* = ref({_lit(a, bits)}) in "
    x = a
    if kind == "up-int" or kind == "down-long":
        up = kind == "up-int"
        lo = rng.randint(-50, 50)
        hi = lo + n - 1 if up else lo - n + 1
        body = f"x := !x * {_lit(m, bits)} {_term(c, bits)}"
        src = (f"{head}let _ = for ({lo} ... {hi}, {'Up' if up else 'Down'})"
               f" {{ {body} }} in !x }}")
        for _ in range(iterations(lo, hi, up)):
            x = wrap(wrap(x * m, bits) + c, bits)
        return src, x
    if kind == "two-acc-int":
        lo = rng.randint(-50, 50)
        hi = lo - n + 1
        src = (f"{head}let y : int* = ref(1) in let _ = for ({lo} ... {hi}, "
               f"Down) {{ let _ = x := !x * {m} {_term(c, 32)} in "
               f"y := !y ^ !x }} in !y }}")
        y = 1
        for _ in range(iterations(lo, hi, False)):
            x = wrap(wrap(x * m, 32) + c, 32)
            y = wrap(y ^ x, 32)
        return src, y
    outer = 4   # fixed: the split changes the cost, not just the trip count
    inner = max(1, n // outer)
    if kind == "nested-long":
        src = (f"{head}let _ = for (1 ... {outer}, Up) {{ for ({inner} ... 1, "
               f"Down) {{ x := (!x ^ {_lit(c, 64)}) * {_lit(m, 64)} }} }} "
               f"in !x }}")
        for _ in range(iterations(1, outer, True)
                       * iterations(inner, 1, False)):
            x = wrap((x ^ c) * m, 64)
        return src, x
    # nested-int: arithmetic shift and subtraction on the 32-bit lane
    lo = rng.randint(-20, 20)
    src = (f"{head}let _ = for ({lo} ... {lo + outer - 1}, Up) {{ for (1 ... "
           f"{inner}, Up) {{ x := !x - (!x >> 3) {_term(c, 32)} }} }} "
           f"in !x }}")
    for _ in range(iterations(lo, lo + outer - 1, True)
                   * iterations(1, inner, True)):
        x = wrap(wrap(x - (x >> 3), 32) + c, 32)
    return src, x


LOOP_KINDS = ("up-int", "nested-long", "two-acc-int", "nested-int",
              "down-long")


class Loops(Workload):
    name = "loops"
    size = 24
    lo_iters, hi_iters = 20, 300

    def build(self, mods, seed, root):
        rng = random.Random(seed)
        items = []
        for k in range(self.size):
            # Slot k's iteration count is fixed up to a small jitter, so every
            # seed gives the same spread of loop lengths.
            base = self.lo_iters * (self.hi_iters / self.lo_iters) ** (
                k / max(1, self.size - 1))
            n = round(base * rng.uniform(0.97, 1.0))
            kind = LOOP_KINDS[k % len(LOOP_KINDS)]
            src, value = loop_program(kind, n, rng)
            items.append(Item(f"loop{k}-{kind}-{n}", seed, src, expect=value))
        return items

    def op(self, mods, item, cc):
        tp = mods.typecheck.check_program(
            mods.frontend.parse_program(item.src, item.id))
        return tp, mods.interp.run_program(tp)

    def check(self, mods, item, out, kept):
        value = getattr(out[1].value, "value", None)
        if value != item.expect:
            return f"{item.id}: interpreter {value}, oracle {item.expect}"
        return None

    def finish(self, mods, probe, done, cc, tmp):
        with probe.program("c_bytes"):
            return _ebpf_bytes(mods, [tp for _, (tp, _), _ in done]), []

    def evaluated(self, mods, done):
        return [(tp, None) for _, (tp, _), _ in done]


# ---------------------------------------------------------------------------
# differential: interpreter vs cc-built host C, as `beeplc selftest`
# ---------------------------------------------------------------------------

class Differential(Workload):
    name = "differential"
    size = 60
    # The checked program, the interpreter's result, and the cc and binary
    # processes (driver's subprocess.run: the compile, then the run).
    keep = ("driver.check_program", "driver.eval_multi",
            "driver.subprocess.run")

    def build(self, mods, seed, root):
        pf = mods.frontend.print_program
        picked = strata.ladder(
            strata.generated(mods.gen, mods.gen.GenConfig(),
                             itertools.count(seed * 100_000)),
            lambda c: len(pf(c[1])), strata.DIFFERENTIAL_SHARES,
            strata.COMPILE_FACTOR, self.size, draws=2 * self.size)
        return [Item(f"d{s}", s) for s, _ in picked]

    def op(self, mods, item, cc):
        return mods.driver.run_differential(
            1, mods.gen.GenConfig(seed=item.seed), cc=cc)

    def check(self, mods, item, summary, kept):
        """The binary that run_differential built prints the value that
        its interpreter run computed and exits with its low byte."""
        if summary.skipped or summary.passed != 1:
            return (f"{item.id}: "
                    f"{[r.violations[:2] for r in summary.failures]}")
        evaluated = _once(kept, "driver.eval_multi")
        procs = kept.get("driver.subprocess.run", [])
        if evaluated is None or len(procs) != 2:
            return (f"{item.id}: expected one evaluation, one cc and one "
                    f"binary run, saw {len(procs)} processes")
        value = evaluated[1].value.value
        run = procs[1][1]
        if run.stdout.split()[:1] != [str(value)] or \
                run.returncode != value & 0xFF:
            return (f"{item.id}: binary printed {run.stdout[:40]!r} exit "
                    f"{run.returncode}, interpreter {value}")
        return None

    def finish(self, mods, probe, done, cc, tmp):
        """run_differential's interpreter values equal a plain
        run_program of the same checked program."""
        errors = []
        for item, tp, value in self._evaluated(done):
            with probe.program(item.id):
                plain = mods.interp.run_program(tp)
            if plain.value != value:
                errors.append(f"{item.id}: run_differential's interpreter "
                              f"gave {value}, run_program {plain.value}")
        with probe.program("c_bytes"):
            return _ebpf_bytes(mods, [tp for _, tp, _ in
                                      self._evaluated(done)]), errors

    def evaluated(self, mods, done):
        return [(tp, None) for _, tp, _ in self._evaluated(done)]

    def _evaluated(self, done):
        """(item, checked program, interpreter value) of each operation
        that made its one check and evaluation; ``check`` reports others."""
        out = []
        for item, _, kept in done:
            checked = _once(kept, "driver.check_program")
            evaluated = _once(kept, "driver.eval_multi")
            if checked and evaluated:
                out.append((item, checked[1], evaluated[1].value))
        return out


WORKLOADS = {w.name: w for w in (Compile(), Audit(), Loops(), Differential())}
