"""Compare the parser's output between two checkouts.

Parses, in each checkout's own src/, the corpus, the printed programs of
GenConfig seeds 0-299 (or --seeds N), plain and with packets and helpers,
and four text mutants of each corpus file and of seeds 0-59 (or --mutants
M) of both kinds: one with a token deleted, one with a token duplicated,
one with a token replaced and one with a character inserted.  For a program
that parses it dumps the printed program and each node's (line, col, start,
end) in preorder; for one that does not, the diagnostic's code, line,
column and message.

    python3 tools/compare_parse.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N]
                                   [--mutants M]

Prints the first differences and exits 0 when the dumps are identical and 1
otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

from checkout import dump

DUMP = r"""
import json, random, re, sys, time
from beepl.core import Expr, expr_children
from beepl.driver import CORPUS_DIR
from beepl.frontend import FrontendError, parse_program, print_program
from beepl.gen import GenConfig, generate_well_typed

# Mutation sees words, numbers, comments, strings and single characters,
# whatever the lexer under test makes of them.
TOKEN = re.compile(r'//[^\n]*|"[^"\n]*"?|\w+|\S')
# Replacements and insertions that reach each lexer and parser error.
ODD_TOKENS = ["$", '"', '"x', "0x", "0XL", "__bpl_x", "99999999999999999999",
              "5L", "é", "²", "٣", "x'", "_", "...", ":=", "=>",
              "|", "let", "in", "fun", "#", "//"]
ODD_CHARS = list(" \n\t\r\"$/_0xL(){}[];,:|#'é²") + ["٣"]


def mutants(text, rng):
    spots = [m.span() for m in TOKEN.finditer(text)]
    a, b = rng.choice(spots)
    c, d = rng.choice(spots)
    new = rng.choice([text[c:d]] * 3 + ODD_TOKENS)
    at = rng.randrange(len(text) + 1)
    return [text[:a] + text[b:], text[:b] + " " + text[a:],
            text[:a] + new + text[b:],
            text[:at] + rng.choice(ODD_CHARS) + text[at:]]


def spans(p):
    # Every declaration and expression node in preorder, as the class name
    # and the span's (line, col, start, end).
    out = []

    def node(x):
        s = x.span
        out.append([type(x).__name__,
                    s and [s.line, s.col, s.start, s.end]])

    def walk(e):
        node(e)
        for c in expr_children(e):
            walk(c)

    for d in p.decls:
        node(d)
        s = getattr(d, "init_span", None)
        out.append(s and [s.line, s.col, s.start, s.end])
        for e in (getattr(d, "body", None), getattr(d, "init", None)):
            if isinstance(e, Expr):
                walk(e)
    return out


def parse(text):
    try:
        p = parse_program(text)
    except FrontendError as exc:
        d = exc.diagnostic
        return {"error": [d.code, d.span.line, d.span.col, d.message]}
    except Exception as exc:
        return {"exception": f"{type(exc).__name__}: {exc}"}
    return {"printed": print_program(p), "spans": spans(p)}


seeds, n_mutants = int(sys.argv[1]), int(sys.argv[2])
sources = [(path.name, path.read_text(), True)
           for path in sorted(CORPUS_DIR.glob("*.bpl"))]
for extras in (False, True):
    for seed in range(seeds):
        cfg = GenConfig(seed=seed, bytes_match=extras, externals=extras)
        sources.append((f"seed {seed}" + " packets" * extras,
                        print_program(generate_well_typed(cfg)),
                        seed < n_mutants))
inputs = []
for name, text, mutate in sources:
    inputs.append((name, text))
    if mutate:
        for i, m in enumerate(mutants(text, random.Random(name))):
            inputs.append((f"{name} mutant {i}", m))
parse_s, dumps = 0.0, []
for name, text in inputs:
    t0 = time.perf_counter()
    out = parse(text)
    parse_s += time.perf_counter() - t0
    dumps.append({"id": name, **out})
print(json.dumps({"dumps": dumps, "parse_s": parse_s}))
"""


def first_difference(a: dict, b: dict) -> str:
    """The diagnostic, the printed text or the first node span that
    differs."""
    for key in ("exception", "error", "printed"):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r:.300} / {b.get(key)!r:.300}"
    for i, (x, y) in enumerate(zip(a["spans"], b["spans"])):
        if x != y:
            return f"node {i}: {x} / {y}"
    return f"{len(a['spans'])} / {len(b['spans'])} nodes"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--seeds", type=int, default=300)
    p.add_argument("--mutants", type=int, default=60,
                   help="mutate the corpus and the first M seeds of each "
                        "kind, four mutants each")
    args = p.parse_args()
    old = dump(args.old, DUMP, args.seeds, args.mutants)
    new = dump(args.new, DUMP, args.seeds, args.mutants)
    pairs = list(zip(old["dumps"], new["dumps"]))
    differ = [(a, b) for a, b in pairs if a != b]
    parsed = [d for d in new["dumps"] if "printed" in d]
    codes: dict[str, int] = {}
    for d in new["dumps"]:
        key = d["error"][0] if "error" in d else d.get("exception", "ok")
        codes[key] = codes.get(key, 0) + 1
    print(f"{len(new['dumps'])} inputs, {len(parsed)} parsed, "
          f"{sum(len(d['spans']) for d in parsed)} spans; outcomes "
          f"{json.dumps(codes, sort_keys=True)}; parse time "
          f"{old['parse_s']:.2f} s -> {new['parse_s']:.2f} s; "
          f"{len(differ)} differ")
    for a, b in differ[:5]:
        print(f"  {a['id']}: {first_difference(a, b)}")
    same_count = len(old["dumps"]) == len(new["dumps"])
    return 0 if not differ and same_count else 1


if __name__ == "__main__":
    sys.exit(main())
