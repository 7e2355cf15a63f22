"""Spans around calls into the beepl modules, recorded from the benchmark.

A ``Probe`` replaces chosen module attributes (public functions of
``beepl.gen``, ``beepl.frontend`` and so on, as bound in the module that
calls them) with wrappers.  With tracing on, each call becomes a span: name,
layer, program id, parent span, start and duration, plus counts taken from
the result after the clock stops.  Independently of tracing, a wrapper can
keep each call's arguments and result, which is how the benchmark checks
outputs that the public entry points do not return (the value computed by
``evaluate_with_audit`` inside ``run_property_suite``, for instance).

Spans stay in memory and are written out as JSON lines at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Union


class Probe:
    def __init__(self) -> None:
        self.tracing = False
        self.spans: list[dict] = []
        self.kept: dict[str, list[tuple[tuple, object]]] = {}
        self._stack: list[dict] = []
        self._program: Optional[str] = None
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def hook(self, owner, attr: str, name: Union[str, Callable[[tuple], str]],
             keep: Optional[str] = None,
             counts: Optional[Callable[[tuple, object], dict]] = None):
        """Wrap ``owner.attr``.  Spans are called ``name``, a
        ``<layer>.<function>``, or what ``name(args)`` returns, and kept
        calls are listed under ``keep``."""
        orig = getattr(owner, attr)
        if keep:
            self.kept.setdefault(keep, [])

        def wrapper(*args, **kwargs):
            if not self.tracing:
                result = orig(*args, **kwargs)
            else:
                with self.span(name if isinstance(name, str)
                               else name(args)) as rec:
                    result = orig(*args, **kwargs)
                if counts is not None:
                    rec.update(counts(args, result))
            if keep:
                self.kept[keep].append((args, result))
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``unhook``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unhook(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    @contextmanager
    def program(self, program_id: str):
        """Root span of one program; nested spans carry its id."""
        outer = self._program
        self._program = program_id
        try:
            with self.span("bench.program"):
                yield
        finally:
            self._program = outer

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name,
               "layer": name.split(".", 1)[0], "program": self._program,
               "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["start_ms"] = (start - self._t0) * 1e3
            rec["dur_ms"] = (end - start) * 1e3

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- aggregation ------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def layer_roots(self, layer: str) -> list[dict]:
        """Spans of ``layer`` that no span of the same layer encloses."""
        by_id = {s["id"]: s for s in self.spans}
        return [s for s in self.spans if s["layer"] == layer and (
            by_id.get(s["parent"]) is None
            or by_id[s["parent"]]["layer"] != layer)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
