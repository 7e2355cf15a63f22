"""Scaling timings to a reference host speed.

The benchmark's machine is shared.  Its speed for a fixed piece of Python
work drifts by up to 35% within a minute, and CPU time drifts with wall time,
so raw timings of the same code spread by 20-30% from run to run.  The
benchmark therefore times a fixed pure-Python loop (``calibrate``) between
pieces of work, once ``EVERY_S`` seconds have passed since the last time,
and reports each timing scaled by ``REFERENCE_S / calibration``: the time
the work would take on a host where the loop takes ``REFERENCE_S``.
Measured side by side in 3 s windows for 100 s, compile work (parse, check,
emit) varied by 6.4% and audit work by 7.1% (coefficient of variation);
divided by the loop's time, by 2.9% and 3.7%.

The loop uses no ``beepl`` code, so a change to the toolchain moves the
scaled figures as much as the raw ones.  It allocates no cycles and runs
with the cyclic garbage collector paused, so the size of the program's heap
does not reach it.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 1.35e-3   # the loop's median time on the development machine
EVERY_S = 0.2
WINDOW = 5              # calibrations in the running median


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op: int, kids: tuple) -> None:
        self.op = op
        self.kids = kids


def _build(n: int, depth: int) -> _Node:
    if depth == 0:
        return _Node(n % 7, ())
    return _Node(n % 5, tuple(_build(n * 31 + i, depth - 1) for i in range(3)))


def _walk(t: _Node) -> int:
    if not t.kids:
        return t.op
    vals = [_walk(k) for k in t.kids]
    if t.op % 2:
        return sum(vals) * (t.op + 1) % 1_000_003
    return max(vals) - min(vals) + t.op


_TREE = _build(1, 6)   # 1093 nodes


def calibrate() -> float:
    """Seconds the reference loop takes now: median of three runs."""
    runs = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(3):
                _walk(_TREE)
            runs.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(runs)


class Clock:
    """Times work in reference seconds, calibrating as time goes by."""

    def __init__(self) -> None:
        self.calibrations: list[float] = []
        self._last = float("-inf")

    def factor(self) -> float:
        """The reference time over the running median of the last
        ``WINDOW`` calibrations, calibrating again if due."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.calibrations.append(calibrate())
            self._last = time.perf_counter()
        return REFERENCE_S / statistics.median(
            self.calibrations[-WINDOW:])

    def speed(self) -> float:
        """Host speed over the run, relative to the reference (1 = same)."""
        return REFERENCE_S / statistics.median(self.calibrations)
