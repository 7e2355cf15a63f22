"""Tests of the benchmark itself: its loop oracle, its output format and a
tiny end-to-end run of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import LOOP_KINDS, iterations, loop_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    return run.import_beepl()


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads.Loops, "hi_iters", 40)
    for cls, n in ((workloads.Compile, 20), (workloads.Audit, 10),
                   (workloads.Loops, 3), (workloads.Differential, 12)):
        monkeypatch.setattr(cls, "size", n)


def test_oracle_trip_count_matches_range_count(mods):
    vint, up, down = (mods.core.VInt, mods.core.Direction.UP,
                      mods.core.Direction.DOWN)
    empty = 0
    for lo in range(-4, 5):
        for hi in range(-4, 5):
            assert iterations(lo, hi, True) == \
                mods.interp.range_count(vint(lo), vint(hi), up)
            assert iterations(lo, hi, False) == \
                mods.interp.range_count(vint(lo), vint(hi), down)
            empty += iterations(lo, hi, True) == 0
    assert empty > 0


@pytest.mark.parametrize("kind", LOOP_KINDS)
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_loop_oracle_matches_interpreter(mods, kind, n):
    import random
    src, expected = loop_program(kind, n, random.Random(n))
    tp = mods.typecheck.check_program(mods.frontend.parse_program(src))
    assert mods.interp.run_program(tp).value.value == expected, src


def test_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == \
        sorted(w["name"] for w in SPEC["workloads"])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _run_main(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(tiny, workload, trace):
    result = _run_main(["--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_an_operation_that_raises_is_counted_as_failed(
        tiny, monkeypatch, workload, trace):
    w = workloads.WORKLOADS[workload]
    op = type(w).op
    victim = []

    def flaky(self, mods, item, cc):
        victim[:] = victim or [item.id]
        if item.id == victim[0]:
            raise RuntimeError("injected")
        return op(self, mods, item, cc)

    monkeypatch.setattr(type(w), "op", flaky)
    result = _run_main(["--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace)])
    passes = 2 * run.MIN_TRACED_PASSES if trace else run.MIN_PASSES
    assert result["failed"] == passes
    assert result["attempted"] > result["failed"]
    # The other programs' outputs are still checked, each against its own
    # kept calls, and are right.
    assert result["correct"] is True


def test_differential_check_reads_the_binary(tiny):
    mods = run.import_beepl()
    w = workloads.WORKLOADS["differential"]
    item = w.build(mods, 3, ROOT)[0]
    probe = spans.Probe()
    run.install(probe, mods, w.keep, traced=False)
    try:
        summary = w.op(mods, item, mods.driver.find_cc())
    finally:
        probe.unhook()
    kept = {k: list(v) for k, v in probe.kept.items()}
    assert w.check(mods, item, summary, kept) is None
    procs = kept["driver.subprocess.run"]
    args, proc = procs[1]
    for wrong in (proc.returncode ^ 1, proc.stdout), \
            (proc.returncode, "7" + proc.stdout):
        procs[1] = (args, subprocess.CompletedProcess(
            proc.args, wrong[0], wrong[1], proc.stderr))
        assert "binary printed" in w.check(mods, item, summary, kept)
    del procs[1]
    assert "1 processes" in w.check(mods, item, summary, kept)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(tiny, mods, workload):
    w = workloads.WORKLOADS[workload]
    first = [(i.id, i.src) for i in w.build(mods, 5, ROOT)]
    assert first == [(i.id, i.src) for i in w.build(mods, 5, ROOT)]
    assert first != [(i.id, i.src) for i in w.build(mods, 6, ROOT)]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
