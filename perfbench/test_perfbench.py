"""Tests of the benchmark itself, each workload on a tiny slice.

Run from the checkout root: python -m pytest perfbench -q
"""

import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SLICE = 3


@functools.lru_cache(maxsize=None)
def bench(workload, trace, repeat=0):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--slice", str(SLICE)]
    r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_and_finite(workload, trace, section):
    out = bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= SLICE
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "value")]
    first, second = bench(workload, 1), bench(workload, 1, repeat=1)
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}


def test_failed_frac_counts_against_attempted(monkeypatch):
    sys.path[:0] = [str(HERE)]
    import run

    run.load_program()
    import harness
    import workloads

    ids = [item.id for item in workloads.ConvertVerify(None, 3).pass_items(0)[:5]]
    check, execute = workloads.ConvertVerify.check, workloads.ConvertVerify.run

    def failing_check(self, item, out):
        return item.id != ids[1] and check(self, item, out)

    def raising_run(self, item, wrap):
        if item.id == ids[3]:
            raise RuntimeError("injected")
        return execute(self, item, wrap)

    monkeypatch.setattr(workloads.ConvertVerify, "check", failing_check)
    monkeypatch.setattr(workloads.ConvertVerify, "run", raising_run)
    res = harness.run_workload("convert_verify", 3, 1, False, ROOT, slice_items=5)
    assert (res["attempted"], res["failed"]) == (5, 2)
    assert res["failed_frac"] == 2 / 5
    assert {f["item"] for f in res["failures"]} == {ids[1], ids[3]}


def test_tail_is_highest_percentile_with_ten_beyond():
    sys.path[:0] = [str(HERE)]
    import harness

    lat = [float(x) for x in range(1, 41)]
    assert harness.tail(lat) == (30.0, 75.0, 40)
    assert harness.tail(lat[:7]) == (7.0, 100.0, 7)
