"""Smoke test of the benchmark harness at a tiny case count.

Runs every workload of BENCHMARK.json with ``--smoke`` (12-case fuzz
sessions, one-step training, one set-up), untraced and traced, and
checks that each run exits 0, passes its correctness checks and reports
exactly the metric names and units BENCHMARK.json lists for its mode.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, "%s trace=%d exited %d:\n%s%s" % (
        workload, trace, proc.returncode, proc.stdout, proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_outputs_match_benchmark_json():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            out = _run(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] is True
            assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, "%s trace=%d: %s" % (workload, trace, sorted(set(got) ^ set(want)))
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
            print("smoke: %s trace=%d: ok" % (workload, trace))


if __name__ == "__main__":
    test_outputs_match_benchmark_json()
