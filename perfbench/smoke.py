"""Smoke test of the benchmark at toy size; run from the repository root:

    python3 perfbench/smoke.py

For every workload, untraced and traced, it asserts that run.py exits 0,
passes its own correctness checks, and emits exactly the metrics that
BENCHMARK.json declares, as finite numbers. On the traced runs the self
times of the layer and op spans under each train_step and generate call
must account for those calls' measured time within 10%. Last, a
directory holding only BENCHMARK.json and perfbench/ must make run.py
fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(spec, workload, trace):
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    failures = json.loads(out.stdout.splitlines()[-2])["report"]["failures"]
    assert result["correct"] and result["failed"] == 0, failures
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == declared, set(result["metrics"]) ^ declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace:
        accounted = result["metrics"]["trace.accounted_frac"]["value"]
        assert 0.9 <= accounted <= 1.1, accounted
    print("ok  %-17s trace=%d  attempted=%d" % (workload, trace, result["attempted"]))


def check_bare_directory():
    bare = HERE / "_work" / ("bare-%d" % os.getpid())
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        out = run(bare, "generate", 0)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0, "run.py succeeded without the package source"
    assert '"metrics"' not in out.stdout, out.stdout
    print("ok  bare directory fails with exit code %d" % out.returncode)


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
