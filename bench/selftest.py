"""Self-test of the benchmark harness.

usage, from the repository root:
    python3 bench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all three by default):
  * one untraced run must print exactly the end_to_end metrics of
    BENCHMARK.json and pass every output check;
  * two traced runs with the same seed must print exactly the per_layer
    metrics, pass every check (traced outputs equal to untraced ones,
    pinned counts), and agree exactly on every work count.
Finally the harness must refuse to run, with a non-zero exit and no result,
in a copy holding only BENCHMARK.json and bench/.

Takes about five minutes; exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("lp.rows", "lp.cols", "core.vertices_settled", "slash.edges_materialized",
         "laakso.cycles_enumerated", "serialization.bytes_read",
         "serialization.bytes_written")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(doc)}")
    if not doc["correct"] or doc["failed"]:
        raise AssertionError(f"checks failed: {proc.stdout[-3000:]}")
    return doc


def names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


def check_workload(workload: str, seed: int) -> None:
    plain = result(run(workload, seed, 0))
    assert list(plain["metrics"]) == names("end_to_end"), plain["metrics"].keys()
    traced = [result(run(workload, seed, 1)) for _ in range(2)]
    for doc in traced:
        assert list(doc["metrics"]) == names("per_layer"), doc["metrics"].keys()
    exact = [name for name in names("per_layer")
             if name.endswith(".calls") or name in EXACT]
    a, b = (doc["metrics"] for doc in traced)
    differ = [n for n in exact if a[n]["value"] != b[n]["value"]]
    assert not differ, f"counts differ between traced runs: {differ}"
    print(f"{workload}: ok ({len(exact)} exact counts repeat)", flush=True)


def check_bare_copy() -> None:
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("powers", 1, 0, cwd=bare)
        assert proc.returncode != 0, "harness ran without src/"
        assert '"correct"' not in proc.stdout, "harness printed a result without src/"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare copy: refused", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    for workload in args.workloads:
        check_workload(workload, args.seed)
    check_bare_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main())
