"""The benchmark's workloads: input set-up, jobs, and exact result checks.

Each workload is a closed loop of jobs run one at a time by one client.
Every job is a fresh process (`python -m slashpow.cli ...` or
`libjobs.py ...`), because every command-line user pays a cold start and no
in-process cache may carry over between jobs.

Why these three:

* `oracle` is LP-bound: one exact LP per labeled tree topology on at most 6
  vertices.  The (1,2,2,1) oracle and the lemma31 cycles differ in symmetry,
  so a symmetry quotient gains unequally on its two jobs.
* `frt` stresses the exact metric and tree layers (all-pairs Dijkstra,
  tree distances, dominating-tree sampling) with no LP and no large power.
* `powers` is slash-power materialization, lifting, cycle enumeration and
  JSON/DOT serialization, with single-source Dijkstra on one huge graph in
  the pipeline; no LP runs here.

The seed is read only by the `frt` jobs and the Cor 4.2 job.  record.py
records every job's output at RECORD_SEED from the parent commit into
expected.json.  Outputs that do not depend on the seed (the oracle values,
suite rows, output files, the frt jobs' distances) are compared with those
records on every seed; seeded outputs are checked against the paper's closed
forms and against each other, and at RECORD_SEED byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

DIAMOND = (0, 2, 2, 0)
BASE_FILE = "diamond.json"  # uniform diamond, the base of the diamond^n powers
LIB_N = 3                   # the Thm 4.1 and Cor 4.2 jobs run on diamond^3
TREES = 64                  # dominating trees drawn by the Thm 4.1 job
SELECTORS = 20              # random selectors of the Cor 4.2 job
FRT_SAMPLES = 16            # trees sampled by embed-frt on diamond^4
RECORD_SEED = 1             # the seed record.py records outputs at


def max_cycle_count(params: tuple[int, int, int, int], n: int) -> int:
    """Prop 4.1: 2^(2l((k+l+m)^(n-1)-1)/(k+l+m-1)) maximal cycles."""
    k, l, _, m = params
    r = k + l + m
    return 2 ** (2 * l * (r ** (n - 1) - 1) // (r - 1))


def max_cycle_edges(params: tuple[int, int, int, int], n: int) -> int:
    """Prop 4.1: every maximal cycle has 2l(k+l+m)^(n-1) edges."""
    k, l, _, m = params
    return 2 * l * (k + l + m) ** (n - 1)


@dataclass
class JobResult:
    """One finished job process."""

    name: str
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str
    work: Path
    digests: dict[str, str]   # output file (and "stdout") -> sha256
    sizes: dict[str, int]     # output file -> bytes

    def json(self):
        return json.loads(self.stdout)


@dataclass(frozen=True)
class Job:
    name: str
    kind: str                 # "cli" (slashpow.cli) or "lib" (libjobs.py)
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files the job writes, relative to the work dir
    check: Callable[[JobResult, Optional[dict], int], list[str]]
    # Entry recorded into expected.json at the parent commit, at RECORD_SEED.
    record: Callable[[JobResult], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[tuple[str, ...], ...]  # slashpow CLI argument lists
    jobs: tuple[Job, ...]


# ---------------------------------------------------------------- checks


def _same_json(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    if expected is None:
        return ["no recorded value"]
    return [] if res.json() == expected["stdout"] else ["stdout differs from the recorded value"]


def _record_json(res: JobResult) -> dict:
    return {"stdout": res.json()}


def _check_lemma31(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    doc = res.json()
    problems = _same_json(res, expected, seed)
    if not doc["ok"] or not all(row["passed"] for row in doc["rows"]):
        problems.append("a suite row is not PASS")
    return problems


def _same_files(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    if expected is None:
        return ["no recorded value"]
    return [f"{name} sha256 differs from the recorded value"
            for name, digest in expected["sha256"].items()
            if res.digests.get(name) != digest]


def _record_files(res: JobResult) -> dict:
    return {"sha256": {name: res.digests[name] for name in res.sizes}}


def _check_pipeline(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    problems = _same_files(res, expected, seed)
    doc = json.loads((res.work / "result.json").read_text())
    got = {key: doc[key] for key in ("n", "c0", "power_edges")}
    if expected is None or got != expected["summary"]:
        problems.append(f"pipeline summary {got} differs from the recorded value")
    # The (0,2,4,0) base has 6 edges, so the N-th power has 6^N.
    if doc["power_edges"] != 6 ** doc["n"]:
        problems.append("power edge count is not 6^n")
    return problems


def _record_pipeline(res: JobResult) -> dict:
    doc = json.loads((res.work / "result.json").read_text())
    return dict(_record_files(res),
                summary={key: doc[key] for key in ("n", "c0", "power_edges")})


def _same_at_record_seed(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    """A seeded job's stdout and files, byte for byte, at the recorded seed."""
    if expected is None:
        return ["no recorded value"]
    if seed != expected["seed"]:
        return []
    return [f"{name} at seed {seed} differs from the recorded value"
            for name, digest in expected["seed_sha256"].items()
            if res.digests.get(name) != digest]


def _record_seeded(res: JobResult, **independent) -> dict:
    return dict(independent, seed=RECORD_SEED, seed_sha256=dict(res.digests))


def _pair_distances_sha256(res: JobResult) -> str:
    """sha256 of the report's pair and d_X columns, which the seed does not
    change."""
    digest = hashlib.sha256()
    with open(res.work / "r.csv", newline="") as fh:
        for row in csv.reader(fh):
            digest.update(f"{row[0]},{row[1]}\n".encode())
    return digest.hexdigest()


def _check_embed_frt(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    """The pair distances must equal the recorded ones, the summary must agree
    exactly with the per-pair report, and every pair's expected tree distance
    must dominate its distance."""
    doc = res.json()
    problems = _same_at_record_seed(res, expected, seed)
    if expected is not None and _pair_distances_sha256(res) != expected["pair_distances_sha256"]:
        problems.append("pair distances differ from the recorded ones")
    if doc["seed"] != seed or doc["samples"] != FRT_SAMPLES:
        problems.append("summary does not echo seed and samples")
    worst, worst_pair, count, rows_ok = Fraction(0), None, 0, True
    with open(res.work / "r.csv", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for pair, d_x, mean, stretch, _ in rows:
            count += 1
            d_x, mean, stretch = Fraction(d_x), Fraction(mean), Fraction(stretch)
            if stretch != mean / d_x or stretch < 1:
                problems.append(f"pair {pair}: stretch {stretch} is wrong or contracting")
                rows_ok = False
                break
            if stretch > worst:
                worst, worst_pair = stretch, pair.split("|")
    vertices = 172  # diamond^4
    if rows_ok and count != vertices * (vertices - 1) // 2:
        problems.append(f"report has {count} pair rows")
    if Fraction(doc["stochastic_distortion"]) != worst:
        problems.append("stochastic distortion differs from the report's worst stretch")
    if doc["worst_pair"] != worst_pair:
        problems.append("worst pair differs from the report")
    return problems


def _record_embed_frt(res: JobResult) -> dict:
    return _record_seeded(res, pair_distances_sha256=_pair_distances_sha256(res))


def _check_power_cycles(doc: dict, n: int) -> list[str]:
    problems = []
    if doc["cycles"] != max_cycle_count(DIAMOND, n):
        problems.append(f"{doc['cycles']} maximal cycles, closed form "
                        f"{max_cycle_count(DIAMOND, n)}")
    edges = max_cycle_edges(DIAMOND, n)
    if doc["cycle_edges"] != [edges, edges]:
        problems.append(f"cycle sizes {doc['cycle_edges']}, closed form {edges}")
    return problems


def _check_thm41(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    doc = res.json()
    problems = _same_at_record_seed(res, expected, seed) + _check_power_cycles(doc, LIB_N)
    if expected is not None and doc["metric_sha256"] != expected["metric_sha256"]:
        problems.append("diamond^3 distances differ from the recorded ones")
    # c0 = 2 for the diamond with weights 1/2, so the bound is (3/128) c0 n.
    bound = Fraction(3, 128) * 2 * LIB_N
    if doc["seed"] != seed or doc["trees"] != TREES or len(doc["values"]) != TREES:
        problems.append("output does not echo seed and tree count")
    if Fraction(doc["bound"]) != bound:
        problems.append(f"bound {doc['bound']} is not {bound}")
    if doc["holds"] != TREES or any(Fraction(v) < bound for v in doc["values"]):
        problems.append("a tree falls below the truncated-stretch bound")
    if doc["witness_counts"] != [doc["cycles"]]:
        problems.append("a maximal cycle has no stretched witness edge")
    return problems


def _record_thm41(res: JobResult) -> dict:
    return _record_seeded(res, metric_sha256=res.json()["metric_sha256"])


def _check_cor42(res: JobResult, expected: Optional[dict], seed: int) -> list[str]:
    doc = res.json()
    problems = _same_at_record_seed(res, expected, seed) + _check_power_cycles(doc, LIB_N)
    if doc["seed"] != seed or len(doc["sums"]) != SELECTORS:
        problems.append("output does not echo seed and selector count")
    if any(Fraction(s) != Fraction(1, 2) for s in doc["sums"]):
        problems.append("a selector sum is not exactly 1/2")
    return problems


# ------------------------------------------------------------- workloads

_DIAMOND_FILE = ("build", "--laakso", "0,2,2,0", "--uniform-weights",
                 "--out", BASE_FILE)


def workloads(seed: int) -> dict[str, Workload]:
    s = str(seed)
    return {
        "oracle": Workload(
            name="oracle",
            setup=(("build", "--laakso", "1,2,2,1", "--uniform-weights",
                    "--out", "l1221.json"),),
            jobs=(
                Job("oracle_1221", "cli",
                    ("oracle", "--graph", "l1221.json", "--json"), (),
                    _same_json, _record_json),
                Job("lemma31", "cli",
                    ("verify", "--suite", "lemma31", "--json"), (),
                    _check_lemma31, _record_json),
            )),
        "frt": Workload(
            name="frt",
            setup=(_DIAMOND_FILE,
                   ("power", "--base", BASE_FILE, "--n", "4",
                    "--out", "d4.json")),
            jobs=(
                Job("embed_frt_d4", "cli",
                    ("embed-frt", "--graph", "d4.json", "--seed", s,
                     "--samples", str(FRT_SAMPLES), "--report", "r.csv", "--json"),
                    ("r.csv",), _check_embed_frt, _record_embed_frt),
                Job("thm41_d3", "lib", ("thm41", "--seed", s), (),
                    _check_thm41, _record_thm41),
            )),
        "powers": Workload(
            name="powers",
            setup=(_DIAMOND_FILE,
                   ("build", "--laakso", "0,2,4,0", "--uniform-weights",
                    "--out", "l0240.json")),
            jobs=(
                Job("power_d8", "cli",
                    ("power", "--base", BASE_FILE, "--n", "8",
                     "--out", "d8.json"),
                    ("d8.json",), _same_files, _record_files),
                Job("export_dot_d8", "cli",
                    ("export-dot", "--graph", "d8.json", "--out", "d8.dot"),
                    ("d8.dot",), _same_files, _record_files),
                Job("cor42_d3", "lib", ("cor42", "--seed", s), (),
                    _check_cor42, _record_seeded),
                Job("pipeline_0240", "cli",
                    ("pipeline", "--graph", "l0240.json", "--out", "result.json"),
                    ("result.json",), _check_pipeline, _record_pipeline),
            )),
    }


ALL_JOBS = tuple(job.name for w in workloads(0).values() for job in w.jobs)


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())
