"""slashpow benchmark harness (standard library only).

usage, from the repository root:
    python3 bench/run.py --workload {oracle,frt,powers} --seed N \
        --seconds S --trace {0,1}

The workloads, their jobs and the result checks are in workloads.py.  One
client runs each workload's jobs one at a time, each as a fresh process,
with `src/` of this checkout on PYTHONPATH.

--trace 0 measures end to end, with tracing off:
    setup_s      median over SETUP_REPS set-ups of a cold `import slashpow`
                 plus building the workload's input graph files with the CLI
    wall_s       one pass over the jobs: the sum over jobs of each job's
                 fastest wall time (process start to exit) over the passes.
                 The jobs are deterministic, so other load on the host can
                 only slow a pass; the fastest pass of each job is the least
                 disturbed one
    peak_rss_mb  median over passes of the largest peak RSS of any job in
                 the pass (per child, from os.wait4 in launcher.py)
    ok_frac      jobs with the right exit code and exact output, divided by
                 jobs attempted
  Passes repeat while the next one is expected to end within --seconds;
  there is always at least one.

--trace 1 runs one untraced pass and then one pass with every job under
tracer.py, and reports per-layer self times and exact work counts from the
traced pass, each job's time from the untraced pass (cli.<job>.s), and the
difference of the two pass times (trace.overhead_s).  The traced jobs must
reproduce the untraced outputs byte for byte, and the exact counts are
checked against values pinned by the paper's combinatorics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full record, with the seed and the run context (Python version,
CPU count, git commit, `src/` line count), is written to bench/results/.
The harness exits non-zero without a result when the checkout has no
`src/slashpow`.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (ALL_JOBS, FRT_SAMPLES, TREES, Job, JobResult, Workload,
                       load_expected, workloads)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # every job is killed once the run has taken this long
CLOCK = time.perf_counter


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The library's default size caps are part of what is measured.
    env.pop("SLASHPOW_MAX_EDGES", None)
    env.pop("SLASHPOW_MAX_PATHS", None)
    return env


class Runner:
    """Runs job processes one at a time, through launcher.py, in a work dir.

    Use as a context manager: leaving it stops the launcher.
    """

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def spawn(self, cmd: list[str], log: str) -> tuple[int, float, float]:
        """Run cmd in the work dir with stdout to log.out and stderr to
        log.err; returns (exit code, wall seconds, peak RSS in MB)."""
        request = {"cmd": cmd, "cwd": str(self.work),
                   "out": str(self.work / f"{log}.out"),
                   "err": str(self.work / f"{log}.err"),
                   "timeout": max(1.0, RUN_LIMIT_S - (CLOCK() - self.started))}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise HarnessError("the job launcher stopped")
        reply = json.loads(reply)
        return reply["exit"], reply["wall_s"], reply["rss_kb"] / 1024.0

    def setup(self, workload: Workload) -> float:
        """One cold import plus the workload's input files; returns seconds."""
        py = sys.executable
        t0 = CLOCK()
        code, _, _ = self.spawn(
            [py, "-c", "import slashpow, sys; sys.stdout.write(slashpow.__file__)"],
            "setup-import")
        found = (self.work / "setup-import.out").read_text()
        if code != 0 or not Path(found).resolve().is_relative_to(SRC.resolve()):
            raise HarnessError(f"slashpow does not import from {SRC}: {found!r}")
        for i, args in enumerate(workload.setup):
            code, _, _ = self.spawn([py, "-m", "slashpow.cli", *args], f"setup-{i}")
            if code != 0:
                raise HarnessError(f"set-up step {args} exited {code}")
        return CLOCK() - t0

    def command(self, job: Job, spans: str | None) -> list[str]:
        py = sys.executable
        if spans is not None:
            return [py, str(HERE / "tracer.py"), spans, job.kind, *job.args]
        if job.kind == "cli":
            return [py, "-m", "slashpow.cli", *job.args]
        return [py, str(HERE / "libjobs.py"), *job.args]

    def run_job(self, job: Job, spans: str | None) -> JobResult:
        for name in job.outputs:
            (self.work / name).unlink(missing_ok=True)
        code, wall, rss = self.spawn(self.command(job, spans), job.name)
        stdout = (self.work / f"{job.name}.out").read_text()
        digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        sizes = {}
        for name in job.outputs:
            path = self.work / name
            if path.exists():
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                sizes[name] = path.stat().st_size
        return JobResult(name=job.name, exit_code=code, wall_s=wall, rss_mb=rss,
                         stdout=stdout, work=self.work, digests=digests, sizes=sizes)

    def run_pass(self, workload: Workload, traced: bool
                 ) -> tuple[float, list[JobResult]]:
        t0 = CLOCK()
        results = [self.run_job(job, str(self.work / f"{job.name}.trace")
                                if traced else None)
                   for job in workload.jobs]
        return CLOCK() - t0, results


def check(job: Job, res: JobResult, expected: dict, seed: int) -> list[str]:
    if res.exit_code != 0:
        return [f"exit code {res.exit_code}"]
    try:
        return job.check(res, expected.get(job.name), seed)
    except (ValueError, ArithmeticError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


# ----------------------------------------------------------------- traces


def read_spans(prefix: str) -> tuple[dict, dict[str, list]]:
    """Per span name: [calls, total seconds, self seconds] for one job."""
    meta = json.loads(Path(prefix + ".json").read_text())
    n = meta["spans"]
    arrays = [array.array(code) for code in "iidd"]
    with open(prefix + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name_ids, parents, starts, ends = arrays
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    stats = {name: [0, 0.0, 0.0] for name in meta["names"]}
    names = meta["names"]
    for i in range(n):
        row = stats[names[name_ids[i]]]
        dur = ends[i] - starts[i]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return meta, stats


def layer_metrics(stats: dict[str, list], counters: dict[str, int],
                  job_walls: dict[str, float], overhead: float) -> dict[str, tuple]:
    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    geo_calls = calls("core.geodesic_metric")
    m: dict[str, tuple] = {
        "lp.solve_min.calls": (calls("lp.solve_min"), "count"),
        "lp.solve_min.self_s": (self_s("lp.solve_min"), "s"),
        "lp.rows": (counters.get("lp.rows", 0), "count"),
        "lp.cols": (counters.get("lp.cols", 0), "count"),
        "oracle.optimal_tree_weights.calls": (calls("oracle.optimal_tree_weights"), "count"),
        "oracle.optimal_tree_weights.self_s": (self_s("oracle.optimal_tree_weights"), "s"),
        "oracle.tree_pair_paths.self_s": (self_s("oracle.tree_pair_paths"), "s"),
        "core.geodesic_metric.calls": (geo_calls, "count"),
        "core.geodesic_metric.repeat_ratio": (
            counters.get("core.geodesic_metric.repeats", 0) / geo_calls
            if geo_calls else 0.0, "ratio"),
        "core.single_source_distances.calls": (calls("core.single_source_distances"), "count"),
        "core.single_source_distances.self_s": (self_s("core.single_source_distances"), "s"),
        "core.vertices_settled": (counters.get("core.vertices_settled", 0), "count"),
        "core.validate.self_s": (self_s(
            "core.validate_st_graph", "core.is_normalized_geodesic_st",
            "core.is_strictly_geodesic_st", "core.enumerate_cycles",
            "core.enumerate_st_paths"), "s"),
        "trees.distance.calls": (calls("trees.distance"), "count"),
        "trees.distance.self_s": (self_s("trees.distance"), "s"),
        "frt.frt_tree.calls": (calls("frt.frt_tree"), "count"),
        "frt.frt_tree.self_s": (self_s("frt.frt_tree"), "s"),
    }
    for fn in ("expected_distortion", "distortion_report", "stochastic_distortion_of",
               "check_expansive", "truncated_distortion_bound", "cycle_embedding_witness"):
        m[f"distortion.{fn}.self_s"] = (self_s(f"distortion.{fn}"), "s")
    m.update({
        "slash.slash_power.calls": (calls("slash.slash_power"), "count"),
        "slash.slash_power.self_s": (self_s("slash.slash_power"), "s"),
        "slash.edges_materialized": (counters.get("slash.edges_materialized", 0), "count"),
        "slash.lift.calls": (calls("slash.lift_path", "slash.lift_cycle"), "count"),
        "slash.lift.self_s": (self_s("slash.lift_path", "slash.lift_cycle"), "s"),
        "laakso.enumerate_max_cycles.self_s": (self_s("laakso.enumerate_max_cycles"), "s"),
        "laakso.cycles_enumerated": (counters.get("laakso.cycles_enumerated", 0), "count"),
        "laakso.selector_identity_sum.self_s": (self_s("laakso.selector_identity_sum"), "s"),
        "laakso.find_balanced_laakso.self_s": (self_s("laakso.find_balanced_laakso"), "s"),
        "laakso.pipeline.self_s": (self_s("laakso.balanced_laakso_pipeline"), "s"),
        "constructions.laakso_from_cycle.self_s": (self_s("constructions.laakso_from_cycle"), "s"),
        "constructions.build_laakso_subgraph.self_s": (
            self_s("constructions.build_laakso_subgraph"), "s"),
        "serialization.dumps.self_s": (self_s(
            "serialization.dumps", "serialization.graph_to_dict",
            "serialization.measured_to_dict", "serialization.export_dot"), "s"),
        "serialization.loads.self_s": (self_s("serialization.loads"), "s"),
        "serialization.bytes_written": (counters.get("serialization.bytes_written", 0), "bytes"),
        "serialization.bytes_read": (counters.get("serialization.bytes_read", 0), "bytes"),
    })
    for job in ALL_JOBS:
        m[f"cli.{job}.s"] = (job_walls.get(job, 0.0), "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


# Exact counts fixed by the inputs: (workload, metric) -> check.
PINNED = {
    ("oracle", "oracle.optimal_tree_weights.calls"): lambda v: v == 1296 + 16 + 125 + 1296,
    ("oracle", "lp.solve_min.calls"): lambda v: v == 1296 + 16 + 125 + 1296,
    ("frt", "frt.frt_tree.calls"): lambda v: v == FRT_SAMPLES + TREES,
    ("frt", "laakso.cycles_enumerated"): lambda v: v == 4096,
    ("powers", "slash.edges_materialized"): lambda v: v >= 65536,
    ("powers", "laakso.cycles_enumerated"): lambda v: v == 4096,
}


def pinned_problems(workload: str, metrics: dict[str, tuple]) -> list[str]:
    return [f"{name} = {metrics[name][0]} breaks its pinned value"
            for (wl, name), ok in PINNED.items()
            if wl == workload and not ok(metrics[name][0])]


# ---------------------------------------------------------------- context


def run_context() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "nproc": nproc,
            "git_commit": commit, "src_lines": src_lines}


# ------------------------------------------------------------------- main


def measure(workload: Workload, seed: int, seconds: int, trace: bool,
            runner: Runner) -> dict:
    expected = load_expected()
    setups = [runner.setup(workload) for _ in range(1 if trace else SETUP_REPS)]

    # (kind, wall, results, problems per job); each pass is checked before
    # the next one overwrites its output files.
    passes: list[tuple[str, float, list[JobResult], list[list[str]]]] = []

    def one_pass(traced: bool) -> float:
        wall, results = runner.run_pass(workload, traced)
        problems = [check(job, res, expected, seed)
                    for job, res in zip(workload.jobs, results)]
        passes.append(("traced" if traced else "plain", wall, results, problems))
        return wall

    if trace:
        one_pass(False)
        one_pass(True)
    else:
        t0 = CLOCK()
        while True:
            wall = one_pass(False)
            if CLOCK() - t0 + wall > seconds:
                break

    record: dict = {"setup_s": setups}
    if not trace:
        per_job = zip(*(p[2] for p in passes))
        metrics = {
            "wall_s": (sum(min(r.wall_s for r in runs) for runs in per_job), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p[2])
                                              for p in passes), "MB"),
        }
    else:
        (_, _, plain, _), (_, _, traced, traced_problems) = passes
        stats: dict[str, list] = {}
        meta: dict = {}
        counters: dict[str, int] = {"serialization.bytes_written": 0}
        for i, job in enumerate(workload.jobs):
            if (plain[i].digests, plain[i].exit_code) != (traced[i].digests,
                                                          traced[i].exit_code):
                traced_problems[i].append("traced output differs from the untraced run")
            try:
                meta, job_stats = read_spans(str(runner.work / f"{job.name}.trace"))
            except (OSError, ValueError, EOFError) as exc:
                traced_problems[i].append(f"no spans: {exc!r}")
                continue
            for name, row in job_stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += row[k]
            for key, value in meta["counters"].items():
                counters[key] = counters.get(key, 0) + value
            counters["serialization.bytes_written"] += sum(traced[i].sizes.values())
        metrics = layer_metrics(stats, counters, {r.name: r.wall_s for r in plain},
                                sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain))
        traced_problems[0].extend(pinned_problems(workload.name, metrics))
        record.update(span_stats=stats, counters=counters,
                      bindings=meta.get("bindings"), missing_spans=meta.get("missing"))

    attempted = sum(len(p[2]) for p in passes)
    failed = sum(bool(problems) for p in passes for problems in p[3])
    if not trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    record["passes"] = [
        {"kind": kind, "wall_s": wall,
         "jobs": [{"job": r.name, "exit": r.exit_code, "wall_s": r.wall_s,
                   "rss_mb": r.rss_mb, "problems": pr}
                  for r, pr in zip(results, problems)]}
        for kind, wall, results, problems in passes]
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "frt", "powers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = CLOCK()
    if not (SRC / "slashpow" / "__init__.py").is_file():
        print(f"error: no slashpow sources under {SRC}", file=sys.stderr)
        return 2
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Runner(work, started) as runner:
            record = measure(workloads(args.seed)[args.workload], args.seed,
                             args.seconds, bool(args.trace), runner)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, context=run_context(), **record)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"context {json.dumps(record['context'])}; record {out.relative_to(ROOT)}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:45s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
