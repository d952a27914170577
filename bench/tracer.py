"""Run one benchmark job with a span recorded at every layer boundary.

usage:
    tracer.py OUT_PREFIX cli ARGS...    # same as `python -m slashpow.cli ARGS...`
    tracer.py OUT_PREFIX lib ARGS...    # same as `python libjobs.py ARGS...`

Before the job starts, every public function listed in LAYERS is replaced,
in every slashpow module that binds it, by a wrapper that records one span
(name, start, end, parent span) per call; `GeodesicTree.distance` is
replaced on the class.  Modules import these names directly, so rebinding
only the defining module would miss calls.  A few wrappers also add exact
work counts (LP sizes, edges materialized, cycles enumerated, ...).

The job's stdout, stderr and exit status are left untouched.  On exit the
spans go to OUT_PREFIX.spans (four packed arrays: name id int32, parent
int32, start float64, end float64) and the names, counts and binding
report to OUT_PREFIX.json.  The harness derives self times from them.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from pathlib import Path

# module -> (span prefix, traced functions).  The prefix is the layer name
# used by the benchmark metrics.  Only functions whose spans feed a metric
# are wrapped, so the time of any other function stays in its caller's self
# time.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "slashpow.embeddings.lp": ("lp", ("solve_min",)),
    "slashpow.embeddings.oracle": ("oracle", (
        "optimal_tree_weights", "tree_pair_paths")),
    "slashpow.core": ("core", (
        "geodesic_metric", "single_source_distances", "validate_st_graph",
        "is_normalized_geodesic_st", "is_strictly_geodesic_st",
        "enumerate_cycles", "enumerate_st_paths")),
    "slashpow.embeddings.frt": ("frt", ("frt_tree",)),
    "slashpow.embeddings.distortion": ("distortion", (
        "expected_distortion", "distortion_report", "stochastic_distortion_of",
        "check_expansive", "truncated_distortion_bound",
        "cycle_embedding_witness")),
    "slashpow.slash": ("slash", ("slash_power", "lift_path", "lift_cycle")),
    "slashpow.laakso": ("laakso", (
        "enumerate_max_cycles", "selector_identity_sum",
        "find_balanced_laakso", "balanced_laakso_pipeline")),
    "slashpow.constructions": ("constructions", (
        "laakso_from_cycle", "build_laakso_subgraph")),
    "slashpow.serialization": ("serialization", (
        "dumps", "graph_to_dict", "measured_to_dict", "export_dot", "loads")),
}
METHODS: dict[str, tuple[str, str, str]] = {
    # span name -> (module, class, method)
    "trees.distance": ("slashpow.embeddings.trees", "GeodesicTree", "distance"),
}


class Recorder:
    """Spans in packed arrays plus named work counters, for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self._graphs_seen: set[int] = set()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        stack = self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(recorder, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def seen_graph(self, g) -> bool:
        """Whether an equal graph went through geodesic_metric before."""
        key = hash((g.edges, g.weights, g.s, g.t))
        seen = key in self._graphs_seen
        self._graphs_seen.add(key)
        return seen

    def write(self, prefix: str, meta: dict) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        meta = dict(meta, names=self.names, spans=len(self.starts),
                    counters=self.counters)
        Path(prefix + ".json").write_text(json.dumps(meta))


def _geodesic_hook(rec: Recorder, a: dict, result) -> None:
    if rec.seen_graph(a["g"]):
        rec.count("core.geodesic_metric.repeats", 1)


_HOOKS = {
    "lp.solve_min": lambda rec, a, r: (rec.count("lp.rows", len(a["a"])),
                                       rec.count("lp.cols", len(a["c"]))),
    "core.geodesic_metric": _geodesic_hook,
    "core.single_source_distances":
        lambda rec, a, r: rec.count("core.vertices_settled", len(r)),
    # Level 1 of a power is the base itself; only later levels are built.
    "slash.slash_power": lambda rec, a, r: rec.count(
        "slash.edges_materialized",
        sum(lv.measured.graph.edge_count for lv in r.levels[1:])),
    "laakso.enumerate_max_cycles":
        lambda rec, a, r: rec.count("laakso.cycles_enumerated", len(r)),
    "serialization.loads": lambda rec, a, r: rec.count(
        "serialization.bytes_read", len(a["text"].encode())),
}


def install(rec: Recorder, extra_modules=()) -> dict:
    """Rebind every traced function in every loaded slashpow module.

    Returns {span name: modules rebound} and names absent from this version
    of the library.  Raises RuntimeError when an original binding survives.
    """
    import slashpow.cli  # noqa: F401  (loads every library module)

    originals: dict[int, tuple[str, object]] = {}
    missing: list[str] = []
    for modname, (prefix, funcs) in LAYERS.items():
        mod = sys.modules[modname]
        for fn_name in funcs:
            fn = getattr(mod, fn_name, None)
            if fn is None:
                missing.append(f"{prefix}.{fn_name}")
                continue
            originals[id(fn)] = (f"{prefix}.{fn_name}", fn)

    wrappers = {key: rec.wrap(name, fn) for key, (name, fn) in originals.items()}
    modules = [m for n, m in sys.modules.items()
               if n == "slashpow" or n.startswith("slashpow.")]
    modules.extend(extra_modules)
    bindings: dict[str, list[str]] = {name: [] for name, _ in originals.values()}
    # `originals` keeps every function alive, so ids cannot be reused here.
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
                bindings[originals[id(value)][0]].append(mod.__name__)
    for mod in modules:
        for attr, value in vars(mod).items():
            if id(value) in originals:
                raise RuntimeError(f"{mod.__name__}.{attr} is still unwrapped")

    for span, (modname, cls_name, meth) in METHODS.items():
        cls = getattr(sys.modules[modname], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            missing.append(span)
            continue
        setattr(cls, meth, rec.wrap(span, fn))
        bindings[span] = [f"{modname}.{cls_name}"]
    return {"bindings": bindings, "missing": missing}


def main(argv: list[str]) -> int:
    prefix, kind, job_args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    if kind == "cli":
        report = install(rec)
        import slashpow.cli
        entry = slashpow.cli.main
    elif kind == "lib":
        import libjobs
        report = install(rec, extra_modules=[libjobs])
        entry = libjobs.main
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    code = 1
    try:
        code = entry(job_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        rec.write(prefix, report)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
