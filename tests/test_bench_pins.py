"""The benchmark's pinned counts must keep reading the library.

bench/tracer.py wraps library functions by name, and bench/run.py checks
exact counts read from their spans.  A renamed function, or a caller that
goes around the wrapped one, would make a pinned count read 0 only in a
traced benchmark run; these checks see it in the test suite.  They run in a
subprocess, so the tracer's wrappers reach no other test.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

from slashpow.constructions import LaaksoParams
from slashpow.laakso import count_max_cycles

ROOT = Path(__file__).resolve().parents[1]

# The span whose hook produces each pinned counter; a pinned `.calls` metric
# reads the span of its own name.
COUNTER_SPANS = {
    "laakso.cycles_enumerated": "laakso.enumerate_max_cycles",
    "slash.edges_materialized": "slash.slash_power",
}

# bench/run.py PINNED fixes the oracle workload's lp.solve_min and
# oracle.optimal_tree_weights counts and the frt workload's frt_tree count, so
# the probe also runs the oracle on uniform (1,2,2,1), that workload's share
# of both oracle pins, and a small FRT mixture.  An oracle that stops solving
# one LP per topology must re-pin PINNED and ORACLE_1221_TREES together.
ORACLE_1221_TREES = 1296
FRT_SAMPLES = 3
# PINNED also fixes laakso.cycles_enumerated on the frt and powers workloads,
# which enumerate the maximal cycles of diamond^3 once each; the probe does
# the same, so the counter is read from the enumeration's own result.
DIAMOND_P = LaaksoParams(0, 2, 2, 0)

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, tracer
import slashpow
import slashpow.core as core
import slashpow.embeddings as embeddings
import slashpow.serialization as serialization
from slashpow import diamond, slash_power
from slashpow.constructions import uniform_laakso

rec = tracer.Recorder()
report = tracer.install(rec)
g = slash_power(diamond(), 2).graph.graph
core.geodesic_metric(g)
# A non-ASCII unknown key: the hook must count bytes, not characters.
text = serialization.dumps(diamond())[:-2] + ', "note": "' + chr(233) + '"}'
serialization.loads(text)
calls = {name: rec.name_ids.count(i) for i, name in enumerate(rec.names)}
counters = dict(rec.counters)
embeddings.oracle_min_expected_distortion(uniform_laakso((1, 2, 2, 1)))
embeddings.frt_embed(core.geodesic_metric(diamond().graph), seed=1,
                     samples=int(sys.argv[2]))
power3 = slash_power(diamond(), 3)
enumerated = rec.counters.get("laakso.cycles_enumerated", 0)
slashpow.enumerate_max_cycles(power3)
enumerated = rec.counters.get("laakso.cycles_enumerated", 0) - enumerated
print(json.dumps({
    "pinned": sorted({name for _, name in run.PINNED}),
    "missing": report["missing"],
    "calls": calls,
    "counters": counters,
    "later_calls": {name: rec.name_ids.count(i) - calls[name]
                    for i, name in enumerate(rec.names)},
    "n": g.vertex_count,
    "text_bytes": len(text.encode()),
    "cycles_enumerated": enumerated,
}))
"""


@functools.cache
def run_probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "bench"),
                           str(FRT_SAMPLES)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_pinned_count_reads_a_wrapped_function():
    probe = run_probe()
    spans = set()
    for name in probe["pinned"]:
        if name.endswith(".calls"):
            spans.add(name[:-len(".calls")])
        else:
            assert name in COUNTER_SPANS, f"no span known for pinned {name}"
            spans.add(COUNTER_SPANS[name])
    assert spans == {"oracle.optimal_tree_weights", "lp.solve_min", "frt.frt_tree",
                     "laakso.enumerate_max_cycles", "slash.slash_power"}
    assert not spans & set(probe["missing"])

    # The all-pairs metric runs one traced Dijkstra per vertex.
    n = probe["n"]
    assert probe["calls"]["core.geodesic_metric"] == 1
    assert probe["calls"]["core.single_source_distances"] == n
    assert probe["counters"]["core.vertices_settled"] == n * n


def test_pinned_oracle_and_frt_counts_read_their_spans():
    probe = run_probe()
    calls = probe["later_calls"]
    assert calls["lp.solve_min"] == ORACLE_1221_TREES
    assert calls["oracle.optimal_tree_weights"] == ORACLE_1221_TREES
    assert calls["frt.frt_tree"] == FRT_SAMPLES


def test_bytes_read_counts_the_text_loads_is_given():
    # The hook reads loads' `text` argument by name.
    probe = run_probe()
    assert probe["calls"]["serialization.loads"] == 1
    assert probe["counters"]["serialization.bytes_read"] == probe["text_bytes"]


def test_cycles_enumerated_counts_the_maximal_cycles_of_diamond3():
    # The hook reads len() of enumerate_max_cycles' result.
    probe = run_probe()
    assert probe["later_calls"]["laakso.enumerate_max_cycles"] == 1
    assert probe["cycles_enumerated"] == count_max_cycles(DIAMOND_P, 3) == 4096
