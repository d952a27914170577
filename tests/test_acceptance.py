"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with `pytest -s` or in the
captured output) and asserts exact rational equalities or bounds at the
stated time budget.
"""

import random
import time
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import (
    associativity_isomorphism_check,
    diamond,
    laakso0230,
    unit_cycle_measured,
)
from slashpow.core import cycle_edge_indices, geodesic_metric, single_source_distances
from slashpow.embeddings import (
    check_expansive,
    expected_distortion,
    frt_embed,
    oracle_min_expected_distortion,
    stochastic_distortion_of,
)
from slashpow.laakso import LaaksoBase, find_balanced_laakso
from slashpow.slash import slash_power
from slashpow.verify import (
    cycle_count_suite,
    cycle_witness_suite,
    selector_identity_suite,
    truncated_bound_suite,
)

GOLDEN_ORACLE = {
    "diamond": F(3, 2),       # confirmed by the topology+LP oracle
    "unit_4_cycle": F(3, 2),  # computed once by the same oracle, frozen
}


def _report(number: int, budget: float, elapsed: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[criterion {number}] PASS in {elapsed:.1f}s: {detail}")


def test_criterion_1_selector_identity():
    t0 = time.monotonic()
    report = selector_identity_suite()
    assert report.ok
    _report(1, 10.0, time.monotonic() - t0,
            "selector sums equal 1/2 exactly for 50 seeded selectors on both "
            "bases at n=1,2")


def test_criterion_2_cycle_counts():
    t0 = time.monotonic()
    report = cycle_count_suite()
    assert report.ok
    _report(2, 30.0, time.monotonic() - t0,
            "closed-form counts equal exhaustive enumeration (n<=2, both "
            "bases); per-edge reference values (0, 16, 8) reproduced")


def test_criterion_3_cycle_witnesses():
    t0 = time.monotonic()
    report = cycle_witness_suite()
    assert report.ok
    _report(3, 300.0, time.monotonic() - t0,
            "every labeled tree topology on unit 4/5/6-cycles with exact "
            "optimal weights stretches an edge to (c0 - d(e))/8")


def test_criterion_4_truncated_bound():
    t0 = time.monotonic()
    report = truncated_bound_suite()
    assert report.ok
    _report(4, 300.0, time.monotonic() - t0,
            "truncated expected stretch >= (3/128) c0 n for the oracle tree "
            "(n=1) and 100 seeded dominating trees (n=1,2), with a "
            "(3/32) c0 witness edge on every maximal cycle")


def test_criterion_5_balanced_witness():
    t0 = time.monotonic()
    mg = laakso0230()
    witness = find_balanced_laakso(mg)
    assert witness.n0 == 3 and witness.i == 0

    small, big = 2, 3
    m2 = big ** 1 * small
    n2 = small ** 1 * big
    m3 = big ** 2 * small
    n3 = small ** 2 * big
    assert (m2, n2, n3, m3) == (6, 6, 12, 18)

    sub = witness.subgraph
    assert sub.structure.params.balanced
    assert sp.validate_st_graph(sub.graph).ok
    base = LaaksoBase.from_measured(mg)
    cyc_len = sum((sub.graph.weights[ei]
                   for ei in cycle_edge_indices(sub.graph, sub.structure.cycle)),
                  F(0))
    assert cyc_len == base.c0

    g = witness.power.graph.graph
    rng = random.Random(2303)
    nv = sub.graph.vertex_count
    small_metric = geodesic_metric(sub.graph)
    cache = {}
    checked = 0
    while checked < 200:
        u, v = rng.sample(range(nv), 2)
        pu, pv = sub.parent_vertices[u], sub.parent_vertices[v]
        if pu not in cache:
            cache[pu] = single_source_distances(g, pu)
        assert small_metric.d(u, v) == F(cache[pu][pv], g.weight_scale)
        checked += 1
    _report(5, 60.0, time.monotonic() - t0,
            "(0,2,3,0): n0=3, i=0, arc table (6,6,12,18); balanced witness "
            "cycle has length c0 and is isometric on 200 sampled pairs")


def test_criterion_6_oracle_golden_values():
    t0 = time.monotonic()
    d = oracle_min_expected_distortion(diamond())
    assert d.value == GOLDEN_ORACLE["diamond"]
    c = oracle_min_expected_distortion(unit_cycle_measured(4))
    assert c.value == GOLDEN_ORACLE["unit_4_cycle"]
    _report(6, 60.0, time.monotonic() - t0,
            "oracle reproduces frozen golden values 3/2 (diamond) and 3/2 "
            "(unit 4-cycle) exactly")


def test_criterion_7_domination_and_chain():
    t0 = time.monotonic()
    power3 = slash_power(diamond(), 3)
    metric3 = geodesic_metric(power3.graph.graph)
    emb = frt_embed(metric3, seed=0, samples=100)
    for idx, (tree, tmap, _) in enumerate(emb):
        ok, witness = check_expansive(metric3, tree, tmap)
        assert ok, f"tree {idx} fails domination at {witness}"
    stretch = stochastic_distortion_of(power3.graph.graph, emb)
    assert stretch >= 1  # a Fraction: finite by construction

    chain_notes = []
    for name, mg in (("diamond", diamond()), ("cycle4", unit_cycle_measured(4))):
        m = geodesic_metric(mg.graph)
        small_emb = frt_embed(m, seed=0, samples=32)
        stoch = stochastic_distortion_of(mg.graph, small_emb)
        mean = sum((p * expected_distortion(mg, t, f) for t, f, p in small_emb),
                   F(0))
        oracle = oracle_min_expected_distortion(mg).value
        assert stoch >= mean >= oracle
        chain_notes.append(f"{name}: {stoch} >= {mean} >= {oracle}")
    _report(7, 300.0, time.monotonic() - t0,
            f"100/100 dominating trees on the 44-vertex third power; "
            f"empirical stretch {stretch} (~{float(stretch):.2f}); "
            f"chains {chain_notes}")


def test_criterion_8_structural_invariants():
    t0 = time.monotonic()
    d = diamond()
    assert associativity_isomorphism_check(d)
    for n in (1, 2, 3):
        pw = slash_power(d, n)
        g = pw.graph.graph
        assert g.edge_count == d.graph.edge_count ** n
        assert sum(pw.graph.nu) == 1
        assert sp.is_normalized_geodesic_st(g)
    _report(8, 60.0, time.monotonic() - t0,
            "associativity isomorphism exact on the diamond; |E| = |E|^n, "
            "total measure 1, and normalization preserved for n <= 3")
