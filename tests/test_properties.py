"""Property tests over randomized normalized measured graphs: product
invariants, serialization round-trips, metric axioms, and the strict
domination of sampled FRT trees."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import slash_product
from slashpow import serialization as ser
from slashpow.constructions import build_cycle, build_laakso, build_path
from slashpow.core import geodesic_metric, is_normalized_geodesic_st
from slashpow.embeddings import (
    distortion_report,
    frt_embed,
    frt_tree,
    stochastic_distortion_of,
)

positive = st.builds(F, st.integers(1, 9), st.integers(1, 9))


def _scaled(weights, total):
    s = sum(weights, F(0))
    return [w / s * total for w in weights]


@st.composite
def normalized_paths(draw):
    raw = draw(st.lists(positive, min_size=1, max_size=4))
    return build_path(_scaled(raw, F(1)))


@st.composite
def normalized_cycles(draw):
    n1 = draw(st.integers(1, 3))
    n2 = draw(st.integers(max(1, 3 - n1), 3))
    a1 = [draw(positive) for _ in range(n1)]
    a2 = [draw(positive) for _ in range(n2)]
    return build_cycle(_scaled(a1, F(1)), _scaled(a2, F(1)))


@st.composite
def normalized_laaksos(draw):
    k = draw(st.integers(0, 1))
    m = draw(st.integers(0, 1))
    l1 = draw(st.integers(1, 3))
    l2 = draw(st.integers(max(1, 3 - l1), 3))
    ends = [draw(positive) for _ in range(k + m)]
    if ends:
        branch_share = draw(st.builds(F, st.integers(1, 5), st.integers(6, 9)))
        stem_tail = _scaled(ends, F(1) - branch_share)
    else:
        branch_share = F(1)
        stem_tail = []
    b1 = _scaled([draw(positive) for _ in range(l1)], branch_share)
    b2 = _scaled([draw(positive) for _ in range(l2)], branch_share)
    return build_laakso((k, l1, l2, m), stem=stem_tail[:k], branch1=b1,
                        branch2=b2, tail=stem_tail[k:])


measured_graphs = st.one_of(normalized_paths(), normalized_cycles(),
                            normalized_laaksos())


@given(measured_graphs)
@settings(max_examples=60)
def test_random_builders_are_normalized(mg):
    assert is_normalized_geodesic_st(mg.graph)
    assert sum(mg.nu) == 1


@given(measured_graphs, measured_graphs)
@settings(max_examples=30, deadline=None)
def test_product_invariants(h, g):
    prod = slash_product(h, g)
    assert prod.graph.edge_count == h.graph.edge_count * g.graph.edge_count
    assert sum(prod.nu) == 1
    assert is_normalized_geodesic_st(prod.graph)
    # Weights and measures multiply copy by copy.
    ne_g = g.graph.edge_count
    for idx in range(prod.graph.edge_count):
        he, ge = divmod(idx, ne_g)
        assert prod.graph.weights[idx] == h.graph.weights[he] * g.graph.weights[ge]
        assert prod.nu[idx] == h.nu[he] * g.nu[ge]


@given(measured_graphs)
@settings(max_examples=40)
def test_json_roundtrip_random(mg):
    back = ser.loads(ser.dumps(mg))
    assert back.graph == mg.graph
    assert back.nu == mg.nu


@given(measured_graphs)
@settings(max_examples=25, deadline=None)
def test_metric_axioms_random(mg):
    g = mg.graph
    m = geodesic_metric(g)
    n = g.vertex_count
    for u in range(n):
        assert m.d(u, u) == 0
        for v in range(u + 1, n):
            assert m.d(u, v) == m.d(v, u) > 0
            for w in range(n):
                assert m.d(u, v) <= m.d(u, w) + m.d(w, v)


@given(measured_graphs, st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_frt_trees_strictly_dominate(mg, seed):
    # frt_tree has no repair step: two points that first split at level l are
    # under 2^(l+2) apart, and the tree path between them crosses two level-l
    # edges of weight 2^(l+1).  Only a two-point metric gets its one exact edge.
    metric = geodesic_metric(mg.graph)
    n = mg.graph.vertex_count
    tree, tmap = frt_tree(metric, random.Random(seed))
    tree_scale, tree_rows = tree.scaled_distances(tmap.vertex_map)
    for u in range(n):
        for v in range(u + 1, n):
            d_t, d = tree_rows[u][v] * metric.scale, metric.rows[u][v] * tree_scale
            assert d_t > d or (n == 2 and d_t == d), (u, v)


@given(measured_graphs, st.integers(0, 2 ** 32), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_stochastic_distortion_is_the_reports_first_worst_row(mg, seed, samples):
    g = mg.graph
    emb = frt_embed(g.metric, seed=seed, samples=samples)
    report = distortion_report(g, emb)
    worst = max(stretch for *_, stretch in report.rows)
    assert stochastic_distortion_of(g, emb) == report.worst_stretch == worst
    first = next(row for row in report.rows if row[4] == worst)
    assert report.worst_pair == first[:2]
