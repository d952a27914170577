import random
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import all_pairs, diamond
from slashpow.core import GeodesicMetric, geodesic_metric
from slashpow.embeddings import check_expansive, frt_embed, frt_tree
from slashpow.errors import CapExceeded, DegenerateMetric, InputError


def test_two_point_metric_single_edge():
    mg = sp.build_path([F(2, 3)])
    metric = geodesic_metric(mg.graph)
    for seed in (0, 1, 99):
        tree, tmap = frt_tree(metric, random.Random(seed))
        assert tree.vertex_count == 2
        assert tree.distance(tmap(0), tmap(1)) == F(2, 3)  # stretch exactly 1


def test_trees_dominate_and_are_rational():
    metric = geodesic_metric(sp.slash_power(diamond(), 2).graph.graph)
    for seed in range(20):
        tree, tmap = frt_tree(metric, random.Random(seed))
        ok, witness = check_expansive(metric, tree, tmap)
        assert ok, witness
        assert all(isinstance(w, F) for w in tree.weights)
        # Source vertices land on non-Steiner leaves, injectively.
        assert len(set(tmap.vertex_map)) == metric.source.vertex_count
        assert not any(tree.steiner[tmap(v)]
                       for v in range(metric.source.vertex_count))


def test_same_seed_same_tree():
    metric = geodesic_metric(diamond().graph)
    t1, m1 = frt_tree(metric, random.Random(5))
    t2, m2 = frt_tree(metric, random.Random(5))
    assert t1 == t2 and m1 == m2


def test_embed_probabilities_and_reproducibility():
    metric = geodesic_metric(diamond().graph)
    emb = frt_embed(metric, seed=11, samples=5)
    assert len(emb) == 5
    assert sum(p for _, _, p in emb) == 1
    again = frt_embed(metric, seed=11, samples=5)
    assert [t for t, _, _ in emb] == [t for t, _, _ in again]
    with pytest.raises(InputError):
        frt_embed(metric, seed=0, samples=0)


def test_degenerate_metric_rejected():
    g = diamond().graph
    rows = ((0,) * 4,) * 4  # everything at distance 0
    broken = GeodesicMetric(source=g, scale=1, rows=rows)
    with pytest.raises(DegenerateMetric):
        frt_tree(broken, random.Random(0))


def test_trees_dominate_by_construction():
    # No scaling pass follows the partition: two points that first split at
    # level l are under 2^(l+2) apart, and at least 2^(l+2) apart in the tree.
    metric = geodesic_metric(diamond().graph)
    for seed in range(10):
        tree, tmap = frt_tree(metric, random.Random(seed))
        ratios = [tree.distance(tmap(u), tmap(v)) / metric.d(u, v)
                  for u, v in all_pairs(4)]
        assert min(ratios) >= 1


def test_sample_cap_counts_every_level():
    # A cluster that survives k dyadic levels adds a chain of k Steiner
    # nodes: on s-a-t with weights 10^-300 and 1 - 10^-300 the pair {s, a}
    # stays together from level -1 down to about level -997.
    eps = F(1, 10 ** 300)
    metric = geodesic_metric(sp.build_path([eps, 1 - eps]).graph)
    sizes = {frt_tree(metric, random.Random(seed))[0].vertex_count
             for seed in range(5)}
    assert sizes == {999, 1000}  # not 2n - 1 = 5
    # Each tree is counted as 1 + 3 * 997 vertices (floor(log2 10^-300) is -997).
    with pytest.raises(CapExceeded, match="trees of up to 2992 vertices"):
        frt_embed(metric, seed=0, samples=10 ** 6)
    # On the diamond every tree has one level of four leaves: the bound, 5.
    metric = geodesic_metric(diamond().graph)
    assert {frt_tree(metric, random.Random(seed))[0].vertex_count
            for seed in range(5)} == {5}
    with pytest.raises(CapExceeded, match="trees of up to 5 vertices"):
        frt_embed(metric, seed=0, samples=10 ** 6)
