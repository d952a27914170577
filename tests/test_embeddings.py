import random
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import (
    diamond,
    laakso1221,
    path_tree,
    random_spanning_tree,
    reference_truncated_bound,
    scaled_tree,
    search_spanning_tree,
    unit_cycle,
    weighted1331,
)
from slashpow.core import geodesic_metric
from slashpow.embeddings import (
    STEINER_FACTOR,
    GeodesicTree,
    StochasticTreeEmbedding,
    TreeMap,
    check_expansive,
    cycle_embedding_witness,
    distortion_report,
    expected_distortion,
    frt_embed,
    frt_tree,
    identity_tree_map,
    oracle_min_expected_distortion,
    stochastic_distortion_of,
    distortion,
    truncated_distortion_bound,
)
from slashpow.errors import EdgeSizeViolation, InputError, NotExpansive, WitnessNotFound
from slashpow.laakso import enumerate_max_cycles
from slashpow.slash import slash_power


def diamond_path_tree():
    """Path x0 - y1_1 - z0 - y2_1 with weights 1/2 each, identity names."""
    tree = path_tree(("x0", "y1_1", "z0", "y2_1"), (F(1, 2), F(1, 2), F(1, 2)))
    # diamond vertex ids: x0=0, y1_1=1, y2_1=2, z0=3
    return tree, TreeMap(vertex_map=(0, 1, 3, 2))


def test_expected_distortion_identity_path():
    mg = sp.build_path([F(1, 3)] * 3)
    tree = path_tree(mg.graph.names, mg.graph.weights)
    assert expected_distortion(mg, tree, identity_tree_map(4)) == 1


def test_expected_distortion_diamond_path_tree():
    tree, tmap = diamond_path_tree()
    assert expected_distortion(diamond(), tree, tmap) == F(3, 2)
    ok, _ = check_expansive(geodesic_metric(diamond().graph), tree, tmap)
    assert ok


def test_expected_distortion_at_least_one_for_expansive():
    mg = diamond()
    metric = geodesic_metric(mg.graph)
    for seed in range(10):
        tree, tmap = frt_tree(metric, random.Random(seed))
        assert expected_distortion(mg, tree, tmap) >= 1


def test_check_expansive_collapse():
    # Collapsing everything onto one tree vertex contracts the first pair.
    mg = diamond()
    tree = path_tree(("a", "b"), (F(1),))
    tmap = TreeMap(vertex_map=(0, 0, 0, 0))
    ok, witness = check_expansive(geodesic_metric(mg.graph), tree, tmap)
    assert not ok
    assert witness == (0, 1)


@pytest.mark.parametrize("vertex_map", [(0, 1, 2), (0, 1, 2, 3, 0)])
def test_check_expansive_needs_a_map_of_every_vertex(vertex_map):
    tree = path_tree(("a", "b", "c", "d"), (F(1),) * 3)
    with pytest.raises(InputError, match="map must cover every vertex"):
        check_expansive(diamond().graph.metric, tree, TreeMap(vertex_map=vertex_map))


def test_stochastic_distortion_identity():
    mg = sp.build_path([F(1, 2)] * 2)
    tree = path_tree(mg.graph.names, mg.graph.weights)
    emb = StochasticTreeEmbedding(((tree, identity_tree_map(3), F(1)),))
    assert stochastic_distortion_of(mg.graph, emb) == 1


def mirrored_mixture() -> StochasticTreeEmbedding:
    """Uniform mixture of diamond_path_tree and its mirror image, which
    swaps y1_1 and y2_1."""
    t1, m1 = diamond_path_tree()                       # stretches {x0, y2_1}
    t2 = path_tree(("x0", "y2_1", "z0", "y1_1"), (F(1, 2),) * 3)
    m2 = TreeMap(vertex_map=(0, 3, 1, 2))              # stretches {x0, y1_1}
    return StochasticTreeEmbedding(((t1, m1, F(1, 2)), (t2, m2, F(1, 2))))


def test_stochastic_distortion_two_tree_mixture():
    # Two expansive trees on the diamond, each a path stretching a different
    # edge; the per-pair averages are checked against a hand evaluation.
    g = diamond().graph
    emb = mirrored_mixture()

    metric = geodesic_metric(g)
    # Hand evaluation: pairs (u, v) with mean tree distance.
    # d_T1 over (0,1),(0,2),(0,3),(1,2),(1,3),(2,3):
    #   1/2, 3/2, 1, 1, 1/2, 1/2
    # d_T2 swaps the roles of y1_1 and y2_1: 3/2, 1/2, 1, 1, 1/2, 1/2
    means = {(0, 1): F(1), (0, 2): F(1), (0, 3): F(1),
             (1, 2): F(1), (1, 3): F(1, 2), (2, 3): F(1, 2)}
    worst = max(means[p] / metric.d(*p) for p in means)
    assert stochastic_distortion_of(g, emb) == worst == F(2)


def test_worst_pair_is_the_first_of_tied_pairs():
    # The mirror image swaps y1_1 and y2_1, so pairs (x0, y1_1) and
    # (x0, y2_1) share the greatest stretch, 2; the first in row order wins.
    g = diamond().graph
    rep = distortion_report(g, mirrored_mixture())
    tied = [(u, v) for u, v, *_, stretch in rep.rows if stretch == 2]
    assert tied == [(0, 1), (0, 2)]
    assert rep.worst_pair == (0, 1) and rep.worst_stretch == 2


def test_stochastic_distortion_rejects_contraction():
    g = diamond().graph
    tree = path_tree(("a", "b"), (F(1),))
    emb = StochasticTreeEmbedding(((tree, TreeMap((0, 0, 0, 1)), F(1)),))
    with pytest.raises(NotExpansive):
        stochastic_distortion_of(g, emb)


def test_distortion_report_rejects_contraction_like_stochastic_distortion():
    mg = diamond()
    good = frt_embed(mg.graph.metric, seed=3, samples=2)
    (t0, m0, _), (t1, m1, _) = good.components
    # Component 1 sends vertices 0, 1 and 2 to one point; component 2
    # shrinks every distance 64-fold.  Both contract pair (0, 1) first, and
    # the error names the lower component.
    squash = TreeMap((0, 0, 0) + m0.vertex_map[3:])
    emb = StochasticTreeEmbedding(((t0, m0, F(1, 3)), (t0, squash, F(1, 3)),
                                   (scaled_tree(t1, F(1, 64)), m1, F(1, 3))))
    messages = []
    for run in (lambda: stochastic_distortion_of(mg.graph, emb),
                lambda: distortion_report(mg.graph, emb)):
        with pytest.raises(NotExpansive) as err:
            run()
        messages.append(str(err.value))
    ok, witness = check_expansive(mg.graph.metric, t0, squash)
    assert not ok
    assert messages == [f"component 1 contracts pair {witness}"] * 2


def test_cycle_witness_unit_cycles():
    c4 = unit_cycle(4)
    tree = path_tree(c4.names, (F(1),) * 3)
    ei, (u, v) = cycle_embedding_witness(c4, tree, identity_tree_map(4))
    metric = geodesic_metric(c4)
    c0 = sum((metric.d(a, b) for a, b in c4.edges), F(0))
    assert tree.distance(u, v) >= (c0 - metric.d(u, v)) / 8


def test_cycle_witness_weighted_two_arc():
    g = sp.cycle_st_graph([1, 1], [1, 1])
    # Star with center s: legs to the other three vertices.
    tree = GeodesicTree(names=("x0", "x1", "x2", "x3"),
                        edges=((0, 1), (0, 2), (0, 3)),
                        weights=(F(1), F(2), F(1)))
    tmap = identity_tree_map(4)
    ok, _ = check_expansive(geodesic_metric(g), tree, tmap)
    assert ok
    ei, (u, v) = cycle_embedding_witness(g, tree, tmap)
    metric = geodesic_metric(g)
    c0 = sum((metric.d(a, b) for a, b in g.edges), F(0))
    assert tree.distance(u, v) >= (c0 - metric.d(u, v)) / 8


def test_cycle_witness_requires_expansive():
    c4 = unit_cycle(4)
    tree = path_tree(c4.names, (F(1, 8),) * 3)
    with pytest.raises(NotExpansive):
        cycle_embedding_witness(c4, tree, identity_tree_map(4))


def test_tree_type_rejects_graphs_with_cycles():
    # The diamond's four edges are one too many for a tree on 4 vertices.
    with pytest.raises(InputError):
        GeodesicTree(names=("a", "b", "c", "d"),
                     edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                     weights=(F(1, 2),) * 4)


def test_truncated_stretch_diamond_oracle_tree():
    mg = diamond()
    power = slash_power(mg, 1)
    res = oracle_min_expected_distortion(mg)
    out = truncated_distortion_bound(power, res.tree, res.tree_map)
    # Every edge ratio is at least 1 and the truncation cap is
    # (3/32) * 2 / (1/2) = 3/8, so the expectation is exactly 3/8.
    assert out.value == F(3, 8)
    assert out.holds and out.bound == F(3, 64)


def test_truncated_stretch_oracle_tree_second_base():
    mg = laakso1221()
    power = slash_power(mg, 1)
    res = oracle_min_expected_distortion(mg)
    out = truncated_distortion_bound(power, res.tree, res.tree_map)
    assert out.holds


def test_truncated_stretch_edge_size_violation():
    skew = sp.build_laakso((0, 2, 2, 0), branch1=[F(3, 4), F(1, 4)],
                           branch2=[F(3, 4), F(1, 4)])
    power = slash_power(skew, 1)
    res_tree = path_tree(("a", "b"), (F(1),))
    with pytest.raises(EdgeSizeViolation):
        truncated_distortion_bound(power, res_tree, TreeMap((0,) * 4))


def test_truncated_bound_seeded_trees_both_bases():
    for mg in (diamond(), laakso1221()):
        for n in (1, 2):
            power = slash_power(mg, n)
            metric = power.metric
            cycles = enumerate_max_cycles(power)
            for seed in range(8):
                tree, tmap = frt_tree(metric, random.Random(seed))
                out = truncated_distortion_bound(power, tree, tmap, cycles=cycles)
                assert out.holds
                assert len(out.cycle_witnesses) == len(cycles)


# Bases and powers on which the integer Thm 4.1 check must equal the
# Fraction reference.
REFERENCE_POWERS = [(diamond, 1), (diamond, 2), (diamond, 3), (laakso1221, 1),
                    (laakso1221, 2), (weighted1331, 2)]


@pytest.mark.parametrize("base, n", REFERENCE_POWERS)
def test_truncated_bound_matches_fraction_reference(base, n):
    # FRT trees stretch the first edge of every cycle and hit the truncation
    # cap on every edge; spanning trees with the graph's own weights stretch
    # none of their edges, so witnesses lie further along and values fall
    # below the cap.
    power = slash_power(base(), n)
    g = power.graph.graph
    cycles = enumerate_max_cycles(power)
    identity = identity_tree_map(g.vertex_count)
    cases = [frt_tree(power.metric, random.Random(seed)) for seed in range(4)]
    cases += [(tree, identity) for tree in (
        search_spanning_tree(g), search_spanning_tree(g, breadth_first=True),
        random_spanning_tree(g, random.Random(0)),
        random_spanning_tree(g, random.Random(1)))]
    for tree, tmap in cases:
        got = truncated_distortion_bound(power, tree, tmap, cycles=cycles)
        assert repr(got) == repr(reference_truncated_bound(power, tree, tmap, cycles))


def test_truncated_bound_of_a_spanning_tree_of_diamond3():
    # An exact value below the cap (the FRT goldens are all 3/4), with
    # witnesses past each cycle's first edge.
    power = slash_power(diamond(), 3)
    g = power.graph.graph
    out = truncated_distortion_bound(power, search_spanning_tree(g),
                                     identity_tree_map(g.vertex_count))
    assert (out.value, out.bound) == (F(149, 128), F(9, 64))
    assert out.holds
    assert set(out.cycle_witnesses) == {1, 3, 9, 11}
    assert len(out.cycle_witnesses) == 4096


def test_truncated_bound_at_the_witness_threshold():
    # Scaled by 15/8, each tree edge of the spanning tree of diamond^3 has
    # 8 d_T = 15/8 = c0 - d(e) exactly and counts as stretched; 1/1024 less,
    # and the witnesses move back past each cycle's first edge.
    power = slash_power(diamond(), 3)
    g = power.graph.graph
    tree, identity = search_spanning_tree(g), identity_tree_map(g.vertex_count)
    witnesses = []
    for factor in (F(15, 8), F(15, 8) - F(1, 1024)):
        scaled = scaled_tree(tree, factor)
        out = truncated_distortion_bound(power, scaled, identity)
        assert repr(out) == repr(reference_truncated_bound(power, scaled, identity))
        assert out.value == F(3, 2)
        witnesses.append(set(out.cycle_witnesses))
    assert witnesses == [{0, 2, 8, 10}, {1, 3, 9, 11}]


def test_truncated_bound_without_a_witness_raises(monkeypatch):
    power = slash_power(diamond(), 2)
    tree, tmap = frt_tree(power.metric, random.Random(0))
    cycles = enumerate_max_cycles(power)
    monkeypatch.setattr(distortion, "WITNESS_COEFF", F(100))
    for check in (truncated_distortion_bound, reference_truncated_bound):
        for given in (None, cycles):
            with pytest.raises(WitnessNotFound, match="without a stretched edge"):
                check(power, tree, tmap, given)


def test_truncated_bound_takes_only_the_cycles_of_its_own_power():
    # The witness pass reads the edge indices enumerate_max_cycles found for
    # this power: plain vertex tuples, or the cycles of an equal power built
    # again or of another power, are refused.
    power = slash_power(diamond(), 2)
    tree, tmap = frt_tree(power.metric, random.Random(0))
    cycles = enumerate_max_cycles(power)
    for other in (tuple(cycles), list(cycles),
                  enumerate_max_cycles(slash_power(diamond(), 2)),
                  enumerate_max_cycles(slash_power(diamond(), 1))):
        with pytest.raises(InputError, match="enumerate_max_cycles"):
            truncated_distortion_bound(power, tree, tmap, cycles=other)
    want = truncated_distortion_bound(power, tree, tmap)
    assert truncated_distortion_bound(power, tree, tmap, cycles=cycles) == want


def test_lower_bound_report():
    # The general bound the oracle command prints is the value over 8.
    assert oracle_min_expected_distortion(diamond()).value == F(3, 2)
    assert STEINER_FACTOR == 8
    path = sp.build_path([F(1, 2)] * 2)
    assert oracle_min_expected_distortion(path).value == 1


def test_distortion_report_rows():
    mg = diamond()
    emb = frt_embed(geodesic_metric(mg.graph), seed=3, samples=4)
    rep = distortion_report(mg.graph, emb)
    assert len(rep.rows) == 6
    assert rep.worst_stretch >= 1
    assert all(stretch >= 1 for *_, stretch in rep.rows)


def test_embeddings_all_lists_exactly_the_public_names():
    import types

    import slashpow.embeddings as emb
    bound = {name for name, value in vars(emb).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(emb.__all__)) == len(emb.__all__)
    assert set(emb.__all__) == bound
