"""The integer kernels against slow, independent references.

Shortest paths, tree distance tables, ball tests, contraction tests and
cycle validation run on integers over a common denominator; every test
here recomputes the same quantity with plain Fraction arithmetic."""

import random
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import (
    all_pairs,
    brute_force_distance,
    diamond,
    scaled_tree,
    unit_cycle_measured,
)
from slashpow.constructions import MeasuredGraph
from slashpow.core import (
    StGraph,
    cycle_edge_indices,
    enumerate_cycles,
    geodesic_metric,
    single_source_distances,
)
from slashpow.embeddings import (
    GeodesicTree,
    StochasticTreeEmbedding,
    check_expansive,
    cycle_embedding_witness,
    distortion_report,
    expected_distortion,
    frt_embed,
    frt_tree,
    identity_tree_map,
    iter_labeled_trees,
    optimal_tree_weights,
    stochastic_distortion_of,
    truncated_distortion_bound,
)
from slashpow.embeddings.frt import RADIUS_GRID
from slashpow.errors import InvalidPath, NotExpansive

DENOMINATORS = (1, 2, 3, 5, 7, 12)


def _weight(rng: random.Random) -> F:
    return F(rng.randint(1, 9), rng.choice(DENOMINATORS))


def random_graph(rng: random.Random, n: int, extra: int) -> StGraph:
    """Connected simple graph: a random spanning tree plus extra edges."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if (u, v) not in pairs and (v, u) not in pairs:
            pairs.add((u, v))
    edges = tuple(sorted(pairs))
    return StGraph(names=tuple(f"v{i}" for i in range(n)), edges=edges,
                   weights=tuple(_weight(rng) for _ in edges), s=0, t=n - 1)


def random_tree(rng: random.Random, n: int) -> GeodesicTree:
    edges = tuple((rng.randrange(v), v) for v in range(1, n))
    return GeodesicTree(names=tuple(f"x{i}" for i in range(n)), edges=edges,
                        weights=tuple(_weight(rng) for _ in edges))


def path_sum(tree: GeodesicTree, x: int, y: int) -> F:
    """Weight of the tree path from x to y, by a walk over the tree edges."""
    back = {x: (None, F(0))}
    stack = [x]
    while stack:
        a = stack.pop()
        for i, (u, v) in enumerate(tree.edges):
            for here, there in ((u, v), (v, u)):
                if here == a and there not in back:
                    back[there] = (a, tree.weights[i])
                    stack.append(there)
    total = F(0)
    while y != x:
        y, w = back[y]
        total += w
    return total


def test_integer_dijkstra_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, extra=rng.randint(0, 6))
        metric = geodesic_metric(g)
        scale, rows = metric.scale, metric.rows
        for u in range(n):
            from_u = single_source_distances(g, u)
            for v in range(n):
                want = brute_force_distance(g, u, v) if u != v else F(0)
                assert isinstance(from_u[v], int)
                assert F(from_u[v], g.weight_scale) == want
                assert metric.d(u, v) == want
                assert isinstance(rows[u][v], int) and F(rows[u][v], scale) == want


def test_tree_table_matches_path_sums():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        tree = random_tree(rng, n)
        points = rng.sample(range(n), rng.randint(1, n))
        points.append(points[0])  # a repeated point gets its own row
        scale, rows = tree.scaled_distances(points)
        assert len(rows) == len(points)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                want = path_sum(tree, x, y)
                assert isinstance(rows[i][j], int) and F(rows[i][j], scale) == want
                assert tree.distance(x, y) == want


class FixedRng:
    """Draws a fixed radius numerator and leaves the order unshuffled."""

    def __init__(self, b: int):
        self.b = b

    def randrange(self, lo: int, hi: int) -> int:
        assert lo <= self.b < hi
        return self.b

    def shuffle(self, order) -> None:
        pass


def test_point_at_exactly_the_radius_joins_the_ball():
    # Path a - b - c with d(a, b) = 1/4 and diameter 1, so the first level
    # has radius beta * 2^-1 = 1/4 with beta = 1/2: b lies on the boundary
    # of a's ball and joins it, so a and b split one level later.
    g = StGraph(names=("a", "b", "c"), edges=((0, 1), (1, 2)),
                weights=(F(1, 4), F(3, 4)), s=0, t=2)
    tree, tmap = frt_tree(g.metric, FixedRng(RADIUS_GRID // 2))
    assert tree.distance(tmap(0), tmap(1)) == 1
    assert tree.distance(tmap(0), tmap(2)) == tree.distance(tmap(1), tmap(2)) == F(5, 2)
    # One step inside the grid the radius is larger and nothing changes;
    # one step below it b is outside, and all three split at once.
    tree, tmap = frt_tree(g.metric, FixedRng(RADIUS_GRID // 2 + 1))
    assert tree.distance(tmap(0), tmap(1)) == 1
    h = StGraph(names=("a", "b", "c"), edges=((0, 1), (1, 2)),
                weights=(F(1, 4) + F(1, 10 ** 9), F(3, 4) - F(1, 10 ** 9)),
                s=0, t=2)
    tree, tmap = frt_tree(h.metric, FixedRng(RADIUS_GRID // 2))
    assert tree.distance(tmap(0), tmap(1)) == 2


def shortest_path_tree(g: StGraph) -> GeodesicTree:
    """Tree of first shortest-path edges from vertex 0: it reproduces d(0, v)
    exactly and dominates every other distance."""
    dist = single_source_distances(g, 0)
    edges, weights = [], []
    for v in range(1, g.vertex_count):
        u, ei = next((u, ei) for u, ei in g.und_adj[v]
                     if dist[u] + g.int_weights[ei] == dist[v])
        edges.append((u, v))
        weights.append(g.weights[ei])
    return GeodesicTree(names=g.names, edges=tuple(edges), weights=tuple(weights))


def first_contraction(g: StGraph, tree: GeodesicTree):
    return next(((u, v) for u, v in all_pairs(g.vertex_count)
                 if path_sum(tree, u, v) < g.metric.d(u, v)), None)


def test_equal_tree_distance_is_not_a_contraction():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7), extra=rng.randint(0, 5))
        n = g.vertex_count
        tree, tmap = shortest_path_tree(g), identity_tree_map(n)
        assert tree.distance(0, n - 1) == g.metric.d(0, n - 1)
        assert check_expansive(g.metric, tree, tmap) == (True, None)
        one = StochasticTreeEmbedding(components=((tree, tmap, F(1)),))
        assert stochastic_distortion_of(g, one) >= 1

        # Shrunk by one part in 10^9, the equal pairs contract, the first
        # in pair order is reported, and for the second of two components.
        shrunk = scaled_tree(tree, 1 - F(1, 10 ** 9))
        pair = first_contraction(g, shrunk)
        assert pair is not None
        assert check_expansive(g.metric, shrunk, tmap) == (False, pair)
        two = StochasticTreeEmbedding(components=((tree, tmap, F(1, 2)),
                                                  (shrunk, tmap, F(1, 2))))
        with pytest.raises(NotExpansive) as err:
            stochastic_distortion_of(g, two)
        assert str(err.value) == f"component 1 contracts pair {pair}"


def test_pair_rows_match_fraction_sums():
    mg = sp.slash_power(diamond(), 2).graph
    g = mg.graph
    emb = frt_embed(g.metric, seed=5, samples=3)
    report = distortion_report(g, emb)
    assert len(report.rows) == g.vertex_count * (g.vertex_count - 1) // 2
    for (u, v), (ru, rv, d, mean, stretch) in zip(all_pairs(g.vertex_count),
                                                   report.rows):
        want = sum((p * path_sum(tree, tmap(u), tmap(v)) for tree, tmap, p in emb),
                   F(0))
        assert (ru, rv, d, mean, stretch) == (u, v, g.metric.d(u, v), want,
                                              want / g.metric.d(u, v))


def test_component_distortion_matches_fraction_sums():
    weighted = sp.build_laakso((1, 2, 2, 0), stem=[F(3, 7)],
                               branch1=[F(1, 7), F(3, 7)],
                               branch2=[F(2, 7), F(2, 7)])
    for base in (diamond(), weighted):
        mg = sp.slash_power(base, 2).graph
        g = mg.graph
        emb = frt_embed(g.metric, seed=9, samples=3)
        for tree, tmap, _ in emb:
            want = sum((mg.nu[ei] * path_sum(tree, tmap(u), tmap(v)) / g.metric.d(u, v)
                        for ei, (u, v) in enumerate(g.edges)), F(0))
            assert expected_distortion(mg, tree, tmap) == want


def test_cycle_witness_is_the_first_stretched_edge():
    # Every labeled topology of the unit 4- and 5-cycles with LP-optimal
    # weights, against a path-sum reference.  On a unit cycle every edge of
    # an expansive tree qualifies; the two 4-cycles of length 2 put their
    # first edge at d = c0/9, where 8 d_T >= c0 - d holds with equality for
    # d_T = d, and at d = c0/10, where it fails.
    def four_cycle(first):
        g = sp.cycle_st_graph([first, 1 - first], [F(1, 2), F(1, 2)])
        return MeasuredGraph(graph=g, nu=(F(1, 4),) * 4)

    for mg in (unit_cycle_measured(4), unit_cycle_measured(5),
               four_cycle(F(2, 9)), four_cycle(F(1, 5))):
        g = mg.graph
        n = g.vertex_count
        d = g.metric.d
        c0 = sum((d(u, v) for u, v in g.edges), F(0))
        tmap = identity_tree_map(n)
        for _, edges in iter_labeled_trees(n):
            _, weights = optimal_tree_weights(g.metric, mg.nu, edges)
            tree = GeodesicTree(names=g.names, edges=edges, weights=weights)
            want = next((ei, (u, v)) for ei, (u, v) in enumerate(g.edges)
                        if 8 * path_sum(tree, u, v) >= c0 - d(u, v))
            assert cycle_embedding_witness(g, tree, tmap) == want


def test_distortion_layer_reads_only_tree_tables(monkeypatch):
    def refuse(*_):
        raise AssertionError("GeodesicTree.distance called")

    mg = diamond()
    power = sp.slash_power(mg, 2)
    metric = power.metric
    tree, tmap = frt_tree(metric, random.Random(4))
    cycle = unit_cycle_measured(5).graph
    cycle_tree = GeodesicTree(names=cycle.names,
                              edges=tuple((i, i + 1) for i in range(4)),
                              weights=(F(1),) * 4)
    monkeypatch.setattr(GeodesicTree, "distance", refuse)
    distortion_report(power.graph.graph, frt_embed(metric, seed=2, samples=2))
    expected_distortion(power.graph, tree, tmap)
    assert truncated_distortion_bound(power, tree, tmap).holds
    cycle_embedding_witness(cycle, cycle_tree, identity_tree_map(5))


def test_trees_from_different_seeds_keep_their_distances():
    metric = sp.slash_power(diamond(), 2).metric
    for seed in range(5):
        tree, tmap = frt_tree(metric, random.Random(seed))
        points = tmap.vertex_map
        scale, rows = tree.scaled_distances(points)
        for i, j in all_pairs(len(points)):
            assert F(rows[i][j], scale) == path_sum(tree, points[i], points[j])


def test_cycle_validation_is_remembered_per_graph():
    g = diamond().graph
    cycle = enumerate_cycles(g)[0]
    first = cycle_edge_indices(g, cycle)
    assert cycle_edge_indices(g, list(cycle)) == first
    assert len(first) == len(cycle)
    for i, ei in enumerate(first):
        assert set(g.edges[ei]) == {cycle[i], cycle[(i + 1) % len(cycle)]}
    # The same vertex tuple is no cycle of a path on as many vertices, however
    # often the diamond has validated it.
    path = StGraph(names=g.names, edges=((0, 1), (1, 2), (2, 3)),
                   weights=(F(1, 3),) * 3, s=0, t=3)
    for _ in range(3):
        with pytest.raises(InvalidPath):
            cycle_edge_indices(path, cycle)
    # A non-cycle of the diamond raises on the first call and every later one.
    not_cycle = (cycle[0], cycle[1], cycle[3])
    for _ in range(3):
        with pytest.raises(InvalidPath):
            cycle_edge_indices(g, not_cycle)
        with pytest.raises(InvalidPath):
            cycle_edge_indices(g, cycle[:2] + cycle[:1])
    assert not_cycle not in g.cycle_edges
