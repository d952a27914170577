import itertools
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import diamond, laakso1221, unit_cycle_measured
from slashpow.core import geodesic_metric
from slashpow.embeddings import (
    check_expansive,
    iter_labeled_trees,
    optimal_tree_weights,
    oracle_min_expected_distortion,
    prufer_to_edges,
    tree_pair_paths,
)
from slashpow.errors import CapExceeded, InputError

# Golden values, first computed by this oracle itself (topology enumeration
# plus exact LP) and confirmed against the by-hand candidates; frozen.
GOLDEN_DIAMOND = F(3, 2)
GOLDEN_UNIT_4_CYCLE = F(3, 2)
GOLDEN_LAAKSO_1221 = F(5, 4)


def test_prufer_decode_basics():
    edges = prufer_to_edges((), 2)
    assert edges == ((0, 1),)
    # n=4: all 16 labeled trees, pairwise distinct, each connected.
    seen = set()
    for seq, edges in iter_labeled_trees(4):
        assert len(edges) == 3
        seen.add(frozenset(edges))
        paths = tree_pair_paths(edges, 4)
        assert len(paths) == 6
    assert len(seen) == 16
    assert sum(1 for _ in iter_labeled_trees(5)) == 125


def test_oracle_two_point():
    assert oracle_min_expected_distortion(sp.build_path([F(1)])).value == 1


def test_oracle_path_identity():
    assert oracle_min_expected_distortion(sp.build_path([F(1, 2)] * 2)).value == 1


def test_oracle_diamond_golden():
    res = oracle_min_expected_distortion(diamond())
    assert res.value == GOLDEN_DIAMOND
    # The witness is expansive and achieves its own value.
    metric = geodesic_metric(diamond().graph)
    ok, _ = check_expansive(metric, res.tree, res.tree_map)
    assert ok
    from slashpow.embeddings import expected_distortion

    assert expected_distortion(diamond(), res.tree, res.tree_map) == res.value


def test_oracle_unit_4_cycle_golden():
    res = oracle_min_expected_distortion(unit_cycle_measured(4))
    assert res.value == GOLDEN_UNIT_4_CYCLE


def test_oracle_laakso_1221_golden():
    # All 1,296 topologies on six vertices; the benchmark checks these values.
    res = oracle_min_expected_distortion(laakso1221())
    assert res.value == GOLDEN_LAAKSO_1221
    assert res.prufer == (1, 1, 2, 4)
    assert res.tree.weights == (F(1, 4),) * 5


def test_oracle_deterministic_tie_break():
    a = oracle_min_expected_distortion(diamond())
    b = oracle_min_expected_distortion(diamond())
    assert a.prufer == b.prufer
    assert a.tree.weights == b.tree.weights


def test_oracle_vertex_cap():
    big = sp.slash_power(diamond(), 2).graph
    with pytest.raises(CapExceeded):
        oracle_min_expected_distortion(big)


def _vertex_enumeration_optimum(metric, nu, edges):
    """Independent exact solver: scan all basic points of the feasible set."""
    g = metric.source
    n = g.vertex_count
    paths = tree_pair_paths(edges, n)
    nvar = len(edges)
    constraints = []
    for (u, v), through in sorted(paths.items()):
        row = [F(0)] * nvar
        for ei in through:
            row[ei] = F(1)
        constraints.append((row, metric.d(u, v)))
    constraints += [([F(1 if j == i else 0) for j in range(nvar)], F(0))
                    for i in range(nvar)]
    cost = [F(0)] * nvar
    for gi, (u, v) in enumerate(g.edges):
        for ei in paths[(min(u, v), max(u, v))]:
            cost[ei] += nu[gi] / metric.d(u, v)

    from test_lp import _solve_square

    best = None
    for subset in itertools.combinations(range(len(constraints)), nvar):
        sol = _solve_square([constraints[i][0] for i in subset],
                            [constraints[i][1] for i in subset])
        if sol is None or any(x < 0 for x in sol):
            continue
        if any(sum(r * x for r, x in zip(row, sol)) < b for row, b in constraints):
            continue
        val = sum(c * x for c, x in zip(cost, sol))
        if best is None or val < best:
            best = val
    return best


@pytest.mark.parametrize("mg", [diamond(), unit_cycle_measured(4)],
                         ids=["diamond", "cycle4"])
def test_lp_against_vertex_enumeration(mg):
    metric = geodesic_metric(mg.graph)
    for _, edges in iter_labeled_trees(mg.graph.vertex_count):
        lp_value, _ = optimal_tree_weights(metric, mg.nu, edges)
        assert lp_value == _vertex_enumeration_optimum(metric, mg.nu, edges)


def test_lp_against_vertex_enumeration_5_cycle():
    mg = unit_cycle_measured(5)
    metric = geodesic_metric(mg.graph)
    for i, (_, edges) in enumerate(iter_labeled_trees(5)):
        if i % 7:  # sample a quarter of the 125 topologies for runtime
            continue
        lp_value, _ = optimal_tree_weights(metric, mg.nu, edges)
        assert lp_value == _vertex_enumeration_optimum(metric, mg.nu, edges)


def _grid_refined_optimum(metric, nu, edges, rounds=18, points=7):
    """Float grid search with window refinement around the best feasible
    point; validates the exact LP to about 1e-6."""
    g = metric.source
    n = g.vertex_count
    paths = tree_pair_paths(edges, n)
    nvar = len(edges)
    pair_rows = []
    for (u, v), through in sorted(paths.items()):
        pair_rows.append((tuple(through), float(metric.d(u, v))))
    cost = [0.0] * nvar
    for gi, (u, v) in enumerate(g.edges):
        for ei in paths[(min(u, v), max(u, v))]:
            cost[ei] += float(nu[gi] / metric.d(u, v))

    hi = 2.0 * float(metric.diameter)
    center = [hi / 2] * nvar
    width = hi
    best = None
    for _ in range(rounds):
        axes = []
        for c in center:
            lo = max(0.0, c - width / 2)
            axes.append([lo + (c + width / 2 - lo) * i / (points - 1)
                         for i in range(points)])
        for combo in itertools.product(*axes):
            feasible = all(
                sum(combo[ei] for ei in through) >= b - 1e-12
                for through, b in pair_rows)
            if feasible:
                val = sum(ci * xi for ci, xi in zip(cost, combo))
                if best is None or val < best[0]:
                    best = (val, combo)
        if best is not None:
            center = list(best[1])
        width /= 3.0
    assert best is not None
    return best[0]


def test_lp_against_grid_refinement():
    # Exact LP optimum within 1e-6 of an independent float grid search.
    mg = diamond()
    metric = geodesic_metric(mg.graph)
    for _, edges in iter_labeled_trees(4):
        lp_value, _ = optimal_tree_weights(metric, mg.nu, edges)
        grid = _grid_refined_optimum(metric, mg.nu, edges)
        assert grid >= float(lp_value) - 1e-9
        assert abs(grid - float(lp_value)) < 1e-6

    five = unit_cycle_measured(5)
    metric5 = geodesic_metric(five.graph)
    for seq, edges in itertools.islice(iter_labeled_trees(5), 0, 125, 25):
        lp_value, _ = optimal_tree_weights(metric5, five.nu, edges)
        grid = _grid_refined_optimum(metric5, five.nu, edges)
        assert abs(grid - float(lp_value)) < 1e-6


def test_optimal_weights_always_expansive():
    from slashpow.embeddings import GeodesicTree, identity_tree_map

    mg = unit_cycle_measured(4)
    metric = geodesic_metric(mg.graph)
    for _, edges in iter_labeled_trees(4):
        _, weights = optimal_tree_weights(metric, mg.nu, edges)
        tree = GeodesicTree(names=mg.graph.names, edges=edges, weights=weights)
        ok, _ = check_expansive(metric, tree, identity_tree_map(4))
        assert ok


@pytest.mark.parametrize("seq", [(-1,), (3,), (0, 4)])
def test_prufer_entries_out_of_range_are_refused(seq):
    with pytest.raises(InputError, match="entries must lie in"):
        prufer_to_edges(seq, len(seq) + 2)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2)],                  # too few edges
    [(0, 1), (1, 2), (2, 3), (0, 3)],  # the cycle itself
    [(0, 1), (0, 1), (2, 3)],          # n-1 edges, not connected
    [(0, 1), (1, 2), (2, 4)],          # an endpoint outside the vertices
    [(0, 1), (1, 2), (-1, 0)],
], ids=["short", "cycle", "disconnected", "endpoint-4", "endpoint-minus-1"])
def test_optimal_tree_weights_needs_a_spanning_tree(edges):
    mg = unit_cycle_measured(4)
    with pytest.raises(InputError, match="not form a spanning tree"):
        optimal_tree_weights(geodesic_metric(mg.graph), mg.nu, edges)
