import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lp_reference
import slashpow as sp
from helpers import diamond, laakso1221, unit_cycle_measured
from slashpow.constructions import MeasuredGraph
from slashpow.core import GeodesicMetric, StGraph, geodesic_metric
from slashpow.embeddings import (
    check_expansive,
    iter_labeled_trees,
    optimal_tree_weights,
    oracle_min_expected_distortion,
    prufer_to_edges,
)
from slashpow.embeddings.lp import solve_min
from slashpow.errors import CapExceeded, InputError

# Golden values, first computed by this oracle itself (topology enumeration
# plus exact LP) and confirmed against the by-hand candidates; frozen.
GOLDEN_DIAMOND = F(3, 2)
GOLDEN_UNIT_4_CYCLE = F(3, 2)
GOLDEN_LAAKSO_1221 = F(5, 4)


def tree_pair_paths(edges, n):
    """Reference: for every pair u<v, the edge indices on the unique tree
    path, found by a separate walk from every vertex."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    paths = {}
    for src in range(n):
        stack = [(src, ())]
        seen = {src}
        while stack:
            x, used = stack.pop()
            for y, ei in adj[x]:
                if y not in seen:
                    seen.add(y)
                    through = used + (ei,)
                    if src < y:
                        paths[(src, y)] = through
                    stack.append((y, through))
    return paths


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


def _full_pair_lp(metric, nu, edges):
    """The oracle's LP with every pair row: Fraction costs nu(g)/d(g) summed
    per tree edge, one 0/1 tree-path row per vertex pair, in sorted order."""
    g = metric.source
    paths = tree_pair_paths(edges, g.vertex_count)
    cost = [F(0)] * len(edges)
    for gi, (u, v) in enumerate(g.edges):
        for ei in paths[(min(u, v), max(u, v))]:
            cost[ei] += nu[gi] / metric.d(u, v)
    rows, rhs = [], []
    for (u, v), through in sorted(paths.items()):
        rows.append([int(ei in through) for ei in range(len(edges))])
        rhs.append(metric.d(u, v))
    return cost, rows, rhs


def _matches_full_pair_lp(metric, nu, edges):
    """Whether the tree has a zero-cost edge, after requiring that
    optimal_tree_weights and both solvers on the full LP agree exactly."""
    got = optimal_tree_weights(metric, nu, edges)
    cost, rows, rhs = _full_pair_lp(metric, nu, edges)
    for solver in (solve_min, lp_reference.solve_min):
        res = solver(cost, rows, rhs)
        assert got == (res.value, res.x)
    return 0 in cost


@pytest.mark.parametrize("mg, stride", [(diamond(), 1),
                                        (unit_cycle_measured(4), 1),
                                        (unit_cycle_measured(5), 1),
                                        (laakso1221(), 13),
                                        (unit_cycle_measured(6), 13)],
                         ids=["diamond", "cycle4", "cycle5",
                              "laakso1221-every-13th", "cycle6-every-13th"])
def test_tree_edge_rows_give_the_full_pair_lp_solution(mg, stride):
    metric = geodesic_metric(mg.graph)
    for _, edges in list(iter_labeled_trees(mg.graph.vertex_count))[::stride]:
        _matches_full_pair_lp(metric, mg.nu, edges)


@st.composite
def restricted_measured_graphs(draw):
    """A connected graph on 3 to 5 vertices whose measure vanishes on every
    edge at one vertex z, so any tree with z as a leaf has a zero-cost edge."""
    n = draw(st.integers(3, 5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=4)):
        if u < v and (u, v) not in edges:
            edges.append((u, v))
    weights = [draw(st.sampled_from((F(1), F(1, 2), F(2, 3), F(3, 2))))
               for _ in edges]
    z = draw(st.integers(0, n - 1))
    masses = [0 if z in e else draw(st.integers(0, 3)) for e in edges]
    assume(any(masses))
    g = StGraph(names=tuple(f"v{i}" for i in range(n)), edges=tuple(edges),
                weights=tuple(weights), s=0, t=n - 1)
    return MeasuredGraph(graph=g, nu=tuple(F(x, sum(masses)) for x in masses),
                         restricted=True)


@settings(max_examples=20)
@given(restricted_measured_graphs())
def test_zero_cost_tree_edges_give_the_full_pair_lp_solution(mg):
    # Zero costs are where the optimum need not be unique: the solution
    # must still be the vertex the full LP's Bland pivots reach.  Every 3rd
    # of the 125 five-vertex trees keeps the sweep short.
    n = mg.graph.vertex_count
    metric = geodesic_metric(mg.graph)
    trees = list(iter_labeled_trees(n))[::3 if n == 5 else 1]
    zero_cost = [_matches_full_pair_lp(metric, mg.nu, edges) for _, edges in trees]
    assert any(zero_cost)


@pytest.mark.parametrize("change", [
    lambda nu: nu[:-1],
    lambda nu: nu + (F(0),),
    lambda nu: (-nu[0], nu[1] + 2 * nu[0]) + nu[2:],
], ids=["short", "long", "negative"])
def test_optimal_tree_weights_refuses_a_bad_measure(change):
    mg = laakso1221()
    edges = prufer_to_edges((1, 1, 2, 4), 6)
    with pytest.raises(InputError, match="measure"):
        optimal_tree_weights(geodesic_metric(mg.graph), change(mg.nu), edges)


def test_undominated_pair_is_refused():
    # d(0, 2) = 3 on the unit 4-cycle breaks the triangle inequality through
    # vertex 1, so the path tree's weights d(a_e, b_e) leave (0, 2) short;
    # d(0, 1) = 4 leaves (0, 1) short on the tree path 0-2-1.
    mg = unit_cycle_measured(4)
    metric = geodesic_metric(mg.graph)
    for (u, v), factor, tree in (((0, 2), 3, [(0, 1), (1, 2), (2, 3)]),
                                 ((0, 1), 4, [(0, 2), (1, 2), (1, 3)])):
        rows = [list(row) for row in metric.rows]
        rows[u][v] = rows[v][u] = factor * metric.rows[0][1]
        bad = GeodesicMetric(source=mg.graph, scale=metric.scale,
                             rows=tuple(map(tuple, rows)))
        with pytest.raises(InputError, match=rf"pair \({u}, {v}\) is not dominated"):
            optimal_tree_weights(bad, mg.nu, tree)
