from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_pairs,
    brute_force_distance,
    diamond,
    laakso1221,
    normalize,
    theta,
    unit_cycle,
)
from slashpow.constructions import build_path, uniform_laakso
from slashpow.core import (
    StGraph,
    concat_paths,
    enumerate_cycles,
    enumerate_st_paths,
    geodesic_metric,
    is_normalized_geodesic_st,
    path_length,
    st_path_length_range,
    undirected_st_path_length_range,
    validate_st_graph,
)
from slashpow.errors import (
    CapExceeded,
    DisconnectedGraph,
    InputError,
    InvalidPath,
    NotGeodesicStGraph,
)

fractions = st.builds(F, st.integers(1, 12), st.integers(1, 12))


def test_stgraph_rejects_loops_and_parallels():
    with pytest.raises(InputError):
        StGraph(names=("a", "b"), edges=((0, 0),), weights=(F(1),), s=0, t=1)
    with pytest.raises(InputError):
        StGraph(names=("a", "b"), edges=((0, 1), (1, 0)),
                weights=(F(1), F(1)), s=0, t=1)
    with pytest.raises(InputError):
        StGraph(names=("a", "a"), edges=((0, 1),), weights=(F(1),), s=0, t=1)


def test_validate_single_edge():
    g = StGraph(names=("s", "t"), edges=((0, 1),), weights=(F(1),), s=0, t=1)
    assert validate_st_graph(g).ok


def test_validate_diamond():
    assert validate_st_graph(diamond().graph).ok


def test_validate_flags_backward_edge():
    # Triangle s->a, s->b, a->b with t=b, plus an edge oriented back into s:
    # the backward edge lies on no directed s-t path and must be the only
    # failure the report names.
    g = StGraph(names=("s", "a", "b", "c"),
                edges=((0, 1), (0, 2), (1, 2), (3, 0)),
                weights=(F(1), F(1), F(1), F(1)), s=0, t=2)
    report = validate_st_graph(g)
    assert not report.ok
    assert report.edge_on_st_path == (True, True, True, False)
    assert report.connected


def test_validate_exhaustive_fallback():
    # s->a->b->t plus b->s: a directed cycle s,a,b,s. Every edge except b->s
    # lies on the simple path; b->s can never, since s starts every path.
    g = StGraph(names=("s", "a", "b", "t"),
                edges=((0, 1), (1, 2), (2, 3), (2, 0)),
                weights=(F(1),) * 4, s=0, t=3)
    report = validate_st_graph(g)
    assert report.edge_on_st_path == (True, True, True, False)


def test_geodesic_metric_examples():
    p = build_path([F(1, 3)] * 3).graph
    assert geodesic_metric(p).d(p.s, p.t) == 1

    d = diamond().graph
    m = geodesic_metric(d)
    assert m.d(1, 2) == 1  # the two branch midpoints route via s or t

    c = unit_cycle(4)
    mc = geodesic_metric(c)
    assert mc.d(0, 2) == 2
    assert mc.d(1, 3) == 2


def test_metric_matches_brute_force_small():
    for mg in (diamond(), laakso1221(), theta()):
        g = mg.graph
        m = geodesic_metric(g)
        for u, v in all_pairs(g.vertex_count):
            assert m.d(u, v) == brute_force_distance(g, u, v)
    c = unit_cycle(6)
    m = geodesic_metric(c)
    for u, v in all_pairs(6):
        assert m.d(u, v) == brute_force_distance(c, u, v)


def test_cached_metric_is_the_geodesic_metric():
    for g in (diamond().graph, laakso1221().graph, theta().graph, unit_cycle(5)):
        m = g.metric
        assert m is g.metric
        assert m.dist == geodesic_metric(g).dist
        for u, v in all_pairs(g.vertex_count):
            assert m.d(u, v) == brute_force_distance(g, u, v)


@pytest.mark.parametrize("check", [is_normalized_geodesic_st, normalize])
def test_validation_runs_once(monkeypatch, check):
    import slashpow.core as core

    calls = []
    real = core.validate_st_graph
    monkeypatch.setattr(core, "validate_st_graph",
                        lambda g: calls.append(g) or real(g))
    uneven = StGraph(names=("s", "a", "b", "t"),
                     edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                     weights=(F(1, 4), F(1, 4), F(1, 4), F(1, 4)), s=0, t=3)
    for g in (diamond().graph, laakso1221().graph, uneven):
        calls.clear()
        check(g)
        assert len(calls) == 1


def test_topological_sort_runs_once_per_graph(monkeypatch):
    import slashpow.core as core

    calls = []
    sort = core.StGraph.__dict__["topo_order"]
    real = sort.func
    monkeypatch.setattr(sort, "func", lambda g: calls.append(g) or real(g))
    checks = (enumerate_st_paths, st_path_length_range, validate_st_graph,
              is_normalized_geodesic_st)
    for g in (diamond().graph, laakso1221().graph, build_path([F(1)] * 3).graph):
        for check in checks:
            calls.clear()
            fresh = StGraph(names=g.names, edges=g.edges, weights=g.weights,
                            s=g.s, t=g.t)
            check(fresh)
            assert calls == [fresh]
        calls.clear()
        for check in checks * 2:
            check(g)
        assert calls == [g]


def test_metric_axioms_all_fixtures():
    import slashpow

    graphs = [diamond().graph, laakso1221().graph, theta().graph,
              slashpow.slash_power(diamond(), 3).graph.graph]
    for g in graphs:
        m = geodesic_metric(g)
        n = g.vertex_count
        for u in range(n):
            assert m.d(u, u) == 0
        for u, v in all_pairs(n):
            assert m.d(u, v) == m.d(v, u) > 0
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert m.d(u, w) <= m.d(u, v) + m.d(v, w)


def test_is_normalized():
    assert is_normalized_geodesic_st(diamond().graph)
    assert is_normalized_geodesic_st(laakso1221().graph)
    uneven = StGraph(names=("s", "a", "b", "t"),
                     edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                     weights=(F(1, 2), F(1, 2), F(1, 3), F(1, 3)), s=0, t=3)
    assert not is_normalized_geodesic_st(uneven)


def test_normalize():
    two = StGraph(names=("a", "b", "c"), edges=((0, 1), (1, 2)),
                  weights=(F(1), F(1)), s=0, t=2)
    assert normalize(two).weights == (F(1, 2), F(1, 2))

    d = diamond().graph.with_weights((F(1),) * 4)
    assert set(normalize(d).weights) == {F(1, 2)}

    bad = StGraph(names=("s", "a", "t"), edges=((0, 1), (1, 2), (0, 2)),
                  weights=(F(1), F(1), F(1)), s=0, t=2)
    with pytest.raises(NotGeodesicStGraph):
        normalize(bad)


def test_normalize_idempotent():
    for g in (diamond().graph.with_weights((F(3, 7),) * 4),
              unit_cycle(4), laakso1221().graph):
        once = normalize(g)
        assert normalize(once).weights == once.weights


def test_st_path_partial_sums():
    # Along any s-t path of a geodesic s-t graph, distances telescope.
    for mg in (diamond(), laakso1221(), theta(), uniform_laakso((2, 3, 3, 1))):
        g = mg.graph
        m = geodesic_metric(g)
        for p in enumerate_st_paths(g):
            acc = [F(0)]
            for a, b in zip(p, p[1:]):
                acc.append(acc[-1] + path_length(g, (a, b)))
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    assert m.d(p[i], p[j]) == acc[j] - acc[i]


def test_path_length():
    c = unit_cycle(4)
    assert path_length(c, (0, 1, 2)) == 2
    d = diamond().graph
    assert path_length(d, (0, 1, 3)) == 1
    assert path_length(d, (0,)) == 0
    with pytest.raises(InvalidPath):
        path_length(d, ())
    with pytest.raises(InvalidPath):
        path_length(d, (0, 3))
    with pytest.raises(InvalidPath):
        path_length(d, (0, 1, 0))


def test_concat_paths():
    assert concat_paths((0, 1), (1, 2)) == (0, 1, 2)
    with pytest.raises(InvalidPath):
        concat_paths((0, 1), (2, 3))
    with pytest.raises(InvalidPath):
        concat_paths((0, 1), (1, 0))


def test_enumerate_st_paths():
    assert len(enumerate_st_paths(diamond().graph)) == 2
    assert len(enumerate_st_paths(laakso1221().graph)) == 2
    assert enumerate_st_paths(build_path([F(1)] * 3).graph) == ((0, 1, 2, 3),)
    paths = enumerate_st_paths(diamond().graph)
    assert paths == tuple(sorted(paths))


def test_enumerate_st_paths_cap_names_count(monkeypatch):
    g = diamond().graph
    monkeypatch.setenv("SLASHPOW_MAX_PATHS", "1")
    with pytest.raises(CapExceeded) as err:
        enumerate_st_paths(g)
    assert "2" in str(err.value)


def test_st_path_length_range():
    assert st_path_length_range(diamond().graph) == (F(1), F(1))
    uneven = StGraph(names=("s", "a", "b", "t"),
                     edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                     weights=(F(1, 2), F(1, 2), F(1, 3), F(1, 3)), s=0, t=3)
    assert st_path_length_range(uneven) == (F(2, 3), F(1))


def test_st_path_length_range_with_a_directed_cycle():
    # a -> b -> c -> a is a directed cycle, so there is no topological order
    # and the range comes from enumerating the simple s-t paths:
    # s c t, s c a b t, s a b t and s a b c t.
    s, a, b, c, t = range(5)
    g = StGraph(names=("s", "a", "b", "c", "t"),
                edges=((s, a), (a, b), (b, c), (c, a), (b, t), (c, t), (s, c)),
                weights=(F(1),) * 7, s=s, t=t)
    assert validate_st_graph(g).ok and g.topo_order is None
    assert len(enumerate_st_paths(g)) == 4
    assert st_path_length_range(g) == (F(2), F(4))


def test_enumerate_cycles():
    assert enumerate_cycles(build_path([F(1)] * 2).graph) == ()
    assert len(enumerate_cycles(diamond().graph)) == 1
    assert len(enumerate_cycles(theta().graph)) == 1
    # Three parallel 2-edge branches pair up into three cycles.
    from helpers import three_branch
    assert len(enumerate_cycles(three_branch().graph)) == 3


@given(st.lists(fractions, min_size=1, max_size=6))
@settings(max_examples=60)
def test_normalize_path_property(weights):
    g = build_path(weights).graph
    norm = normalize(g)
    assert is_normalized_geodesic_st(norm)
    assert normalize(norm).weights == norm.weights


@st.composite
def oriented_graphs(draw):
    """Up to 7 vertices, each edge oriented either way, so directed cycles
    and edges off every s-t path occur."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = tuple((v, u) if draw(st.booleans()) else (u, v) for u, v in chosen)
    weights = tuple(draw(fractions) for _ in edges)
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    return StGraph(names=tuple(map(str, range(n))), edges=edges,
                   weights=weights, s=s, t=t)


def _canonical_cycle(c):
    i = c.index(min(c))
    c = c[i:] + c[:i]
    return tuple(c) if c[1] < c[-1] else (c[0],) + tuple(reversed(c[1:]))


@given(oriented_graphs())
@settings(max_examples=300)
def test_path_searches_match_networkx(g):
    dg = nx.DiGraph(g.edges)
    dg.add_nodes_from(range(g.vertex_count))
    ug = dg.to_undirected()

    st_paths = sorted(map(tuple, nx.all_simple_paths(dg, g.s, g.t)))
    assert list(enumerate_st_paths(g)) == st_paths

    on_path = {pair for p in st_paths for pair in zip(p, p[1:])}
    report = validate_st_graph(g)
    assert report.edge_on_st_path == tuple(e in on_path for e in g.edges)
    assert report.connected == nx.is_connected(ug)

    lengths = [sum(g.weights[g.edge_index(a, b)] for a, b in zip(p, p[1:]))
               for p in nx.all_simple_paths(ug, g.s, g.t)]
    if lengths:
        assert undirected_st_path_length_range(g) == (min(lengths), max(lengths))
    else:
        with pytest.raises(DisconnectedGraph):
            undirected_st_path_length_range(g)

    cycles = sorted(_canonical_cycle(c) for c in nx.simple_cycles(ug))
    assert list(enumerate_cycles(g)) == cycles
