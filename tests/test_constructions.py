import itertools
import random
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slashpow as sp
from helpers import all_pairs, diamond, laakso1221, normalize, three_branch, unit_cycle
from slashpow.constructions import (
    LaaksoParams,
    LaaksoStructure,
    as_laakso,
    build_cycle,
    build_laakso,
    build_laakso_subgraph,
    build_path,
    laakso_from_cycle,
    uniform_laakso,
)
from slashpow.core import (
    StGraph,
    cycle_edge_indices,
    enumerate_cycles,
    geodesic_metric,
    is_normalized_geodesic_st,
    validate_st_graph,
)
from slashpow.errors import InputError, NoBalancedSplit, NotLaakso

fractions = st.builds(F, st.integers(1, 9), st.integers(1, 9))
weight_lists = st.lists(fractions, min_size=1, max_size=6)


def split_of(total: F, parts: int, data) -> list[F]:
    """Random composition of `total` into `parts` positive rationals."""
    weights = [data.draw(st.integers(1, 8), label="part") for _ in range(parts)]
    s = sum(weights)
    return [total * w / s for w in weights]


def test_build_path_examples():
    assert build_path([F(1)]).nu == (F(1),)
    assert build_path([F(1), F(1)]).nu == (F(1, 2), F(1, 2))
    assert build_path([F(1), F(2), F(1)]).nu == (F(1, 4), F(1, 2), F(1, 4))
    with pytest.raises(InputError):
        build_path([])


def test_build_cycle_examples():
    c = build_cycle([1, 1], [1, 1])
    assert set(c.nu) == {F(1, 4)}
    c2 = build_cycle([1, 1, 1], [3])
    assert c2.nu == (F(1, 6), F(1, 6), F(1, 6), F(1, 2))
    with pytest.raises(NoBalancedSplit):
        build_cycle([1], [2])


def test_build_laakso_examples():
    d = diamond()
    assert d.graph.vertex_count == 4 and d.graph.edge_count == 4
    assert set(d.nu) == {F(1, 4)}

    l = laakso1221()
    assert l.graph.edge_count == 6
    st_l = as_laakso(l.graph)
    stem_ids = {l.graph.edge_index(a, b)
                for seg in (st_l.stem, st_l.tail) for a, b in zip(seg, seg[1:])}
    for ei in range(6):
        assert l.nu[ei] == (F(1, 4) if ei in stem_ids else F(1, 8))

    mixed = build_laakso((0, 2, 3, 0), branch1=[F(1, 2)] * 2,
                         branch2=[F(1, 3)] * 3)
    assert sum(mixed.nu) == 1

    with pytest.raises(InputError):
        build_laakso((0, 2, 2, 0), branch1=[F(1, 2), F(1, 2)],
                     branch2=[F(1, 3), F(1, 3)])


def test_builders_validate_and_normalize():
    outputs = [build_path([F(2), F(3)]),
               build_cycle([2, 1], [1, 2]),
               build_laakso((1, 2, 3, 2), stem=[F(2)],
                            branch1=[F(1), F(2)], branch2=[F(1), F(1), F(1)],
                            tail=[F(1), F(3)])]
    for mg in outputs:
        assert validate_st_graph(mg.graph).ok
        assert is_normalized_geodesic_st(normalize(mg.graph))


@given(weight_lists)
@settings(max_examples=100)
def test_path_measure_sums_to_one(weights):
    assert sum(build_path(weights).nu) == 1


@given(st.data())
@settings(max_examples=100)
def test_cycle_measure_sums_to_one(data):
    total = data.draw(fractions, label="half length")
    n1 = data.draw(st.integers(1, 4), label="arc1 edges")
    n2 = data.draw(st.integers(max(1, 3 - n1), 4), label="arc2 edges")
    mg = build_cycle(split_of(total, n1, data), split_of(total, n2, data))
    assert sum(mg.nu) == 1
    assert validate_st_graph(mg.graph).ok


@given(st.data())
@settings(max_examples=100)
def test_laakso_measure_sums_to_one(data):
    k = data.draw(st.integers(0, 2), label="k")
    m = data.draw(st.integers(0, 2), label="m")
    l1 = data.draw(st.integers(1, 4), label="l1")
    l2 = data.draw(st.integers(max(1, 3 - l1), 4), label="l2")
    half = data.draw(fractions, label="branch length")
    stem = [data.draw(fractions, label="stem w") for _ in range(k)]
    tail = [data.draw(fractions, label="tail w") for _ in range(m)]
    mg = build_laakso((k, l1, l2, m), stem=stem,
                      branch1=split_of(half, l1, data),
                      branch2=split_of(half, l2, data), tail=tail)
    assert sum(mg.nu) == 1
    assert validate_st_graph(mg.graph).ok


def test_enumerate_cycles_on_a_long_cycle():
    g = unit_cycle(1500)
    (c,) = enumerate_cycles(g)
    assert len(c) == 1500 and len(cycle_edge_indices(g, c)) == 1500


def test_laakso_from_cycle_identity_cases():
    d = diamond()
    cyc = enumerate_cycles(d.graph)[0]
    sub = laakso_from_cycle(d.graph, cyc)
    assert sub.graph.edge_count == 4
    assert sub.structure.params.as_tuple() == (0, 2, 2, 0)
    assert set(sub.parent_vertices) == {0, 1, 2, 3}

    l = laakso1221()
    st_l = as_laakso(l.graph)
    sub2 = laakso_from_cycle(l.graph, st_l.cycle)
    assert sub2.graph.edge_count == 6
    assert sub2.structure.params.as_tuple() == (1, 2, 2, 1)


def test_laakso_from_cycle_inside_power_is_isometric():
    pw = sp.slash_power(diamond(), 2)
    g = pw.graph.graph
    # The four edges of the copy substituted for base edge 0 form a cycle.
    copy = [pw.resolve_vertex(2, 0, v) for v in range(4)]
    cyc = (copy[0], copy[1], copy[3], copy[2])
    sub = laakso_from_cycle(g, cyc)
    assert validate_st_graph(sub.graph).ok
    big = geodesic_metric(g)
    small = geodesic_metric(sub.graph)
    for u, v in all_pairs(sub.graph.vertex_count):
        assert small.d(u, v) == big.d(sub.parent_vertices[u], sub.parent_vertices[v])


def test_laakso_from_cycle_exhaustive_isometry():
    # Every cycle of these graphs grows into an isometric Laakso subgraph.
    for mg in (three_branch(), laakso1221(), sp.slash_power(diamond(), 2).graph):
        g = mg.graph
        big = geodesic_metric(g)
        for cyc in sp.enumerate_cycles(g):
            sub = laakso_from_cycle(g, cyc)
            small = geodesic_metric(sub.graph)
            for u, v in all_pairs(sub.graph.vertex_count):
                assert small.d(u, v) == big.d(sub.parent_vertices[u],
                                              sub.parent_vertices[v])


def test_st_subgraph_metric_restriction():
    # Unions of s-t paths inherit the ambient metric exactly.
    tb = three_branch()
    big = geodesic_metric(tb.graph)
    # Drop the third branch: the remaining diamond is an s-t subgraph.
    keep = [0, 1, 2, 3]
    from slashpow.core import StGraph

    sub = StGraph(names=("s", "a", "b", "t"),
                  edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                  weights=(F(1, 2),) * 4, s=0, t=3)
    back = {0: 0, 1: 1, 2: 2, 3: 4}
    small = geodesic_metric(sub)
    for u, v in all_pairs(4):
        assert small.d(u, v) == big.d(back[u], back[v])
    assert keep  # silence linters about the sketch list


def test_as_laakso_rejects_non_laakso():
    with pytest.raises(NotLaakso):
        as_laakso(build_path([F(1)] * 2).graph)
    with pytest.raises(NotLaakso):
        as_laakso(three_branch().graph)


def test_as_laakso_roundtrip():
    for params in ((0, 2, 2, 0), (1, 2, 2, 1), (0, 2, 3, 0), (2, 4, 3, 1)):
        mg = uniform_laakso(params)
        st_l = as_laakso(mg.graph)
        assert st_l.params == LaaksoParams(*params)
        assert st_l.stem[0] == mg.graph.s
        assert st_l.tail[-1] == mg.graph.t


def test_as_laakso_reads_the_construction_segments():
    # Stem x0..xk, the y1_* and y2_* branches between x_k and z0, tail z0..zm;
    # the branch whose first vertex has the smaller id comes first.
    for k, l1, l2, m in itertools.product(range(4), range(1, 5), range(1, 5), range(4)):
        if l1 + l2 < 3:
            continue
        g = uniform_laakso((k, l1, l2, m)).graph
        at = {name: i for i, name in enumerate(g.names)}
        (b1, n1), (b2, n2) = sorted(
            (tuple(at[x] for x in (f"x{k}", *(f"y{b}_{i}" for i in range(1, l)), "z0")), l)
            for b, l in ((1, l1), (2, l2)))
        assert as_laakso(g) == LaaksoStructure(
            params=LaaksoParams(k, n1, n2, m),
            stem=tuple(at[f"x{i}"] for i in range(k + 1)), branch1=b1, branch2=b2,
            tail=tuple(at[f"z{i}"] for i in range(m + 1)))


def random_route_union(rng: random.Random) -> StGraph:
    """One to three random 0-(n-1) vertex paths on at most 8 vertices, maybe
    one more edge, and about a fifth of the edges reversed, so directed
    cycles and edges off every s-t path occur."""
    n = rng.randint(2, 8)
    edges: dict[tuple[int, int], None] = {}
    for _ in range(rng.randint(1, 3)):
        route = [0, *rng.sample(range(1, n - 1), rng.randint(0, n - 2)), n - 1]
        for u, v in zip(route, route[1:]):
            if (v, u) not in edges:
                edges[u, v] = None
    u, v = rng.sample(range(n), 2)
    if rng.random() < 0.3 and (u, v) not in edges and (v, u) not in edges:
        edges[u, v] = None
    oriented = tuple((v, u) if rng.random() < 0.2 else (u, v) for u, v in edges)
    return StGraph(names=tuple(map(str, range(n))), edges=oriented,
                   weights=(F(1),) * len(oriented), s=0, t=n - 1)


def test_as_laakso_accepts_exactly_the_two_route_graphs():
    rng = random.Random(18)
    accepted = rejected = 0
    for _ in range(3000):
        g = random_route_union(rng)
        dg = nx.DiGraph(g.edges)
        routes = itertools.islice(nx.all_simple_paths(dg, g.s, g.t), 3)
        if not (validate_st_graph(g).ok and len(list(routes)) == 2):
            with pytest.raises(NotLaakso):
                as_laakso(g)
            rejected += 1
            continue
        shape = as_laakso(g)
        sub = build_laakso_subgraph(g, shape.stem, shape.branch1, shape.branch2,
                                    shape.tail)
        back = sub.parent_vertices
        assert {(back[a], back[b]) for a, b in sub.graph.edges} == set(g.edges)
        accepted += 1
    assert accepted >= 100 and rejected >= 100


@pytest.mark.parametrize("arc1", [
    lambda b: b[::-1],      # runs from the tail's junction to the stem's
    lambda b: b[:-1],       # stops short of the tail's junction
    lambda b: b[:1],        # the stem's junction alone
    lambda b: (),
], ids=["reversed", "short", "junction", "empty"])
def test_build_laakso_subgraph_needs_branches_between_the_junctions(arc1):
    g = laakso1221().graph
    shape = as_laakso(g)
    with pytest.raises(NotLaakso):
        build_laakso_subgraph(g, shape.stem, arc1(shape.branch1), shape.branch2,
                              shape.tail)
