import dataclasses
import math
import random
import sys
from fractions import Fraction as F

import networkx as nx
import pytest

import slashpow as sp
from helpers import (
    diamond,
    laakso0230,
    laakso1221,
    reference_max_cycles,
    reference_spot_check_isometry,
    theta,
    weighted1220,
    weighted1331,
)
from slashpow import slash
from slashpow.constructions import LaaksoParams, MeasuredGraph, uniform_laakso
from slashpow.core import cycle_edge_indices, geodesic_metric, single_source_distances
from slashpow.errors import CapExceeded, InputError, InvalidPath, NoCycle, SelectorError
from slashpow.laakso import (
    LaaksoBase,
    MaxCycles,
    _power_of_two,
    _spot_check_isometry,
    balanced_laakso_pipeline,
    balancing_power,
    count_max_cycles,
    count_max_cycles_through_edge,
    enumerate_max_cycles,
    find_balanced_laakso,
    max_cycle_edge_count,
    selector_identity_sum,
)
from slashpow.slash import LazyPowerMetric, slash_power

DIAMOND_P = LaaksoParams(0, 2, 2, 0)
L1221_P = LaaksoParams(1, 2, 2, 1)


def test_closed_form_counts():
    assert max_cycle_edge_count(DIAMOND_P, 1) == 4
    assert max_cycle_edge_count(DIAMOND_P, 2) == 8
    assert max_cycle_edge_count(L1221_P, 2) == 16
    assert count_max_cycles(DIAMOND_P, 1) == 1
    assert count_max_cycles(DIAMOND_P, 2) == 16
    assert count_max_cycles(L1221_P, 2) == 16
    assert count_max_cycles(L1221_P, 1) == 1
    with pytest.raises(InputError):
        count_max_cycles(LaaksoParams(0, 2, 3, 0), 2)


def test_counts_capped_at_the_int_to_str_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # 2^14284 is the largest power of two that still prints.
        assert len(str(2 ** 14284)) == 4300
        with pytest.raises(ValueError):
            str(2 ** 14285)
        assert _power_of_two([14000, 284]) == 2 ** 14284
        with pytest.raises(CapExceeded):
            _power_of_two([14000, 285])
        base = LaaksoBase.from_measured(diamond())
        assert count_max_cycles_through_edge(base, (0,) * 12) == 2 ** (4 * 2047 - 11)
        with pytest.raises(CapExceeded):
            count_max_cycles_through_edge(base, (0,) * 13)
        # (1,2,2,1) cycles in the n-th power have 4 * 4^(n-1) = 2^(2n) edges.
        assert max_cycle_edge_count(L1221_P, 7142) == 2 ** 14284
        with pytest.raises(CapExceeded):
            max_cycle_edge_count(L1221_P, 7143)
        # With the limit disabled the default still bounds the work: a huge
        # power is refused after a few levels, not computed.
        sys.set_int_max_str_digits(0)
        with pytest.raises(CapExceeded):
            count_max_cycles(DIAMOND_P, 10 ** 9)
        with pytest.raises(CapExceeded):
            max_cycle_edge_count(DIAMOND_P, 10 ** 12)
    finally:
        sys.set_int_max_str_digits(old)


def test_reference_per_edge_counts():
    base = LaaksoBase.from_measured(laakso1221())
    st = base.structure
    stem_edge = base.graph.edge_index(st.stem[0], st.stem[1])
    branch_edge = sorted(base.cycle_edge_ids)[0]
    assert count_max_cycles_through_edge(base, (stem_edge, stem_edge)) == 0
    assert count_max_cycles_through_edge(base, (stem_edge, branch_edge)) == 0
    assert count_max_cycles_through_edge(base, (branch_edge, stem_edge)) == 16
    assert count_max_cycles_through_edge(base, (branch_edge, branch_edge)) == 8
    assert count_max_cycles_through_edge(base, (branch_edge,)) == 1
    assert count_max_cycles_through_edge(base, (stem_edge,)) == 0


@pytest.mark.parametrize("params", [(0, 2, 2, 0), (1, 2, 2, 1)])
@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_matches_closed_forms(params, n):
    mg = uniform_laakso(params)
    p = LaaksoParams(*params)
    power = slash_power(mg, n)
    base = LaaksoBase.from_measured(mg)
    cycles = enumerate_max_cycles(power)
    g = power.graph.graph

    assert len(cycles) == count_max_cycles(p, n)
    assert len(set(tuple(sorted(c)) for c in cycles)) == len(cycles)
    per_edge = [0] * g.edge_count
    for c in cycles:
        edge_ids = cycle_edge_indices(g, c)
        assert len(edge_ids) == max_cycle_edge_count(p, n)
        length = sum((g.weights[ei] for ei in edge_ids), F(0))
        assert length == base.c0
        for ei in edge_ids:
            per_edge[ei] += 1
    for ei in range(g.edge_count):
        assert per_edge[ei] == count_max_cycles_through_edge(
            base, power.edge_label(ei))


def test_enumeration_count_level_three():
    power = slash_power(diamond(), 3)
    cycles = enumerate_max_cycles(power)
    assert len(cycles) == count_max_cycles(DIAMOND_P, 3) == 4096
    assert all(len(c) == 16 for c in cycles)
    g = power.graph.graph
    base = LaaksoBase.from_measured(diamond())
    for c in cycles[:: 512]:
        length = sum((g.weights[ei] for ei in cycle_edge_indices(g, c)), F(0))
        assert length == base.c0


def restricted_diamond() -> MeasuredGraph:
    """The diamond with all its measure on one branch."""
    g = diamond().graph
    return MeasuredGraph(graph=g, nu=(F(1, 2), F(1, 2), F(0), F(0)), restricted=True)


@pytest.mark.parametrize("base, n", [
    (diamond, 1), (diamond, 2), (diamond, 3), (laakso1221, 1), (laakso1221, 2),
    (weighted1220, 2), (weighted1331, 2), (restricted_diamond, 2)])
def test_bulk_enumeration_matches_the_lift_cycle_reference(base, n):
    power = slash_power(base(), n)
    g = power.graph.graph
    cycles = enumerate_max_cycles(power)
    assert isinstance(cycles, MaxCycles) and cycles.power is power
    assert list(cycles) == list(reference_max_cycles(power))
    assert len(cycles.edges) == len(cycles)
    for c, edges in zip(cycles, cycles.edges):
        assert edges == cycle_edge_indices(g, c)


def test_enumeration_checks_every_cycle_against_the_graph(monkeypatch):
    power = slash_power(diamond(), 2)
    copy_walk = slash.SlashPower._copy_walk

    def shifted_edges(self, prev, prev_edge, walk):
        vertices, edges = copy_walk(self, prev, prev_edge, walk)
        return vertices, tuple(e ^ 1 for e in edges)

    def revisits(self, prev, prev_edge, walk):
        vertices, edges = copy_walk(self, prev, prev_edge, walk)
        return vertices[:1] * len(vertices), edges

    for fake, message in ((shifted_edges, "leaves the graph"), (revisits, "revisits")):
        monkeypatch.setattr(slash.SlashPower, "_copy_walk", fake)
        with pytest.raises(InvalidPath, match=message):
            enumerate_max_cycles(power)


def test_pipeline_three_branch():
    from helpers import three_branch

    r = balanced_laakso_pipeline(three_branch())
    assert r.c0 == 2
    assert r.subgraph.structure.params.balanced
    assert max(r.subgraph.graph.weights) <= r.c0 / 4
    assert sum(r.measure.nu) == 1
    assert sp.validate_st_graph(r.subgraph.graph).ok


@pytest.mark.parametrize("params", [(0, 2, 2, 0), (1, 2, 2, 1)])
def test_independent_cycle_oracle(params):
    # Enumerate ALL simple cycles of the squared graph with networkx, filter
    # by metric length: must reproduce the maximal-cycle family exactly, and
    # no cycle may be longer.
    mg = uniform_laakso(params)
    power = slash_power(mg, 2)
    g = power.graph.graph
    base = LaaksoBase.from_measured(mg)

    gx = nx.Graph()
    for (u, v), w in zip(g.edges, g.weights):
        gx.add_edge(u, v, weight=w)
    all_cycles = []
    for cyc in nx.simple_cycles(gx):
        length = sum((g.weights[g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])]
                      for i in range(len(cyc))), F(0))
        all_cycles.append((tuple(sorted(cyc)), length))
    longest = max(length for _, length in all_cycles)
    assert longest == base.c0
    maximal = {key for key, length in all_cycles if length == base.c0}

    mine = {tuple(sorted(c)) for c in enumerate_max_cycles(power)}
    assert mine == maximal


def test_selector_identity_examples():
    d = diamond()
    p1 = slash_power(d, 1)
    g1 = p1.graph.graph

    def first_edge(c):
        return cycle_edge_indices(g1, c)[0]

    assert selector_identity_sum(p1, first_edge) == F(1, 2)

    p2 = slash_power(d, 2)
    g2 = p2.graph.graph

    def lex_least(c):
        return min(cycle_edge_indices(g2, c))

    assert selector_identity_sum(p2, lex_least) == F(1, 2)

    # Constant eligible edges also work; the identity is selector-free.
    some_cycle = enumerate_max_cycles(p2)[0]
    fixed = cycle_edge_indices(g2, some_cycle)[0]

    def constant(c):
        return fixed

    with pytest.raises(SelectorError):
        # Constant selectors fail the on-cycle requirement for some cycle.
        selector_identity_sum(p2, constant)


def test_selector_identity_many_seeds():
    for params in ((0, 2, 2, 0), (1, 2, 2, 1)):
        mg = uniform_laakso(params)
        for n in (1, 2):
            power = slash_power(mg, n)
            cycles = enumerate_max_cycles(power)
            g = power.graph.graph
            for seed in range(50):
                rng = random.Random(seed)

                def pick(c):
                    edges = cycle_edge_indices(g, c)
                    return edges[rng.randrange(len(edges))]

                assert selector_identity_sum(power, pick, cycles=cycles) == F(1, 2)


def test_selector_rejects_off_cycle_coarse_coordinate():
    mg = laakso1221()
    power = slash_power(mg, 2)
    g = power.graph.graph
    base = LaaksoBase.from_measured(mg)
    stem_first = [ei for ei in range(g.edge_count)
                  if power.edge_label(ei)[0] not in base.cycle_edge_ids]

    # A maximal cycle never contains such an edge, so the on-cycle check
    # already trips; build the error through a cycle that lies about it.
    def bad(c):
        return stem_first[0]

    with pytest.raises(SelectorError):
        selector_identity_sum(power, bad)


def test_balancing_power_matches_log_formula():
    cases = [(0, 2, 3, 0), (0, 2, 4, 0), (1, 2, 3, 1), (2, 3, 5, 0), (0, 1, 2, 0)]
    for k, l1, l2, m in cases:
        params = LaaksoParams(k, l1, l2, m)
        n0 = balancing_power(params)
        small, big = sorted((l1, l2))
        ratio = (math.log(big) - math.log(small)) / (
            math.log(k + m + big) - math.log(k + m + small))
        assert n0 == 2 + math.floor(ratio + 1e-9)


def test_find_balanced_0230():
    mg = laakso0230()
    w = find_balanced_laakso(mg)
    assert w.n0 == 3
    assert w.i == 0

    # Arc growth table, straight from integer arithmetic.
    small, big = 2, 3
    m_vals = [big ** (n - 1) * small for n in (1, 2, 3)]
    n_vals = [small ** (n - 1) * big for n in (1, 2, 3)]
    assert (m_vals[1], n_vals[1]) == (6, 6)
    assert n_vals[2] == 12 and m_vals[2] == 18

    sub = w.subgraph
    assert sub.structure.params.balanced
    assert sub.structure.params.l1 == 12
    assert sp.validate_st_graph(sub.graph).ok
    assert len(w.q1) == len(w.q2)

    g = w.power.graph.graph
    base = LaaksoBase.from_measured(mg)
    cyc_len = sum((sub.graph.weights[ei]
                   for ei in cycle_edge_indices(sub.graph, sub.structure.cycle)),
                  F(0))
    assert cyc_len == base.c0

    # Induced metric equals the ambient restriction on sampled pairs.
    rng = random.Random(0)
    small_m = geodesic_metric(sub.graph)
    nv = sub.graph.vertex_count
    pairs = {tuple(sorted(rng.sample(range(nv), 2))) for _ in range(200)}
    by_source: dict[int, tuple] = {}
    for u, v in pairs:
        pu, pv = sub.parent_vertices[u], sub.parent_vertices[v]
        if pu not in by_source:
            by_source[pu] = single_source_distances(g, pu)
        assert small_m.d(u, v) == F(by_source[pu][pv], g.weight_scale)


def test_find_balanced_0240():
    w = find_balanced_laakso(uniform_laakso((0, 2, 4, 0)))
    assert w.n0 == 3
    assert w.i == 0
    assert w.subgraph.structure.params.balanced
    assert w.subgraph.structure.params.l1 == 16


def test_find_balanced_on_balanced_input():
    mg = laakso1221()
    w = find_balanced_laakso(mg)
    assert w.n0 == 1 and w.i == 0
    assert w.subgraph.graph.edge_count == mg.graph.edge_count


@pytest.mark.parametrize("cap,message", [
    ("3", "power 2 of a 6-edge base exceeds the edge cap 3"),
    ("100", "power 3 of a 12-edge base exceeds the edge cap 100"),
])
def test_pipeline_obeys_edge_cap(monkeypatch, cap, message):
    mg = uniform_laakso((0, 2, 4, 0))
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", cap)
    with pytest.raises(CapExceeded) as err:
        balanced_laakso_pipeline(mg)
    assert str(err.value) == message


def test_pipeline_obeys_path_cap(monkeypatch):
    monkeypatch.setenv("SLASHPOW_MAX_PATHS", "1")
    with pytest.raises(CapExceeded) as err:
        balanced_laakso_pipeline(uniform_laakso((0, 2, 4, 0)))
    assert str(err.value) == "more than 1 s-t paths"


def test_find_balanced_obeys_edge_cap(monkeypatch):
    mg = uniform_laakso((0, 2, 4, 0))
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "20")
    with pytest.raises(CapExceeded) as err:
        find_balanced_laakso(mg)
    assert str(err.value) == "power 3 of a 6-edge base exceeds the edge cap 20"


def test_pipeline_diamond():
    r = balanced_laakso_pipeline(diamond())
    assert r.n == 1
    assert r.c0 == 2
    assert r.subgraph.structure.params.as_tuple() == (0, 2, 2, 0)
    assert r.measure.graph is r.subgraph.graph
    assert sum(r.measure.nu) == 1
    assert not r.measure.restricted


def test_pipeline_normalized_four_cycle():
    mg = sp.build_cycle([F(1, 2)] * 2, [F(1, 2)] * 2)
    r = balanced_laakso_pipeline(mg)
    assert r.n == 1
    assert r.c0 == 2


PIPELINE_INPUTS = {
    "0,2,4,0": lambda: uniform_laakso((0, 2, 4, 0)),
    "0,2,3,0": laakso0230,
    "diamond": diamond,
    "theta": theta,
    "normalized 4-cycle": lambda: sp.build_cycle([F(1, 2)] * 2, [F(1, 2)] * 2),
    "normalized 1200-cycle": lambda: sp.build_cycle([F(1, 600)] * 600,
                                                    [F(1, 600)] * 600),
}


@pytest.mark.parametrize("make", PIPELINE_INPUTS.values(), ids=PIPELINE_INPUTS)
def test_pipeline_inputs_have_geodesic_edges(make):
    # The pipeline reads c0 as a cycle's weight sum: on a strictly geodesic
    # input every edge is a shortest path between its ends.
    g = make().graph
    assert sp.is_strictly_geodesic_st(g)
    assert all(g.metric.d(u, v) == w for (u, v), w in zip(g.edges, g.weights))


def test_pipeline_builds_no_all_pairs_metric_of_its_input():
    for mg in (sp.build_cycle([F(1, 2)] * 2, [F(1, 2)] * 2),
               sp.build_cycle([F(1, 2)] * 2, [F(1, 3)] * 3)):
        assert balanced_laakso_pipeline(mg).c0 == 2
        assert "metric" not in mg.graph.__dict__


def test_isometry_check_matches_dijkstra_over_the_power():
    # The lazy ambient distances on the sampled pairs against Dijkstra over
    # the materialized power, on every input that reaches the check (an
    # input returned at n = 1 does not).  The subgraph read by labels is the
    # one read off the materialized power.
    checked = []
    for name, make in PIPELINE_INPUTS.items():
        mg = make()
        r = balanced_laakso_pipeline(mg)
        if r.n == 1:
            continue
        big, sub = slash_power(mg, r.n).graph.graph, r.subgraph
        assert type(r.power) is slash.LabeledPower  # the pipeline built no G^N
        segments = [[sub.parent_vertices[v] for v in seg] for seg in (
            sub.structure.stem, sub.structure.branch1, sub.structure.branch2,
            sub.structure.tail)]
        read = sp.build_laakso_subgraph(big, *segments)
        assert read == sub and read.graph.names == sub.graph.names
        lazy = LazyPowerMetric(r.power.base, r.n)
        labels = [r.power.vertex_label(pv) for pv in sub.parent_vertices]
        nv = sub.graph.vertex_count
        for u in range(0, nv, max(1, nv // 8)):
            ambient = single_source_distances(big, sub.parent_vertices[u])
            for v in range(nv):
                assert lazy.distance(labels[u], labels[v]) == F(
                    ambient[sub.parent_vertices[v]], big.weight_scale)
        checked.append(name)
    assert checked == ["0,2,4,0", "0,2,3,0", "theta"]


def test_pipeline_builds_no_power_of_its_input_above_two(monkeypatch):
    # G^N is read by labels; only G^2 and powers of the extraction are built.
    built = []
    real = slash_power

    def spy(mg, n):
        built.append((mg, n))
        return real(mg, n)

    monkeypatch.setattr("slashpow.laakso.slash_power", spy)
    for make in PIPELINE_INPUTS.values():
        mg = make()
        r = balanced_laakso_pipeline(mg)
        own = [n for g, n in built if g is mg]
        assert own == ([2] if r.n > 1 else [])
        assert type(r.power) is slash.LabeledPower and r.power.base is mg
    assert max(n for _, n in built) >= 3  # the extraction's powers


def test_pipeline_subgraph_is_capped(monkeypatch):
    # The subgraph is the one graph the pipeline builds at N = 1.
    d = diamond()
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "3")
    with pytest.raises(CapExceeded, match="Laakso subgraph would have 4 edges, cap 3"):
        balanced_laakso_pipeline(d)


@pytest.mark.parametrize("swap, pair", [((3, 4), (0, 3)), ((1, 17), (4, 1))])
def test_isometry_check_names_the_first_bad_pair(swap, pair):
    # theta's subgraph is one 32-cycle, sampled at rows 0, 4, 8, ...;
    # swapping 1 and 17 (both next to s) leaves row 0 intact.
    r = balanced_laakso_pipeline(theta())
    parents = list(r.subgraph.parent_vertices)
    a, b = swap
    parents[a], parents[b] = parents[b], parents[a]
    bad = dataclasses.replace(r.subgraph, parent_vertices=tuple(parents))
    for check, big in ((_spot_check_isometry, r.power),
                       (reference_spot_check_isometry,
                        slash_power(theta(), r.n).graph.graph)):
        with pytest.raises(InputError) as exc:
            check(big, bad)
        assert str(exc.value) == f"subgraph is not isometric at pair {pair}"


def test_pipeline_path_errors():
    with pytest.raises(NoCycle):
        balanced_laakso_pipeline(sp.build_path([F(1, 2), F(1, 2)]))


def test_pipeline_theta():
    r = balanced_laakso_pipeline(theta())
    assert r.n == 6
    assert r.c0 == 2
    p = r.subgraph.structure.params
    assert p.balanced and (p.k, p.m) == (0, 0) and p.l1 == 16

    quarter = r.c0 / 4
    sub = r.subgraph
    assert max(sub.graph.weights) <= quarter
    assert sp.validate_st_graph(sub.graph).ok
    assert r.measure.graph is sub.graph
    assert r.measure == sp.laakso_measure(sub.graph, sub.structure)
    assert sum(r.measure.nu) == 1 and not r.measure.restricted

    cyc_len = sum((sub.graph.weights[ei]
                   for ei in cycle_edge_indices(sub.graph, sub.structure.cycle)),
                  F(0))
    assert cyc_len == r.c0

    # Spot-check the subgraph is isometric inside the big power.
    g = slash_power(theta(), r.n).graph.graph
    small_m = geodesic_metric(sub.graph)
    rng = random.Random(1)
    nv = sub.graph.vertex_count
    pairs = {tuple(sorted(rng.sample(range(nv), 2))) for _ in range(60)}
    cache: dict[int, tuple] = {}
    for u, v in pairs:
        pu, pv = sub.parent_vertices[u], sub.parent_vertices[v]
        if pu not in cache:
            cache[pu] = single_source_distances(g, pu)
        assert small_m.d(u, v) == F(cache[pu][pv], g.weight_scale)


def test_pipeline_big_laakso_weights():
    # A balanced Laakso whose edges exceed a quarter of its cycle length has
    # to be squared at least once.
    mg = sp.build_laakso((0, 2, 2, 0), branch1=[F(3, 4), F(1, 4)],
                         branch2=[F(3, 4), F(1, 4)])
    r = balanced_laakso_pipeline(mg)
    assert r.n >= 2
    assert max(r.subgraph.graph.weights) <= r.c0 / 4
    assert r.subgraph.structure.params.balanced
