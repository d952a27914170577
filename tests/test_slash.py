import dataclasses
import itertools
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import (
    all_pairs,
    associativity_isomorphism_check,
    diamond,
    laakso0230,
    laakso1221,
    reference_layout,
    slash_product,
    theta,
    three_branch,
    weighted0230,
    weighted1220,
)
from test_golden_powers import COLLIDING_BASE
from slashpow import serialization as ser
from slashpow.constructions import MeasuredGraph, build_path
from slashpow.core import (
    enumerate_st_paths,
    geodesic_metric,
    is_normalized_geodesic_st,
    path_length,
)
from slashpow.errors import CapExceeded, InputError, InvalidPath, NotNormalized
from slashpow.slash import (
    LabeledPower,
    LazyPowerMetric,
    lift_cycle,
    lift_path,
    slash_power,
)


def single_edge() -> MeasuredGraph:
    return build_path([F(1)])


def graphs_isometric(a, b) -> bool:
    """Metric isomorphism via brute-force vertex matching (tiny graphs)."""
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False
    ma, mb = geodesic_metric(a), geodesic_metric(b)
    n = a.vertex_count
    for perm in itertools.permutations(range(n)):
        if perm[a.s] != b.s or perm[a.t] != b.t:
            continue
        if all(ma.d(u, v) == mb.d(perm[u], perm[v]) for u, v in all_pairs(n)):
            return True
    return False


def test_identity_products():
    d = diamond()
    e = single_edge()
    left = slash_product(e, d)
    right = slash_product(d, e)
    assert graphs_isometric(left.graph, d.graph)
    assert graphs_isometric(right.graph, d.graph)
    assert sorted(left.nu) == sorted(d.nu)
    assert sorted(right.nu) == sorted(d.nu)


def test_diamond_squared_counts():
    prod = slash_product(diamond(), diamond())
    assert prod.graph.vertex_count == 12
    assert prod.graph.edge_count == 16
    assert set(prod.graph.weights) == {F(1, 4)}
    assert set(prod.nu) == {F(1, 16)}
    assert is_normalized_geodesic_st(prod.graph)


def test_restricted_factor_makes_the_product_restricted():
    mg = diamond()
    r = MeasuredGraph(graph=mg.graph, nu=(F(1, 2), F(1, 2), F(0), F(0)),
                      restricted=True)
    for prod, zero in ((slash_product(r, mg), lambda he, ge: he >= 2),
                       (slash_product(mg, r), lambda he, ge: ge >= 2)):
        assert prod.restricted and sum(prod.nu) == 1
        for idx, p in enumerate(prod.nu):
            assert (p == 0) == zero(*divmod(idx, 4))
    assert not slash_product(mg, mg).restricted


def test_product_requires_normalized():
    skew = build_path([F(1), F(2)])
    with pytest.raises(NotNormalized):
        slash_product(skew, diamond())
    with pytest.raises(NotNormalized):
        slash_product(diamond(), skew)


def test_power_level_one_is_base():
    d = diamond()
    pw = slash_power(d, 1)
    assert pw.graph is d
    assert pw.edge_label(2) == (2,)


@pytest.mark.parametrize("make,n", [
    (diamond, 3), (laakso1221, 2), (weighted0230, 3), (single_edge, 5)])
def test_layout_matches_stored_reference(make, n):
    base = make()
    pw = slash_power(base, n)
    nv = base.graph.vertex_count
    for level, (edges, labels, tables, vertex_labels) in enumerate(
            reference_layout(base, n), start=1):
        g = pw.level_graph(level).graph
        assert list(g.edges) == edges
        assert [pw.edge_label(i, level) for i in range(g.edge_count)] == labels
        assert [pw.edge_index(label) for label in labels] == list(range(len(labels)))
        assert [pw.vertex_label(v, level) for v in range(g.vertex_count)] == vertex_labels
        if tables is None:
            with pytest.raises(InputError, match="level 1 has no copies"):
                pw.resolve_vertex(level, 0, base.graph.s)
        else:
            assert [tuple(pw.resolve_vertex(level, ei, v) for v in range(nv))
                    for ei in range(len(tables))] == tables
    assert pw.label_strings() == ["/".join(map(str, lab)) for lab in labels]
    assert [pw.edge_label(i) for i in range(len(labels))] == labels
    assert [pw.vertex_label(v) for v in range(len(vertex_labels))] == vertex_labels


def renamed_diamond(*names: str) -> MeasuredGraph:
    d = diamond()
    return MeasuredGraph(graph=dataclasses.replace(d.graph, names=names), nu=d.nu)


# Vertex names that collide with the names the power gives copy interiors:
# "L:" + a base name, "~"-extended, across copies, levels and renamings.
COLLIDING_NAMES = (("s", "a", "0:a", "t"), ("s", "a", "0:a~", "0:a"),
                   ("0:a", "a", "a~", "0:a~"), ("s", "1:b", "b", "1:b~"),
                   ("x:y", "y", "0:x:y", "t"), ("0/1:a", "a", "0:a", "1/0:a"))
LABELED_CASES = (
    [(f"diamond^{n}", diamond, n) for n in range(1, 5)]
    + [(f"1221^{n}", laakso1221, n) for n in range(1, 4)]
    + [("weighted 1220^2", weighted1220, 2), ("theta^3", theta, 3),
       ("colliding^3", lambda: ser.loads(COLLIDING_BASE), 3)]
    + [(f"diamond{names}^3", lambda names=names: renamed_diamond(*names), 3)
       for names in COLLIDING_NAMES])


@pytest.mark.parametrize("make,n", [case[1:] for case in LABELED_CASES],
                         ids=[case[0] for case in LABELED_CASES])
def test_labeled_power_reads_the_materialized_power(make, n):
    # Counts, edge ends, the edge joining each pair (either order), weights
    # and names from labels alone, against the level graphs; labels,
    # copies and label lookup against the stored reference layout.
    base = make()
    pw, lp = slash_power(base, n), LabeledPower(base, n)
    assert lp.edge_count == pw.graph.graph.edge_count
    for level, (_, labels, tables, vertex_labels) in enumerate(
            reference_layout(base, n), start=1):
        g = pw.level_graph(level).graph
        assert lp.vertex_count(level) == g.vertex_count
        assert [lp.edge_ends(i, level) for i in range(g.edge_count)] == list(g.edges)
        for u, v in itertools.product(range(g.vertex_count), repeat=2):
            if (u, v) in g.edge_ids:
                assert lp.edge_between(u, v, level) == g.edge_ids[u, v]
            elif u < v:
                with pytest.raises(InvalidPath, match=f"no edge between {u} and {v}"):
                    lp.edge_between(u, v, level)
        assert [lp.weight(i, level) for i in range(g.edge_count)] == list(g.weights)
        assert [lp.vertex_name(v, level) for v in range(g.vertex_count)] == list(g.names)
        assert [lp.vertex_label(v, level) for v in range(g.vertex_count)] == vertex_labels
        assert [lp.edge_index(label) for label in labels] == list(range(len(labels)))
        if tables is not None:
            nv = base.graph.vertex_count
            assert [tuple(lp.resolve_vertex(level, ei, v) for v in range(nv))
                    for ei in range(len(tables))] == tables


def test_labeled_power_refuses_a_weight_too_long_to_print():
    # As in _scaled_rows: 1/10**400 has 401 digits, so a limit of 640
    # digits passes the base weights but not their square.
    tiny = F(1, 10 ** 400)
    base = sp.build_cycle([tiny, 1 - tiny], [F(1, 2), F(1, 2)])
    lp = LabeledPower(base, 3)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert lp.weight(0, 1) == tiny
        with pytest.raises(CapExceeded, match="more than 640 decimal digits"):
            lp.weight(0, 2)
        with pytest.raises(CapExceeded, match="more than 640 decimal digits"):
            slash_power(base, 2)
    finally:
        sys.set_int_max_str_digits(old)


def test_level_graph_refuses_out_of_range_levels():
    pw = slash_power(diamond(), 2)
    for level in (-1, 0, 3):
        with pytest.raises(InputError, match=f"level {level} out of range 1..2"):
            pw.level_graph(level)


def test_resolve_vertex_refuses_out_of_range_addresses():
    for pw in (slash_power(diamond(), 2), LabeledPower(diamond(), 2)):
        for level in (-1, 0, 1, 3):
            with pytest.raises(InputError,
                               match=f"level {level} has no copies in a power of 2"):
                pw.resolve_vertex(level, 0, 1)
        for prev_edge in (-1, 4):
            with pytest.raises(InputError, match=f"edge {prev_edge} out of range 0..3"):
                pw.resolve_vertex(2, prev_edge, 1)
        for v in (-1, 4):
            with pytest.raises(InputError, match=f"base vertex {v} out of range 0..3"):
                pw.resolve_vertex(2, 0, v)


def test_edge_label_refuses_out_of_range_edges():
    for pw in (slash_power(diamond(), 2), LabeledPower(diamond(), 2)):
        for eidx, level in ((-1, None), (16, None), (-1, 1), (4, 1)):
            for read in (pw.edge_label, pw.edge_ends, pw.weight):
                with pytest.raises(InputError, match=f"edge {eidx} out of range"):
                    read(eidx, level)
        for read in (pw.edge_label, pw.edge_ends, pw.weight):
            with pytest.raises(InputError, match="level 3 out of range"):
                read(0, 3)
        for label in ((), (0, 0, 0), (4, 0), (0, -1)):
            with pytest.raises(InputError, match="out of range"):
                pw.edge_index(label)


def test_vertex_label_refuses_out_of_range_vertices():
    for pw in (slash_power(diamond(), 2), LabeledPower(diamond(), 2)):
        for vid, level in ((-1, None), (12, None), (-1, 1), (4, 1)):
            for read in (pw.vertex_label, pw.vertex_name,
                         lambda v, lv: pw.edge_between(0, v, lv),
                         lambda v, lv: pw.edge_between(v, 0, lv)):
                with pytest.raises(InputError, match=f"vertex {vid} out of range"):
                    read(vid, level)
        for read in (pw.vertex_label, pw.vertex_name, lambda v, lv: pw.edge_between(0, 1, lv)):
            with pytest.raises(InputError, match="level 0 out of range"):
                read(0, 0)
        with pytest.raises(InputError, match="level 3 out of range"):
            pw.vertex_count(3)


def test_one_edge_power_stores_no_labels():
    # 3,000 one-edge level graphs take about 2 MB; a stored k-coordinate
    # label per edge of level k would add 4.5 million entries (39 MB traced).
    tracemalloc.start()
    try:
        pw = slash_power(single_edge(), 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pw.graph.graph.edge_count == 1
    assert pw.edge_label(0) == (0,) * 3000
    assert peak < 10_000_000


def test_power_counts_and_measures():
    d = diamond()
    sizes = {1: (4, 4), 2: (12, 16), 3: (44, 64)}
    for n, (nv, ne) in sizes.items():
        pw = slash_power(d, n)
        g = pw.graph.graph
        assert (g.vertex_count, g.edge_count) == (nv, ne)
        assert g.edge_count == d.graph.edge_count ** n
        assert sum(pw.graph.nu) == 1
        assert is_normalized_geodesic_st(g)

    l = laakso1221()
    pw = slash_power(l, 2)
    assert pw.graph.graph.edge_count == 36
    assert sum(pw.graph.nu) == 1


def test_power_weights_match_labels():
    # Every edge weight is the product of its label's base weights.
    l = laakso1221()
    pw = slash_power(l, 3)
    g = pw.graph.graph
    for ei in range(g.edge_count):
        label = pw.edge_label(ei)
        expected = F(1)
        for b in label:
            expected *= l.graph.weights[b]
        assert g.weights[ei] == expected
        expected_nu = F(1)
        for b in label:
            expected_nu *= l.nu[b]
        assert pw.graph.nu[ei] == expected_nu


def test_power_st_paths_have_unit_length():
    pw = slash_power(diamond(), 2)
    g = pw.graph.graph
    for p in enumerate_st_paths(g):
        assert path_length(g, p) == 1


def test_power_cap(monkeypatch):
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "100")
    with pytest.raises(CapExceeded):
        slash_power(diamond(), 4)


def test_copy_scaling():
    # Distances inside one substituted copy scale by the replaced edge weight.
    for base in (diamond(), laakso1221()):
        pw = slash_power(base, 2)
        m2 = pw.metric
        m1 = geodesic_metric(base.graph)
        nb = base.graph.vertex_count
        for ei in range(base.graph.edge_count):
            w = base.graph.weights[ei]
            for u, v in all_pairs(nb):
                pu = pw.resolve_vertex(2, ei, u)
                pv = pw.resolve_vertex(2, ei, v)
                assert m2.d(pu, pv) == w * m1.d(u, v)


def test_subgraph_power_embeds_isometrically():
    # Powers of an s-t subgraph sit label-wise inside powers of the graph,
    # and the induced metric equals the restriction.
    big = three_branch()
    sub = diamond()  # drop the third branch of three_branch
    # Base edges 0..3 of three_branch are exactly the diamond's edges.
    pw_big = slash_power(big, 2)
    pw_sub = slash_power(sub, 2)
    m_big = pw_big.metric
    m_sub = pw_sub.metric

    base_map = (0, 1, 2, 4)  # diamond vertex -> three_branch vertex
    for ei in range(4):      # edge ids 0..3 line up by construction order
        u, v = sub.graph.edges[ei]
        assert big.graph.edges[ei] == (base_map[u], base_map[v])

    def into_big(v: int) -> int:
        label = pw_sub.vertex_label(v)
        if len(label) == 1:
            return base_map[label[0]]
        return pw_big.resolve_vertex(2, label[0], base_map[label[1]])

    for u, v in all_pairs(pw_sub.graph.graph.vertex_count):
        assert m_sub.d(u, v) == m_big.d(into_big(u), into_big(v))


def test_associativity():
    assert associativity_isomorphism_check(single_edge())
    assert associativity_isomorphism_check(diamond())
    assert associativity_isomorphism_check(laakso1221())
    weighted = sp.build_laakso((1, 2, 2, 0), stem=[F(3, 7)],
                               branch1=[F(1, 7), F(3, 7)],
                               branch2=[F(2, 7), F(2, 7)])
    assert associativity_isomorphism_check(weighted)


def test_lift_path():
    d = diamond()
    pw = slash_power(d, 2)
    g1 = d.graph
    route = enumerate_st_paths(g1)[0]

    lifted = lift_path(pw, 1, route, [route] * 2)
    assert len(lifted) == 5
    g2 = pw.graph.graph
    assert path_length(g2, lifted) == 1

    # Lifting the base cycle by branch routes yields an 8-edge cycle.
    base_cycle = sp.enumerate_cycles(g1)[0]
    cyc = lift_cycle(pw, 1, base_cycle, [route] * 4)
    assert len(cyc) == 8
    from slashpow.core import cycle_edge_indices
    assert len(cycle_edge_indices(g2, cyc)) == 8

    with pytest.raises(InvalidPath):
        lift_path(pw, 1, route, [(0, 3)] * 2)  # not a base path


def test_lift_checks_each_choice_in_step_order():
    d = diamond()
    pw = slash_power(d, 2)
    route = enumerate_st_paths(d.graph)[0]
    backwards = tuple(reversed(route))
    # A bad route first used at the second step is still refused ...
    with pytest.raises(InvalidPath, match="run from s to t"):
        lift_path(pw, 1, route, [route, backwards])
    # ... after the first step's own faults.
    s, a, t = route
    with pytest.raises(InvalidPath, match="no edge between"):
        lift_path(pw, 1, (s, t, a), [route, backwards])


def test_lift_cycle_checks_the_level():
    d = diamond()
    pw = slash_power(d, 2)
    route = enumerate_st_paths(d.graph)[0]
    cycle = sp.enumerate_cycles(d.graph)[0]
    for level in (-1, 0, pw.n):
        with pytest.raises(InputError, match="cannot lift from level"):
            lift_cycle(pw, level, cycle, [route] * len(cycle))
        with pytest.raises(InputError, match="cannot lift from level"):
            lift_path(pw, level, route, [route] * (len(route) - 1))


def test_lift_by_single_edge_graph():
    e = single_edge()
    pw = slash_power(e, 3)
    path = (0, 1)
    lifted = lift_path(pw, 1, path, [(0, 1)])
    assert lifted == (0, 1)


def test_lazy_metric_matches_materialized():
    # Unbalanced (0,2,3,0), uniform and with non-uniform weights, as well.
    for base, n in ((diamond(), 2), (diamond(), 3), (laakso1221(), 2),
                    (laakso0230(), 3), (weighted0230(), 3)):
        lazy = LazyPowerMetric(base, n)
        pw = slash_power(base, n)
        m = pw.metric
        g = pw.graph.graph
        for u, v in all_pairs(g.vertex_count):
            assert lazy.distance(pw.vertex_label(u), pw.vertex_label(v)) == m.d(u, v)


def test_lazy_metric_beyond_materialization():
    # Distance between s and t in any power of a normalized graph is 1,
    # queried at a depth nobody materializes.
    d = diamond()
    lazy = LazyPowerMetric(d, 12)
    assert lazy.distance((d.graph.s,), (d.graph.t,)) == 1
    deep = (0,) * 11 + (1,)  # interior vertex 11 levels down
    assert lazy.distance((d.graph.s,), deep) > 0


def test_vertex_labels_canonical():
    pw = slash_power(diamond(), 2)
    g = pw.graph.graph
    seen = set()
    for v in range(g.vertex_count):
        label = pw.vertex_label(v)
        assert label not in seen
        seen.add(label)
        # Boundary vertices keep their shortest address.
        if v < 4:
            assert label == (v,)
        else:
            assert len(label) == 2
