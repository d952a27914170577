"""Corner cases: inconsistent arc orientations, non-uniform weights, mixed
products, restricted-measure serialization, and label validation."""

import random
from fractions import Fraction as F

import pytest

import slashpow as sp
from helpers import all_pairs, diamond, laakso1221, slash_product
from slashpow import serialization as ser
from slashpow.constructions import MeasuredGraph, build_laakso, laakso_from_cycle
from slashpow.core import StGraph, cycle_edge_indices, geodesic_metric
from slashpow.errors import InputError
from slashpow.laakso import enumerate_max_cycles, selector_identity_sum
from slashpow.slash import LabeledPower, slash_power


def crossed_quad() -> MeasuredGraph:
    """Two fan-in/fan-out levels: the central 4-cycle alternates orientation
    at every vertex, so its arcs are not directed paths."""
    g = StGraph(
        names=("s", "u1", "u2", "w1", "w2", "t"),
        edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)),
        weights=(F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 4),
                 F(1, 2), F(1, 2)),
        s=0, t=5)
    return MeasuredGraph(graph=g, nu=(F(1, 8),) * 8)


def test_crossed_quad_separates_directed_from_strict():
    # All directed s-t paths have length 1, but the zig-zag
    # s-u1-w1-u2-w2-t path is longer: the directed check passes and the
    # orientation-blind one must not.
    mg = crossed_quad()
    assert sp.validate_st_graph(mg.graph).ok
    assert sp.is_normalized_geodesic_st(mg.graph)
    assert not sp.is_strictly_geodesic_st(mg.graph)
    lo, hi = sp.undirected_st_path_length_range(mg.graph)
    assert (lo, hi) == (F(1), F(3, 2))


def test_strict_check_agrees_on_real_fixtures():
    for mg in (diamond(), laakso1221(), sp.slash_power(diamond(), 2).graph):
        assert sp.is_strictly_geodesic_st(mg.graph)


def test_laakso_from_alternating_cycle():
    # The central cycle u1-w1-u2-w2 has all four vertices as orientation
    # reversals; extraction still yields a valid canonically-oriented Laakso
    # s-t subgraph.  It is not isometric, and cannot be: the input is not
    # geodesic once orientation is ignored.
    mg = crossed_quad()
    g = mg.graph
    cyc = (1, 3, 2, 4)
    assert cycle_edge_indices(g, cyc)
    sub = laakso_from_cycle(g, cyc)
    assert sp.validate_st_graph(sub.graph).ok
    p = sub.structure.params
    # Nearest points u1 and w1 are adjacent on the cycle: arcs split 1 + 3.
    assert sorted((p.l1, p.l2)) == [1, 3]


def test_pipeline_rejects_crossed_quad():
    from slashpow.errors import NotNormalized

    with pytest.raises(NotNormalized):
        sp.balanced_laakso_pipeline(crossed_quad())


def test_selector_identity_non_uniform_weights():
    mg = build_laakso((1, 2, 2, 1), stem=[F(1, 3)],
                      branch1=[F(1, 6), F(1, 6)], branch2=[F(1, 4), F(1, 12)],
                      tail=[F(1, 3)])
    assert sp.is_normalized_geodesic_st(mg.graph)
    power = slash_power(mg, 2)
    g = power.graph.graph
    cycles = enumerate_max_cycles(power)
    for seed in (0, 1, 2):
        rng = random.Random(seed)

        def pick(c):
            edges = cycle_edge_indices(g, c)
            return edges[rng.randrange(len(edges))]

        assert selector_identity_sum(power, pick, cycles=cycles) == F(1, 2)


def test_mixed_product_counts():
    prod = slash_product(laakso1221(), diamond())
    assert prod.graph.edge_count == 6 * 4
    assert prod.graph.vertex_count == 6 + 6 * 2
    assert sum(prod.nu) == 1
    assert sp.is_normalized_geodesic_st(prod.graph)

    other = slash_product(diamond(), laakso1221())
    assert other.graph.edge_count == 24
    assert other.graph.vertex_count == 4 + 4 * 4
    assert sum(other.nu) == 1


def test_restricted_measure_roundtrip():
    mg = MeasuredGraph(graph=StGraph(names=("s", "a", "t"),
                                     edges=((0, 1), (1, 2), (0, 2)),
                                     weights=(F(1, 2), F(1, 2), F(1)),
                                     s=0, t=2),
                       nu=(F(1, 2), F(1, 2), F(0)), restricted=True)
    back = ser.loads(ser.dumps(mg))
    assert back.restricted
    assert back.nu == mg.nu
    assert back.graph == mg.graph


def test_zero_measure_requires_restricted_flag():
    g = diamond().graph
    with pytest.raises(InputError):
        MeasuredGraph(graph=g, nu=(F(1, 2), F(1, 2), F(0), F(0)))
    ok = MeasuredGraph(graph=g, nu=(F(1, 2), F(1, 2), F(0), F(0)),
                       restricted=True)
    assert sum(ok.nu) == 1


def test_lazy_metric_label_validation():
    # Vertex ids of diamond^2 run 0..11; each out-of-range id is refused
    # in either argument.
    lp = LabeledPower(diamond(), 2)
    for bad in (-1, 12, 99):
        for u, v in ((bad, 1), (1, bad)):
            with pytest.raises(InputError, match=f"vertex {bad} out of range 0..11"):
                lp.scaled_distance(u, v)


def test_find_balanced_accepts_either_branch_order():
    for params in ((0, 2, 3, 0), (0, 3, 2, 0)):
        w = sp.find_balanced_laakso(sp.uniform_laakso(params))
        assert w.n0 == 3 and w.i == 0
        assert w.subgraph.structure.params.l1 == 12
