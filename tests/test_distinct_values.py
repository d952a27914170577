"""Each distinct weight and measure object is checked once, each distinct
rational string is parsed once, and each picked edge's Cor 4.2 term is
computed once.  These cases pin that the first error, its message and every
sum stay what a per-edge check and a per-cycle sum give."""

import json
import random
from fractions import Fraction as F

import pytest

from helpers import diamond, weighted1220
from slashpow import serialization as ser
from slashpow.constructions import MeasuredGraph
from slashpow.core import StGraph, cycle_edge_indices, enumerate_cycles
from slashpow.errors import InputError, SchemaError, SelectorError
from slashpow.laakso import (
    LaaksoBase,
    count_max_cycles_through_edge,
    enumerate_max_cycles,
    selector_identity_sum,
)
from slashpow.slash import slash_power

PATH_NAMES = ("a", "b", "c", "d")
PATH_EDGES = ((0, 1), (1, 2), (2, 3))


def path_graph(*weights) -> StGraph:
    return StGraph(names=PATH_NAMES, edges=PATH_EDGES, weights=weights, s=0, t=3)


def raises(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert str(info.value) == message


# --- StGraph weights -------------------------------------------------------

def test_weight_equal_to_a_good_one_but_not_a_fraction():
    # 1/2 == 0.5 and both hash alike: only a check per object catches it.
    raises(InputError, "edge (1,2) has non-positive weight 0.5",
           lambda: path_graph(F(1, 2), 0.5, F(1, 2)))
    raises(InputError, "edge (1,2) has non-positive weight 1",
           lambda: path_graph(F(1), 1, F(1)))


def test_shared_bad_weight_is_reported_at_its_first_edge():
    bad = F(-1, 3)
    raises(InputError, "edge (1,2) has non-positive weight -1/3",
           lambda: path_graph(F(1), bad, bad))
    zero = F(0)
    raises(InputError, "edge (0,1) has non-positive weight 0",
           lambda: path_graph(zero, F(1), zero))


def test_first_failing_edge_decides_between_weight_and_structure():
    edges = ((0, 1), (1, 2), (1, 0))
    raises(InputError, "edge (1,2) has non-positive weight -1",
           lambda: StGraph(names=PATH_NAMES, edges=edges,
                           weights=(F(1), F(-1), F(1)), s=0, t=3))
    good = F(1)
    raises(InputError, "parallel edge between 1 and 0",
           lambda: StGraph(names=PATH_NAMES, edges=edges,
                           weights=(good, good, F(-1)), s=0, t=3))
    raises(InputError, "parallel edge between 0 and 1",
           lambda: StGraph(names=PATH_NAMES, edges=((1, 0), (0, 1)),
                           weights=(good, good), s=0, t=3))


# --- MeasuredGraph measures ------------------------------------------------

def measured(*nu, restricted=False) -> MeasuredGraph:
    return MeasuredGraph(graph=path_graph(F(1, 3), F(1, 3), F(1, 3)),
                         nu=nu, restricted=restricted)


def test_measure_equal_to_a_good_one_but_not_a_fraction():
    raises(InputError, "measure values must be Fractions",
           lambda: measured(F(1, 4), 0.25, F(1, 2)))
    raises(InputError, "measure values must be Fractions",
           lambda: measured(F(1), 0, 0, restricted=True))


def test_measure_errors_keep_their_order():
    bad = F(-1, 4)
    raises(InputError, "measure value -1/4 out of range",
           lambda: measured(F(1, 2), bad, bad))
    raises(InputError, "measure value -1/4 out of range",
           lambda: measured(F(1, 2), bad, 0.25))
    raises(InputError, "measure values must be Fractions",
           lambda: measured(F(1, 2), 0.25, bad))
    zero = F(0)
    raises(InputError, "measure value 0 out of range",
           lambda: measured(F(1), zero, zero))
    assert measured(F(1), zero, zero, restricted=True).nu == (1, 0, 0)


def test_measure_sum_counts_shared_objects():
    third, quarter = F(1, 3), F(1, 4)
    assert measured(third, third, third).nu == (third,) * 3
    raises(InputError, "measure sums to 3/4, not 1",
           lambda: measured(quarter, quarter, quarter))
    raises(InputError, "measure sums to 5/4, not 1",
           lambda: measured(F(1, 2), quarter, F(1, 2)))


# --- serialization ---------------------------------------------------------

def test_repeated_zero_weight_string_in_a_file():
    doc = json.loads(ser.dumps(path_graph(F(1, 3), F(1, 3), F(1, 3))))
    doc["edges"][1][2] = doc["edges"][2][2] = "0/1"
    raises(SchemaError, "edge (1,2) has non-positive weight 0",
           lambda: ser.loads(json.dumps(doc)))


def test_repeated_bad_measure_string_in_a_file():
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"] = ["1/4", "1/2", "-1/4", "1/2"]
    raises(SchemaError, "measure value -1/4 out of range",
           lambda: ser.loads(json.dumps(doc)))
    doc["measure"] = ["1/4", "1/4", "1/4", "x"]
    raises(SchemaError, "bad rational 'x'", lambda: ser.loads(json.dumps(doc)))
    doc["measure"] = ["1/4", "1/4", 0.25, "1/4"]
    raises(SchemaError, "rational must be a string or integer, got float",
           lambda: ser.loads(json.dumps(doc)))


def test_edge_rows_and_orientation_in_either_direction():
    doc = {"vertices": ["s", "m", "t"],
           "edges": [["m", "s", "1/2"], ["t", "m", "1/2"]],
           "s": "s", "t": "t",
           "orientation": [["s", "m"], ["m", "t"]]}
    g = ser.loads(json.dumps(doc))
    assert g.edges == ((0, 1), (1, 2))
    assert g.weights == (F(1, 2), F(1, 2))
    doc["edges"].append(["s", "m", "1/2"])
    raises(SchemaError, "duplicate edge 's'-'m'", lambda: ser.loads(json.dumps(doc)))
    doc["edges"].pop()
    doc["orientation"][1] = ["m", "s"]
    raises(SchemaError, "orientation repeats edge ['m', 's']",
           lambda: ser.loads(json.dumps(doc)))


def test_loaded_power_round_trips_and_shares_values():
    power = slash_power(diamond(), 4).graph
    text = ser.dumps(power)
    back = ser.loads(text)
    assert ser.dumps(back) == text
    for values in (power.graph.weights, power.nu, back.graph.weights, back.nu):
        assert len({id(x) for x in values}) == len(set(values)) == 1


# --- Cor 4.2 sum -----------------------------------------------------------

def per_cycle_sum(power, selector, cycles) -> F:
    """Cor 4.2 as a sum over cycles, one term per cycle."""
    base = LaaksoBase.from_measured(power.base)
    mg = power.graph
    total = F(0)
    for c in cycles:
        eidx = selector(c)
        through = count_max_cycles_through_edge(base, power.edge_label(eidx))
        total += F(1, through) * mg.nu[eidx] / mg.graph.weights[eidx]
    return total


@pytest.mark.parametrize("mg,n", [(weighted1220(), 2), (diamond(), 3)])
def test_selector_sum_matches_the_per_cycle_sum(mg, n):
    power = slash_power(mg, n)
    g = power.graph.graph
    cycles = enumerate_max_cycles(power)
    rng = random.Random(7)

    def choose(c):
        # Mostly the last edge, sometimes a random one: a selector far from
        # uniform over the edges it can pick.
        edges = cycle_edge_indices(g, c)
        return edges[-1] if rng.random() < 0.8 else rng.choice(edges)

    picks = {c: choose(c) for c in cycles}
    value = selector_identity_sum(power, picks.__getitem__, cycles=cycles)
    assert value == per_cycle_sum(power, picks.__getitem__, cycles)
    assert value == F(1, 2)
    assert len(set(picks.values())) < len(cycles)


def counting(selector):
    calls = []

    def pick(c):
        calls.append(c)
        return selector(c)

    return pick, calls


def test_off_cycle_pick_raises_at_its_cycle():
    power = slash_power(weighted1220(), 2)
    g = power.graph.graph
    cycles = enumerate_max_cycles(power)
    first_miss = {}
    for i, c in enumerate(cycles):
        on = cycle_edge_indices(g, c)
        for e in cycle_edge_indices(g, cycles[0]):
            if e not in on:
                first_miss.setdefault(e, i)
    # The edge of the first cycle that stays on the most cycles after it.
    bad_at, stray = max((i, e) for e, i in first_miss.items())
    assert bad_at > 1
    pick, calls = counting(lambda c: stray)
    with pytest.raises(SelectorError) as info:
        selector_identity_sum(power, pick, cycles=cycles)
    assert str(info.value) == f"selected edge {stray} is not on the cycle"
    assert len(calls) == bad_at + 1


def test_off_branch_pick_raises_at_its_cycle():
    mg = weighted1220()
    power = slash_power(mg, 2)
    g = power.graph.graph
    base = LaaksoBase.from_measured(mg)
    maximal = enumerate_max_cycles(power)
    # The copy that replaced the stem edge holds a cycle of its own, whose
    # edges all have their coarsest coordinate off the branch cycle.
    stem_cycle = next(c for c in enumerate_cycles(g)
                      if all(power.edge_label(e)[0] not in base.cycle_edge_ids
                             for e in cycle_edge_indices(g, c)))
    cycles = list(maximal[:3]) + [stem_cycle] + list(maximal[3:])
    pick, calls = counting(lambda c: cycle_edge_indices(g, c)[0])
    off = cycle_edge_indices(g, stem_cycle)[0]
    with pytest.raises(SelectorError) as info:
        selector_identity_sum(power, pick, cycles=cycles)
    assert str(info.value) == (
        f"selected edge {off} has coarse coordinate off the branch cycle")
    assert len(calls) == 4
