"""Named verification suites behind the CLI `verify` command.

Each suite re-checks one family of exact identities or bounds at desk scale
and reports one row per parameter set.  The suite ids are fixed tokens of
the command-line interface.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .constructions import LaaksoParams, MeasuredGraph, cycle_st_graph, uniform_laakso
from .core import cycle_edge_indices, cycle_length
from .embeddings import (
    GeodesicTree,
    cycle_embedding_witness,
    frt_tree,
    identity_tree_map,
    iter_labeled_trees,
    optimal_tree_weights,
    oracle_min_expected_distortion,
    truncated_distortion_bound,
)
from .errors import WitnessNotFound
from .laakso import (
    LaaksoBase,
    count_max_cycles,
    count_max_cycles_through_edge,
    enumerate_max_cycles,
    max_cycle_edge_count,
    selector_identity_sum,
)
from .slash import slash_power

HALF = Fraction(1, 2)

SUITE_BASES: tuple[tuple[int, int, int, int], ...] = ((0, 2, 2, 0), (1, 2, 2, 1))
SUITE_POWERS: tuple[int, ...] = (1, 2)  # slash powers of the cor42, prop41, thm41 rows
COR42_SELECTORS = 50  # seeded random selectors per cor42 row
LEMMA31_SIZES: tuple[int, ...] = (4, 5, 6)  # unit cycle sizes of the lemma31 rows
THM41_SEEDS = 100  # seeded dominating trees per thm41 row


@dataclass(frozen=True)
class SuiteRow:
    label: str
    value: str
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    rows: tuple[SuiteRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)


def selector_identity_suite() -> SuiteReport:
    """Random eligible selectors all produce the exact sum 1/2."""
    rows: list[SuiteRow] = []
    for params in SUITE_BASES:
        mg = uniform_laakso(params)
        for n in SUITE_POWERS:
            power = slash_power(mg, n)
            cycles = enumerate_max_cycles(power)
            g = power.graph.graph
            good = 0
            for seed in range(COR42_SELECTORS):
                rng = random.Random(seed)

                def pick(c, _rng=rng):
                    edges = cycle_edge_indices(g, c)
                    return edges[_rng.randrange(len(edges))]

                if selector_identity_sum(power, pick, cycles=cycles) == HALF:
                    good += 1
            rows.append(SuiteRow(
                label=f"base {params} n={n}: {COR42_SELECTORS} seeded selectors",
                value=f"{good}/{COR42_SELECTORS} sums equal 1/2",
                passed=good == COR42_SELECTORS))
    return SuiteReport(suite="cor42", rows=tuple(rows))


def cycle_count_suite() -> SuiteReport:
    """Closed-form cycle counts equal exhaustive enumeration, including the
    per-edge counts for every edge label, and the three reference per-edge
    values for the (1,2,2,1) base at n=2."""
    rows: list[SuiteRow] = []
    for params in SUITE_BASES:
        mg = uniform_laakso(params)
        p = LaaksoParams(*params)
        for n in SUITE_POWERS:
            power = slash_power(mg, n)
            base = LaaksoBase.from_measured(mg)
            cycles = enumerate_max_cycles(power)
            g = power.graph.graph
            count_ok = len(cycles) == count_max_cycles(p, n)
            size_ok = all(len(c) == max_cycle_edge_count(p, n) for c in cycles)
            length_ok = all(cycle_length(g, c) == base.c0 for c in cycles)
            per_edge = [0] * g.edge_count
            for c in cycles:
                for ei in cycle_edge_indices(g, c):
                    per_edge[ei] += 1
            edge_ok = all(
                per_edge[ei] == count_max_cycles_through_edge(base, power.edge_label(ei))
                for ei in range(g.edge_count))
            rows.append(SuiteRow(
                label=f"base {params} n={n}: enumeration vs closed forms",
                value=(f"{len(cycles)} cycles of {max_cycle_edge_count(p, n)} edges; "
                       f"per-edge counts exhaustive"),
                passed=count_ok and size_ok and length_ok and edge_ok))

    # Reference per-edge values for (1,2,2,1), n=2: one stem-rooted label and
    # two cycle-rooted labels with stem / branch fine coordinate.
    mg = uniform_laakso((1, 2, 2, 1))
    base = LaaksoBase.from_measured(mg)
    st = base.structure
    stem_edge = base.graph.edge_index(st.stem[0], st.stem[1])
    branch_edge = next(iter(sorted(base.cycle_edge_ids)))
    expected = {
        (stem_edge, stem_edge): 0,
        (branch_edge, stem_edge): 16,
        (branch_edge, branch_edge): 8,
    }
    got = {label: count_max_cycles_through_edge(base, label) for label in expected}
    rows.append(SuiteRow(
        label="base (1, 2, 2, 1) n=2: reference per-edge counts",
        value=f"{tuple(got.values())} == (0, 16, 8)",
        passed=got == expected))
    return SuiteReport(suite="prop41", rows=tuple(rows))


def unit_cycle_measured(n: int) -> MeasuredGraph:
    """Unit-weight n-cycle with the uniform edge measure (s-t split as evenly
    as the parity allows)."""
    m = n // 2
    g = cycle_st_graph([1] * m, [1] * (n - m))
    return MeasuredGraph(graph=g, nu=tuple(Fraction(1, n) for _ in range(n)))


def cycle_witness_suite() -> SuiteReport:
    """Every labeled tree topology with exact optimal expansive weights
    stretches some cycle edge to at least (c0 - d(e)) / 8."""
    rows: list[SuiteRow] = []
    for n in LEMMA31_SIZES:
        mg = unit_cycle_measured(n)
        metric = mg.graph.metric
        tmap = identity_tree_map(n)
        found = 0
        total = 0
        for _, edges in iter_labeled_trees(n):
            total += 1
            _, weights = optimal_tree_weights(metric, mg.nu, edges)
            tree = GeodesicTree(names=mg.graph.names, edges=edges, weights=weights)
            try:
                cycle_embedding_witness(mg.graph, tree, tmap)
            except WitnessNotFound:
                continue
            found += 1
        rows.append(SuiteRow(
            label=f"unit {n}-cycle: all {total} labeled tree topologies",
            value=f"{found}/{total} witness edges found",
            passed=found == total))
    return SuiteReport(suite="lemma31", rows=tuple(rows))


def truncated_bound_suite() -> SuiteReport:
    """Expected truncated stretch of expansive trees into powers of the
    standard diamond stays above (3/128) c0 n, and every maximal cycle keeps
    a (3/32) c0 stretched edge; checked for the oracle-optimal tree at n=1
    and for seeded random dominating trees at every listed power."""
    rows: list[SuiteRow] = []
    mg = uniform_laakso((0, 2, 2, 0))

    power1 = slash_power(mg, 1)
    oracle = oracle_min_expected_distortion(mg)
    try:
        res = truncated_distortion_bound(power1, oracle.tree, oracle.tree_map)
    except WitnessNotFound as exc:
        value, passed = str(exc), False
    else:
        value, passed = f"{res.value} >= {res.bound}", res.holds
    rows.append(SuiteRow(label="diamond n=1: oracle-optimal tree",
                         value=value, passed=passed))

    for n in SUITE_POWERS:
        power = slash_power(mg, n)
        metric = power.metric
        cycles = enumerate_max_cycles(power)
        good = 0
        for seed in range(THM41_SEEDS):
            tree, tmap = frt_tree(metric, random.Random(seed))
            try:
                res = truncated_distortion_bound(power, tree, tmap, cycles=cycles)
            except WitnessNotFound:
                continue
            if res.holds:
                good += 1
        rows.append(SuiteRow(
            label=f"diamond n={n}: {THM41_SEEDS} seeded dominating trees",
            value=f"{good}/{THM41_SEEDS} above (3/128) c0 n with cycle witnesses",
            passed=good == THM41_SEEDS))
    return SuiteReport(suite="thm41", rows=tuple(rows))


SUITES: dict[str, Callable[[], SuiteReport]] = {
    "cor42": selector_identity_suite,
    "prop41": cycle_count_suite,
    "lemma31": cycle_witness_suite,
    "thm41": truncated_bound_suite,
}
