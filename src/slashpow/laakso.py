"""Maximal-cycle combinatorics in powers of balanced Laakso graphs, the
balanced-subgraph finder for unbalanced ones, and the end-to-end pipeline
that turns any normalized geodesic s-t graph with a cycle into a balanced
Laakso s-t subgraph of one of its slash powers with small edges and its
stem/branch measure."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .constructions import (
    LaaksoParams,
    LaaksoStructure,
    LaaksoSubgraph,
    MeasuredGraph,
    _stem_and_tail,
    as_laakso,
    build_laakso_subgraph,
    laakso_from_cycle,
    laakso_measure,
)
from .core import (
    CycleSeq,
    PathSeq,
    StGraph,
    _simple_paths,
    _str_digit_limit,
    cycle_edge_indices,
    cycle_length,
    enumerate_cycles,
    is_normalized_geodesic_st,
    is_strictly_geodesic_st,
    path_cap,
    path_length,
    single_source_distances,
)
from .errors import (
    CapExceeded,
    InputError,
    InvalidPath,
    NoCycle,
    NotLaakso,
    NotNormalized,
    SelectorError,
)
from .slash import (
    EdgeLabel,
    LabeledPower,
    SlashPower,
    _require_base_st_path,
    lift_cycle,
    lift_path,
    slash_power,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class LaaksoBase:
    """A measured Laakso graph with its recognized segment structure."""

    measured: MeasuredGraph
    structure: LaaksoStructure

    @classmethod
    def from_measured(cls, mg: MeasuredGraph) -> "LaaksoBase":
        return cls(measured=mg, structure=as_laakso(mg.graph))

    @property
    def graph(self) -> StGraph:
        return self.measured.graph

    @cached_property
    def cycle_edge_ids(self) -> frozenset[int]:
        return frozenset(cycle_edge_indices(self.graph, self.structure.cycle))

    @cached_property
    def c0(self) -> Fraction:
        """Metric length of the branch cycle."""
        return cycle_length(self.graph, self.structure.cycle)


def _require_balanced(p: LaaksoParams) -> tuple[int, int]:
    """Return (l, k+l+m): branch length and s-t route graph length."""
    if not p.balanced:
        raise InputError(f"parameters {p.as_tuple()} are not balanced")
    return p.l1, p.k + p.l1 + p.m


def max_cycle_edge_count(params: LaaksoParams, n: int) -> int:
    """Edge count of any maximal-length cycle in the n-th power: every lift
    multiplies the count by the graph length of an s-t route.  A count too
    long to print (see core._str_digit_limit) is refused, a huge one before
    it is built."""
    l, route = _require_balanced(params)
    if n < 1:
        raise InputError("power must be at least 1")
    digits = _str_digit_limit()
    # route**(n-1) >= 2**((n-1)(bits-1)), which from 4*digits bits on is past
    # 10**digits (16**digits > 10**digits): refused before it is built.
    too_long = (n - 1) * (route.bit_length() - 1) >= 4 * digits
    if not too_long:
        count = 2 * l * route ** (n - 1)
        too_long = count.bit_length() >= 3 * digits and count >= 10 ** digits
    if too_long:
        raise CapExceeded(f"cycle edge count has more than {digits} decimal "
                          "digits (the int-to-str limit, PYTHONINTMAXSTRDIGITS)")
    return count


def _power_of_two(terms: Iterable[int]) -> int:
    """2**sum(terms), refused as soon as the running sum makes the decimal
    form too long to print (see core._str_digit_limit).  The terms are
    nonnegative, so a huge power stops after a few of them.
    """
    digits = _str_digit_limit()
    exponent = 0
    for term in terms:
        exponent += term
        # 2**e has at most `digits` decimal digits iff 2**e < 10**digits;
        # below 3*digits that holds (8**digits < 10**digits), so the exact
        # test, which builds 10**digits, runs only for large exponents.
        if exponent >= 3 * digits and exponent >= (10 ** digits).bit_length():
            raise CapExceeded(f"cycle count has more than {digits} decimal "
                              "digits (the int-to-str limit, "
                              "PYTHONINTMAXSTRDIGITS)")
    return 2 ** exponent


def count_max_cycles(params: LaaksoParams, n: int) -> int:
    """Number of maximal-length cycles in the n-th power (exact big integer):
    2 to the power 2l(1 + route + ... + route^(n-2))."""
    l, route = _require_balanced(params)
    if n < 1:
        raise InputError("power must be at least 1")
    return _power_of_two(2 * l * route ** i for i in range(n - 1))


def count_max_cycles_through_edge(base: LaaksoBase, label: EdgeLabel) -> int:
    """Number of maximal-length cycles containing the edge with this label.

    Zero when the coarsest coordinate lies off the branch cycle.  Finer
    coordinates contribute a doubling factor per level, halved when the
    coordinate is itself a branch edge (the route through that copy is then
    forced to one branch).
    """
    p = base.structure.params
    l, route = _require_balanced(p)
    if not label:
        raise InputError("empty edge label")
    for e in label:
        if not (0 <= e < base.graph.edge_count):
            raise InputError(f"bad edge coordinate in {label}")
    if label[0] not in base.cycle_edge_ids:
        return 0
    return _power_of_two(
        2 * l * route ** (j - 2) - (label[j - 1] in base.cycle_edge_ids)
        for j in range(2, len(label) + 1))


class MaxCycles(tuple):
    """The maximal cycles of one power, a tuple of vertex sequences, with
    `edges`, each cycle's edge indices in cycle_edge_indices order, and
    `power`, the power they were enumerated in."""

    edges: tuple[tuple[int, ...], ...]
    power: SlashPower

    def __new__(cls, cycles: Iterable[CycleSeq], edges: Iterable[tuple[int, ...]],
                power: SlashPower) -> "MaxCycles":
        self = super().__new__(cls, cycles)
        self.edges, self.power = tuple(edges), power
        return self


def _joins(options: Sequence[Sequence[tuple[int, ...]]]) -> Iterable[tuple[int, ...]]:
    """One option per step, joined, for every choice in product order."""
    return map(tuple, map(itertools.chain.from_iterable, itertools.product(*options)))


def enumerate_max_cycles(power: SlashPower) -> MaxCycles:
    """All maximal-length cycles of a balanced Laakso power, as vertex
    sequences of the materialized graph with their edge indices; refused
    when there are more than path_cap() of them.

    Cycles at each level arise from the previous level by routing every
    cycle edge through one of the two s-t routes of the base, walked from t
    to s where the cycle runs against the edge's orientation; the choice
    vectors run in itertools.product order, the last step's fastest.  Each
    step's two routings are built once per cycle and joined in bulk, and
    every returned cycle is checked against the power's graph.
    """
    base = LaaksoBase.from_measured(power.base)
    expected = count_max_cycles(base.structure.params, power.n)
    cap = path_cap()
    if expected > cap:
        raise CapExceeded(f"{expected} cycles exceed cap {cap}")
    routes = (base.structure.route1(), base.structure.route2())
    for route in routes:
        _require_base_st_path(base.graph, route)
    ways = [(route, route[::-1]) for route in routes]
    copy_walk = power._copy_walk
    cycles: list[CycleSeq] = [base.structure.cycle]
    edges: list[tuple[int, ...]] = [cycle_edge_indices(base.graph, cycles[0])]
    for level in range(1, power.n):
        prev = power.level_graph(level).graph
        lifted: list[CycleSeq] = []
        lifted_edges: list[tuple[int, ...]] = []
        for c, es in zip(cycles, edges):
            steps = [[copy_walk(prev, ei, way[prev.edges[ei][0] != a])
                      for way in ways] for a, ei in zip(c, es)]
            lifted.extend(_joins([[v for v, _ in step] for step in steps]))
            lifted_edges.extend(_joins([[e for _, e in step] for step in steps]))
        cycles, edges = lifted, lifted_edges
    ids = power.graph.graph.edge_ids
    for c, es in zip(cycles, edges):
        if len(set(c)) != len(c):
            raise InvalidPath("lifted cycle revisits a vertex")
        # Compared as lists: a tuple built from map() and dropped at once
        # would stay on the interpreter's tuple free list (0.35 MB on
        # diamond^3).
        if list(map(ids.get, zip(c, c[1:] + c[:1]))) != list(es):
            raise InvalidPath("lifted cycle leaves the graph")
    assert len(cycles) == expected
    return MaxCycles(cycles, edges, power)


def selector_identity_sum(power: SlashPower,
                          selector: Callable[[CycleSeq], int],
                          cycles: Optional[Sequence[CycleSeq]] = None) -> Fraction:
    """Sum over maximal cycles C of nu(e)/(d(e) |cycles through e|) at
    e = selector(C).

    The selector must return an edge of C whose coarsest label coordinate is
    a branch edge of the base; the sum is selector-independent and equals 1/2
    exactly.
    """
    base = LaaksoBase.from_measured(power.base)
    mg = power.graph
    if cycles is None:
        cycles = enumerate_max_cycles(power)
    # Every pick is checked in cycle order; an edge's cycle count is computed
    # at its first pick, and its term enters the sum once, times its picks.
    through: dict[int, int] = {}
    picks: dict[int, int] = {}
    for c in cycles:
        eidx = selector(c)
        if eidx not in cycle_edge_indices(mg.graph, c):
            raise SelectorError(f"selected edge {eidx} is not on the cycle")
        if eidx in picks:
            picks[eidx] += 1
            continue
        label = power.edge_label(eidx)
        if label[0] not in base.cycle_edge_ids:
            raise SelectorError(
                f"selected edge {eidx} has coarse coordinate off the branch cycle")
        through[eidx] = count_max_cycles_through_edge(base, label)
        picks[eidx] = 1
    return sum((Fraction(count, through[eidx]) * mg.nu[eidx] / mg.graph.weights[eidx]
                for eidx, count in picks.items()), ZERO)


@dataclass(frozen=True)
class BalancedLaaksoWitness:
    """A balanced Laakso s-t subgraph found inside a power of an unbalanced
    base, with the two equal-length lifted arcs and attachment paths."""

    base: LaaksoBase
    n0: int
    i: int
    power: SlashPower
    q1: PathSeq
    q2: PathSeq
    r1: PathSeq
    r2: PathSeq
    subgraph: LaaksoSubgraph


def _branch_routes(st: LaaksoStructure) -> tuple[PathSeq, PathSeq, PathSeq, PathSeq]:
    """(small branch, big branch, small route, big route) by graph length."""
    b1, b2 = st.branch1, st.branch2
    r1, r2 = st.route1(), st.route2()
    if len(b1) <= len(b2):
        return b1, b2, r1, r2
    return b2, b1, r2, r1


def balancing_power(params: LaaksoParams) -> int:
    """Smallest power whose lifted arcs can be made equal in graph length.

    Computed by exact integer comparison of the two arc growth sequences;
    agrees with the closed logarithmic form.
    """
    if params.balanced:
        return 1
    l_small, l_big = sorted((params.l1, params.l2))
    km = params.k + params.m

    def m_len(n: int) -> int:
        return (km + l_big) ** (n - 1) * l_small

    def n_len(n: int) -> int:
        return (km + l_small) ** (n - 1) * l_big

    n = 1
    while m_len(n + 1) <= n_len(n + 1):
        n += 1
    return n + 1


def find_balanced_laakso(mg: MeasuredGraph) -> BalancedLaaksoWitness:
    """Find a balanced Laakso s-t subgraph inside a power of a Laakso graph.

    The shorter branch is lifted through the longer route and vice versa; at
    the last level a computed number i of steps switch route so the two arcs
    land on the same graph length.  A balanced input is returned unchanged as
    its own witness.  The witness cycle always has the metric length of the
    base cycle.
    """
    base = LaaksoBase.from_measured(mg)
    st = base.structure
    p = st.params

    if p.balanced:
        power = slash_power(mg, 1)
        sub = build_laakso_subgraph(mg.graph, st.stem, st.branch1, st.branch2, st.tail)
        return BalancedLaaksoWitness(base=base, n0=1, i=0, power=power,
                                     q1=st.branch1, q2=st.branch2,
                                     r1=st.stem, r2=st.tail, subgraph=sub)

    branch_small, branch_big, route_small, route_big = _branch_routes(st)
    l_small, l_big = len(branch_small) - 1, len(branch_big) - 1
    km = p.k + p.m
    n0 = balancing_power(p)
    m_prev = (km + l_big) ** (n0 - 2) * l_small
    n_target = (km + l_small) ** (n0 - 1) * l_big
    num = n_target - (km + l_small) * m_prev
    if num % (l_big - l_small):
        raise InputError("arc lengths cannot be balanced (non-integral switch count)")
    i = num // (l_big - l_small)
    if not (0 <= i <= m_prev):
        raise InputError(f"switch count {i} out of range [0, {m_prev}]")

    power = slash_power(mg, n0)

    q1: PathSeq = branch_small
    for level in range(1, n0 - 1):
        q1 = lift_path(power, level, q1, [route_big] * (len(q1) - 1))
    mixed = [route_big] * i + [route_small] * (len(q1) - 1 - i)
    q1 = lift_path(power, n0 - 1, q1, mixed)

    q2: PathSeq = branch_big
    for level in range(1, n0):
        q2 = lift_path(power, level, q2, [route_small] * (len(q2) - 1))

    if len(q1) != len(q2):
        raise InputError(f"arc graph lengths differ: {len(q1) - 1} vs {len(q2) - 1}")
    g = power.graph.graph
    u, v = st.branch1[0], st.tail[0]
    assert (q1[0], q1[-1]) == (u, v) and (q2[0], q2[-1]) == (u, v)

    half = base.c0 / 2
    if path_length(g, q1) != half or path_length(g, q2) != half:
        raise InputError("lifted arcs do not halve the base cycle length")

    cycle: CycleSeq = tuple(q1[:-1]) + tuple(reversed(q2[1:]))
    r1, r2 = _stem_and_tail(g, cycle)
    assert (r1[-1], r2[0]) == (u, v), "junctions are no longer the nearest cycle vertices"

    sub = build_laakso_subgraph(g, r1, q1, q2, r2)
    assert sub.structure.params.balanced
    return BalancedLaaksoWitness(base=base, n0=n0, i=i, power=power,
                                 q1=q1, q2=q2, r1=r1, r2=r2, subgraph=sub)


@dataclass(frozen=True)
class PipelineResult:
    """Power index N, the N-th power addressed by labels, a balanced Laakso
    s-t subgraph of it with all edge weights at most a quarter of its cycle
    length, and the subgraph's stem/branch measure, on its own edges."""

    n: int
    power: LabeledPower
    subgraph: LaaksoSubgraph
    measure: MeasuredGraph
    c0: Fraction


def balanced_laakso_pipeline(mg: MeasuredGraph) -> PipelineResult:
    """Find N and a balanced Laakso s-t subgraph of the N-th power whose
    cycle realizes the maximal cycle length of the input and whose edges all
    weigh at most a quarter of it; attach the subgraph's standard stem/branch
    measure.

    Raises NoCycle when the input is a path, and CapExceeded when an s-t
    path or cycle count passes path_cap() or a power passes edge_cap().
    """
    g = mg.graph
    if not is_normalized_geodesic_st(g):
        raise NotNormalized("pipeline input must be a normalized geodesic s-t graph")
    if not is_strictly_geodesic_st(g):
        # Zig-zag s-t paths of other lengths void the isometric-subgraph
        # guarantees the construction rests on.
        raise NotNormalized(
            "some s-t path has a different length when orientation is ignored")
    cycles = enumerate_cycles(g)
    if not cycles:
        raise NoCycle("input graph is a path")
    # Strict geodesicity makes each cycle's weight sum its metric length.
    lengths = [cycle_length(g, c) for c in cycles]
    c0 = max(lengths)
    cycle0 = min(c for c, length in zip(cycles, lengths) if length == c0)
    quarter = c0 / 4

    # Already small and balanced: nothing to do beyond attaching the measure.
    try:
        st = as_laakso(g)
    except NotLaakso:
        st = None
    if (st is not None and st.params.balanced
            and max(g.weights) <= quarter):
        sub = build_laakso_subgraph(g, st.stem, st.branch1, st.branch2, st.tail)
        return PipelineResult(n=1, power=LabeledPower(mg, 1), subgraph=sub,
                              measure=laakso_measure(sub.graph, sub.structure), c0=c0)

    # The least s-t path with an inner vertex, without listing them all.
    route = next((tuple(p) for p in _simple_paths(g.out_adj, g.s, stop=g.t)
                  if p[-1] == g.t and len(p) >= 3), None)
    assert route is not None, "a graph with a cycle has an s-t path of length >= 2"

    pw2 = slash_power(mg, 2)
    c1 = lift_cycle(pw2, 1, cycle0, [route] * len(cycle0))
    extraction = laakso_from_cycle(pw2.graph.graph, c1)
    if max(extraction.graph.weights) >= 1:
        raise InputError("extracted subgraph has an edge of full length")
    inner = laakso_measure(extraction.graph, extraction.structure)

    witness = find_balanced_laakso(inner)
    n_star = witness.n0
    inner_power = witness.power
    segments = [witness.r1, witness.q1, witness.q2, witness.r2]
    least_route = witness.base.structure.route1()

    def seg_max_weight(power: SlashPower, segs: Sequence[PathSeq]) -> Fraction:
        gg = power.graph.graph
        worst = ZERO
        for seg in segs:
            for a, b in zip(seg, seg[1:]):
                worst = max(worst, gg.weights[gg.edge_index(a, b)])
        return worst

    while seg_max_weight(inner_power, segments) > quarter:
        n_star += 1
        inner_power = slash_power(inner, n_star)
        segments = [lift_path(inner_power, n_star - 1, seg,
                              [least_route] * (len(seg) - 1))
                    for seg in segments]

    n_final = 2 * n_star
    # G^N is read by labels: the subgraph is the one graph built from it.
    power = LabeledPower(mg, n_final)
    final_segments = _transport_segments(power, pw2, extraction, inner_power, segments)
    sub = build_laakso_subgraph(power, *final_segments)
    assert sub.structure.params.balanced

    sub_cycle_len = cycle_length(sub.graph, sub.structure.cycle)
    if sub_cycle_len != c0:
        raise InputError(f"subgraph cycle has length {sub_cycle_len}, expected {c0}")
    if max(sub.graph.weights) > quarter:
        raise InputError("subgraph still has an edge above a quarter of the cycle")
    _spot_check_isometry(power, sub)
    return PipelineResult(n=n_final, power=power, subgraph=sub,
                          measure=laakso_measure(sub.graph, sub.structure), c0=c0)


def _spot_check_isometry(power: LabeledPower, sub: LaaksoSubgraph) -> None:
    """Induced distances from the subgraph vertices range(0, nv, max(1,
    nv // 8)) must equal the ambient restriction: all nv of them when
    nv < 16, otherwise 8 to 12 spread evenly over the vertex ids.  Ambient
    distances come from power.scaled_distance, so the power's adjacency is
    never built."""
    small, pv = sub.graph, sub.parent_vertices
    big_scale, small_scale = power.scale, small.weight_scale
    nv = small.vertex_count
    step = max(1, nv // 8)
    for u in range(0, nv, step):
        row = single_source_distances(small, u)
        for v in range(nv):
            # d_small(u, v) == d_big, cross-multiplied by both scales
            ambient = power.scaled_distance(pv[u], pv[v])
            if row[v] * big_scale != ambient * small_scale:
                raise InputError(
                    f"subgraph is not isometric at pair ({u}, {v})")


def _transport_segments(power: LabeledPower, pw2: SlashPower,
                        extraction: LaaksoSubgraph, inner_power: SlashPower,
                        segments: Sequence[PathSeq]) -> list[PathSeq]:
    """Map segment paths from a power of the extracted subgraph into the
    power of the original base of twice its level, vertex by vertex: a
    vertex's canonical label, with each edge coordinate replaced by that
    edge's label in pw2 and the vertex by its label in pw2, is its address
    in power.

    Expects segments in (stem, arc1, arc2, tail) order.
    """
    edge_labels = [pw2.edge_label(pe) for pe in extraction.parent_edges]
    vertex_labels = [pw2.vertex_label(pv) for pv in extraction.parent_vertices]

    def vertex(x: int) -> int:
        label = inner_power.vertex_label(x)
        *flat, v = itertools.chain(*(edge_labels[e] for e in label[:-1]),
                                   vertex_labels[label[-1]])
        return power.resolve_vertex(len(flat) + 1, power.edge_index(flat), v) if flat else v

    mapped = [tuple(map(vertex, seg)) for seg in segments]
    base = power.base.graph
    if mapped[0][0] != base.s or mapped[3][-1] != base.t:
        raise AssertionError("transported segments do not run from s to t")
    return mapped
