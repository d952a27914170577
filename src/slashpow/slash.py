"""Slash products and slash powers of measured normalized geodesic s-t graphs.

The product H (/) G substitutes a copy of G for every edge of H, identifying
copy boundaries with the endpoints of the replaced edge.  Edge weights and
edge measures multiply.  Powers are materialized level by level; vertex ids
of lower powers are stable prefixes of higher ones, which keeps lifting of
paths cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .constructions import MeasuredGraph
from .core import (
    CycleSeq,
    GeodesicMetric,
    PathSeq,
    StGraph,
    edge_cap,
    is_normalized_geodesic_st,
)
from .errors import CapExceeded, InputError, InvalidPath, NotNormalized

EdgeLabel = tuple[int, ...]
VertexLabel = tuple[int, ...]  # base-edge ids followed by one base-vertex id


def _uniquify(names: list[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out: list[str] = []
    for name in names:
        while name in seen:
            name += "~"
        seen.add(name)
        out.append(name)
    return tuple(out)


def _interiors(g: StGraph) -> tuple[int, ...]:
    return tuple(v for v in range(g.vertex_count) if v not in (g.s, g.t))


def _scaled_rows(scales: Sequence[Fraction], values: Sequence[Fraction]
                 ) -> list[tuple[Fraction, ...]]:
    """Per scale, the products scale * x over values.

    A row is built once per distinct scale object (by id(); the caller's
    sequence keeps the objects alive), and equal products are one object, so
    rows built from these products are shared at the next level as well."""
    canon: dict[Fraction, Fraction] = {}
    built: dict[int, tuple[Fraction, ...]] = {}
    rows = []
    for scale in scales:
        row = built.get(id(scale))
        if row is None:
            row = built[id(scale)] = tuple(
                canon.setdefault(p, p) for p in [scale * x for x in values])
        rows.append(row)
    return rows


def _substitute(h: StGraph, replaced: Sequence[int], g: StGraph,
                interior_name: Callable[[int, int], str]
                ) -> tuple[StGraph, tuple[tuple[int, ...], ...]]:
    """Replace each listed edge of h by a copy of the s-t graph g, with s and
    t at the edge's tail and head and weights scaled by the edge's weight.

    Kept edges come first, then each copy's edges in g's order.  Returns the
    graph and, per listed edge ei, the map from g's vertex ids to the copy's,
    whose interior vertex v is named interior_name(ei, v)."""
    names = list(h.names)
    gone = set(replaced)
    edges = [e for i, e in enumerate(h.edges) if i not in gone]
    weights = [w for i, w in enumerate(h.weights) if i not in gone]
    interiors = _interiors(g)
    tables: list[tuple[int, ...]] = []
    rows = _scaled_rows([h.weights[ei] for ei in replaced], g.weights)
    for ei, row in zip(replaced, rows):
        table = [0] * g.vertex_count
        table[g.s], table[g.t] = h.edges[ei]
        for v in interiors:
            table[v] = len(names)
            names.append(interior_name(ei, v))
        edges.extend((table[u], table[v]) for u, v in g.edges)
        weights.extend(row)
        tables.append(tuple(table))
    graph = StGraph(names=_uniquify(names), edges=tuple(edges),
                    weights=tuple(weights), s=h.s, t=h.t)
    return graph, tuple(tables)


def _raw_product(h: MeasuredGraph, g: MeasuredGraph,
                 interior_name: Callable[[int, int], str]
                 ) -> tuple[MeasuredGraph, tuple[tuple[int, ...], ...]]:
    """Product without input validation.

    Returns the measured product and, per h-edge, the map from base vertex id
    to product vertex id (copy boundaries resolve to the h-edge endpoints).
    """
    graph, copy_vertices = _substitute(h.graph, range(h.graph.edge_count),
                                       g.graph, interior_name)
    nu = tuple(itertools.chain.from_iterable(_scaled_rows(h.nu, g.nu)))
    return MeasuredGraph(graph=graph, nu=nu), copy_vertices


def _require_normalized(mg: MeasuredGraph, role: str) -> None:
    if not is_normalized_geodesic_st(mg.graph):
        raise NotNormalized(f"{role} graph is not a normalized geodesic s-t graph")


def slash_product(h: MeasuredGraph, g: MeasuredGraph) -> MeasuredGraph:
    """Measured slash product of two normalized geodesic s-t graphs, refused
    when it would have more than edge_cap() edges."""
    cap = edge_cap()
    if h.graph.edge_count * g.graph.edge_count > cap:
        raise CapExceeded(
            f"product would have {h.graph.edge_count * g.graph.edge_count} edges, cap {cap}")
    _require_normalized(h, "left")
    _require_normalized(g, "right")
    product, _ = _raw_product(h, g, lambda ei, v: f"{ei}:{g.graph.names[v]}")
    return product


@dataclass(frozen=True)
class SlashLevel:
    """One power of the tower.  ``copy_vertices[prev_edge][base_vertex]`` maps
    into this level; it is None at level 1."""

    measured: MeasuredGraph
    edge_labels: tuple[EdgeLabel, ...]
    copy_vertices: Optional[tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class SlashPower:
    """Materialized slash power with label bookkeeping for every level."""

    base: MeasuredGraph
    n: int
    levels: tuple[SlashLevel, ...]

    @property
    def graph(self) -> MeasuredGraph:
        return self.levels[-1].measured

    @property
    def metric(self) -> GeodesicMetric:
        return self.graph.graph.metric

    def level_graph(self, level: int) -> MeasuredGraph:
        return self.levels[level - 1].measured

    def edge_label(self, eidx: int, level: Optional[int] = None) -> EdgeLabel:
        lv = self.n if level is None else level
        return self.levels[lv - 1].edge_labels[eidx]

    @cached_property
    def edge_by_label(self) -> dict[EdgeLabel, int]:
        return {lab: i for i, lab in enumerate(self.levels[-1].edge_labels)}

    def resolve_vertex(self, level: int, prev_edge: int, base_vertex: int) -> int:
        """Vertex of `level` sitting at `base_vertex` inside the copy that
        replaced edge `prev_edge` of the previous level."""
        table = self.levels[level - 1].copy_vertices
        if table is None:
            raise InputError("level 1 has no copies")
        return table[prev_edge][base_vertex]

    def vertex_label(self, vid: int, level: Optional[int] = None) -> VertexLabel:
        """Canonical label: the shortest (lexicographically least) address."""
        lv = self.n if level is None else level
        base_g = self.base.graph
        interiors = _interiors(base_g)
        while lv > 1:
            prev_count = self.level_graph(lv - 1).graph.vertex_count
            if vid < prev_count:
                lv -= 1
                continue
            offset = vid - prev_count
            prev_edge, rank = divmod(offset, len(interiors))
            return self.edge_label(prev_edge, lv - 1) + (interiors[rank],)
        return (vid,)


def slash_power(mg: MeasuredGraph, n: int) -> SlashPower:
    """The n-th slash power of a measured normalized geodesic s-t graph,
    refused when it would have more than edge_cap() edges."""
    if n < 1:
        raise InputError("power must be at least 1")
    cap = edge_cap()
    e = mg.graph.edge_count
    # e**n is never built: cap.bit_length() + 1 factors e >= 2 already pass
    # the cap.  Every level holds an edge, so n > cap is refused as well.
    if n > cap or e ** min(n, cap.bit_length() + 1) > cap:
        raise CapExceeded(f"power {n} of a {e}-edge base exceeds the edge cap {cap}")
    _require_normalized(mg, "base")

    base_names = mg.graph.names
    levels = [SlashLevel(
        measured=mg,
        edge_labels=tuple((i,) for i in range(mg.graph.edge_count)),
        copy_vertices=None,
    )]
    for _ in range(1, n):
        prev = levels[-1]

        def interior_name(ei: int, v: int, _prev=prev) -> str:
            label = "/".join(str(e) for e in _prev.edge_labels[ei])
            return f"{label}:{base_names[v]}"

        measured, copies = _raw_product(prev.measured, mg, interior_name)
        labels = tuple(prev.edge_labels[ei] + (fi,)
                       for ei in range(prev.measured.graph.edge_count)
                       for fi in range(mg.graph.edge_count))
        levels.append(SlashLevel(measured=measured, edge_labels=labels,
                                 copy_vertices=copies))
    return SlashPower(base=mg, n=n, levels=tuple(levels))


def replace_edge(h: StGraph, eidx: int, g: StGraph) -> StGraph:
    """Substitute a copy of the s-t graph g for edge eidx of h.

    Copy weights are scaled by the weight of the replaced edge, so replacing
    by a normalized graph preserves all path lengths through the edge.
    """
    if not (0 <= eidx < h.edge_count):
        raise InputError(f"edge {eidx} out of range")
    return _substitute(h, [eidx], g, lambda _, v: f"r{eidx}:{g.names[v]}")[0]


def _require_base_st_path(base: StGraph, p: Sequence[int]) -> None:
    if not p or p[0] != base.s or p[-1] != base.t:
        raise InvalidPath("choice must run from s to t of the base graph")
    if len(set(p)) != len(p):
        raise InvalidPath("choice revisits a vertex")
    for a, b in zip(p, p[1:]):
        ei = base.edge_index(a, b)
        if base.edges[ei] != (a, b):
            raise InvalidPath("choice must follow the base orientation")


def _lift(power: SlashPower, level: int, walk: Sequence[int],
          choices: Sequence[Sequence[int]], closed: bool) -> tuple[int, ...]:
    """Lift a walk of power `level` into power `level + 1`.

    Each step of the walk is routed through the copy of the base graph that
    replaced that edge, following the given s-t path of the base; steps
    traversed against their orientation route through the reversed choice.
    A closed walk also steps from its last vertex back to its first.  The
    lifted walk must not revisit a vertex.
    """
    if not (1 <= level < power.n):
        raise InputError(f"cannot lift from level {level} in a power of {power.n}")
    stops = tuple(walk) + (tuple(walk[:1]) if closed else ())
    if len(choices) != len(stops) - 1:
        raise InputError("need one base path per step")
    src = power.level_graph(level).graph
    base = power.base.graph
    out: list[int] = [stops[0]]
    for (a, b), choice in zip(zip(stops, stops[1:]), choices):
        _require_base_st_path(base, choice)
        ei = src.edge_index(a, b)
        forward = src.edges[ei] == (a, b)
        inner = choice[1:-1] if forward else tuple(reversed(choice))[1:-1]
        for v in inner:
            out.append(power.resolve_vertex(level + 1, ei, v))
        out.append(b)
    if closed:
        out.pop()
    if len(set(out)) != len(out):
        raise InvalidPath("lifted walk revisits a vertex")
    return tuple(out)


def lift_path(power: SlashPower, level: int, path: Sequence[int],
              choices: Sequence[Sequence[int]]) -> PathSeq:
    """Lift a path of power `level` into power `level + 1`, one base s-t
    path per step."""
    return _lift(power, level, path, choices, closed=False)


def lift_cycle(power: SlashPower, level: int, cycle: Sequence[int],
               choices: Sequence[Sequence[int]]) -> CycleSeq:
    """Lift a cycle (closed walk of distinct vertices) one level up, one
    base s-t path per cycle edge."""
    return _lift(power, level, cycle, choices, closed=True)


def associativity_isomorphism_check(mg: MeasuredGraph) -> bool:
    """Exact check that (G/G)/G and G/(G/G) agree.

    Matches edges by their base-edge triples, derives the vertex bijection
    from edge endpoints, and then asserts it is a graph isomorphism, a metric
    isometry, and measure preserving.  Refused when the cube would have more
    than edge_cap() edges.
    """
    cap = edge_cap()
    e = mg.graph.edge_count
    if e ** 3 > cap:
        raise CapExceeded(f"cube would have {e ** 3} edges, cap {cap}")
    _require_normalized(mg, "base")

    def name(ei: int, v: int) -> str:
        return f"{ei}:{mg.graph.names[v]}"

    inner, _ = _raw_product(mg, mg, name)
    left, _ = _raw_product(inner, mg, lambda ei, v: f"L{ei}:{mg.graph.names[v]}")
    right, _ = _raw_product(mg, inner,
                            lambda ei, v: f"R{ei}:{inner.graph.names[v]}")

    # _raw_product orders edges h-edge-major, so on both sides edge i
    # substitutes the base edges given by the base-e digits of i.
    phi: dict[int, int] = {}
    for i in range(left.graph.edge_count):
        if left.graph.weights[i] != right.graph.weights[i]:
            return False
        if left.nu[i] != right.nu[i]:
            return False
        for a, b in zip(left.graph.edges[i], right.graph.edges[i]):
            if phi.setdefault(a, b) != b:
                return False
    if len(phi) != left.graph.vertex_count:
        return False
    if len(set(phi.values())) != right.graph.vertex_count:
        return False

    dl = left.graph.metric
    dr = right.graph.metric
    for x in range(left.graph.vertex_count):
        for y in range(x + 1, left.graph.vertex_count):
            if dl.d(x, y) != dr.d(phi[x], phi[y]):
                return False
    return True


class LazyPowerMetric:
    """Distances in a slash power straight from labels, without materializing.

    Vertex labels are tuples of base-edge ids followed by one base-vertex id;
    a label of depth d (d edge ids) is a vertex of every power above d.
    Distances between vertices of one copy scale by the copy weight, and
    copy boundaries drop to the previous power, whose metric restricts
    exactly; that recursion is memoized.
    """

    def __init__(self, base: MeasuredGraph, n: int):
        if n < 1:
            raise InputError("power must be at least 1")
        _require_normalized(base, "base")
        self.base = base
        self.n = n
        self._metric = base.graph.metric
        self._memo: dict[tuple[int, VertexLabel, VertexLabel], Fraction] = {}

    def _check_label(self, lab: VertexLabel) -> None:
        g = self.base.graph
        if not lab or len(lab) > self.n:
            raise InputError(f"label {lab} out of range for power {self.n}")
        for e in lab[:-1]:
            if not (0 <= e < g.edge_count):
                raise InputError(f"bad edge coordinate in {lab}")
        if not (0 <= lab[-1] < g.vertex_count):
            raise InputError(f"bad vertex coordinate in {lab}")
        if len(lab) > 1 and lab[-1] in (g.s, g.t):
            raise InputError(f"label {lab} is not canonical (boundary vertex)")

    def _copy_weight(self, edge_label: EdgeLabel) -> Fraction:
        w = Fraction(1)
        for e in edge_label:
            w *= self.base.graph.weights[e]
        return w

    def _endpoints(self, edge_label: EdgeLabel) -> tuple[VertexLabel, VertexLabel]:
        g = self.base.graph
        u, v = g.edges[edge_label[-1]]
        if len(edge_label) == 1:
            return (u,), (v,)
        prefix = edge_label[:-1]
        return self._resolve(prefix, u), self._resolve(prefix, v)

    def _resolve(self, edge_label: EdgeLabel, v: int) -> VertexLabel:
        g = self.base.graph
        if v == g.s:
            return self._endpoints(edge_label)[0]
        if v == g.t:
            return self._endpoints(edge_label)[1]
        return edge_label + (v,)

    def distance(self, x: VertexLabel, y: VertexLabel) -> Fraction:
        self._check_label(x)
        self._check_label(y)
        return self._dist(self.n, tuple(x), tuple(y))

    def _dist(self, k: int, x: VertexLabel, y: VertexLabel) -> Fraction:
        if x == y:
            return Fraction(0)
        if x > y:
            x, y = y, x
        key = (k, x, y)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        dm = self._metric
        if k == 1:
            val = dm.d(x[0], y[0])
            self._memo[key] = val
            return val
        fine = k  # labels of length k live strictly inside level-k copies
        if len(x) < fine and len(y) < fine:
            val = self._dist(k - 1, x, y)
        elif len(x) == fine and len(y) == fine and x[:-1] == y[:-1]:
            val = self._copy_weight(x[:-1]) * dm.d(x[-1], y[-1])
        else:
            g = self.base.graph

            def options(lab: VertexLabel) -> list[tuple[Fraction, VertexLabel]]:
                if len(lab) < fine:
                    return [(Fraction(0), lab)]
                copy = lab[:-1]
                w = self._copy_weight(copy)
                tail, head = self._endpoints(copy)
                return [(w * dm.d(lab[-1], g.s), tail),
                        (w * dm.d(lab[-1], g.t), head)]

            val = None
            for cx, bx in options(x):
                for cy, by in options(y):
                    cand = cx + self._dist(k - 1, bx, by) + cy
                    if val is None or cand < val:
                        val = cand
            assert val is not None
        self._memo[key] = val
        return val
