"""Slash products and slash powers of measured normalized geodesic s-t graphs.

The product H (/) G substitutes a copy of G for every edge of H, identifying
copy boundaries with the endpoints of the replaced edge.  Edge weights and
edge measures multiply.  Powers are materialized level by level, or read
from labels alone (LabeledPower); vertex ids of lower powers are stable
prefixes of higher ones, which keeps lifting of paths cheap.
"""

from __future__ import annotations

import itertools
import math
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
    _str_digit_limit,
    edge_cap,
    is_normalized_geodesic_st,
    single_source_distances,
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


def _printable(p: Fraction) -> Fraction:
    """p, refused when its numerator or denominator is too long to print
    (see core._str_digit_limit)."""
    digits = _str_digit_limit()
    # below 3*digits bits a part is under 8**digits < 10**digits
    for part in (p.numerator, p.denominator):
        if part.bit_length() >= 3 * digits and abs(part) >= 10 ** digits:
            raise CapExceeded(
                f"a product of weights or measures has more than {digits} "
                "decimal digits (the int-to-str limit, PYTHONINTMAXSTRDIGITS)")
    return p


def _scaled_rows(scales: Sequence[Fraction], values: Sequence[Fraction]
                 ) -> list[tuple[Fraction, ...]]:
    """Per scale, the products scale * x over values.

    A row is built once per distinct scale object (by id(); the caller's
    sequence keeps the objects alive), and equal products are one object, so
    rows built from these products are shared at the next level as well.
    Each distinct product is refused when its numerator or denominator is
    too long to print (see core._str_digit_limit)."""
    canon: dict[Fraction, Fraction] = {}
    built: dict[int, tuple[Fraction, ...]] = {}

    def canonical(p: Fraction) -> Fraction:
        c = canon.get(p)
        if c is None:
            c = canon[p] = _printable(p)
        return c

    rows = []
    for scale in scales:
        row = built.get(id(scale))
        if row is None:
            row = built[id(scale)] = tuple(canonical(scale * x) for x in values)
        rows.append(row)
    return rows


def _substitute(h: StGraph, g: StGraph,
                interior_name: Callable[[int, int], str]) -> StGraph:
    """Replace every edge of h by a copy of the s-t graph g, with s and t at
    the edge's tail and head and weights scaled by the edge's weight.

    The copies' edges follow one another in h's edge order, each in g's
    order; their interior vertices follow h's vertices, in g's order, one
    copy after the other; interior vertex v of the copy of edge ei is named
    interior_name(ei, v)."""
    names = list(h.names)
    edges: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    interiors = _interiors(g)
    for ei, row in enumerate(_scaled_rows(h.weights, g.weights)):
        table = [0] * g.vertex_count
        table[g.s], table[g.t] = h.edges[ei]
        for v in interiors:
            table[v] = len(names)
            names.append(interior_name(ei, v))
        edges.extend((table[u], table[v]) for u, v in g.edges)
        weights.extend(row)
    return StGraph(names=_uniquify(names), edges=tuple(edges),
                   weights=tuple(weights), s=h.s, t=h.t)


def _raw_product(h: MeasuredGraph, g: MeasuredGraph,
                 interior_name: Callable[[int, int], str]) -> MeasuredGraph:
    """Product without input validation.  The measure vanishes wherever a
    factor's does, so a restricted factor makes the product restricted."""
    graph = _substitute(h.graph, g.graph, interior_name)
    nu = tuple(itertools.chain.from_iterable(_scaled_rows(h.nu, g.nu)))
    return MeasuredGraph(graph=graph, nu=nu, restricted=h.restricted or g.restricted)


def _require_normalized(mg: MeasuredGraph, role: str) -> None:
    if not is_normalized_geodesic_st(mg.graph):
        raise NotNormalized(f"{role} graph is not a normalized geodesic s-t graph")


def _require_index(what: str, i: int, count: int) -> None:
    if not (0 <= i < count):
        raise InputError(f"{what} {i} out of range 0..{count - 1}")


@dataclass(frozen=True)
class SlashLevel:
    """One power of the tower."""

    measured: MeasuredGraph


@dataclass(frozen=True)
class LabeledPower:
    """The n-th slash power of a checked base (see slash_power), addressed
    by labels alone as _substitute lays it out: edge i of level k is edge
    i % e of the copy that replaced edge i // e of level k-1, so its label
    is the k base-e digits of i, and the vertices new at level k follow
    level k-1's, one block of the base's interior vertices per replaced
    edge.  No level graph is built."""

    base: MeasuredGraph
    n: int

    @cached_property
    def _interiors(self) -> tuple[int, ...]:
        return _interiors(self.base.graph)

    def _level(self, level: Optional[int]) -> int:
        lv = self.n if level is None else level
        if not (1 <= lv <= self.n):
            raise InputError(f"level {lv} out of range 1..{self.n}")
        return lv

    def _copy_vertex(self, prev_count: int, ends: tuple[int, int], prev_edge: int,
                     v: int) -> int:
        """Vertex at base vertex v of the copy of edge prev_edge (with these
        ends) of a level of prev_count vertices, numbered in the next one."""
        g = self.base.graph
        if v in (g.s, g.t):
            return ends[0 if v == g.s else 1]
        return prev_count + prev_edge * len(self._interiors) + self._interiors.index(v)

    @property
    def edge_count(self) -> int:
        return self.base.graph.edge_count ** self.n

    def vertex_count(self, level: Optional[int] = None) -> int:
        """V_1 = |V| and V_{k+1} = V_k + e**k * |interiors|."""
        lv, e = self._level(level), self.base.graph.edge_count
        return self.base.graph.vertex_count + len(self._interiors) * (
            lv - 1 if e == 1 else (e ** lv - e) // (e - 1))

    def edge_label(self, eidx: int, level: Optional[int] = None) -> EdgeLabel:
        lv, e = self._level(level), self.base.graph.edge_count
        _require_index("edge", eidx, e ** lv)
        return tuple(eidx // e ** j % e for j in range(lv - 1, -1, -1))

    def edge_index(self, label: Sequence[int]) -> int:
        """The edge of level len(label) with this label."""
        self._level(len(label))
        e = self.base.graph.edge_count
        for d in label:
            _require_index("edge coordinate", d, e)
        return sum(d * e ** j for j, d in enumerate(reversed(label)))

    def edge_ends(self, eidx: int, level: Optional[int] = None) -> tuple[int, int]:
        """(tail, head) of an edge."""
        lv, g = self._level(level), self.base.graph
        label = self.edge_label(eidx, lv)
        if lv == 1:
            return g.edges[eidx]
        prev_edge = eidx // g.edge_count
        count, ends = self.vertex_count(lv - 1), self.edge_ends(prev_edge, lv - 1)
        return tuple(self._copy_vertex(count, ends, prev_edge, v) for v in g.edges[label[-1]])

    def edge_between(self, u: int, v: int, level: Optional[int] = None) -> int:
        """The edge joining vertices u and v; InvalidPath when none does.  It
        lies in the copy of the edge one level down that holds a vertex new
        at this level or, when neither is new, that joins both there."""
        lv, g = self._level(level), self.base.graph
        for w in (u, v):
            _require_index("vertex", w, self.vertex_count(lv))
        if lv == 1:
            return g.edge_index(u, v)
        count = self.vertex_count(lv - 1)
        prev_edge = (self.edge_index(self.vertex_label(max(u, v), lv)[:-1])
                     if max(u, v) >= count else self.edge_between(u, v, lv - 1))
        ends = self.edge_ends(prev_edge, lv - 1)
        for j, edge in enumerate(g.edges):
            if {self._copy_vertex(count, ends, prev_edge, x) for x in edge} == {u, v}:
                return prev_edge * g.edge_count + j
        raise InvalidPath(f"no edge between {u} and {v}")

    def weight(self, eidx: int, level: Optional[int] = None) -> Fraction:
        """The product of the base weights along the edge's label, refused
        when too long to print."""
        g = self.base.graph
        return _printable(math.prod(g.weights[d] for d in self.edge_label(eidx, level)))

    def label_strings(self) -> list[str]:
        """The slash-joined label of every edge, in edge order."""
        return ["/".join(p) for p in itertools.product(
            map(str, range(self.base.graph.edge_count)), repeat=self.n)]

    def resolve_vertex(self, level: int, prev_edge: int, base_vertex: int) -> int:
        """Vertex of `level` sitting at `base_vertex` inside the copy that
        replaced edge `prev_edge` of the previous level."""
        if not (2 <= level <= self.n):
            raise InputError(f"level {level} has no copies in a power of {self.n}")
        ends = self.edge_ends(prev_edge, level - 1)
        _require_index("base vertex", base_vertex, self.base.graph.vertex_count)
        return self._copy_vertex(self.vertex_count(level - 1), ends, prev_edge, base_vertex)

    def vertex_label(self, vid: int, level: Optional[int] = None) -> VertexLabel:
        """Canonical label: the shortest (lexicographically least) address."""
        lv = self._level(level)
        _require_index("vertex", vid, self.vertex_count(lv))
        while lv > 1:
            count = self.vertex_count(lv - 1)
            if vid >= count:
                prev_edge, rank = divmod(vid - count, len(self._interiors))
                return self.edge_label(prev_edge, lv - 1) + (self._interiors[rank],)
            lv -= 1
        return (vid,)

    def vertex_name(self, vid: int, level: Optional[int] = None) -> str:
        """The name _substitute and _uniquify give: "L:" + the base name
        inside the copy labelled L, with a "~" appended while a base vertex
        or an earlier interior of the copy holds the name.  L holds no ":",
        so the names of other copies begin otherwise."""
        label, names = self.vertex_label(vid, level), self.base.graph.names
        if len(label) == 1:
            return names[vid]
        prefix, taken = "/".join(map(str, label[:-1])) + ":", set(names)
        for x in self._interiors[:self._interiors.index(label[-1]) + 1]:
            name = prefix + names[x]
            while name in taken:
                name += "~"
            taken.add(name)
        return name


@dataclass(frozen=True)
class SlashPower(LabeledPower):
    """Materialized slash power: a LabeledPower that stores its level graphs."""

    levels: tuple[SlashLevel, ...]

    @property
    def graph(self) -> MeasuredGraph:
        return self.levels[-1].measured

    @property
    def metric(self) -> GeodesicMetric:
        return self.graph.graph.metric

    def level_graph(self, level: int) -> MeasuredGraph:
        return self.levels[self._level(level) - 1].measured

    def _copy_walk(self, prev: StGraph, prev_edge: int, walk: Sequence[int]
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A walk of the base graph inside the copy of edge prev_edge of the
        level graph prev: its vertices but the last, and its edges, numbered
        in the next level."""
        g = self.base.graph
        first = prev_edge * g.edge_count
        count, ends = prev.vertex_count, prev.edges[prev_edge]
        return (tuple(self._copy_vertex(count, ends, prev_edge, v) for v in walk[:-1]),
                tuple(first + g.edge_index(a, b) for a, b in zip(walk, walk[1:])))


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

    levels = [SlashLevel(measured=mg)]
    for k in range(1, n):
        labels = LabeledPower(mg, k).label_strings()
        levels.append(SlashLevel(measured=_raw_product(
            levels[-1].measured, mg,
            lambda ei, v, labels=labels: f"{labels[ei]}:{mg.graph.names[v]}")))
    return SlashPower(base=mg, n=n, levels=tuple(levels))


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
    out: list[int] = []
    # Callers repeat a few route objects: each is checked at its first step,
    # keyed by id(), which `choices` keeps valid.
    checked: set[int] = set()
    for (a, b), choice in zip(zip(stops, stops[1:]), choices):
        if id(choice) not in checked:
            _require_base_st_path(base, choice)
            checked.add(id(choice))
        ei = src.edge_index(a, b)
        way = choice if src.edges[ei] == (a, b) else choice[::-1]
        out.extend(power._copy_walk(src, ei, way)[0])
    if not closed:
        out.append(stops[-1])
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


class LazyPowerMetric:
    """Distances in a slash power straight from labels, without materializing.

    Vertex labels are tuples of base-edge ids followed by one base-vertex id;
    a label of depth d (d edge ids) is a vertex of every power above d.
    Distances between vertices of one copy scale by the copy weight, and
    copy boundaries drop to the previous power, whose metric restricts
    exactly; that recursion is memoized.  As in GeodesicMetric, distances
    are integers over one denominator, `scale` (the base's weight_scale to
    the n-th power), and `distance` builds the Fraction.
    """

    def __init__(self, base: MeasuredGraph, n: int):
        if n < 1:
            raise InputError("power must be at least 1")
        _require_normalized(base, "base")
        self.base = base
        self.n = n
        self.scale = base.graph.weight_scale ** n
        self._rows: dict[int, tuple[int, ...]] = {}
        self._memo: dict[tuple[int, VertexLabel, VertexLabel], int] = {}

    def _base_d(self, u: int, v: int) -> int:
        """Base distance times the base's weight_scale, read off u's
        single-source row, which is computed on first use: the base's
        all-pairs metric is never built."""
        row = self._rows.get(u)
        if row is None:
            row = self._rows[u] = single_source_distances(self.base.graph, u)
        return row[v]

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

    def _copy_weight(self, edge_label: EdgeLabel) -> int:
        """The copy's weight times weight_scale**(n - 1): times a _base_d
        value it gives a distance times scale."""
        g = self.base.graph
        w = g.weight_scale ** (self.n - 1 - len(edge_label))
        for e in edge_label:
            w *= g.int_weights[e]
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
        return Fraction(self.scaled_distance(x, y), self.scale)

    def scaled_distance(self, x: VertexLabel, y: VertexLabel) -> int:
        """distance(x, y) times scale, an exact integer."""
        self._check_label(x)
        self._check_label(y)
        return self._dist(self.n, tuple(x), tuple(y))

    def _dist(self, k: int, x: VertexLabel, y: VertexLabel) -> int:
        if x == y:
            return 0
        if x > y:
            x, y = y, x
        key = (k, x, y)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if k == 1:
            val = self._copy_weight(()) * self._base_d(x[0], y[0])
            self._memo[key] = val
            return val
        fine = k  # labels of length k live strictly inside level-k copies
        if len(x) < fine and len(y) < fine:
            val = self._dist(k - 1, x, y)
        elif len(x) == fine and len(y) == fine and x[:-1] == y[:-1]:
            val = self._copy_weight(x[:-1]) * self._base_d(x[-1], y[-1])
        else:
            g = self.base.graph

            def options(lab: VertexLabel) -> list[tuple[int, VertexLabel]]:
                if len(lab) < fine:
                    return [(0, lab)]
                copy = lab[:-1]
                w = self._copy_weight(copy)
                tail, head = self._endpoints(copy)
                return [(w * self._base_d(g.s, lab[-1]), tail),
                        (w * self._base_d(g.t, lab[-1]), head)]

            val = None
            for cx, bx in options(x):
                for cy, by in options(y):
                    cand = cx + self._dist(k - 1, bx, by) + cy
                    if val is None or cand < val:
                        val = cand
            assert val is not None
        self._memo[key] = val
        return val
