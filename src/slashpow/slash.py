"""Slash products and slash powers of measured normalized geodesic s-t graphs.

The product H (/) G substitutes a copy of G for every edge of H, identifying
copy boundaries with the endpoints of the replaced edge.  Edge weights and
edge measures multiply.  Powers are materialized level by level, or read
from labels alone (LabeledPower); vertex ids of lower powers are stable
prefixes of higher ones, which keeps lifting of paths cheap.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
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
    """The n-th slash power of a normalized geodesic base, addressed by
    labels alone as _substitute lays it out: edge i of level k is edge
    i % e of the copy that replaced edge i // e of level k-1, so its label
    is the k base-e digits of i, and the vertices new at level k follow
    level k-1's, one block of the base's interior vertices per replaced
    edge.  No level graph is built.  Distances are integers over `scale`,
    the base's weight_scale to the n-th power, as in GeodesicMetric."""

    base: MeasuredGraph
    n: int
    # memos by (level, edge), vertex pair, vertex and base source
    _ends_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _dist_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _exits_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _base_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("power must be at least 1")
        _require_normalized(self.base, "base")

    @cached_property
    def _interiors(self) -> tuple[int, ...]:
        return _interiors(self.base.graph)

    @cached_property
    def _counts(self) -> tuple[int, ...]:
        """V_1..V_n: V_1 = |V| and V_{k+1} = V_k + e**k * |interiors|."""
        g = self.base.graph
        return tuple(itertools.accumulate((g.edge_count ** k * len(self._interiors)
                                           for k in range(1, self.n)), initial=g.vertex_count))

    @cached_property
    def scale(self) -> int:
        return self.base.graph.weight_scale ** self.n

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

    def _ends(self, lv: int, eidx: int) -> tuple[int, int]:
        """edge_ends unchecked, derived once per edge."""
        ends = self._ends_memo.get((lv, eidx))
        if ends is None:
            g = self.base.graph
            prev_edge, j = divmod(eidx, g.edge_count)
            ends = g.edges[j] if lv == 1 else tuple(
                self._copy_vertex(self._counts[lv - 2], self._ends(lv - 1, prev_edge),
                                  prev_edge, x) for x in g.edges[j])
            self._ends_memo[lv, eidx] = ends
        return ends

    def _address(self, vid: int) -> tuple[int, int, int]:
        """(k, c, x): vertex vid is new at level k, at base vertex x of the
        copy that replaced edge c of level k-1 (at level 1, c = 0)."""
        k = bisect.bisect_right(self._counts, vid) + 1
        if k == 1:
            return 1, 0, vid
        c, rank = divmod(vid - self._counts[k - 2], len(self._interiors))
        return k, c, self._interiors[rank]

    @property
    def edge_count(self) -> int:
        return self.base.graph.edge_count ** self.n

    def vertex_count(self, level: Optional[int] = None) -> int:
        return self._counts[self._level(level) - 1]

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
        lv = self._level(level)
        _require_index("edge", eidx, self.base.graph.edge_count ** lv)
        return self._ends(lv, eidx)

    def edge_between(self, u: int, v: int, level: Optional[int] = None) -> int:
        """The edge joining vertices u and v; InvalidPath when none does.  It
        lies in the copy of the edge one level down that holds a vertex new
        at this level or, when neither is new, that joins both there."""
        lv, g = self._level(level), self.base.graph
        for w in (u, v):
            _require_index("vertex", w, self.vertex_count(lv))
        if lv == 1:
            return g.edge_index(u, v)
        k, prev_edge, _ = self._address(max(u, v))
        if k < lv:
            prev_edge = self.edge_between(u, v, lv - 1)
        count, ends = self._counts[lv - 2], self._ends(lv - 1, prev_edge)
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
        return self._copy_vertex(self._counts[level - 2], ends, prev_edge, base_vertex)

    def vertex_label(self, vid: int, level: Optional[int] = None) -> VertexLabel:
        """Canonical label: the shortest (lexicographically least) address."""
        _require_index("vertex", vid, self.vertex_count(level))
        k, c, x = self._address(vid)
        return self.edge_label(c, k - 1) + (x,) if k > 1 else (vid,)

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

    def scaled_distance(self, u: int, v: int) -> int:
        """The distance between vertices u and v of level n, times scale: an
        exact integer."""
        for w in (u, v):
            _require_index("vertex", w, self.vertex_count())
        return self._dist(u, v)

    def _base_d(self, u: int, v: int) -> int:
        """Base distance times the base's weight_scale, read off u's
        single-source row, which is computed on first use: the base's
        all-pairs metric is never built."""
        row = self._base_rows.get(u)
        if row is None:
            row = self._base_rows[u] = single_source_distances(self.base.graph, u)
        return row[v]

    def _copy_weight(self, k: int, c: int) -> int:
        """The weight of the copy of edge c of level k-1 times
        weight_scale**(n-1): times a _base_d value it gives a distance times
        scale."""
        g, e = self.base.graph, self.base.graph.edge_count
        return g.weight_scale ** (self.n - k) * math.prod(
            g.int_weights[c // e ** j % e] for j in range(k - 1))

    def _exits(self, w: int) -> tuple[tuple[int, int], ...]:
        """The ways out of the copy that vertex w is new in, as (distance
        times scale, copy end one level down)."""
        exits = self._exits_memo.get(w)
        if exits is None:
            g, (k, c, x) = self.base.graph, self._address(w)
            weight = self._copy_weight(k, c)
            exits = self._exits_memo[w] = tuple(
                (weight * self._base_d(b, x), end)
                for b, end in zip((g.s, g.t), self._ends(k - 1, c)))
        return exits

    def _dist(self, u: int, v: int) -> int:
        """Levels restrict exactly, so a pair is read at the level where the
        later vertex is new.  Vertices of one copy lie its weight times their
        base distance apart; a path out of a copy leaves by one of its ends.
        Leaving u's copy as well, when u is new at that level too, keeps
        fewer pairs in the memo than reaching u from v's copy ends."""
        if u == v:
            return 0
        if u > v:
            u, v = v, u
        val = self._dist_memo.get((u, v))
        if val is None:
            (ku, cu, xu), (k, cv, xv) = self._address(u), self._address(v)
            if (ku, cu) == (k, cv):
                val = self._copy_weight(k, cv) * self._base_d(xu, xv)
            else:
                val = min(a + self._dist(x, y) + b
                          for a, x in (self._exits(u) if ku == k else ((0, u),))
                          for b, y in self._exits(v))
            self._dist_memo[u, v] = val
        return val


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
