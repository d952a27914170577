"""Weighted s-t graphs, exact geodesic metrics, and path primitives.

Weights are `fractions.Fraction`s.  Shortest paths run on integers over
one common denominator, `StGraph.weight_scale`: `single_source_distances`
returns those integers, and the all-pairs metric stores only them and the
denominator (`GeodesicMetric.rows` and `.scale`).  Nothing in this module
touches floating point.  Vertices are integer indices into a name table;
display names travel through constructions for debugging but are excluded
from equality.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import (
    CapExceeded,
    DisconnectedGraph,
    InputError,
    InvalidPath,
    NotGeodesicStGraph,
)

PathSeq = tuple[int, ...]
# A cycle is stored open: k >= 3 distinct vertices, consecutive pairs and the
# wrap-around pair being edges.
CycleSeq = tuple[int, ...]

DEFAULT_EDGE_CAP = 10**6
DEFAULT_PATH_CAP = 1 << 20

_ONE = Fraction(1)


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # refused below, like any other value below 1
    if cap < 1:
        raise InputError(f"{name} must be a positive integer, got {raw!r}")
    return cap


def edge_cap() -> int:
    """Materialization cap, overridable via SLASHPOW_MAX_EDGES."""
    return _env_cap("SLASHPOW_MAX_EDGES", DEFAULT_EDGE_CAP)


def path_cap() -> int:
    """Enumeration cap, overridable via SLASHPOW_MAX_PATHS."""
    return _env_cap("SLASHPOW_MAX_PATHS", DEFAULT_PATH_CAP)


def _str_digit_limit() -> int:
    """Most decimal digits Python renders an int with.

    That is sys.get_int_max_str_digits() (PYTHONINTMAXSTRDIGITS); when the
    limit is disabled, its default of 4300 still bounds the big numbers
    built from user input.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def as_weight(value) -> Fraction:
    w = Fraction(value)
    if w <= 0:
        raise InputError(f"weights must be positive, got {w}")
    return w


@dataclass(frozen=True)
class StGraph:
    """Simple weighted graph with distinguished s, t and per-edge orientation.

    ``edges[i] = (tail, head)`` stores the orientation; the undirected simple
    graph is implied.  Whether every edge actually lies on a directed s-t path
    is a semantic property checked by :func:`validate_st_graph`, not a
    construction-time invariant.
    """

    names: tuple[str, ...] = field(compare=False)
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]
    s: int
    t: int

    def __post_init__(self):
        n = len(self.names)
        if len(self.edges) != len(self.weights):
            raise InputError("edges and weights differ in length")
        if len(set(self.names)) != n:
            raise InputError("vertex names must be unique")
        if not (0 <= self.s < n and 0 <= self.t < n):
            raise InputError("s or t out of range")
        if self.s == self.t:
            raise InputError("s and t must be distinct")
        seen: set[tuple[int, int]] = set()
        # Powers repeat a few weight objects on every edge: each object is
        # checked once, keyed by id(), which self.weights keeps valid.
        checked: set[int] = set()
        for (u, v), w in zip(self.edges, self.weights):
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if (u, v) in seen or (v, u) in seen:
                raise InputError(f"parallel edge between {u} and {v}")
            seen.add((u, v))
            if id(w) not in checked:
                if not isinstance(w, Fraction) or w <= 0:
                    raise InputError(f"edge ({u},{v}) has non-positive weight {w}")
                checked.add(id(w))

    @property
    def vertex_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def out_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: sorted (neighbor, edge index) pairs along orientation."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for i, (u, v) in enumerate(self.edges):
            adj[v].append((u, i))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def und_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_ids(self) -> dict[tuple[int, int], int]:
        """Edge index by ordered vertex pair, in both orientations."""
        ids: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(self.edges):
            ids[u, v] = ids[v, u] = i
        return ids

    def edge_index(self, u: int, v: int) -> int:
        try:
            return self.edge_ids[u, v]
        except KeyError:
            raise InvalidPath(f"no edge between {u} and {v}") from None

    def with_weights(self, weights: Sequence[Fraction]) -> "StGraph":
        return replace(self, weights=tuple(weights))

    @cached_property
    def weight_scale(self) -> int:
        """The lcm D of the weight denominators: D times any path length is
        an integer."""
        return math.lcm(*(w.denominator for w in self.weights))

    @cached_property
    def int_weights(self) -> tuple[int, ...]:
        """Each weight times weight_scale."""
        scale = self.weight_scale
        return tuple(w.numerator * (scale // w.denominator) for w in self.weights)

    @cached_property
    def cycle_edges(self) -> dict[CycleSeq, tuple[int, ...]]:
        """Edge tuples of the cycles cycle_edge_indices has validated, by
        vertex tuple."""
        return {}

    @cached_property
    def metric(self) -> GeodesicMetric:
        """All-pairs distances, computed once per graph."""
        return geodesic_metric(self)

    @cached_property
    def topo_order(self) -> Optional[tuple[int, ...]]:
        """Topological order of the orientation, or None if it has a
        directed cycle; computed once per graph."""
        indeg = [0] * self.vertex_count
        for _, v in self.edges:
            indeg[v] += 1
        ready = sorted(u for u in range(self.vertex_count) if indeg[u] == 0)
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v, _ in self.out_adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) != self.vertex_count:
            return None
        return tuple(order)


@dataclass(frozen=True)
class ValidationReport:
    """Per-edge s-t path membership plus connectivity."""

    connected: bool
    edge_on_st_path: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return self.connected and all(self.edge_on_st_path)


def _reach(adj: Sequence[Sequence[tuple[int, int]]], start: int) -> set[int]:
    """Vertices reachable from start along the (neighbor, edge) lists adj."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _simple_paths(adj: Sequence[Sequence[tuple[int, int]]], start: int,
                  stop: int = -1, floor: int = -1) -> Iterator[list[int]]:
    """Every simple path from start along the sorted (neighbor, edge) lists
    adj, in lexicographic order, shortest prefix first.

    A path ending at stop is not extended, and no vertex at or below floor
    is entered.  Each yield is the one live path list, valid until the next
    step: callers copy the paths they keep.  The search is iterative, so
    its depth is not bounded by the interpreter's recursion limit.
    """
    path = [start]
    on_path = [False] * len(adj)  # faster than a set in the inner loop
    on_path[start] = True
    # stack[i] iterates the neighbors of path[i] that are still to be tried.
    stack = [iter(adj[start] if start != stop else ())]
    yield path
    while stack:
        for v, _ in stack[-1]:
            if v > floor and not on_path[v]:
                path.append(v)
                on_path[v] = True
                yield path
                stack.append(iter(adj[v] if v != stop else ()))
                break
        else:
            stack.pop()
            on_path[path.pop()] = False


def is_connected(g: StGraph) -> bool:
    return g.vertex_count == 0 or len(_reach(g.und_adj, 0)) == g.vertex_count


def validate_st_graph(g: StGraph) -> ValidationReport:
    """Report, per edge, whether it lies on a directed s-t path.

    Passes overall iff the graph is connected and every edge does.
    """
    connected = is_connected(g)
    if g.topo_order is not None:
        # In a DAG, s->u and v->t reachability suffices: the two paths cannot
        # share a vertex without creating a directed cycle.
        fwd = _reach(g.out_adj, g.s)
        bwd = _reach(g.in_adj, g.t)
        flags = tuple(u in fwd and v in bwd for u, v in g.edges)
    else:
        # A directed cycle: collect the edges of every simple s-t path.
        on_path: set[tuple[int, int]] = set()
        for p in enumerate_st_paths(g):
            on_path.update(zip(p, p[1:]))
        flags = tuple(e in on_path for e in g.edges)
    return ValidationReport(connected=connected, edge_on_st_path=flags)


@dataclass(frozen=True)
class GeodesicMetric:
    """All-pairs shortest-path distances of a weighted graph, exact:
    d(u, v) == rows[u][v] / scale, in integers."""

    source: StGraph = field(compare=False)
    scale: int
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fractions, one object per distinct value."""
        fraction = {x: Fraction(x, self.scale) for x in set().union(*self.rows)}
        return tuple(tuple(map(fraction.__getitem__, row)) for row in self.rows)

    def d(self, u: int, v: int) -> Fraction:
        return self.dist[u][v]

    @cached_property
    def diameter(self) -> Fraction:
        return Fraction(max(map(max, self.rows)), self.scale)


def single_source_distances(g: StGraph, src: int) -> tuple[int, ...]:
    """Distances from src to every vertex, times g.weight_scale: Dijkstra
    over the undirected graph on g.int_weights, so every distance is an
    exact integer; ties resolve by smallest vertex id.  Scaling by a
    positive integer keeps the heap order."""
    dist: list[Optional[int]] = [None] * g.vertex_count
    heap: list[tuple[int, int]] = [(0, src)]
    adj, weights = g.und_adj, g.int_weights
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, ei in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + weights[ei], v))
    if None in dist:
        raise DisconnectedGraph("graph is not connected")
    return tuple(dist)  # type: ignore[arg-type]


def geodesic_metric(g: StGraph) -> GeodesicMetric:
    """All-pairs distances over the graph's weight_scale."""
    return GeodesicMetric(source=g, scale=g.weight_scale, rows=tuple(
        single_source_distances(g, u) for u in range(g.vertex_count)))


def shortest_path_lex(g: StGraph, u: int, v: int,
                      dist_to_v: Sequence[int]) -> PathSeq:
    """Lexicographically smallest among minimum-weight u-v paths (undirected),
    given the distances dist_to_v from every vertex to v, times
    g.weight_scale (as single_source_distances returns them)."""
    path = [u]
    w = u
    weights = g.int_weights
    while w != v:
        remaining = dist_to_v[w]
        for x, ei in g.und_adj[w]:  # ascending, so first hit is lex-least
            if weights[ei] + dist_to_v[x] == remaining:
                path.append(x)
                w = x
                break
        else:  # pragma: no cover - unreachable on a connected graph
            raise DisconnectedGraph(f"no path from {u} to {v}")
    return tuple(path)


def path_length(g: StGraph, p: Sequence[int]) -> Fraction:
    """Sum of edge weights along a path; a single vertex has length 0.

    Raises InvalidPath when p is empty, revisits a vertex or steps along a
    non-edge.
    """
    if not p or len(set(p)) != len(p):
        raise InvalidPath(f"{tuple(p)} is not a path of the graph")
    return sum((g.weights[g.edge_index(a, b)] for a, b in zip(p, p[1:])),
               Fraction(0))


def concat_paths(a: Sequence[int], b: Sequence[int]) -> PathSeq:
    """Concatenate two paths sharing exactly the junction a[-1] == b[0]."""
    if not a or not b or a[-1] != b[0]:
        raise InvalidPath("paths do not share a junction vertex")
    joined = tuple(a) + tuple(b[1:])
    if len(set(joined)) != len(joined):
        raise InvalidPath("concatenation revisits a vertex")
    return joined


def cycle_edge_indices(g: StGraph, c: Sequence[int]) -> tuple[int, ...]:
    """Indices of the edges c[0]c[1], ..., c[-1]c[0]; each cycle is validated
    once per graph, and a non-cycle raises InvalidPath on every call."""
    key = tuple(c)
    found = g.cycle_edges.get(key)
    if found is None:
        if len(key) < 3 or len(set(key)) != len(key):
            raise InvalidPath(f"{key} is not a cycle of the graph")
        ids = g.edge_ids
        try:
            found = tuple(ids[pair] for pair in zip(key, key[1:] + key[:1]))
        except KeyError:
            raise InvalidPath(f"{key} is not a cycle of the graph") from None
        g.cycle_edges[key] = found
    return found


def cycle_length(g: StGraph, c: Sequence[int]) -> Fraction:
    """Sum of edge weights around the cycle.

    In a strictly geodesic s-t graph every edge is a shortest path between
    its ends, so this is also the cycle's metric length.
    """
    return sum((g.weights[i] for i in cycle_edge_indices(g, c)), Fraction(0))


def enumerate_st_paths(g: StGraph) -> tuple[PathSeq, ...]:
    """All simple directed s-t paths in lexicographic vertex order.

    Raises CapExceeded (naming the count) when more than path_cap() paths
    exist.
    """
    cap = path_cap()
    if g.topo_order is not None:
        # Exact count first so the error can name it.
        count = [0] * g.vertex_count
        count[g.s] = 1
        for u in g.topo_order:
            for v, _ in g.out_adj[u]:
                count[v] += count[u]
        if count[g.t] > cap:
            raise CapExceeded(f"{count[g.t]} s-t paths exceed cap {cap}")
    out: list[PathSeq] = []
    for p in _simple_paths(g.out_adj, g.s, stop=g.t):
        if p[-1] == g.t:
            out.append(tuple(p))
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} s-t paths")
    return tuple(out)


def st_path_length_range(g: StGraph) -> tuple[Fraction, Fraction]:
    """(min, max) metric length over all directed s-t paths; raises
    NotGeodesicStGraph when the graph fails validate_st_graph."""
    if not validate_st_graph(g).ok:
        raise NotGeodesicStGraph("graph fails s-t validation")
    if g.topo_order is not None:
        # Validation puts every vertex on a directed s-t path, so s comes
        # first in topological order and every vertex is reached from it.
        lo: dict[int, Fraction] = {g.s: Fraction(0)}
        hi: dict[int, Fraction] = {g.s: Fraction(0)}
        for u in g.topo_order:
            for v, ei in g.out_adj[u]:
                w = g.weights[ei]
                if v not in lo or lo[u] + w < lo[v]:
                    lo[v] = lo[u] + w
                if v not in hi or hi[u] + w > hi[v]:
                    hi[v] = hi[u] + w
        return lo[g.t], hi[g.t]
    # Validation passed, so some s-t path exists.
    lengths = [path_length(g, p) for p in enumerate_st_paths(g)]
    return min(lengths), max(lengths)


def is_normalized_geodesic_st(g: StGraph) -> bool:
    """True iff the graph validates and every directed s-t path has length 1."""
    try:
        lo, hi = st_path_length_range(g)
    except NotGeodesicStGraph:
        return False
    return lo == hi == _ONE


def undirected_st_path_length_range(g: StGraph) -> tuple[Fraction, Fraction]:
    """(min, max) metric length over all simple s-t paths, orientation
    ignored.  Exponential in the worst case; capped by path_cap()."""
    cap = path_cap()
    ids, weights = g.edge_ids, g.int_weights
    found = 0
    lengths: set[int] = set()  # times weight_scale
    for p in _simple_paths(g.und_adj, g.s, stop=g.t):
        if p[-1] == g.t:
            found += 1
            if found > cap:
                raise CapExceeded(f"more than {cap} s-t paths")
            lengths.add(sum(weights[ids[pair]] for pair in zip(p, p[1:])))
    if not lengths:
        raise DisconnectedGraph("no s-t path")
    scale = g.weight_scale
    return Fraction(min(lengths), scale), Fraction(max(lengths), scale)


def is_strictly_geodesic_st(g: StGraph) -> bool:
    """True iff every simple s-t path, with or against the orientation, has
    the same metric length.

    Strictly stronger than the directed check: a graph can have all directed
    s-t paths of length 1 while a zig-zag path is longer, and such graphs
    break the isometric-subgraph guarantees downstream.
    """
    if not validate_st_graph(g).ok:
        return False
    lo, hi = undirected_st_path_length_range(g)
    return lo == hi


def enumerate_cycles(g: StGraph) -> tuple[CycleSeq, ...]:
    """All simple cycles, canonicalized: smallest vertex first, smaller
    neighbor second.  Deterministic order; capped by path_cap()."""
    cap = path_cap()
    cycles: list[CycleSeq] = []
    for start in range(g.vertex_count):
        closing = {v for v, _ in g.und_adj[start]}
        # Paths over vertices above start that end next to it close a cycle.
        for p in _simple_paths(g.und_adj, start, floor=start):
            if p[-1] in closing and len(p) >= 3 and p[1] < p[-1]:  # canonical
                cycles.append(tuple(p))
                if len(cycles) > cap:
                    raise CapExceeded(f"more than {cap} cycles")
    return tuple(cycles)
