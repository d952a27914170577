"""Builders for measured geodesic s-t graphs: paths, cycles, generalized
Laakso graphs, and extraction of a Laakso s-t subgraph around a cycle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Sequence

from .core import (
    CycleSeq,
    PathSeq,
    StGraph,
    _simple_paths,
    as_weight,
    concat_paths,
    cycle_edge_indices,
    edge_cap,
    path_length,
    shortest_path_lex,
    single_source_distances,
    validate_st_graph,
)
from .errors import CapExceeded, InputError, NoBalancedSplit, NotLaakso

if TYPE_CHECKING:
    from .slash import LabeledPower

ZERO = Fraction(0)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class MeasuredGraph:
    """An s-t graph together with a probability measure on its edges.

    The measure is strictly positive unless ``restricted`` is set, in which
    case it may vanish off a distinguished subgraph; it always sums to 1
    exactly.
    """

    graph: StGraph
    nu: tuple[Fraction, ...]
    restricted: bool = False

    def __post_init__(self):
        if len(self.nu) != self.graph.edge_count:
            raise InputError("measure must assign a value to every edge")
        # Each distinct object is checked once, in order of first use, and
        # the sum is value times count; id() keys stay valid while self.nu
        # holds the objects.
        counts = Counter(map(id, self.nu))
        distinct = dict(zip(map(id, self.nu), self.nu))
        for x in distinct.values():
            if not isinstance(x, Fraction):
                raise InputError("measure values must be Fractions")
            if x < 0 or (x == 0 and not self.restricted):
                raise InputError(f"measure value {x} out of range")
        total = sum((x * counts[key] for key, x in distinct.items()), ZERO)
        if total != 1:
            raise InputError(f"measure sums to {total}, not 1")


def build_path(weights: Sequence) -> MeasuredGraph:
    """Path s-t graph with measure proportional to edge weight."""
    ws = [as_weight(w) for w in weights]
    if not ws:
        raise InputError("a path needs at least one edge")
    k = len(ws)
    g = StGraph(
        names=tuple(f"x{i}" for i in range(k + 1)),
        edges=tuple((i, i + 1) for i in range(k)),
        weights=tuple(ws),
        s=0,
        t=k,
    )
    total = sum(ws, ZERO)
    return MeasuredGraph(graph=g, nu=tuple(w / total for w in ws))


def cycle_st_graph(arc1: Sequence, arc2: Sequence) -> StGraph:
    """Cycle as an s-t graph: both arcs oriented from s = x0 to t = x_m.

    No equal-length requirement; the result is geodesic only when the arcs
    have equal weight sums.
    """
    w1 = [as_weight(w) for w in arc1]
    w2 = [as_weight(w) for w in arc2]
    if not w1 or not w2:
        raise InputError("both arcs must be nonempty")
    l = len(w1) + len(w2)
    if l < 3:
        raise InputError("a cycle needs at least three edges")
    m = len(w1)
    names = tuple(f"x{i}" for i in range(l))
    edges = [(i, i + 1) for i in range(m)]
    weights = list(w1)
    # Second arc runs s = x0 -> x_{l-1} -> ... -> x_m against the cyclic order.
    prev = 0
    for j, w in enumerate(w2):
        nxt = l - 1 - j if j < len(w2) - 1 else m
        edges.append((prev, nxt))
        weights.append(w)
        prev = nxt
    return StGraph(names=names, edges=tuple(edges), weights=tuple(weights), s=0, t=m)


def build_cycle(arc1: Sequence, arc2: Sequence) -> MeasuredGraph:
    """Geodesic s-t cycle with nu(e) = (1/2) d(e) / d(s,t).

    Requires the two arcs to have exactly equal weight sums; refuses to
    invent a measure otherwise.
    """
    w1 = [as_weight(w) for w in arc1]
    w2 = [as_weight(w) for w in arc2]
    if not w1 or not w2:
        raise InputError("both arcs must be nonempty")
    if sum(w1, ZERO) != sum(w2, ZERO):
        raise NoBalancedSplit(
            f"arc lengths differ: {sum(w1, ZERO)} vs {sum(w2, ZERO)}")
    g = cycle_st_graph(w1, w2)
    half = sum(w1, ZERO)
    nu = tuple(HALF * w / half for w in g.weights)
    return MeasuredGraph(graph=g, nu=nu)


@dataclass(frozen=True)
class LaaksoParams:
    """Stem length k, branch lengths l1 and l2, tail length m (in edges)."""

    k: int
    l1: int
    l2: int
    m: int

    def __post_init__(self):
        if min(self.k, self.m) < 0 or min(self.l1, self.l2) < 1:
            raise InputError(f"bad Laakso parameters {self}")
        if self.l1 + self.l2 < 3:
            raise InputError("branches must carry at least three edges combined")

    @property
    def balanced(self) -> bool:
        return self.l1 == self.l2

    @property
    def edge_count(self) -> int:
        return self.k + self.l1 + self.l2 + self.m

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k, self.l1, self.l2, self.m)


@dataclass(frozen=True)
class LaaksoStructure:
    """Vertex paths of the four segments; junctions are stem[-1] and tail[0]."""

    params: LaaksoParams
    stem: PathSeq      # s .. junction u   (k edges; single vertex when k = 0)
    branch1: PathSeq   # u .. junction v   (l1 edges)
    branch2: PathSeq   # u .. junction v   (l2 edges)
    tail: PathSeq      # v .. t            (m edges)

    @property
    def cycle(self) -> CycleSeq:
        return tuple(self.branch1[:-1]) + tuple(reversed(self.branch2[1:]))

    def route1(self) -> PathSeq:
        return concat_paths(concat_paths(self.stem, self.branch1), self.tail)

    def route2(self) -> PathSeq:
        return concat_paths(concat_paths(self.stem, self.branch2), self.tail)


def build_laakso(params: LaaksoParams | tuple[int, int, int, int],
                 stem: Sequence = (),
                 branch1: Sequence = (),
                 branch2: Sequence = (),
                 tail: Sequence = ()) -> MeasuredGraph:
    """Generalized Laakso graph with the standard stem/branch measure.

    Stem and tail edges get nu = d(e)/d(s,t); branch edges half of that, so
    the measure totals exactly 1.  Branch weight sums must agree.
    """
    p = params if isinstance(params, LaaksoParams) else LaaksoParams(*params)
    ws = [as_weight(w) for w in stem]
    wb1 = [as_weight(w) for w in branch1]
    wb2 = [as_weight(w) for w in branch2]
    wt = [as_weight(w) for w in tail]
    if (len(ws), len(wb1), len(wb2), len(wt)) != (p.k, p.l1, p.l2, p.m):
        raise InputError("weight lists do not match the parameters")
    if sum(wb1, ZERO) != sum(wb2, ZERO):
        raise InputError(
            f"branch weight sums differ: {sum(wb1, ZERO)} vs {sum(wb2, ZERO)}")

    names: list[str] = [f"x{i}" for i in range(p.k + 1)]
    u = p.k  # junction where the branches split
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(p.k)]
    weights: list[Fraction] = list(ws)

    def add_vertex(name: str) -> int:
        names.append(name)
        return len(names) - 1

    b1: list[int] = [u]
    for i in range(1, p.l1):
        b1.append(add_vertex(f"y1_{i}"))
    b2: list[int] = [u]
    for i in range(1, p.l2):
        b2.append(add_vertex(f"y2_{i}"))
    v = add_vertex("z0")
    b1.append(v)
    b2.append(v)
    for i in range(p.l1):
        edges.append((b1[i], b1[i + 1]))
        weights.append(wb1[i])
    for i in range(p.l2):
        edges.append((b2[i], b2[i + 1]))
        weights.append(wb2[i])
    tail_vs = [v]
    for i in range(1, p.m + 1):
        tail_vs.append(add_vertex(f"z{i}"))
        edges.append((tail_vs[i - 1], tail_vs[i]))
        weights.append(wt[i - 1])

    g = StGraph(names=tuple(names), edges=tuple(edges), weights=tuple(weights),
                s=0, t=tail_vs[-1])
    return laakso_measure(g, LaaksoStructure(
        params=p, stem=tuple(range(p.k + 1)), branch1=tuple(b1),
        branch2=tuple(b2), tail=tuple(tail_vs)))


def uniform_laakso(params: LaaksoParams | tuple[int, int, int, int]) -> MeasuredGraph:
    """Normalized Laakso graph with equal weights along every s-t route.

    Stem, tail, and first-branch edges all get 1/(k+l1+m); second-branch
    edges are scaled so the branch sums agree.  For balanced parameters every
    edge weight is equal.
    """
    p = params if isinstance(params, LaaksoParams) else LaaksoParams(*params)
    if p.edge_count > edge_cap():
        raise CapExceeded(f"Laakso graph would have {p.edge_count} edges, "
                          f"cap {edge_cap()}")
    unit = Fraction(1, p.k + p.l1 + p.m)
    b2 = Fraction(p.l1, p.l2) * unit
    return build_laakso(p, stem=[unit] * p.k, branch1=[unit] * p.l1,
                        branch2=[b2] * p.l2, tail=[unit] * p.m)


def diamond() -> MeasuredGraph:
    """The (0,2,2,0) graph with weights 1/2; measure is uniform 1/4."""
    return uniform_laakso((0, 2, 2, 0))


@dataclass(frozen=True)
class LaaksoSubgraph:
    """A generalized Laakso graph extracted from a parent graph.

    ``graph`` is re-indexed with names preserved; ``parent_vertices`` and
    ``parent_edges`` map back into the parent.
    """

    graph: StGraph
    structure: LaaksoStructure
    parent_vertices: tuple[int, ...]
    parent_edges: tuple[int, ...]


def build_laakso_subgraph(g: "StGraph | LabeledPower", stem: Sequence[int],
                          arc1: Sequence[int], arc2: Sequence[int],
                          tail: Sequence[int]) -> LaaksoSubgraph:
    """Assemble a Laakso subgraph from four vertex paths of a parent graph,
    an StGraph or a slash power read by labels.

    Edges are re-oriented canonically (stem s->u, both branches u->v, tail
    v->t); weights and names come from the parent.  The parent orientation of
    a cycle arc need not be consistent, so it is not reused.  It is refused
    when it would have more than edge_cap() edges.
    """
    size, cap = len(stem) + len(arc1) + len(arc2) + len(tail) - 4, edge_cap()
    if size > cap:
        raise CapExceeded(f"Laakso subgraph would have {size} edges, cap {cap}")
    if isinstance(g, StGraph):
        edge_index, weight, name = g.edge_index, g.weights.__getitem__, g.names.__getitem__
    else:
        edge_index, weight, name = g.edge_between, g.weight, g.vertex_name
    segments = [tuple(stem), tuple(arc1), tuple(arc2), tuple(tail)]
    for seg in segments:
        if len(set(seg)) != len(seg):
            raise NotLaakso("segment revisits a vertex")
    u, v = segments[0][-1], segments[3][0]
    if any(arc[:1] + arc[-1:] != (u, v) for arc in segments[1:3]):
        raise NotLaakso("branches do not join the two junctions")
    if set(segments[1]) & set(segments[2]) != {u, v}:
        raise NotLaakso("branches share interior vertices")
    ends = set(segments[0]) | set(segments[3])
    if set(segments[0]) & set(segments[3]):
        raise NotLaakso("stem and tail intersect")
    for arc in segments[1:3]:
        if (ends & set(arc)) - {u, v}:
            raise NotLaakso("attachment paths re-enter the branches")

    used: list[int] = []
    seen: set[int] = set()
    for seg in segments:
        for pv in seg:
            if pv not in seen:
                seen.add(pv)
                used.append(pv)
    to_new = {pv: i for i, pv in enumerate(used)}

    edges: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    parent_edges: list[int] = []
    for seg in segments:
        for a, b in zip(seg, seg[1:]):
            edges.append((to_new[a], to_new[b]))
            ei = edge_index(a, b)
            weights.append(weight(ei))
            parent_edges.append(ei)
    sub = StGraph(names=tuple(map(name, used)), edges=tuple(edges),
                  weights=tuple(weights), s=to_new[segments[0][0]],
                  t=to_new[segments[3][-1]])
    params = LaaksoParams(k=len(stem) - 1, l1=len(arc1) - 1,
                          l2=len(arc2) - 1, m=len(tail) - 1)
    structure = LaaksoStructure(
        params=params,
        stem=tuple(to_new[v] for v in stem),
        branch1=tuple(to_new[v] for v in arc1),
        branch2=tuple(to_new[v] for v in arc2),
        tail=tuple(to_new[v] for v in tail),
    )
    return LaaksoSubgraph(graph=sub, structure=structure,
                          parent_vertices=tuple(used),
                          parent_edges=tuple(parent_edges))


def _stem_and_tail(g: StGraph, cycle: Sequence[int]) -> tuple[PathSeq, PathSeq]:
    """The lexicographically least shortest paths from s to the cycle vertex
    y nearest s and from the cycle vertex z nearest t to t; ties between
    cycle vertices go to the smaller id."""
    from_s = single_source_distances(g, g.s)
    to_t = single_source_distances(g, g.t)
    y = min(cycle, key=lambda x: (from_s[x], x))
    z = min(cycle, key=lambda x: (to_t[x], x))
    stem = shortest_path_lex(g, g.s, y, dist_to_v=single_source_distances(g, y))
    tail = shortest_path_lex(g, z, g.t, dist_to_v=to_t)
    return stem, tail


def laakso_from_cycle(g: StGraph, cycle: Sequence[int]) -> LaaksoSubgraph:
    """Grow a cycle of a geodesic s-t graph into a Laakso s-t subgraph.

    The subgraph consists of the cycle, a shortest path from s to the cycle
    vertex nearest s, and a shortest path from the cycle vertex nearest t to
    t.  For geodesic s-t graphs the result is an isometric subgraph.  Ties
    (nearest vertex, shortest path) resolve to the lexicographically smallest
    choice.
    """
    cycle_edge_indices(g, cycle)  # raises InvalidPath on a non-cycle
    stem, tail = _stem_and_tail(g, cycle)
    y, z = stem[-1], tail[0]
    if y == z:
        raise NotLaakso("cycle collapses: nearest points to s and t coincide")

    # Split the cycle into its two y-z arcs.
    c = list(cycle)
    iy = c.index(y)
    rot = c[iy:] + c[:iy]
    jz = rot.index(z)
    arc_a: PathSeq = tuple(rot[:jz + 1])
    arc_b: PathSeq = (rot[0],) + tuple(reversed(rot[jz:]))
    return build_laakso_subgraph(g, stem, arc_a, arc_b, tail)


def as_laakso(g: StGraph) -> LaaksoStructure:
    """Recognize the stem/branch/branch/tail shape of a validated s-t graph.

    A validated s-t graph is a Laakso graph exactly when it has two directed
    s-t paths: their common prefix is the stem, their common suffix the
    tail, and their middle parts are the branches, in lexicographic path
    order (smaller first neighbor first); either branch may be the longer
    one.  The search stops at a third path.
    """
    if not validate_st_graph(g).ok:
        raise NotLaakso("graph fails s-t validation")
    paths = _simple_paths(g.out_adj, g.s, stop=g.t)
    routes = list(islice((tuple(p) for p in paths if p[-1] == g.t), 3))
    if len(routes) != 2:
        raise NotLaakso("a Laakso graph has exactly two directed s-t paths")
    r1, r2 = routes
    i = next(i for i, (a, b) in enumerate(zip(r1, r2)) if a != b)
    j = next(j for j, (a, b) in enumerate(zip(r1[::-1], r2[::-1])) if a != b)
    branch1, branch2 = r1[i - 1:len(r1) - j + 1], r2[i - 1:len(r2) - j + 1]
    params = LaaksoParams(k=i - 1, l1=len(branch1) - 1, l2=len(branch2) - 1,
                          m=j - 1)
    return LaaksoStructure(params=params, stem=r1[:i], branch1=branch1,
                           branch2=branch2, tail=r1[len(r1) - j:])


def laakso_measure(g: StGraph, structure: LaaksoStructure) -> MeasuredGraph:
    """Standard measure for a Laakso-shaped graph: stem and tail edges carry
    w/d(s,t), branch edges half of that."""
    dst = path_length(g, structure.route1())
    branch_ids = set(cycle_edge_indices(g, structure.cycle))  # both branches
    nu = tuple((HALF if i in branch_ids else Fraction(1)) * w / dst
               for i, w in enumerate(g.weights))
    return MeasuredGraph(graph=g, nu=nu)
