"""Shared fixture graphs and independent little oracles for the tests."""

from fractions import Fraction as F

from slashpow.constructions import (
    MeasuredGraph,
    build_laakso,
    cycle_st_graph,
    uniform_laakso,
)
from slashpow.core import StGraph
from slashpow.embeddings import GeodesicTree
from slashpow.verify import unit_cycle_measured  # noqa: F401  (shared fixture)


def diamond() -> MeasuredGraph:
    return uniform_laakso((0, 2, 2, 0))


def laakso1221() -> MeasuredGraph:
    return uniform_laakso((1, 2, 2, 1))


def laakso0230() -> MeasuredGraph:
    return uniform_laakso((0, 2, 3, 0))


def weighted0230() -> MeasuredGraph:
    return build_laakso((0, 2, 3, 0), (), (F(1, 3), F(2, 3)),
                        (F(1, 4), F(1, 4), F(1, 2)), ())


def unit_cycle(n: int) -> StGraph:
    m = n // 2
    return cycle_st_graph([1] * m, [1] * (n - m))


def path_tree(names, weights) -> GeodesicTree:
    """Tree whose edges chain the vertices in the given order."""
    return GeodesicTree(names=tuple(names),
                        edges=tuple((i, i + 1) for i in range(len(names) - 1)),
                        weights=tuple(weights))


def theta() -> MeasuredGraph:
    """Normalized s-t graph with a direct s-t edge and a two-edge detour."""
    g = StGraph(names=("s", "a", "t"), edges=((0, 1), (1, 2), (0, 2)),
                weights=(F(1, 2), F(1, 2), F(1)), s=0, t=2)
    return MeasuredGraph(graph=g, nu=(F(1, 3), F(1, 3), F(1, 3)))


def three_branch() -> MeasuredGraph:
    """Diamond plus a third parallel two-edge branch; normalized."""
    g = StGraph(
        names=("s", "a", "b", "c", "t"),
        edges=((0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)),
        weights=(F(1, 2),) * 6,
        s=0, t=4)
    nu = (F(1, 6),) * 6
    return MeasuredGraph(graph=g, nu=nu)


def all_pairs(n: int):
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v


def reference_layout(base: MeasuredGraph, n: int) -> list:
    """Slow reference for the addresses in the power slash_power(base, n),
    stored level by level and built by concatenation.

    Per level: the edges, each edge's label (its parent edge's label plus
    its base edge), the copy tables (per previous-level edge, base vertex ->
    vertex of this level; None at level 1) and each vertex's shortest label
    (its copy's edge label plus its base vertex)."""
    g = base.graph
    edges = list(g.edges)
    labels = [(i,) for i in range(g.edge_count)]
    vertex_labels = [(v,) for v in range(g.vertex_count)]
    levels = [(edges, labels, None, vertex_labels)]
    for _ in range(1, n):
        next_edges, next_labels, tables = [], [], []
        vertex_labels = list(vertex_labels)
        for ei, (a, b) in enumerate(edges):
            table = {g.s: a, g.t: b}
            for v in range(g.vertex_count):
                if v not in table:
                    table[v] = len(vertex_labels)
                    vertex_labels.append(labels[ei] + (v,))
            tables.append(tuple(table[v] for v in range(g.vertex_count)))
            for fi, (u, v) in enumerate(g.edges):
                next_edges.append((table[u], table[v]))
                next_labels.append(labels[ei] + (fi,))
        edges, labels = next_edges, next_labels
        levels.append((edges, labels, tables, vertex_labels))
    return levels
