"""Weighted trees, vertex maps into them, and stochastic tree embeddings.
Every tree distance is read from the integer table scaled_distances builds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from ..core import _reach
from ..errors import InputError

ZERO = Fraction(0)


@dataclass(frozen=True)
class GeodesicTree:
    """Tree with positive rational edge weights; the metric is the unique
    path weight sum.  Vertices flagged Steiner are helper points that carry
    no source vertex."""

    names: tuple[str, ...] = field(compare=False)
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]
    steiner: tuple[bool, ...] = ()

    def __post_init__(self):
        n = len(self.names)
        if self.steiner == ():
            object.__setattr__(self, "steiner", (False,) * n)
        if len(self.steiner) != n:
            raise InputError("steiner flags must cover every vertex")
        if len(self.edges) != n - 1 or len(self.weights) != n - 1:
            raise InputError("a tree on n vertices has exactly n-1 weighted edges")
        for (u, v), w in zip(self.edges, self.weights):
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad tree edge ({u},{v})")
            if not isinstance(w, Fraction) or w <= 0:
                raise InputError(f"tree edge ({u},{v}) has weight {w}")
        # Connected with n-1 edges == acyclic; n >= 1 here.
        if len(_reach(self.adj, 0)) != n:
            raise InputError("tree edges do not connect all vertices")

    @property
    def vertex_count(self) -> int:
        return len(self.names)

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def weight_scale(self) -> int:
        """The lcm L of the weight denominators: L times any tree distance
        is an integer."""
        return math.lcm(*(w.denominator for w in self.weights))

    @cached_property
    def _rooted(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(parent, L * dist-to-root, preorder) rooted at vertex 0."""
        n = self.vertex_count
        scale = self.weight_scale
        parent = [-1] * n
        dist = [0] * n
        order: list[int] = []
        stack = [0]
        seen = {0}
        while stack:
            x = stack.pop()
            order.append(x)
            for y, ei in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    w = self.weights[ei]
                    parent[y] = x
                    dist[y] = dist[x] + w.numerator * (scale // w.denominator)
                    stack.append(y)
        return tuple(parent), tuple(dist), tuple(order)

    def distance(self, u: int, v: int) -> Fraction:
        scale, rows = self.scaled_distances((u, v))
        return Fraction(rows[0][1], scale)

    def scaled_distances(self, points: Sequence[int]
                         ) -> tuple[int, list[list[int]]]:
        """(L, rows) with distance(points[i], points[j]) == rows[i][j] / L,
        in integers.

        One pass down the tree in preorder, where every subtree holds a
        contiguous run of the points: a child's distances are its parent's
        plus the edge weight, minus it inside the child's subtree.
        """
        parent, dist, order = self._rooted
        wanted = set(points)
        start = [0] * self.vertex_count  # points before each vertex in preorder
        size = [0] * self.vertex_count  # points in each subtree
        column: dict[int, int] = {}
        for x in order:
            start[x] = len(column)
            if x in wanted:
                column[x] = len(column)
        for x in reversed(order):
            size[x] += x in column
            if parent[x] >= 0:
                size[parent[x]] += size[x]
        rows = {order[0]: [dist[x] for x in column]}
        for x in order[1:]:
            if not size[x]:
                continue
            up = rows[parent[x]]
            w = dist[x] - dist[parent[x]]
            a, b = start[x], start[x] + size[x]
            rows[x] = ([r + w for r in up[:a]] + [r - w for r in up[a:b]]
                       + [r + w for r in up[b:]])
        cols = [column[y] for y in points]
        return self.weight_scale, [[row[c] for c in cols]
                                   for row in (rows[x] for x in points)]

@dataclass(frozen=True)
class TreeMap:
    """Total map from the source graph's vertices into a tree's vertices."""

    vertex_map: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]


def identity_tree_map(n: int) -> TreeMap:
    return TreeMap(vertex_map=tuple(range(n)))


@dataclass(frozen=True)
class StochasticTreeEmbedding:
    """Finite mixture of tree maps; probabilities are exact and sum to 1."""

    components: tuple[tuple[GeodesicTree, TreeMap, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise InputError("embedding needs at least one component")
        total = ZERO
        for _, _, p in self.components:
            if not isinstance(p, Fraction) or p <= 0:
                raise InputError(f"component probability {p} out of range")
            total += p
        if total != 1:
            raise InputError(f"probabilities sum to {total}, not 1")

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)
