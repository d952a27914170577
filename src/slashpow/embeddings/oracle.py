"""Brute-force lower-bound oracle: enumerate every labeled tree topology on
the graph's own vertex set (Prüfer sequences), give each one optimal edge
weights by an exact LP, and take the best expected distortion.

Steiner points are deliberately excluded so the search stays finite; a
Steiner-free optimum over-estimates the unrestricted infimum by at most a
factor STEINER_FACTOR = 8, and callers report both numbers: the optimum
divided by it is a lower bound against arbitrary geodesic trees.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from ..constructions import MeasuredGraph
from ..core import GeodesicMetric
from ..errors import CapExceeded, InputError
from .lp import solve_min
from .trees import GeodesicTree, TreeMap, identity_tree_map

ORACLE_VERTEX_CAP = 8
STEINER_FACTOR = 8


def prufer_to_edges(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """Labeled tree on {0..n-1} from a Prufer sequence of length n-2."""
    if n < 2:
        raise InputError("need at least two vertices")
    if len(seq) != n - 2:
        raise InputError("sequence length must be n-2")
    if any(not 0 <= x < n for x in seq):
        raise InputError(f"sequence entries must lie in 0..{n - 1}")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(edges)


def iter_labeled_trees(n: int) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """(prufer sequence, edge list) for all n^(n-2) labeled trees, in
    lexicographic sequence order."""
    for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
        yield seq, prufer_to_edges(seq, n)


def _tree_walk(adj: Sequence[Sequence[tuple[int, int]]], lengths: Sequence[int],
               src: int) -> tuple[list[Optional[tuple[int, int]]], list[int]]:
    """One walk of the tree from src: the (parent, tree edge index) step into
    every vertex, None where the tree does not reach, and every vertex's
    integer tree distance from src under the tree edge `lengths`."""
    step: list[Optional[tuple[int, int]]] = [None] * len(adj)
    dist = [0] * len(adj)
    step[src] = (src, -1)
    stack = [src]
    while stack:
        x = stack.pop()
        for y, ei in adj[x]:
            if step[y] is None:
                step[y] = (x, ei)
                dist[y] = dist[x] + lengths[ei]
                stack.append(y)
    return step, dist


def optimal_tree_weights(metric: GeodesicMetric, nu: Sequence[Fraction],
                         edges: Sequence[tuple[int, int]]
                         ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Cheapest expansive weights for one topology.

    Minimizes the nu-weighted expected stretch of graph edges subject to
    every vertex pair's tree path dominating its graph distance; exact.
    `edges` must be a spanning tree of the metric's vertices.

    The LP relaxes to the tree edges' rows x_e >= d(a_e, b_e): a box with the
    one vertex x = d, which the simplex returns.  Every pair's row is then
    checked on d, in integers, so x is feasible, hence optimal, for the full
    LP.  The costs nu(g)/d(g) are integers over one denominator, divided once;
    each is added along the tree path of its graph edge alone.
    """
    g = metric.source
    n = g.vertex_count
    nvar = len(edges)
    scale, rows = metric.scale, metric.rows
    walks = []
    if all(0 <= u < n and 0 <= v < n for u, v in edges):
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        lengths = [rows[a][b] for a, b in edges]
        walks = [_tree_walk(adj, lengths, src) for src in range(n)]
    if nvar != n - 1 or not walks or None in walks[0][0]:
        raise InputError(f"{nvar} edges do not form a spanning tree on {n} vertices")
    if len(nu) != g.edge_count or any(p < 0 for p in nu):
        raise InputError(f"measure must be {g.edge_count} nonnegative values")

    common = lcm(*(p.denominator * rows[u][v] for p, (u, v) in zip(nu, g.edges)))
    cost = [0] * nvar
    for p, (u, v) in zip(nu, g.edges):
        coeff = p.numerator * scale * common // (p.denominator * rows[u][v])
        step = walks[u][0]
        while v != u:
            v, ei = step[v]
            cost[ei] += coeff

    unit_rows = [[int(i == j) for j in range(nvar)] for i in range(nvar)]
    result = solve_min(cost, unit_rows, [metric.d(a, b) for a, b in edges])
    for u, (_, dist) in enumerate(walks):
        for v in range(u + 1, n):
            if dist[v] < rows[u][v]:
                raise InputError(f"pair {(u, v)} is not dominated by its tree path")
    return result.value / common, result.x


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    tree: GeodesicTree
    tree_map: TreeMap
    prufer: tuple[int, ...]


def oracle_min_expected_distortion(mg: MeasuredGraph) -> OracleResult:
    """Minimum expected distortion over expansive Steiner-free trees.

    Exhaustive over the n^(n-2) labeled topologies, so refused above
    ORACLE_VERTEX_CAP vertices; ties between topologies break toward the
    smaller Prufer sequence.
    """
    g = mg.graph
    n = g.vertex_count
    if n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"{n} vertices exceed the oracle cap {ORACLE_VERTEX_CAP}")
    if n < 2:
        raise InputError("need at least two vertices")
    metric = g.metric

    best: Optional[tuple[Fraction, tuple[int, ...], tuple[tuple[int, int], ...],
                         tuple[Fraction, ...]]] = None
    for seq, edges in iter_labeled_trees(n):
        value, weights = optimal_tree_weights(metric, mg.nu, edges)
        if best is None or value < best[0]:
            best = (value, seq, edges, weights)
    assert best is not None
    value, seq, edges, weights = best
    tree = GeodesicTree(names=g.names, edges=edges, weights=weights,
                        steiner=(False,) * n)
    return OracleResult(value=value, tree=tree,
                        tree_map=identity_tree_map(n), prufer=seq)
