"""Random dominating trees by hierarchical ball partitioning.

A seeded run draws a radius scale beta from a dyadic rational grid in
[1/2, 1) and a vertex permutation, then refines the point set level by
level: each point joins the first permutation vertex whose ball of radius
beta 2^level covers it.  The laminar family becomes a tree whose level-l
edges weigh 2^(l+1), with 2^top the least power of two at or above the
diameter.  The tree dominates the source metric by construction: two points
that first split at level l share a parent cluster of diameter at most
2 beta 2^(l+1) < 2^(l+2) (the root's is at most 2^top = 2^(l+1)), and their
tree path crosses two level-l edges, so d_T >= 2^(l+2) > d.  All arithmetic
stays rational: the levels and the ball tests are integers over the
metric's common denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import GeodesicMetric, edge_cap
from ..errors import CapExceeded, DegenerateMetric, InputError
from .trees import GeodesicTree, StochasticTreeEmbedding, TreeMap

TWO = Fraction(2)
RADIUS_GRID = 1 << 20  # grid resolution for the random scale in [1/2, 1)


def _ceil_log2(num: int, den: int) -> int:
    """Smallest integer p with 2^p >= num/den, for positive num and den."""
    if num >= den:
        return ((num - 1) // den).bit_length()
    return 1 - (den // num).bit_length()


def frt_tree(metric: GeodesicMetric, rng: random.Random
             ) -> tuple[GeodesicTree, TreeMap]:
    """One sampled dominating tree and the map into its leaves."""
    g = metric.source
    n = g.vertex_count
    scale, rows = metric.scale, metric.rows
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u][v] == 0:
                raise DegenerateMetric(f"vertices {u} and {v} coincide")
    if n == 2:
        tree = GeodesicTree(names=g.names, edges=((0, 1),),
                            weights=(metric.d(0, 1),), steiner=(False, False))
        return tree, TreeMap(vertex_map=(0, 1))

    # beta = b / RADIUS_GRID
    b = rng.randrange(RADIUS_GRID // 2, RADIUS_GRID)
    order = list(range(n))
    rng.shuffle(order)

    top = _ceil_log2(*metric.diameter.as_integer_ratio())
    names: list[str] = ["c0"]
    steiner: list[bool] = [True]
    edges: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    vertex_node = [-1] * n

    # (node id, members in fixed order); singletons retire immediately.
    active: list[tuple[int, tuple[int, ...]]] = [(0, tuple(range(n)))]
    level = top - 1
    while active:
        # d(u, c) <= beta 2^level  iff  rows[u][c] <= floor(b scale 2^level / GRID)
        if level >= 0:
            radius = (b * scale << level) // RADIUS_GRID
        else:
            radius = b * scale // (RADIUS_GRID << -level)
        weight = TWO ** (level + 1)
        next_active: list[tuple[int, tuple[int, ...]]] = []
        for parent_node, members in active:
            groups: dict[int, list[int]] = {}
            for u in members:
                row = rows[u]
                for c in order:
                    if row[c] <= radius:
                        groups.setdefault(c, []).append(u)
                        break
            for center in sorted(groups):
                part = tuple(groups[center])
                node = len(names)
                if len(part) == 1:
                    names.append(g.names[part[0]])
                    steiner.append(False)
                    vertex_node[part[0]] = node
                else:
                    names.append(f"c{node}")
                    steiner.append(True)
                    next_active.append((node, part))
                edges.append((node, parent_node))
                weights.append(weight)
        active = next_active
        level -= 1

    tree = GeodesicTree(names=tuple(names), edges=tuple(edges),
                        weights=tuple(weights), steiner=tuple(steiner))
    return tree, TreeMap(vertex_map=tuple(vertex_node))


def frt_embed(metric: GeodesicMetric, seed: int, samples: int
              ) -> StochasticTreeEmbedding:
    """Uniform mixture of `samples` seeded dominating trees.

    A tree has at most n vertices per level below its root, and its levels
    run from top - 1 down to the first whose radius, under 2^level, is below
    the least nonzero distance d_min: max(1, top - floor(log2 d_min)) levels.
    More than edge_cap() vertices in all is refused before any tree is drawn.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    scale = metric.scale
    # Coincident points are refused by frt_tree; any positive default will do.
    least = min((x for row in metric.rows for x in row if x), default=scale)
    # floor(log2 (least / scale)) == -ceil(log2 (scale / least))
    levels = _ceil_log2(*metric.diameter.as_integer_ratio()) + _ceil_log2(scale, least)
    per_tree = 1 + metric.source.vertex_count * max(1, levels)
    if samples * per_tree > edge_cap():
        raise CapExceeded(f"{samples} trees of up to {per_tree} vertices exceed "
                          f"edge cap {edge_cap()}")
    p = Fraction(1, samples)
    components = []
    for k in range(samples):
        rng = random.Random(seed * 1_000_003 + k)
        tree, tmap = frt_tree(metric, rng)
        components.append((tree, tmap, p))
    return StochasticTreeEmbedding(components=tuple(components))
