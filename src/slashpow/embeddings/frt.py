"""Random dominating trees by hierarchical ball partitioning.

A seeded run draws a radius scale from a dyadic rational grid and a vertex
permutation, then refines the point set level by level: each point joins the
first permutation vertex whose ball of the current radius covers it.  The
laminar family becomes a tree with level-proportional edge weights, and a
final exact scaling pass makes every tree dominate the source metric, so
expansiveness never depends on luck.  All arithmetic stays rational: the
ball tests and the domination pass compare integers over the metric's and
the tree's common denominators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import GeodesicMetric, edge_cap
from ..errors import CapExceeded, DegenerateMetric, InputError
from .trees import GeodesicTree, StochasticTreeEmbedding, TreeMap

TWO = Fraction(2)
RADIUS_GRID = 1 << 20  # grid resolution for the random scale in [1/2, 1)


def _scale_power(delta: Fraction) -> int:
    """Smallest integer p with 2^p >= delta (p may be negative)."""
    p = 0
    while TWO ** p < delta:
        p += 1
    while TWO ** (p - 1) >= delta:
        p -= 1
    return p


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
    if n == 1:
        tree = GeodesicTree(names=(g.names[0],), edges=(), weights=(),
                            steiner=(False,))
        return tree, TreeMap(vertex_map=(0,))
    if n == 2:
        tree = GeodesicTree(names=g.names, edges=((0, 1),),
                            weights=(metric.d(0, 1),), steiner=(False, False))
        return tree, TreeMap(vertex_map=(0, 1))

    # beta = b / RADIUS_GRID
    b = rng.randrange(RADIUS_GRID // 2, RADIUS_GRID)
    order = list(range(n))
    rng.shuffle(order)

    top = _scale_power(metric.diameter)
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
                weights.append(TWO ** (level + 1))
        active = next_active
        level -= 1

    tree = GeodesicTree(names=tuple(names), edges=tuple(edges),
                        weights=tuple(weights), steiner=tuple(steiner))
    tmap = TreeMap(vertex_map=tuple(vertex_node))

    # Exact domination pass: one global scale factor suffices.  The largest
    # ratio d(u, v) / d_T(u, v) = (rows * tree_scale) / (tree_rows * scale)
    # is kept as the pair (best_d, best_t), starting from ratio 1.
    tree_scale, tree_rows = tree.scaled_distances(tmap.vertex_map)
    best_d, best_t = scale, tree_scale
    for u in range(n):
        row, tree_row = rows[u], tree_rows[u]
        for v in range(u + 1, n):
            if row[v] * best_t > best_d * tree_row[v]:
                best_d, best_t = row[v], tree_row[v]
    if (best_d, best_t) != (scale, tree_scale):
        tree = tree.scaled(Fraction(best_d * tree_scale, best_t * scale))
    return tree, tmap


def frt_embed(metric: GeodesicMetric, seed: int, samples: int
              ) -> StochasticTreeEmbedding:
    """Uniform mixture of `samples` seeded dominating trees.

    Each tree is counted as 2n - 1 vertices, the most a tree on n leaves
    has when its inner vertices all branch; more than edge_cap() in all is
    refused before any tree is drawn.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    per_tree = 2 * metric.source.vertex_count - 1
    if samples * per_tree > edge_cap():
        raise CapExceeded(f"{samples} trees of {per_tree} vertices exceed "
                          f"edge cap {edge_cap()}")
    p = Fraction(1, samples)
    components = []
    for k in range(samples):
        rng = random.Random(seed * 1_000_003 + k)
        tree, tmap = frt_tree(metric, rng)
        components.append((tree, tmap, p))
    return StochasticTreeEmbedding(components=tuple(components))
