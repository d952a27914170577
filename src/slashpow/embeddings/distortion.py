"""Expected distortion, expansiveness checks, stochastic distortion, and the
exact lower-bound certificates for tree embeddings of cycles and of powers
of balanced Laakso graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..constructions import MeasuredGraph
from ..core import GeodesicMetric, StGraph
from ..errors import EdgeSizeViolation, InputError, NotExpansive, WitnessNotFound
from ..laakso import LaaksoBase, MaxCycles, enumerate_max_cycles
from ..slash import SlashPower
from .trees import GeodesicTree, StochasticTreeEmbedding, TreeMap

ZERO = Fraction(0)

# Constants of the truncated-stretch argument: any expansive tree embedding
# of the n-th power loses at least LOWER_COEFF * c0 * n in expectation, and
# every maximal cycle has an edge stretched to at least WITNESS_COEFF * c0.
TRUNCATION_COEFF = Fraction(3, 32)
WITNESS_COEFF = Fraction(3, 32)
LOWER_COEFF = Fraction(3, 128)


def expected_distortion(mg: MeasuredGraph, tree: GeodesicTree,
                        tmap: TreeMap) -> Fraction:
    """Measure-weighted average over edges of d_T(f(e)) / d_G(e), exact."""
    g = mg.graph
    _require_total(g, tmap)
    metric = g.metric
    scale, rows = metric.scale, metric.rows
    tree_scale, tree_rows = tree.scaled_distances(tmap.vertex_map)
    return sum((p * Fraction(tree_rows[u][v] * scale, tree_scale * rows[u][v])
                for p, (u, v) in zip(mg.nu, g.edges)), ZERO)


def check_expansive(metric: GeodesicMetric, tree: GeodesicTree,
                    tmap: TreeMap) -> tuple[bool, Optional[tuple[int, int]]]:
    """Exhaustive over vertex pairs; returns the first contracted pair.  A
    map whose length is not the vertex count raises InputError."""
    _require_total(metric.source, tmap)
    pair = _first_contraction(metric, tree.scaled_distances(tmap.vertex_map))
    return pair is None, pair


_Scaled = tuple[int, Sequence[Sequence[int]]]  # (L, rows): distance == rows[u][v] / L


def _require_total(g: StGraph, *tmaps: TreeMap) -> None:
    if any(len(tmap.vertex_map) != g.vertex_count for tmap in tmaps):
        raise InputError("map must cover every vertex")


def _first_contraction(metric: GeodesicMetric,
                       table: _Scaled) -> Optional[tuple[int, int]]:
    """First pair u < v, in row order, with d_T(u, v) < d(u, v)."""
    scale = metric.scale
    tree_scale, tree_rows = table
    for u, (row, tree_row) in enumerate(zip(metric.rows, tree_rows)):
        for v in range(u + 1, len(row)):
            if tree_row[v] * scale < row[v] * tree_scale:
                return u, v
    return None


def _expansive_table(metric: GeodesicMetric, tree: GeodesicTree, tmap: TreeMap,
                     who: str = "map") -> _Scaled:
    """The tree's distance table over the images of the metric's vertices;
    a contraction raises NotExpansive naming `who` and the first contracted
    pair, as check_expansive finds it."""
    table = tree.scaled_distances(tmap.vertex_map)
    pair = _first_contraction(metric, table)
    if pair is not None:
        raise NotExpansive(f"{who} contracts pair {pair}")
    return table


_PairRow = tuple[int, int, Fraction, Fraction, Fraction]  # (u, v, d_X, mean d_T, stretch)


@dataclass(frozen=True)
class DistortionReport:
    """Per-pair expected stretch of an embedding, with the worst pair."""

    worst_pair: tuple[int, int]
    worst_stretch: Fraction
    rows: tuple[_PairRow, ...]


def distortion_report(g: StGraph, emb: StochasticTreeEmbedding) -> DistortionReport:
    """One row per pair u < v, and the first pair in row order whose
    expected stretch is greatest.  Component by component, one table at a
    time, each pair's expected tree distance accumulates in one integer over
    the common denominator of all the p / L terms.  A map that misses a
    vertex raises InputError first; a contraction raises NotExpansive for
    the first contracting component and its first contracted pair, as
    check_expansive finds them."""
    metric = g.metric
    n = g.vertex_count
    scale, rows = metric.scale, metric.rows
    _require_total(g, *(tmap for _, tmap, _ in emb))
    common = math.lcm(*(p.denominator * tree.weight_scale for tree, _, p in emb))
    # sums[u][v - u - 1] / common is the expected d_T(u, v)
    sums = [[0] * (n - u - 1) for u in range(n)]
    for idx, (tree, tmap, p) in enumerate(emb):
        tree_scale, tree_rows = _expansive_table(metric, tree, tmap, f"component {idx}")
        weight = p.numerator * (common // (p.denominator * tree_scale))
        for u in range(n):
            sums[u] = [acc + weight * t
                       for acc, t in zip(sums[u], tree_rows[u][u + 1:])]
    out: list[_PairRow] = []
    # The stretch is acc * scale / (common * d), and all pairs share common
    # and scale, so the worst pair has the greatest acc / d, compared in
    # integers.  Every stretch is at least 1, so the first pair beats 0 / 1.
    worst, worst_acc, worst_d = 0, 0, 1
    for u in range(n):
        row, dist = rows[u], metric.dist[u]
        for v, acc in enumerate(sums[u], start=u + 1):
            d = row[v]
            if acc * worst_d > worst_acc * d:
                worst, worst_acc, worst_d = len(out), acc, d
            out.append((u, v, dist[v], Fraction(acc, common),
                        Fraction(acc * scale, common * d)))
    u, v, _, _, stretch = out[worst]
    return DistortionReport(worst_pair=(u, v), worst_stretch=stretch, rows=tuple(out))


def stochastic_distortion_of(g: StGraph, emb: StochasticTreeEmbedding) -> Fraction:
    """Worst pair's expected image distance over its own distance.

    Every component must be expansive; a contracted pair raises NotExpansive.
    """
    return distortion_report(g, emb).worst_stretch


def cycle_embedding_witness(cycle_graph: StGraph, tree: GeodesicTree,
                            tmap: TreeMap) -> tuple[int, tuple[int, int]]:
    """Edge of a geodesic cycle stretched to at least (c0 - d(e)) / 8.

    Every expansive tree map admits one; failing to find one would disprove
    that, so the search raises instead of returning quietly.
    """
    g = cycle_graph
    metric = g.metric
    _require_total(g, tmap)
    tree_scale, tree_rows = _expansive_table(metric, tree, tmap)
    scale, rows = metric.scale, metric.rows
    c0 = sum(rows[u][v] for u, v in g.edges)  # times scale, like rows
    for ei, (u, v) in enumerate(g.edges):
        # 8 d_T(f(e)) >= c0 - d(e), cross-multiplied by scale * tree_scale
        if 8 * tree_rows[u][v] * scale >= (c0 - rows[u][v]) * tree_scale:
            return ei, (u, v)
    raise WitnessNotFound("no witness edge: the cycle lower bound failed")


def _check_edge_size_condition(base: LaaksoBase) -> None:
    quarter = base.c0 / 4
    if quarter > Fraction(1, 2):
        raise EdgeSizeViolation(f"cycle length {base.c0} exceeds 2")
    g = base.graph
    for ei in base.cycle_edge_ids:
        if g.weights[ei] > quarter:
            raise EdgeSizeViolation(
                f"branch edge {ei} weighs {g.weights[ei]} > {quarter}")


def _truncated(power: SlashPower, tree: GeodesicTree, tmap: TreeMap
               ) -> tuple[LaaksoBase, int, list[int], Fraction]:
    """The base, a denominator D, each edge's D * d_T(f(e)) as an integer
    and the expected truncated stretch; raises InputError,
    EdgeSizeViolation and NotExpansive in that order."""
    base = LaaksoBase.from_measured(power.base)
    mg = power.graph
    g = mg.graph
    _require_total(g, tmap)
    _check_edge_size_condition(base)
    tree_scale, tree_rows = _expansive_table(power.metric, tree, tmap)
    cap = TRUNCATION_COEFF * base.c0
    # Over D = L * cap.denominator the cap and every d_T are integers.
    denominator, int_cap = tree_scale * cap.denominator, cap.numerator * tree_scale
    edge_dt = [tree_rows[u][v] * cap.denominator for u, v in g.edges]
    # Per distinct (nu, weight) pair of objects: nu / weight and the sum of
    # D min(d_T, cap) over its edges.
    terms: dict[tuple[int, int], list] = {}
    for p, w, dt in zip(mg.nu, g.weights, edge_dt):
        term = terms.get((id(p), id(w)))
        if term is None:
            term = terms[id(p), id(w)] = [p / w, 0]
        term[1] += min(dt, int_cap)
    value = sum((ratio * Fraction(total, denominator) for ratio, total in terms.values()),
                ZERO)
    return base, denominator, edge_dt, value


@dataclass(frozen=True)
class TruncatedBoundResult:
    value: Fraction
    bound: Fraction
    holds: bool
    cycle_witnesses: tuple[int, ...]  # one edge index per maximal cycle


def truncated_distortion_bound(power: SlashPower, tree: GeodesicTree,
                               tmap: TreeMap,
                               cycles: Optional[MaxCycles] = None
                               ) -> TruncatedBoundResult:
    """Assert the (3/128) c0 n lower bound and, per maximal cycle, find an
    edge stretched to at least (c0 - d(e))/8 >= (3/32) c0; a cycle without
    one raises WitnessNotFound.  `cycles`, when given, must be
    enumerate_max_cycles(power) of this same power, or InputError is raised:
    its edge indices are read without looking them up again."""
    base, denominator, edge_dt, value = _truncated(power, tree, tmap)
    c0 = base.c0
    bound = LOWER_COEFF * c0 * power.n
    if cycles is None:
        cycles = enumerate_max_cycles(power)
    elif not isinstance(cycles, MaxCycles) or cycles.power is not power:
        raise InputError("cycles must be the enumerate_max_cycles result of this power")
    g = power.graph.graph
    # Stretched: 8 d_T >= c0 - w and d_T >= (3/32) c0.  Over D, in integers,
    # D d_T is at least the ceiling of each right-hand side times D.
    least = math.ceil(WITNESS_COEFF * c0 * denominator)
    lows: dict[int, int] = {}
    for w in g.weights:
        if id(w) not in lows:
            lows[id(w)] = max(least, math.ceil((c0 - w) * denominator / 8))
    stretched = [dt >= lows[id(w)] for dt, w in zip(edge_dt, g.weights)]
    witnesses: list[int] = []
    for edges in cycles.edges:
        for ei in edges:
            if stretched[ei]:
                witnesses.append(ei)
                break
        else:
            raise WitnessNotFound("maximal cycle without a stretched edge")
    return TruncatedBoundResult(value=value, bound=bound,
                                holds=value >= bound,
                                cycle_witnesses=tuple(witnesses))
