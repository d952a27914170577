"""Shared fixture graphs and independent little oracles for the tests, and
the library functions that only tests call."""

import dataclasses
import itertools
import json
from fractions import Fraction
from fractions import Fraction as F
from typing import Any, Callable

from slashpow.constructions import (
    LaaksoSubgraph,
    MeasuredGraph,
    build_laakso,
    cycle_st_graph,
    uniform_laakso,
)
from slashpow.core import (
    CycleSeq,
    StGraph,
    _simple_paths,
    cycle_edge_indices,
    edge_cap,
    path_length,
    single_source_distances,
    st_path_length_range,
)
from slashpow.embeddings import GeodesicTree, TreeMap, TruncatedBoundResult, distortion
from slashpow.errors import (
    CapExceeded,
    DisconnectedGraph,
    InputError,
    NotGeodesicStGraph,
    SchemaError,
    WitnessNotFound,
)
from slashpow.laakso import LaaksoBase, enumerate_max_cycles
from slashpow.serialization import document_pieces, parse_fraction
from slashpow.slash import SlashPower, _raw_product, _require_normalized, lift_cycle
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


def weighted1220() -> MeasuredGraph:
    return build_laakso((1, 2, 2, 0), [F(1, 4)], [F(1, 2), F(1, 4)],
                        [F(1, 3), F(5, 12)], [])


def weighted1331() -> MeasuredGraph:
    """Weights 1/6 and 1/3: its square has six distinct (nu, weight) pairs."""
    return build_laakso((1, 3, 3, 1), [F(1, 6)], [F(1, 6), F(1, 6), F(1, 3)],
                        [F(1, 3), F(1, 6), F(1, 6)], [F(1, 6)])


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


def wide_path_doc(digits: int = 1500) -> dict:
    """The path s-a-b-t with weights 1/p for the three odd, so pairwise
    coprime, p = 10**digits + 1, 3, 5.  At the default each weight prints,
    but the metric's scale, their product, passes the int-to-str digit
    limit."""
    p = [10 ** digits + k for k in (1, 3, 5)]
    return {"vertices": ["s", "a", "b", "t"],
            "edges": [["s", "a", f"1/{p[0]}"], ["a", "b", f"1/{p[1]}"],
                      ["b", "t", f"1/{p[2]}"]],
            "orientation": [["s", "a"], ["a", "b"], ["b", "t"]],
            "s": "s", "t": "t", "measure": ["1/3"] * 3}


def search_spanning_tree(g: StGraph, breadth_first: bool = False) -> GeodesicTree:
    """Spanning tree of g on its own vertices, names and weights, grown from
    s over und_adj: a vertex joins when first reached, and the search goes
    on from the newest reached vertex (depth first) or the oldest (breadth
    first).  With the identity map it is expansive and stretches none of
    its own edges."""
    seen, ids, todo = {g.s}, [], [g.s]
    while todo:
        u = todo.pop(0 if breadth_first else -1)
        for v, ei in g.und_adj[u]:
            if v not in seen:
                seen.add(v)
                ids.append(ei)
                todo.append(v)
    return GeodesicTree(names=g.names, edges=tuple(g.edges[i] for i in ids),
                        weights=tuple(g.weights[i] for i in ids))


def random_spanning_tree(g: StGraph, rng) -> GeodesicTree:
    """Kruskal's forest over the edges in a random order: a spanning tree on
    g's own vertices, names and weights."""
    root = list(range(g.vertex_count))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    order = list(range(g.edge_count))
    rng.shuffle(order)
    ids = []
    for ei in order:
        a, b = (find(x) for x in g.edges[ei])
        if a != b:
            root[a] = b
            ids.append(ei)
    return GeodesicTree(names=g.names, edges=tuple(g.edges[i] for i in ids),
                        weights=tuple(g.weights[i] for i in ids))


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


def reference_spot_check_isometry(big: StGraph, sub: LaaksoSubgraph) -> None:
    """Slow reference for laakso._spot_check_isometry: the same sampled rows
    and message, with ambient distances from a Dijkstra run over the
    materialized power per sampled row."""
    small = sub.graph
    big_scale, small_scale = big.weight_scale, small.weight_scale
    nv = small.vertex_count
    step = max(1, nv // 8)
    for u in range(0, nv, step):
        ambient = single_source_distances(big, sub.parent_vertices[u])
        row = single_source_distances(small, u)
        for v in range(nv):
            if row[v] * big_scale != ambient[sub.parent_vertices[v]] * small_scale:
                raise InputError(
                    f"subgraph is not isometric at pair ({u}, {v})")


def reference_max_cycles(power: SlashPower) -> tuple[CycleSeq, ...]:
    """Slow reference for laakso.enumerate_max_cycles: every cycle lifted one
    choice vector at a time with lift_cycle, in itertools.product order."""
    base = LaaksoBase.from_measured(power.base)
    routes = (base.structure.route1(), base.structure.route2())
    cycles: list[CycleSeq] = [base.structure.cycle]
    for level in range(1, power.n):
        cycles = [lift_cycle(power, level, c, choice) for c in cycles
                  for choice in itertools.product(routes, repeat=len(c))]
    return tuple(cycles)


def reference_truncated_bound(power: SlashPower, tree: GeodesicTree,
                              tmap: TreeMap, cycles=None) -> TruncatedBoundResult:
    """Slow reference for distortion.truncated_distortion_bound: the same
    checks in the same order, then each edge's d_T(f(e)) as a Fraction, the
    expected truncated stretch summed edge by edge in Fractions, and each
    cycle's first stretched edge found with a generator."""
    base = LaaksoBase.from_measured(power.base)
    mg = power.graph
    g = mg.graph
    distortion._require_total(g, tmap)
    distortion._check_edge_size_condition(base)
    tree_scale, tree_rows = distortion._expansive_table(power.metric, tree, tmap)
    edge_dt = [Fraction(tree_rows[u][v], tree_scale) for u, v in g.edges]
    cap = distortion.TRUNCATION_COEFF * base.c0
    value = sum((p * min(dt, cap) / w
                 for p, dt, w in zip(mg.nu, edge_dt, g.weights)), F(0))
    bound = distortion.LOWER_COEFF * base.c0 * power.n
    if cycles is None:
        cycles = enumerate_max_cycles(power)
    threshold = distortion.WITNESS_COEFF * base.c0
    stretched = [8 * dt >= base.c0 - w and dt >= threshold
                 for dt, w in zip(edge_dt, g.weights)]
    witnesses = []
    for c in cycles:
        found = next((ei for ei in cycle_edge_indices(g, c) if stretched[ei]), -1)
        if found < 0:
            raise WitnessNotFound("maximal cycle without a stretched edge")
        witnesses.append(found)
    return TruncatedBoundResult(value=value, bound=bound, holds=value >= bound,
                                cycle_witnesses=tuple(witnesses))


# --- library functions that only tests call -----------------------------------

def normalize(g: StGraph) -> StGraph:
    """Divide all weights by the common s-t path length.

    Raises NotGeodesicStGraph when s-t paths disagree in length.
    """
    lo, hi = st_path_length_range(g)
    if lo != hi:
        raise NotGeodesicStGraph(f"s-t path lengths range from {lo} to {hi}")
    if lo == 1:
        return g
    return g.with_weights(tuple(w / lo for w in g.weights))


def brute_force_distance(g: StGraph, u: int, v: int) -> Fraction:
    """Minimum over all simple u-v paths, by exhaustive search on the
    Fraction weights (test oracle, independent of Dijkstra)."""
    best = min((path_length(g, p) for p in _simple_paths(g.und_adj, u, stop=v)
                if p[-1] == v), default=None)
    if best is None:
        raise DisconnectedGraph(f"no path from {u} to {v}")
    return best


def scaled_tree(tree: GeodesicTree, factor: Fraction) -> GeodesicTree:
    """The tree with every weight times a positive factor."""
    if factor <= 0:
        raise InputError("scale factor must be positive")
    return dataclasses.replace(tree, weights=tuple(w * factor for w in tree.weights))


def slash_product(h: MeasuredGraph, g: MeasuredGraph) -> MeasuredGraph:
    """Measured slash product of two normalized geodesic s-t graphs, refused
    when it would have more than edge_cap() edges."""
    cap = edge_cap()
    if h.graph.edge_count * g.graph.edge_count > cap:
        raise CapExceeded(
            f"product would have {h.graph.edge_count * g.graph.edge_count} edges, cap {cap}")
    _require_normalized(h, "left")
    _require_normalized(g, "right")
    return _raw_product(h, g, lambda ei, v: f"{ei}:{g.graph.names[v]}")


def associativity_isomorphism_check(mg: MeasuredGraph) -> bool:
    """Exact check that (G/G)/G and G/(G/G) agree.

    Matches edges by their base-edge triples, derives the vertex bijection
    from edge endpoints, and then asserts it is a graph isomorphism, a metric
    isometry, and measure preserving.  Refused when the cube would have more
    than edge_cap() edges.
    """
    cap = edge_cap()
    e = mg.graph.edge_count
    if e ** 3 > cap:
        raise CapExceeded(f"cube would have {e ** 3} edges, cap {cap}")
    _require_normalized(mg, "base")

    inner = _raw_product(mg, mg, lambda ei, v: f"{ei}:{mg.graph.names[v]}")
    left = _raw_product(inner, mg, lambda ei, v: f"L{ei}:{mg.graph.names[v]}")
    right = _raw_product(mg, inner, lambda ei, v: f"R{ei}:{inner.graph.names[v]}")

    # By slash.LabeledPower's layout, edge i of either side substitutes the
    # base edges given by the three base-e digits of i.
    phi: dict[int, int] = {}
    for i in range(left.graph.edge_count):
        if left.graph.weights[i] != right.graph.weights[i]:
            return False
        if left.nu[i] != right.nu[i]:
            return False
        for a, b in zip(left.graph.edges[i], right.graph.edges[i]):
            if phi.setdefault(a, b) != b:
                return False
    if len(phi) != left.graph.vertex_count:
        return False
    if len(set(phi.values())) != right.graph.vertex_count:
        return False

    dl = left.graph.metric
    dr = right.graph.metric
    for x in range(left.graph.vertex_count):
        for y in range(x + 1, left.graph.vertex_count):
            if dl.d(x, y) != dr.d(phi[x], phi[y]):
                return False
    return True


# --- the reference graph reader ----------------------------------------------
#
# The slow reader that serialization.loads replaced: json.loads decodes the
# whole document, then the graph is built row by row from the dict.

def _parser() -> Callable[[Any], Fraction]:
    """parse_fraction, run once per distinct string: equal strings give one
    Fraction object."""
    parsed: dict[str, Fraction] = {}

    def parse(raw: Any) -> Fraction:
        if not isinstance(raw, str):
            return parse_fraction(raw)
        x = parsed.get(raw)
        if x is None:
            x = parsed[raw] = parse_fraction(raw)
        return x

    return parse


def _require(doc: dict, key: str) -> Any:
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    return doc[key]


def graph_from_dict(doc: dict) -> StGraph:
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    names = _require(doc, "vertices")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise SchemaError("vertices must be a list of names")
    for name in names:
        if any("\ud800" <= ch <= "\udfff" for ch in name):
            raise SchemaError(f"vertex name {name!r:.40} is not valid Unicode "
                              "(it holds a lone surrogate)")
    if len(set(names)) != len(names):
        raise SchemaError("vertex names must be unique")
    index = {name: i for i, name in enumerate(names)}

    def vid(name: Any) -> int:
        if not isinstance(name, str) or name not in index:
            raise SchemaError(f"unknown vertex {name!r}")
        return index[name]

    raw_edges = _require(doc, "edges")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    parse = _parser()
    # keyed by the ordered pair of the edge row
    pair_weight: dict[tuple[int, int], Fraction] = {}
    for row in raw_edges:
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError(f"edge row must be [u, v, weight], got {row!r}")
        u, v = vid(row[0]), vid(row[1])
        if (u, v) in pair_weight or (v, u) in pair_weight:
            raise SchemaError(f"duplicate edge {row[0]!r}-{row[1]!r}")
        pair_weight[u, v] = parse(row[2])

    orientation = _require(doc, "orientation")
    if not isinstance(orientation, list) or len(orientation) != len(raw_edges):
        raise SchemaError("orientation must list every edge exactly once")
    edges: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    seen: set[tuple[int, int]] = set()
    for row in orientation:
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(f"orientation row must be [tail, head], got {row!r}")
        u, v = vid(row[0]), vid(row[1])
        key = (u, v) if (u, v) in pair_weight else (v, u)
        if key not in pair_weight:
            raise SchemaError(f"orientation names a non-edge {row!r}")
        if key in seen:
            raise SchemaError(f"orientation repeats edge {row!r}")
        seen.add(key)
        edges.append((u, v))
        weights.append(pair_weight[key])

    try:
        return StGraph(names=tuple(names), edges=tuple(edges),
                       weights=tuple(weights),
                       s=vid(_require(doc, "s")), t=vid(_require(doc, "t")))
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def measured_from_dict(doc: dict) -> MeasuredGraph:
    g = graph_from_dict(doc)
    raw = _require(doc, "measure")
    if not isinstance(raw, list) or len(raw) != g.edge_count:
        raise SchemaError("measure must align with edges")
    nu = tuple(map(_parser(), raw))
    restricted = doc.get("restricted", False)
    if not isinstance(restricted, bool):
        raise SchemaError(f"restricted must be true or false, got {restricted!r:.40}")
    try:
        return MeasuredGraph(graph=g, nu=nu, restricted=restricted)
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def reference_loads(text: str) -> StGraph | MeasuredGraph:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an int literal past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
    if isinstance(doc, dict) and "measure" in doc:
        return measured_from_dict(doc)
    return graph_from_dict(doc)


def dumps_document(fields: dict[str, Any]) -> str:
    """A JSON object of ints, strings, lists and graphs; each graph is written
    as its graph document, nested one level down."""
    return "".join(document_pieces(fields))
