"""JSON graph schema and DOT export.

Schema::

    {"vertices": [names],
     "edges": [[tail, head, "num/den"], ...],
     "s": name, "t": name,
     "orientation": [[tail, head], ...]}

Weights are exact rational strings and round-trip bit-for-bit.  A measured
graph adds ``"measure": ["num/den", ...]`` aligned with ``edges`` and an
optional ``"restricted": true`` marker for measures that vanish on part of
the edge set.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable

from .constructions import MeasuredGraph
from .core import StGraph, _str_digit_limit
from .errors import SchemaError

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(raw: Any) -> Fraction:
    """An exact rational from an int or from a string Fraction accepts
    ("3/4", "-2", "1.5e-3").

    A decimal string whose digits plus exponent pass the int-to-str digit
    limit is refused before Fraction builds it: the value could not be
    printed, and a large exponent alone takes unbounded time and memory.
    Fraction's own int parsing bounds the "num/den" form.
    """
    if isinstance(raw, str):
        if "/" not in raw:
            match = _EXPONENT.search(raw)
            mantissa = raw[:match.start()] if match else raw
            try:
                exponent = int(match.group(1)) if match else 0
            except ValueError as exc:
                raise SchemaError(f"bad rational exponent in {raw[:40]!r}") from exc
            limit = _str_digit_limit()
            if sum(ch.isdigit() for ch in mantissa) + abs(exponent) > limit:
                raise SchemaError(f"rational {raw[:40]!r} would have more than "
                                  f"{limit} digits")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {raw[:40]!r}") from exc
    if isinstance(raw, int):
        return Fraction(raw)
    raise SchemaError(f"rational must be a string or integer, got {type(raw).__name__}")


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


def graph_to_dict(g: StGraph) -> dict:
    return {
        "vertices": list(g.names),
        "edges": [[g.names[u], g.names[v], fraction_str(w)]
                  for (u, v), w in zip(g.edges, g.weights)],
        "s": g.names[g.s],
        "t": g.names[g.t],
        "orientation": [[g.names[u], g.names[v]] for u, v in g.edges],
    }


def measured_to_dict(mg: MeasuredGraph) -> dict:
    doc = graph_to_dict(mg.graph)
    doc["measure"] = [fraction_str(x) for x in mg.nu]
    if mg.restricted:
        doc["restricted"] = True
    return doc


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
    try:
        return MeasuredGraph(graph=g, nu=nu,
                             restricted=bool(doc.get("restricted", False)))
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def dumps(obj: StGraph | MeasuredGraph) -> str:
    doc = measured_to_dict(obj) if isinstance(obj, MeasuredGraph) else graph_to_dict(obj)
    return json.dumps(doc, indent=2)


def loads(text: str) -> StGraph | MeasuredGraph:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an int literal past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
    if isinstance(doc, dict) and "measure" in doc:
        return measured_from_dict(doc)
    return graph_from_dict(doc)


def export_dot(g: StGraph) -> str:
    """DOT digraph honoring the orientation; labels carry exact weights."""
    lines = ["digraph g {"]
    for name in g.names:
        attrs = []
        if name == g.names[g.s]:
            attrs.append("role=s")
        if name == g.names[g.t]:
            attrs.append("role=t")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{name}"{suffix};')
    for (u, v), w in zip(g.edges, g.weights):
        lines.append(f'  "{g.names[u]}" -> "{g.names[v]}" [label="{fraction_str(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
