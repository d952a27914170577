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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Optional, Sequence

from .constructions import MeasuredGraph
from .core import StGraph, _str_digit_limit
from .errors import SchemaError

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(raw: Any) -> Fraction:
    """An exact rational from an int (not a bool) or from a string Fraction
    accepts ("3/4", "-2", "1.5e-3").

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
    if isinstance(raw, int) and not isinstance(raw, bool):
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
    restricted = doc.get("restricted", False)
    if not isinstance(restricted, bool):
        raise SchemaError(f"restricted must be true or false, got {restricted!r:.40}")
    try:
        return MeasuredGraph(graph=g, nu=nu, restricted=restricted)
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


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


# --- writing -----------------------------------------------------------------
#
# Graph documents are laid out exactly as json.dumps(doc, indent=2) lays out
# the equivalent dict, which with an indent runs the pure-Python encoder once
# per list element.  Here they are rendered straight from the graph instead:
# each vertex name is encoded once (by json's C string encoder) into the few
# pieces an edge row is made of, each distinct weight or measure object is
# rendered once, and the whole document is one join over those shared pieces.

_INDENT = "  "


def _array(depth: int, *columns: Sequence[str]) -> Iterable[str]:
    """The pieces of a JSON array opened at nesting `depth` whose i-th item is
    the concatenation of the i-th strings of `columns`."""
    if not columns[0]:
        return ("[]",)
    inner = "\n" + _INDENT * (depth + 1)
    separators = chain((inner,), repeat("," + inner))
    return chain(("[",), chain.from_iterable(zip(separators, *columns)),
                 ("\n" + _INDENT * depth + "]",))


def _object(depth: int, fields: Sequence[tuple[str, Iterable[str]]]) -> Iterable[str]:
    """The pieces of a JSON object opened at `depth`, from (key, value pieces)."""
    inner = "\n" + _INDENT * (depth + 1)
    parts: list[Iterable[str]] = []
    for key, value in fields:
        parts.append(("," if parts else "{", inner, encode_basestring_ascii(key), ": "))
        parts.append(value)
    parts.append(("\n" + _INDENT * depth + "}",) if parts else ("{}",))
    return chain.from_iterable(parts)


def _fraction_cells(values: Sequence[Fraction], before: str = "",
                    after: str = "") -> list[str]:
    """Each value as a JSON string between `before` and `after`, rendered once
    per distinct object; id() keys stay valid while `values` holds them."""
    distinct = dict(zip(map(id, values), values))
    text = {key: f'{before}"{fraction_str(x)}"{after}' for key, x in distinct.items()}
    return [text[key] for key in map(id, values)]


def _graph_fields(obj: StGraph | MeasuredGraph,
                  depth: int) -> list[tuple[str, Iterable[str]]]:
    """The fields of a graph document whose object opens at `depth`."""
    g = obj.graph if isinstance(obj, MeasuredGraph) else obj
    names = list(map(encode_basestring_ascii, g.names))
    # An edge row is an array at depth + 2, its cells at depth + 3.
    cell = "\n" + _INDENT * (depth + 3)
    close = "\n" + _INDENT * (depth + 2) + "]"
    opens = [f"[{cell}{x}," for x in names]
    middles = [f"{cell}{x}," for x in names]
    lasts = [f"{cell}{x}{close}" for x in names]
    tails = [opens[u] for u, _ in g.edges]
    fields = [
        ("vertices", _array(depth + 1, names)),
        ("edges", _array(depth + 1, tails, [middles[v] for _, v in g.edges],
                         _fraction_cells(g.weights, cell, close))),
        ("s", (names[g.s],)),
        ("t", (names[g.t],)),
        ("orientation", _array(depth + 1, tails, [lasts[v] for _, v in g.edges])),
    ]
    if isinstance(obj, MeasuredGraph):
        fields.append(("measure", _array(depth + 1, _fraction_cells(obj.nu))))
        if obj.restricted:
            fields.append(("restricted", ("true",)))
    return fields


def dumps(obj: StGraph | MeasuredGraph,
          edge_labels: Optional[Sequence[str]] = None) -> str:
    """The graph document; a power's `edge_labels` follow as one more field."""
    fields = _graph_fields(obj, 0)
    if edge_labels is not None:
        fields.append(("edge_labels",
                       _array(1, list(map(encode_basestring_ascii, edge_labels)))))
    return "".join(_object(0, fields))


def _value(value: Any, depth: int) -> Iterable[str]:
    """The pieces of one document value opened at `depth`."""
    if isinstance(value, (StGraph, MeasuredGraph)):
        return _object(depth, _graph_fields(value, depth))
    if isinstance(value, list):
        return _array(depth, ["".join(_value(x, depth + 1)) for x in value])
    if isinstance(value, bool):
        return ("true" if value else "false",)
    if isinstance(value, int):
        return (int.__repr__(value),)
    if isinstance(value, str):
        return (encode_basestring_ascii(value),)
    raise TypeError(f"cannot write a {type(value).__name__}")


def dumps_document(fields: dict[str, Any]) -> str:
    """A JSON object of ints, strings, lists and graphs; each graph is written
    as its graph document, nested one level down."""
    return "".join(_object(0, [(key, _value(value, 1)) for key, value in fields.items()]))


def _dot_id(text: str) -> str:
    """A quoted DOT ID: backslashes and double quotes are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: StGraph) -> str:
    """DOT digraph honoring the orientation; labels carry exact weights."""
    ids = list(map(_dot_id, g.names))
    roles = {g.s: " [role=s]", g.t: " [role=t]"}
    lines = ["digraph g {"]
    lines.extend(f"  {x}{roles.get(v, '')};" for v, x in enumerate(ids))
    labels = _fraction_cells(g.weights, ' [label=', '];')
    lines.extend(f"  {ids[u]} -> {ids[v]}{label}"
                 for (u, v), label in zip(g.edges, labels))
    lines.append("}")
    return "\n".join(lines) + "\n"
