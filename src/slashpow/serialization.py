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

`loads` reads a document one top-level member at a time: the members may
come in any order, unknown keys (such as a power's ``edge_labels``) are
ignored, a key that appears twice is refused, and at most one raw member is
held beside the graph being built.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, filterfalse, repeat
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .constructions import MeasuredGraph
from .core import StGraph, _str_digit_limit
from .errors import CapExceeded, InputError, SchemaError

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")
_SURROGATE = re.compile("[\ud800-\udfff]")


def fraction_str(x: Fraction) -> str:
    """The string "num/den"; CapExceeded past core._str_digit_limit."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise CapExceeded(
            f"a rational has more than {_str_digit_limit()} decimal digits "
            "(the int-to-str limit, PYTHONINTMAXSTRDIGITS)") from exc


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


# --- reading -----------------------------------------------------------------
#
# A graph document is read one top-level member at a time: json's own C
# scanner decodes each member's value, the value becomes compact columns
# (the name index, integer vertex ids, one Fraction per distinct rational)
# and is dropped before the next member is decoded.  So a reader holds the
# text, the graph built so far and at most one raw member; json.loads would
# hold every member at once, with a new string per name occurrence.
#
# The checks run on whole columns.  Only when one fails does a row-by-row
# pass look for the first bad row, so the error names the row that a reader
# going row by row stops at.

_scan = make_scanner(json.JSONDecoder())
_skip = WHITESPACE.match


def _read_object(text: str, take: Callable[[str, Any], None]) -> None:
    """Pass each member of the JSON object `text` to `take` as it is decoded.

    Raises ValueError (json's JSONDecodeError or an int past the digit
    limit) or RecursionError where json.loads would."""
    end = _skip(text).end()
    if text[end:end + 1] != "{":
        json.loads(text)  # its own error, or a valid document of another kind
        raise SchemaError("top-level JSON value must be an object")
    end = _skip(text, end + 1).end()
    if text[end:end + 1] == "}":
        end += 1
    else:
        while True:
            if text[end:end + 1] != '"':
                raise JSONDecodeError("Expecting property name enclosed in double quotes",
                                      text, end)
            key, end = scanstring(text, end + 1)
            end = _skip(text, end).end()
            if text[end:end + 1] != ":":
                raise JSONDecodeError("Expecting ':' delimiter", text, end)
            try:
                value, end = _scan(text, _skip(text, end + 1).end())
            except StopIteration as exc:
                raise JSONDecodeError("Expecting value", text, exc.value) from None
            take(key, value)
            del value  # before the next member is decoded
            end = _skip(text, end).end()
            if text[end:end + 1] == "}":
                end += 1
                break
            if text[end:end + 1] != ",":
                raise JSONDecodeError("Expecting ',' delimiter", text, end)
            end = _skip(text, end + 1).end()
    end = _skip(text, end).end()
    if end != len(text):
        raise JSONDecodeError("Extra data", text, end)


def _parse_column(raw: list) -> list[Fraction]:
    """parse_fraction of every item, in order.  Strings and ints are parsed
    once per distinct value, so equal strings give one Fraction object."""
    if set(map(type, raw)) <= {str, int}:
        parsed = {x: parse_fraction(x) for x in dict.fromkeys(raw)}
        return list(map(parsed.__getitem__, raw))
    return list(map(parse_fraction, raw))  # raises at the first bad item


def _pair_key(n: int, u: int, v: int) -> int:
    """One int per unordered pair of vertex ids below n: an edge row and its
    reversal get the same key."""
    return u * n + v if u < v else v * n + u


class _Document:
    """A graph document read member by member.

    A member that needs another one first waits raw in `held`: edges need
    the vertices, and the orientation and the measure need the edges.  The
    checks run as each member is read; the graph is built by `finish`."""

    def __init__(self) -> None:
        self.seen: set[str] = set()
        self.held: dict[str, Any] = {}
        self.names: tuple[str, ...] = ()
        self.index: Optional[dict[str, int]] = None
        # tail ids, head ids and weights of the edge rows, once they are read
        self.edge_rows: Optional[tuple[list[int], list[int], list[Fraction]]] = None
        self.edges: tuple[tuple[int, int], ...] = ()
        self.weights: tuple[Fraction, ...] = ()
        self.nu: tuple[Fraction, ...] = ()

    def take(self, key: str, value: Any) -> None:
        if key in self.seen:
            raise SchemaError(f"key {key!r:.40} appears more than once")
        self.seen.add(key)
        if key in ("vertices", "edges", "orientation", "measure", "s", "t",
                   "restricted"):
            self.held[key] = value
        # edge_labels and unknown keys are dropped here
        held = self.held
        if "vertices" in held:
            self._vertices(held.pop("vertices"))
        if self.index is not None and "edges" in held:
            self._edges(held.pop("edges"))
        if self.edge_rows is not None:
            if "orientation" in held:
                self._orientation(held.pop("orientation"))
            if "measure" in held:
                self._measure(held.pop("measure"))

    def _vid(self, name: Any) -> int:
        if not isinstance(name, str) or name not in self.index:
            raise SchemaError(f"unknown vertex {name!r}")
        return self.index[name]

    def _id_columns(self, rows: list, width: int) -> Optional[tuple[list[int], list[int]]]:
        """The tail and head ids of `rows`, when every row is a list of
        `width` items that starts with two known names."""
        if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
            return None
        try:
            return (list(map(self.index.__getitem__, map(itemgetter(0), rows))),
                    list(map(self.index.__getitem__, map(itemgetter(1), rows))))
        except (KeyError, TypeError):  # an unknown or unhashable name
            return None

    def _vertices(self, names: Any) -> None:
        if type(names) is not list or set(map(type, names)) - {str}:
            raise SchemaError("vertices must be a list of names")
        # A \ud800 escape decodes to a lone surrogate, which no UTF-8 output
        # can hold: refused here, before any output file is opened.
        bad = next(filter(_SURROGATE.search, filterfalse(str.isascii, names)), None)
        if bad is not None:
            raise SchemaError(f"vertex name {bad!r:.40} is not valid Unicode "
                              "(it holds a lone surrogate)")
        self.index = dict(zip(names, range(len(names))))
        if len(self.index) != len(names):
            raise SchemaError("vertex names must be unique")
        self.names = tuple(names)

    def _edges(self, rows: Any) -> None:
        if type(rows) is not list:
            raise SchemaError("edges must be a list")
        ids = self._id_columns(rows, 3)
        if ids is not None:
            keys = set(map(_pair_key, repeat(len(self.names)), *ids))
            if len(keys) == len(rows):  # no pair twice, in either direction
                self.edge_rows = (*ids, _parse_column(list(map(itemgetter(2), rows))))
                return
        pairs: set[tuple[int, int]] = set()
        for row in rows:
            if type(row) is not list or len(row) != 3:
                raise SchemaError(f"edge row must be [u, v, weight], got {row!r}")
            u, v = self._vid(row[0]), self._vid(row[1])
            if (u, v) in pairs or (v, u) in pairs:
                raise SchemaError(f"duplicate edge {row[0]!r}-{row[1]!r}")
            pairs.add((u, v))
            parse_fraction(row[2])
        raise AssertionError("edge rows failed as columns but not row by row")

    def _orientation(self, rows: Any) -> None:
        if type(rows) is not list or len(rows) != len(self.edge_rows[0]):
            raise SchemaError("orientation must list every edge exactly once")
        tails, heads, weights = self.edge_rows
        if self._id_columns(rows, 2) == (tails, heads):  # each edge row as written
            self.edges, self.weights = tuple(zip(tails, heads)), tuple(weights)
            return
        # Edge rows listed in another order or direction, or a fault.
        n = len(self.names)
        weight_of = dict(zip(map(_pair_key, repeat(n), tails, heads), weights))
        edges: list[tuple[int, int]] = []
        seen: dict[int, Fraction] = {}  # pair key -> weight, in orientation order
        for row in rows:
            if type(row) is not list or len(row) != 2:
                raise SchemaError(f"orientation row must be [tail, head], got {row!r}")
            u, v = self._vid(row[0]), self._vid(row[1])
            key = _pair_key(n, u, v)
            if key not in weight_of:
                raise SchemaError(f"orientation names a non-edge {row!r}")
            if key in seen:
                raise SchemaError(f"orientation repeats edge {row!r}")
            seen[key] = weight_of[key]
            edges.append((u, v))
        self.edges, self.weights = tuple(edges), tuple(seen.values())

    def _measure(self, raw: Any) -> None:
        if type(raw) is not list or len(raw) != len(self.edge_rows[0]):
            raise SchemaError("measure must align with edges")
        self.nu = tuple(_parse_column(raw))

    def finish(self) -> StGraph | MeasuredGraph:
        for key in ("vertices", "edges", "orientation", "s", "t"):
            if key not in self.seen:
                raise SchemaError(f"missing key {key!r}")
        s, t = self._vid(self.held["s"]), self._vid(self.held["t"])
        try:
            g = StGraph(names=self.names, edges=self.edges, weights=self.weights,
                        s=s, t=t)
        except InputError as exc:
            raise SchemaError(str(exc)) from exc
        if "measure" not in self.seen:
            return g
        restricted = self.held.get("restricted", False)
        if not isinstance(restricted, bool):
            raise SchemaError(f"restricted must be true or false, got {restricted!r:.40}")
        try:
            return MeasuredGraph(graph=g, nu=self.nu, restricted=restricted)
        except InputError as exc:
            raise SchemaError(str(exc)) from exc


def loads(text: str) -> StGraph | MeasuredGraph:
    """The graph, or the measured graph when it has a measure, of a graph
    document.  Members may come in any order, unknown keys are ignored, and
    a key that appears twice is refused."""
    doc = _Document()
    try:
        _read_object(text, doc.take)
    except ValueError as exc:  # also an int literal past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
    return doc.finish()


# --- writing -----------------------------------------------------------------
#
# Graph documents are laid out exactly as json.dumps(doc, indent=2) lays out
# the equivalent dict, which with an indent runs the pure-Python encoder once
# per list element.  Here they are rendered straight from the graph instead:
# each vertex name is encoded once (by json's C string encoder) into the few
# pieces an edge row is made of, and each distinct weight or measure object
# is rendered once.  A writer returns an iterator over those shared pieces;
# every name and value is rendered when the writer is called, so nothing can
# fail while the pieces are drawn.  dumps and export_dot join them, and the
# CLI writes them to the file as they come, so the whole document is never
# held as one string.

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


def _object(depth: int, fields: Sequence[tuple[str, Iterable[str]]]) -> Iterator[str]:
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


def graph_pieces(obj: StGraph | MeasuredGraph,
                 edge_labels: Optional[Sequence[str]] = None) -> Iterator[str]:
    """The pieces of the graph document; a power's `edge_labels` follow as
    one more field."""
    fields = _graph_fields(obj, 0)
    if edge_labels is not None:
        fields.append(("edge_labels",
                       _array(1, list(map(encode_basestring_ascii, edge_labels)))))
    return _object(0, fields)


def dumps(obj: StGraph | MeasuredGraph,
          edge_labels: Optional[Sequence[str]] = None) -> str:
    """The graph document; a power's `edge_labels` follow as one more field."""
    return "".join(graph_pieces(obj, edge_labels))


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


def document_pieces(fields: dict[str, Any]) -> Iterator[str]:
    """The pieces of a JSON object of ints, strings, lists and graphs; each
    graph is written as its graph document, nested one level down."""
    return _object(0, [(key, _value(value, 1)) for key, value in fields.items()])


def _dot_id(text: str) -> str:
    """A quoted DOT ID: backslashes and double quotes are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_pieces(g: StGraph) -> Iterator[str]:
    """The lines of a DOT digraph honoring the orientation; labels carry
    exact weights."""
    ids = list(map(_dot_id, g.names))
    roles = {g.s: " [role=s]", g.t: " [role=t]"}
    labels = _fraction_cells(g.weights, ' [label=', '];\n')
    return chain(("digraph g {\n",),
                 (f"  {x}{roles.get(v, '')};\n" for v, x in enumerate(ids)),
                 (f"  {ids[u]} -> {ids[v]}{label}"
                  for (u, v), label in zip(g.edges, labels)),
                 ("}\n",))


def export_dot(g: StGraph) -> str:
    """DOT digraph honoring the orientation; labels carry exact weights."""
    return "".join(dot_pieces(g))
