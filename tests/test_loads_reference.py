"""serialization.loads against the reference reader it replaced.

loads reads a graph document one top-level member at a time;
helpers.reference_loads decodes the whole document with json.loads and
builds the graph row by row.  Each document here is written from a small
graph and then varied once: member order and layout, an unknown key, or one
fault (a missing member, a row of the wrong width, an unknown or unhashable
vertex name, a name with a lone surrogate, a duplicate or reversed edge, a repeated orientation row, a bad
or over-long rational, a misaligned measure, a non-boolean `restricted`, a
non-object top level, trailing data, a BOM, deep nesting, a cut-off text).
Both readers must return equal graphs, or both refuse the document with
the same SchemaError message.

Repeated top-level keys are left out: json.loads keeps the last value,
while loads refuses the document (tested in test_serialization.py).

The runs are derandomized so that the suite gives the same verdict on every
run.
"""

import json
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import slashpow as sp
from helpers import diamond, laakso1221, reference_loads, theta, unit_cycle
from slashpow import serialization as ser
from slashpow.constructions import MeasuredGraph
from slashpow.errors import SchemaError

BASES = (
    diamond(),
    laakso1221(),
    theta(),
    theta().graph,
    unit_cycle(5),
    sp.slash_power(diamond(), 2).graph,
    MeasuredGraph(graph=diamond().graph, nu=(F(1, 2), F(1, 2), F(0), F(0)),
                  restricted=True),
)

FAULTS = ("none", "extra", "missing", "width", "name", "vertices", "duplicate",
          "repeat", "rational", "measure", "restricted", "top", "trailing",
          "bom", "deep", "cut")
BAD_NAMES = ("nope", ["x0"], {"a": 1}, 3, None, "")
BAD_RATIONALS = ("x", "1/0", "0", "-1/2", "2", "1e5000", "1" * 5000,
                 "1e99999999999", 0.5, True, None, [], {}, 7, "1/3")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _vary(draw, doc: dict, fault: str) -> None:
    """Apply one fault of the given kind to the document, in place."""
    def row_index(table):
        return draw(st.integers(0, len(doc[table]) - 1))

    if fault == "extra":
        key = draw(st.sampled_from(["extra", "edge_labels", "", "S", "vertices "]))
        doc[key] = draw(JSON_VALUES)
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "width":
        row = doc[draw(st.sampled_from(["edges", "orientation"]))]
        i = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            row[i].append("1/2")
        else:
            row[i].pop()
    elif fault == "name":
        name = draw(st.sampled_from(BAD_NAMES))
        where = draw(st.sampled_from(["edges", "orientation", "s", "t"]))
        if where in ("s", "t"):
            doc[where] = name
        else:
            doc[where][row_index(where)][draw(st.integers(0, 1))] = name
    elif fault == "vertices":
        names = doc["vertices"]
        if draw(st.booleans()):
            names[row_index("vertices")] = names[row_index("vertices")]
        else:
            names[row_index("vertices")] = draw(st.sampled_from([1, None, ["x0"],
                                                                 "x\ud800"]))
    elif fault in ("duplicate", "repeat"):
        table = "edges" if fault == "duplicate" else "orientation"
        i, j = row_index(table), row_index(table)
        row = list(doc[table][j])
        if draw(st.booleans()):
            row[0], row[1] = row[1], row[0]
        doc[table][i] = row
    elif fault == "rational":
        bad = draw(st.sampled_from(BAD_RATIONALS))
        if "measure" in doc and draw(st.booleans()):
            doc["measure"][row_index("measure")] = bad
        else:
            doc["edges"][row_index("edges")][2] = bad
    elif fault == "measure":
        if "measure" not in doc:
            doc["measure"] = ["1"]
        elif draw(st.booleans()):
            doc["measure"].pop()
        else:
            doc["measure"].append("0")
    elif fault == "restricted":
        doc["restricted"] = draw(st.sampled_from([1, 0, "true", None, [], False, True]))


@st.composite
def documents(draw):
    obj = draw(st.sampled_from(BASES))
    doc = json.loads(ser.dumps(obj))
    fault = draw(st.sampled_from(FAULTS))
    _vary(draw, doc, fault)
    order = draw(st.permutations(sorted(doc)))
    text = json.dumps({key: doc[key] for key in order},
                      indent=draw(st.sampled_from([None, 2])))
    if fault == "top":
        text = json.dumps(draw(st.sampled_from([[doc], 3, "x", None, list(doc)])))
    elif fault == "trailing":
        text += draw(st.sampled_from(["x", "{}", " 1", "\n", ",", "}"]))
    elif fault == "bom":
        text = "\ufeff" + text
    elif fault == "deep":
        depth = draw(st.sampled_from([10, 5000]))
        text = text[:-1] + ', "deep": ' + "[" * depth + "]" * depth + "}"
    elif fault == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _read(reader, text):
    """The graph read, or the message of the SchemaError raised."""
    try:
        return reader(text)
    except SchemaError as exc:
        return str(exc)


def _same(a, b) -> bool:
    if isinstance(a, MeasuredGraph):
        return (isinstance(b, MeasuredGraph) and _same(a.graph, b.graph)
                and a.nu == b.nu and a.restricted == b.restricted)
    return not isinstance(b, MeasuredGraph) and a == b and a.names == b.names


@settings(max_examples=600, derandomize=True)
@given(documents())
@example('{"vertices": ["s", "t"], "edges": [["s", "t", "1"]], "s": "s", "t": "t", '
         '"orientation": [["t", "s"]]}')
@example('{"orientation": [["s", "m"], ["m", "t"]], "s": "s", "t": "t", '
         '"edges": [["t", "m", "1/2"], ["m", "s", "1/2"]], "vertices": ["s", "m", "t"]}')
@example('{"vertices": [], "edges": [], "s": "s", "t": "t", "orientation": []}')
@example(' { } ')
def test_loads_agrees_with_the_reference_reader(text):
    new, ref = _read(ser.loads, text), _read(reference_loads, text)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert _same(new, ref)
