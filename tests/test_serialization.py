import json
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slashpow as sp
from helpers import diamond, dumps_document, laakso1221, theta, unit_cycle
from slashpow import serialization as ser
from slashpow.cli import main
from slashpow.constructions import MeasuredGraph
from slashpow.core import StGraph
from slashpow.errors import SchemaError


def test_roundtrip_graphs_exact():
    fixtures = [diamond().graph, laakso1221().graph, theta().graph,
                unit_cycle(5), sp.slash_power(diamond(), 2).graph.graph]
    for g in fixtures:
        back = ser.loads(ser.dumps(g))
        assert back == g
        assert back.names == g.names
        assert back.weights == g.weights


def test_roundtrip_measured_exact():
    for mg in (diamond(), laakso1221(), theta()):
        back = ser.loads(ser.dumps(mg))
        assert back.graph == mg.graph
        assert back.nu == mg.nu
        assert back.restricted == mg.restricted


def test_schema_errors():
    good = json.loads(ser.dumps(diamond().graph))

    for key in ("vertices", "edges", "s", "t", "orientation"):
        doc = dict(good)
        del doc[key]
        with pytest.raises(SchemaError):
            ser.loads(json.dumps(doc))

    doc = json.loads(ser.dumps(diamond().graph))
    doc["edges"][0][2] = "1/0"
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))

    doc = json.loads(ser.dumps(diamond().graph))
    doc["orientation"][0] = doc["orientation"][1]
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))

    doc = json.loads(ser.dumps(diamond().graph))
    doc["s"] = "nope"
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))

    with pytest.raises(SchemaError):
        ser.loads("{not json")


def test_measure_must_align():
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"] = doc["measure"][:-1]
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"][0] = "1/3"  # no longer sums to 1
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))


def test_vertex_names_must_be_valid_unicode():
    text = ser.dumps(diamond())
    # An escaped surrogate pair is one character, and is written back the same.
    paired = text.replace('"z0"', '"z0\\ud83d\\ude00"')
    g = ser.loads(paired)
    assert "z0\U0001f600" in g.graph.names
    assert ser.dumps(g) == paired
    for lone in ("\\ud800", "\\udfff", "\\ude00\\ud83d"):
        with pytest.raises(SchemaError, match="lone surrogate"):
            ser.loads(text.replace('"z0"', f'"z0{lone}"'))


def test_export_dot_counts():
    single = sp.build_path([1]).graph
    text = ser.export_dot(single)
    assert text.count("->") == 1

    d = ser.export_dot(diamond().graph)
    assert d.count("->") == 4
    assert '"x0" [role=s]' in d

    big = ser.export_dot(sp.slash_power(diamond(), 2).graph.graph)
    assert big.count("->") == 16
    assert big.count(";") == 12 + 16


def test_fraction_strings():
    from fractions import Fraction as F

    assert ser.fraction_str(F(3, 4)) == "3/4"
    assert ser.parse_fraction("3/4") == F(3, 4)
    assert ser.parse_fraction(2) == F(2)
    with pytest.raises(SchemaError):
        ser.parse_fraction(0.5)


def test_parse_fraction_refuses_oversized_decimals():
    from fractions import Fraction as F

    assert ser.parse_fraction("1.5e-3") == F(3, 2000)
    assert ser.parse_fraction(" -2_5 ") == F(-25)
    # 10**4299 has 4300 digits, the default int-to-str limit; one more is out.
    assert ser.fraction_str(ser.parse_fraction("1e4299")) == "1" + "0" * 4299 + "/1"
    # 1e9999999999 would take unbounded time inside Fraction itself.
    for raw in ("1e4300", "1e-4300", "1e999999", "1e9999999999", "0." + "1" * 4300,
                "1e" + "9" * 5000, "1e1__0"):
        with pytest.raises(SchemaError):
            ser.parse_fraction(raw)


def test_loads_refuses_malformed_documents():
    for text in ("[" * 100_000 + "]" * 100_000,   # RecursionError inside json
                 "1" * 5000,                       # int literal past the digit limit
                 '{"vertices": [["a"]], "edges": [[["a"], "b", "1"]]}'):
        with pytest.raises(SchemaError):
            ser.loads(text)
    doc = json.loads(ser.dumps(diamond().graph))
    doc["edges"][0][0] = ["x0"]  # unhashable vertex reference
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))


def test_booleans_are_not_rationals():
    # bool is an int subclass: true would otherwise read as weight 1.
    for raw in (True, False):
        with pytest.raises(SchemaError):
            ser.parse_fraction(raw)
    doc = json.loads(ser.dumps(diamond()))
    doc["edges"][0][2] = True
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"] = ["1/2", "1/2", False, False]
    doc["restricted"] = True
    with pytest.raises(SchemaError):
        ser.loads(json.dumps(doc))


def test_restricted_must_be_a_json_boolean():
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"] = ["1/2", "1/2", "0", "0"]
    for flag in ("false", "true", 1, 0, None, []):
        doc["restricted"] = flag
        with pytest.raises(SchemaError):
            ser.loads(json.dumps(doc))
    doc["restricted"] = False
    with pytest.raises(SchemaError):  # zero measure values need the flag
        ser.loads(json.dumps(doc))
    doc["restricted"] = True
    assert ser.loads(json.dumps(doc)).restricted


def test_a_repeated_top_level_key_is_refused(tmp_path):
    # json.loads would keep the last value silently.
    text = ser.dumps(diamond().graph)
    assert text.endswith("\n}")
    for extra in ('"t": "z0"', '"t": "x0"', '"vertices": []', '"note": 1, "note": 1'):
        doubled = text[:-2] + ",\n  " + extra + "\n}"
        with pytest.raises(SchemaError, match="appears more than once"):
            ser.loads(doubled)
    path = tmp_path / "doubled.json"
    path.write_text(text[:-2] + ',\n  "s": "x0"\n}')
    assert main(["export-dot", "--graph", str(path)]) == 3


def test_members_in_any_order_read_the_same_graph():
    power = sp.slash_power(diamond(), 2)
    for obj in (diamond(), theta().graph, power.graph):
        doc = json.loads(ser.dumps(obj, edge_labels=["label"] * 3))
        for text in (json.dumps(dict(reversed(doc.items())), indent=2),
                     json.dumps(dict(reversed(doc.items())))):
            back = ser.loads(text)
            assert back == obj
        # Edge rows reversed in order and direction: the orientation still
        # decides each edge's direction and place.
        doc["edges"] = [[v, u, w] for u, v, w in reversed(doc["edges"])]
        assert ser.loads(json.dumps(doc)) == obj


def test_loads_peak_memory_stays_within_four_times_the_text(tmp_path, monkeypatch):
    # The whole-document json.loads reader peaked at 6.0 times the text on
    # this file; reading one member at a time stays near 2.6 times.
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--laakso", "0,2,2,0", "--uniform-weights",
                 "--out", "d.json"]) == 0
    assert main(["power", "--base", "d.json", "--n", "6", "--out", "d6.json"]) == 0
    text = (tmp_path / "d6.json").read_text()
    assert len(text) == 710_174
    tracemalloc.start()
    try:
        g = ser.loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.graph.edge_count == 4096
    assert peak <= 4 * len(text), peak / len(text)


# --- the writer against json.dumps ------------------------------------------

def _reference_doc(obj):
    """The dict json.dumps(doc, indent=2) used to write, built field by field."""
    g = obj.graph if isinstance(obj, MeasuredGraph) else obj
    doc = {
        "vertices": list(g.names),
        "edges": [[g.names[u], g.names[v], ser.fraction_str(w)]
                  for (u, v), w in zip(g.edges, g.weights)],
        "s": g.names[g.s],
        "t": g.names[g.t],
        "orientation": [[g.names[u], g.names[v]] for u, v in g.edges],
    }
    if isinstance(obj, MeasuredGraph):
        doc["measure"] = [ser.fraction_str(x) for x in obj.nu]
        if obj.restricted:
            doc["restricted"] = True
    return doc


# Quotes, backslashes, control characters, non-ASCII and astral characters.
names = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀'), max_size=4)


@st.composite
def graphs(draw):
    """Plain, measured and restricted graphs on arbitrary names; weights and
    measure values repeat shared objects as powers do, and fresh ones too."""
    vs = draw(st.lists(names, min_size=2, max_size=6, unique=True))
    n = len(vs)
    s, t = draw(st.permutations(range(n)))[:2]
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    if draw(st.sampled_from(range(10))) == 9:
        chosen = []  # empty edge lists
    edges = tuple((v, u) if draw(st.booleans()) else (u, v) for u, v in chosen)
    shared = (F(1, 2), F(3), F(23, 3))
    weight = st.one_of(st.sampled_from(shared),
                       st.fractions(min_value=F(1, 1000), max_value=1000,
                                    max_denominator=10**6))
    weights = tuple(draw(weight) for _ in edges)
    g = StGraph(names=tuple(vs), edges=edges, weights=weights, s=s, t=t)
    kind = draw(st.sampled_from(["plain", "measured", "restricted"]))
    if kind == "plain" or not edges:
        return g
    restricted = kind == "restricted"
    parts = [draw(st.integers(0 if restricted else 1, 3)) for _ in edges]
    if not any(parts):
        parts[0] = 1
    total = sum(parts)
    cells = {k: F(k, total) for k in set(parts)}
    return MeasuredGraph(graph=g, nu=tuple(cells[k] for k in parts),
                         restricted=restricted)


@settings(max_examples=300)
@given(graphs(), st.none() | st.lists(st.text(max_size=5), max_size=8))
@example(StGraph(names=("s", "t"), edges=(), weights=(), s=0, t=1), [])
def test_dumps_matches_json_dumps(obj, labels):
    doc = _reference_doc(obj)
    if labels is not None:
        doc["edge_labels"] = labels
    assert ser.dumps(obj, edge_labels=labels) == json.dumps(doc, indent=2)


scalars = st.one_of(st.integers(-10**30, 10**30), st.booleans(), names)


@settings(max_examples=200)
@given(st.dictionaries(names, scalars | st.lists(scalars | st.lists(scalars)),
                       max_size=4),
       graphs())
def test_dumps_document_matches_json_dumps(head, obj):
    doc = dict(head, subgraph=obj)
    reference = dict(head, subgraph=_reference_doc(obj))
    assert dumps_document(doc) == json.dumps(reference, indent=2)


@pytest.mark.parametrize("argv", [
    ["build", "--laakso", "0,2,3,0", "--weights", ";1/2,1/2;1/3,1/3,1/3;"],
    ["power", "--base", "l0240.json", "--n", "2"],
    ["find-balanced", "--params", "0,2,3,0"],
    ["pipeline", "--graph", "l0240.json"],
], ids=["build", "power", "find-balanced", "pipeline"])
def test_command_outputs_are_laid_out_as_json_dumps(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--laakso", "0,2,4,0", "--uniform-weights",
                 "--out", "l0240.json"]) == 0
    assert main(argv + ["--out", "out.json"]) == 0
    text = (tmp_path / "out.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2)


def test_export_dot_escapes_quotes_and_backslashes():
    g = StGraph(names=("s", 'a"b', "c\\d", "té"),
                edges=((0, 1), (1, 2), (2, 3)),
                weights=(F(1, 2), F(1, 3), F(1, 2)), s=0, t=3)
    assert ser.export_dot(g) == (
        'digraph g {\n'
        '  "s" [role=s];\n'
        '  "a\\"b";\n'
        '  "c\\\\d";\n'
        '  "té" [role=t];\n'
        '  "s" -> "a\\"b" [label="1/2"];\n'
        '  "a\\"b" -> "c\\\\d" [label="1/3"];\n'
        '  "c\\\\d" -> "té" [label="1/2"];\n'
        '}\n')
