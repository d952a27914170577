import json

import pytest

import slashpow as sp
from helpers import diamond, laakso1221, theta, unit_cycle
from slashpow import serialization as ser
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
            ser.graph_from_dict(doc)

    doc = json.loads(ser.dumps(diamond().graph))
    doc["edges"][0][2] = "1/0"
    with pytest.raises(SchemaError):
        ser.graph_from_dict(doc)

    doc = json.loads(ser.dumps(diamond().graph))
    doc["orientation"][0] = doc["orientation"][1]
    with pytest.raises(SchemaError):
        ser.graph_from_dict(doc)

    doc = json.loads(ser.dumps(diamond().graph))
    doc["s"] = "nope"
    with pytest.raises(SchemaError):
        ser.graph_from_dict(doc)

    with pytest.raises(SchemaError):
        ser.loads("{not json")


def test_measure_must_align():
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"] = doc["measure"][:-1]
    with pytest.raises(SchemaError):
        ser.measured_from_dict(doc)
    doc = json.loads(ser.dumps(diamond()))
    doc["measure"][0] = "1/3"  # no longer sums to 1
    with pytest.raises(SchemaError):
        ser.measured_from_dict(doc)


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
        ser.graph_from_dict(doc)
