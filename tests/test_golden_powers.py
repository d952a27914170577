"""Golden outputs of the slash-power layer, recorded before each distinct
weight and measure value of a power came to be built, checked and parsed
once.  A changed weight, measure, vertex name, edge order or label shows up
here as a changed digest; the product check ties every power value to the
base values along its edge label."""

import hashlib
import json
import math

import pytest

from slashpow import serialization as ser
from slashpow.cli import EXIT_OK, main

# (parameters, --weights, sha256 of `power --n 4 --out`)
WEIGHTED_POWERS = (
    ("1,2,2,0", "1/4;1/2,1/4;1/3,5/12;",
     "43e9fcd0d4105d9322d75b3c7234b9d59cb53be320e0b12d9504ac9d5733bada"),
    ("0,2,3,0", ";1/3,2/3;1/4,1/4,1/2;",
     "58d6ac728a35cb813e2cc1e954a9911e0cf5b9ffee4473bf1462a3d9550102dc"),
)
PIPELINE_0240 = "b938670ba1b3bc5bc42dc2f6903cd71aa2d7eccab8b581925378af4b5927e11d"

# Three parallel two-edge branches whose vertex names collide with the names
# the power generates for copy interiors: "0:a" and "1:a" at level 2, t's
# "0/0:a" at level 3, and s's "0:a~" with the first renaming of "0:a".
COLLIDING_BASE = """{"vertices": ["0:a~", "a", "0:a", "1:a", "0/0:a"],
 "edges": [["0:a~", "a", "1/2"], ["a", "0/0:a", "1/2"],
           ["0:a~", "0:a", "1/2"], ["0:a", "0/0:a", "1/2"],
           ["0:a~", "1:a", "1/2"], ["1:a", "0/0:a", "1/2"]],
 "s": "0:a~", "t": "0/0:a",
 "orientation": [["0:a~", "a"], ["a", "0/0:a"], ["0:a~", "0:a"],
                 ["0:a", "0/0:a"], ["0:a~", "1:a"], ["1:a", "0/0:a"]],
 "measure": ["1/6", "1/6", "1/6", "1/6", "1/6", "1/6"]}
"""
COLLIDING_POWER_3 = "5bf9ae0874b45bf3b6e781047deeef5dd88a62f8f95fbba6fad03338f2a24859"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("params,weights,digest", WEIGHTED_POWERS)
def test_weighted_power_is_byte_identical(tmp_path, monkeypatch,
                                          params, weights, digest):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--laakso", params, "--weights", weights,
                 "--out", "base.json"]) == EXIT_OK
    assert main(["power", "--base", "base.json", "--n", "4",
                 "--out", "p4.json"]) == EXIT_OK
    assert _sha256((tmp_path / "p4.json").read_bytes()) == digest

    # Every power edge weighs, and carries the measure of, the product of
    # the base values along its label.
    base = ser.loads((tmp_path / "base.json").read_text())
    doc = json.loads((tmp_path / "p4.json").read_text())
    power = ser.loads(json.dumps(doc))
    assert len(doc["edge_labels"]) == power.graph.edge_count == 5 ** 4
    for i, text in enumerate(doc["edge_labels"]):
        label = [int(e) for e in text.split("/")]
        assert power.graph.weights[i] == math.prod(base.graph.weights[e] for e in label)
        assert power.nu[i] == math.prod(base.nu[e] for e in label)


def test_pipeline_0240_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--laakso", "0,2,4,0", "--uniform-weights",
                 "--out", "l.json"]) == EXIT_OK
    assert main(["pipeline", "--graph", "l.json", "--out", "r.json"]) == EXIT_OK
    assert _sha256((tmp_path / "r.json").read_bytes()) == PIPELINE_0240


def test_colliding_names_power_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.json").write_text(COLLIDING_BASE)
    assert main(["power", "--base", "base.json", "--n", "3",
                 "--out", "p3.json"]) == EXIT_OK
    data = (tmp_path / "p3.json").read_bytes()
    names = json.loads(data)["vertices"]
    assert [v for v in names if "~" in v] == ["0:a~", "0:a~~", "1:a~", "0/0:a~"]
    assert _sha256(data) == COLLIDING_POWER_3
