"""Golden outputs of the slash-power layer, recorded before each distinct
weight and measure value of a power came to be built, checked and parsed
once.  A changed weight, measure, vertex name, edge order or label shows up
here as a changed digest; the product check ties every power value to the
base values along its edge label.  Every exit of the pipeline, and the
oracle's JSON report, has a digest of its own as well."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from helpers import diamond, laakso0230, laakso1221, theta, three_branch
from slashpow import build_cycle, build_laakso
from slashpow import serialization as ser
from slashpow.cli import EXIT_OK, main
from slashpow.constructions import MeasuredGraph

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


def four_cycle():
    return build_cycle([F(1, 2)] * 2, [F(1, 2)] * 2)


def cycle1200():
    return build_cycle([F(1, 600)] * 600, [F(1, 600)] * 600)


def big_weight_diamond():
    return build_laakso((0, 2, 2, 0), branch1=[F(3, 4), F(1, 4)],
                        branch2=[F(3, 4), F(1, 4)])


# (input, sha256 of `pipeline --out` on it), one per pipeline exit: the
# diamond and both normalized cycles exit at N = 1; theta and (0,2,3,0)
# reach N = 6; three_branch and the big-weight diamond are squared too.
PIPELINE_GOLDENS = {
    "diamond": (diamond, "c96a1b826ce40c4569698a0cd428c8015f4573524d0c2a00fd6bb7f2a03e937c"),
    "normalized 4-cycle": (
        four_cycle, "e1ce26d83bca245165cc6fc55d2b8f254490456de950bbb5c3b68cb24846b650"),
    "normalized 1200-cycle": (
        cycle1200, "30962aab148b6d73e23e71a481356a3f47ee6af25d2dde2f508f7f59df409271"),
    "theta": (theta, "958eabc977a224903bc6e37d6242115497d5d6477e09833b7a706f2fab80105d"),
    "0,2,3,0": (laakso0230, "fab0683120ce129cb45f2dbe2f0df16b2808fe6ea3cd6bf9bd68e4be9d42e160"),
    "three_branch": (
        three_branch, "d91f4ad0d0094ce76c549acdc46b72ee98a741bac484c3df5db0bbb59a3349fd"),
    "big-weight diamond": (
        big_weight_diamond, "ee7212963b850fd14d0ff1d42017c154bede8bb394e3009a6c851b5cda82fbc3"),
}
# (input, sha256 of `oracle --json` stdout on it)
ORACLE_GOLDENS = {
    "diamond": (diamond, "04fa8780524fdc8caf109da718ca047e707432082e6bc3c3bc2125686c38821a"),
    "1,2,2,1": (laakso1221, "d7a63fcb3218c479cc0d7414c9155a1aa87a164b161f7bc884e954c580c9b694"),
}


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


def test_pipeline_0240_fits_a_2000_edge_cap(tmp_path, monkeypatch):
    # The extraction's power (1,728 edges) is built; G^6 (46,656 edges) is
    # read by labels.
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "2000")
    test_pipeline_0240_is_byte_identical(tmp_path, monkeypatch)


def renamed_s_0230():
    """Uniform (0,2,3,0) with s named "0:y1_1", the name a power gives
    y1_1 in the copy of edge 0 unless it is taken: there it is "0:y1_1~"."""
    mg = laakso0230()
    names = ("0:y1_1",) + mg.graph.names[1:]
    return MeasuredGraph(graph=dataclasses.replace(mg.graph, names=names), nu=mg.nu)


# (`build --cycle` argument or input, sha256 of `pipeline --out` on it),
# recorded when the pipeline still built the whole of G^N: at the default
# edge cap the 2+9 cycle's G^6 (1,771,561 edges) did not fit, and its
# digest was recorded under SLASHPOW_MAX_EDGES=2000000.  The 3+8 cycle's
# was recorded with G^6 read by labels; its isometry check, on a 3,888-edge
# subgraph, is the largest the suite runs.
LABELED_PIPELINE_GOLDENS = {
    "2+7 cycle": ("1/2,1/2;" + "1/7," * 7,
                  "1aa6fdb5b5094a35f3048d075d8c0eba1b6e249a5a5a573ef5479163fb70ec62"),
    "2+9 cycle": ("1/2,1/2;" + "1/9," * 9,
                  "3510dc3c1afd2b6d92132764b6f2b18c143dcded3c7918912937155a0480cba7"),
    "3+8 cycle": ("1/3,1/3,1/3;" + "1/8," * 8,
                  "5c7e7fb29e7d044737f2db4daf83384f7093f022282c5bfe18162f0d50303881"),
    "0,2,3,0 with s named 0:y1_1": (
        renamed_s_0230, "f860e513df1ff655fac156e4d4127ef1663753f3d0483166bb9b54cd4ac1851c"),
}


@pytest.mark.parametrize("source,digest", LABELED_PIPELINE_GOLDENS.values(),
                         ids=LABELED_PIPELINE_GOLDENS)
def test_pipeline_reading_g_n_by_labels_is_byte_identical(tmp_path, monkeypatch,
                                                          source, digest):
    monkeypatch.chdir(tmp_path)
    if isinstance(source, str):
        assert main(["build", "--cycle", source, "--out", "g.json"]) == EXIT_OK
    else:
        (tmp_path / "g.json").write_text(ser.dumps(source()))
    assert main(["pipeline", "--graph", "g.json", "--out", "r.json"]) == EXIT_OK
    data = (tmp_path / "r.json").read_bytes()
    assert _sha256(data) == digest
    if not isinstance(source, str):
        assert "0:y1_1~" in json.loads(data)["subgraph"]["vertices"]


@pytest.mark.parametrize("make,digest", PIPELINE_GOLDENS.values(), ids=PIPELINE_GOLDENS)
def test_pipeline_is_byte_identical(tmp_path, monkeypatch, make, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(ser.dumps(make()))
    assert main(["pipeline", "--graph", "g.json", "--out", "r.json"]) == EXIT_OK
    assert _sha256((tmp_path / "r.json").read_bytes()) == digest


@pytest.mark.parametrize("make,digest", ORACLE_GOLDENS.values(), ids=ORACLE_GOLDENS)
def test_oracle_json_is_byte_identical(tmp_path, capsys, make, digest):
    graph = tmp_path / "g.json"
    graph.write_text(ser.dumps(make()))
    assert main(["oracle", "--graph", str(graph), "--json"]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == digest


def test_colliding_names_power_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.json").write_text(COLLIDING_BASE)
    assert main(["power", "--base", "base.json", "--n", "3",
                 "--out", "p3.json"]) == EXIT_OK
    data = (tmp_path / "p3.json").read_bytes()
    names = json.loads(data)["vertices"]
    assert [v for v in names if "~" in v] == ["0:a~", "0:a~~", "1:a~", "0/0:a~"]
    assert _sha256(data) == COLLIDING_POWER_3
