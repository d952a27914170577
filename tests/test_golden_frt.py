"""Golden outputs of the dominating-tree layers, recorded before the exact
tree, metric and cycle kernels moved to integer arithmetic.  Any change to
a sampled tree, a tree distance, a ball test, the domination scale or a
cycle witness shows up here as a changed digest or value."""

import contextlib
import hashlib
import io
import random

import pytest

import slashpow as sp
from helpers import diamond
from slashpow import serialization as ser
from slashpow.cli import EXIT_OK, main
from slashpow.embeddings import frt_tree, truncated_distortion_bound

EMBED_FRT_D3_STDOUT = "232a81cdbe8841058879c614f83a5902191d45b88cab7224d97cf446c938d23e"
EMBED_FRT_D3_CSV = "e70f30f09b37119121e37b0ad8572310431f0c92adcd4b545361c74cf8292fd8"

# seed -> (value, bound, cycle witnesses) on diamond^2
THM41_D2 = {seed: ("3/4", "3/32", (0,) * 8 + (2,) * 8) for seed in range(4)}
# seed -> sha256 of the sampled tree and its vertex map
TREE_D2 = {
    0: "8bf158a53ea7e40322eae4be17b7a193a6748010ad4bf62ee2b022405a11c8a8",
    1: "73beceb11d74cad1c73eb0db0e27ccd84aa714bd8348f72e68817f967d3a7170",
    2: "ea772bfbc9da77c65ec23216e5ef5c2d9b2b052fced25b0b1a754e83b090c1e7",
    3: "1e42fd0edd8f9ad5e553d5d9911e643765a99602be9af514752cb594bef294b5",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(tree, tmap) -> str:
    text = repr((tree.edges, [ser.fraction_str(w) for w in tree.weights],
                 tree.steiner, tmap.vertex_map))
    return _sha256(text.encode())


def test_embed_frt_d3_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--laakso", "0,2,2,0", "--uniform-weights",
                 "--out", "d.json"]) == EXIT_OK
    assert main(["power", "--base", "d.json", "--n", "3",
                 "--out", "d3.json"]) == EXIT_OK
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["embed-frt", "--graph", "d3.json", "--seed", "1",
                     "--samples", "8", "--report", "r.csv"]) == EXIT_OK
    assert _sha256(out.getvalue().encode()) == EMBED_FRT_D3_STDOUT
    assert _sha256((tmp_path / "r.csv").read_bytes()) == EMBED_FRT_D3_CSV


@pytest.mark.parametrize("seed", sorted(THM41_D2))
def test_truncated_bound_d2_is_unchanged(seed):
    power = sp.slash_power(diamond(), 2)
    tree, tmap = frt_tree(power.metric, random.Random(seed))
    res = truncated_distortion_bound(power, tree, tmap)
    value, bound, witnesses = THM41_D2[seed]
    assert _tree_digest(tree, tmap) == TREE_D2[seed]
    assert (ser.fraction_str(res.value), ser.fraction_str(res.bound)) == (value, bound)
    assert res.holds
    assert res.cycle_witnesses == witnesses
