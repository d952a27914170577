import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import diamond, dumps_document, wide_path_doc
from slashpow import serialization as ser
from slashpow import verify
from slashpow.cli import EXIT_CAP, EXIT_INPUT, EXIT_IO, EXIT_OK, EXIT_VERIFY, _write, main
from slashpow.constructions import (LaaksoParams, MeasuredGraph, laakso_measure,
                                    uniform_laakso)
from slashpow.core import StGraph
from slashpow.embeddings import distortion
from slashpow.laakso import balanced_laakso_pipeline, find_balanced_laakso
from slashpow.slash import slash_power


@pytest.fixture()
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    assert main(["build", "--laakso", "0,2,2,0", "--uniform-weights",
                 "--out", str(path)]) == EXIT_OK
    return path


def test_build_path(capsys):
    assert main(["build", "--path", "1,2,1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["measure"] == ["1/4", "1/2", "1/4"]


def test_build_cycle_und_laakso(tmp_path):
    out = tmp_path / "c.json"
    assert main(["build", "--cycle", "1,1;1,1", "--out", str(out)]) == EXIT_OK
    mg = ser.loads(out.read_text())
    assert isinstance(mg, MeasuredGraph)
    assert set(mg.nu) == {F(1, 4)}

    out2 = tmp_path / "l.json"
    assert main(["build", "--laakso", "0,2,3,0",
                 "--weights", ";1/2,1/2;1/3,1/3,1/3;",
                 "--out", str(out2)]) == EXIT_OK
    mg2 = ser.loads(out2.read_text())
    assert sum(mg2.nu) == 1


def test_build_argument_errors():
    assert main(["build", "--path", "1", "--cycle", "1;1"]) == EXIT_INPUT
    assert main(["build", "--laakso", "0,2,2,0"]) == EXIT_INPUT
    assert main(["build", "--cycle", "1;2"]) == EXIT_INPUT  # unbalanced arcs
    assert main(["build", "--path", "0"]) == EXIT_INPUT


def test_power_roundtrip(tmp_path, diamond_file):
    out = tmp_path / "p2.json"
    assert main(["power", "--base", str(diamond_file), "--n", "2",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["edges"]) == 16
    assert len(doc["vertices"]) == 12
    assert len(doc["edge_labels"]) == 16
    assert doc["edge_labels"][0].count("/") == 1
    back = ser.loads(json.dumps(doc))
    assert sum(back.nu) == 1


def test_power_of_a_restricted_base_is_restricted(tmp_path, diamond_file):
    # The product measure vanishes wherever a factor's does, and still sums
    # to 1, so its zeros are legal.
    doc = json.loads(diamond_file.read_text())
    doc["measure"], doc["restricted"] = ["1/2", "1/2", "0", "0"], True
    base, out = tmp_path / "r.json", tmp_path / "r2.json"
    base.write_text(json.dumps(doc))
    assert main(["power", "--base", str(base), "--n", "2", "--out", str(out)]) == EXIT_OK
    power = json.loads(out.read_text())
    assert power["restricted"] is True and power["measure"].count("0/1") == 12
    assert main(["power", "--base", str(out), "--n", "1"]) == EXIT_OK


def test_power_cap_exit(tmp_path, diamond_file, monkeypatch):
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "10")
    assert main(["power", "--base", str(diamond_file), "--n", "2"]) == EXIT_CAP


def test_power_exponent_is_capped_without_building_it(tmp_path, capsys,
                                                     diamond_file, monkeypatch):
    # 4**10000 would not even render in an error message, and 4**(10**12)
    # would not fit in memory; both are refused at once.
    for n in ("10000", "1000000000000"):
        assert main(["power", "--base", str(diamond_file), "--n", n]) == EXIT_CAP
        err = capsys.readouterr().err
        assert "edge cap" in err and "Traceback" not in err and len(err) < 200
    # A one-edge base never passes the cap by its size, 1**n; every level
    # still holds an edge, so n itself is capped.
    edge = tmp_path / "edge.json"
    assert main(["build", "--path", "1", "--out", str(edge)]) == EXIT_OK
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "50")
    assert main(["power", "--base", str(edge), "--n", "50", "--out",
                 str(tmp_path / "p.json")]) == EXIT_OK
    assert main(["power", "--base", str(edge), "--n", "20000"]) == EXIT_CAP
    assert "edge cap 50" in capsys.readouterr().err


def test_power_whose_weights_multiply_past_the_digit_limit_is_a_cap(tmp_path, capsys):
    # Each weight prints, but the cube's weights 1/q^3 have 4501-digit
    # denominators, past Python's default limit of 4300: refused with the cap
    # exit code before any file is opened, not an int-to-str ValueError.
    q = 10 ** 1500 + 1
    base = tmp_path / "base.json"
    base.write_text(json.dumps({
        "vertices": ["s", "a", "t"],
        "edges": [["s", "a", f"1/{q}"], ["a", "t", f"{q - 1}/{q}"]],
        "orientation": [["s", "a"], ["a", "t"]], "s": "s", "t": "t",
        "measure": ["1/2", "1/2"]}))
    out = tmp_path / "p.json"
    assert main(["power", "--base", str(base), "--n", "3",
                 "--out", str(out)]) == EXIT_CAP
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "decimal digits" in err
    assert not out.exists()
    # The square still prints.
    assert main(["power", "--base", str(base), "--n", "2",
                 "--out", str(out)]) == EXIT_OK


def test_embed_frt_report_past_the_digit_limit_is_a_cap(tmp_path, capsys):
    # The metric's scale is the product of three coprime 1,501-digit
    # denominators, so a distance prints with a 4,503-digit denominator, past
    # Python's default limit of 4300: refused before the report is opened.
    graph, report = tmp_path / "p3.json", tmp_path / "r.csv"
    graph.write_text(json.dumps(wide_path_doc()))
    argv = ["embed-frt", "--graph", str(graph), "--seed", "1", "--samples", "2"]
    assert main([*argv, "--report", str(report), "--json"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "decimal digits" in err
    assert not report.exists()
    # Without a report only the worst stretch prints, and it fits.
    assert main([*argv, "--json"]) == EXIT_OK
    # At 1,400-digit denominators a distance's denominator has about 4,200
    # digits, under the limit, and every row prints.
    graph.write_text(json.dumps(wide_path_doc(1400)))
    assert main([*argv, "--report", str(report)]) == EXIT_OK
    assert len(report.read_text().splitlines()) == 7


def test_oversized_rationals_are_bad_input(tmp_path, capsys):
    for raw in ("1e9999999999", "1e999999"):
        assert main(["build", "--path", raw]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "digits" in err and "Traceback" not in err
        graph = tmp_path / "g.json"
        graph.write_text(
            '{"vertices": ["a", "b"], "edges": [["a", "b", "%s"]],'
            ' "s": "a", "t": "b", "orientation": [["a", "b"]]}' % raw)
        assert main(["export-dot", "--graph", str(graph)]) == EXIT_INPUT
    assert main(["build", "--path", "1,x"]) == EXIT_INPUT
    assert "bad rational 'x'" in capsys.readouterr().err


def test_malformed_files_are_bad_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"vertices": ["\xe9"]}')  # Latin-1, not UTF-8
    for path in (deep, latin):
        for command in ("oracle", "export-dot"):
            assert main([command, "--graph", str(path)]) == EXIT_INPUT
            assert "Traceback" not in capsys.readouterr().err


def test_count_cycles(capsys):
    assert main(["count-cycles", "--params", "1,2,2,1", "--n", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "16"
    assert main(["count-cycles", "--params", "0,2,2,0", "--n", "3",
                 "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"count": "4096", "cycle_edges": 16}
    assert main(["count-cycles", "--params", "0,2,3,0", "--n", "2"]) == EXIT_INPUT


def test_find_balanced(capsys):
    assert main(["find-balanced", "--params", "0,2,3,0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n0"] == 3 and doc["i"] == 0
    assert doc["params"] == [0, 12, 12, 0]
    assert len(doc["subgraph"]["edges"]) == 24


def test_pipeline_command(capsys, diamond_file):
    assert main(["pipeline", "--graph", str(diamond_file)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1 and doc["c0"] == "2/1"


def test_pipeline_ignores_a_restricted_input_measure(tmp_path):
    # The pipeline never reads its input's measure: a restricted one gives
    # the same result file as the uniform one.
    plain, restricted = tmp_path / "l.json", tmp_path / "r.json"
    assert main(["build", "--laakso", "0,2,4,0", "--uniform-weights",
                 "--out", str(plain)]) == EXIT_OK
    doc = json.loads(plain.read_text())
    doc["measure"] = ["1/2", "1/2"] + ["0"] * 4
    doc["restricted"] = True
    restricted.write_text(json.dumps(doc))
    results = []
    for graph in (plain, restricted):
        out = tmp_path / f"result-{graph.stem}.json"
        assert main(["pipeline", "--graph", str(graph), "--out", str(out)]) == EXIT_OK
        results.append(out.read_bytes())
    assert results[0] == results[1]


def test_oracle_command(capsys, diamond_file):
    assert main(["oracle", "--graph", str(diamond_file), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["steiner_free"] == "3/2"
    assert doc["general"] == "3/16"


def test_oracle_bound_past_the_digit_limit_is_a_cap(tmp_path, capsys):
    # Every weight of the cycle prints (4,300-digit denominators), but the
    # general bound, value/8, has a 4,301-digit denominator: serialization's
    # fraction_str refuses it with the cap exit code and one error line.
    q = 2 * 10 ** 4299 + 2
    graph = tmp_path / "c.json"
    assert main(["build", "--cycle", f"1/{q},{q - 1}/{q};1/2,1/2",
                 "--out", str(graph)]) == EXIT_OK
    for extra in ([], ["--json"]):
        assert main(["oracle", "--graph", str(graph), *extra]) == EXIT_CAP
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert len(err.splitlines()) == 1 and "decimal digits" in err


def test_embed_frt_sample_cap_counts_every_level(tmp_path, capsys, monkeypatch):
    # On s-a-t with weights 10^-300 and 1 - 10^-300 a tree has about 1,000
    # vertices, not 2n - 1 = 5: each is counted as 1 + 3 * 997 = 2,992.
    q = 10 ** 300
    graph = tmp_path / "p.json"
    assert main(["build", "--path", f"1/{q},{q - 1}/{q}", "--out", str(graph)]) == EXIT_OK
    monkeypatch.setenv("SLASHPOW_MAX_EDGES", "2992")
    argv = ["embed-frt", "--graph", str(graph), "--seed", "1"]
    assert main([*argv, "--samples", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--samples", "2"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert err == "error: 2 trees of up to 2992 vertices exceed edge cap 2992\n"


def test_embed_frt_reports_are_byte_identical(tmp_path, diamond_file):
    r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for r in (r1, r2):
        assert main(["embed-frt", "--graph", str(diamond_file),
                     "--seed", "42", "--samples", "8",
                     "--report", str(r)]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()
    header = r1.read_text().splitlines()[0]
    assert header == "pair,d_X,E_dT,stretch,stretch_decimal"


def test_export_dot(capsys, diamond_file):
    assert main(["export-dot", "--graph", str(diamond_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("->") == 4


@pytest.fixture()
def document_commands(tmp_path, diamond_file):
    """(argv, the library's text for it) for each command that writes a
    document; the DOT input has a non-ASCII vertex name."""
    d = ser.loads(diamond_file.read_text())
    power = slash_power(d, 3)
    witness = find_balanced_laakso(uniform_laakso(LaaksoParams(0, 2, 3, 0)))
    result = balanced_laakso_pipeline(d)
    accent = StGraph(names=("s", "té"), edges=((0, 1),), weights=(F(1),), s=0, t=1)
    accent_file = tmp_path / "accent.json"
    accent_file.write_text(ser.dumps(accent))
    return [
        (["build", "--laakso", "0,2,2,0", "--uniform-weights"], ser.dumps(d)),
        (["power", "--base", str(diamond_file), "--n", "3"],
         ser.dumps(power.graph, power.label_strings())),
        (["find-balanced", "--params", "0,2,3,0"], dumps_document({
            "n0": witness.n0, "i": witness.i,
            "params": list(witness.subgraph.structure.params.as_tuple()),
            "subgraph": witness.subgraph.graph})),
        (["pipeline", "--graph", str(diamond_file)], dumps_document({
            "n": result.n, "c0": ser.fraction_str(result.c0),
            "power_edges": result.power.edge_count,
            "support_edges": sum(1 for x in result.measure.nu if x),
            "subgraph": laakso_measure(result.subgraph.graph,
                                       result.subgraph.structure)})),
        (["export-dot", "--graph", str(accent_file)], ser.export_dot(accent)),
    ]


def _ended(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


def test_outputs_are_the_library_text(tmp_path, capsys, document_commands):
    # Written piece by piece, the file holds the text the library joins,
    # and an in-memory stdout the same text ending in a newline.
    out = tmp_path / "out"
    for argv, text in document_commands:
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == text.encode("utf-8")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == _ended(text)


def test_text_outputs_are_utf8_whatever_the_stdout_encoding(tmp_path, document_commands):
    env = dict(os.environ, PYTHONIOENCODING="ascii",
               PYTHONPATH=str(Path(ser.__file__).resolve().parents[1]))
    out = tmp_path / "out"
    for argv, text in document_commands:
        for extra, stdout in (([], _ended(text)), (["--out", str(out)], "")):
            run = subprocess.run([sys.executable, "-m", "slashpow.cli", *argv, *extra],
                                 capture_output=True, env=env, timeout=60)
            assert (run.returncode, run.stderr) == (EXIT_OK, b"")
            assert run.stdout == stdout.encode("utf-8")
        assert out.read_bytes() == text.encode("utf-8")
    assert b"t\xc3\xa9" in out.read_bytes()  # the DOT file, written last


def test_power_document_is_written_without_joining_it(tmp_path):
    # diamond^7's document is 3.06 MB.  Joined into one string before it is
    # written, the write peaks near 3x the file (9.0 MB traced); written
    # piece by piece, below 2x (5.2 MB).
    power = slash_power(diamond(), 7)
    labels = power.label_strings()
    out = tmp_path / "d7.json"
    tracemalloc.start()
    try:
        _write(str(out), ser.graph_pieces(power.graph, labels))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 3_000_000
    assert peak < 2 * out.stat().st_size


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("n", ["1", "3"])
def test_full_device_is_an_io_failure(diamond_file, n):
    # A write that fails must fail inside the command (exit 5, one line),
    # not in the interpreter's last flush of a buffered stdout (exit 120).
    env = dict(os.environ, PYTHONPATH=str(Path(ser.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "slashpow.cli", "power", "--base",
            str(diamond_file), "--n", n]
    with open("/dev/full", "wb") as full:
        for extra, stdout in (([], full), (["--out", "/dev/full"], subprocess.PIPE)):
            run = subprocess.run(argv + extra, stdout=stdout, stderr=subprocess.PIPE,
                                 env=env, timeout=60)
            assert run.returncode == EXIT_IO
            assert run.stderr.decode().splitlines() == [
                "error: [Errno 28] No space left on device"]


def test_lone_surrogate_names_exit_3_before_any_output(tmp_path, capsys):
    # "x\ud800" is valid JSON but no valid Unicode: no UTF-8 output can hold it.
    graph = tmp_path / "g.json"
    graph.write_text(
        '{"vertices": ["s", "x\\ud800"], "edges": [["s", "x\\ud800", "1"]],'
        ' "s": "s", "t": "x\\ud800", "orientation": [["s", "x\\ud800"]],'
        ' "measure": ["1"]}')
    out = tmp_path / "out"
    for argv in (["export-dot", "--graph", str(graph), "--out", str(out)],
                 ["power", "--base", str(graph), "--n", "2", "--out", str(out)],
                 ["embed-frt", "--graph", str(graph), "--seed", "1",
                  "--samples", "2", "--report", str(out)]):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "not valid Unicode" in err and "Traceback" not in err
        assert not out.exists()


def test_exit_codes_for_bad_inputs(tmp_path, capsys, diamond_file):
    missing = tmp_path / "absent.json"
    assert main(["oracle", "--graph", str(missing)]) == EXIT_IO
    out = tmp_path / "absent" / "p.json"
    assert main(["power", "--base", str(diamond_file), "--n", "1",
                 "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err.count("error: ") == 2
    assert not out.parent.exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["oracle", "--graph", str(bad)]) == EXIT_INPUT

    nomeasure = tmp_path / "plain.json"
    nomeasure.write_text(
        '{"vertices": ["a", "b"], "edges": [["a", "b", "1/1"]],'
        ' "s": "a", "t": "b", "orientation": [["a", "b"]]}')
    assert main(["oracle", "--graph", str(nomeasure)]) == EXIT_INPUT
    # The same file is fine for commands that ignore the measure.
    assert main(["export-dot", "--graph", str(nomeasure)]) == EXIT_OK
    assert main(["embed-frt", "--graph", str(nomeasure), "--seed", "1",
                 "--samples", "2"]) == EXIT_OK
    # embed-frt prints the same summary with and without a measure.
    doc = json.loads(diamond_file.read_text())
    del doc["measure"]
    nomeasure.write_text(json.dumps(doc))
    capsys.readouterr()
    summaries = []
    for graph in (diamond_file, nomeasure):
        assert main(["embed-frt", "--graph", str(graph), "--seed", "3",
                     "--samples", "4", "--json"]) == EXIT_OK
        summaries.append(capsys.readouterr().out)
    assert summaries[0] == summaries[1]


def test_schema_flags_and_booleans_exit_3(tmp_path, diamond_file):
    doc = json.loads(diamond_file.read_text())
    bad = tmp_path / "bad.json"
    # A string flag does not make a measure restricted.
    doc["measure"], doc["restricted"] = ["1/2", "1/2", "0", "0"], "false"
    bad.write_text(json.dumps(doc))
    assert main(["oracle", "--graph", str(bad)]) == EXIT_INPUT
    # A JSON boolean is not a weight.
    del doc["measure"], doc["restricted"]
    doc["edges"][0][2] = True
    bad.write_text(json.dumps(doc))
    assert main(["export-dot", "--graph", str(bad)]) == EXIT_INPUT


def test_verify_cor42(capsys):
    assert main(["verify", "--suite", "cor42", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["rows"]) == 4


def test_missing_witness_fails_the_thm41_suite(monkeypatch, capsys):
    # No edge reaches a witness threshold of 100 c0: every row fails and the
    # command exits 2, with no traceback.
    monkeypatch.setattr(distortion, "WITNESS_COEFF", F(100))
    monkeypatch.setattr(verify, "THM41_SEEDS", 3)
    assert main(["verify", "--suite", "thm41"]) == EXIT_VERIFY
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] diamond n=1: oracle-optimal tree: "
        "maximal cycle without a stretched edge",
        "[FAIL] diamond n=1: 3 seeded dominating trees: "
        "0/3 above (3/128) c0 n with cycle witnesses",
        "[FAIL] diamond n=2: 3 seeded dominating trees: "
        "0/3 above (3/128) c0 n with cycle witnesses"]


def test_missing_witness_fails_the_lemma31_suite(monkeypatch, capsys):
    # A tree table of zeros stretches no cycle edge, so every witness search
    # comes back empty and the command exits 2, with no traceback.
    def zeros(metric, *_):
        n = len(metric.rows)
        return 1, [[0] * n for _ in range(n)]

    monkeypatch.setattr(distortion, "_expansive_table", zeros)
    monkeypatch.setattr(verify, "LEMMA31_SIZES", (4, 5))
    assert main(["verify", "--suite", "lemma31"]) == EXIT_VERIFY
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] unit 4-cycle: all 16 labeled tree topologies: 0/16 witness edges found",
        "[FAIL] unit 5-cycle: all 125 labeled tree topologies: "
        "0/125 witness edges found"]


def test_count_cycles_too_long_to_print_is_a_cap(capsys):
    # 2^(4(2^12 - 1)) has 4931 decimal digits, past Python's default limit of
    # 4300: refused with the cap exit code instead of an int-to-str ValueError.
    for extra in ([], ["--json"]):
        assert main(["count-cycles", "--params", "0,2,2,0", "--n", "13",
                     *extra]) == EXIT_CAP
        err = capsys.readouterr().err
        assert "decimal digits" in err and "Traceback" not in err
    # The largest diamond power whose count still prints.
    assert main(["count-cycles", "--params", "0,2,2,0", "--n", "12"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == str(2 ** (4 * (2 ** 11 - 1)))


def test_count_cycles_edge_count_too_long_to_print_is_a_cap(capsys):
    # An off-cycle label 7200 deep counts 0 cycles, but the cycles of the
    # 7200th power have 2l 4^7199 edges, more digits than Python prints.
    label = "/".join(["0"] * 7200)
    assert main(["count-cycles", "--params", "1,2,2,1", "--n", "7200",
                 "--edge-label", label, "--json"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "decimal digits" in err and "Traceback" not in err
    assert main(["count-cycles", "--params", "1,2,2,1", "--n", "7200",
                 "--edge-label", label]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    # A power too large to build the count at all is refused the same way.
    assert main(["count-cycles", "--params", "1,2,2,1", "--n", "100000",
                 "--edge-label", "/".join(["0"] * 100000), "--json"]) == EXIT_CAP


def test_count_cycles_malformed_edge_label(capsys):
    assert main(["count-cycles", "--params", "0,2,2,0", "--n", "2",
                 "--edge-label", "a/b"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "bad edge label" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["SLASHPOW_MAX_EDGES", "SLASHPOW_MAX_PATHS"])
@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_malformed_env_caps(capsys, diamond_file, monkeypatch, name, raw):
    monkeypatch.setenv(name, raw)
    assert main(["pipeline", "--graph", str(diamond_file)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def _write_measured(tmp_path, edges, s, t, weight):
    """A graph file on vertices 0..max with the given weight on every edge
    and the uniform measure."""
    n = 1 + max(max(e) for e in edges)
    g = StGraph(names=tuple(f"v{i}" for i in range(n)), edges=tuple(edges),
                weights=(weight,) * len(edges), s=s, t=t)
    path = tmp_path / "g.json"
    path.write_text(ser.dumps(MeasuredGraph(
        graph=g, nu=(F(1, len(edges)),) * len(edges))))
    return str(path)


def test_pipeline_on_a_long_path_is_refused_without_recursion(capsys, tmp_path):
    k = 1500
    graph = _write_measured(tmp_path, [(i, i + 1) for i in range(k)], 0, k,
                            F(1, k))
    assert main(["pipeline", "--graph", graph]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input graph is a path" in err and "Traceback" not in err


def test_power_of_a_long_base_with_a_directed_cycle_is_refused(capsys, tmp_path):
    # v2 -> a -> v1 closes the directed cycle v1 v2 a off every s-t path.
    k = 1500
    a = k + 1
    edges = [(i, i + 1) for i in range(k)] + [(2, a), (a, 1)]
    graph = _write_measured(tmp_path, edges, 0, k, F(1, k))
    assert main(["power", "--base", graph, "--n", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "not a normalized geodesic" in err and "Traceback" not in err


def test_directed_cycle_validation_is_capped(capsys, tmp_path, monkeypatch):
    # 12 diamonds in series have 4096 s-t paths; the directed triangle
    # j0 -> x -> y -> j0 sends validation down the exhaustive search.
    k = 12
    edges = []
    for i in range(k):
        j, a, b, nxt = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(j, a), (a, nxt), (j, b), (b, nxt)]
    x, y = 3 * k + 1, 3 * k + 2
    edges += [(0, x), (x, y), (y, 0)]
    graph = _write_measured(tmp_path, edges, 0, 3 * k, F(1, 2 * k))
    monkeypatch.setenv("SLASHPOW_MAX_PATHS", "1000")
    assert main(["power", "--base", graph, "--n", "1"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "more than 1000 s-t paths" in err and "Traceback" not in err
