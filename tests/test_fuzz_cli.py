"""Fuzzing of the command line, in process.

Whatever the arguments or the graph file, `main` must exit with a
documented code (0, 2, 3, 4 or 5; argparse usage errors exit 2 through
SystemExit), print no traceback, and print the same output for the same
arguments.  Small SLASHPOW_MAX_EDGES and SLASHPOW_MAX_PATHS keep every run
short.  The working directory is a scratch directory, because fuzzed
arguments may name output files.

The runs are derandomized so that the suite gives the same verdict on every
run; the @example inputs pin inputs that once crashed or hung.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import wide_path_doc
from slashpow.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
CAPS = {"SLASHPOW_MAX_EDGES": "64", "SLASHPOW_MAX_PATHS": "64"}

COMMANDS = ("build", "power", "count-cycles", "find-balanced", "pipeline",
            "embed-frt", "oracle", "verify", "export-dot")
# Values per flag.  --samples stays small: embed-frt draws every sample it
# is asked for up to the edge cap, and each one takes time.  --suite names
# no real suite, since each suite runs for seconds.
VALUES = {
    "--path": ("1,2,1", "1", "0", "-1", "1/0", "x", "", "1e999999", "1e9999999999"),
    "--cycle": ("1,1;1,1", "1;2", "1;1", "1,1", ";"),
    "--laakso": ("0,2,2,0", "0,2,3,0", "0,2,2", "a,b,c,d", "1000000000,2,2,0"),
    "--weights": (";1/2,1/2;1/3,1/3,1/3;", ";1;1;", "x"),
    "--base": ("diamond.json", "edge.json", "deep.json", "latin.json", "wide.json",
               "absent.json"),
    "--graph": ("diamond.json", "edge.json", "deep.json", "latin.json", "wide.json",
                "absent.json"),
    "--n": ("1", "2", "3", "0", "-1", "13", "10000", "1000000000000", "x"),
    "--params": ("0,2,2,0", "1,2,2,1", "0,2,3,0", "0,2,2", "1000000000,2,2,0"),
    "--edge-label": ("0/1", "1/1", "0", "a/b", "9/9"),
    "--seed": ("0", "1", "-5", "x"),
    "--samples": ("1", "2", "0", "-1", "x"),
    "--report": ("r.csv",),
    "--suite": ("nope",),
    "--out": ("out.json",),
}
SWITCHES = ("--uniform-weights", "--json", "-h")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["build", "--laakso", "0,2,2,0", "--uniform-weights",
                 "--out", str(root / "diamond.json")]) == 0
    assert main(["build", "--path", "1", "--out", str(root / "edge.json")]) == 0
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (root / "latin.json").write_bytes(b'{"vertices": ["\xe9"]}')
    (root / "wide.json").write_text(json.dumps(wide_path_doc()))
    return root


def _run(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in CAPS.items():
            mp.setenv(name, value)
        mp.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(workdir, argv):
    code, out, err = _run(workdir, argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert _run(workdir, argv)[:2] == (code, out), argv


option = st.one_of(
    st.sampled_from(sorted(VALUES)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(VALUES[flag]))),
    st.sampled_from(SWITCHES).map(lambda s: (s,)),
    st.text(max_size=6).map(lambda s: (s,)),
)
argvs = st.tuples(st.sampled_from(COMMANDS), st.lists(option, max_size=5)).map(
    lambda cmd_opts: [cmd_opts[0]] + [tok for opt in cmd_opts[1] for tok in opt])


@given(argv=argvs)
@example(argv=["power", "--base", "diamond.json", "--n", "10000"])
@example(argv=["power", "--base", "diamond.json", "--n", "1000000000000"])
@example(argv=["power", "--base", "edge.json", "--n", "20000"])
@example(argv=["build", "--path", "1e9999999999"])
@example(argv=["build", "--path", "1e999999"])
@example(argv=["oracle", "--graph", "deep.json"])
@example(argv=["export-dot", "--graph", "latin.json"])
@example(argv=["find-balanced", "--params", "1000000000,2,2,0"])
@example(argv=["count-cycles", "--params", "0,2,2,0", "--n", "1000000000000"])
@example(argv=["embed-frt", "--graph", "diamond.json", "--seed", "1",
               "--samples", "1000000000000"])
@example(argv=["embed-frt", "--graph", "wide.json", "--seed", "1", "--samples", "2",
               "--report", "r.csv", "--json"])
@settings(max_examples=150, derandomize=True)
def test_fuzz_argv(workdir, argv):
    _check(workdir, argv)


@pytest.mark.parametrize("argv, code", [
    (["power", "--base", "wide.json", "--n", "3"], 3),  # not normalized
    (["pipeline", "--graph", "wide.json"], 3),
    (["embed-frt", "--graph", "wide.json", "--seed", "1", "--samples", "2"], 0),
    (["embed-frt", "--graph", "wide.json", "--seed", "1", "--samples", "2",
      "--report", "r.csv"], 4),
    (["oracle", "--graph", "wide.json", "--json"], 0),
    (["export-dot", "--graph", "wide.json"], 0),
])
def test_every_graph_command_on_wide_denominators(workdir, argv, code):
    _check(workdir, argv)
    assert _run(workdir, argv)[0] == code


rationals = st.sampled_from(["1/2", "1", "1/4", "0", "-1", "1/0", "x",
                             "1e999999", "1e9999999999", 1, 0.5, None, []])
names = st.lists(st.sampled_from(["s", "a", "b", "t"]), min_size=2, max_size=4,
                 unique=True)


@st.composite
def graph_docs(draw):
    """Small graph documents, valid often enough to reach every command."""
    vs = draw(names)
    vertex = st.sampled_from(vs + ["zz", 0, ["s"]])
    pairs = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          min_size=1, max_size=5))
    weight = draw(st.one_of(st.just("1/2"), rationals))
    edges = [[u, v, draw(st.one_of(st.just(weight), rationals))] for u, v in pairs]
    doc = {"vertices": vs, "edges": edges, "s": vs[0], "t": vs[-1],
           "orientation": [[u, v] for u, v in pairs]}
    if draw(st.booleans()):
        doc["measure"] = [f"1/{len(edges)}"] * len(edges)
        if draw(st.booleans()):
            doc["measure"][0] = draw(rationals)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc[key] = draw(st.one_of(vertex, rationals, st.just({})))
    return json.dumps(doc).encode()


docs = st.one_of(graph_docs(), st.binary(max_size=40),
                 st.text(max_size=40).map(str.encode))
GRAPH_COMMANDS = (("export-dot",), ("oracle", "--json"), ("pipeline",),
                  ("embed-frt", "--seed", "1", "--samples", "2"))


@given(doc=docs, command=st.sampled_from(GRAPH_COMMANDS))
@example(doc=b"[" * 100_000 + b"]" * 100_000, command=("oracle", "--json"))
@example(doc=b'{"vertices": ["\xe9"]}', command=("export-dot",))
@example(doc=b"1" * 5000, command=("export-dot",))
@example(doc=json.dumps({"vertices": ["s", "t"], "edges": [["s", "t", "1e999999"]],
                         "s": "s", "t": "t", "orientation": [["s", "t"]]}).encode(),
         command=("export-dot",))
@example(doc=json.dumps({"vertices": ["s", "t"], "edges": [[["s"], "t", "1"]],
                         "s": "s", "t": "t", "orientation": [["s", "t"]]}).encode(),
         command=("export-dot",))
@settings(max_examples=150, derandomize=True)
def test_fuzz_graph_documents(workdir, doc, command):
    (workdir / "doc.json").write_bytes(doc)
    _check(workdir, [*command, "--graph", "doc.json"])
    _check(workdir, ["power", "--base", "doc.json", "--n", "2"])
