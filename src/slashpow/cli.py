"""Command-line interface.

Exit codes: 0 success, 2 verification failure, 3 bad input (values or
schema), 4 size cap exceeded, 5 I/O failure.  Pass/fail logic only ever
compares exact rationals; decimals are rendering sugar.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import serialization as ser
from .constructions import (
    LaaksoParams,
    MeasuredGraph,
    build_cycle,
    build_laakso,
    build_path,
    uniform_laakso,
)
from .core import StGraph, _str_digit_limit
from .embeddings import (
    STEINER_FACTOR,
    DistortionReport,
    distortion_report,
    frt_embed,
    oracle_min_expected_distortion,
)
from .errors import CapExceeded, InputError, SchemaError, SlashpowError
from .laakso import (
    balanced_laakso_pipeline,
    count_max_cycles,
    count_max_cycles_through_edge,
    find_balanced_laakso,
    max_cycle_edge_count,
    LaaksoBase,
)
from .slash import slash_power
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INPUT = 3
EXIT_CAP = 4
EXIT_IO = 5


def _parse_weights(raw: str) -> list[Fraction]:
    return [ser.parse_fraction(part) for part in raw.split(",") if part]


def _parse_params(raw: str) -> LaaksoParams:
    parts = raw.split(",")
    if len(parts) != 4:
        raise InputError("parameters must be k,l1,l2,m")
    try:
        return LaaksoParams(*(int(p) for p in parts))
    except ValueError as exc:
        raise InputError(f"bad parameters {raw!r}") from exc


def _newline_ended(pieces: Iterable[str]) -> Iterator[str]:
    """`pieces`, then a newline when they do not end in one."""
    last = ""
    for piece in pieces:
        if piece:
            last = piece
        yield piece
    if not last.endswith("\n"):
        yield "\n"


def _write(path: Optional[str], pieces: Iterable[str]) -> None:
    """Write `pieces` as UTF-8, joined a few thousand at a time, to a file
    or to stdout (ending in a newline), whatever encoding the locale or
    PYTHONIOENCODING gives stdout.

    Stdout is written through a file object of its own on the same file
    descriptor, closed here: a write that fails is an OSError of the
    command, and no piece is left in sys.stdout's buffer for the
    interpreter's last flush to fail on (exit 120)."""
    target, closefd = path, True
    if path is None:
        pieces = _newline_ended(pieces)
        sys.stdout.flush()
        try:
            target, closefd = sys.stdout.fileno(), False
        except io.UnsupportedOperation:  # an in-memory stream takes str as it is
            sys.stdout.writelines(pieces)
            return
    pieces = iter(pieces)
    with open(target, "w", encoding="utf-8", closefd=closefd) as fh:
        # the batch, not the joined text, ends the loop: pieces may be empty
        while batch := list(itertools.islice(pieces, 4096)):
            fh.write("".join(batch))


def _load_graph(path: str) -> StGraph | MeasuredGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IOError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    return ser.loads(text)


def _load_st_graph(path: str) -> StGraph:
    """The graph of a graph file, with or without a "measure" entry."""
    obj = _load_graph(path)
    return obj.graph if isinstance(obj, MeasuredGraph) else obj


def _need_measured(obj: StGraph | MeasuredGraph) -> MeasuredGraph:
    if isinstance(obj, MeasuredGraph):
        return obj
    raise SchemaError("this command needs a graph with a \"measure\" entry")


def _cmd_build(args: argparse.Namespace) -> int:
    given = [x for x in (args.path, args.cycle, args.laakso) if x]
    if len(given) != 1:
        raise InputError("choose exactly one of --path, --cycle, --laakso")
    if args.path:
        mg = build_path(_parse_weights(args.path))
    elif args.cycle:
        arcs = args.cycle.split(";")
        if len(arcs) != 2:
            raise InputError("--cycle wants two arcs: \"w,w;w,w\"")
        mg = build_cycle(_parse_weights(arcs[0]), _parse_weights(arcs[1]))
    else:
        params = _parse_params(args.laakso)
        if args.uniform_weights:
            mg = uniform_laakso(params)
        elif args.weights:
            segs = args.weights.split(";")
            if len(segs) != 4:
                raise InputError("--weights wants \"stem;branch1;branch2;tail\"")
            mg = build_laakso(params, *(_parse_weights(s) for s in segs))
        else:
            raise InputError("--laakso needs --uniform-weights or --weights")
    _write(args.out, ser.graph_pieces(mg))
    return EXIT_OK


def _cmd_power(args: argparse.Namespace) -> int:
    mg = _need_measured(_load_graph(args.base))
    power = slash_power(mg, args.n)
    _write(args.out, ser.graph_pieces(power.graph, power.label_strings()))
    return EXIT_OK


def _cmd_count_cycles(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    if args.edge_label:
        base = LaaksoBase.from_measured(uniform_laakso(params))
        try:
            label = tuple(int(x) for x in args.edge_label.split("/"))
        except ValueError as exc:
            raise InputError(f"bad edge label {args.edge_label!r}: "
                             "want slash-separated integers") from exc
        if len(label) != args.n:
            raise InputError(f"label depth {len(label)} does not match --n {args.n}")
        value = count_max_cycles_through_edge(base, label)
    else:
        value = count_max_cycles(params, args.n)
    if args.json:
        print(json.dumps({"count": str(value),
                          "cycle_edges": max_cycle_edge_count(params, args.n)}))
    else:
        print(value)
    return EXIT_OK


def _cmd_find_balanced(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    mg = uniform_laakso(params)
    witness = find_balanced_laakso(mg)
    _write(args.out, ser.document_pieces({
        "n0": witness.n0,
        "i": witness.i,
        "params": list(witness.subgraph.structure.params.as_tuple()),
        "subgraph": witness.subgraph.graph,
    }))
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    mg = _need_measured(_load_graph(args.graph))
    result = balanced_laakso_pipeline(mg)
    _write(args.out, ser.document_pieces({
        "n": result.n,
        "c0": ser.fraction_str(result.c0),
        "power_edges": result.power.edge_count,
        "support_edges": sum(1 for x in result.measure.nu if x),
        "subgraph": result.measure,
    }))
    return EXIT_OK


def _check_report_digits(report: DistortionReport) -> None:
    """Refuse with CapExceeded a report row with a numerator or denominator
    too long to print (see core._str_digit_limit)."""
    digits = _str_digit_limit()
    limit = 10 ** digits
    for row in report.rows:
        for x in row[2:]:
            if x.numerator >= limit or x.denominator >= limit:
                raise CapExceeded(
                    f"a report value has more than {digits} decimal digits "
                    "(the int-to-str limit, PYTHONINTMAXSTRDIGITS)")


def _cmd_embed_frt(args: argparse.Namespace) -> int:
    g = _load_st_graph(args.graph)
    emb = frt_embed(g.metric, seed=args.seed, samples=args.samples)
    report = distortion_report(g, emb)
    value = report.worst_stretch
    if args.report:
        _check_report_digits(report)
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair", "d_X", "E_dT", "stretch", "stretch_decimal"])
            for u, v, dx, mean, stretch in report.rows:
                writer.writerow([
                    f"{g.names[u]}|{g.names[v]}",
                    ser.fraction_str(dx), ser.fraction_str(mean),
                    ser.fraction_str(stretch), f"{float(stretch):.6f}",
                ])
    summary = {
        "samples": args.samples,
        "seed": args.seed,
        "stochastic_distortion": ser.fraction_str(value),
        "stochastic_distortion_decimal": f"{float(value):.6f}",
        "worst_pair": [g.names[report.worst_pair[0]],
                       g.names[report.worst_pair[1]]],
    }
    print(json.dumps(summary, indent=2) if args.json
          else f"stochastic distortion {ser.fraction_str(value)} "
               f"(~{float(value):.4f}) over {args.samples} trees")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    mg = _need_measured(_load_graph(args.graph))
    result = oracle_min_expected_distortion(mg)
    value, general = result.value, result.value / STEINER_FACTOR
    if args.json:
        print(json.dumps({
            "steiner_free": ser.fraction_str(value),
            "steiner_free_decimal": f"{float(value):.6f}",
            "general": ser.fraction_str(general),
            "prufer": list(result.prufer),
            "tree_weights": [ser.fraction_str(w) for w in result.tree.weights],
        }, indent=2))
    else:
        print(f"steiner-free lower bound {ser.fraction_str(value)} "
              f"(~{float(value):.4f}); "
              f"general bound {ser.fraction_str(general)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = SUITES[args.suite]()
    if args.json:
        print(json.dumps({
            "suite": report.suite,
            "ok": report.ok,
            "rows": [{"label": r.label, "value": r.value, "passed": r.passed}
                     for r in report.rows],
        }, indent=2))
    else:
        for row in report.rows:
            print(f"[{'PASS' if row.passed else 'FAIL'}] {row.label}: {row.value}")
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _write(args.out, ser.dot_pieces(_load_st_graph(args.graph)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slashpow",
        description="Measured geodesic s-t graphs, slash powers, and exact "
                    "distortion verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit an elementary measured graph as JSON")
    p.add_argument("--path", help="comma-separated edge weights")
    p.add_argument("--cycle", help="two comma-separated arcs joined by ';'")
    p.add_argument("--laakso", help="parameters k,l1,l2,m")
    p.add_argument("--uniform-weights", action="store_true",
                   help="equal weights along every s-t route")
    p.add_argument("--weights", help="stem;branch1;branch2;tail weight lists")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("power", help="materialize a slash power")
    p.add_argument("--base", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("count-cycles",
                       help="maximal-length cycle counts in Laakso powers")
    p.add_argument("--params", required=True, help="balanced k,l,l,m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge-label", help="slash-separated edge label, e.g. 3/0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count_cycles)

    p = sub.add_parser("find-balanced",
                       help="balanced Laakso subgraph of a power of an "
                            "unbalanced Laakso graph")
    p.add_argument("--params", required=True, help="k,l1,l2,m")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_balanced)

    p = sub.add_parser("pipeline",
                       help="balanced small-edge Laakso subgraph of a power "
                            "of an arbitrary normalized s-t graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("embed-frt", help="seeded random dominating trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--report", help="CSV output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_embed_frt)

    p = sub.add_parser("oracle", help="exact Steiner-free lower bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="DOT rendering of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SlashpowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
