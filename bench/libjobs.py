"""Benchmark jobs that drive slashpow's public library functions directly.

usage, in a directory holding diamond.json:
    libjobs.py thm41 --seed S
    libjobs.py cor42 --seed S

`thm41` draws TREES dominating trees with `frt_tree` and checks the Thm 4.1
truncated-stretch bound of each against every maximal cycle of the LIB_N-th
power of BASE_FILE; it also prints the sha256 of that power's distance
table, which does not depend on the seed.  `cor42` evaluates the Cor 4.2
selector sum for SELECTORS random selectors.  The constants live in
workloads.py, whose checks read them too.  Both jobs print one JSON object
on stdout and exit like the CLI: 0 on success, 2 when a verified identity
fails, 3 on bad input.

Library names are looked up through module attributes at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import slashpow as sp
from slashpow import embeddings, serialization
from slashpow.errors import SlashpowError
from workloads import BASE_FILE, LIB_N, SELECTORS, TREES


def _power() -> "sp.SlashPower":
    base = serialization.loads(Path(BASE_FILE).read_text())
    return sp.slash_power(base, LIB_N)


def _derived_rng(seed: int, k: int) -> random.Random:
    # Same derivation as frt_embed, so tree k matches the CLI's k-th sample.
    return random.Random(seed * 1_000_003 + k)


def _cycle_sizes(cycles) -> list[int]:
    return [min(len(c) for c in cycles), max(len(c) for c in cycles)]


def _metric_sha256(metric, vertices: int) -> str:
    rows = (",".join(serialization.fraction_str(metric.d(u, v))
                     for v in range(vertices)) for u in range(vertices))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def thm41(args: argparse.Namespace) -> int:
    power = _power()
    cycles = sp.enumerate_max_cycles(power)
    metric = power.metric
    results = []
    for k in range(TREES):
        tree, tmap = embeddings.frt_tree(metric, _derived_rng(args.seed, k))
        results.append(embeddings.truncated_distortion_bound(
            power, tree, tmap, cycles=cycles))
    holds = sum(1 for r in results if r.holds)
    print(json.dumps({
        "job": "thm41",
        "seed": args.seed,
        "n": LIB_N,
        "trees": TREES,
        "metric_sha256": _metric_sha256(metric, power.graph.graph.vertex_count),
        "cycles": len(cycles),
        "cycle_edges": _cycle_sizes(cycles),
        "bound": serialization.fraction_str(results[0].bound),
        "values": [serialization.fraction_str(r.value) for r in results],
        "witness_counts": sorted({len(r.cycle_witnesses) for r in results}),
        "holds": holds,
    }))
    return 0 if holds == TREES else 2


def cor42(args: argparse.Namespace) -> int:
    power = _power()
    cycles = sp.enumerate_max_cycles(power)
    g = power.graph.graph
    sums = []
    for k in range(SELECTORS):
        rng = _derived_rng(args.seed, k)

        def pick(c, _rng=rng):
            edges = sp.core.cycle_edge_indices(g, c)
            return edges[_rng.randrange(len(edges))]

        sums.append(sp.selector_identity_sum(power, pick, cycles=cycles))
    print(json.dumps({
        "job": "cor42",
        "seed": args.seed,
        "n": LIB_N,
        "selectors": SELECTORS,
        "cycles": len(cycles),
        "cycle_edges": _cycle_sizes(cycles),
        "sums": [serialization.fraction_str(s) for s in sums],
    }))
    return 0 if all(s * 2 == 1 for s in sums) else 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="libjobs.py")
    sub = parser.add_subparsers(dest="job", required=True)
    for name, func in (("thm41", thm41), ("cor42", cor42)):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlashpowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
