"""Exact linear programming for the tree-weight subproblems.

Solves  min c.x  subject to  A x >= b, x >= 0  by a dense two-phase simplex
with Bland's rule (no cycling, no rounding).  The tableau is integer and
fraction-free: every column of A, the rhs and the costs are scaled to
integers by the lcm of their denominators, and pivots are Edmonds/Bareiss
integer-preserving updates over one common positive denominator, so every
division is exact.  Positive scales of whole columns keep the sign of every
reduced cost and the order and ties of every ratio test, so Bland's rule
takes the same pivots as on the Fraction tableau; the solution is unscaled
once into exact Fractions.  Instances here are tiny: one variable per tree
edge, one constraint per vertex pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from ..errors import LPError

ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    x: tuple[Fraction, ...]


def _rational(v) -> int | Fraction:
    """Exact value with .numerator and .denominator (ints pass through)."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _pivot(tab: list[list[int]], basis: list[int], d: int,
           row: int, col: int) -> int:
    """Integer-preserving pivot; returns the new common denominator.

    Every row (the objective row included) holds d times its Fraction
    tableau row.  A negative pivot negates the pivot row first, which
    negates the whole result, so the denominator stays positive.
    """
    prow = tab[row]
    p = prow[col]
    if p < 0:
        p = -p
        prow = tab[row] = [-v for v in prow]
    for r, cur in enumerate(tab):
        if r == row:
            continue
        f = cur[col]
        if f:
            tab[r] = [(v * p - f * w) // d for v, w in zip(cur, prow)]
        elif p != d:
            tab[r] = [v * p // d for v in cur]
    basis[row] = col
    return p


def _priced(tab: list[list[int]], basis: list[int], d: int,
            costs: list[int]) -> list[int]:
    """Objective row for these costs: d times the reduced costs, and minus d
    times the objective value in the rhs column."""
    row = [d * v for v in costs] + [0]
    for cb, cur in zip((costs[j] for j in basis), tab):
        if cb:
            row = [v - cb * w for v, w in zip(row, cur)]
    return row


def _simplex(tab: list[list[int]], basis: list[int], d: int,
             allowed: int) -> int:
    """Minimize over the current feasible tableau; Bland's rule throughout.

    The last row holds the reduced costs and the last column the rhs.
    `allowed` bounds the columns that may enter the basis (used to freeze
    artificial columns in phase 2).  Returns the final denominator.
    """
    m = len(basis)
    while True:
        costs = tab[m]
        entering = next((j for j in range(allowed) if costs[j] < 0), -1)
        if entering < 0:
            return d
        leaving = -1
        best_rhs = best_coef = 0
        for r in range(m):
            coef = tab[r][entering]
            if coef > 0:
                rhs = tab[r][-1]
                # rhs / coef against best_rhs / best_coef, both denominators > 0
                lhs, rhs_best = rhs * best_coef, best_rhs * coef
                if leaving < 0 or lhs < rhs_best or (
                        lhs == rhs_best and basis[r] < basis[leaving]):
                    best_rhs, best_coef = rhs, coef
                    leaving = r
        if leaving < 0:
            raise LPError("unbounded objective")
        d = _pivot(tab, basis, d, leaving, entering)


def solve_min(c: Sequence[Fraction], a: Sequence[Sequence[Fraction]],
              b: Sequence[Fraction]) -> LPResult:
    """min c.x  s.t.  a x >= b, x >= 0.  Requires b >= 0 componentwise."""
    m, n = len(a), len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise LPError("inconsistent dimensions")
    if any(bi < 0 for bi in b):
        raise LPError("rhs must be nonnegative")

    fa = [[_rational(v) for v in row] for row in a]
    fb = [_rational(v) for v in b]
    scale = [lcm(1, *(row[j].denominator for row in fa)) for j in range(n)]
    rhs_scale = lcm(1, *(v.denominator for v in fb))

    # Columns: n structural, m surplus, m artificial, then rhs.  The last row
    # is the objective.
    tab: list[list[int]] = []
    for i in range(m):
        row = [0] * (n + 2 * m + 1)
        for j in range(n):
            v = fa[i][j]
            row[j] = v.numerator * (scale[j] // v.denominator)
        row[n + i] = -1
        row[n + m + i] = 1
        row[-1] = fb[i].numerator * (rhs_scale // fb[i].denominator)
        tab.append(row)
    basis = [n + m + i for i in range(m)]
    tab.append(_priced(tab, basis, 1, [0] * (n + m) + [1] * m))

    d = _simplex(tab, basis, 1, allowed=n + 2 * m)
    if any(tab[r][-1] for r in range(m) if basis[r] >= n + m):
        raise LPError("infeasible constraints")
    # Drive leftover artificials (at value 0) out of the basis where possible.
    for r in range(m):
        if basis[r] >= n + m:
            for j in range(n + m):
                if tab[r][j] != 0:
                    d = _pivot(tab, basis, d, r, j)
                    break

    cost = [_rational(ci) * s for ci, s in zip(c, scale)]
    cost_scale = lcm(1, *(v.denominator for v in cost))
    tab[m] = _priced(tab, basis, d,
                     [int(v * cost_scale) for v in cost] + [0] * (2 * m))
    # Phase 2 never reads the artificial columns again: drop them.
    tab = [row[:n + m] + row[-1:] for row in tab]
    d = _simplex(tab, basis, d, allowed=n + m)

    x = [ZERO] * n
    for r in range(m):
        j = basis[r]
        if j < n:
            x[j] = Fraction(tab[r][-1] * scale[j], d * rhs_scale)
    value = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return LPResult(value=value, x=tuple(x))
