"""Exact linear programming for the tree-weight subproblems.

Solves  min c.x  subject to  A x >= b, x >= 0  by a dense two-phase simplex
with Bland's rule (no cycling, no rounding).  The tableau is integer and
fraction-free: every column of A, the rhs and the costs are scaled to
integers by the lcm of their denominators, and pivots are Edmonds/Bareiss
integer-preserving updates over one common positive denominator, so every
division is exact.  Positive scales of whole columns keep the sign of every
reduced cost and the order and ties of every ratio test, so Bland's rule
takes the same pivots as on the Fraction tableau; the solution is unscaled
once into exact Fractions.  Instances here are tiny: the oracle passes one
variable and one unit row x_e >= d(a_e, b_e) per tree edge.

The phase-1 artificial columns are implicit.  Row operations keep each
artificial column equal to minus its surplus column, and its phase-1
reduced cost equal to the denominator minus the surplus one, so only the
structural and surplus columns are stored; an artificial that Bland's rule
brings back into the basis is pivoted on as its negated surplus column.
A pivot equal to the current denominator (the common case: every pivot
on the oracle's unit rows) updates only the pivot row's nonzero entries,
in place.
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


def _pivot(tab: list[list[int]], basis: list[int], d: int, row: int,
           entering: int, column: list[int]) -> int:
    """Integer-preserving pivot; returns the new common denominator.

    `column` holds the entering column's entry in every row of `tab`, and
    `entering` is the basis label it takes.  Every row (the objective row
    included) holds d times its Fraction tableau row.  A negative pivot
    negates the pivot row first, which negates the whole result, so the
    denominator stays positive.
    """
    prow = tab[row]
    p = column[row]
    if p < 0:
        p = -p
        prow = tab[row] = [-v for v in prow]
    if p == d:
        # (v*d - f*w) // d is v - f*w // d, exactly, and v where w is 0.
        nonzero = [(j, w) for j, w in enumerate(prow) if w]
        for cur, f in zip(tab, column):
            if f and cur is not prow:
                for j, w in nonzero:
                    cur[j] -= f * w // d
    else:
        for r, cur in enumerate(tab):
            if r == row:
                continue
            f = column[r]
            if f:
                tab[r] = [(v * p - f * w) // d for v, w in zip(cur, prow)]
            else:
                tab[r] = [v * p // d for v in cur]
    basis[row] = entering
    return p


def _simplex(tab: list[list[int]], basis: list[int], d: int,
             artificials: bool) -> int:
    """Minimize over the current feasible tableau; Bland's rule throughout.

    The last row holds the reduced costs and the last column the rhs; the
    m rows store n structural then m surplus columns.  The implicit
    artificial n+m+i is minus surplus n+i in every row but the last, where
    its phase-1 reduced cost is d minus the surplus one.  Artificials may
    enter only when `artificials` is set (phase 1).  Returns the final
    denominator.
    """
    m = len(basis)
    stored = len(tab[m]) - 1
    while True:
        costs = tab[m]
        entering = next((j for j in range(stored) if costs[j] < 0), -1)
        if entering < 0 and artificials:
            entering = next((stored + i for i in range(m)
                             if costs[stored - m + i] > d), -1)
        if entering < 0:
            return d
        if entering < stored:
            column = [cur[entering] for cur in tab]
        else:
            column = [-cur[entering - m] for cur in tab]
            column[m] += d
        leaving = -1
        best_rhs = best_coef = 0
        for r in range(m):
            coef = column[r]
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
        d = _pivot(tab, basis, d, leaving, entering, column)


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

    # Columns: n structural, m surplus, then rhs; the artificials n+m+i are
    # implicit and start in the basis.  The last row is the objective, in
    # phase 1 the sum of the artificials: minus the sum of the rows.
    tab: list[list[int]] = []
    for i in range(m):
        row = [0] * (n + m + 1)
        for j in range(n):
            v = fa[i][j]
            row[j] = v.numerator * (scale[j] // v.denominator)
        row[n + i] = -1
        row[-1] = fb[i].numerator * (rhs_scale // fb[i].denominator)
        tab.append(row)
    basis = [n + m + i for i in range(m)]
    objective = [0] * (n + m + 1)
    for cur in tab:
        objective = [v - w for v, w in zip(objective, cur)]
    tab.append(objective)

    d = _simplex(tab, basis, 1, artificials=True)
    if any(tab[r][-1] for r in range(m) if basis[r] >= n + m):
        raise LPError("infeasible constraints")
    # Drive leftover artificials (at value 0) out of the basis where possible.
    for r in range(m):
        if basis[r] >= n + m:
            for j in range(n + m):
                if tab[r][j] != 0:
                    d = _pivot(tab, basis, d, r, j, [cur[j] for cur in tab])
                    break

    cost = [_rational(ci) * s for ci, s in zip(c, scale)]
    cost_scale = lcm(1, *(v.denominator for v in cost))
    cost = [int(v * cost_scale) for v in cost]
    # Phase-2 objective row: d times the reduced costs, and minus d times
    # the objective value in the rhs column.
    objective = [d * v for v in cost] + [0] * (m + 1)
    for j, cur in zip(basis, tab):
        if j < n and cost[j]:
            objective = [v - cost[j] * w for v, w in zip(objective, cur)]
    tab[m] = objective
    d = _simplex(tab, basis, d, artificials=False)

    x = [ZERO] * n
    for r in range(m):
        j = basis[r]
        if j < n:
            x[j] = Fraction(tab[r][-1] * scale[j], d * rhs_scale)
    # The objective row's rhs is minus d times the value in scaled units.
    return LPResult(value=Fraction(-tab[m][-1], d * cost_scale * rhs_scale), x=tuple(x))
