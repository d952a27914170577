"""Reference exact LP: the Fraction-tableau two-phase simplex.

This is the solver `slashpow.embeddings.lp.solve_min` used before its
tableau became fraction-free, kept verbatim as an independent slow
reference.  It solves  min c.x  subject to  A x >= b, x >= 0  with every
coefficient a Fraction, by a dense two-phase simplex with Bland's rule.
The tests assert that the library solver returns the same x, the same
value and the same LPError as this one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from slashpow.embeddings.lp import LPResult
from slashpow.errors import LPError

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            factor = tab[r][col]
            tab[r] = [a - factor * b for a, b in zip(tab[r], tab[row])]
    basis[row] = col


def _simplex(tab: list[list[Fraction]], basis: list[int],
             costs: list[Fraction], allowed: int) -> None:
    """Minimize over the current feasible tableau; Bland's rule throughout.

    `allowed` bounds the columns that may enter the basis (used to freeze
    artificial columns in phase 2).  The tableau's last column is the rhs.
    """
    m = len(tab)
    while True:
        base_cost = [costs[basis[r]] for r in range(m)]
        entering = -1
        for j in range(allowed):
            reduced = costs[j] - sum(base_cost[r] * tab[r][j] for r in range(m))
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best: Fraction | None = None
        for r in range(m):
            coef = tab[r][entering]
            if coef > 0:
                ratio = tab[r][-1] / coef
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving < 0:
            raise LPError("unbounded objective")
        _pivot(tab, basis, leaving, entering)


def solve_min(c: Sequence[Fraction], a: Sequence[Sequence[Fraction]],
              b: Sequence[Fraction]) -> LPResult:
    """min c.x  s.t.  a x >= b, x >= 0.  Requires b >= 0 componentwise."""
    m, n = len(a), len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise LPError("inconsistent dimensions")
    if any(bi < 0 for bi in b):
        raise LPError("rhs must be nonnegative")

    # Columns: n structural, m surplus, m artificial, then rhs.
    width = n + 2 * m + 1
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [ZERO] * width
        for j in range(n):
            row[j] = Fraction(a[i][j])
        row[n + i] = -ONE
        row[n + m + i] = ONE
        row[-1] = Fraction(b[i])
        tab.append(row)
    basis = [n + m + i for i in range(m)]

    phase1 = [ZERO] * (n + m) + [ONE] * m
    _simplex(tab, basis, phase1, allowed=n + 2 * m)
    infeas = sum((tab[r][-1] for r in range(m) if basis[r] >= n + m), ZERO)
    if infeas != 0:
        raise LPError("infeasible constraints")
    # Drive leftover artificials (at value 0) out of the basis where possible.
    for r in range(m):
        if basis[r] >= n + m:
            for j in range(n + m):
                if tab[r][j] != 0:
                    _pivot(tab, basis, r, j)
                    break

    phase2 = [Fraction(x) for x in c] + [ZERO] * (2 * m)
    _simplex(tab, basis, phase2, allowed=n + m)

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return LPResult(value=value, x=tuple(x))
