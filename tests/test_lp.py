import itertools
import random
from fractions import Fraction as F

import pytest

import lp_reference
from helpers import diamond, laakso1221, unit_cycle_measured
from slashpow.core import geodesic_metric
from slashpow.embeddings import iter_labeled_trees, optimal_tree_weights
from slashpow.embeddings import lp as lp_module
from slashpow.embeddings import oracle as oracle_module
from slashpow.embeddings.lp import solve_min
from slashpow.errors import LPError


def test_hand_instances():
    # min x + y  s.t. x >= 1, y >= 2, x + y >= 4
    res = solve_min([F(1), F(1)],
                    [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
                    [F(1), F(2), F(4)])
    assert res.value == 4
    assert res.x[0] >= 1 and res.x[1] >= 2 and sum(res.x) >= 4

    # min 2x + y  s.t. x + y >= 3, x >= 1  ->  x=1, y=2
    res = solve_min([F(2), F(1)], [[F(1), F(1)], [F(1), F(0)]], [F(3), F(1)])
    assert res.value == 4
    assert res.x == (F(1), F(2))


def test_redundant_constraints():
    res = solve_min([F(1)], [[F(1)], [F(1)], [F(1)]], [F(2), F(1), F(2)])
    assert res.value == 2


def test_zero_objective():
    res = solve_min([F(0), F(0)], [[F(1), F(1)]], [F(5)])
    assert res.value == 0


def test_fractional_exactness():
    res = solve_min([F(1, 3), F(1, 7)],
                    [[F(1, 2), F(1, 5)], [F(0), F(1)]],
                    [F(3, 11), F(2, 13)])
    # Feasibility and exact optimality at a basic solution.
    x, y = res.x
    assert x / 2 + y / 5 >= F(3, 11)
    assert y >= F(2, 13)
    assert res.value == F(1, 3) * x + F(1, 7) * y


def test_negative_rhs_rejected():
    with pytest.raises(LPError):
        solve_min([F(1)], [[F(1)]], [F(-1)])


def test_against_scipy_random_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(2, 5)
        m = rng.randrange(2, 7)
        a = [[F(rng.randrange(0, 3)) for _ in range(n)] for _ in range(m)]
        # Keep rows nonzero so constraints are satisfiable with finite x.
        for row in a:
            if not any(row):
                row[rng.randrange(n)] = F(1)
        b = [F(rng.randrange(1, 9)) for _ in range(m)]
        c = [F(rng.randrange(1, 6)) for _ in range(n)]
        mine = solve_min(c, a, b)
        ref = scipy_opt.linprog(
            [float(x) for x in c],
            A_ub=[[-float(x) for x in row] for row in a],
            b_ub=[-float(x) for x in b],
            bounds=[(0, None)] * n, method="highs")
        assert ref.success
        assert abs(float(mine.value) - ref.fun) < 1e-7


def test_against_vertex_enumeration():
    # Exact cross-check: optimum over all basic points of {Ax >= b, x >= 0}.
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randrange(2, 4)
        m = rng.randrange(2, 5)
        a = [[F(rng.randrange(0, 2)) for _ in range(n)] for _ in range(m)]
        for row in a:
            if not any(row):
                row[rng.randrange(n)] = F(1)
        b = [F(rng.randrange(1, 6)) for _ in range(m)]
        c = [F(rng.randrange(1, 5)) for _ in range(n)]
        mine = solve_min(c, a, b)

        rows = [(row, bi) for row, bi in zip(a, b)]
        rows += [([F(1 if j == i else 0) for j in range(n)], F(0))
                 for i in range(n)]
        best = None
        for subset in itertools.combinations(range(len(rows)), n):
            sol = _solve_square([rows[i][0] for i in subset],
                                [rows[i][1] for i in subset])
            if sol is None:
                continue
            if any(x < 0 for x in sol):
                continue
            if any(sum(r * x for r, x in zip(row, sol)) < bi for row, bi in zip(a, b)):
                continue
            val = sum(ci * xi for ci, xi in zip(c, sol))
            if best is None or val < best:
                best = val
        assert best is not None
        assert mine.value == best


def _outcome(solver, c, a, b):
    try:
        return solver(c, a, b)
    except LPError as exc:
        return str(exc)


@pytest.mark.parametrize("mg, stride", [(diamond(), 1),
                                        (unit_cycle_measured(4), 1),
                                        (unit_cycle_measured(5), 7),
                                        (laakso1221(), 13),
                                        (unit_cycle_measured(6), 13)],
                         ids=["diamond", "cycle4", "cycle5-every-7th",
                              "laakso1221-every-13th", "cycle6-every-13th"])
def test_same_solution_as_reference_on_oracle_topologies(mg, stride, monkeypatch):
    # The integer tableau takes the Fraction tableau's Bland pivots, so even
    # where the optimum is not unique it lands on the same vertex x.
    solved = []

    def both(c, a, b):
        res = solve_min(c, a, b)
        assert res == lp_reference.solve_min(c, a, b)
        solved.append(res)
        return res

    monkeypatch.setattr(oracle_module, "solve_min", both)
    metric = geodesic_metric(mg.graph)
    trees = list(iter_labeled_trees(mg.graph.vertex_count))[::stride]
    for _, edges in trees:
        optimal_tree_weights(metric, mg.nu, edges)
    assert len(solved) == len(trees)


def _random_instances():
    """600 seeded (c, a, b) with fractional and negative coefficients, zero
    and duplicated rows (which leave artificials to evict after phase 1)."""
    rng = random.Random(20230609)

    def coeff():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randrange(-3, 7), rng.choice((1, 1, 2, 3, 5, 7)))

    for _ in range(600):
        n = rng.randrange(0, 6)
        m = rng.randrange(0, 7)
        a = [[coeff() for _ in range(n)] for _ in range(m)]
        b = [abs(coeff()) for _ in range(m)]
        if m and rng.random() < 0.3:
            i = rng.randrange(m)
            k = F(rng.randrange(1, 4), rng.randrange(1, 4))
            a.append([k * v for v in a[i]])
            b.append(k * b[i])
        yield [coeff() for _ in range(n)], a, b


def test_same_solution_as_reference_on_random_instances():
    # Feasible, infeasible and unbounded instances: the same x, value or
    # LPError message every time.
    outcomes = {}
    for c, a, b in _random_instances():
        mine = _outcome(solve_min, c, a, b)
        assert mine == _outcome(lp_reference.solve_min, c, a, b)
        kind = mine if isinstance(mine, str) else "optimal"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"optimal", "infeasible constraints",
                             "unbounded objective"}
    assert min(outcomes.values()) >= 100


def test_value_is_the_cost_of_x(monkeypatch):
    # The value is read off the objective row's rhs, not summed from x: it
    # must equal c.x exactly on every optimal instance above and on the
    # oracle's topologies.
    solved = []

    def checked(c, a, b):
        res = solve_min(c, a, b)
        assert res.value == sum((F(ci) * xi for ci, xi in zip(c, res.x)), F(0))
        solved.append(res)
        return res

    for c, a, b in _random_instances():
        _outcome(checked, c, a, b)
    assert len(solved) >= 100
    monkeypatch.setattr(oracle_module, "solve_min", checked)
    before = len(solved)
    for mg, stride in ((diamond(), 1), (unit_cycle_measured(4), 1), (laakso1221(), 13)):
        metric = geodesic_metric(mg.graph)
        for _, edges in list(iter_labeled_trees(mg.graph.vertex_count))[::stride]:
            optimal_tree_weights(metric, mg.nu, edges)
    assert len(solved) - before == 16 + 16 + 100


def _spy_pivots(monkeypatch):
    """Record (entering label, stored columns, pivot kept the denominator)
    for every pivot the library solver makes."""
    pivots = []
    real = lp_module._pivot

    def spy(tab, basis, d, row, entering, column):
        p = real(tab, basis, d, row, entering, column)
        pivots.append((entering, len(tab[0]) - 1, p == d))
        return p

    monkeypatch.setattr(lp_module, "_pivot", spy)
    return pivots


def test_artificial_reentry_matches_reference(monkeypatch):
    # min -x + 2y  s.t.  -x + y >= 0, 2x - 2y >= 0, -x + 2y >= 1: the first
    # two rows force x = y, so the optimum is x = y = 1.  In phase 1 Bland's
    # rule brings the first artificial back into the basis (a degenerate
    # pivot on the implicit column), which then leaves again.
    c, a, b = [-1, 2], [[-1, 1], [2, -2], [-1, 2]], [0, 0, 1]
    pivots = _spy_pivots(monkeypatch)
    res = solve_min(c, a, b)
    assert res == lp_reference.solve_min(c, a, b)
    assert res == solve_min([F(v) for v in c], [[F(v) for v in row] for row in a],
                            [F(v) for v in b])
    assert res.value == 1 and res.x == (F(1), F(1))
    assert any(entering >= stored for entering, stored, _ in pivots)


def test_reference_instances_exercise_both_pivot_updates(monkeypatch):
    # A pivot equal to the denominator updates only the pivot row's nonzeros
    # in place; any other pivot updates whole rows.  The reference
    # comparison must run through both.
    pivots = _spy_pivots(monkeypatch)
    test_same_solution_as_reference_on_random_instances()
    assert {same for _, _, same in pivots} == {True, False}


def _check_phase1_objective(monkeypatch):
    """After every phase-1 pivot, require the objective row to equal the one
    recomputed from the basis: minus the sum of the rows whose basic
    variable is an (implicit) artificial, rhs included.  Records whether
    each checked pivot brought an artificial back in."""
    checked = []
    real_pivot, real_simplex = lp_module._pivot, lp_module._simplex
    phase1 = [False]

    def simplex(tab, basis, d, artificials):
        phase1[0] = artificials
        try:
            return real_simplex(tab, basis, d, artificials)
        finally:
            phase1[0] = False

    def pivot(tab, basis, d, row, entering, column):
        p = real_pivot(tab, basis, d, row, entering, column)
        if phase1[0]:
            m = len(basis)
            stored = len(tab[m]) - 1
            expected = [-sum(tab[r][j] for r in range(m) if basis[r] >= stored)
                        for j in range(stored + 1)]
            assert tab[m] == expected
            checked.append(entering >= stored)
        return p

    monkeypatch.setattr(lp_module, "_simplex", simplex)
    monkeypatch.setattr(lp_module, "_pivot", pivot)
    return checked


def test_phase1_objective_row_tracks_the_basis(monkeypatch):
    # Outputs alone do not show a wrong objective-row entry for a
    # re-entering artificial (Bland's rule may still pick the same pivots),
    # so the row itself is recomputed after every phase-1 pivot.
    checked = _check_phase1_objective(monkeypatch)
    solve_min([-1, 2], [[-1, 1], [2, -2], [-1, 2]], [0, 0, 1])
    assert any(checked)
    test_same_solution_as_reference_on_random_instances()
    assert len(checked) > 1000


def _solve_square(a, b):
    """Exact Gaussian elimination; None when singular."""
    n = len(b)
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]
