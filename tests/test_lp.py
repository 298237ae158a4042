import numpy as np
import pytest

from hierpoll import lp
from hierpoll.lp import solve_lp
from hierpoll.errors import LPSolverFailure


def solve_from_slacks(c, A_ub, b_ub):
    """min c'x s.t. A_ub x <= b_ub, x >= 0 with b_ub >= 0, started at the origin."""
    A_ub = np.asarray(A_ub, dtype=float)
    m, n = A_ub.shape
    sol = solve_lp(np.concatenate([c, np.zeros(m)]), np.hstack([A_ub, np.eye(m)]),
                   b_ub, basis=n + np.arange(m))
    return sol.x[:n], sol.value


def test_textbook_maximization():
    # max 2x + 3y s.t. x+y<=100, 6x+3y<=360, x+2y<=120  -> (40, 40)
    x, value = solve_from_slacks([-2.0, -3.0], [[1, 1], [6, 3], [1, 2]], [100, 360, 120])
    assert np.allclose(x, [40.0, 40.0], atol=1e-9)
    assert value == pytest.approx(-200.0, abs=1e-9)


def test_equality_constraints():
    # min x + 2y s.t. x + y = 1, x,y >= 0, started at y = 1 -> x=1
    sol = solve_lp(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], basis=[1])
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)
    assert sol.iterations == 1


def test_infeasible_start():
    # x - y = 1 has the vertex x = 1, but the basis {y} puts y at -1
    with pytest.raises(LPSolverFailure, match="infeasible"):
        solve_lp(c=[1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[1.0], basis=[1])


@pytest.mark.parametrize("basis", [[0, 0], [0, 1]])
def test_singular_start(basis):
    # columns 0 and 1 are parallel, and a repeated column is singular too
    with pytest.raises(LPSolverFailure, match="singular"):
        solve_lp(c=[1.0, 1.0, 1.0], A_eq=[[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]],
                 b_eq=[1.0, 2.0], basis=basis)


def test_unbounded():
    # min -y s.t. x - y = 1: y enters and no row limits it
    with pytest.raises(LPSolverFailure, match="unbounded"):
        solve_lp(c=[0.0, -1.0], A_eq=[[1.0, -1.0]], b_eq=[1.0], basis=[0])


def test_pivot_cap_raises(monkeypatch):
    # the optimum (40, 40) has both variables basic, so it needs two pivots
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
    with pytest.raises(LPSolverFailure, match="did not terminate within 1 pivots"):
        solve_from_slacks([-2.0, -3.0], [[1, 1], [6, 3], [1, 2]], [100, 360, 120])


def test_stopped_before_optimum(monkeypatch):
    # mutant: no pivot is made, so the slack basis at the origin is feasible
    # but its reduced costs (-2, -3) are negative
    monkeypatch.setattr(lp, "_iterate", lambda T, basis: 0)
    with pytest.raises(LPSolverFailure, match="drifted: .*reduced cost -3"):
        solve_from_slacks([-2.0, -3.0], [[1, 1], [6, 3], [1, 2]], [100, 360, 120])


def shift_rhs(T, basis, A, b):
    # the right-hand side drifts, so x no longer solves A x = b
    T[0, -1] += 1e-3


def move_to_infeasible_vertex(T, basis, A, b):
    # the basis moves to the vertex y = -1 of x - y = 1, consistently in T
    basis[0] = 1
    T[:1] = np.linalg.solve(A[:, basis], np.column_stack([A, b]))


@pytest.mark.parametrize("mutate, message", [
    (shift_rhs, r"\|\|Ax - b\|\| 1\.000e-03"),
    (move_to_infeasible_vertex, "basic value -1.000e[+]00"),
], ids=["rhs-drift", "infeasible-basis"])
def test_drifted_tableau_fails_loudly(mutate, message, monkeypatch):
    A, b = np.array([[1.0, -1.0]]), np.array([1.0])
    iterate = lp._iterate

    def drifting(T, basis):
        pivots = iterate(T, basis)
        mutate(T, basis, A, b)
        return pivots

    monkeypatch.setattr(lp, "_iterate", drifting)
    with pytest.raises(LPSolverFailure, match=message):
        solve_lp(c=[1.0, 0.0], A_eq=A, b_eq=b, basis=[0])


def test_degenerate_does_not_cycle():
    # classic degenerate vertex: redundant constraints through the optimum
    _, value = solve_from_slacks([-1.0, -1.0], [[1, 0], [0, 1], [1, 1], [1, 1]],
                                 [1, 1, 2, 2])
    assert value == pytest.approx(-2.0, abs=1e-9)


def random_lps_with_enumerated_optima(rng, count=25):
    """(c, A, b, optimum) of min c'x over {x >= 0, Ax <= b}, the optimum found
    by brute force over all basic feasible points."""
    from itertools import combinations
    for _ in range(count):
        n, m = 3, 5
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)   # origin feasible
        c = rng.normal(size=n)
        if not np.all(c > -0.1):            # keep the problem bounded
            c = np.abs(c)
        rows = np.vstack([A, -np.eye(n)])
        rhs = np.concatenate([b, np.zeros(n)])
        best = np.inf
        for combo in combinations(range(m + n), n):
            sub = rows[list(combo)]
            if abs(np.linalg.det(sub)) < 1e-9:
                continue
            v = np.linalg.solve(sub, rhs[list(combo)])
            if np.all(rows @ v <= rhs + 1e-9):
                best = min(best, c @ v)
        yield c, A, b, best


def test_random_against_vertex_enumeration(rng):
    for c, A, b, best in random_lps_with_enumerated_optima(rng):
        _, value = solve_from_slacks(c, A, b)
        assert value == pytest.approx(best, abs=1e-7)


def test_bland_rule_from_the_first_pivot(rng, monkeypatch):
    # no LP met so far runs 30 degenerate pivots in a row, so the Bland
    # switch is forced here to check its entering and leaving choices
    monkeypatch.setattr(lp, "_DEGENERATE_RUN_LIMIT", 0)
    for c, A, b, best in random_lps_with_enumerated_optima(rng):
        _, value = solve_from_slacks(c, A, b)
        assert value == pytest.approx(best, abs=1e-7)
    _, value = solve_from_slacks([-1.0, -1.0], [[1, 0], [0, 1], [1, 1], [1, 1]],
                                 [1, 1, 2, 2])
    assert value == pytest.approx(-2.0, abs=1e-9)
