"""Dense single-phase primal simplex for small linear programs.

Solves   min c'x   s.t.  A_eq x = b_eq,  x >= 0
with a full-tableau implementation, starting from a feasible basis that
the caller supplies (one column index per row). There is no phase 1: the
caller writes its starting vertex down in closed form, and the tableau is
put in canonical form once by solving with the basis columns. The entering
variable follows Dantzig's rule (most negative reduced cost, lowest index
on ties); after a run of degenerate pivots the loop switches to Bland's
rule, whose lowest-index entering/leaving choices guarantee termination.
Leaving-row ties are broken toward the largest pivot element for numerical
stability. The pivot sequence, and hence the reported optimum, is
deterministic. Problem sizes here are at most a few thousand variables,
where the dense tableau is both simple and fast enough.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPSolverFailure

_DEGENERATE_RUN_LIMIT = 30  # consecutive zero-progress pivots before Bland
_MAX_PIVOTS = 50_000
_PIVOT_TOL = 1e-9  # reduced costs and pivot elements smaller than this count as zero
_FEASIBILITY_TOL = 1e-7  # a basic value below -this is not a feasible start


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    value: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray) -> int:
    """Run simplex pivots on tableau T (last row = objective, last col = rhs)."""
    m = T.shape[0] - 1
    degenerate_run = 0
    bland = False
    for it in range(_MAX_PIVOTS):
        reduced = T[-1, :-1]
        eligible = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if eligible.size == 0:
            return it
        if bland:
            col = int(eligible[0])
        else:
            col = int(eligible[np.argmin(reduced[eligible])])
        column = T[:m, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise LPSolverFailure("objective unbounded below")
        ratios = T[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-9 * (1.0 + abs(best))]
        if bland:
            row = int(ties[np.argmin(basis[ties])])
        else:
            row = int(ties[np.argmax(column[ties])])
        degenerate_run = degenerate_run + 1 if best <= 1e-12 else 0
        bland = degenerate_run >= _DEGENERATE_RUN_LIMIT
        _pivot(T, basis, row, col)
    raise LPSolverFailure(f"simplex did not terminate within {_MAX_PIVOTS} pivots")


def solve_lp(c, A_eq, b_eq, basis) -> LPSolution:
    """Minimise c'x over {A_eq x = b_eq, x >= 0} from the given basis.

    basis[r] is the column basic in row r of the starting tableau, one per
    row. A basis whose columns are singular (or not square), or whose basic
    solution has a negative entry, raises LPSolverFailure.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_eq, dtype=float)
    basis = np.array(basis, dtype=int)  # a copy: pivots rewrite it
    m = A.shape[0]
    T = np.empty((m + 1, c.size + 1))
    try:
        T[:m] = np.linalg.solve(A[:, basis], np.column_stack([A, b_eq]))
    except np.linalg.LinAlgError as exc:
        raise LPSolverFailure(f"singular starting basis: {exc}") from exc
    worst = T[:m, -1].min(initial=0.0)
    if worst < -_FEASIBILITY_TOL:
        raise LPSolverFailure(f"infeasible starting basis: basic value {worst:.3e}")
    T[-1] = np.append(c, 0.0) - c[basis] @ T[:m]
    iterations = _iterate(T, basis)
    x = np.zeros(c.size)
    x[basis] = T[:m, -1]
    return LPSolution(x=x, value=float(c @ x), iterations=iterations)
