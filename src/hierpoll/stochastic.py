"""Row-stochastic matrix and convex-polynomial algebra.

Provides the validated containers used everywhere else (transition matrices,
level-confusion matrices, observation matrices, polling distributions) and
the operations on them: ultrametric tests, integer and fractional matrix
powers, matrix polynomials, stability (Hurwitz) tests, and polynomial
deflation by smallest roots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDegreeZero,
    InvalidArgument,
    NegativeEigenvalue,
    NegativeEntry,
    NegativeQuotientCoefficient,
    NonFiniteEntry,
    NonzeroRemainder,
    NotSquare,
    NotUltrametric,
    RowSumMismatch,
    StochasticityLost,
)

ROW_SUM_TOL = 1e-10
ENTRY_TOL = 1e-12
_POWER_TOL = 1e-9  # eigenvalue, entry and row-sum slack of fractional powers
_ULTRAMETRIC_TOL = 1e-9
_HURWITZ_TOL = 1e-9   # roots within this of the imaginary axis count as non-Hurwitz
_QUOTIENT_TOL = 1e-8  # division residual and negative-coefficient slack


def require_finite(a: np.ndarray) -> None:
    """Raise NonFiniteEntry naming the first NaN or infinite entry of a 2-d array."""
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteEntry(f"entry ({i},{j}) = {a[i, j]} is not finite")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def check_seed(seed):
    """`seed` unchanged when it is an integer >= 0 or a list or tuple of
    them, as numpy's SeedSequence takes it; InvalidArgument otherwise, also
    for a bool, which SeedSequence would read as 0 or 1."""
    for n in seed if isinstance(seed, (list, tuple)) else [seed]:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise InvalidArgument(f"seeds and run indices must be integers >= 0, got {n!r}")
    return seed


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic real matrix: entries in [0, 1], rows summing to 1."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.size == 0:
            raise RowSumMismatch("matrix must be a non-empty 2-d array")
        require_finite(entries)
        if np.any(entries < -ENTRY_TOL):
            i, j = np.unravel_index(np.argmin(entries), entries.shape)
            raise NegativeEntry(f"entry ({i},{j}) = {entries[i, j]:.3e} is negative")
        with np.errstate(over="ignore"):  # a row that overflows is off by inf
            sums = entries.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if np.any(dev > ROW_SUM_TOL):
            i = int(np.argmax(dev))
            raise RowSumMismatch(f"row {i} sums to {sums[i]:.12f} (deviation {dev[i]:.3e})")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other):
        return StochasticMatrix(self.entries @ as_array(other))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def as_array(m) -> np.ndarray:
    """Coerce a StochasticMatrix / Channel / array-like to a float ndarray."""
    if isinstance(m, StochasticMatrix):
        return m.entries
    inner = getattr(m, "matrix", None)
    if isinstance(inner, StochasticMatrix):
        return inner.entries
    return np.asarray(m, dtype=float)


def validate_stochastic(entries) -> StochasticMatrix:
    """Validate `entries` as a row-stochastic matrix; never normalizes silently.

    Raises NonFiniteEntry / NegativeEntry / RowSumMismatch with the
    offending index.
    """
    return StochasticMatrix(np.asarray(entries, dtype=float))


def _square(m) -> np.ndarray:
    a = as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _max_min_closure(A: np.ndarray) -> np.ndarray:
    """The min-condition's lower bound on each entry: max_k min(A_ik, A_kj)."""
    return np.max(np.minimum(A[:, None, :], A.T[None, :, :]), axis=2)


def _ultrametric_gaps(A: np.ndarray, tol: float, margin: float = 0.0):
    """The three ultrametric conditions of a square array as gaps: max |A_ij - A_ji|;
    max (closure - tol - A_ij), positive where an entry falls more than tol below
    its max-min bound; max_i (off-diagonal row maximum, taken with 0, + margin - A_ii)."""
    off_max = np.where(np.eye(A.shape[0], dtype=bool), 0.0, A).max(axis=1)
    return (float(np.abs(A - A.T).max()),
            float((_max_min_closure(A) - tol - A).max()),
            float((off_max + margin - np.diag(A)).max()))


def is_ultrametric(Q) -> bool:
    """Test the three ultrametric conditions on a square matrix, with tol =
    _ULTRAMETRIC_TOL: symmetric within tol; Q_ij >= min(Q_ik, Q_kj) - tol for
    all i,j,k; and every diagonal entry strictly dominates its row's
    off-diagonal maximum (by more than tol -- near-ties are conservatively
    rejected)."""
    asymmetry, shortfall, dominance = _ultrametric_gaps(_square(Q), _ULTRAMETRIC_TOL)
    return asymmetry <= _ULTRAMETRIC_TOL and shortfall <= 0.0 and dominance < -_ULTRAMETRIC_TOL


def matrix_power(Q, k: int) -> StochasticMatrix:
    """k-th power of a square stochastic matrix, k = 0 giving the identity."""
    A = _square(Q)
    if k < 0:
        raise InvalidArgument("exponent must be a nonnegative integer")
    return StochasticMatrix(np.linalg.matrix_power(A, int(k)))


def fractional_power(Q, j: int, K: int) -> StochasticMatrix:
    """Q^(j/K) for ultrametric Q, via symmetric eigendecomposition.

    Ultrametric matrices are symmetric positive definite, so the principal
    fractional power V diag(lam^(j/K)) V' is well defined and stochastic.
    Floating-point entries in [-_POWER_TOL, 0] are clipped and rows
    renormalized only when the total per-row correction stays within
    _POWER_TOL.
    """
    A = _square(Q)
    if j < 1 or K < 1:
        raise InvalidArgument("j and K must be positive integers")
    if not is_ultrametric(A):
        raise NotUltrametric("fractional powers require an ultrametric base")
    lam, V = np.linalg.eigh(A)
    if lam.min() < -_POWER_TOL:
        raise NegativeEigenvalue(f"smallest eigenvalue {lam.min():.3e} < -{_POWER_TOL}")
    lam = np.clip(lam, 0.0, None)
    R = (V * lam ** (j / K)) @ V.T
    if R.min() < -_POWER_TOL:
        raise StochasticityLost(f"entry {R.min():.3e} below the -{_POWER_TOL} clip range")
    R = np.clip(R, 0.0, None)
    sums = R.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _POWER_TOL):
        raise StochasticityLost(f"row sums drifted beyond {_POWER_TOL} after clipping")
    return StochasticMatrix(R / sums[:, None])


@dataclass(frozen=True)
class ConvexPolynomial:
    """Polynomial with nonnegative coefficients summing to 1, lowest degree first."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", StochasticMatrix(c[None]).entries[0])

    @property
    def degree(self) -> int:
        """Degree after trimming trailing (numerically zero) coefficients."""
        c = self.coefficients
        thresh = 1e-14 * max(1.0, float(np.abs(c).max()))
        nz = np.nonzero(np.abs(c) > thresh)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, z):
        return np.polyval(self.coefficients[::-1], z)

    def roots(self) -> np.ndarray:
        """Roots via companion-matrix eigenvalues of the trimmed polynomial."""
        c = self.coefficients[: self.degree + 1]
        if c.size < 2:
            return np.array([], dtype=complex)
        return np.roots(c[::-1])


def eval_matrix_polynomial(f: ConvexPolynomial, B) -> StochasticMatrix:
    """Sum_l beta_l B^l; stochastic because it is a convex combination."""
    A = _square(B)
    c = f.coefficients
    out = c[-1] * np.eye(A.shape[0])
    for beta in c[-2::-1]:
        out = out @ A + beta * np.eye(A.shape[0])
    return StochasticMatrix(out)


def is_hurwitz(f: ConvexPolynomial) -> bool:
    """True iff every root lies strictly left of -_HURWITZ_TOL in the complex plane.

    Roots within _HURWITZ_TOL of the imaginary axis are classified non-Hurwitz.
    Coefficient signs agree by construction of ConvexPolynomial.
    """
    if f.degree < 1:
        raise DegenerateDegreeZero("constant polynomial has no root placement")
    return bool(np.all(f.roots().real < -_HURWITZ_TOL))


def polynomial_quotient(p: ConvexPolynomial, q: ConvexPolynomial) -> ConvexPolynomial:
    """Exact-division quotient h = p/q, renormalized so that h(1) = 1.

    q must divide p up to a residual below _QUOTIENT_TOL; a quotient coefficient
    below -_QUOTIENT_TOL signals that p or q is not Hurwitz-compatible.
    """
    if p.degree <= q.degree:
        raise InvalidArgument("dividend degree must exceed divisor degree")
    ph = p.coefficients[: p.degree + 1][::-1]
    qh = q.coefficients[: q.degree + 1][::-1]
    quo, rem = np.polydiv(ph, qh)
    if rem.size and np.abs(rem).max() > _QUOTIENT_TOL:
        raise NonzeroRemainder(f"division residual {np.abs(rem).max():.3e} > tol")
    h = quo[::-1]
    if h.min() < -_QUOTIENT_TOL:
        raise NegativeQuotientCoefficient(
            f"quotient coefficient {h.min():.3e}; p or q is not Hurwitz-compatible")
    h = np.clip(h, 0.0, None)
    return ConvexPolynomial(h / h.sum())


def _smallest_root_factors(f: ConvexPolynomial) -> list[ConvexPolynomial]:
    """Candidate factors (value 1 at z=1) for f's smallest-magnitude root.

    A real root gives a linear factor, a conjugate pair the real quadratic
    (z^2 - 2 Re z0 z + |z0|^2). Repeated real roots can surface numerically
    as a tight conjugate pair, so for nearly-real roots both candidates are
    offered, linear first.
    """
    roots = sorted(f.roots(), key=lambda z: (abs(z), abs(z.imag)))
    z0 = roots[0]
    linear = np.array([-z0.real, 1.0])
    quadratic = np.array([abs(z0) ** 2, -2.0 * z0.real, 1.0])
    if abs(z0.imag) <= 1e-8 * max(1.0, abs(z0)):
        candidates = [linear]
    elif abs(z0.imag) <= 1e-4 * max(1.0, abs(z0)):
        candidates = [linear, quadratic]
    else:
        candidates = [quadratic]
    return [ConvexPolynomial(c / c.sum()) for c in candidates]


def deflate_chain(f: ConvexPolynomial, steps: int) -> list[ConvexPolynomial]:
    """Successively divide out the smallest-magnitude root of f, `steps` times.

    Returns [f, f/g_1, f/(g_1 g_2), ...]; for Hurwitz f every element stays
    convex and Hurwitz. Division errors from non-Hurwitz inputs propagate.
    """
    if steps < 0:
        raise InvalidArgument("steps must be nonnegative")
    out = [f]
    for _ in range(steps):
        candidates = _smallest_root_factors(out[-1])
        for k, factor in enumerate(candidates):
            try:
                out.append(polynomial_quotient(out[-1], factor))
                break
            except NonzeroRemainder:
                if k == len(candidates) - 1:
                    raise
    return out
