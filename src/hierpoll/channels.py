"""Polling observation channels and Blackwell-dominance machinery.

A channel maps hidden states to observation symbols via a row-stochastic
likelihood matrix. Three constructors cover the polling mechanisms
(level-sampling polynomial channels, fractional-power channels, multinomial
fraction-reporting channels). Dominance between channels is decided through
the Le Cam deficiency delta, always reported as the residual of a returned
garbling. For a square invertible stronger channel H, the closed-form
garbling H^-1 W certifies dominance when its residual is within tolerance;
every other pair is settled by a garbling linear program, whose optimum is
the deficiency. Chains of channels are certified step by step.

Convention: delta(W, H) = 0 certifies H >=_B W, i.e. the deficiency is
measured for the weaker channel W relative to the stronger H.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import (
    AlphabetTooLarge,
    DegreeExceedsLevels,
    DimensionMismatch,
    InvalidArgument,
    NotUltrametric,
)
from .stochastic import (
    ConvexPolynomial,
    StochasticMatrix,
    as_array,
    eval_matrix_polynomial,
    fractional_power,
    is_ultrametric,
    matrix_power,
    require_finite,
    validate_stochastic,
)

CERT_TOL = 1e-7        # deficiency at or below which dominance counts as certified
_CERT_RESIDUAL = 1e-9  # residual at or below which H^-1 W is accepted without an LP
_MAX_OUTCOMES = 10 ** 6  # output-alphabet cap of friendship_channel


@dataclass(frozen=True)
class Channel:
    """Observation likelihood with named input states and output symbols."""

    matrix: StochasticMatrix
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.input_labels) != self.matrix.rows:
            raise DimensionMismatch("input label count != matrix rows")
        if len(self.output_labels) != self.matrix.cols:
            raise DimensionMismatch("output label count != matrix cols")

    @property
    def n_inputs(self) -> int:
        return self.matrix.rows

    @property
    def n_outputs(self) -> int:
        return self.matrix.cols


def make_channel(matrix, input_labels=None, output_labels=None) -> Channel:
    sm = matrix if isinstance(matrix, StochasticMatrix) else validate_stochastic(as_array(matrix))
    if input_labels is None:
        input_labels = tuple(str(i + 1) for i in range(sm.rows))
    if output_labels is None:
        output_labels = tuple(str(j + 1) for j in range(sm.cols))
    return Channel(sm, tuple(input_labels), tuple(output_labels))


@dataclass(frozen=True)
class HierarchyModel:
    """Level-to-level confusion matrix B and the number N of sub-root levels."""

    B: StochasticMatrix
    N: int

    def __post_init__(self):
        if not self.B.is_square:
            raise DimensionMismatch("level confusion matrix must be square")
        if self.N < 0:
            raise InvalidArgument("N must be >= 0")


@dataclass(frozen=True)
class DominanceChain:
    """Channels ordered by informativeness with garbling certificates.

    garblings[u] maps channels[u] onto channels[u+1] exactly;
    deficiencies[u] records the residual against the originally requested
    (u+1)-th channel, at most CERT_TOL certifying exact dominance.
    """

    channels: tuple[Channel, ...]
    garblings: tuple[StochasticMatrix, ...]
    deficiencies: tuple[float, ...]

    def __post_init__(self):
        if len(self.garblings) != len(self.channels) - 1:
            raise DimensionMismatch("need exactly one garbling per adjacent pair")
        if len(self.deficiencies) != len(self.garblings):
            raise DimensionMismatch("need exactly one deficiency per garbling")
        if any(d < 0 for d in self.deficiencies):
            raise InvalidArgument("deficiencies must be nonnegative")

    def is_certified(self) -> bool:
        return all(d <= CERT_TOL for d in self.deficiencies)


# ------------------------------------------------------------ constructors
def intent_channel(h: HierarchyModel, beta: ConvexPolynomial) -> Channel:
    """Channel B * sum_l beta_l B^l for level-sampling probabilities beta."""
    if beta.degree > h.N:
        raise DegreeExceedsLevels(
            f"polling polynomial degree {beta.degree} exceeds N = {h.N}")
    out = h.B.entries @ eval_matrix_polynomial(beta, h.B).entries
    return make_channel(validate_stochastic(out))


def expectation_channel(h: HierarchyModel, polled_depth: int, target_depth: int) -> Channel:
    """Channel (B^K)^(j/K): level K reports on the opinion held at level j.

    The fractional-power path is the object of interest here, so the result
    is computed through it even though B^j is available directly.
    """
    if not (1 <= target_depth <= polled_depth):
        raise InvalidArgument("need 1 <= target_depth <= polled_depth")
    if not is_ultrametric(h.B):
        raise NotUltrametric("expectation polling requires an ultrametric B")
    base = matrix_power(h.B, polled_depth)
    return make_channel(fractional_power(base, target_depth, polled_depth))


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length `parts` summing to `total`,
    as the rows of an int64 array in lexicographically descending order."""
    # the tails xi_j = sum_{i>=j} c_i fall from xi_0 = total to xi_j >= 0; c
    # descends exactly when (xi_1, xi_2, ...) ascends, so each row below
    # branches into every next tail from 0 up to its last, in order
    xi = np.full((1, 1), total, dtype=np.int64)
    for _ in range(parts - 1):
        branches = xi[:, -1] + 1
        first = np.repeat(np.cumsum(branches) - branches, branches)
        xi = np.column_stack([np.repeat(xi, branches, axis=0),
                              np.arange(first.size) - first])
    return -np.diff(xi, axis=1, append=0)


def friendship_channel(B_level, n_friends: int) -> Channel:
    """Multinomial channel: a polled node reports the opinion counts among
    its n_friends peers, each peer's opinion drawn from the node's row of
    B_level. Output alphabet is every composition (n_1,...,n_X) of n_friends.
    """
    B = as_array(B_level)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionMismatch("B_level must be square")
    validate_stochastic(B)
    if n_friends < 1:
        raise InvalidArgument("n_friends must be >= 1")
    X = B.shape[0]
    n_out = math.comb(n_friends + X - 1, X - 1)
    if n_out > _MAX_OUTCOMES:
        raise AlphabetTooLarge(f"{n_out} outcomes exceed the cap {_MAX_OUTCOMES}")
    comps = _compositions(n_friends, X)
    # entry (i, j) = exp(log multinomial coefficient + sum_h n_h log B[i,h]), so
    # no factorial leaves float range and the work follows the outcome count;
    # log 0 is taken as -1e300, finite so that a count of 0 adds 0 (0^0 = 1)
    # while any positive count still gives exp = 0
    counts, index = np.unique(comps, return_inverse=True)
    log_fact = np.array([math.lgamma(k + 1) for k in counts.tolist()])[index.reshape(comps.shape)]
    log_B = np.log(B, out=np.full(B.shape, -1e300), where=B > 0)
    M = np.exp(math.lgamma(n_friends + 1) - log_fact.sum(axis=1) + log_B @ comps.T)
    # each row sums to 1 in exact arithmetic, but lgamma's rounding, about 1e-16
    # of n log n, puts the sums off by more than the row-sum check from ~1e5 friends
    M /= M.sum(axis=1, keepdims=True)
    labels = tuple(",".join(f"{k}/{n_friends}" for k in comp) for comp in comps.tolist())
    return make_channel(validate_stochastic(M), output_labels=labels)


# ----------------------------------------------------- deficiency and chains
class LeCamResult(NamedTuple):
    delta: float
    garbling: StochasticMatrix


def garbling_residual(W, H, R) -> float:
    """||W - H R||_inf, the maximum absolute row sum."""
    return float(np.abs(W - H @ R).sum(axis=1).max())


def _stochastic_rows(R: np.ndarray) -> np.ndarray:
    R = np.clip(R, 0.0, None)
    return R / R.sum(axis=1, keepdims=True)


def _inverse_garbling(Wm: np.ndarray, Hm: np.ndarray) -> np.ndarray | None:
    """H^-1 W clipped to a stochastic matrix, or None when H is not square,
    is singular, or the solve overflows."""
    if Hm.shape[0] != Hm.shape[1]:
        return None
    try:
        R = np.linalg.solve(Hm, Wm)
    except np.linalg.LinAlgError:
        return None
    return _stochastic_rows(R) if np.isfinite(R).all() else None


def _garbling_lp(Wm: np.ndarray, Hm: np.ndarray) -> np.ndarray:
    """The garbling minimising ||W - H R||_inf, by an equality-form LP.

    Variables: R (row-major), the parts P, N >= 0 of W - H R = P - N, an
    epigraph variable t and one slack s_i per row. Constraints:
    (HR)_iy + P_iy - N_iy = W_iy, the rows of R sum to 1, and
    sum_y (P + N)_iy - t + s_i = 0 for every row i.

    The simplex starts at a closed-form vertex. Row h of R puts all its
    mass on the column y maximising (H'W)_hy / sum_i W_iy, the symbol of W
    most over-represented where H emits h; on intent channels this start
    needs about half the pivots of the plain argmax of H'W. P_iy or N_iy
    carries |W - H R|_iy by sign, t is basic on the row with the largest
    residual and the other rows' slacks are basic. The basis matrix is
    block-triangular (identity, then +-identity, then the t/slack block),
    so it is nonsingular, and every basic value is nonnegative, for any
    finite W and H.
    """
    X, YW = Wm.shape
    YH = Hm.shape[1]
    n_R, n_E = YH * YW, X * YW
    t_col = n_R + 2 * n_E
    eye_E = np.eye(n_E)
    row_sums = np.kron(np.eye(X), np.ones(YW))
    A_eq = np.block([
        [np.kron(Hm, np.eye(YW)), eye_E, -eye_E, np.zeros((n_E, 1 + X))],
        [np.kron(np.eye(YH), np.ones(YW)), np.zeros((YH, 2 * n_E + 1 + X))],
        [np.zeros((X, n_R)), row_sums, row_sums, -np.ones((X, 1)), np.eye(X)],
    ])
    b_eq = np.concatenate([Wm.ravel(), np.ones(YH), np.zeros(X)])
    c = np.zeros(A_eq.shape[1])
    c[t_col] = 1.0

    support = np.argmax(Hm.T @ Wm / np.maximum(Wm.sum(axis=0), np.finfo(float).tiny),
                        axis=1)
    R0 = np.zeros((YH, YW))
    R0[np.arange(YH), support] = 1.0
    D = Wm - Hm @ R0
    basis = np.concatenate([
        n_R + np.arange(n_E) + np.where(D.ravel() >= 0, 0, n_E),  # P or N
        np.arange(YH) * YW + support,                              # R0's ones
        t_col + 1 + np.arange(X),                                  # slacks
    ])
    basis[n_E + YH + int(np.argmax(np.abs(D).sum(axis=1)))] = t_col
    sol = lp.solve_lp(c, A_eq, b_eq, basis)
    # basic solutions satisfy the constraints to pivot precision; tidy fp dust
    return _stochastic_rows(sol.x[:n_R].reshape(YH, YW))


def lecam_deficiency(W, H) -> LeCamResult:
    """min over stochastic R of the induced infinity-norm of W - H R.

    The infinity norm is the maximum absolute row sum. Any stochastic R
    bounds the deficiency from above by ||W - HR||_inf, and the reported
    delta is always that residual of the returned garbling, so the garbling
    attains it. delta <= CERT_TOL certifies H >=_B W.

    - Certificate: when H is square and invertible, H^-1 W is the only
      matrix with HR = W. Clipped at 0 and renormalised, it is returned
      when its residual is <= _CERT_RESIDUAL; delta is then an upper bound,
      below _CERT_RESIDUAL.
    - Otherwise the garbling LP is solved (`_garbling_lp`) and delta is the
      LP optimum, up to pivot precision.
    Non-finite entries in W or H raise NonFiniteEntry.
    """
    Wm, Hm = as_array(W), as_array(H)
    if Wm.ndim != 2 or Hm.ndim != 2 or Wm.shape[0] != Hm.shape[0]:
        raise DimensionMismatch(
            f"channels must share the input alphabet: {Wm.shape} vs {Hm.shape}")
    require_finite(Wm)
    require_finite(Hm)
    R = _inverse_garbling(Wm, Hm)
    if R is None or garbling_residual(Wm, Hm, R) > _CERT_RESIDUAL:
        R = _garbling_lp(Wm, Hm)
    return LeCamResult(delta=garbling_residual(Wm, Hm, R), garbling=validate_stochastic(R))


def blackwell_dominates(A, B_ch) -> bool:
    """True iff A >=_B B_ch, i.e. some garbling of A reproduces B_ch."""
    return lecam_deficiency(B_ch, A).delta <= CERT_TOL


def approximate_blackwell_chain(channels) -> DominanceChain:
    """Build a dominance-ordered surrogate chain from arbitrary channels.

    The first channel is kept; each next surrogate is the best garbling of
    the previous surrogate toward the requested channel. Surrogates satisfy
    the garbling identities exactly; the reported deficiencies measure how
    far each surrogate sits from the corresponding input channel.
    """
    chs = [ch if isinstance(ch, Channel) else make_channel(ch) for ch in channels]
    if not chs:
        raise InvalidArgument("need at least one channel")
    n_in = chs[0].n_inputs
    if any(c.n_inputs != n_in for c in chs):
        raise DimensionMismatch("all channels must share the input alphabet")
    approx = [chs[0]]
    garblings: list[StochasticMatrix] = []
    deficiencies: list[float] = []
    for nxt in chs[1:]:
        delta, R = lecam_deficiency(nxt, approx[-1])
        garbled = validate_stochastic(approx[-1].matrix.entries @ R.entries)
        approx.append(Channel(garbled, nxt.input_labels, nxt.output_labels))
        garblings.append(R)
        deficiencies.append(delta)
    return DominanceChain(tuple(approx), tuple(garblings), tuple(deficiencies))
