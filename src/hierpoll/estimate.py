"""Maximum-likelihood estimation of (P, B) from observation sequences.

The expectation step is one scaled forward-backward pass per sequence
(Rabiner, "A tutorial on hidden Markov models and selected applications in
speech recognition", Proc. IEEE 1989), run as a chunked scan
(`_forward_backward`): a sequence of T symbols is cut into about sqrt(T)
chunks whose transfer matrices are formed for all chunks at once, the
boundary messages are carried from chunk to chunk, and both recursions are
then finished inside all chunks at once. This is the associative-scan view
of the HMM smoother of Saerkkae and Garcia-Fernandez, "Temporal
Parallelization of Bayesian Smoothers" (IEEE Trans. Automatic Control,
2021), and takes about 5 sqrt(T) steps in Python instead of two per symbol.

The transition update is the usual row-normalized expected count. The
emission update is constrained to ultrametric stochastic matrices: the
unconstrained count estimate is projected by cyclic corrections (symmetrize,
raise min-condition violations, shift mass onto weak diagonals,
renormalize), and an ascent guard bisects back toward the previous estimate
whenever the projected step would lower the expected-count objective, which
keeps the data log-likelihood nondecreasing unconditionally.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatch,
    EmptyData,
    InvalidArgument,
    ModelShapeMismatch,
    NotSquare,
    ParseError,
    ProjectionStalled,
    UnknownSymbol,
    ZeroLikelihood,
)
from .fileio import _from_payload, _is_json, _read
from .stochastic import (
    StochasticMatrix,
    _is_number,
    _max_min_closure,
    _ultrametric_gaps,
    as_array,
    check_integer,
    check_seed,
    is_ultrametric,
    validate_stochastic,
)

_COUNT_FLOOR = 1e-12  # keeps emission/transition rows strictly positive
_MARGIN = 1e-6        # how far each diagonal must exceed its row's off-diagonal maximum
_PROJECTION_TOL = 1e-9
_MAX_CYCLES = 1000    # projection cycles before ProjectionStalled
_MAX_HALVINGS = 30    # ascent-guard bisections before the previous estimate is kept
_INIT_NOISE = 0.01
_ASCENT_SLACK = 1e-8  # largest log-likelihood drop between iterations judged rounding


@dataclass(frozen=True)
class ObservationDataset:
    sequences: tuple[np.ndarray, ...]
    alphabet: tuple[str, ...]

    def __post_init__(self):
        seqs = tuple(np.asarray(s, dtype=int) for s in self.sequences)
        object.__setattr__(self, "sequences", seqs)
        if not seqs or any(s.size == 0 for s in seqs):
            raise EmptyData("need at least one non-empty sequence")
        hi = max(int(s.max()) for s in seqs)
        lo = min(int(s.min()) for s in seqs)
        if lo < 0 or hi >= len(self.alphabet):
            raise UnknownSymbol(f"symbol index {hi if hi >= len(self.alphabet) else lo} "
                                f"outside alphabet of size {len(self.alphabet)}")

    @property
    def n_symbols(self) -> int:
        return int(sum(s.size for s in self.sequences))


@dataclass(frozen=True)
class EmEstimate:
    transition: StochasticMatrix
    emission: StochasticMatrix     # ultrametric
    log_likelihoods: np.ndarray    # one entry per iteration, nondecreasing
    iterations: int
    converged: bool

    @property
    def ascends(self) -> bool:
        """Whether no iteration lowers the log-likelihood by more than _ASCENT_SLACK."""
        return bool(np.all(np.diff(self.log_likelihoods) >= -_ASCENT_SLACK))


def project_ultrametric(M_raw) -> StochasticMatrix:
    """Nearest practically-ultrametric stochastic matrix by cyclic corrections.

    Each cycle symmetrizes, lifts entries violating Q_ij >= min(Q_ik, Q_kj),
    shifts row mass from off-diagonal onto any insufficiently dominant
    diagonal (strictness margin `_MARGIN`), and renormalizes rows, until
    every condition holds within `_PROJECTION_TOL`. Inputs already
    satisfying the conditions pass through unchanged.
    """
    Q = np.array(as_array(M_raw), dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise NotSquare(f"expected square matrix, got {Q.shape}")
    if Q.shape[0] == 1:
        return validate_stochastic(np.ones((1, 1)))
    eye = np.eye(Q.shape[0], dtype=bool)
    for _ in range(_MAX_CYCLES):
        asymmetry, shortfall, dominance = _ultrametric_gaps(Q, _PROJECTION_TOL, _MARGIN)
        row_gap = float(np.abs(Q.sum(axis=1) - 1.0).max())
        if (asymmetry <= _PROJECTION_TOL and shortfall <= 0.0
                and dominance <= _PROJECTION_TOL and row_gap <= 1e-12):
            return validate_stochastic(Q)
        Q = 0.5 * (Q + Q.T)
        Q = np.maximum(Q, _max_min_closure(Q))
        # shift off-diagonal mass onto the diagonal until it dominates by margin
        off_max = np.where(eye, -np.inf, Q).max(axis=1)
        off_sum = Q.sum(axis=1) - np.diag(Q)
        need = off_max + _MARGIN - np.diag(Q)
        denom = off_sum + off_max
        s = np.clip(np.where(denom > 0, need / denom, 0.0), 0.0, 1.0)
        scale = 1.0 - s
        d_new = np.diag(Q) + s * off_sum
        Q = Q * scale[:, None]
        Q[eye] = d_new
        Q /= Q.sum(axis=1, keepdims=True)
    raise ProjectionStalled(f"constraints not met after {_MAX_CYCLES} cycles")


def _forward_backward(P, B, pi0, y):
    """Scaled forward-backward pass over one symbol sequence, as a chunked scan.

    Returns (log-likelihood, expected transition counts, expected emission
    counts); raises ZeroLikelihood when y cannot occur under (P, B).

    The T symbols are cut into K chunks of L = ceil(sqrt(T)), stored
    step-major as (L, K, X) so that step j of every chunk is one contiguous
    slice. The last chunk is padded with fewer than L steps of likelihood one,
    plain P steps with scale one, so the batch holds fewer than T + L steps.
    Five phases:

    1. fill the likelihoods B[:, y_t] of every step;
    2. form each chunk's transfer matrix diag(b_0) P diag(b_1) ... P diag(b_{L-1}),
       normalised at every step, across all chunks at once;
    3. carry the boundary messages from chunk to chunk: forward from pi0 at
       the first chunk, backward from ones at the last;
    4. run the scaled recursions of Rabiner (1989) inside all chunks at once
       from those messages: alpha with its exact per-step scales, then beta
       from the scales, the backward message of each chunk fixed by
       alpha . beta = 1 at its last step;
    5. form the expected counts and the log-likelihood.

    That is about 5L steps in Python instead of two per symbol. The chunk
    transfer matrices are the elements of the associative scan of Saerkkae
    and Garcia-Fernandez, "Temporal Parallelization of Bayesian Smoothers"
    (IEEE TAC, 2021), combined sequentially over the chunks. Sums run in
    another order than a per-symbol loop, so results agree with one to
    rounding.
    """
    T, X = y.size, P.shape[0]
    L = int(np.ceil(np.sqrt(T)))
    K = -(-T // L)
    pad = slice(T - (K - 1) * L, None)   # padded tail of the last chunk
    steps = np.zeros(K * L, dtype=y.dtype)
    steps[:T] = y
    steps = steps.reshape(K, L).T.ravel()
    lik = np.empty((L, K, X))
    np.take(B.T, steps, axis=0, out=lik.reshape(-1, X))
    lik[pad, -1] = 1.0
    alpha = np.empty_like(lik)
    scale = np.empty((L, K))
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.zeros((K, X, X))
        A[:, np.arange(X), np.arange(X)] = lik[0]
        for j in range(1, L):
            A = (A.reshape(-1, X) @ P).reshape(K, X, X)
            A *= lik[j, :, None, :]
            A /= A.reshape(K, -1).sum(axis=1)[:, None, None]
        # predicted message entering each chunk: alpha of the step before, times P
        prior = np.empty((K, X))
        prior[0] = pi0
        for k in range(1, K):
            a = prior[k - 1] @ A[k - 1]
            prior[k] = (a / a.sum()) @ P
        for j in range(L):
            a = prior * lik[j]
            scale[j] = a.sum(axis=1)
            np.divide(a, scale[j, :, None], out=alpha[j])
            prior = alpha[j] @ P
    if not (scale > 0).all():
        raise ZeroLikelihood("zero likelihood under the current (P, B)")
    scale[pad, -1] = 1.0

    # backward message at each chunk's last step, up to scale
    end = np.empty((K, X))
    end[-1] = 1.0
    for k in range(K - 2, -1, -1):
        b = (A[k + 1] @ end[k + 1]) @ P.T
        end[k] = b / b.sum()
    beta = np.empty_like(lik)
    beta[-1] = end / np.einsum("ki,ki->k", alpha[-1], end)[:, None]
    # lik becomes the xi weights B_{j,y_t} beta_t(j) / scale_t in place
    for j in range(L - 1, 0, -1):
        lik[j] *= beta[j] / scale[j, :, None]
        np.matmul(lik[j], P.T, out=beta[j - 1])
    lik[0] *= beta[0] / scale[0, :, None]
    lik[pad, -1] = 0.0

    # xi_t(i,j) = alpha_t(i) P_ij B_{j,y_{t+1}} beta_{t+1}(j) / scale_{t+1},
    # summed within chunks, then across each chunk's last step
    trans = alpha[:-1].reshape(-1, X).T @ lik[1:].reshape(-1, X)
    trans += alpha[-1, :-1].T @ lik[0, 1:]
    trans *= P
    gamma = alpha
    gamma *= beta
    gamma[pad, -1] = 0.0
    emit = np.stack([np.bincount(steps, weights=g, minlength=B.shape[1])
                     for g in gamma.reshape(-1, X).T])
    return float(np.log(scale).sum()), trans, emit


def _emission_objective(counts, B):
    with np.errstate(divide="ignore"):
        logB = np.where(B > 0, np.log(np.maximum(B, 1e-300)), -np.inf)
    vals = np.where(counts > 0, counts * logB, 0.0)
    return float(vals.sum())


def _guarded_emission_step(B_old, counts):
    """Projected emission update with a monotonicity guard.

    Accepts the projected candidate only if it does not decrease the
    expected-count objective; otherwise bisects toward the previous
    estimate, and keeps the previous estimate when no blend helps.
    """
    raw = counts + _COUNT_FLOOR
    raw /= raw.sum(axis=1, keepdims=True)
    candidate = project_ultrametric(raw).entries
    baseline = _emission_objective(counts, B_old)
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        blend = B_old + t * (candidate - B_old)
        if is_ultrametric(blend) and _emission_objective(counts, blend) >= baseline - 1e-12:
            return blend
        t *= 0.5
    return B_old


def default_initialization(X: int, seed: int):
    """Diagonal-heavy start, mildly perturbed so symmetric states separate."""
    rng = np.random.default_rng(check_seed(seed))
    P0 = 0.9 * np.eye(X) + 0.1 / X
    P0 /= P0.sum(axis=1, keepdims=True)
    raw = 0.6 * np.eye(X) + 0.4 / X + _INIT_NOISE * rng.random((X, X))
    raw /= raw.sum(axis=1, keepdims=True)
    B0 = project_ultrametric(raw).entries
    return P0, B0


def em_fit(data: ObservationDataset, X: int, init=None, max_iter: int = 100,
           tol: float = 1e-6, seed: int = 0) -> EmEstimate:
    """EM for the transition matrix and an ultrametric emission matrix.

    The observation alphabet must have exactly X symbols (square confusion
    setting). Each iteration sums the expected counts of one chunked
    forward-backward scan per sequence (`_forward_backward`). The
    log-likelihood trace is nondecreasing by construction of the guarded
    emission step. Raises ZeroLikelihood when some sequence cannot occur
    under the current (P, B), for instance under a degenerate `init`,
    ModelShapeMismatch for an `init` matrix that is not X x X, and
    InvalidArgument for a max_iter that is not an integer >= 1 or a tol that
    is not a number >= 0. `init` is checked by `validate_stochastic`.
    """
    check_integer("max_iter", max_iter, 1)
    if not (_is_number(tol) and tol >= 0):
        raise InvalidArgument(f"tol must be >= 0, got {tol!r}")
    if len(data.alphabet) != X:
        raise AlphabetMismatch(
            f"alphabet size {len(data.alphabet)} != state count {X}")
    if init is None:
        P, B = default_initialization(X, seed)
    else:
        P, B = (validate_stochastic(m).entries for m in init)
        for name, m in (("P", P), ("B", B)):
            if m.shape != (X, X):
                raise ModelShapeMismatch(f"init {name} must be {X} x {X}, got shape {m.shape}")
        if not is_ultrametric(B):
            B = project_ultrametric(B).entries
    pi0 = np.full(X, 1.0 / X)

    trace = []
    converged = False
    for it in range(max_iter):
        loglik = 0.0
        trans = np.zeros((X, X))
        emit = np.zeros((X, X))
        for i, y in enumerate(data.sequences):
            try:
                ll, tr, em = _forward_backward(P, B, pi0, y)
            except ZeroLikelihood:
                raise ZeroLikelihood(f"sequence {i} has zero likelihood "
                                     "under the current (P, B)") from None
            loglik += ll
            trans += tr
            emit += em
        trace.append(loglik)
        if it > 0 and trace[-1] - trace[-2] < tol:
            converged = True
            break
        P = trans + _COUNT_FLOOR
        P /= P.sum(axis=1, keepdims=True)
        B = _guarded_emission_step(B, emit)
    return EmEstimate(
        transition=validate_stochastic(P),
        emission=validate_stochastic(B),
        log_likelihoods=np.asarray(trace),
        iterations=len(trace),
        converged=converged,
    )


# ---------------------------------------------------------------- ingestion
def _map_symbols(rows, alphabet):
    index = {sym: i for i, sym in enumerate(alphabet)}
    sequences = []
    for si, row in enumerate(rows):
        seq = []
        for pos, sym in enumerate(row):
            if sym not in index:
                raise UnknownSymbol(
                    f"symbol {sym!r} at sequence {si}, position {pos}")
            seq.append(index[sym])
        sequences.append(np.asarray(seq, dtype=int))
    return tuple(sequences)


def _dataset_from_rows(rows) -> ObservationDataset:
    rows = [[s.strip() for s in row] for row in rows if row]
    if len(rows) < 2:
        raise ParseError("need an alphabet row and at least one sequence row")
    alphabet = tuple(rows[0])
    return ObservationDataset(_map_symbols(rows[1:], alphabet), alphabet)


def _dataset_from_json(payload) -> ObservationDataset:
    bare = isinstance(payload, list)
    rows = [[str(s) for s in seq] for seq in (payload if bare else payload["sequences"])]
    alphabet = (tuple(sorted({s for row in rows for s in row})) if bare
                else tuple(str(a) for a in payload["alphabet"]))
    return ObservationDataset(_map_symbols(rows, alphabet), alphabet)


def load_observations(path) -> ObservationDataset:
    """Read a symbol dataset from CSV (first row = alphabet, one sequence per
    following row) or a `.json` file ({"alphabet": [...], "sequences": [[...], ...]}
    or a bare list of sequences with the alphabet inferred)."""
    as_json = _is_json(path)
    return _from_payload(_dataset_from_json if as_json else _dataset_from_rows,
                         _read(path, as_json), path)


def estimate_to_dict(est: EmEstimate) -> dict:
    """The fitted parameters and EM trace as plain JSON-ready values."""
    return {
        "transition": est.transition.entries.tolist(),
        "emission": est.emission.entries.tolist(),
        "log_likelihoods": est.log_likelihoods.tolist(),
        "iterations": est.iterations,
        "converged": est.converged,
    }
