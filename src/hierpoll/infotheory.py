"""Mutual information, channel capacity, Renyi divergence, and ordering checks.

Everything is reported in bits. Capacity uses the alternating-minimization
fixed point (Blahut-Arimoto); its per-iteration estimates are monotone
nondecreasing lower bounds, and iteration stops when successive estimates
agree to within tol. At the stop, Gallager's bound max_x D(O_x || rO) is an
upper bound on the capacity, so each result carries a certified gap.
`shannon_capacities` runs many channels as one packed iteration: the
channels are the diagonal blocks of one matrix, each keeps its own iterates
and stop, and a channel leaves the packing once it stops. The stop is
decided once per block of _BLOCK passes, from the iterates each pass
stores, and the loop resumes after the first pass at which it fires. The
results are bit for bit those of a loop that decides after every pass, and
a pass costs twelve numpy calls.

Renyi divergence of order alpha in [0, 1) uses the standard exponents
(alpha on the left argument, 1 - alpha on the right), the only convention
under which the divergence is nonnegative on that range. One broadcast
computes every row pair of a channel at every alpha.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import DominanceChain, certify_chain
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    InvalidArgument,
    MaxIterationsExceeded,
    NonNumericEntry,
)
from .stochastic import _float_array, _is_number, validate_belief, validate_stochastic

_LOG2 = np.log(2.0)
_MAX_ITERATIONS = 10 ** 5  # Blahut-Arimoto updates before MaxIterationsExceeded
_PACK_ENTRIES = 2 ** 16     # most entries of one block-diagonal Blahut-Arimoto packing
_Q_FLOOR = 1e-300           # output mass below which a log ratio is taken against the floor
_BLOCK = 64                 # Blahut-Arimoto passes between two stop decisions
_ORDERING_SLACK = 1e-8      # numeric slack of the capacity and Renyi ordering margins


def mutual_information(ch, input_dist) -> float:
    """I(X;Y) in bits for channel rows ch and input distribution input_dist."""
    O = validate_stochastic(ch).entries
    p = validate_belief(input_dist)
    if p.shape != (O.shape[0],):
        raise DimensionMismatch(f"input distribution of size {p.size} "
                                f"for a channel with {O.shape[0]} inputs")
    return float(p @ _kl_rows(O, p @ O)) / _LOG2


def _same_alphabet(p, q):
    """p and q checked as distributions on one alphabet."""
    p, q = validate_belief(p), validate_belief(q)
    if p.shape != q.shape:
        raise DimensionMismatch("distributions on different alphabets")
    return p, q


def _kl_rows(O: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy D(O_x || q) in nats of every row x of O; terms where
    O or q is zero contribute nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where((O > 0) & (q > 0)[None, :],
                             np.log(O / np.maximum(q, _Q_FLOOR)), 0.0)
    return (O * log_ratio).sum(axis=1)


class Capacity(NamedTuple):
    """Blahut-Arimoto result for one channel, in bits: the estimate I(r) at
    the stopping input r, or 0 where round-off takes it below, and Gallager's
    bound max_x D(O_x || rO), so that bits <= C <= upper_bits."""

    bits: float
    input: np.ndarray
    upper_bits: float

    @property
    def gap_bits(self) -> float:
        return self.upper_bits - self.bits


def shannon_capacities(channels, tol: float = 1e-10) -> list[Capacity]:
    """Capacities of several channels, in input order, by Blahut-Arimoto.

    Alternating updates r <- r * exp(D) / Z with D_x the relative entropy of
    row x to the current output marginal; the induced I(r) estimates are
    nondecreasing and converge to the capacity. Each channel stops when its
    estimate changes by less than tol. The channels run together as the
    diagonal blocks of one matrix, so an iteration costs a fixed number of
    numpy calls whatever the number of channels. A tol that is not a number
    > 0 raises InvalidArgument, since no change could fall below it.
    """
    if not (_is_number(tol) and tol > 0):
        raise InvalidArgument(f"tol must be > 0, got {tol!r}")
    blocks = [O[:, O.any(axis=0)] for O in (validate_stochastic(ch).entries for ch in channels)]
    results = []
    start = 0
    for group in _pack_groups([O.shape for O in blocks]):
        results += _blahut_arimoto(blocks[start:start + group], start, tol)
        start += group
    return results


def _pack_groups(shapes) -> list[int]:
    """Sizes of consecutive runs of channels whose block-diagonal packing
    holds at most _PACK_ENTRIES entries; a larger channel runs alone."""
    sizes, rows, cols = [], 0, 0
    for X, Y in shapes:
        if sizes and (rows + X) * (cols + Y) <= _PACK_ENTRIES:
            sizes[-1] += 1
            rows, cols = rows + X, cols + Y
        else:
            sizes.append(1)
            rows, cols = X, Y
    return sizes


def _pack(blocks):
    """Block-diagonal matrix of the channels, each row's sum O log O in nats,
    each channel's first row, and each row's channel."""
    rows = [O.shape[0] for O in blocks]
    B = np.zeros((sum(rows), sum(O.shape[1] for O in blocks)))
    i = j = 0
    for O in blocks:
        B[i:i + O.shape[0], j:j + O.shape[1]] = O
        i, j = i + O.shape[0], j + O.shape[1]
    starts = np.cumsum([0] + rows[:-1])
    return B, _kl_rows(B, np.ones(B.shape[1])), starts, np.repeat(np.arange(len(rows)), rows)


def _buffers(B: np.ndarray, r: np.ndarray):
    """A block's rows of r (one more, for the input after the block), q and
    D, with r the input of its first pass."""
    n, m = B.shape
    R = np.empty((_BLOCK + 1, n))
    R[0] = r
    return R, np.empty((_BLOCK, m)), np.empty((_BLOCK, n))


def _blahut_arimoto(blocks, first: int, tol: float) -> list[Capacity]:
    """Blahut-Arimoto on channels with no all-zero output column, run as one
    packed iteration; a channel leaves the packing once it stops. `first` is
    the input index of blocks[0], named if a channel hits the iteration cap.

    A pass only updates: it writes its input r, output marginal q and row
    divergences D into row t of (_BLOCK, n) buffers and the next input into
    row t + 1. After a block of passes, one reduceat gives every estimate of
    the block, and the loop resumes after the first pass at which a channel
    stops; passes up to that one are exactly those of a loop that decides
    after every pass. A pass whose q falls below _Q_FLOOR needs D from
    _kl_rows, so a block that meets one is run again from its first pass
    with the floor tested on every pass. The first run is discarded unread,
    and its arithmetic runs with its warnings off."""
    results: list[Capacity | None] = [None] * len(blocks)
    active = np.arange(len(blocks))
    prev = np.full(len(blocks), -np.inf)
    B, H, starts, owner = _pack(blocks)
    R, Q, D = _buffers(B, np.concatenate([np.full(O.shape[0], 1.0 / O.shape[0])
                                          for O in blocks]))
    done, checked = 0, False
    while done < _MAX_ITERATIONS:
        passes = min(_BLOCK, _MAX_ITERATIONS - done)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(passes):
                r, q, d = R[t], Q[t], D[t]
                r.dot(B, out=q)
                if checked and q.min() < _Q_FLOOR:
                    d[:] = _kl_rows(B, q)
                else:
                    np.subtract(H, B.dot(np.log(q)), out=d)     # nats
                w = r * np.exp(d - np.maximum.reduceat(d, starts)[owner])
                np.divide(w, np.add.reduceat(w, starts)[owner], out=R[t + 1])
        # per pass: a discarded pass can make later q NaN, which hides a block-wide min
        if not checked and (Q[:passes].min(axis=1) < _Q_FLOOR).any():
            checked = True
            continue
        checked = False
        estimates = np.add.reduceat(R[:passes] * D[:passes], starts, axis=1) / _LOG2
        stops = np.abs(np.diff(estimates, axis=0, prepend=prev[None])) < tol
        hits = np.flatnonzero(stops.any(axis=1))
        if not hits.size:
            done, R[0], prev = done + passes, R[passes], estimates[-1]
            continue
        s = int(hits[0])
        done += s + 1
        r, q, d, estimate, stop = R[s], Q[s], D[s], estimates[s], stops[s]
        # max_x D(O_x || q) bounds C for any q
        upper = np.maximum.reduceat(_gallager_rows(B, r, q, d), starts) / _LOG2
        ends = np.append(starts[1:], r.size)
        for k in np.flatnonzero(stop):
            bits = max(0.0, float(estimate[k]))    # C >= 0; round-off can dip below
            results[int(active[k])] = Capacity(bits, r[starts[k]:ends[k]].copy(),
                                               float(max(upper[k], bits)))
        keep = ~stop
        if not keep.any():
            return results
        prev, active, survivors = estimate[keep], active[keep], R[s + 1][keep[owner]]
        B, H, starts, owner = _pack([blocks[k] for k in active])
        R, Q, D = _buffers(B, survivors)
    index = first + int(active[0])
    raise MaxIterationsExceeded(
        f"Blahut-Arimoto did not converge on the channel at index {index} within "
        f"{_MAX_ITERATIONS} iterations", index=index)


def _gallager_rows(B: np.ndarray, r: np.ndarray, q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D(O_x || q) in nats of every row x of B, given d from the pass that
    formed q = rB. A row that reaches a symbol of q below the floor, where d
    took the floored ratio, gets an upper bound instead: its terms there are
    formed in log space, with log q(y) >= log r_x + log O_x(y) since q(y) >=
    r_x O_x(y); it is inf only if r_x = 0 and q(y) underflowed to 0."""
    low = q < _Q_FLOOR
    if not low.any():
        return d
    O = B[:, low]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_O = np.log(O)
        log_q = np.maximum(np.log(q[low]), np.log(r)[:, None] + log_O)
        floored = np.where(O > 0, O * (log_O - log_q), 0.0).sum(axis=1)
    return np.where((O > 0).any(axis=1), _kl_rows(B[:, ~low], q[~low]) + floored, d)


def shannon_capacity(ch, tol: float = 1e-10):
    """Channel capacity in bits and a capacity-achieving input distribution;
    one channel of shannon_capacities."""
    bits, r, _ = shannon_capacities([ch], tol)[0]
    return bits, r


def kl_divergence(p, q) -> float:
    """Relative entropy in bits with the usual 0 log 0 conventions."""
    p, q = _same_alphabet(p, q)
    if np.any((p > 0) & (q == 0)):
        return float("inf")
    return float(_kl_rows(p[None, :], q)[0]) / _LOG2


def renyi_divergence(p, q, alpha: float) -> float:
    """Order-alpha divergence (1/(alpha-1)) log2 sum p^alpha q^(1-alpha).

    Defined for alpha in [0, 1); at alpha = 0 it is -log2 of the q-mass of
    p's support. Zero-probability symbols contribute nothing, which makes
    the value continuous in (p, q) on this alpha range.
    """
    p, q = _same_alphabet(p, q)
    return float(_renyi_table(p.reshape(1, -1), q.reshape(1, -1), [alpha])[0, 0, 0])


def _renyi_table(P: np.ndarray, Q: np.ndarray, alphas) -> np.ndarray:
    """Renyi divergences in bits of every row of P to every row of Q at every
    alpha, shape (len(P), len(Q), len(alphas)). Only symbols where both rows
    are positive count, so alpha = 0 sums q over p's support (p^0 = 1); a
    zero total gives inf. Every value is >= +0.0: the total is at most 1, and
    a round-off above it would give a value just below 0, or -0.0."""
    try:
        a = _float_array(alphas).reshape(-1, 1)
    except NonNumericEntry:
        raise AlphaOutOfRange(f"alpha must be numbers in [0, 1), got {alphas!r}") from None
    if not a.size or not np.all((0.0 <= a) & (a < 1.0)):
        raise AlphaOutOfRange(f"alpha must lie in [0, 1), got {a.ravel().tolist()}")
    P = np.where(P > 0, P, 0.0)[:, None, None, :]
    Q = np.where(Q > 0, Q, 0.0)[None, :, None, :]
    terms = np.where((P > 0) & (Q > 0), P ** a * Q ** (1.0 - a), 0.0)
    total = terms.sum(axis=-1)                    # (len(P), len(Q), n_alphas)
    D = np.where(total > 0, np.log2(np.where(total > 0, total, 1.0)) / (a[:, 0] - 1.0), np.inf)
    return np.where(D > 0, D, 0.0)


@dataclass(frozen=True)
class InfoReport:
    """Capacities and pairwise divergences along a dominance chain."""

    capacities: tuple[float, ...]
    alphas: tuple[float, ...]
    divergences: np.ndarray        # (n_channels, X, X, n_alphas)
    capacity_margins: np.ndarray   # C_u - C_{u+1}
    renyi_margins: np.ndarray      # min over i != j and alpha of D_u(i||j) - D_{u+1}(i||j)
    capacity_ordering_holds: bool
    renyi_ordering_holds: bool


def channel_divergences(ch, alphas) -> np.ndarray:
    """All-pairs row divergences of a channel, shape (X, X, n_alphas), with a
    zero diagonal."""
    O = validate_stochastic(ch).entries
    out = _renyi_table(O, O, alphas)
    diagonal = np.arange(O.shape[0])
    out[diagonal, diagonal] = 0.0
    return out


def verify_orderings(chain: DominanceChain, alphas) -> InfoReport:
    """Check capacity and Renyi-divergence monotonicity along a certified chain.

    Capacities must be nonincreasing and every pair of distinct states'
    divergence must be nonincreasing at every alpha, both within the numeric
    slack _ORDERING_SLACK. A pair infinite on both channels of a step counts
    0; the diagonal, 0 on every channel, is left out.
    """
    certify_chain(chain.deficiencies)
    alphas = tuple(float(a) for a in alphas)
    caps = [c.bits for c in shannon_capacities(chain.channels)]
    divergences = np.stack([channel_divergences(ch, alphas) for ch in chain.channels])
    cap_margins = -np.diff(caps)
    hi, lo = divergences[:-1], divergences[1:]
    with np.errstate(invalid="ignore"):
        steps = np.where(np.isinf(hi) & np.isinf(lo), 0.0, hi - lo)
    off_diagonal = ~np.eye(divergences.shape[1], dtype=bool)
    renyi_margins = steps[:, off_diagonal].min(axis=(1, 2), initial=np.inf)
    return InfoReport(
        capacities=tuple(caps),
        alphas=alphas,
        divergences=divergences,
        capacity_margins=cap_margins,
        renyi_margins=renyi_margins,
        capacity_ordering_holds=bool(np.all(cap_margins >= -_ORDERING_SLACK)),
        renyi_ordering_holds=bool(np.all(renyi_margins >= -_ORDERING_SLACK)),
    )
