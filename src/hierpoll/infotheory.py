"""Mutual information, channel capacity, Renyi divergence, and ordering checks.

Everything is reported in bits. Capacity uses the alternating-minimization
fixed point (Blahut-Arimoto); its per-iteration estimates are monotone
nondecreasing lower bounds, and iteration stops when successive estimates
agree to within tol.

Renyi divergence of order alpha in [0, 1) uses the standard exponents
(alpha on the left argument, 1 - alpha on the right), the only convention
under which the divergence is nonnegative on that range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DominanceChain
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    MaxIterationsExceeded,
    UncertifiedChain,
)
from .stochastic import as_array

_LOG2 = np.log(2.0)


def mutual_information(ch, input_dist) -> float:
    """I(X;Y) in bits for channel rows ch and input distribution input_dist."""
    O = as_array(ch)
    p = np.asarray(input_dist, dtype=float)
    if p.shape != (O.shape[0],):
        raise DimensionMismatch(f"input distribution of size {p.size} "
                                f"for a channel with {O.shape[0]} inputs")
    return float(p @ _kl_rows(O, p @ O)) / _LOG2


def _kl_rows(O: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy D(O_x || q) in nats of every row x of O; terms where
    O or q is zero contribute nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where((O > 0) & (q > 0)[None, :],
                             np.log(O / np.maximum(q, 1e-300)), 0.0)
    return (O * log_ratio).sum(axis=1)


def shannon_capacity(ch, tol: float = 1e-10, max_iter: int = 10 ** 5):
    """Channel capacity in bits and a capacity-achieving input distribution.

    Alternating updates r <- r * exp(D) / Z with D_x the relative entropy of
    row x to the current output marginal; the induced I(r) estimates are
    nondecreasing and converge to the capacity.
    """
    O = as_array(ch)
    X = O.shape[0]
    r = np.full(X, 1.0 / X)
    prev = -np.inf
    for _ in range(max_iter):
        D = _kl_rows(O, r @ O)                   # nats
        estimate = float(r @ D) / _LOG2
        if abs(estimate - prev) < tol:
            return estimate, r
        prev = estimate
        w = r * np.exp(D - D.max())
        r = w / w.sum()
    raise MaxIterationsExceeded(f"no convergence within {max_iter} iterations")


def kl_divergence(p, q) -> float:
    """Relative entropy in bits with the usual 0 log 0 conventions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((p > 0) & (q == 0)):
        return float("inf")
    return float(_kl_rows(p[None, :], q)[0]) / _LOG2


def renyi_divergence(p, q, alpha: float) -> float:
    """Order-alpha divergence (1/(alpha-1)) log2 sum p^alpha q^(1-alpha).

    Defined for alpha in [0, 1); at alpha = 0 it is -log2 of the q-mass of
    p's support. Zero-probability symbols contribute nothing, which makes
    the value continuous in (p, q) on this alpha range.
    """
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1), got {alpha}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch("distributions on different alphabets")
    if alpha == 0.0:
        mass = q[p > 0].sum()
        return float("inf") if mass <= 0 else float(-np.log2(mass))
    mask = (p > 0) & (q > 0)
    total = float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))
    if total <= 0:
        return float("inf")
    return float(np.log2(total) / (alpha - 1.0))


@dataclass(frozen=True)
class InfoReport:
    """Capacities and pairwise divergences along a dominance chain."""

    capacities: tuple[float, ...]
    alphas: tuple[float, ...]
    divergences: np.ndarray        # (n_channels, X, X, n_alphas)
    capacity_margins: np.ndarray   # C_u - C_{u+1}
    renyi_margins: np.ndarray      # worst-case D_u - D_{u+1} per step
    capacity_ordering_holds: bool
    renyi_ordering_holds: bool

    def rows(self):
        """Flat (channel_index, capacity, pair, alpha, divergence) records."""
        out = []
        n, X, _, A = self.divergences.shape
        for u in range(n):
            for i in range(X):
                for j in range(X):
                    if i == j:
                        continue
                    for a in range(A):
                        out.append((u + 1, self.capacities[u], f"{i + 1}-{j + 1}",
                                    self.alphas[a], float(self.divergences[u, i, j, a])))
        return out


def channel_divergences(ch, alphas) -> np.ndarray:
    """All-pairs row divergences of a channel, shape (X, X, n_alphas)."""
    O = as_array(ch)
    X = O.shape[0]
    out = np.zeros((X, X, len(alphas)))
    for i in range(X):
        for j in range(X):
            if i == j:
                continue
            for a, alpha in enumerate(alphas):
                out[i, j, a] = renyi_divergence(O[i], O[j], alpha)
    return out


def verify_orderings(chain: DominanceChain, alphas,
                     cert_tol: float = 1e-7, slack: float = 1e-8,
                     ba_tol: float = 1e-10) -> InfoReport:
    """Check capacity and Renyi-divergence monotonicity along a certified chain.

    Capacities must be nonincreasing and every state pair's divergence must be
    nonincreasing at every alpha, both within the numeric slack.
    """
    if not chain.is_certified(cert_tol):
        raise UncertifiedChain(
            f"chain deficiencies {chain.deficiencies} exceed {cert_tol}")
    alphas = tuple(float(a) for a in alphas)
    caps = []
    divs = []
    for ch in chain.channels:
        cap, _ = shannon_capacity(ch, tol=ba_tol)
        caps.append(cap)
        divs.append(channel_divergences(ch, alphas))
    divergences = np.stack(divs) if divs else np.zeros((0, 0, 0, len(alphas)))
    cap_margins = -np.diff(np.asarray(caps)) if len(caps) > 1 else np.zeros(0)

    def step_margin(u):
        hi, lo = divergences[u], divergences[u + 1]
        diff = np.where(np.isinf(hi) & np.isinf(lo), 0.0, hi - lo)
        return float(diff.min())

    renyi_margins = (np.array([step_margin(u) for u in range(len(caps) - 1)])
                     if len(caps) > 1 else np.zeros(0))
    return InfoReport(
        capacities=tuple(caps),
        alphas=alphas,
        divergences=divergences,
        capacity_margins=cap_margins,
        renyi_margins=renyi_margins,
        capacity_ordering_holds=bool(np.all(cap_margins >= -slack)),
        renyi_ordering_holds=bool(np.all(renyi_margins >= -slack)),
    )
