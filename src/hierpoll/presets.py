"""Bundled demo models: a 3-state expectation-polling benchmark and a
large randomized intent-polling benchmark.

The 3-state model (movie-popularity market research) ships with its
published transition matrix, the two observation matrices, and the action
costs; the large model generates Dirichlet-random matrices and derives its
five polling distributions by deflating a fixed degree-10 weight vector.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .channels import HierarchyModel, intent_channel, make_channel
from .pomdp import CostSpec, PollingModel
from .stochastic import (ConvexPolynomial, check_integer, check_seed, deflate_chain,
                         validate_stochastic)

# --- three-state benchmark (X = 3, two polling actions) -------------------
EXAMPLE1_P = np.array([
    [0.9089, 0.0281, 0.0630],
    [0.0346, 0.9433, 0.0221],
    [0.0065, 0.0138, 0.9797],
])

# action 1 polls the better-informed level; action 2 the level below it
EXAMPLE1_O1 = np.array([
    [0.6382, 0.1809, 0.1809],
    [0.1809, 0.6382, 0.1809],
    [0.1809, 0.1809, 0.6382],
])

EXAMPLE1_O2 = np.array([
    [0.4728, 0.2636, 0.2636],
    [0.2636, 0.4728, 0.2636],
    [0.2636, 0.2636, 0.4728],
])

EXAMPLE1_MEASUREMENT = (0.5, 0.25)   # S(1) >= S(2)
EXAMPLE1_ERROR_WEIGHTS = (0.5, 1.0)  # w_1 <= w_2

# --- large benchmark: published degree-10 sampling weights ----------------
# The printed fractions do not sum to exactly 1 (excess 7/38880); the audit
# below exposes the exact sum so callers can normalize explicitly.
INTENT_WEIGHT_FRACTIONS = (
    Fraction(25, 1296),
    Fraction(1555, 15552),
    Fraction(3461, 15552),
    Fraction(86925, 311040),
    Fraction(13627, 62208),
    Fraction(11617, 103680),
    Fraction(437, 11520),
    Fraction(2671, 311040),
    Fraction(73, 62208),
    Fraction(29, 311040),
    Fraction(1, 311040),
)

EXAMPLE2_GAMMA1 = (5.0, 4.0, 3.0, 2.0, 1.0)
EXAMPLE2_GAMMA2 = (1.0, 2.0, 3.0, 4.0, 5.0)


def intent_weight_audit() -> tuple[Fraction, float, np.ndarray]:
    """Exact-rational audit of the published sampling weights.

    Returns (exact sum, deviation from 1 as float, normalized weights).
    """
    total = sum(INTENT_WEIGHT_FRACTIONS, Fraction(0))
    normalized = np.array([float(f / total) for f in INTENT_WEIGHT_FRACTIONS])
    return total, float(total - 1), normalized


def intent_weight_polynomial() -> ConvexPolynomial:
    """The normalized degree-10 sampling-weight polynomial."""
    _, _, coeffs = intent_weight_audit()
    return ConvexPolynomial(coeffs)


def example2_polynomials() -> list[ConvexPolynomial]:
    """Sampling polynomials f_1 .. f_5, most-deflated first.

    f_5 is the normalized published vector; each earlier one removes the
    smallest-magnitude root of its successor, so f_u garbles to f_{u+1}.
    """
    chain = deflate_chain(intent_weight_polynomial(), steps=4)
    return list(reversed(chain))


def example1_costs() -> CostSpec:
    return CostSpec.expectation(EXAMPLE1_MEASUREMENT, EXAMPLE1_ERROR_WEIGHTS)


def example1_model(rho: float) -> PollingModel:
    """Three-state expectation-polling benchmark with the published parameters."""
    return PollingModel(
        P=validate_stochastic(EXAMPLE1_P),
        channels=(make_channel(EXAMPLE1_O1), make_channel(EXAMPLE1_O2)),
        costs=example1_costs(),
        rho=rho,
    )


def example2_parts(X: int = 20, seed=0):
    """Random (P, B) draw plus the five intent channels and costs.

    P and the level confusion matrix B are Dirichlet(1,...,1) stochastic;
    the channels are B f_u(B) for the deflated sampling polynomials. Level
    measurement costs are zero, so the stage cost is the scaled belief
    entropy plus the per-action offset; the proxy cost ctilde has weight 1.
    Returns (P, B, channels, costs).
    """
    check_integer("X", X, 1)
    rng = np.random.default_rng(check_seed(seed))
    P = rng.dirichlet(np.ones(X), size=X)
    B = rng.dirichlet(np.ones(X), size=X)
    polys = example2_polynomials()
    hierarchy = HierarchyModel(validate_stochastic(B),
                               N=max(f.degree for f in polys))
    channels = tuple(intent_channel(hierarchy, f) for f in polys)
    costs = CostSpec.intent(
        level_costs=np.zeros(polys[-1].coefficients.size),
        betas=polys,
        entropy_weights=EXAMPLE2_GAMMA1,
        offsets=EXAMPLE2_GAMMA2,
        ctilde_weight=1.0,
    )
    return validate_stochastic(P), B, channels, costs


def example2_model(rho: float, X: int = 20, seed=0) -> PollingModel:
    """Large randomized intent-polling benchmark (single (P, B) draw)."""
    P, _, channels, costs = example2_parts(X, seed)
    return PollingModel(P=P, channels=channels, costs=costs, rho=rho)
