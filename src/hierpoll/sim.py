"""Monte Carlo rollout of the controlled hidden-Markov process and the
optimality-loss metrics.

Discounting follows the planning convention: the stage cost at step k is
C(pi_k, u_k) with u_k = policy(pi_k) charged before the transition, weighted
by rho^k from k = 0. Every run draws its uniforms from a stream keyed by
(seed, run index), so runs are individually reproducible and independent of
batch size or execution order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedCTilde
from .pomdp import (
    CostSpec,
    GridValueFunction,
    Lookahead,
    PollingModel,
    bayes_update,
    cost_matrix,
    max_stage_cost,
    value_iteration,
)


# ----------------------------------------------------------------- policies
class MyopicPolicy:
    """Minimize the instantaneous cost; ties go to the smaller action."""

    def actions(self, PI: np.ndarray, model: PollingModel) -> np.ndarray:
        return np.argmin(cost_matrix(PI, model.costs), axis=1) + 1


class FixedPolicy:
    def __init__(self, u: int):
        self.u = int(u)

    def actions(self, PI: np.ndarray, model: PollingModel) -> np.ndarray:
        if not 1 <= self.u <= model.n_actions:
            raise ValueError(f"fixed action {self.u} outside 1..{model.n_actions}")
        return np.full(PI.shape[0], self.u, dtype=int)


class GridPolicy:
    """Greedy one-step lookahead on an interpolated grid value function."""

    def __init__(self, gvf: GridValueFunction):
        self.gvf = gvf

    def actions(self, PI: np.ndarray, model: PollingModel) -> np.ndarray:
        Q = Lookahead(model, self.gvf.grid, PI).q_values(self.gvf.values)
        return np.argmin(Q, axis=1) + 1


# ------------------------------------------------------------------ rollout
@dataclass(frozen=True)
class Trajectory:
    """One rollout: x_k, u_k, y_k, pi_k, stage costs, discount weights."""

    states: np.ndarray        # (horizon+1,) hidden states, x_0 first
    actions: np.ndarray       # (horizon,) 1-based, u_k = policy(pi_k)
    observations: np.ndarray  # (horizon,) symbol generated by u_k
    beliefs: np.ndarray       # (horizon+1, X), pi_0 first
    costs: np.ndarray         # (horizon,) C(pi_k, u_k)
    discounts: np.ndarray     # (horizon,) rho^k

    @property
    def horizon(self) -> int:
        return self.actions.size

    @property
    def discounted_cost(self) -> float:
        return float(self.costs @ self.discounts)


def _uniform_streams(seed: int, runs: int, horizon: int) -> np.ndarray:
    draws = np.empty((runs, 1 + 2 * horizon))
    for r in range(runs):
        draws[r] = np.random.default_rng([int(seed), r]).random(1 + 2 * horizon)
    return draws


def _sample_categorical(cum_rows: np.ndarray, row_idx: np.ndarray,
                        uniforms: np.ndarray) -> np.ndarray:
    return (cum_rows[row_idx] < uniforms[:, None]).sum(axis=1)


def _rollout(model: PollingModel, policy, pi0: np.ndarray, horizon: int,
             seed: int, runs: int, stage_values=None, record: bool = False):
    """Vectorized simulation of `runs` independent rollouts.

    stage_values(PI, actions) overrides the recorded per-step cost (used by
    the proxy-bound metric); the dynamics are unaffected.
    """
    X = model.n_states
    draws = _uniform_streams(seed, runs, horizon)
    cumP = np.cumsum(model.P.entries, axis=1)
    cumO = [np.cumsum(model.observation(u), axis=1) for u in range(1, model.n_actions + 1)]

    x = (np.cumsum(pi0)[None, :] < draws[:, 0:1]).sum(axis=1)
    PI = np.tile(pi0, (runs, 1))
    costs = np.empty((runs, horizon))
    if record:
        states = np.empty((runs, horizon + 1), dtype=int)
        actions = np.empty((runs, horizon), dtype=int)
        observations = np.empty((runs, horizon), dtype=int)
        beliefs = np.empty((runs, horizon + 1, X))
        states[:, 0] = x
        beliefs[:, 0] = PI

    for k in range(horizon):
        a = policy.actions(PI, model)
        if stage_values is None:
            allc = cost_matrix(PI, model.costs)
            costs[:, k] = np.take_along_axis(allc, (a - 1)[:, None], axis=1)[:, 0]
        else:
            costs[:, k] = stage_values(PI, a)
        x_next = _sample_categorical(cumP, x, draws[:, 1 + 2 * k])
        y = np.empty(runs, dtype=int)
        O_sel = np.empty((runs, X))
        for u in np.unique(a):
            mask = a == u
            y[mask] = _sample_categorical(cumO[u - 1], x_next[mask],
                                          draws[mask, 2 + 2 * k])
            O_sel[mask] = model.observation(u)[:, y[mask]].T
        PI, _ = bayes_update(PI @ model.P.entries, O_sel)
        x = x_next
        if record:
            states[:, k + 1] = x
            actions[:, k] = a
            observations[:, k] = y
            beliefs[:, k + 1] = PI

    out = {"costs": costs}
    if record:
        out.update(states=states, actions=actions, observations=observations,
                   beliefs=beliefs)
    return out


def simulate(model: PollingModel, policy, pi0, horizon: int, seed: int,
             run_index: int = 0) -> Trajectory:
    """Single reproducible rollout; identical to run `run_index` of a batch."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pi0 = np.asarray(pi0, dtype=float)
    data = _rollout(model, policy, pi0, horizon, seed, runs=run_index + 1,
                    record=True)
    r = run_index
    return Trajectory(
        states=data["states"][r],
        actions=data["actions"][r],
        observations=data["observations"][r],
        beliefs=data["beliefs"][r],
        costs=data["costs"][r],
        discounts=model.rho ** np.arange(horizon),
    )


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of the discounted cost from a fixed start."""

    mean: float
    stderr: float
    runs: int
    horizon: int
    seed: int
    truncation_bias: float

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.stderr < 0:
            raise ValueError("standard error must be nonnegative")


def _discounted_totals(model, costs: np.ndarray) -> np.ndarray:
    weights = model.rho ** np.arange(costs.shape[1])
    return costs @ weights


def estimate_cost(model: PollingModel, policy, pi0, horizon: int, runs: int,
                  seed: int, stage_values=None) -> CostEstimate:
    """Mean discounted cost over seeded independent rollouts.

    The reported truncation bias bounds the discarded tail:
    rho^horizon * max stage cost / (1 - rho).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    pi0 = np.asarray(pi0, dtype=float)
    data = _rollout(model, policy, pi0, horizon, seed, runs,
                    stage_values=stage_values)
    totals = _discounted_totals(model, data["costs"])
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    bias = (model.rho ** horizon) * max_stage_cost(model.costs, model.n_states) \
        / (1.0 - model.rho)
    return CostEstimate(mean=mean, stderr=stderr, runs=runs, horizon=horizon,
                        seed=seed, truncation_bias=float(bias))


# -------------------------------------------------------------- loss metrics
def uniform_belief(X: int) -> np.ndarray:
    return np.full(X, 1.0 / X)


def l1_components(model: PollingModel, M: int, runs: int, horizon: int,
                  seed: int, pi0=None, vi_tol: float = 1e-8,
                  gvf: GridValueFunction | None = None):
    """The two cost estimates behind the optimality-loss ratio: the myopic
    policy and the grid-optimal policy, simulated with common random numbers
    so the Monte Carlo noise largely cancels."""
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    if gvf is None:
        gvf = value_iteration(model, M, tol=vi_tol)
    j_myopic = estimate_cost(model, MyopicPolicy(), pi0, horizon, runs, seed)
    j_star = estimate_cost(model, GridPolicy(gvf), pi0, horizon, runs, seed)
    return j_myopic, j_star


def loss_L1(model: PollingModel, M: int, runs: int, horizon: int, seed: int,
            pi0=None, optimal_from_dp: bool = False, vi_tol: float = 1e-8) -> float:
    """Relative excess cost of the myopic policy over the grid-optimal policy.

    By default both policies are simulated; optionally the optimal cost is
    read off the dynamic-programming solution instead.
    """
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    if optimal_from_dp:
        gvf = value_iteration(model, M, tol=vi_tol)
        j_myopic = estimate_cost(model, MyopicPolicy(), pi0, horizon, runs, seed)
        j_star = gvf.interpolate(pi0)
        return (j_myopic.mean - j_star) / j_star
    j_myopic, j_opt = l1_components(model, M, runs, horizon, seed, pi0, vi_tol)
    return (j_myopic.mean - j_opt.mean) / j_opt.mean


def ctilde_values(PI, costs: CostSpec) -> np.ndarray:
    """Piecewise stage proxy: the action-1 cost where action 1 is strictly
    cheapest, otherwise the action-U cost plus a weighted action-1
    uncertainty term."""
    PI = np.atleast_2d(np.asarray(PI, dtype=float))
    allc = cost_matrix(PI, costs)
    if costs.num_actions == 1:
        return allc[:, 0]
    in_s1 = allc[:, 0] < allc[:, 1:].min(axis=1)
    if costs.variant == "intent":
        if costs.ctilde_weight is None:
            raise UndefinedCTilde(
                "intent costs need an explicit ctilde_weight for the proxy bound")
        weight = float(costs.ctilde_weight)
        from .pomdp import _entropy_bits
        eta1 = costs.entropy_weights[0] * _entropy_bits(PI) + costs.offsets[0]
    else:
        weight = float(costs.ctilde_weight) if costs.ctilde_weight is not None \
            else float(costs.error_weights[0])
        eta1 = costs.error_weights[0] * (1.0 - np.einsum("ij,ij->i", PI, PI))
    return np.where(in_s1, allc[:, 0], allc[:, -1] + weight * eta1)


def l2_components(model: PollingModel, runs: int, horizon: int, seed: int,
                  pi0=None, baseline_policy=None):
    """Cost estimates behind the proxy-bound ratio: the myopic policy's cost
    and the piecewise proxy accumulated along baseline-policy trajectories."""
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    baseline = MyopicPolicy() if baseline_policy is None else baseline_policy
    j_myopic = estimate_cost(model, MyopicPolicy(), pi0, horizon, runs, seed)
    j_tilde = estimate_cost(model, baseline, pi0, horizon, runs, seed,
                            stage_values=lambda PI, a: ctilde_values(PI, model.costs))
    return j_myopic, j_tilde


def loss_L2(model: PollingModel, runs: int, horizon: int, seed: int,
            pi0=None, baseline_policy=None) -> float:
    """Relative excess of the myopic cost over the piecewise proxy cost.

    The proxy accumulates ctilde along trajectories of the baseline policy
    (myopic unless stated otherwise), which keeps the metric computable when
    the grid-optimal policy is out of reach.
    """
    j_myopic, j_tilde = l2_components(model, runs, horizon, seed, pi0,
                                      baseline_policy)
    return (j_myopic.mean - j_tilde.mean) / j_tilde.mean
