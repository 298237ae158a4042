"""Monte Carlo rollout of the controlled hidden-Markov process and the
optimality-loss metrics.

A rollout reads no discount factor: it records the stage cost C(pi_k, u_k),
with u_k = policy(pi_k) charged before the transition, and on request the
piecewise proxy ctilde(pi_k) of the same step. rho enters only in the summary,
which weights step k by rho^k from k = 0, so one rollout serves every rho.
Every run draws its uniforms from a stream keyed by (seed, run index), so
runs are individually reproducible and independent of batch size or
execution order. Symbols are drawn from, and filtered with, the model's
(U, X, Y_max) likelihood tensor, whose zero padding is never drawn. A
grid-policy step reads its stage costs and filtered beliefs from the
policy's `Lookahead`, which holds them for every action and symbol.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidAction, InvalidArgument, UndefinedCTilde
from .pomdp import (
    CostSpec,
    GridValueFunction,
    Lookahead,
    PollingModel,
    bayes_update,
    cost_matrix,
    max_stage_cost,
    myopic_policy,
    value_iteration,
)


# ----------------------------------------------------------------- policies
class MyopicPolicy:
    """Minimize the instantaneous cost; ties go to the smaller action."""

    def actions(self, PI: np.ndarray, model: PollingModel) -> np.ndarray:
        return myopic_policy(PI, model.costs)


class FixedPolicy:
    def __init__(self, u: int):
        self.u = int(u)

    def actions(self, PI: np.ndarray, model: PollingModel) -> np.ndarray:
        if not 1 <= self.u <= model.n_actions:
            raise InvalidAction(f"fixed action {self.u} outside 1..{model.n_actions}")
        return np.full(PI.shape[0], self.u, dtype=int)


class GridPolicy:
    """Greedy one-step lookahead on an interpolated grid value function.

    Keeps the `Lookahead` of its last call, from which a rollout takes the
    step's stage costs and next beliefs instead of forming them again; so one
    instance serves one rollout at a time.
    """

    def __init__(self, gvf: GridValueFunction):
        self.gvf = gvf
        self.lookahead: Lookahead | None = None

    def actions(self, PI: np.ndarray, model: PollingModel) -> np.ndarray:
        self.lookahead = None  # never two alive at once, which would raise peak RSS
        self.lookahead = Lookahead(model, self.gvf.grid, PI)
        return np.argmin(self.lookahead.q_values(self.gvf.values), axis=1) + 1


# ------------------------------------------------------------------ rollout
@dataclass(frozen=True)
class Trajectory:
    """One rollout: x_k, u_k, y_k, pi_k and stage costs."""

    states: np.ndarray        # (horizon+1,) hidden states, x_0 first
    actions: np.ndarray       # (horizon,) 1-based, u_k = policy(pi_k)
    observations: np.ndarray  # (horizon,) symbol generated by u_k
    beliefs: np.ndarray       # (horizon+1, X), pi_0 first
    costs: np.ndarray         # (horizon,) C(pi_k, u_k)

    @property
    def horizon(self) -> int:
        return self.actions.size


def _uniform_streams(seed: int, run_ids, horizon: int) -> np.ndarray:
    draws = np.empty((len(run_ids), 1 + 2 * horizon))
    for i, r in enumerate(run_ids):
        draws[i] = np.random.default_rng([int(seed), r]).random(1 + 2 * horizon)
    return draws


def _sample_categorical(cum_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    return (cum_rows < uniforms[:, None]).sum(axis=-1)


def _rollout(model: PollingModel, policy, pi0: np.ndarray, horizon: int,
             seed: int, runs, proxy: bool = False, record: bool = False):
    """Vectorized simulation of independent rollouts, `runs` being a run
    count or the run indices to draw. Reads no discount factor: returns the
    (runs, horizon) stage costs, with `proxy` also ctilde at the same steps.
    """
    if horizon < 1:
        raise InvalidArgument("horizon must be >= 1")
    draws = _uniform_streams(seed, range(runs) if np.isscalar(runs) else runs,
                             horizon)
    runs, X = draws.shape[0], model.n_states
    if runs < 1:
        raise InvalidArgument("runs must be >= 1")
    cumP = np.cumsum(model.P.entries, axis=1)
    cumO = np.cumsum(model.likelihoods, axis=2)

    x = _sample_categorical(np.cumsum(pi0), draws[:, 0])
    PI = np.tile(pi0, (runs, 1))
    out = {"costs": np.empty((runs, horizon))}
    if proxy:
        out["ctilde"] = np.empty((runs, horizon))
    if record:
        out.update(states=np.empty((runs, horizon + 1), dtype=int),
                   actions=np.empty((runs, horizon), dtype=int),
                   observations=np.empty((runs, horizon), dtype=int),
                   beliefs=np.empty((runs, horizon + 1, X)))
        out["states"][:, 0] = x
        out["beliefs"][:, 0] = PI

    grid, rows = isinstance(policy, GridPolicy), np.arange(runs)
    for k in range(horizon):
        a = policy.actions(PI, model)
        allc = policy.lookahead.C if grid else cost_matrix(PI, model.costs)
        out["costs"][:, k] = np.take_along_axis(allc, (a - 1)[:, None], axis=1)[:, 0]
        if proxy:
            out["ctilde"][:, k] = ctilde_values(PI, model.costs, allc)
        x = _sample_categorical(cumP[x], draws[:, 1 + 2 * k])
        y = _sample_categorical(cumO[a - 1, x], draws[:, 2 + 2 * k])
        if grid:  # the lookahead's posterior for the chosen action and symbol
            PI = policy.lookahead.T[:, a - 1, y, rows].T
        else:
            PI = bayes_update((PI @ model.P.entries).T,
                              model.likelihoods[a - 1, :, y].T)[0].T
        if record:
            out["states"][:, k + 1] = x
            out["actions"][:, k] = a
            out["observations"][:, k] = y
            out["beliefs"][:, k + 1] = PI
    return out


def simulate(model: PollingModel, policy, pi0, horizon: int, seed: int,
             run_index: int = 0) -> Trajectory:
    """Single reproducible rollout; identical to run `run_index` of a batch."""
    data = _rollout(model, policy, np.asarray(pi0, dtype=float), horizon, seed,
                    runs=[run_index], record=True)
    return Trajectory(**{name: rows[0] for name, rows in data.items()})


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
            raise InvalidArgument("need at least one run")
        if self.stderr < 0:
            raise InvalidArgument("standard error must be nonnegative")


def _summary(model: PollingModel, costs: np.ndarray, rho: float,
             seed: int) -> CostEstimate:
    """Mean discounted total of (runs, horizon) stage costs at discount rho.

    The reported truncation bias bounds the discarded tail:
    rho^horizon * max stage cost / (1 - rho).
    """
    runs, horizon = costs.shape
    totals = costs @ rho ** np.arange(horizon)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    bias = (rho ** horizon) * max_stage_cost(model.costs, model.n_states) / (1.0 - rho)
    return CostEstimate(mean=mean, stderr=stderr, runs=runs, horizon=horizon,
                        seed=seed, truncation_bias=float(bias))


def estimate_cost(model: PollingModel, policy, pi0, horizon: int, runs: int,
                  seed: int) -> CostEstimate:
    """Mean discounted cost over seeded independent rollouts."""
    costs = _rollout(model, policy, np.asarray(pi0, dtype=float), horizon, seed,
                     runs)["costs"]
    return _summary(model, costs, model.rho, seed)


# -------------------------------------------------------------- loss metrics
def uniform_belief(X: int) -> np.ndarray:
    return np.full(X, 1.0 / X)


def loss_ratio(j: CostEstimate, j_ref: CostEstimate) -> tuple[float, float]:
    """Relative excess (J - J_ref) / J_ref and its standard error, the two
    estimates' errors combined as if independent."""
    value = (j.mean - j_ref.mean) / j_ref.mean
    return value, float(np.hypot(j.stderr, j_ref.stderr) / j_ref.mean)


def l1_components(model: PollingModel, rhos, M: int, runs: int, horizon: int,
                  seed: int, pi0=None, solve=None):
    """Per rho in `rhos`, the myopic and grid-optimal cost estimates behind
    the optimality-loss ratio, on common random numbers so the Monte Carlo
    noise largely cancels. One rho-free myopic rollout serves every rho, which
    enters only in the discounting; the grid policy, solved per rho by
    `solve(model)` (value iteration by default), is rolled out once per rho."""
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    costs = _rollout(model, MyopicPolicy(), pi0, horizon, seed, runs)["costs"]
    j_myopic = [_summary(model, costs, rho, seed) for rho in rhos]
    del costs  # freed before value iteration runs
    out = []
    for rho, jb in zip(rhos, j_myopic):
        at_rho = replace(model, rho=rho)
        gvf = value_iteration(at_rho, M) if solve is None else solve(at_rho)
        out.append((jb, estimate_cost(at_rho, GridPolicy(gvf), pi0, horizon, runs, seed)))
    return out


def loss_L1(model: PollingModel, M: int, runs: int, horizon: int, seed: int,
            pi0=None) -> float:
    """Relative excess cost of the myopic policy over the grid-optimal policy,
    both simulated on common random numbers."""
    (components,) = l1_components(model, [model.rho], M, runs, horizon, seed, pi0)
    return loss_ratio(*components)[0]


def ctilde_values(PI, costs: CostSpec, allc=None) -> np.ndarray:
    """Piecewise stage proxy: the action-1 cost where action 1 is strictly
    cheapest, otherwise the action-U cost plus a weighted action-1
    uncertainty term. `allc`, when given, is cost_matrix(PI, costs)."""
    PI = np.atleast_2d(np.asarray(PI, dtype=float))
    if allc is None:
        allc = cost_matrix(PI, costs)
    if costs.num_actions == 1:
        return allc[:, 0]
    in_s1 = allc[:, 0] < allc[:, 1:].min(axis=1)
    if costs.ctilde_weight is None and costs.variant == "intent":
        raise UndefinedCTilde(
            "intent costs need an explicit ctilde_weight for the proxy bound")
    weight = float(costs.weights[0] if costs.ctilde_weight is None else costs.ctilde_weight)
    eta1 = costs.weights[0] * costs.uncertainty(PI) + costs.offsets[0]
    return np.where(in_s1, allc[:, 0], allc[:, -1] + weight * eta1)


def l2_components(model: PollingModel, rhos, runs: int, horizon: int, seed: int,
                  pi0=None):
    """Per rho in `rhos`, the myopic policy's cost and the piecewise proxy
    accumulated along the same trajectories, behind the proxy-bound ratio.
    One rho-free myopic rollout records both; rho enters only in the
    discounting."""
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    data = _rollout(model, MyopicPolicy(), pi0, horizon, seed, runs, proxy=True)
    return [(_summary(model, data["costs"], rho, seed),
             _summary(model, data["ctilde"], rho, seed)) for rho in rhos]


def loss_L2(model: PollingModel, runs: int, horizon: int, seed: int,
            pi0=None) -> float:
    """Relative excess of the myopic cost over the piecewise proxy cost.

    The proxy accumulates ctilde along myopic trajectories, which keeps the
    metric computable when the grid-optimal policy is out of reach.
    """
    (components,) = l2_components(model, [model.rho], runs, horizon, seed, pi0)
    return loss_ratio(*components)[0]
