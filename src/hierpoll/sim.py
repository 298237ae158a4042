"""Monte Carlo rollout of the controlled hidden-Markov process and the
optimality-loss metrics.

A rollout reads no discount factor: it records the stage cost C(pi_k, u_k),
with u_k = policy(pi_k) charged before the transition, and on request the
piecewise proxy ctilde(pi_k) of the same step. rho enters only in the summary,
which weights step k by rho^k from k = 0, so one rollout serves every rho.
Every run draws its uniforms from a stream keyed by (seed, run index), so
runs are individually reproducible and independent of batch size or
execution order: run r's stream is `np.random.default_rng([seed, r])`. A
rollout builds its runs x (1 + 2 horizon) uniforms up front unless its
caller passes them: `l1_components` draws them once for all of its rollouts
and frees them when the sweep returns. On `example1` that runs in 0.486 s
against 0.553 s for one array per rollout, with 15.6k against 13.8k minor
page faults and 41.95 against 41.77 MB peak RSS (medians of 8 alternating
pairs in the benchmark's child process, 2-vCPU x86-64 host). A shared array
once made `example1` 10-40% slower, with 364k faults, as glibc served the
~150 KB per-step temporaries from fresh mappings. Pinning glibc's mmap
threshold at 128 KB (MALLOC_MMAP_THRESHOLD_) still brings that back for
either variant, so it is the arrays the sweep frees before its grid
rollouts that now raise the threshold.
Symbols are drawn from, and filtered with, the model's
(U, X, Y_max) likelihood tensor. Draws count the cumulative law below each
uniform, with the laws held categories first (one column per state, or per
action and state), so a step's draws are one `take` of columns and one sum
over a leading axis. Every cumulative law is +inf from its last category of
positive probability on: a uniform at or above a row's mass, which a valid
row leaves up to ROW_SUM_TOL below 1, lands there, and zero padding is
never drawn. A policy keeps nothing between calls: each step it returns a
`Step` of the actions, stage costs C and uncertainty h of its belief rows,
which the rollout charges and hands to ctilde, so h is formed once; and,
if it formed them to choose, as the grid policy does, every action's and
symbol's posteriors, from which the rollout takes the next beliefs instead
of filtering. `l1_components` rolls the grid policy out for every rho but
0, where it acts and costs as the myopic policy on the only step that counts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidAction, InvalidArgument, UndefinedCTilde
from .pomdp import (
    CostSpec,
    GridValueFunction,
    Lookahead,
    PollingModel,
    bayes_update,
    max_stage_cost,
    value_iteration,
)
from .stochastic import _is_integer, check_integer, check_seed


# ----------------------------------------------------------------- policies
class Step(NamedTuple):
    """A policy's answer for n belief rows PI: its actions, C =
    cost_matrix(PI, model.costs) and h = model.costs.uncertainty(PI); and,
    if it formed them, the posteriors of every action and symbol, states
    first as `Lookahead.T`, which the rollout then takes instead of filtering."""

    actions: np.ndarray                     # (n,) 1-based
    C: np.ndarray                           # (n, U)
    h: np.ndarray                           # (n,)
    posteriors: np.ndarray | None = None    # (X, U, Y_max, n)


class MyopicPolicy:
    """Minimize the instantaneous cost; ties go to the smaller action."""

    def actions(self, PI: np.ndarray, model: PollingModel) -> Step:
        h = model.costs.uncertainty(PI)
        C = model.costs.stage_costs(h)
        return Step(np.argmin(C, axis=1) + 1, C, h)


class FixedPolicy:
    """Always poll with action u, an integer >= 1 (not a bool), else
    InvalidAction; an action above the model's U raises InvalidAction at
    the first step."""

    def __init__(self, u: int):
        if not _is_integer(u, 1):
            raise InvalidAction(f"fixed action must be an integer >= 1, got {u!r}")
        self.u = int(u)

    def actions(self, PI: np.ndarray, model: PollingModel) -> Step:
        if not 1 <= self.u <= model.n_actions:
            raise InvalidAction(f"fixed action {self.u} outside 1..{model.n_actions}")
        h = model.costs.uncertainty(PI)
        return Step(np.full(PI.shape[0], self.u, dtype=int), model.costs.stage_costs(h), h)


class GridPolicy:
    """Greedy one-step lookahead on an interpolated grid value function."""

    def __init__(self, gvf: GridValueFunction):
        self.gvf = gvf

    def actions(self, PI: np.ndarray, model: PollingModel) -> Step:
        la = Lookahead(model, self.gvf.grid, PI)
        return Step(np.argmin(la.q_values(self.gvf.values), axis=1) + 1, la.C, la.h, la.T)


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
    """Row i holds `default_rng([seed, run_ids[i]]).random(1 + 2 horizon)`,
    each run's generator drawing straight into its row."""
    check_seed([seed, *run_ids])
    draws = np.empty((len(run_ids), 1 + 2 * horizon))
    for row, r in zip(draws, run_ids):
        np.random.default_rng([seed, r]).random(out=row)
    return draws


def _cumulative_law(probabilities: np.ndarray, axis: int) -> np.ndarray:
    """Cumulative sums along `axis`, +inf from the first category at which a
    row reaches its total. A validated row may sum to 1 - ROW_SUM_TOL, and a
    uniform at or above that mass then falls in the row's last category of
    positive probability, never past it or on a padded symbol; draws below
    the mass are unchanged."""
    cum = np.cumsum(probabilities, axis=axis)
    cum[cum >= np.take(cum, [-1], axis=axis)] = np.inf
    return cum


def _sample_categorical(cum_columns: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One category per uniform, from cumulative laws held categories first,
    one column per draw."""
    return (cum_columns < uniforms).sum(axis=0)


def _rollout(model: PollingModel, policy, pi0: np.ndarray, horizon: int,
             seed: int, runs, proxy: bool = False, record: bool = False,
             streams: np.ndarray | None = None):
    """Vectorized simulation of independent rollouts, `runs` being a run
    count or the run indices to draw. Reads no discount factor: returns the
    (runs, horizon) stage costs, with `proxy` also ctilde at the same steps.
    pi0 is checked by PollingModel.check_belief. `streams`, when given, must be
    `_uniform_streams(seed, runs, horizon)`, which is then not drawn again;
    another shape raises InvalidArgument.
    """
    check_integer("horizon", horizon, 1)
    X = model.n_states
    pi0 = model.check_belief(pi0)
    runs = range(check_integer("runs", runs, 1)) if np.isscalar(runs) else runs
    check_integer("the number of runs", len(runs), 1)
    if streams is None:
        draws = _uniform_streams(seed, runs, horizon)
    elif np.shape(streams) != (len(runs), 1 + 2 * horizon):
        raise InvalidArgument(f"streams of shape {np.shape(streams)} for {len(runs)} "
                              f"runs of horizon {horizon}")
    else:
        draws = streams
    runs = draws.shape[0]
    U, _, Y = model.likelihoods.shape
    # categories first: column i of cumP is state i's law, column (u-1) X + i
    # of cumO that of action u's symbols from state i
    cumP = np.ascontiguousarray(_cumulative_law(model.P.entries, 1).T)
    cumO = np.ascontiguousarray(
        _cumulative_law(model.likelihoods, 2).transpose(2, 0, 1)).reshape(Y, U * X)

    x = _sample_categorical(_cumulative_law(pi0, 0)[:, None], draws[:, 0])
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

    rows = np.arange(runs)
    for k in range(horizon):
        step = policy.actions(PI, model)
        a = step.actions - 1                                # 0-based from here
        out["costs"][:, k] = step.C[rows, a]
        if proxy:
            out["ctilde"][:, k] = ctilde_values(PI, model.costs, step.C, step.h)
        x = _sample_categorical(cumP.take(x, axis=1), draws[:, 1 + 2 * k])
        y = _sample_categorical(cumO.take(a * X + x, axis=1), draws[:, 2 + 2 * k])
        if step.posteriors is None:
            PI = bayes_update((PI @ model.P.entries).T,
                              model.likelihoods[a, :, y].T)[0].T
        else:  # the chosen action's and symbol's posterior, in C-ordered rows:
            # h's einsum rounds by layout, and on rows it matches one belief's
            PI = step.posteriors.reshape(X, -1).take((a * Y + y) * runs + rows, axis=1).T.copy()
        if record:
            out["states"][:, k + 1] = x
            out["actions"][:, k] = a + 1
            out["observations"][:, k] = y
            out["beliefs"][:, k + 1] = PI
        del step  # never two steps' posteriors alive at once, which would raise peak RSS
    return out


def simulate(model: PollingModel, policy, pi0, horizon: int, seed: int,
             run_index: int = 0) -> Trajectory:
    """Single reproducible rollout; identical to run `run_index` of a batch."""
    data = _rollout(model, policy, pi0, horizon, seed, runs=[run_index], record=True)
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
        check_integer("runs", self.runs, 1)
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
                  seed: int, *, streams: np.ndarray | None = None) -> CostEstimate:
    """Mean discounted cost over seeded independent rollouts. A caller that
    rolls out several policies on the same runs may pass their uniforms,
    `_uniform_streams(seed, range(runs), horizon)`, as `streams`, drawn once."""
    costs = _rollout(model, policy, pi0, horizon, seed, runs, streams=streams)["costs"]
    return _summary(model, costs, model.rho, seed)


# -------------------------------------------------------------- loss metrics
def uniform_belief(X: int) -> np.ndarray:
    check_integer("X", X, 1)
    return np.full(X, 1.0 / X)


def loss_ratio(j: CostEstimate, j_ref: CostEstimate) -> tuple[float, float]:
    """Relative excess (J - J_ref) / J_ref and its standard error, the two
    estimates' errors combined as if independent. A reference mean of 0
    raises InvalidArgument."""
    if j_ref.mean == 0:
        raise InvalidArgument("the reference cost estimate has mean 0, "
                              "so the relative excess is undefined")
    value = (j.mean - j_ref.mean) / j_ref.mean
    return value, float(np.hypot(j.stderr, j_ref.stderr) / j_ref.mean)


def l1_components(model: PollingModel, rhos, M: int, runs: int, horizon: int,
                  seed: int, pi0=None, solve=None):
    """Per rho in `rhos`, the myopic and grid-optimal cost estimates behind
    the optimality-loss ratio, on common random numbers so the Monte Carlo
    noise largely cancels. One rho-free myopic rollout serves every rho, which
    enters only in the discounting; the grid policy, solved per rho by
    `solve(model)` (value iteration by default), is rolled out once per rho
    but rho = 0. There its lookahead adds 0 * (...) to the stage cost, so it
    takes the myopic actions, and the summary reads step 0 alone: its
    estimate is the myopic one, bit for bit."""
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    streams = _uniform_streams(seed, range(check_integer("runs", runs, 1)),
                               check_integer("horizon", horizon, 1))
    costs = _rollout(model, MyopicPolicy(), pi0, horizon, seed, runs,
                     streams=streams)["costs"]
    j_myopic = [_summary(model, costs, rho, seed) for rho in rhos]
    del costs  # freed before value iteration runs
    out = []
    for rho, jb in zip(rhos, j_myopic):
        at_rho = replace(model, rho=rho)
        gvf = value_iteration(at_rho, M) if solve is None else solve(at_rho)
        out.append((jb, jb if rho == 0 else
                    estimate_cost(at_rho, GridPolicy(gvf), pi0, horizon, runs, seed,
                                  streams=streams)))
    return out


def loss_L1(model: PollingModel, M: int, runs: int, horizon: int, seed: int,
            pi0=None) -> float:
    """Relative excess cost of the myopic policy over the grid-optimal policy,
    both simulated on common random numbers."""
    (components,) = l1_components(model, [model.rho], M, runs, horizon, seed, pi0)
    return loss_ratio(*components)[0]


def ctilde_values(PI, costs: CostSpec, allc=None, h=None) -> np.ndarray:
    """Piecewise stage proxy: the action-1 cost where action 1 is strictly
    cheapest, otherwise the action-U cost plus a weighted action-1
    uncertainty term. `allc` and `h`, when given, are cost_matrix(PI, costs)
    and costs.uncertainty of the rows of PI."""
    PI = np.atleast_2d(np.asarray(PI, dtype=float))
    h = costs.uncertainty(PI) if h is None else h
    allc = costs.stage_costs(h) if allc is None else allc
    if costs.num_actions == 1:
        return allc[:, 0]
    in_s1 = allc[:, 0] < allc[:, 1:].min(axis=1)
    if costs.ctilde_weight is None and costs.variant == "intent":
        raise UndefinedCTilde(
            "intent costs need an explicit ctilde_weight for the proxy bound")
    weight = float(costs.weights[0] if costs.ctilde_weight is None else costs.ctilde_weight)
    eta1 = costs.weights[0] * h + costs.offsets[0]
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
