"""Monte Carlo rollout of the controlled hidden-Markov process and the
optimality-loss metrics.

A rollout reads no discount factor: it records the stage cost C(pi_k, u_k),
with u_k = policy(pi_k) charged before the transition, and on request the
piecewise proxy ctilde(pi_k) of the same step. rho enters only in the summary,
which weights step k by rho^k from k = 0, so one rollout serves every rho.
Every run draws its uniforms from a stream keyed by (seed, run index), so
runs are individually reproducible and independent of batch size or
execution order. Run r's stream is `np.random.default_rng([seed, r])`:
numpy's SeedSequence hashes the 32-bit words of seed and r into four 64-bit
words, which seed PCG64. `_uniform_streams` reproduces that hash with uint32
array arithmetic over many runs at once, and only loads each run's PCG64
state and draws per run. A rollout builds its runs x (1 + 2 horizon)
uniforms up front unless its caller passes them: `l1_components` draws them
once for all of its rollouts and frees them when the sweep returns. On
`example1` that runs in 0.486 s against 0.553 s for one array per rollout,
with 15.6k against 13.8k minor page faults and 41.95 against 41.77 MB peak
RSS (medians of 8 alternating pairs in the benchmark's child process, 2-vCPU
x86-64 host). A shared array once made `example1` 10-40% slower, with 364k
faults, as glibc served the ~150 KB per-step temporaries from fresh
mappings. Pinning glibc's mmap threshold at 128 KB (MALLOC_MMAP_THRESHOLD_)
still brings that back for either variant, so it is the arrays the sweep
frees before its grid rollouts that now raise the threshold.
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

from .errors import InvalidAction, InvalidArgument, ModelShapeMismatch, UndefinedCTilde
from .pomdp import (
    CostSpec,
    GridValueFunction,
    Lookahead,
    PollingModel,
    bayes_update,
    max_stage_cost,
    validate_belief,
    value_iteration,
)
from .stochastic import check_seed


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
    """Always poll with action u, an integer (not a bool); an action outside
    the model's 1..U raises InvalidAction at the first step."""

    def __init__(self, u: int):
        if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
            raise InvalidAction(f"fixed action must be an integer, got {u!r}")
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


# numpy's SeedSequence hash (bit_generator.pyx) and PCG64 seeding (pcg64.h,
# pcg_setseq_128_srandom_r), which `default_rng([seed, r])` runs per run.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
# Runs hashed per pass. Bigger passes keep more temporaries alive at once:
# example1's peak RSS rose by about 0.07, 0.15 and 0.25 MB at 64, 256 and
# 1024, while a pass costs about 0.2 ms whatever its size.
_HASH_CHUNK = 256


def _entropy_words(n) -> list[int]:
    """A checked seed or run index as SeedSequence reads it: 32-bit words,
    least significant first, one word for 0."""
    n = int(n)
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(8, np.uint32)` for every row of an
    (n, width) uint32 entropy array, as one (n, 8) uint32 array. The hash
    constants step the same way whatever the data, so every row is hashed
    by the same sequence of uint32 array operations."""
    n, width = entropy.shape
    const, shift = _INIT_A, np.uint32(16)

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> shift)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> shift)

    zero = np.zeros(n, np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _INIT_B
    words = np.empty((n, 8), np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words[:, i] = value ^ (value >> shift)
    return words


def _uniform_streams(seed: int, run_ids, horizon: int) -> np.ndarray:
    """Row i holds `default_rng([seed, run_ids[i]]).random(1 + 2 horizon)`,
    bit for bit. Runs are hashed _HASH_CHUNK at a time, grouped by entropy
    length; then each run's PCG64 state is formed as `srandom_r` does,
    loaded into one reused generator and drawn straight into its row."""
    check_seed([seed, *run_ids])
    seed_words = _entropy_words(seed)
    # One array serves all of l1_components' rollouts: 0.486 against 0.553 s
    # for one per rollout on example1, with no return of the glibc-mapping
    # slowdown once measured for it (see the module docstring).
    draws = np.empty((len(run_ids), 1 + 2 * horizon))
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    for start in range(0, len(run_ids), _HASH_CHUNK):
        groups: dict[int, list[tuple[int, list[int]]]] = {}
        for i in range(start, min(start + _HASH_CHUNK, len(run_ids))):
            entropy = seed_words + _entropy_words(run_ids[i])
            groups.setdefault(len(entropy), []).append((i, entropy))
        for group in groups.values():
            rows, entropies = zip(*group)
            words = _seed_sequence_words(np.array(entropies, dtype=np.uint32))
            for i, run_words in zip(rows, words):
                # generate_state(4, np.uint64) pairs the words low first; the
                # first two uint64s are PCG64's initstate, the last two its
                # initseq, each high half first.
                w0, w1, w2, w3, w4, w5, w6, w7 = run_words.tolist()
                initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2
                initseq = (w5 << 96) | (w4 << 64) | (w7 << 32) | w6
                inc = ((initseq << 1) | 1) & _MASK128
                state = ((initstate + inc) * _PCG64_MULT + inc) & _MASK128
                bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                              "state": {"state": state, "inc": inc}}
                generator.random(out=draws[i])
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


def _check_count(name: str, n):
    """`n` if it is an integer >= 1 and not a bool; InvalidArgument otherwise."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgument(f"{name} must be an integer >= 1, got {n!r}")
    return n


def _rollout(model: PollingModel, policy, pi0: np.ndarray, horizon: int,
             seed: int, runs, proxy: bool = False, record: bool = False,
             streams: np.ndarray | None = None):
    """Vectorized simulation of independent rollouts, `runs` being a run
    count or the run indices to draw. Reads no discount factor: returns the
    (runs, horizon) stage costs, with `proxy` also ctilde at the same steps.
    pi0 must be one belief over the model's states: another shape raises
    ModelShapeMismatch, and a vector that is not a distribution fails as a
    row of a StochasticMatrix does. `streams`, when given, must be
    `_uniform_streams(seed, runs, horizon)`, which is then not drawn again;
    another shape raises InvalidArgument.
    """
    _check_count("horizon", horizon)
    X = model.n_states
    if np.shape(pi0) != (X,):
        raise ModelShapeMismatch(f"initial belief of shape {np.shape(pi0)} "
                                 f"for a {X}-state model")
    pi0 = validate_belief(pi0)
    if np.isscalar(runs):
        runs = range(_check_count("runs", runs))
    elif len(runs) < 1:
        raise InvalidArgument("runs must be >= 1")
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
                  seed: int, *, streams: np.ndarray | None = None) -> CostEstimate:
    """Mean discounted cost over seeded independent rollouts. A caller that
    rolls out several policies on the same runs may pass their uniforms,
    `_uniform_streams(seed, range(runs), horizon)`, as `streams`, drawn once."""
    costs = _rollout(model, policy, pi0, horizon, seed, runs, streams=streams)["costs"]
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
    `solve(model)` (value iteration by default), is rolled out once per rho
    but rho = 0. There its lookahead adds 0 * (...) to the stage cost, so it
    takes the myopic actions, and the summary reads step 0 alone: its
    estimate is the myopic one, bit for bit."""
    pi0 = uniform_belief(model.n_states) if pi0 is None else np.asarray(pi0, float)
    streams = _uniform_streams(seed, range(_check_count("runs", runs)),
                               _check_count("horizon", horizon))
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
