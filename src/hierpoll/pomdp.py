"""Belief-state planning for the polling decision process.

The hidden state evolves by a known Markov chain; each polling action u
selects an observation channel O(u) and incurs a belief-dependent concave
cost. This module provides the three cost families, the myopic policy,
value iteration on a regularly triangulated belief simplex, and verifiers
for the myopic upper bound, the model/policy sensitivity bounds, and
ordinal sensitivity across networks.

Two kernels carry all of the planning arithmetic. `bayes_update` is the
one Bayes step: the belief filter, the planner and the simulator all form
their posteriors with it. `Lookahead` is the one-step Bellman lookahead
Q(pi, u) = C(pi, u) + rho sum_y sigma_y(pi, u) V(T_y(pi, u)), with V
interpolated on the grid; value iteration, fixed-policy evaluation and the
greedy grid policy all apply it. Both read the channels as one zero-padded
(U, X, Y_max) array, `PollingModel.likelihoods`: a padded symbol has
likelihood 0 from every state, so it carries sigma = 0 and is never drawn.

Both kernels put the state axis first: `bayes_update` normalises over axis
0, and `Lookahead` lays out its posteriors and interpolation data as
(X, U, Y_max, n) for n beliefs. A sum over a few states is then a few
contiguous vector adds across all beliefs, where a short last axis would
cost a reduction per row; for X <= 7 numpy adds in the same order either
way, so the bits match. In the same way the stage costs C and the lookahead
costs Q are (n, U) views of action-first (U, n) arrays, so their broadcasts
and value iteration's min over actions run along the beliefs. A grid-policy
step (a `sim.Step`) carries its lookahead's stage costs, h and posteriors
to the rollout. Repairs that few batches need, a zero sigma in
`bayes_update` and a tie or an off-grid vertex in `interpolation_data`,
run only for a batch that has one.

Actions are 1-based everywhere (action 1 = most informative channel);
observation symbols are 0-based indices into a channel's output alphabet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .channels import Channel, _compositions, certify_channel_chain, certify_dominance, make_channel
from .errors import (
    BeliefOffGrid,
    GridTooLarge,
    InvalidAction,
    InvalidArgument,
    InvalidCostSpec,
    ModelShapeMismatch,
    NonConvergence,
    ZeroLikelihood,
)
from .stochastic import ConvexPolynomial, StochasticMatrix, _readonly, as_array, validate_stochastic

MAX_SWEEPS = 10 ** 5       # Bellman sweeps before NonConvergence
_VI_TOL = 1e-8             # sup-norm change at which sweeps stop
_MAX_POINTS = 300_000      # grid-size cap
_BOUND_SLACK = 1e-6        # numeric slack of the sensitivity verifiers' inequalities
OFF_GRID = -(1 << 40)      # rank-table sentinel; exceeds any grid size


def validate_belief(pi) -> np.ndarray:
    """`pi` as a float array, checked as the one row of a StochasticMatrix."""
    pi = np.asarray(pi, dtype=float)
    StochasticMatrix(pi[None])
    return pi


def _steps(v) -> np.ndarray:
    """Successive differences of v, without floating-point warnings: a step
    that overflows keeps its sign as +-inf, and a non-finite entry is left to
    the finiteness check that follows the ordering checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.diff(v)


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Per-action polling costs C(pi, u) = measurement_u + weights_u h(pi) + offsets_u.

    The variant only chooses the uncertainty h of the state estimate: the
    belief entropy in bits for intent polling, the quadratic estimation
    error 1 - pi'pi for expectation and friendship polling. Offsets are
    zero except for intent polling. Finite costs, monotone across actions
    (cheaper but noisier as u grows), are enforced at construction.
    """

    variant: str
    measurement: np.ndarray
    weights: np.ndarray | None = None
    offsets: np.ndarray | None = None             # intent; zeros otherwise
    level_costs: np.ndarray | None = None         # intent bookkeeping
    betas: tuple[ConvexPolynomial, ...] | None = None
    ctilde_weight: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "measurement",
                           np.asarray(self.measurement, dtype=float))
        U = self.measurement.size
        if U < 1:
            raise InvalidCostSpec("need at least one action")
        if self.ctilde_weight is not None and not math.isfinite(self.ctilde_weight):
            raise InvalidCostSpec(f"ctilde_weight must be finite, got {self.ctilde_weight}")
        if self.variant in ("expectation", "friendship"):
            if np.any(_steps(self.measurement) > 1e-12):
                raise InvalidCostSpec("measurement costs must be nonincreasing in u")
            if self.weights is None:
                raise InvalidCostSpec(f"{self.variant} costs need error weights")
            w = np.asarray(self.weights, dtype=float)
            if w.size != U:
                raise InvalidCostSpec("one error weight per action required")
            if np.any(_steps(w) <= 0):
                raise InvalidCostSpec("error weights must be strictly increasing in u")
            g2 = np.zeros(U)
        elif self.variant == "intent":
            if self.weights is None or self.offsets is None:
                raise InvalidCostSpec("intent costs need entropy weights and offsets")
            w = np.asarray(self.weights, dtype=float)
            g2 = np.asarray(self.offsets, dtype=float)
            if w.size != U or g2.size != U:
                raise InvalidCostSpec("per-action weight vectors must match U")
            if np.any(w <= 0) or np.any(g2 <= 0):
                raise InvalidCostSpec("intent weights must be positive")
            if np.any(_steps(w) >= 0):
                raise InvalidCostSpec("entropy weights must be strictly decreasing in u")
            if np.any(_steps(g2) <= 0):
                raise InvalidCostSpec("offsets must be strictly increasing in u")
        else:
            raise InvalidCostSpec(f"unknown variant {self.variant!r}")
        # NaN fails every ordering test above, so it is caught here
        for name, v in (("measurement", self.measurement), ("weights", w),
                        ("offsets", g2), ("level_costs", self.level_costs)):
            if v is not None and not np.isfinite(v).all():
                raise InvalidCostSpec(f"{name} must be finite, got {v}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", g2)

    @classmethod
    def expectation(cls, measurement, error_weights, ctilde_weight=None):
        return cls("expectation", measurement, error_weights, ctilde_weight=ctilde_weight)

    @classmethod
    def friendship(cls, measurement, error_weights, ctilde_weight=None):
        return cls("friendship", measurement, error_weights, ctilde_weight=ctilde_weight)

    @classmethod
    def intent(cls, level_costs, betas, entropy_weights, offsets, ctilde_weight=None):
        s = np.asarray(level_costs, dtype=float)
        if np.any(_steps(s) > 1e-12):
            raise InvalidCostSpec("level costs must be nonincreasing in the level")
        betas = tuple(betas)
        for b in betas:
            if b.coefficients.size > s.size:
                raise InvalidCostSpec("polling distribution longer than level costs")
        measurement = np.array([
            float(np.dot(b.coefficients, s[: b.coefficients.size]))
            for b in betas
        ])
        return cls("intent", measurement, entropy_weights, offsets, level_costs=s,
                   betas=betas, ctilde_weight=ctilde_weight)

    @property
    def num_actions(self) -> int:
        return int(self.measurement.size)

    def uncertainty(self, PI: np.ndarray) -> np.ndarray:
        """h(pi) of every belief row of the 2-d array PI (0 log 0 taken as 0)."""
        if self.variant != "intent":
            return 1.0 - np.einsum("ij,ij->i", PI, PI)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(PI > 0, PI * np.log2(np.maximum(PI, 1e-300)), 0.0)
        return -t.sum(axis=-1)

    def stage_costs(self, h: np.ndarray) -> np.ndarray:
        """C(pi, u) for every action u of the belief rows whose uncertainty
        is h, shape (n, U): the transposed view of an action-first (U, n)
        array, so that each broadcast runs along the n beliefs."""
        return (self.measurement[:, None] + h[None, :] * self.weights[:, None]
                + self.offsets[:, None]).T

    def equivalent(self, other: "CostSpec") -> bool:
        return self.variant == other.variant and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("measurement", "weights", "offsets"))


def cost_matrix(PI, costs: CostSpec) -> np.ndarray:
    """Stage costs for every belief row and every action, shape (n, U)."""
    return costs.stage_costs(costs.uncertainty(np.atleast_2d(np.asarray(PI, dtype=float))))


def belief_cost(pi, u: int, costs: CostSpec) -> float:
    """Instantaneous cost of action u at belief pi."""
    if not 1 <= u <= costs.num_actions:
        raise InvalidAction(f"action {u} outside 1..{costs.num_actions}")
    return float(cost_matrix(pi, costs)[0, u - 1])


def myopic_policy(PI, costs: CostSpec):
    """Action minimizing the instantaneous cost of each belief row, ties to
    the smaller index; a plain int for a single 1-d belief."""
    actions = np.argmin(cost_matrix(PI, costs), axis=1) + 1
    return int(actions[0]) if np.asarray(PI).ndim == 1 else actions


def max_stage_cost(costs: CostSpec, X: int) -> float:
    """Upper bound of the stage cost over the belief simplex, where h peaks
    at the uniform belief: log2 X for the entropy, 1 - 1/X otherwise."""
    peak = math.log2(X) if costs.variant == "intent" else 1.0 - 1.0 / X
    return float((costs.measurement + costs.weights * peak + costs.offsets).max())


@dataclass(frozen=True, eq=False)
class PollingModel:
    """Markov state dynamics, per-action observation channels, costs, discount."""

    P: StochasticMatrix
    channels: tuple[Channel, ...]
    costs: CostSpec
    rho: float
    likelihoods: np.ndarray = field(init=False, repr=False)  # read-only, zero-padded O(u)

    def __post_init__(self):
        P = self.P if isinstance(self.P, StochasticMatrix) else validate_stochastic(as_array(self.P))
        object.__setattr__(self, "P", P)
        chans = tuple(c if isinstance(c, Channel) else make_channel(c) for c in self.channels)
        object.__setattr__(self, "channels", chans)
        if not P.is_square:
            raise ModelShapeMismatch("transition matrix must be square")
        X = P.rows
        if len(chans) < 1:
            raise ModelShapeMismatch("need at least one channel")
        if any(c.n_inputs != X for c in chans):
            raise ModelShapeMismatch("every channel must have one row per state")
        if len(chans) != self.costs.num_actions:
            raise ModelShapeMismatch("one cost entry per channel required")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidArgument("discount factor must lie in [0, 1)")
        L = np.zeros((len(chans), X, max(c.n_outputs for c in chans)))
        for u, c in enumerate(chans):
            L[u, :, :c.n_outputs] = c.matrix.entries
        object.__setattr__(self, "likelihoods", _readonly(L))

    @property
    def n_states(self) -> int:
        return self.P.rows

    @property
    def n_actions(self) -> int:
        return len(self.channels)

    def observation(self, u: int) -> np.ndarray:
        if not 1 <= u <= self.n_actions:
            raise InvalidAction(f"action {u} outside 1..{self.n_actions}")
        return self.channels[u - 1].matrix.entries


def bayes_update(PR: np.ndarray, L: np.ndarray):
    """Bayes step: the posterior PR * L normalised over the first axis, the
    states, and its normaliser sigma, the likelihood of the observation.

    PR holds predicted beliefs P' pi and L the likelihoods of the observed
    symbols, both states first; the two broadcast against each other.
    Beliefs of zero likelihood get the uniform posterior. A caller with
    beliefs in rows passes transposed views.
    """
    unnorm = PR * L
    sigma = unnorm.sum(axis=0)
    seen = sigma > 0
    if seen.all():
        unnorm /= sigma
        return unnorm, sigma
    post = np.where(seen, unnorm / np.where(seen, sigma, 1.0), 1.0 / unnorm.shape[0])
    return post, sigma


def filter_update(pi, y: int, u: int, model: PollingModel):
    """Bayesian belief update for observation y under action u.

    Returns the posterior and the observation likelihood
    sigma = 1' O_y(u) P' pi. Raises ZeroLikelihood when y cannot occur.
    """
    pi = np.asarray(pi, dtype=float)
    O = model.observation(u)
    if not 0 <= y < O.shape[1]:
        raise InvalidArgument(f"observation index {y} outside the output alphabet")
    post, sigma = bayes_update(model.P.entries.T @ pi, O[:, y])
    if sigma <= 1e-300:
        raise ZeroLikelihood(f"observation {y} has zero likelihood under action {u}")
    return post, float(sigma)


# -------------------------------------------------- simplex discretization
class FreudenthalGrid:
    """Regular triangulated grid on the probability simplex.

    Grid points are the beliefs with coordinates in multiples of 1/M. A
    query belief is mapped to cumulative coordinates xi_i = M sum_{j>=i}
    pi_j; the fractional parts of xi, sorted in decreasing order, identify
    the containing simplex of the standard (Freudenthal / Kuhn)
    triangulation and double as barycentric weights. Interpolation is exact
    on grid points and reproduces affine functions.

    Points are listed in lexicographically descending order, so the index
    of a lattice point has a closed form in its cumulative coordinates
    (xi_0 = M): rank(xi) = sum_{j=1}^{X-1} C(xi_j + X-1-j, X-j). The
    containing simplex is a walk from the base vertex floor(xi): vertex k
    adds one to xi at the coordinate of the k-th largest fractional part,
    and each coordinate takes that step exactly once. So the vertex indices
    are rank(floor(xi)) plus a cumulative sum of per-coordinate steps, read
    from the (X-1, M+2) table of the terms above. The table's last column
    is a large negative sentinel: a step past xi_0 = M leaves the grid and
    drives that vertex's index, and all later ones, negative.
    """

    def __init__(self, M: int, X: int):
        if M < 1 or X < 2:
            raise InvalidArgument("need M >= 1 and X >= 2")
        self.M = int(M)
        self.X = int(X)
        self.lattice = _compositions(self.M, self.X)
        self.points = self.lattice / float(M)
        self._terms = np.array([[math.comb(c + X - 1 - j, X - j) for c in range(M + 1)]
                                + [OFF_GRID] for j in range(1, X)], dtype=np.int64)
        self._columns = (self.M + 2) * np.arange(X - 1)[:, None]

    @property
    def size(self) -> int:
        return self.lattice.shape[0]

    def index_of(self, compositions: np.ndarray) -> np.ndarray:
        """Grid index of each integer composition row; -1 where invalid."""
        comps = np.atleast_2d(compositions)
        xi = np.cumsum(comps[:, ::-1], axis=1)[:, ::-1]
        valid = (comps >= 0).all(axis=1) & (xi[:, 0] == self.M)
        cols = np.where(valid, xi[:, 1:].T, 0) + self._columns
        return np.where(valid, np.take(self._terms, cols).sum(axis=0), -1)

    def interpolation_data(self, PI) -> tuple[np.ndarray, np.ndarray]:
        """Vertex indices and barycentric weights for each query belief,
        both (n, X): transposed views of coordinate-major (X, n) arrays.

        Raises BeliefOffGrid for a non-finite row and where a vertex of
        weight above 1e-12 lies off the grid; a lighter off-grid vertex
        gets index 0 and keeps its weight.
        """
        PI = np.atleast_2d(np.asarray(PI, dtype=float))
        n, X = PI.shape
        if X != self.X:
            raise InvalidArgument(f"belief dimension {X} != grid dimension {self.X}")
        if not np.isfinite(PI).all():
            raise BeliefOffGrid("belief rows must be finite")
        # coordinate-major layout (X, n): every step is a vector op over
        # beliefs, and PI.T is a plain view for states-first callers
        coords, xi = PI.T, np.empty((X, n))
        xi[-1] = coords[-1]
        for i in range(X - 2, -1, -1):
            np.add(xi[i + 1], coords[i], out=xi[i])
        xi *= self.M
        v = xi + 1e-9
        np.floor(v, out=v)
        # base vertex on the grid: xi_0 = M and xi nonincreasing down to >= 0
        if not ((v[0] == self.M).all() and (v[:-1] >= v[1:]).all() and (v[-1] >= 0).all()):
            raise BeliefOffGrid("interpolation vertex fell outside the grid")
        d = xi[1:]
        d -= v[1:]
        np.maximum(d, 0.0, out=d)
        cols = v[1:].astype(np.int64)
        cols += self._columns
        low = np.take(self._terms, cols)
        cols += 1
        step = np.take(self._terms, cols)                              # per coordinate
        step -= low
        # equal base coordinates stepped out of order (negative mass) leave the
        # grid from the later coordinate's step until the earlier one's
        tie = (v[1:-1] == v[2:]) & (d[:-1] < d[1:])
        if tie.any():
            step[1:] += OFF_GRID * tie
            step[:-1] -= OFF_GRID * tie
        # place of each coordinate in the stable descending order of d
        place = np.tile(np.arange(n), (X - 1, 1))      # flat, into (X-1, n) rows
        for a, b in combinations(range(X - 1), 2):
            b_first = n * (d[b] > d[a])
            place[a] += b_first
            place[b] += n - b_first
        # rows 1.. of w and idx take the sorted d and steps, then become the
        # weights d_(k-1) - d_(k) and the cumulative vertex indices
        w, idx = np.empty((X, n)), np.empty((X, n), dtype=np.int64)
        w[1:].ravel()[place], idx[1:].ravel()[place] = d, step
        np.subtract(1.0, w[1], out=w[0])
        np.subtract(w[1:-1], w[2:], out=w[1:-1])
        low.sum(axis=0, out=idx[0])
        _accumulate(idx)
        if idx.min(initial=0) < 0:
            if np.any((idx < 0) & (w > 1e-12)):
                raise BeliefOffGrid("interpolation vertex fell outside the grid")
            np.maximum(idx, 0, out=idx)
        return idx.T, w.T

    def interpolate(self, values: np.ndarray, PI) -> np.ndarray:
        idx, w = self.interpolation_data(PI)
        return (values[idx] * w).sum(axis=1)

    def neighbor_pairs(self) -> np.ndarray:
        """Index pairs of grid points one lattice move apart (for Lipschitz
        estimates): n -> n - e_a + e_b."""
        pairs = []
        for a in range(self.X):
            for b in range(self.X):
                if a == b:
                    continue
                movable = self.lattice[:, a] > 0
                shifted = self.lattice[movable].copy()
                shifted[:, a] -= 1
                shifted[:, b] += 1
                src = np.nonzero(movable)[0]
                dst = self.index_of(shifted)
                ok = dst >= 0
                lo = np.minimum(src[ok], dst[ok])
                hi = np.maximum(src[ok], dst[ok])
                pairs.append(np.stack([lo, hi], axis=1))
        allp = np.unique(np.vstack(pairs), axis=0)
        return allp


def _accumulate(a: np.ndarray) -> np.ndarray:
    """In-place cumulative sum down the first axis, one vector op per row;
    np.cumsum is far slower over a few coordinates of many beliefs."""
    for k in range(1, a.shape[0]):
        a[k] += a[k - 1]
    return a


def grid_size(M: int, X: int) -> int:
    return math.comb(M + X - 1, X - 1)


@dataclass(frozen=True, eq=False)
class GridValueFunction:
    """Value function and greedy policy sampled on a Freudenthal grid."""

    grid: FreudenthalGrid
    values: np.ndarray
    policy: np.ndarray          # 1-based actions
    sweeps: int
    sweep_deltas: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

    def interpolate(self, pi):
        out = self.grid.interpolate(self.values, pi)
        return float(out[0]) if np.asarray(pi).ndim == 1 else out


class Lookahead:
    """One-step Bellman lookahead from a fixed set of belief rows PI.

    Holds the uncertainty h (n,) and stage costs C (n, U) of the rows and,
    states first, for every action and symbol, the posteriors T
    (X, U, Y_max, n), their likelihoods sigma (U, Y_max, n) and the grid
    interpolation data idx, w (X, U, Y_max, n), so that q_values(V) =
    C + rho sum_y sigma_y V(T_y) costs one gather per call and every short
    sum runs over a leading axis. All posteriors are interpolated in one pass.
    """

    def __init__(self, model: PollingModel, grid: FreudenthalGrid, PI):
        PI = np.atleast_2d(np.asarray(PI, dtype=float))
        self.grid = grid
        self.rho = model.rho
        self.h = model.costs.uncertainty(PI)
        self.C = model.costs.stage_costs(self.h)
        # the (X, U, Y_max) copy makes the product, and T, C-ordered
        self.T, self.sigma = bayes_update(
            (PI @ model.P.entries).T[:, None, None, :],
            np.ascontiguousarray(model.likelihoods.transpose(1, 0, 2))[..., None])
        X = self.T.shape[0]
        idx, w = grid.interpolation_data(self.T.reshape(X, -1).T)
        self.idx, self.w = idx.T.reshape(self.T.shape), w.T.reshape(self.T.shape)

    def q_values(self, values: np.ndarray) -> np.ndarray:
        """Lookahead costs of every belief row and action, shape (n, U), a
        view of an action-first array as C is."""
        interp = (values[self.idx] * self.w).sum(axis=0)
        return self.C + self.rho * (self.sigma * interp).sum(axis=1).T


def _checked_grid(M: int, X: int) -> FreudenthalGrid:
    size = grid_size(M, X)
    if size > _MAX_POINTS:
        raise GridTooLarge(
            f"grid with {size} points exceeds the cap of {_MAX_POINTS}; "
            f"use a coarser resolution or the simulation-based loss metrics")
    return FreudenthalGrid(M, X)


def _sweep(backup: Lookahead, policy=None):
    """Bellman sweeps from V = 0 until the sup-norm change drops below _VI_TOL:
    V <- min_u Q(V), or V <- Q(V)[policy] with a pinned 1-based policy.
    Returns V and the change of every sweep."""
    sel = None if policy is None else (np.asarray(policy, dtype=int) - 1)[:, None]
    V = np.zeros(backup.C.shape[0])
    deltas = []
    for _ in range(MAX_SWEEPS):
        Q = backup.q_values(V)
        V_new = Q.min(axis=1) if sel is None else np.take_along_axis(Q, sel, axis=1)[:, 0]
        deltas.append(float(np.abs(V_new - V).max()))
        V = V_new
        if deltas[-1] < _VI_TOL:
            return V, deltas
    what = "value iteration" if policy is None else "policy evaluation"
    raise NonConvergence(f"{what} did not converge within {MAX_SWEEPS} sweeps")


def _solve(backup: Lookahead) -> GridValueFunction:
    """Optimal values on the backup's grid and the greedy policy they induce."""
    V, deltas = _sweep(backup)
    policy = np.argmin(backup.q_values(V), axis=1) + 1
    return GridValueFunction(grid=backup.grid, values=V, policy=policy,
                             sweeps=len(deltas), sweep_deltas=np.array(deltas))


def value_iteration(model: PollingModel, M: int) -> GridValueFunction:
    """Discounted value iteration on the triangulated belief simplex.

    Off-grid posteriors are evaluated by barycentric interpolation, so each
    sweep is a monotone rho-contraction up to interpolation slack; sweeps
    stop when the sup-norm change drops below _VI_TOL.
    """
    grid = _checked_grid(M, model.n_states)
    return _solve(Lookahead(model, grid, grid.points))


def evaluate_policy_on_grid(model: PollingModel, policy: np.ndarray, M: int) -> np.ndarray:
    """Fixed-policy discounted value on the grid (same backup, u pinned)."""
    grid = _checked_grid(M, model.n_states)
    if policy.shape != (grid.size,):
        raise ModelShapeMismatch("policy must assign an action to every grid point")
    return _sweep(Lookahead(model, grid, grid.points), policy)[0]


# ------------------------------------------------------------- verifiers
def _interpolation_allowance(grid: FreudenthalGrid, *value_arrays) -> float:
    """Lipschitz-style slack: largest value change across one grid edge."""
    pairs = grid.neighbor_pairs()
    if pairs.size == 0:
        return 0.0
    return float(sum(np.abs(v[pairs[:, 0]] - v[pairs[:, 1]]).max() for v in value_arrays))


@dataclass(frozen=True)
class MyopicBoundReport:
    grid_points: int
    violations: tuple[int, ...]
    coincide_on_action_one: bool
    deficiencies: tuple[float, ...]
    sweeps: int
    solution: GridValueFunction = field(repr=False)

    @property
    def holds(self) -> bool:
        return not self.violations and self.coincide_on_action_one


def verify_myopic_bound(model: PollingModel, M: int) -> MyopicBoundReport:
    """Check mu*(g) <= myopic(g) everywhere, with equality forced on action 1.

    Requires the channels to form a certified dominance chain; the
    instantaneous costs are concave for all three families by construction.
    """
    deficiencies = certify_channel_chain(model.channels)
    gvf = value_iteration(model, M)
    myopic = myopic_policy(gvf.points, model.costs)
    violations = tuple(int(i) for i in np.nonzero(gvf.policy > myopic)[0])
    coincide = bool(np.all(gvf.policy[myopic == 1] == 1))
    return MyopicBoundReport(grid_points=gvf.grid.size, violations=violations,
                             coincide_on_action_one=coincide,
                             deficiencies=deficiencies, sweeps=gvf.sweeps,
                             solution=gvf)


class ModelDistance(NamedTuple):
    distance: float
    cost_bound: float


def model_distance(theta: PollingModel, gamma: PollingModel) -> ModelDistance:
    """Transition-weighted channel distance between two models sharing
    (P, costs, rho), together with G = max_{i,u} C(e_i, u) / (1 - rho)."""
    if theta.n_states != gamma.n_states or theta.n_actions != gamma.n_actions:
        raise ModelShapeMismatch("models differ in state or action count")
    if not np.allclose(theta.P.entries, gamma.P.entries, atol=1e-12):
        raise ModelShapeMismatch("models must share the transition matrix")
    if theta.rho != gamma.rho or not theta.costs.equivalent(gamma.costs):
        raise ModelShapeMismatch("models must share costs and discount")
    dist = 0.0
    for u in range(1, theta.n_actions + 1):
        A, B = theta.observation(u), gamma.observation(u)
        if A.shape != B.shape:
            raise ModelShapeMismatch(f"channel {u} output alphabets differ")
        row_abs = np.abs(A - B).sum(axis=1)
        dist = max(dist, float((theta.P.entries @ row_abs).max()))
    vertices = np.eye(theta.n_states)
    G = float(cost_matrix(vertices, theta.costs).max() / (1.0 - theta.rho))
    return ModelDistance(distance=dist, cost_bound=G)


@dataclass(frozen=True)
class SensitivityReport:
    distance: float
    cost_bound: float
    model_bound_gap: float    # rhs - lhs for the value-mismatch inequality
    policy_bound_gap: float   # rhs - lhs for the regret inequality
    allowance: float

    @property
    def holds(self) -> bool:
        return self.model_bound_gap >= 0 and self.policy_bound_gap >= 0


def verify_sensitivity_bounds(theta: PollingModel, gamma: PollingModel,
                              M: int) -> SensitivityReport:
    """Check the two mis-specification inequalities on every grid point.

    With mu_gamma optimal for the approximate model: values of mu_gamma
    under the two models differ by at most G * distance, and running
    mu_gamma on the true model loses at most 2 G * distance against the
    true optimum. Grid values carry an interpolation allowance.
    """
    dist, G = model_distance(theta, gamma)
    v_gamma = value_iteration(gamma, M)
    grid = v_gamma.grid
    theta_backup = Lookahead(theta, grid, grid.points)
    v_theta = _solve(theta_backup)
    j_cross, _ = _sweep(theta_backup, policy=v_gamma.policy)

    lhs_model = float(np.abs(v_gamma.values - j_cross).max())
    lhs_policy = float((j_cross - v_theta.values).max())
    allowance = _interpolation_allowance(grid, v_gamma.values, j_cross, v_theta.values)
    rhs_model = G * dist + _BOUND_SLACK + allowance
    rhs_policy = 2.0 * G * dist + _BOUND_SLACK + allowance
    return SensitivityReport(distance=dist, cost_bound=G,
                             model_bound_gap=rhs_model - lhs_model,
                             policy_bound_gap=rhs_policy - lhs_policy,
                             allowance=allowance)


@dataclass(frozen=True)
class OrdinalReport:
    deficiencies: tuple[float, ...]
    max_excess: float          # max over grid of V_1 - V_2 (<= slack when ordered)
    allowance: float
    holds: bool


def verify_ordinal_sensitivity(theta1: PollingModel, theta2: PollingModel, M: int) -> OrdinalReport:
    """Networks with channelwise-dominating observations are cheaper to poll:
    V_1(g) <= V_2(g) everywhere once O1(u) >=_B O2(u) is certified per action."""
    if theta1.n_actions != theta2.n_actions:
        raise ModelShapeMismatch("models must share the action set")
    defs = tuple(certify_dominance(O1, O2, f"channel {u}")
                 for u, (O1, O2) in enumerate(zip(theta1.channels, theta2.channels), start=1))
    v1 = value_iteration(theta1, M)
    v2 = value_iteration(theta2, M)
    allowance = _interpolation_allowance(v1.grid, v1.values, v2.values)
    excess = float((v1.values - v2.values).max())
    return OrdinalReport(deficiencies=defs, max_excess=excess,
                         allowance=allowance, holds=excess <= _BOUND_SLACK + allowance)
