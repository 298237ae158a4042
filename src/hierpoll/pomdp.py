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
greedy grid policy all apply it.

Actions are 1-based everywhere (action 1 = most informative channel);
observation symbols are 0-based indices into a channel's output alphabet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import Channel, _compositions, lecam_deficiency, make_channel
from .errors import (
    GridTooLarge,
    InvalidAction,
    InvalidCostSpec,
    ModelShapeMismatch,
    NonConvergence,
    UncertifiedChain,
    UncertifiedDominance,
    ZeroLikelihood,
)
from .stochastic import ConvexPolynomial, StochasticMatrix, as_array, validate_stochastic

BELIEF_TOL = 1e-10
MAX_SWEEPS = 10 ** 5


def validate_belief(pi, tol: float = BELIEF_TOL) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.size < 1:
        raise ValueError("belief must be a 1-d probability vector")
    if pi.min() < -tol:
        raise ValueError(f"belief has negative mass {pi.min():.3e}")
    if abs(pi.sum() - 1.0) > tol:
        raise ValueError(f"belief mass {pi.sum():.12f} != 1")
    return pi


def _entropy_bits(PI: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row, 0 log 0 taken as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(PI > 0, PI * np.log2(np.maximum(PI, 1e-300)), 0.0)
    return -t.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Per-action polling costs.

    Intent polling charges a level-averaged measurement cost plus a scaled
    belief entropy with an additive offset; expectation and friendship
    polling charge a measurement cost plus a weighted quadratic
    estimation-error term w_u (1 - pi'pi). Monotonicity across actions
    (cheaper but noisier as u grows) is enforced at construction.
    """

    variant: str
    measurement: np.ndarray
    error_weights: np.ndarray | None = None      # expectation / friendship
    entropy_weights: np.ndarray | None = None    # intent
    offsets: np.ndarray | None = None            # intent
    level_costs: np.ndarray | None = None        # intent bookkeeping
    betas: tuple[ConvexPolynomial, ...] | None = None
    ctilde_weight: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "measurement",
                           np.asarray(self.measurement, dtype=float))
        U = self.measurement.size
        if U < 1:
            raise InvalidCostSpec("need at least one action")
        if self.variant in ("expectation", "friendship"):
            if np.any(np.diff(self.measurement) > 1e-12):
                raise InvalidCostSpec("measurement costs must be nonincreasing in u")
            if self.error_weights is None:
                raise InvalidCostSpec(f"{self.variant} costs need error weights")
            w = np.asarray(self.error_weights, dtype=float)
            object.__setattr__(self, "error_weights", w)
            if w.size != U:
                raise InvalidCostSpec("one error weight per action required")
            if np.any(np.diff(w) <= 0):
                raise InvalidCostSpec("error weights must be strictly increasing in u")
        elif self.variant == "intent":
            if self.entropy_weights is None or self.offsets is None:
                raise InvalidCostSpec("intent costs need entropy weights and offsets")
            g1 = np.asarray(self.entropy_weights, dtype=float)
            g2 = np.asarray(self.offsets, dtype=float)
            object.__setattr__(self, "entropy_weights", g1)
            object.__setattr__(self, "offsets", g2)
            if g1.size != U or g2.size != U:
                raise InvalidCostSpec("per-action weight vectors must match U")
            if np.any(g1 <= 0) or np.any(g2 <= 0):
                raise InvalidCostSpec("intent weights must be positive")
            if np.any(np.diff(g1) >= 0):
                raise InvalidCostSpec("entropy weights must be strictly decreasing in u")
            if np.any(np.diff(g2) <= 0):
                raise InvalidCostSpec("offsets must be strictly increasing in u")
        else:
            raise InvalidCostSpec(f"unknown variant {self.variant!r}")

    @classmethod
    def expectation(cls, measurement, error_weights, ctilde_weight=None):
        return cls("expectation", np.asarray(measurement, float),
                   error_weights=np.asarray(error_weights, float),
                   ctilde_weight=ctilde_weight)

    @classmethod
    def friendship(cls, measurement, error_weights, ctilde_weight=None):
        return cls("friendship", np.asarray(measurement, float),
                   error_weights=np.asarray(error_weights, float),
                   ctilde_weight=ctilde_weight)

    @classmethod
    def intent(cls, level_costs, betas, entropy_weights, offsets, ctilde_weight=None):
        s = np.asarray(level_costs, dtype=float)
        if np.any(np.diff(s) > 1e-12):
            raise InvalidCostSpec("level costs must be nonincreasing in the level")
        betas = tuple(betas)
        for b in betas:
            if b.coefficients.size > s.size:
                raise InvalidCostSpec("polling distribution longer than level costs")
        measurement = np.array([
            float(np.dot(b.coefficients, s[: b.coefficients.size]))
            for b in betas
        ])
        return cls("intent", measurement, entropy_weights=np.asarray(entropy_weights, float),
                   offsets=np.asarray(offsets, float), level_costs=s, betas=betas,
                   ctilde_weight=ctilde_weight)

    @property
    def num_actions(self) -> int:
        return int(self.measurement.size)

    def equivalent(self, other: "CostSpec") -> bool:
        if self.variant != other.variant or self.num_actions != other.num_actions:
            return False
        if not np.array_equal(self.measurement, other.measurement):
            return False
        for a, b in ((self.error_weights, other.error_weights),
                     (self.entropy_weights, other.entropy_weights),
                     (self.offsets, other.offsets)):
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True


def cost_matrix(PI, costs: CostSpec) -> np.ndarray:
    """Stage costs for every belief row and every action, shape (n, U)."""
    PI = np.atleast_2d(np.asarray(PI, dtype=float))
    if costs.variant == "intent":
        H = _entropy_bits(PI)
        return (costs.measurement[None, :]
                + H[:, None] * costs.entropy_weights[None, :]
                + costs.offsets[None, :])
    err = 1.0 - np.einsum("ij,ij->i", PI, PI)
    return costs.measurement[None, :] + err[:, None] * costs.error_weights[None, :]


def belief_cost(pi, u: int, costs: CostSpec) -> float:
    """Instantaneous cost of action u at belief pi."""
    if not 1 <= u <= costs.num_actions:
        raise InvalidAction(f"action {u} outside 1..{costs.num_actions}")
    return float(cost_matrix(pi, costs)[0, u - 1])


def myopic_policy(pi, costs: CostSpec) -> int:
    """Action minimizing the instantaneous cost; ties go to the smaller index."""
    return int(np.argmin(cost_matrix(pi, costs)[0])) + 1


def max_stage_cost(costs: CostSpec, X: int) -> float:
    """Upper bound of the stage cost over the belief simplex."""
    if costs.variant == "intent":
        worst = costs.measurement + costs.entropy_weights * math.log2(X) + costs.offsets
    else:
        worst = costs.measurement + costs.error_weights * (1.0 - 1.0 / X)
    return float(worst.max())


@dataclass(frozen=True, eq=False)
class PollingModel:
    """Markov state dynamics, per-action observation channels, costs, discount."""

    P: StochasticMatrix
    channels: tuple[Channel, ...]
    costs: CostSpec
    rho: float

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
            raise ValueError("discount factor must lie in [0, 1)")

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
    """Bayes step: the posterior PR * L normalised over the last axis, and
    its normaliser sigma, the likelihood of the observation.

    PR holds predicted beliefs P' pi and L the likelihoods of the observed
    symbols per state; the two broadcast against each other. Rows of zero
    likelihood get the uniform posterior.
    """
    unnorm = PR * L
    sigma = unnorm.sum(axis=-1)
    seen = sigma > 0
    post = np.where(seen[..., None], unnorm / np.where(seen, sigma, 1.0)[..., None],
                    1.0 / unnorm.shape[-1])
    return post, sigma


def filter_update(pi, y: int, u: int, model: PollingModel):
    """Bayesian belief update for observation y under action u.

    Returns the posterior and the observation likelihood
    sigma = 1' O_y(u) P' pi. Raises ZeroLikelihood when y cannot occur.
    """
    pi = np.asarray(pi, dtype=float)
    O = model.observation(u)
    if not 0 <= y < O.shape[1]:
        raise ValueError(f"observation index {y} outside the output alphabet")
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
    """

    def __init__(self, M: int, X: int):
        if M < 1 or X < 2:
            raise ValueError("need M >= 1 and X >= 2")
        self.M = int(M)
        self.X = int(X)
        self.lattice = np.array(list(_compositions(self.M, self.X)), dtype=np.int64)
        self.points = self.lattice / float(M)
        self._powers = (self.M + 1) ** np.arange(self.X, dtype=np.int64)
        keys = self.lattice @ self._powers
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    @property
    def size(self) -> int:
        return self.lattice.shape[0]

    def index_of(self, compositions: np.ndarray) -> np.ndarray:
        """Grid index of each integer composition row; -1 where invalid."""
        comps = np.atleast_2d(compositions)
        keys = comps @ self._powers
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.clip(pos, 0, self._sorted_keys.size - 1)
        found = self._sorted_keys[pos] == keys
        valid = found & (comps >= 0).all(axis=1)
        idx = np.where(valid, self._key_order[pos], -1)
        return idx

    def interpolation_data(self, PI) -> tuple[np.ndarray, np.ndarray]:
        """Vertex indices and barycentric weights for each query belief."""
        PI = np.atleast_2d(np.asarray(PI, dtype=float))
        n, X = PI.shape
        if X != self.X:
            raise ValueError(f"belief dimension {X} != grid dimension {self.X}")
        xi = self.M * np.cumsum(PI[:, ::-1], axis=1)[:, ::-1]
        v = np.floor(xi + 1e-9)
        d = np.clip(xi - v, 0.0, None)
        order = np.argsort(-d[:, 1:], axis=1, kind="stable") + 1      # (n, X-1)
        dsort = np.take_along_axis(d, order, axis=1)                  # descending
        w = np.empty((n, X))
        w[:, 0] = 1.0 - dsort[:, 0]
        if X > 2:
            w[:, 1:X - 1] = dsort[:, :X - 2] - dsort[:, 1:X - 1]
        w[:, X - 1] = dsort[:, X - 2]
        # vertex k of the containing simplex: v plus the k largest fractional steps
        verts = np.repeat(v[:, None, :], X, axis=1)                   # (n, X, X)
        rows = np.arange(n)[:, None]
        for k in range(1, X):
            verts[rows, np.arange(k, X)[None, :], order[:, k - 1:k]] += 1.0
        comps = np.rint(verts - np.concatenate(
            [verts[:, :, 1:], np.zeros((n, X, 1))], axis=2)).astype(np.int64)
        idx = self.index_of(comps.reshape(-1, X)).reshape(n, X)
        bad = (idx < 0) & (w > 1e-12)
        if np.any(bad):
            raise RuntimeError("interpolation vertex fell outside the grid")
        idx = np.where(idx < 0, 0, idx)
        w = np.clip(w, 0.0, None)
        return idx, w

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
    converged: bool

    @property
    def resolution(self) -> int:
        return self.grid.M

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

    def interpolate(self, pi):
        out = self.grid.interpolate(self.values, pi)
        return float(out[0]) if np.asarray(pi).ndim == 1 else out


class Lookahead:
    """One-step Bellman lookahead from a fixed set of belief rows PI.

    Holds, per action, the stage costs C, the likelihood sigma of every
    observation and the grid interpolation data of every posterior, so that
    q_values(V) = C + rho sum_y sigma_y V(T_y) costs one gather per call.
    """

    def __init__(self, model: PollingModel, grid: FreudenthalGrid, PI):
        PI = np.atleast_2d(np.asarray(PI, dtype=float))
        self.grid = grid
        self.rho = model.rho
        self.C = cost_matrix(PI, model.costs)                 # (n, U)
        PR = PI @ model.P.entries                             # rows of P' pi
        self.sigma, self.idx, self.w = [], [], []
        for u in range(1, model.n_actions + 1):
            T, sig = bayes_update(PR[:, None, :], model.observation(u).T[None])
            n, Y, X = T.shape                                 # T: (n, Y, X)
            idx, w = grid.interpolation_data(T.reshape(n * Y, X))
            self.sigma.append(sig)
            self.idx.append(idx.reshape(n, Y, X))
            self.w.append(w.reshape(n, Y, X))

    def q_values(self, values: np.ndarray) -> np.ndarray:
        """Lookahead costs of every belief row and action, shape (n, U)."""
        Q = np.empty_like(self.C)
        for ui, (sig, idx, w) in enumerate(zip(self.sigma, self.idx, self.w)):
            interp = (values[idx] * w).sum(axis=2)            # (n, Y)
            Q[:, ui] = self.C[:, ui] + self.rho * (sig * interp).sum(axis=1)
        return Q


def _checked_grid(M: int, X: int, max_points: int) -> FreudenthalGrid:
    size = grid_size(M, X)
    if size > max_points:
        raise GridTooLarge(
            f"grid with {size} points exceeds the cap of {max_points}; "
            f"use a coarser resolution or the simulation-based loss metrics")
    return FreudenthalGrid(M, X)


def _sweep(backup: Lookahead, tol: float, max_sweeps: int, policy=None):
    """Bellman sweeps from V = 0 until the sup-norm change drops below tol:
    V <- min_u Q(V), or V <- Q(V)[policy] with a pinned 1-based policy.
    Returns V and the change of every sweep."""
    sel = None if policy is None else (np.asarray(policy, dtype=int) - 1)[:, None]
    V = np.zeros(backup.C.shape[0])
    deltas = []
    for _ in range(max_sweeps):
        Q = backup.q_values(V)
        V_new = Q.min(axis=1) if sel is None else np.take_along_axis(Q, sel, axis=1)[:, 0]
        deltas.append(float(np.abs(V_new - V).max()))
        V = V_new
        if deltas[-1] < tol:
            return V, deltas
    what = "value iteration" if policy is None else "policy evaluation"
    raise NonConvergence(f"{what} did not converge within {max_sweeps} sweeps")


def _solve(backup: Lookahead, tol: float, max_sweeps: int) -> GridValueFunction:
    """Optimal values on the backup's grid and the greedy policy they induce."""
    V, deltas = _sweep(backup, tol, max_sweeps)
    policy = np.argmin(backup.q_values(V), axis=1) + 1
    return GridValueFunction(grid=backup.grid, values=V, policy=policy,
                             sweeps=len(deltas), sweep_deltas=np.array(deltas),
                             converged=True)


def value_iteration(model: PollingModel, M: int, tol: float = 1e-8,
                    max_sweeps: int = MAX_SWEEPS,
                    max_points: int = 300_000) -> GridValueFunction:
    """Discounted value iteration on the triangulated belief simplex.

    Off-grid posteriors are evaluated by barycentric interpolation, so each
    sweep is a monotone rho-contraction up to interpolation slack; sweeps
    stop when the sup-norm change drops below tol.
    """
    grid = _checked_grid(M, model.n_states, max_points)
    return _solve(Lookahead(model, grid, grid.points), tol, max_sweeps)


def evaluate_policy_on_grid(model: PollingModel, policy: np.ndarray, M: int,
                            tol: float = 1e-8, max_sweeps: int = MAX_SWEEPS,
                            max_points: int = 300_000) -> np.ndarray:
    """Fixed-policy discounted value on the grid (same backup, u pinned)."""
    grid = _checked_grid(M, model.n_states, max_points)
    if policy.shape != (grid.size,):
        raise ModelShapeMismatch("policy must assign an action to every grid point")
    return _sweep(Lookahead(model, grid, grid.points), tol, max_sweeps, policy)[0]


# ------------------------------------------------------------- verifiers
def certify_channel_chain(model: PollingModel, tol: float = 1e-7) -> tuple[float, ...]:
    """Deficiencies delta(O(u+1), O(u)) for consecutive actions."""
    out = []
    for u in range(1, model.n_actions):
        out.append(lecam_deficiency(model.observation(u + 1), model.observation(u)).delta)
    return tuple(out)


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


def verify_myopic_bound(model: PollingModel, M: int, cert_tol: float = 1e-7,
                        tol: float = 1e-8) -> MyopicBoundReport:
    """Check mu*(g) <= myopic(g) everywhere, with equality forced on action 1.

    Requires the channels to form a certified dominance chain; the
    instantaneous costs are concave for all three families by construction.
    """
    deficiencies = certify_channel_chain(model, cert_tol)
    if any(d > cert_tol for d in deficiencies):
        raise UncertifiedChain(
            f"chain deficiencies {deficiencies} exceed {cert_tol}")
    gvf = value_iteration(model, M, tol=tol)
    myopic = np.argmin(cost_matrix(gvf.points, model.costs), axis=1) + 1
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


def verify_sensitivity_bounds(theta: PollingModel, gamma: PollingModel, M: int,
                              slack: float = 1e-6, tol: float = 1e-8) -> SensitivityReport:
    """Check the two mis-specification inequalities on every grid point.

    With mu_gamma optimal for the approximate model: values of mu_gamma
    under the two models differ by at most G * distance, and running
    mu_gamma on the true model loses at most 2 G * distance against the
    true optimum. Grid values carry an interpolation allowance.
    """
    dist, G = model_distance(theta, gamma)
    v_gamma = value_iteration(gamma, M, tol=tol)
    grid = v_gamma.grid
    theta_backup = Lookahead(theta, grid, grid.points)
    v_theta = _solve(theta_backup, tol, MAX_SWEEPS)
    j_cross, _ = _sweep(theta_backup, tol, MAX_SWEEPS, policy=v_gamma.policy)

    lhs_model = float(np.abs(v_gamma.values - j_cross).max())
    lhs_policy = float((j_cross - v_theta.values).max())
    allowance = _interpolation_allowance(grid, v_gamma.values, j_cross, v_theta.values)
    rhs_model = G * dist + slack + allowance
    rhs_policy = 2.0 * G * dist + slack + allowance
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


def verify_ordinal_sensitivity(theta1: PollingModel, theta2: PollingModel, M: int,
                               cert_tol: float = 1e-7, slack: float = 1e-6,
                               tol: float = 1e-8) -> OrdinalReport:
    """Networks with channelwise-dominating observations are cheaper to poll:
    V_1(g) <= V_2(g) everywhere once O1(u) >=_B O2(u) is certified per action."""
    if theta1.n_actions != theta2.n_actions:
        raise ModelShapeMismatch("models must share the action set")
    defs = []
    for u in range(1, theta1.n_actions + 1):
        defs.append(lecam_deficiency(theta2.observation(u), theta1.observation(u)).delta)
        if defs[-1] > cert_tol:
            raise UncertifiedDominance(
                f"channel {u}: deficiency {defs[-1]:.3e} exceeds {cert_tol}")
    v1 = value_iteration(theta1, M, tol=tol)
    v2 = value_iteration(theta2, M, tol=tol)
    allowance = _interpolation_allowance(v1.grid, v1.values, v2.values)
    excess = float((v1.values - v2.values).max())
    return OrdinalReport(deficiencies=tuple(defs), max_excess=excess,
                         allowance=allowance, holds=excess <= slack + allowance)
