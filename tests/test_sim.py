import inspect
from dataclasses import replace

import numpy as np
import pytest

from hierpoll import sim
from hierpoll.channels import make_channel
from hierpoll.errors import (
    HierPollError,
    InvalidAction,
    InvalidArgument,
    ModelShapeMismatch,
    RowSumMismatch,
    UndefinedCTilde,
)
from hierpoll.pomdp import (
    CostSpec,
    Lookahead,
    PollingModel,
    belief_cost,
    cost_matrix,
    filter_update,
    myopic_policy,
    value_iteration,
)
from hierpoll.presets import example1_model, example2_model
from hierpoll.sim import (
    FixedPolicy,
    GridPolicy,
    MyopicPolicy,
    Step,
    _rollout,
    _uniform_streams,
    ctilde_values,
    estimate_cost,
    l1_components,
    l2_components,
    loss_L1,
    loss_L2,
    loss_ratio,
    simulate,
    uniform_belief,
)

from conftest import random_stochastic


@pytest.fixture
def model():
    return example1_model(rho=0.5)


def single_action_model(c=0.7, rho=0.5):
    # one state, one action: the stage cost is exactly the measurement cost
    return PollingModel(np.array([[1.0]]), (make_channel(np.array([[1.0]])),),
                        CostSpec.expectation([c], [1.0]), rho=rho)


def default_rng_streams(seed, run_ids, horizon):
    """The reference: one `default_rng([seed, r])` per run."""
    return np.array([np.random.default_rng([seed, r]).random(1 + 2 * horizon)
                     for r in run_ids])


class TestUniformStreams:
    """Per-run streams against numpy's own. These tests import neither scipy
    nor hypothesis, so CI also runs them at the lowest numpy that
    pyproject.toml allows."""

    @pytest.mark.parametrize("horizon", [1, 100])
    @pytest.mark.parametrize("run_ids", [range(1000), [0], [7, 2**32 - 1, 2**32, 2**40]],
                             ids=["first-1000", "zero", "wide"])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3])
    def test_bit_identical_to_default_rng(self, seed, run_ids, horizon):
        assert np.array_equal(_uniform_streams(seed, run_ids, horizon),
                              default_rng_streams(seed, run_ids, horizon))

    @pytest.mark.parametrize("seed, run_ids", [(-1, [0]), (0, [3, -1]), (0, [1.0])])
    def test_negative_or_non_integer_key_is_invalid(self, seed, run_ids):
        with pytest.raises(InvalidArgument, match="integers >= 0"):
            _uniform_streams(seed, run_ids, 3)

    def test_simulate_rejects_negative_run_index(self, model):
        with pytest.raises(InvalidArgument):
            simulate(model, MyopicPolicy(), uniform_belief(3), 5, seed=0, run_index=-1)


SHORT = 0.1 - 5e-11   # leaves a row 5e-11 short of 1, within ROW_SUM_TOL


def short_rows_model():
    """The rows of states 0 and 1, in P and in both channels, sum to 1 - 5e-11
    and end in zeros or padding: channel 2 has two symbols, padded to three."""
    P = np.array([[0.9, SHORT, 0.0], [0.9, SHORT, 0.0], [0.2, 0.3, 0.5]])
    O1 = np.array([[0.7, 0.2 + SHORT, 0.0], [0.7, 0.2 + SHORT, 0.0], [0.1, 0.1, 0.8]])
    O2 = np.array([[0.6, 0.3 + SHORT], [0.6, 0.3 + SHORT], [0.5, 0.5]])
    return PollingModel(P, (make_channel(O1), make_channel(O2)),
                        CostSpec.expectation([0.5, 0.1], [0.2, 1.0]), rho=0.5)


class TestSampling:
    @pytest.mark.parametrize("policy", [FixedPolicy(1), FixedPolicy(2), "grid"])
    def test_uniform_above_a_short_row_lands_on_its_last_category(self, policy):
        # a uniform of 1 - 1e-11 used to be counted past the last category
        model = short_rows_model()
        if policy == "grid":
            policy = GridPolicy(value_iteration(model, M=6))
        draws = np.full((4, 1 + 2 * 6), 1 - 1e-11)
        pi0 = np.array([0.5, 0.4 + SHORT, 0.0])
        data = _rollout(model, policy, pi0, draws, record=True)
        assert (data["states"] == 1).all()
        assert (data["observations"] == 1).all()
        assert np.isfinite(estimate_cost(model, policy, pi0, 6, 4, seed=0, streams=draws).mean)

    def test_draws_below_the_mass_are_unchanged(self, rng):
        # against the plain count of cumulative sums below the uniform
        laws = random_stochastic(40, 5, rng) * (rng.random((40, 5)) < 0.7)
        laws = np.hstack([laws, np.zeros((40, 2))])        # padding
        laws[laws.sum(axis=1) == 0, 0] = 1.0
        laws /= laws.sum(axis=1, keepdims=True)
        cum = np.cumsum(laws, axis=1)
        u = rng.random(40 * 500)
        rows = np.repeat(np.arange(40), 500)
        below = u < cum[rows, -1]
        want = (cum[rows] < u[:, None]).sum(axis=1)
        got = sim._sample_categorical(
            np.ascontiguousarray(sim._cumulative_law(laws, 1).T).take(rows, axis=1), u)
        assert np.array_equal(got[below], want[below])
        assert (laws[rows, got] > 0).all()


class TestSimulate:
    def test_deterministic_chain_keeps_vertex_belief(self):
        model = PollingModel(np.eye(3), (make_channel(np.eye(3)),),
                             CostSpec.expectation([0.5], [0.5]), rho=0.5)
        traj = simulate(model, FixedPolicy(1), np.array([1.0, 0, 0]),
                        horizon=20, seed=3)
        assert np.all(traj.states == 0)
        assert np.allclose(traj.beliefs, np.tile([1.0, 0, 0], (21, 1)))
        # estimation-error term vanishes at a vertex
        assert np.allclose(traj.costs, 0.5)

    def test_fixed_seed_bit_identical(self, model):
        t1 = simulate(model, MyopicPolicy(), uniform_belief(3), 50, seed=11)
        t2 = simulate(model, MyopicPolicy(), uniform_belief(3), 50, seed=11)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.observations, t2.observations)
        assert np.array_equal(t1.beliefs, t2.beliefs)

    def test_run_index_matches_batch(self, model):
        batch = _rollout(model, MyopicPolicy(), uniform_belief(3),
                         _uniform_streams(5, range(4), 30), record=True)
        solo = simulate(model, MyopicPolicy(), uniform_belief(3), 30,
                        seed=5, run_index=2)
        assert np.array_equal(solo.states, batch["states"][2])
        assert np.array_equal(solo.costs, batch["costs"][2])

    def test_run_index_draws_only_that_run(self, model):
        seen = []

        class Spy(MyopicPolicy):
            def actions(self, PI, model):
                seen.append(PI.shape[0])
                return super().actions(PI, model)

        simulate(model, Spy(), uniform_belief(3), 10, seed=5, run_index=7)
        assert seen == [1] * 10

    def test_fixed_action_out_of_range_is_invalid_action(self, model):
        with pytest.raises(InvalidAction, match="fixed action 3"):
            FixedPolicy(3).actions(uniform_belief(3)[None, :], model)

    def test_actions_follow_myopic_threshold(self, model):
        traj = simulate(model, MyopicPolicy(), uniform_belief(3), 100, seed=7)
        for k in range(traj.horizon):
            pi = traj.beliefs[k]
            assert traj.actions[k] == myopic_policy(pi, model.costs)
            want = 1 if pi @ pi < 0.5 else (1 if abs(pi @ pi - 0.5) < 1e-15 else 2)
            assert traj.actions[k] == want

    def test_costs_match_belief_costs(self, model):
        traj = simulate(model, MyopicPolicy(), uniform_belief(3), 40, seed=9)
        for k in range(traj.horizon):
            assert traj.costs[k] == pytest.approx(
                belief_cost(traj.beliefs[k], int(traj.actions[k]), model.costs))


    def test_unequal_alphabets_follow_filter_update(self, P3, rng):
        # channels of 3 and 4 symbols, actions drawn at random per run and step:
        # every symbol lies in its channel's alphabet, never in the padding,
        # and every recorded posterior is the filter's
        channels = tuple(make_channel(random_stochastic(3, Y, rng)) for Y in (3, 4))
        model = PollingModel(P3, channels, CostSpec.expectation([0.5, 0.1], [0.2, 1.0]),
                             rho=0.8)

        class RandomPolicy:
            def actions(self, PI, model):
                h = model.costs.uncertainty(PI)
                return Step(rng.integers(1, 3, size=PI.shape[0]),
                            model.costs.stage_costs(h), h)

        data = _rollout(model, RandomPolicy(), uniform_belief(3),
                        _uniform_streams(9, range(25), 40), record=True)
        assert set(np.unique(data["actions"])) == {1, 2}
        # the fourth symbol exists only in channel 2, and channel 2 emits it
        assert (data["observations"][data["actions"] == 2] == 3).any()
        for r in range(25):
            for k in range(40):
                u, y = data["actions"][r, k], data["observations"][r, k]
                assert 0 <= y < channels[u - 1].n_outputs
                post, _ = filter_update(data["beliefs"][r, k], y, u, model)
                np.testing.assert_allclose(data["beliefs"][r, k + 1], post,
                                           rtol=0, atol=1e-14)


# every entry that rolls out, its counts and seed given as keywords
ROLLOUT_ENTRIES = {
    "estimate_cost": lambda model, horizon=5, runs=10, seed=0: estimate_cost(
        model, MyopicPolicy(), uniform_belief(3), horizon, runs, seed),
    "simulate": lambda model, horizon=5, seed=0: simulate(
        model, MyopicPolicy(), uniform_belief(3), horizon, seed),
    "l1_components": lambda model, horizon=5, runs=10, seed=0: l1_components(
        model, [0.5], 2, runs, horizon, seed),
    "l2_components": lambda model, horizon=5, runs=10, seed=0: l2_components(
        model, [0.5], runs, horizon, seed),
}
BAD_COUNTS = {
    "runs-2.5": ("runs", 2.5), "runs-True": ("runs", True),
    "runs-float64": ("runs", np.float64(3.0)), "runs-str": ("runs", "3"), "runs-0": ("runs", 0),
    "horizon-2.5": ("horizon", 2.5), "horizon-True": ("horizon", True),
    "horizon-bool_": ("horizon", np.bool_(True)), "horizon-0": ("horizon", 0),
    "horizon--1": ("horizon", -1),
}
COUNT_CASES = [pytest.param(entry, name, value, id=f"{entry}-{case}")
               for entry, call in ROLLOUT_ENTRIES.items()
               for case, (name, value) in BAD_COUNTS.items()
               if name in inspect.signature(call).parameters]


class TestEstimateCost:
    def test_rho_zero_is_initial_stage_cost(self):
        model = example1_model(rho=0.0)
        pi0 = uniform_belief(3)
        est = estimate_cost(model, MyopicPolicy(), pi0, horizon=10, runs=50, seed=1)
        want = belief_cost(pi0, myopic_policy(pi0, model.costs), model.costs)
        assert est.mean == pytest.approx(want, abs=1e-14)
        assert est.stderr == pytest.approx(0.0, abs=1e-14)

    def test_constant_cost_geometric_sum(self):
        c, rho, H = 0.7, 0.5, 12
        model = single_action_model(c, rho)
        est = estimate_cost(model, FixedPolicy(1), np.array([1.0]),
                            horizon=H, runs=5, seed=2)
        assert est.mean == pytest.approx(c * (1 - rho ** H) / (1 - rho), abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("entry, name, value", COUNT_CASES)
    def test_rejects_counts_that_are_not_positive_integers(self, model, entry, name, value):
        with pytest.raises(InvalidArgument, match=rf"^{name} must be an integer >= 1, got "):
            ROLLOUT_ENTRIES[entry](model, **{name: value})

    def test_rejects_an_empty_run_list(self):
        with pytest.raises(InvalidArgument, match="runs"):
            _uniform_streams(0, [], 5)

    @pytest.mark.parametrize("entry", ROLLOUT_ENTRIES)
    @pytest.mark.parametrize("seed", [True, np.bool_(True)], ids=["True", "bool_"])
    def test_rejects_a_bool_seed(self, model, entry, seed):
        with pytest.raises(InvalidArgument, match="integers >= 0"):
            ROLLOUT_ENTRIES[entry](model, seed=seed)

    def test_accepts_numpy_integer_counts(self, model):
        want = estimate_cost(model, MyopicPolicy(), uniform_belief(3), 5, 10, 0)
        got = estimate_cost(model, MyopicPolicy(), uniform_belief(3),
                            np.int64(5), np.int32(10), 0)
        assert got == want

    def test_truncation_bias_bound(self, model):
        est = estimate_cost(model, MyopicPolicy(), uniform_belief(3),
                            horizon=100, runs=2, seed=0)
        assert est.truncation_bias == pytest.approx(
            0.5 ** 100 * (0.25 + 1.0 * (2 / 3)) / 0.5)

    def test_variance_shrinks_with_runs(self, model):
        lo = estimate_cost(model, MyopicPolicy(), uniform_belief(3), 50, 200, seed=4)
        hi = estimate_cost(model, MyopicPolicy(), uniform_belief(3), 50, 800, seed=4)
        # stderr ~ 1/sqrt(runs): quadrupling runs should halve it (loosely)
        assert hi.stderr < 0.75 * lo.stderr

    def test_regression_baseline_rho09(self):
        # pinned-seed regression value, recorded on first run
        model = example1_model(rho=0.9)
        est = estimate_cost(model, MyopicPolicy(), uniform_belief(3),
                            horizon=100, runs=1000, seed=20240817)
        assert est.stderr < 0.02 * est.mean
        assert est.mean == pytest.approx(6.530371725237865, rel=1e-6)


class TestSharedStreams:
    """A caller's uniforms, drawn once for several rollouts, give each of
    them the estimate it would draw for itself. These tests import neither
    scipy nor hypothesis, so CI also runs them at the lowest numpy."""

    @pytest.fixture(scope="class")
    def gvf(self):
        return value_iteration(example1_model(rho=0.9), M=12)

    @pytest.mark.parametrize("policy", ["myopic", "grid", "fixed"])
    def test_equals_the_rollout_that_draws_its_own(self, policy, gvf):
        model = example1_model(rho=0.9)
        policy = {"myopic": MyopicPolicy(), "grid": GridPolicy(gvf),
                  "fixed": FixedPolicy(1)}[policy]
        runs, horizon, seed = 300, 40, 5
        streams = _uniform_streams(seed, range(runs), horizon)
        want = estimate_cost(model, policy, uniform_belief(3), horizon, runs, seed)
        got = estimate_cost(model, policy, uniform_belief(3), horizon, runs, seed,
                            streams=streams)
        assert got == want
        assert np.array_equal(streams, _uniform_streams(seed, range(runs), horizon))

    @pytest.mark.parametrize("shape", [(300, 80), (300, 82), (299, 81), (81,), (1, 300, 81)],
                             ids=["short", "long", "few-runs", "1-d", "3-d"])
    def test_a_wrong_shape_is_invalid(self, shape):
        model = example1_model(rho=0.9)
        with pytest.raises(InvalidArgument, match="streams"):
            estimate_cost(model, MyopicPolicy(), uniform_belief(3), 40, 300, 5,
                          streams=np.zeros(shape))

    def test_is_keyword_only(self):
        param = inspect.signature(estimate_cost).parameters["streams"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY


class TestInitialBelief:
    """Every rollout entry point checks pi0 under either policy."""

    @pytest.fixture(scope="class")
    def grid(self):
        return GridPolicy(value_iteration(example1_model(rho=0.5), M=6))

    BAD = pytest.mark.parametrize("pi0, error", [
        ([0.5, 0.5, 0.5], RowSumMismatch),
        ([0.5, 0.5], ModelShapeMismatch),
        ([[0.2, 0.3, 0.5]], ModelShapeMismatch),
    ], ids=["mass-1.5", "two-of-three", "two-dimensional"])

    @BAD
    @pytest.mark.parametrize("policy", ["myopic", "grid"])
    def test_estimate_cost_and_simulate_reject(self, model, grid, policy, pi0, error):
        chosen = grid if policy == "grid" else MyopicPolicy()
        for run in (lambda: estimate_cost(model, chosen, pi0, 20, 50, 0),
                    lambda: simulate(model, chosen, pi0, 20, 0)):
            with pytest.raises(error) as info:
                run()
            assert isinstance(info.value, HierPollError)

    @BAD
    def test_loss_components_reject(self, model, grid, pi0, error):
        # the myopic rollout checks pi0 before any grid policy is solved
        with pytest.raises(error):
            l1_components(model, [0.5], 6, 50, 20, 0, pi0, solve=lambda _: grid.gvf)
        with pytest.raises(error):
            l2_components(model, [0.5], 50, 20, 0, pi0)

    @pytest.mark.parametrize("policy", ["myopic", "grid"])
    def test_accepted_belief_is_the_first_recorded(self, model, grid, policy):
        pi0 = [0.2, 0.3, 0.5]
        traj = simulate(model, grid if policy == "grid" else MyopicPolicy(), pi0, 5, 0)
        assert np.array_equal(traj.beliefs[0], pi0)


class TestEmpiricalLaws:
    def test_state_visits_match_stationary_distribution(self, O1):
        scipy_stats = pytest.importorskip("scipy.stats")
        # fast-mixing ergodic chain, visits thinned to tame autocorrelation
        P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        model = PollingModel(P, (make_channel(O1),),
                             CostSpec.expectation([0.5], [0.5]), rho=0.5)
        traj = simulate(model, FixedPolicy(1), uniform_belief(3),
                        horizon=100_000, seed=13)
        thinned = traj.states[::10]
        counts = np.bincount(thinned, minlength=3)
        evals, evecs = np.linalg.eig(P.T)
        stat = np.real(evecs[:, np.argmax(np.real(evals))])
        stat = stat / stat.sum()
        expected = stat * thinned.size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < scipy_stats.chi2.ppf(0.999, df=2)

    def test_observation_frequencies_match_channel(self, model, O1):
        traj = simulate(model, FixedPolicy(1), uniform_belief(3),
                        horizon=60_000, seed=17)
        x, y = traj.states[1:], traj.observations
        for i in range(3):
            n = int((x == i).sum())
            for j in range(3):
                phat = (y[x == i] == j).mean()
                sigma = np.sqrt(O1[i, j] * (1 - O1[i, j]) / n)
                assert abs(phat - O1[i, j]) < 3.5 * sigma


class TestGridPolicy:
    def test_rho_zero_grid_policy_is_myopic(self):
        model = example1_model(rho=0.0)
        gvf = value_iteration(model, M=12)
        rng = np.random.default_rng(0)
        PI = rng.dirichlet(np.ones(3), size=200)
        grid, myopic = GridPolicy(gvf).actions(PI, model), MyopicPolicy().actions(PI, model)
        assert np.array_equal(grid.actions, myopic.actions)
        assert np.array_equal(grid.C, myopic.C)
        assert np.array_equal(grid.h, myopic.h)

    def test_grid_points_reproduce_vi_policy(self):
        # the rollout lookahead at grid points is the one VI ended on
        model = example1_model(rho=0.9)
        gvf = value_iteration(model, M=12)
        assert set(gvf.policy.tolist()) == {1, 2}
        assert np.array_equal(GridPolicy(gvf).actions(gvf.points, model).actions, gvf.policy)

    @pytest.mark.parametrize("alphabets", [(3, 3), (3, 4)])
    def test_rollout_takes_filter_posteriors_and_costs_from_the_lookahead(
            self, alphabets, P3, rng):
        # a grid step reads its stage cost and next belief from the policy's
        # lookahead; both must be the filter's and the cost matrix's, exactly
        channels = tuple(make_channel(random_stochastic(3, Y, rng)) for Y in alphabets)
        model = PollingModel(P3, channels, CostSpec.expectation([0.5, 0.1], [0.2, 1.0]),
                             rho=0.9)
        policy = GridPolicy(value_iteration(model, M=12))
        data = _rollout(model, policy, uniform_belief(3), _uniform_streams(4, range(20), 30),
                        record=True)
        assert set(np.unique(data["actions"])) == {1, 2}
        for r in range(20):
            for k in range(30):
                u, y = data["actions"][r, k], data["observations"][r, k]
                pi = data["beliefs"][r, k]
                assert data["costs"][r, k] == cost_matrix(pi, model.costs)[0, u - 1]
                assert np.array_equal(data["beliefs"][r, k + 1],
                                      filter_update(pi, y, u, model)[0])
        solo = simulate(model, policy, uniform_belief(3), 30, seed=4, run_index=5)
        assert np.array_equal(solo.beliefs, data["beliefs"][5])
        assert np.array_equal(solo.costs, data["costs"][5])


class TestStatelessPolicies:
    """A policy holds only what it was built with: its steps carry the costs,
    uncertainty and posteriors that the rollout reads."""

    @pytest.fixture(scope="class")
    def gvf(self):
        return value_iteration(example1_model(rho=0.9), M=6)

    def test_attributes_are_the_constructor_arguments(self, gvf):
        model = example1_model(rho=0.9)
        for policy, args in ((MyopicPolicy(), {}), (FixedPolicy(2), {"u": 2}),
                             (GridPolicy(gvf), {"gvf": gvf})):
            assert vars(policy) == args
            _rollout(model, policy, uniform_belief(3), _uniform_streams(1, range(4), 5),
                     proxy=True)
            assert vars(policy) == args

    @pytest.mark.parametrize("u", [2.7, 2.0, np.float64(2.0), True, np.bool_(True), "2", None],
                             ids=["2.7", "2.0", "float64", "True", "bool_", "str", "None"])
    def test_fixed_action_must_be_an_integer(self, u):
        with pytest.raises(InvalidAction, match="integer"):
            FixedPolicy(u)

    def test_fixed_action_may_be_a_numpy_integer(self):
        model = example1_model(rho=0.9)
        policy = FixedPolicy(np.int64(2))
        assert vars(policy) == {"u": 2}
        assert (estimate_cost(model, policy, uniform_belief(3), 10, 20, 3)
                == estimate_cost(model, FixedPolicy(2), uniform_belief(3), 10, 20, 3))

    def test_grid_step_carries_its_lookahead(self, gvf, rng):
        model = example1_model(rho=0.9)
        PI = rng.dirichlet(np.ones(3), size=30)
        step = GridPolicy(gvf).actions(PI, model)
        la = Lookahead(model, gvf.grid, PI)
        assert np.array_equal(step.actions, np.argmin(la.q_values(gvf.values), axis=1) + 1)
        assert np.array_equal(step.C, cost_matrix(PI, model.costs))
        assert np.array_equal(step.h, model.costs.uncertainty(PI))
        assert np.array_equal(step.posteriors, la.T)

    def test_a_call_between_steps_changes_nothing(self, gvf, rng):
        # a policy that plans on an unrelated belief set before it answers
        model = example1_model(rho=0.9)
        other = rng.dirichlet(np.ones(3), size=7)

        class Distracted(GridPolicy):
            def actions(self, PI, model):
                step = super().actions(PI, model)
                super().actions(other, model)
                return step

        draws = _uniform_streams(2, range(15), 20)
        want = _rollout(model, GridPolicy(gvf), uniform_belief(3), draws,
                        proxy=True, record=True)
        got = _rollout(model, Distracted(gvf), uniform_belief(3), draws,
                       proxy=True, record=True)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name


class TestLossL1:
    def test_zero_at_rho_zero(self):
        model = example1_model(rho=0.0)
        val = loss_L1(model, M=12, runs=200, horizon=20, seed=3)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_within_noise(self):
        model = example1_model(rho=0.6)
        j_bar = estimate_cost(model, MyopicPolicy(), uniform_belief(3), 60, 400, seed=5)
        gvf = value_iteration(model, M=24)
        j_opt = estimate_cost(model, GridPolicy(gvf), uniform_belief(3), 60, 400, seed=5)
        se = np.hypot(j_bar.stderr, j_opt.stderr)
        assert j_bar.mean - j_opt.mean >= -3 * se


class TestLossRatio:
    def test_zero_reference_mean_is_invalid(self):
        # a known state that never moves and a free poll cost nothing
        model = PollingModel(np.eye(2), (make_channel(np.eye(2)), make_channel(np.eye(2))),
                             CostSpec.expectation([0, 0], [0, 1]), rho=0.5)
        e = estimate_cost(model, MyopicPolicy(), [1.0, 0.0], 10, 5, seed=0)
        assert e.mean == 0.0
        with pytest.raises(InvalidArgument, match="reference cost estimate has mean 0"):
            loss_ratio(e, e)
        with pytest.raises(InvalidArgument, match="mean 0"):
            loss_L1(model, M=4, runs=5, horizon=10, seed=0, pi0=[1.0, 0.0])
        with pytest.raises(InvalidArgument, match="mean 0"):
            loss_L2(model, runs=5, horizon=10, seed=0, pi0=[1.0, 0.0])


class TestLossL2:
    def test_zero_at_rho_zero_inside_action_one_region(self):
        model = example1_model(rho=0.0)
        # uniform belief: pi'pi = 1/3 < 0.5, strictly inside the region
        val = loss_L2(model, runs=100, horizon=10, seed=8)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_single_action_collapses_to_action_one_cost(self):
        model = single_action_model(0.7, rho=0.3)
        val = loss_L2(model, runs=20, horizon=15, seed=9)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_intent_requires_ctilde_weight(self):
        model = example2_model(rho=0.3, X=4, seed=1)
        model = replace(model, costs=replace(model.costs, ctilde_weight=None))
        with pytest.raises(UndefinedCTilde):
            loss_L2(model, runs=10, horizon=5, seed=2)

    def test_large_model_finite(self):
        model = example2_model(rho=0.5, X=5, seed=1)
        e1 = np.zeros(5)
        e1[0] = 1.0
        val = loss_L2(model, runs=50, horizon=30, seed=10, pi0=e1)
        assert np.isfinite(val)

    def test_ctilde_piecewise_definition(self, model):
        rng = np.random.default_rng(2)
        PI = rng.dirichlet(np.ones(3), size=100)
        from hierpoll.pomdp import cost_matrix
        vals = ctilde_values(PI, model.costs)
        allc = cost_matrix(PI, model.costs)
        inner = allc[:, 0] < allc[:, 1]
        err = 1 - np.einsum("ij,ij->i", PI, PI)
        want = np.where(inner, allc[:, 0], allc[:, 1] + 0.5 * (0.5 * err))
        assert np.allclose(vals, want)
        assert np.array_equal(ctilde_values(PI, model.costs, allc), vals)


def intent_model():
    return example2_model(rho=0.7, X=4, seed=3)


def at_rho(model, rho):
    return PollingModel(model.P, model.channels, model.costs, rho)


RHOS = [0.0, 0.5, 0.9]


class TestSharedRollouts:
    """One rho-free rollout, discounted per rho, equals a rollout per rho."""

    @pytest.mark.parametrize("make", [lambda: example1_model(0.3), intent_model],
                             ids=["example1", "intent-x4"])
    def test_l2_components_match_per_rho_oracles(self, make):
        model, runs, horizon, seed = make(), 40, 25, 11
        X = model.n_states
        pi0 = uniform_belief(X)
        traj = _rollout(model, MyopicPolicy(), pi0, _uniform_streams(seed, range(runs), horizon),
                        record=True)
        ctilde = ctilde_values(traj["beliefs"][:, :-1].reshape(-1, X),
                               model.costs).reshape(runs, horizon)
        components = l2_components(model, RHOS, runs, horizon, seed)
        assert len(components) == len(RHOS)
        for rho, (j_bar, j_tilde) in zip(RHOS, components):
            assert j_bar == estimate_cost(at_rho(model, rho), MyopicPolicy(), pi0,
                                          horizon, runs, seed)
            totals = ctilde @ rho ** np.arange(horizon)
            assert j_tilde.mean == pytest.approx(totals.mean(), rel=1e-12, abs=1e-12)
            assert j_tilde.stderr == pytest.approx(totals.std(ddof=1) / np.sqrt(runs),
                                                   rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("make", [lambda: example1_model(0.3), intent_model],
                             ids=["example1", "intent-x4"])
    def test_l1_components_match_per_rho_oracles(self, make):
        model, M, runs, horizon, seed = make(), 6, 30, 15, 4
        pi0 = uniform_belief(model.n_states)
        components = l1_components(model, RHOS, M, runs, horizon, seed)
        assert len(components) == len(RHOS)
        for rho, (j_bar, j_star) in zip(RHOS, components):
            exact = at_rho(model, rho)
            assert j_bar == estimate_cost(exact, MyopicPolicy(), pi0, horizon, runs, seed)
            gvf = value_iteration(exact, M)
            assert j_star == estimate_cost(exact, GridPolicy(gvf), pi0, horizon, runs, seed)

    @pytest.mark.parametrize("make", [lambda: example1_model(0.3), intent_model],
                             ids=["example1", "intent-x4"])
    def test_rho_zero_grid_estimate_equals_a_grid_rollout(self, make, rng):
        # l1_components reuses the myopic estimate at rho = 0; a real grid
        # rollout must give the same mean and stderr, bit for bit
        model = at_rho(make(), 0.0)
        M, runs, horizon, seed = 8, 200, 40, 7
        pi0 = rng.dirichlet(np.ones(model.n_states))
        ((j_bar, j_star),) = l1_components(model, [0.0], M, runs, horizon, seed, pi0)
        rolled = estimate_cost(model, GridPolicy(value_iteration(model, M)), pi0,
                               horizon, runs, seed)
        assert j_star is j_bar
        assert (j_star.mean, j_star.stderr) == (rolled.mean, rolled.stderr)
        assert j_star == rolled


class TestMyopicStageCosts:
    """A myopic step forms h(pi) once; its Step's costs, actions and the
    rollout's ctilde come from it."""

    @pytest.mark.parametrize("make", [lambda: example1_model(0.3), intent_model],
                             ids=["example1", "intent-x4"])
    def test_policy_keeps_the_costs_of_its_beliefs(self, make, rng):
        model = make()
        PI = rng.dirichlet(np.ones(model.n_states), size=50)
        step = MyopicPolicy().actions(PI, model)
        assert np.array_equal(step.actions, myopic_policy(PI, model.costs))
        assert np.array_equal(step.h, model.costs.uncertainty(PI))
        assert np.array_equal(step.C, cost_matrix(PI, model.costs))
        assert step.posteriors is None
        assert np.array_equal(ctilde_values(PI, model.costs, step.C, step.h),
                              ctilde_values(PI, model.costs))

    def test_one_uncertainty_evaluation_per_step(self, monkeypatch):
        model, horizon = intent_model(), 12
        calls = []
        uncertainty = CostSpec.uncertainty
        monkeypatch.setattr(CostSpec, "uncertainty",
                            lambda self, PI: calls.append(1) or uncertainty(self, PI))
        _rollout(model, MyopicPolicy(), uniform_belief(model.n_states),
                 _uniform_streams(0, range(30), horizon), proxy=True)
        assert len(calls) == horizon
