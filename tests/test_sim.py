import numpy as np
import pytest

from hierpoll.channels import make_channel
from hierpoll.errors import InvalidAction, UndefinedCTilde
from hierpoll.pomdp import (
    CostSpec,
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
    _rollout,
    ctilde_values,
    estimate_cost,
    l1_components,
    l2_components,
    loss_L1,
    loss_L2,
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
        batch = _rollout(model, MyopicPolicy(), uniform_belief(3), 30,
                         seed=5, runs=4, record=True)
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
                return rng.integers(1, 3, size=PI.shape[0])

        data = _rollout(model, RandomPolicy(), uniform_belief(3), 40, seed=9,
                        runs=25, record=True)
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

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_rejects_empty_horizon(self, model, horizon):
        with pytest.raises(ValueError, match="horizon"):
            estimate_cost(model, MyopicPolicy(), uniform_belief(3), horizon, 10, 0)

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
        assert np.array_equal(GridPolicy(gvf).actions(PI, model),
                              MyopicPolicy().actions(PI, model))

    def test_grid_points_reproduce_vi_policy(self):
        # the rollout lookahead at grid points is the one VI ended on
        model = example1_model(rho=0.9)
        gvf = value_iteration(model, M=12)
        assert set(gvf.policy.tolist()) == {1, 2}
        assert np.array_equal(GridPolicy(gvf).actions(gvf.points, model), gvf.policy)

    @pytest.mark.parametrize("alphabets", [(3, 3), (3, 4)])
    def test_rollout_takes_filter_posteriors_and_costs_from_the_lookahead(
            self, alphabets, P3, rng):
        # a grid step reads its stage cost and next belief from the policy's
        # lookahead; both must be the filter's and the cost matrix's, exactly
        channels = tuple(make_channel(random_stochastic(3, Y, rng)) for Y in alphabets)
        model = PollingModel(P3, channels, CostSpec.expectation([0.5, 0.1], [0.2, 1.0]),
                             rho=0.9)
        policy = GridPolicy(value_iteration(model, M=12))
        data = _rollout(model, policy, uniform_belief(3), 30, seed=4, runs=20, record=True)
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
        model = example2_model(rho=0.3, X=4, seed=1, ctilde_weight=None)
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
        traj = _rollout(model, MyopicPolicy(), pi0, horizon, seed, runs, record=True)
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
