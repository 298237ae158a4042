import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hierpoll import pomdp
from hierpoll.channels import certify_chain, lecam_deficiency, make_channel
from hierpoll.errors import (
    BeliefOffGrid,
    GridTooLarge,
    InvalidAction,
    InvalidCostSpec,
    ModelShapeMismatch,
    NegativeEntry,
    NonConvergence,
    NonFiniteEntry,
    RowSumMismatch,
    UncertifiedChain,
    ZeroLikelihood,
)
from hierpoll.fileio import cost_spec_from_dict, cost_spec_to_dict
from hierpoll.pomdp import (
    CostSpec,
    FreudenthalGrid,
    Lookahead,
    PollingModel,
    bayes_update,
    belief_cost,
    cost_matrix,
    evaluate_policy_on_grid,
    filter_update,
    grid_size,
    max_stage_cost,
    model_distance,
    myopic_policy,
    validate_belief,
    value_iteration,
    verify_myopic_bound,
    verify_ordinal_sensitivity,
    verify_sensitivity_bounds,
)
from hierpoll.presets import example1_costs, example1_model
from hierpoll.stochastic import ConvexPolynomial, matrix_power

from conftest import random_stochastic


@pytest.fixture
def model(O1, O2, P3):
    return example1_model(rho=0.5)


_BETAS = (ConvexPolynomial([1.0]), ConvexPolynomial([0.5, 0.5]))


class TestCostSpec:
    def test_monotonicity_rejected(self):
        with pytest.raises(InvalidCostSpec):
            CostSpec.expectation([0.25, 0.5], [0.5, 1.0])  # S increasing
        with pytest.raises(InvalidCostSpec):
            CostSpec.expectation([0.5, 0.25], [1.0, 0.5])  # w decreasing

    def test_intent_costs_build_from_their_values_and_round_trip(self):
        spec = CostSpec("intent", [1.0, 0.5], [2.0, 1.0], [1.0, 2.0])
        back = cost_spec_from_dict(cost_spec_to_dict(spec))
        assert back.equivalent(spec) and back.ctilde_weight is None

    @pytest.mark.parametrize("variant", ["expectation", "friendship"])
    def test_negative_error_weights_rejected(self, variant):
        # stage costs are concave in pi only for w >= 0
        with pytest.raises(InvalidCostSpec, match="error weights must be >= 0"):
            CostSpec(variant, [0, 0], [-2, -1])
        assert CostSpec(variant, [0, 0], [0, 1]).weights.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("make", [
        lambda: CostSpec.expectation([-1, -2], [0, 1]),
        lambda: CostSpec.friendship([0.5, -0.25], [0.5, 1.0]),
        lambda: CostSpec.intent([-1.0, -2.0], _BETAS, [2.0, 1.0], [1.0, 2.0]),
        # the negative level is beyond every beta, so the measurements are 0
        lambda: CostSpec.intent([0.0, 0.0, -1.0], _BETAS, [2.0, 1.0], [1.0, 2.0]),
    ], ids=["expectation", "friendship", "intent", "intent-unused-level"])
    def test_negative_measurement_costs_rejected(self, make):
        # value iteration starts at V = 0, which needs every stage cost >= 0
        with pytest.raises(InvalidCostSpec, match="must be >= 0"):
            make()

    @pytest.mark.parametrize("variant", ["expectation", "friendship"])
    def test_offsets_only_for_intent(self, variant):
        with pytest.raises(InvalidCostSpec, match="take no offsets"):
            CostSpec(variant, [0.5, 0.25], [0.5, 1.0], offsets=[1.0, 2.0])
        spec = CostSpec(variant, [0.5, 0.25], [0.5, 1.0], offsets=[0.0, 0.0])
        assert spec.offsets.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_ctilde_weight_rejected(self, weight):
        with pytest.raises(InvalidCostSpec, match="ctilde_weight"):
            CostSpec.expectation([0.5, 0.25], [0.5, 1.0], ctilde_weight=weight)

    @pytest.mark.parametrize("field, make", [
        ("measurement", lambda: CostSpec.expectation([np.nan, 0.25], [0.5, 1.0])),
        ("weights", lambda: CostSpec.friendship([0.5, 0.25], [0.5, np.inf])),
        ("offsets", lambda: CostSpec.intent([1.0, 0.5], _BETAS, [2.0, 1.0], [np.nan, 2.0])),
        # the NaN level is beyond every beta, so the measurements stay finite
        ("level_costs", lambda: CostSpec.intent([1.0, 0.5, np.nan], _BETAS,
                                                [2.0, 1.0], [1.0, 2.0])),
    ], ids=["measurement", "weights", "offsets", "level_costs"])
    def test_non_finite_costs_rejected(self, field, make):
        # NaN fails every ordering test, so it must be checked on its own
        with pytest.raises(InvalidCostSpec, match=f"{field} must be finite"):
            make()

    def test_intent_monotonicity(self):
        from hierpoll.stochastic import ConvexPolynomial
        betas = (ConvexPolynomial([1.0]), ConvexPolynomial([0.5, 0.5]))
        CostSpec.intent([1.0, 0.5], betas, entropy_weights=[2.0, 1.0], offsets=[1.0, 2.0])
        with pytest.raises(InvalidCostSpec):
            CostSpec.intent([1.0, 0.5], betas, entropy_weights=[1.0, 2.0], offsets=[1.0, 2.0])

    def test_intent_measurement_average(self):
        from hierpoll.stochastic import ConvexPolynomial
        betas = (ConvexPolynomial([0.5, 0.5]),)
        spec = CostSpec.intent([1.0, 0.5], betas, entropy_weights=[1.0], offsets=[1.0])
        assert spec.measurement[0] == pytest.approx(0.75)


def _cost_specs():
    betas = (ConvexPolynomial([1.0]), ConvexPolynomial([0.0, 1.0]))
    return {
        "expectation": example1_costs(),
        "friendship": CostSpec.friendship([0.5, 0.3, 0.25], [0.2, 0.6, 1.5]),
        "intent": CostSpec.intent([0.5, 0.25], betas, entropy_weights=[2.0, 1.0],
                                  offsets=[1.0, 2.0]),
    }


class TestMaxStageCost:
    @pytest.mark.parametrize("variant", ["expectation", "friendship", "intent"])
    def test_peak_is_attained_at_uniform_belief(self, variant, rng):
        spec = _cost_specs()[variant]
        for X in (2, 3, 5):
            peak = max_stage_cost(spec, X)
            assert peak == pytest.approx(cost_matrix(np.full(X, 1 / X), spec).max(), rel=1e-12)
            beliefs = rng.dirichlet(np.full(X, 0.5), size=200)
            assert cost_matrix(beliefs, spec).max() <= peak + 1e-12


class TestStageCostLayout:
    """C is built action-first, so its broadcasts run along the beliefs; the
    (n, U) view it returns holds the bits of the row-major formula."""

    @pytest.mark.parametrize("X", [3, 20])
    @pytest.mark.parametrize("variant", ["expectation", "friendship", "intent"])
    def test_equals_the_row_major_formula(self, variant, X, rng):
        spec = _cost_specs()[variant]
        PI = np.vstack([np.eye(X), np.full(X, 1 / X), rng.dirichlet(np.ones(X), 1000)])
        h = spec.uncertainty(PI)
        m, w, o = spec.measurement, spec.weights, spec.offsets
        C = spec.stage_costs(h)
        assert C.shape == (PI.shape[0], spec.num_actions)
        assert np.array_equal(C, m[None] + h[:, None] * w[None] + o[None])
        assert np.array_equal(cost_matrix(PI, spec), C)


class TestBeliefCost:
    def test_vertex_cost_is_measurement(self):
        spec = example1_costs()
        for u, S in [(1, 0.5), (2, 0.25)]:
            assert belief_cost(np.array([1.0, 0, 0]), u, spec) == pytest.approx(S)

    def test_published_cost_values_at_uniform(self):
        spec = example1_costs()
        pi = np.full(3, 1 / 3)
        assert belief_cost(pi, 1, spec) == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-12)
        assert belief_cost(pi, 2, spec) == pytest.approx(0.25 + 2 / 3, abs=1e-12)

    def test_intent_vertex_keeps_offset(self):
        from hierpoll.stochastic import ConvexPolynomial
        spec = CostSpec.intent([0.7], (ConvexPolynomial([1.0]),),
                               entropy_weights=[2.0], offsets=[3.0])
        assert belief_cost(np.array([0.0, 1.0]), 1, spec) == pytest.approx(0.7 + 3.0)

    def test_invalid_action(self):
        with pytest.raises(InvalidAction):
            belief_cost(np.array([1.0, 0.0]), 3, example1_costs())

    def test_concavity(self, rng):
        spec = example1_costs()
        from hierpoll.stochastic import ConvexPolynomial
        intent = CostSpec.intent([0.5, 0.25], (ConvexPolynomial([1.0]), ConvexPolynomial([0.0, 1.0])),
                                 entropy_weights=[2.0, 1.0], offsets=[1.0, 2.0])
        for costs in (spec, intent):
            for _ in range(50):
                p1 = rng.dirichlet(np.ones(3))
                p2 = rng.dirichlet(np.ones(3))
                lam = rng.uniform()
                mid = lam * p1 + (1 - lam) * p2
                for u in (1, 2):
                    assert belief_cost(mid, u, costs) >= (
                        lam * belief_cost(p1, u, costs)
                        + (1 - lam) * belief_cost(p2, u, costs) - 1e-10)


class TestMyopicPolicy:
    def test_threshold_rule(self):
        spec = example1_costs()
        assert myopic_policy(np.full(3, 1 / 3), spec) == 1        # pi'pi = 1/3 < 0.5
        assert myopic_policy(np.array([1.0, 0, 0]), spec) == 2    # pi'pi = 1

    def test_threshold_boundary(self, rng):
        spec = example1_costs()
        for _ in range(50):
            pi = rng.dirichlet(np.ones(3))
            want = 1 if pi @ pi <= 0.5 else 2
            assert myopic_policy(pi, spec) == want

    def test_tie_breaks_to_action_one(self):
        spec = CostSpec.expectation([0.5, 0.5], [0.5, 1.0])
        assert myopic_policy(np.array([1.0, 0.0, 0.0]), spec) == 1

    def test_batch_matches_single_beliefs(self, rng):
        for spec in _cost_specs().values():
            PI = rng.dirichlet(np.ones(3), size=40)
            got = myopic_policy(PI, spec)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [myopic_policy(pi, spec) for pi in PI]


class TestFilterUpdate:
    def test_perfect_observation(self, P3):
        model = PollingModel(P3, (make_channel(np.eye(3)),),
                             CostSpec.expectation([0.5], [0.5]), rho=0.5)
        pi = np.full(3, 1 / 3)
        post, sigma = filter_update(pi, 1, 1, model)
        assert np.allclose(post, [0, 1, 0])
        assert sigma == pytest.approx(float((P3.T @ pi)[1]))

    def test_uninformative_observation(self, P3):
        model = PollingModel(P3, (make_channel(np.full((3, 4), 0.25)),),
                             CostSpec.expectation([0.5], [0.5]), rho=0.5)
        pi = np.array([0.6, 0.3, 0.1])
        post, sigma = filter_update(pi, 2, 1, model)
        assert np.allclose(post, P3.T @ pi)
        assert sigma == pytest.approx(0.25)

    def test_hand_evaluated_update(self, model, P3, O1):
        pi = np.full(3, 1 / 3)
        pred = P3.T @ pi
        want = O1[:, 0] * pred
        want = want / want.sum()
        post, sigma = filter_update(pi, 0, 1, model)
        assert np.allclose(post, want, atol=1e-14)
        assert sigma == pytest.approx(float((O1[:, 0] * pred).sum()))

    def test_zero_likelihood(self, P3):
        O = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        model = PollingModel(P3, (make_channel(O),),
                             CostSpec.expectation([0.5], [0.5]), rho=0.5)
        with pytest.raises(ZeroLikelihood):
            filter_update(np.full(3, 1 / 3), 1, 1, model)

    @pytest.mark.parametrize("pi, error", [
        ([2.0, -1.0, 0.0], NegativeEntry), ([0.5, 0.6, 0.0], RowSumMismatch),
    ], ids=["negative", "row-sum"])
    def test_prior_must_be_a_distribution(self, model, pi, error):
        with pytest.raises(error):
            filter_update(pi, 0, 1, model)

    @pytest.mark.parametrize("pi", [[0.5, 0.5], [[1 / 3, 1 / 3, 1 / 3]]], ids=["short", "2-d"])
    def test_prior_of_another_shape_is_a_model_mismatch(self, model, pi):
        with pytest.raises(ModelShapeMismatch, match="for a 3-state model"):
            filter_update(pi, 0, 1, model)

    def test_bayes_update_batches_and_zero_rows(self):
        # states first: one belief per column
        PR = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]).T
        L = np.array([[0.0, 0.0, 1.0], [1.0, 0.5, 0.0]]).T
        post, sigma = bayes_update(PR, L)
        assert np.allclose(sigma, [0.0, 0.35])
        assert np.array_equal(post[:, 0], np.full(3, 1 / 3))
        assert np.allclose(post[:, 1], [0.2 / 0.35, 0.15 / 0.35, 0.0])

    @pytest.mark.parametrize("X", [3, 8, 20, 33])
    def test_bayes_update_on_transposed_rows_matches_last_axis_normalisation(self, X, rng):
        # rows of beliefs passed as transposed views reduce over the contiguous
        # axis, so the bits are those of a sum over the last axis at every X
        PR = rng.dirichlet(np.ones(X), 500)
        L = rng.random((500, X)) * (rng.random((500, X)) < 0.8)
        L[0] = 0.0
        post, sigma = bayes_update(PR.T, L.T)
        unnorm = PR * L
        want_sigma = unnorm.sum(axis=-1)
        seen = want_sigma > 0
        want = np.where(seen[:, None], unnorm / np.where(seen, want_sigma, 1.0)[:, None],
                        1.0 / X)
        assert np.array_equal(sigma, want_sigma)
        assert np.array_equal(post.T, want)
        assert post.T.flags.c_contiguous

    def test_likelihoods_sum_to_one(self, model, rng):
        for _ in range(200):
            pi = rng.dirichlet(np.ones(3))
            u = int(rng.integers(1, 3))
            total = 0.0
            for y in range(3):
                post, sigma = filter_update(pi, y, u, model)
                validate_belief(post)
                total += sigma
            assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("pi, error", [
    ([np.nan, 1.0], NonFiniteEntry),
    ([1.2, -0.2], NegativeEntry),
    ([0.5, 0.5 + 2e-10], RowSumMismatch),
    ([], RowSumMismatch),
    (1.0, RowSumMismatch),
    ([[0.5, 0.5]], RowSumMismatch),
], ids=["nan", "negative", "sum", "empty", "scalar", "2-d"])
def test_validate_belief_raises_the_stochastic_errors(pi, error):
    with pytest.raises(error):
        validate_belief(pi)


def test_validate_belief_keeps_its_tolerances():
    pi = [0.5, 0.5 + 5e-11, -5e-13]
    assert validate_belief(pi).tolist() == pi


def searchsorted_interpolation_data(grid, PI):
    """Reference lookup by search: every simplex vertex is built as an
    explicit composition and found among the sorted lattice keys. Raises
    RuntimeError where the grid code raises BeliefOffGrid for a vertex off
    the grid."""
    M, X = grid.M, grid.X
    powers = (M + 1) ** np.arange(X, dtype=np.int64)
    keys = grid.lattice @ powers
    key_order = np.argsort(keys)
    sorted_keys = keys[key_order]

    def index_of(comps):
        k = comps @ powers
        pos = np.clip(np.searchsorted(sorted_keys, k), 0, sorted_keys.size - 1)
        found = (sorted_keys[pos] == k) & (comps >= 0).all(axis=1)
        return np.where(found, key_order[pos], -1)

    PI = np.atleast_2d(np.asarray(PI, dtype=float))
    n = PI.shape[0]
    xi = M * np.cumsum(PI[:, ::-1], axis=1)[:, ::-1]
    v = np.floor(xi + 1e-9)
    d = np.clip(xi - v, 0.0, None)
    order = np.argsort(-d[:, 1:], axis=1, kind="stable") + 1
    dsort = np.take_along_axis(d, order, axis=1)
    w = np.empty((n, X))
    w[:, 0] = 1.0 - dsort[:, 0]
    if X > 2:
        w[:, 1:X - 1] = dsort[:, :X - 2] - dsort[:, 1:X - 1]
    w[:, X - 1] = dsort[:, X - 2]
    verts = np.repeat(v[:, None, :], X, axis=1)
    rows = np.arange(n)[:, None]
    for k in range(1, X):
        verts[rows, np.arange(k, X)[None, :], order[:, k - 1:k]] += 1.0
    comps = np.rint(verts - np.concatenate(
        [verts[:, :, 1:], np.zeros((n, X, 1))], axis=2)).astype(np.int64)
    idx = index_of(comps.reshape(-1, X)).reshape(n, X)
    if np.any((idx < 0) & (w > 1e-12)):
        raise RuntimeError("interpolation vertex fell outside the grid")
    return np.where(idx < 0, 0, idx), np.clip(w, 0.0, None)


ORACLE_GRIDS = [(60, 3), (12, 3), (20, 4), (10, 5), (2, 2), (60, 2), (6, 8), (3, 20)]


class TestFreudenthalGrid:
    @pytest.mark.parametrize("M, X", ORACLE_GRIDS, ids=[f"M{m}-X{x}" for m, x in ORACLE_GRIDS])
    def test_closed_form_matches_searchsorted_reference(self, M, X, rng):
        grid = FreudenthalGrid(M, X)
        faces = rng.dirichlet(np.ones(X), 400) * (rng.random((400, X)) < 0.5)
        faces = faces[faces.sum(axis=1) > 0]
        faces /= faces.sum(axis=1, keepdims=True)
        assert (faces == 0).any(axis=1).mean() > 0.2
        # zeros nudged to -1e-14: vertices stepped out of order, too light to reject
        nudged = np.where(faces == 0, -1e-14, faces)
        for beliefs in (grid.points, rng.dirichlet(np.ones(X), 2000), faces,
                        grid.points * (1 + 4e-16), nudged):
            want_idx, want_w = searchsorted_interpolation_data(grid, beliefs)
            # belief rows, and states-first rows as Lookahead passes them
            for rows in (beliefs, np.ascontiguousarray(beliefs.T).T):
                idx, w = grid.interpolation_data(rows)
                assert np.array_equal(idx, want_idx)
                assert np.array_equal(w, want_w)

    @pytest.mark.parametrize("M, X", ORACLE_GRIDS, ids=[f"M{m}-X{x}" for m, x in ORACLE_GRIDS])
    def test_index_of_ranks_lattice_and_rejects_invalid(self, M, X):
        grid = FreudenthalGrid(M, X)
        assert np.array_equal(grid.index_of(grid.lattice), np.arange(grid.size))
        negative = grid.lattice[-1].copy()
        negative[0] -= 1
        negative[1] += 1
        heavy = grid.lattice[0].copy()
        heavy[-1] += 1
        light = grid.lattice[0].copy()
        light[0] -= 1
        assert np.array_equal(grid.index_of(np.stack([negative, heavy, light])), [-1] * 3)

    @pytest.mark.parametrize("belief", [[np.nan, 0.5, 0.5], [-0.2, 0.6, 0.6],
                                        [0.0, 0.5, 0.5 + 1e-9]],
                             ids=["nan", "negative", "mass-above-one"])
    def test_off_grid_belief_raises_typed_error(self, belief):
        grid = FreudenthalGrid(10, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BeliefOffGrid):
                grid.interpolation_data(np.array([belief]))

    def test_negligible_off_grid_weight_is_accepted(self):
        # the off-grid vertex weighs about M * 1e-14, below the 1e-12 cut
        grid = FreudenthalGrid(10, 3)
        idx, w = grid.interpolation_data(np.array([[0.0, 0.5, 0.5 + 1e-14]]))
        assert np.array_equal(idx, searchsorted_interpolation_data(
            grid, [[0.0, 0.5, 0.5 + 1e-14]])[0])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_memory_stays_near_the_lattice(self, rng):
        # rules out a dense key -> index table, (M+2)^(X-1) entries (~7x here)
        beliefs = rng.dirichlet(np.ones(6), 1000)
        tracemalloc.start()
        try:
            grid = FreudenthalGrid(15, 6)
            grid.interpolation_data(beliefs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (grid.lattice.nbytes + grid.points.nbytes)

    def test_transposed_input_gives_identical_output(self, rng):
        grid = FreudenthalGrid(12, 4)
        PI = rng.dirichlet(np.ones(4), 300)
        idx, w = grid.interpolation_data(PI)
        idx_t, w_t = grid.interpolation_data(np.ascontiguousarray(PI.T).T)
        assert idx.shape == w.shape == (300, 4)
        assert np.array_equal(idx, idx_t) and np.array_equal(w, w_t)

    def test_grid_size_formula(self):
        assert FreudenthalGrid(60, 3).size == grid_size(60, 3) == 1891

    def test_exact_on_grid_points(self, rng):
        grid = FreudenthalGrid(7, 3)
        values = rng.normal(size=grid.size)
        got = grid.interpolate(values, grid.points)
        assert np.abs(got - values).max() < 1e-12

    def test_reproduces_affine_functions(self, rng):
        grid = FreudenthalGrid(9, 4)
        a = rng.normal(size=4)
        values = grid.points @ a
        for _ in range(100):
            pi = rng.dirichlet(np.ones(4))
            got = grid.interpolate(values, pi[None, :])[0]
            assert got == pytest.approx(float(pi @ a), abs=1e-12)

    def test_weights_are_convex_combination(self, rng):
        grid = FreudenthalGrid(11, 3)
        for _ in range(200):
            pi = rng.dirichlet(np.ones(3))
            idx, w = grid.interpolation_data(pi[None, :])
            assert w.min() >= -1e-12
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            recon = (grid.points[idx[0]] * w[0][:, None]).sum(axis=0)
            assert np.abs(recon - pi).max() < 1e-9

    def test_matches_bruteforce_simplex_search(self, rng):
        # oracle: enumerate every simplex of the triangulation and locate
        # the query by solving for barycentric coordinates
        from itertools import permutations
        grid = FreudenthalGrid(10, 3)
        values = rng.normal(size=grid.size)

        def oracle(pi):
            xi = grid.M * np.cumsum(pi[::-1])[::-1]
            for g in range(grid.size):
                base = np.cumsum(grid.lattice[g][::-1])[::-1].astype(float)
                for perm in permutations(range(1, grid.X)):
                    verts = [base.copy()]
                    for p in perm:
                        nxt = verts[-1].copy()
                        nxt[p] += 1
                        verts.append(nxt)
                    Vm = np.stack(verts, axis=1)
                    try:
                        lam = np.linalg.solve(Vm, xi)
                    except np.linalg.LinAlgError:
                        continue
                    if lam.min() < -1e-9:
                        continue
                    comp = Vm - np.vstack([Vm[1:], np.zeros((1, grid.X + 0))])
                    comps = np.rint(comp.T).astype(np.int64)
                    idx = grid.index_of(comps)
                    if (idx < 0).any():
                        continue
                    return float(lam @ values[idx])
            raise AssertionError("no containing simplex found")

        for _ in range(25):
            pi = rng.dirichlet(np.ones(3))
            fast = grid.interpolate(values, pi[None, :])[0]
            assert fast == pytest.approx(oracle(pi), abs=1e-9)

    def test_freudenthal_interpolate_entry_point(self, model):
        gvf = value_iteration(model, M=10)
        g = 17
        assert gvf.interpolate(gvf.points[g]) == pytest.approx(
            float(gvf.values[g]), abs=1e-12)

    @pytest.mark.parametrize("M, X", [(1, 2), (4, 3), (3, 5)])
    def test_allowance_is_the_largest_change_across_one_move(self, rng, M, X):
        # oracle: every pair of lattice points at L1 distance 2, i.e. one move apart
        grid = FreudenthalGrid(M, X)
        values = rng.normal(size=(3, grid.size))
        L = grid.lattice
        apart = np.abs(L[:, None, :] - L[None, :, :]).sum(axis=2) == 2
        want = sum(np.abs(v[:, None] - v[None, :])[apart].max() for v in values)
        assert pomdp._interpolation_allowance(grid, *values) == want


def one_row_among(rng, row, n=1999):
    """n random 3-state beliefs with `row` placed among them."""
    PI = rng.dirichlet(np.ones(3), n)
    return np.insert(PI, n // 3, row, axis=0)


class TestRepairBranches:
    """Each kernel repairs a batch only when one of its rows needs it; a
    single such row among thousands gets the repair, and the other rows
    keep the bits of the unrepaired path."""

    @pytest.mark.parametrize("zero_rows", [[], [1234]], ids=["none", "one"])
    def test_bayes_update_matches_the_repairing_formula(self, zero_rows, rng):
        PR = rng.dirichlet(np.ones(3), 2000)
        L = rng.random((2000, 3)) + 0.01
        L[zero_rows] = 0.0
        post, sigma = bayes_update(PR.T, L.T)
        unnorm = PR * L
        want_sigma = unnorm.sum(axis=-1)
        seen = want_sigma > 0
        want = np.where(seen[:, None], unnorm / np.where(seen, want_sigma, 1.0)[:, None],
                        1.0 / 3)
        assert (~seen).sum() == len(zero_rows)
        assert np.array_equal(sigma, want_sigma)
        assert np.array_equal(post.T, want)

    @pytest.mark.parametrize("row", [
        [1 - 0.4321 + 1e-14, -1e-14, 0.4321],   # tied base coordinates, stepped out of order
        [0.0, 0.5, 0.5 + 1e-14],                # a light off-grid vertex
    ], ids=["tie", "light-off-grid"])
    def test_interpolation_repairs_the_one_row_that_needs_it(self, row, rng):
        grid = FreudenthalGrid(60, 3)
        PI = one_row_among(rng, row)
        want_idx, want_w = searchsorted_interpolation_data(grid, PI)
        for rows in (PI, np.ascontiguousarray(PI.T).T):
            idx, w = grid.interpolation_data(rows)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(w, want_w)

    def test_interpolation_rejects_the_one_row_with_a_heavy_off_grid_vertex(self, rng):
        grid = FreudenthalGrid(60, 3)
        PI = one_row_among(rng, [0.0, 0.5, 0.5 + 1e-9])
        with pytest.raises(RuntimeError):
            searchsorted_interpolation_data(grid, PI)
        with pytest.raises(BeliefOffGrid):
            grid.interpolation_data(PI)
        grid.interpolation_data(np.delete(PI, 1999 // 3, axis=0))


class TestLookahead:
    def test_one_pass_matches_per_action_passes_with_unequal_alphabets(self, P3, rng):
        # channels of 4, 2 and 3 (then 3 and 4) symbols share one zero-padded
        # likelihood tensor and one interpolation pass
        grid = FreudenthalGrid(9, 3)
        PI = np.vstack([grid.points, rng.dirichlet(np.ones(3), 200)])
        values = rng.normal(size=grid.size)
        for alphabets, costs in (((4, 2, 3), ([0.5, 0.3, 0.1], [0.2, 0.6, 1.0])),
                                 ((3, 4), ([0.5, 0.1], [0.2, 1.0]))):
            channels = tuple(make_channel(random_stochastic(3, Y, rng)) for Y in alphabets)
            model = PollingModel(P3, channels, CostSpec.expectation(*costs), rho=0.8)
            L = model.likelihoods
            assert L.shape == (len(alphabets), 3, max(alphabets))
            assert not L.flags.writeable
            # dataclasses.replace rebuilds the tensor from the new channels
            assert np.array_equal(replace(model, channels=channels[::-1]).likelihoods,
                                  L[::-1])
            Q = Lookahead(model, grid, PI).q_values(values)
            C = cost_matrix(PI, model.costs)
            for u, Y in enumerate(alphabets, start=1):
                assert np.array_equal(L[u - 1, :, :Y], model.observation(u))
                assert not L[u - 1, :, Y:].any()
                T, sig = bayes_update((PI @ P3).T[:, None, :],
                                      model.observation(u)[:, :, None])
                X, Y, n = T.shape
                idx, w = grid.interpolation_data(T.reshape(X, Y * n).T)
                interp = (values[idx.T.reshape(X, Y, n)] * w.T.reshape(X, Y, n)).sum(axis=0)
                assert np.array_equal(Q[:, u - 1],
                                      C[:, u - 1] + 0.8 * (sig * interp).sum(axis=0))

    @pytest.mark.parametrize("X", [2, 3, 4, 5])
    def test_states_first_matches_rows_first_oracle(self, X, rng):
        grid = FreudenthalGrid(7, X)
        P = random_stochastic(X, X, rng)
        channels = tuple(make_channel(random_stochastic(X, Y, rng)) for Y in (4, 2, 3))
        model = PollingModel(P, channels, CostSpec.expectation([0.5, 0.3, 0.1],
                                                               [0.2, 0.6, 1.0]), rho=0.8)
        values = rng.normal(size=grid.size)
        PI = np.vstack([grid.points, rng.dirichlet(np.ones(X), 150)])
        for beliefs in (PI, np.asfortranarray(PI)):
            want = rows_first_lookahead(model, grid, beliefs, values)
            look = Lookahead(model, grid, beliefs)
            assert np.array_equal(look.q_values(values), want["Q"])
            assert np.array_equal(look.sigma.transpose(2, 0, 1), want["sigma"])
            for name in ("T", "idx", "w"):
                assert np.array_equal(getattr(look, name).transpose(3, 1, 2, 0), want[name])


def rows_first_lookahead(model, grid, PI, values):
    """Reference lookahead with beliefs in rows: posteriors (n, U, Y_max, X)
    normalised over the last axis, as the kernels were laid out before they
    put the states first."""
    unnorm = ((PI @ model.P.entries)[:, None, None, :]
              * model.likelihoods.transpose(0, 2, 1)[None])
    sigma = unnorm.sum(axis=-1)
    seen = sigma > 0
    T = np.where(seen[..., None], unnorm / np.where(seen, sigma, 1.0)[..., None],
                 1.0 / unnorm.shape[-1])
    idx, w = grid.interpolation_data(T.reshape(-1, T.shape[-1]))
    idx, w = idx.reshape(T.shape), w.reshape(T.shape)
    interp = (values[idx] * w).sum(axis=-1)
    Q = cost_matrix(PI, model.costs) + model.rho * (sigma * interp).sum(axis=-1)
    return {"Q": Q, "sigma": sigma, "T": T, "idx": idx, "w": w}


class TestValueIteration:
    def test_rho_zero_recovers_myopic(self, O1, O2, P3):
        model = example1_model(rho=0.0)
        gvf = value_iteration(model, M=15)
        myopic = np.argmin(cost_matrix(gvf.points, model.costs), axis=1) + 1
        assert np.array_equal(gvf.policy, myopic)
        want = cost_matrix(gvf.points, model.costs).min(axis=1)
        assert np.abs(gvf.values - want).max() < 1e-12

    def test_sup_norm_contraction(self, model):
        gvf = value_iteration(model, M=12)
        deltas = gvf.sweep_deltas
        # after the first sweep the change sequence decays like rho^n
        assert np.all(deltas[2:] <= model.rho * deltas[1:-1] + 1e-9)

    def test_converged_flag_and_tolerance(self, model):
        gvf = value_iteration(model, M=12)
        assert gvf.sweep_deltas[-1] < 1e-8

    def test_sweep_cap_raises(self, model, monkeypatch):
        monkeypatch.setattr(pomdp, "MAX_SWEEPS", 2)
        with pytest.raises(NonConvergence):
            value_iteration(model, M=12)

    def test_grid_too_large(self, model):
        with pytest.raises(GridTooLarge):
            value_iteration(model, M=3000)

    def test_policy_evaluation_of_optimal_policy_matches(self, model):
        gvf = value_iteration(model, M=12)
        evald = evaluate_policy_on_grid(model, gvf.policy, M=12)
        assert np.abs(evald - gvf.values).max() < 1e-6

    @pytest.mark.parametrize("action", [0, 1.7, 3, np.nan])
    def test_policy_evaluation_rejects_actions_outside_one_to_U(self, model, action):
        # 0 used to wrap to the last action and 1.7 to truncate to action 1
        with pytest.raises(InvalidAction, match="is not in 1..2"):
            evaluate_policy_on_grid(model, np.full(grid_size(4, 3), action), M=4)

    def test_policy_evaluation_needs_one_action_per_grid_point(self, model):
        with pytest.raises(ModelShapeMismatch, match="every grid point"):
            evaluate_policy_on_grid(model, [1] * (grid_size(4, 3) - 1), M=4)


class TestMyopicBound:
    def test_example_model_small_grid(self):
        for rho in (0.3, 0.5):
            report = verify_myopic_bound(example1_model(rho), M=24)
            assert report.holds
            assert report.violations == ()

    def test_rho_zero_policies_identical(self):
        model = example1_model(rho=0.0)
        report = verify_myopic_bound(model, M=18)
        assert report.holds
        gvf = value_iteration(model, M=18)
        myopic = np.argmin(cost_matrix(gvf.points, model.costs), axis=1) + 1
        assert np.array_equal(gvf.policy, myopic)

    def test_action_raised_from_one_is_a_violation(self, model, monkeypatch):
        # mutant: the solver answers action 2 at a point where the myopic action is 1
        solution = value_iteration(model, M=12)
        k = int(np.flatnonzero(myopic_policy(solution.points, model.costs) == 1)[0])
        assert solution.policy[k] == 1
        policy = solution.policy.copy()
        policy[k] = 2
        monkeypatch.setattr(pomdp, "value_iteration",
                            lambda *args: replace(solution, policy=policy))
        report = verify_myopic_bound(model, M=12)
        assert k in report.violations
        assert not report.holds

    def test_reversed_chain_rejected(self, O1, O2, P3):
        # O2 is a garbling of O1, so O1 listed as the less informative
        # action is not a dominance chain
        model = PollingModel(P3, (O2, O1), example1_costs(), rho=0.5)
        with pytest.raises(UncertifiedChain):
            certify_chain([lecam_deficiency(O1, O2).delta])
        with pytest.raises(UncertifiedChain):
            verify_myopic_bound(model, M=6)
        assert lecam_deficiency(model.observation(2), model.observation(1)).delta > 1e-3

    def test_inverted_costs_unconstructible(self):
        with pytest.raises(InvalidCostSpec):
            CostSpec.expectation([0.25, 0.5], [1.0, 0.5])

    def test_randomized_garbled_models(self, rng):
        # random certified-chain models, X <= 4 and U <= 3: the bound must
        # hold at M = 30
        for trial in range(4):
            X = int(rng.integers(2, 5))
            U = int(rng.integers(2, 4))
            P = random_stochastic(X, X, rng)
            chans = [make_channel(random_stochastic(X, X, rng))]
            for _ in range(U - 1):
                R = random_stochastic(X, X, rng)
                chans.append(make_channel(chans[-1].matrix.entries @ R))
            S = np.sort(rng.uniform(0.1, 1.0, size=U))[::-1]
            w = np.cumsum(rng.uniform(0.1, 0.5, size=U))
            model = PollingModel(P, tuple(chans), CostSpec.expectation(S, w),
                                 rho=float(rng.uniform(0.2, 0.7)))
            assert verify_myopic_bound(model, M=30).holds


class TestModelDistance:
    def test_identical_models(self, model):
        dist = model_distance(model, model)
        assert dist.distance == 0.0
        # G = max_i,u C(e_i, u) / (1 - rho) = 0.5 / 0.5
        assert dist.cost_bound == pytest.approx(1.0)

    def test_single_entry_perturbation(self, P3, O1, O2):
        eps = 0.01
        O1p = O1.copy()
        O1p[0, 0] += eps
        O1p[0, 1] -= eps
        theta = example1_model(rho=0.5)
        gamma = PollingModel(P3, (make_channel(O1p), make_channel(O2)),
                             example1_costs(), rho=0.5)
        dist = model_distance(theta, gamma)
        assert dist.distance == pytest.approx(2 * eps * P3[:, 0].max(), abs=1e-12)

    def test_shape_mismatch(self, model, P3, O1):
        other = PollingModel(P3, (make_channel(O1),),
                             CostSpec.expectation([0.5], [0.5]), rho=0.5)
        with pytest.raises(ModelShapeMismatch):
            model_distance(model, other)


class TestSensitivityBounds:
    def test_identical_models_zero_gap(self, model):
        report = verify_sensitivity_bounds(model, model, M=12)
        assert report.distance == 0.0
        assert report.holds

    def test_perturbed_channel(self, P3, O1, O2):
        eps = 0.01
        O1p = O1.copy()
        O1p[0, 0] += eps
        O1p[0, 1] -= eps
        theta = example1_model(rho=0.5)
        gamma = PollingModel(P3, (make_channel(O1p), make_channel(O2)),
                             example1_costs(), rho=0.5)
        report = verify_sensitivity_bounds(theta, gamma, M=20)
        assert report.holds
        assert report.cost_bound == pytest.approx(1.0)


class TestOrdinalSensitivity:
    def test_garbled_network_costs_more(self, P3, O1, O2):
        theta1 = example1_model(rho=0.5)
        theta2 = PollingModel(
            P3,
            (make_channel(O2), make_channel(matrix_power(O2, 2))),
            example1_costs(), rho=0.5)
        report = verify_ordinal_sensitivity(theta1, theta2, M=20)
        assert report.holds

    def test_identical_models_equal_values(self, model):
        report = verify_ordinal_sensitivity(model, model, M=12)
        assert report.holds
        assert report.max_excess == pytest.approx(0.0, abs=1e-12)

    def test_uncertified_rejected(self, P3, O1, O2):
        theta1 = example1_model(rho=0.5)
        theta2 = PollingModel(P3, (make_channel(np.eye(3)), make_channel(O2)),
                              example1_costs(), rho=0.5)
        # the message lists delta(O2(u), O1(u)) of every action, in order
        defs = tuple(lecam_deficiency(O2u, O1u).delta
                     for O1u, O2u in zip(theta1.channels, theta2.channels))
        assert defs[0] > 1e-3 and defs[1] <= 1e-7
        with pytest.raises(UncertifiedChain, match=re.escape(f"deficiencies {defs} exceed")):
            verify_ordinal_sensitivity(theta1, theta2, M=12)
