import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import binom

from hierpoll import channels, lp
from hierpoll.channels import (
    DominanceChain,
    HierarchyModel,
    approximate_blackwell_chain,
    blackwell_dominates,
    certifies,
    expectation_channel,
    friendship_channel,
    garbling_residual,
    intent_channel,
    lecam_deficiency,
    make_channel,
)
from hierpoll.cli import main
from hierpoll.errors import (
    AlphabetTooLarge,
    DegreeExceedsLevels,
    DimensionMismatch,
    LPSolverFailure,
    NegativeEntry,
    NonFiniteEntry,
    RowSumMismatch,
    UncertifiedChain,
)
from hierpoll.infotheory import verify_orderings
from hierpoll.pomdp import verify_myopic_bound, verify_ordinal_sensitivity
from hierpoll.presets import example1_model, example2_polynomials, intent_weight_polynomial
from hierpoll.stochastic import (
    ConvexPolynomial,
    StochasticMatrix,
    eval_matrix_polynomial,
    fractional_power,
    matrix_power,
    validate_stochastic,
)

from conftest import random_stochastic, random_ultrametric


def hier(O1, N=1):
    return HierarchyModel(validate_stochastic(O1), N)


def inequality_form_deficiency(W, H):
    """Reference LP, solved by HiGHS: min t over stochastic R with
    E >= |W - HR| entrywise by two inequality rows per (i, y) and
    sum_y E_iy <= t per row i."""
    Wm, Hm = np.asarray(W, float), np.asarray(H, float)
    X, YW = Wm.shape
    YH = Hm.shape[1]
    n_R, n_E = YH * YW, X * YW
    n = n_R + n_E + 1
    E = slice(n_R, n_R + n_E)
    A_ub = np.zeros((2 * n_E + X, n))
    b_ub = np.zeros(2 * n_E + X)
    upper, lower = A_ub[0:2 * n_E:2], A_ub[1:2 * n_E:2]
    upper[:, :n_R] = np.kron(Hm, np.eye(YW))
    np.fill_diagonal(upper[:, E], -1.0)
    lower[:] = -upper
    np.fill_diagonal(lower[:, E], -1.0)
    b_ub[0:2 * n_E:2] = Wm.ravel()
    b_ub[1:2 * n_E:2] = -Wm.ravel()
    A_ub[2 * n_E:, E] = np.kron(np.eye(X), np.ones(YW))
    A_ub[2 * n_E:, -1] = -1.0
    A_eq = np.zeros((YH, n))
    A_eq[:, :n_R] = np.kron(np.eye(YH), np.ones(YW))
    c = np.zeros(n)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(YH),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return max(0.0, res.fun)


@pytest.fixture(scope="module")
def intent_chain_10():
    """Five 10-state intent channels B f_u(B), each garbling to the next."""
    B = np.random.default_rng(7).dirichlet(np.ones(10), size=10)
    return [B @ eval_matrix_polynomial(f, B).entries for f in example2_polynomials()]


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts lp.solve_lp calls made through the module attribute."""
    calls = []
    solve = lp.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counting)
    return calls


class TestIntentChannel:
    def test_level_zero_only(self, O1):
        ch = intent_channel(hier(O1), ConvexPolynomial([1.0]))
        assert np.abs(ch.matrix.entries - O1).max() < 1e-15

    def test_level_one_squares(self, O1, O2):
        ch = intent_channel(hier(O1), ConvexPolynomial([0.0, 1.0]))
        assert np.abs(ch.matrix.entries - O2).max() < 5e-4

    def test_published_weights_channel(self, O1):
        ch = intent_channel(hier(O1, N=10), intent_weight_polynomial())
        validate_stochastic(ch.matrix.entries)
        assert ch.n_inputs == ch.n_outputs == 3

    def test_degree_exceeds_levels(self, O1):
        with pytest.raises(DegreeExceedsLevels):
            intent_channel(hier(O1, N=1), ConvexPolynomial([0.2, 0.3, 0.5]))


class TestExpectationChannel:
    def test_full_depth_is_power(self, O1, O2):
        ch = expectation_channel(hier(O1), polled_depth=2, target_depth=2)
        assert np.abs(ch.matrix.entries - O2).max() < 5e-4

    def test_half_depth_is_root(self, O1):
        ch = expectation_channel(hier(O1), polled_depth=2, target_depth=1)
        assert np.abs(ch.matrix.entries - O1).max() < 1e-6

    def test_identity_base(self):
        h = HierarchyModel(validate_stochastic(np.eye(4)), 1)
        ch = expectation_channel(h, polled_depth=5, target_depth=5)
        assert np.abs(ch.matrix.entries - np.eye(4)).max() < 1e-12


class TestFriendshipChannel:
    def test_single_friend_reproduces_level(self, rng):
        B = random_stochastic(2, 2, rng)
        ch = friendship_channel(B, 1)
        assert ch.output_labels == ("1/1,0/1", "0/1,1/1")
        assert np.abs(ch.matrix.entries - B).max() < 1e-15

    def test_degenerate_row(self):
        B = np.array([[1.0, 0.0], [0.0, 1.0]])
        ch = friendship_channel(B, 4)
        # all mass on composition (4,0) for state 1
        j = ch.output_labels.index("4/4,0/4")
        assert ch.matrix.entries[0, j] == pytest.approx(1.0)

    def test_multinomial_oracle(self, O1):
        ch = friendship_channel(O1, 2)
        assert ch.n_outputs == 6
        j = ch.output_labels.index("2/2,0/2,0/2")
        assert ch.matrix.entries[0, j] == pytest.approx(0.6382 ** 2, abs=1e-12)
        # independent evaluation of a mixed composition
        j = ch.output_labels.index("1/2,1/2,0/2")
        assert ch.matrix.entries[0, j] == pytest.approx(2 * 0.6382 * 0.1809, abs=1e-12)

    def test_rows_sum_to_one(self, rng):
        for n in (1, 3, 7):
            B = random_stochastic(3, 3, rng)
            ch = friendship_channel(B, n)
            assert np.abs(ch.matrix.entries.sum(axis=1) - 1.0).max() < 1e-12

    def test_level_dominance_is_checked_not_assumed(self, O1):
        # deeper levels report through more garbled opinion distributions;
        # the ordering of the induced count channels is certified by the LP
        shallow = friendship_channel(O1, 2)
        deep = friendship_channel(matrix_power(O1, 2), 2)
        assert lecam_deficiency(deep, shallow).delta <= 1e-7
        # and any residual pair still routes through the surrogate chain
        chain = approximate_blackwell_chain([shallow, deep])
        assert chain.is_certified()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_more_friend_dominates(self, O1, n):
        # dropping one of n+1 reports at random garbles them into n reports,
        # so the LP must certify the non-square pair
        fewer, more = friendship_channel(O1, n), friendship_channel(O1, n + 1)
        assert certifies(lecam_deficiency(fewer, more).delta)

    def test_six_vs_five_friends_is_never_refuted(self, O1, tmp_path, capsys):
        # the dense simplex drifts on this pair (cond(A_B) ~ 2e5): it may fail
        # loudly, but must not call a dominated pair undominated
        try:
            assert certifies(lecam_deficiency(friendship_channel(O1, 5),
                                              friendship_channel(O1, 6)).delta)
        except LPSolverFailure:
            pass
        files = []
        for n in (6, 5):
            (tmp_path / f"f{n}.json").write_text(json.dumps(
                {"type": "friendship", "B_level": O1.tolist(), "n_friends": n}))
            files.append(str(tmp_path / f"f{n}.json"))
        rc = main(["dominance", *files])
        err = capsys.readouterr().err
        assert rc in (0, 2)
        assert "NOT certified" not in err
        if rc == 2:
            assert err.startswith("error: ") and all(f in err for f in files)

    def test_log_space_matches_exact_coefficients(self, rng):
        # reference: exact integer multinomial coefficients times float powers
        for X, n in ((2, 30), (3, 7), (4, 5)):
            B = random_stochastic(X, X, rng)
            B[0, 1:] = 0.0
            B[0, 0] = 1.0
            ch = friendship_channel(B, n)
            for j, label in enumerate(ch.output_labels):
                counts = [int(c.split("/")[0]) for c in label.split(",")]
                coef = math.factorial(n) // math.prod(math.factorial(k) for k in counts)
                ref = coef * np.prod(B ** counts, axis=1)
                assert np.abs(ch.matrix.entries[:, j] - ref).max() <= 1e-12

    def test_large_counts_stay_in_float_range(self):
        # 3000! overflows a float; the pmf is formed in log space
        ch = friendship_channel(np.full((2, 2), 0.5), 3000)
        assert ch.n_outputs == 3001
        k = ch.output_labels.index("1500/3000,1500/3000")
        assert ch.matrix.entries[0, k] == pytest.approx(
            math.comb(3000, 1500) / 2 ** 3000, rel=1e-10)
        # one state has one outcome, so no factorial of the count is formed
        assert friendship_channel(np.ones((1, 1)), 10 ** 12).matrix.entries.tolist() == [[1.0]]

    @pytest.mark.parametrize("n", [10 ** 5, 3 * 10 ** 5])
    def test_rows_sum_to_one_at_many_friends(self, n):
        # lgamma's rounding grows like n log n, enough at these n to push
        # unnormalised rows past the 1e-10 row-sum check; outcome j has j
        # friends on level 2
        ch = friendship_channel(np.full((2, 2), 0.5), n)
        assert np.abs(ch.matrix.entries.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(ch.matrix.entries - binom.pmf(np.arange(n + 1), n, 0.5)).max() <= 1e-12

    @pytest.mark.parametrize("n, X", [(1, 1), (10 ** 12, 1), (1, 2), (4, 3), (12, 2),
                                      (30, 4), (6, 5)])
    def test_labels_match_per_composition_join(self, n, X):
        want = tuple(",".join(f"{k}/{n}" for k in comp)
                     for comp in channels._compositions(n, X).tolist())
        assert friendship_channel(np.full((X, X), 1 / X), n).output_labels == want

    def test_alphabet_cap(self):
        with pytest.raises(AlphabetTooLarge):
            friendship_channel(np.full((8, 8), 0.125), 40)


class TestLeCamDeficiency:
    def test_identical_channels(self, O1):
        res = lecam_deficiency(O1, O1)
        assert res.delta <= 1e-10

    def test_square_against_base(self, O1, lp_calls):
        # certified by the closed-form garbling O1^-1 O1^2 = O1, with no LP
        W = matrix_power(O1, 2)
        res = lecam_deficiency(W, O1)
        assert res.delta <= 1e-12
        assert np.abs(res.garbling.entries - O1).max() < 1e-12
        assert lp_calls == []

    def test_identity_vs_uniform_closed_form(self):
        # oracle: min over r of max(2(1-r), 2r) = 1 at r = 1/2
        res = lecam_deficiency(np.eye(2), np.full((2, 2), 0.5))
        assert res.delta == pytest.approx(1.0, abs=1e-8)

    def test_identity_vs_rectangular_uniform_closed_form(self):
        # H R has equal rows q whatever R is, so delta = min_q max_i 2(1 - q_i) = 1
        res = lecam_deficiency(np.eye(2), np.full((2, 3), 1 / 3))
        assert res.delta == pytest.approx(1.0, abs=1e-8)
        assert res.garbling.entries.shape == (3, 2)

    def test_dimension_mismatch(self, O1):
        with pytest.raises(DimensionMismatch):
            lecam_deficiency(O1, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("W, H, error", [
        ([[2, -1], [0, 1]], np.eye(2), NegativeEntry),
        (np.eye(2), [[2, -1], [0, 1]], NegativeEntry),
        (np.eye(2), [[0.5, 0.6], [0, 1]], RowSumMismatch),
    ], ids=["W-negative", "H-negative", "H-row-sum"])
    def test_channels_must_be_stochastic(self, W, H, error):
        with pytest.raises(error):
            lecam_deficiency(W, H)

    def test_a_one_dimensional_channel_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lecam_deficiency([0.5, 0.5], np.eye(2))

    def test_certificate_completeness(self, rng):
        # delta = 0 whenever W = H R for a constructed stochastic R
        for _ in range(10):
            X = int(rng.integers(2, 5))
            YH = int(rng.integers(2, 5))
            YW = int(rng.integers(2, 5))
            H = random_stochastic(X, YH, rng)
            R = random_stochastic(YH, YW, rng)
            res = lecam_deficiency(H @ R, H)
            assert res.delta <= 1e-9

    def test_garbling_attains_delta_on_rectangular_channels(self, rng, O1):
        # the returned R must realise the reported norm max_i sum_y |W - HR|_iy,
        # on the LP path (rectangular, or O1 not garbling to I) and the certificate
        pairs = [(np.eye(3), O1), (matrix_power(O1, 2).entries, O1)]
        for _ in range(10):
            X, YH, YW = (int(v) for v in rng.choice(np.arange(2, 6), 3, replace=False))
            pairs.append((random_stochastic(X, YW, rng), random_stochastic(X, YH, rng)))
        for W, H in pairs:
            res = lecam_deficiency(W, H)
            assert res.garbling.entries.shape == (H.shape[1], W.shape[1])
            norm = np.abs(W - H @ res.garbling.entries).sum(axis=1).max()
            assert norm == res.delta


class TestDeficiencyPaths:
    """The closed-form certificate H^-1 W first, the equality-form LP otherwise."""

    def test_matches_inequality_form_oracle_on_random_pairs(self, rng):
        for _ in range(12):
            X = int(rng.integers(2, 5))
            YH = X if rng.random() < 0.5 else int(rng.integers(2, 5))
            W = random_stochastic(X, int(rng.integers(2, 5)), rng)
            H = random_stochastic(X, YH, rng)
            assert lecam_deficiency(W, H).delta == pytest.approx(
                inequality_form_deficiency(W, H), abs=1e-9)

    def test_matches_oracle_both_ways_along_an_intent_chain(self, intent_chain_10):
        for strong, weak in zip(intent_chain_10, intent_chain_10[1:]):
            forward = lecam_deficiency(weak, strong).delta
            assert forward <= 1e-9
            assert forward == pytest.approx(inequality_form_deficiency(weak, strong), abs=1e-9)
            backward = lecam_deficiency(strong, weak).delta
            assert backward > 1e-3
            assert backward == pytest.approx(inequality_form_deficiency(strong, weak), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
    def test_closed_form_start_is_feasible_and_reaches_the_optimum(self, X, YW, YH, data):
        # integer weights put zeros in W and H; a zero residual entry is a
        # basic value of 0, so such starts are degenerate
        def channel(Y):
            counts = st.lists(st.integers(0, 6), min_size=Y, max_size=Y).filter(any)
            rows = np.array([data.draw(counts) for _ in range(X)], dtype=float)
            return rows / rows.sum(axis=1, keepdims=True)

        W, H = channel(YW), channel(YH)
        starts = []
        solve = lp.solve_lp

        def recording(c, A_eq, b_eq, basis):
            starts.append(np.linalg.solve(A_eq[:, basis], b_eq))
            return solve(c, A_eq, b_eq, basis)

        with mock.patch.object(lp, "solve_lp", recording):
            R = channels._garbling_lp(W, H)
        assert len(starts) == 1 and starts[0].min() >= -1e-12
        assert garbling_residual(W, H, R) == pytest.approx(
            inequality_form_deficiency(W, H), abs=1e-9)

    def test_negative_inverse_garbling_falls_back_to_lp(self, O1, lp_calls):
        # O1^-1 I = O1^-1 has negative entries: no garbling of O1 gives I
        W = np.eye(3)
        assert np.linalg.solve(O1, W).min() < 0
        res = lecam_deficiency(W, O1)
        assert len(lp_calls) == 1
        assert res.delta == pytest.approx(inequality_form_deficiency(W, O1), abs=1e-9)
        assert res.delta > 0.1

    def test_singular_square_channel_takes_lp_path(self, rng, lp_calls):
        H = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        W = random_stochastic(3, 3, rng)
        res = lecam_deficiency(W, H)
        assert len(lp_calls) == 1
        assert res.delta == pytest.approx(inequality_form_deficiency(W, H), abs=1e-9)

    def test_rectangular_channel_takes_lp_path(self, rng, lp_calls):
        H = random_stochastic(3, 4, rng)
        R = random_stochastic(4, 3, rng)
        res = lecam_deficiency(H @ R, H)
        assert len(lp_calls) == 1
        assert res.delta <= 1e-9

    def test_perturbed_garbling_is_not_certified(self, O1):
        # W = H (R + E) with R + E just outside the simplex: H^-1 W has an
        # entry of -1e-6, so H garbles to W only approximately
        R = np.array([[0.6, 0.4, 0.0], [0.1, 0.5, 0.4], [0.3, 0.3, 0.4]])
        E = np.zeros((3, 3))
        E[0, 1], E[0, 2] = 1e-6, -1e-6
        W = O1 @ (R + E)
        res = lecam_deficiency(W, O1)
        assert res.delta > 1e-9
        assert res.delta == pytest.approx(inequality_form_deficiency(W, O1), abs=1e-12)
        assert not blackwell_dominates(O1, W)

    def test_dominance_on_ordered_chain_runs_one_lp_per_reverse_pair(
            self, intent_chain_10, lp_calls, tmp_path, capsys):
        files = []
        for k, M in enumerate(intent_chain_10):
            path = tmp_path / f"c{k}.json"
            path.write_text(json.dumps(M.tolist()))
            files.append(str(path))
        assert main(["dominance", *files, "--format", "json", "--threads", "1"]) == 0
        n = len(files)
        assert len(lp_calls) == n * (n - 1) // 2
        pairwise = np.array(json.loads(capsys.readouterr().out)["pairwise_deficiency"])
        assert pairwise[np.triu_indices(n, 1)].max() <= 1e-9
        assert pairwise[np.tril_indices(n, -1)].min() > 1e-3

    def test_example1_chain_needs_no_lp(self, lp_calls):
        O1, O2 = example1_model(0.9).channels
        assert lecam_deficiency(O2, O1).delta <= 1e-12
        assert lp_calls == []


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stochastic_matrix_names_the_entry(self, bad):
        with pytest.raises(NonFiniteEntry, match=r"\(1,0\)"):
            StochasticMatrix(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_deficiency_rejects_raw_arrays(self):
        with pytest.raises(NonFiniteEntry, match=r"\(0,1\)"):
            lecam_deficiency(np.eye(2), [[1.0, np.inf], [0.5, 0.5]])
        with pytest.raises(NonFiniteEntry):
            lecam_deficiency([[np.nan, 1.0], [0.5, 0.5]], np.eye(2))


class TestBlackwellDominates:
    def test_identity_dominates_anything(self, rng):
        O = random_stochastic(3, 4, rng)
        assert blackwell_dominates(np.eye(3), O)

    def test_base_dominates_any_polynomial_channel(self, O1, rng):
        for _ in range(5):
            deg = int(rng.integers(1, 5))
            f = ConvexPolynomial(rng.dirichlet(np.ones(deg + 1)))
            assert blackwell_dominates(O1, O1 @ eval_matrix_polynomial(f, O1).entries)

    def test_uniform_does_not_dominate_identity(self):
        assert not blackwell_dominates(np.full((2, 2), 0.5), np.eye(2))


class TestFractionalPowerDominance:
    """The four dominance relations for ultrametric fractional powers."""

    def test_all_four_relations(self, rng):
        Q = random_ultrametric(4, rng)
        for j, K in [(1, 2), (2, 3), (3, 2)]:
            QjK = fractional_power(Q, j, K).entries
            assert blackwell_dominates(QjK, matrix_power(Q, j))                      # a
            assert blackwell_dominates(QjK, fractional_power(Q, j + 1, K))           # b
            assert blackwell_dominates(fractional_power(Q, j, K + 1).entries, QjK)   # c
            if j > K:
                assert blackwell_dominates(Q, QjK)                                   # d

    def test_quotient_garbling_certificate(self, O1):
        # for Hurwitz q | p: q(Q) >=_B p(Q) with certificate R = (p/q)(Q)
        from hierpoll.stochastic import polynomial_quotient
        q = ConvexPolynomial([1 / 3, 2 / 3])
        p = ConvexPolynomial(np.convolve([1 / 3, 2 / 3], [0.25, 0.75]))
        h = polynomial_quotient(p, q)
        qQ = eval_matrix_polynomial(q, O1).entries
        pQ = eval_matrix_polynomial(p, O1).entries
        residual = np.abs(pQ - qQ @ eval_matrix_polynomial(h, O1).entries).max()
        assert residual < 1e-12
        assert lecam_deficiency(pQ, qQ).delta <= 1e-9


class TestApproximateChain:
    def test_exactly_ordered_inputs_fixed_point(self, O1):
        chans = [O1, matrix_power(O1, 2).entries, matrix_power(O1, 3).entries]
        chain = approximate_blackwell_chain(chans)
        assert chain.is_certified()
        assert max(chain.deficiencies) <= 1e-8
        for got, want in zip(chain.channels, chans):
            assert np.abs(got.matrix.entries - want).max() < 1e-6

    def test_single_channel(self, O1):
        chain = approximate_blackwell_chain([O1])
        assert len(chain.channels) == 1
        assert chain.garblings == ()

    def test_expectation_vs_intent(self, O1):
        # expectation channel at full informativeness dominates the garbled
        # surrogate of any intent channel
        h = hier(O1, N=2)
        exp_ch = expectation_channel(h, polled_depth=2, target_depth=1)
        f2 = ConvexPolynomial([0.2, 0.5, 0.3])
        int_ch = intent_channel(h, f2)
        chain = approximate_blackwell_chain([exp_ch, int_ch])
        assert blackwell_dominates(chain.channels[0], chain.channels[1])
        # surrogate reproduces the intent channel here since B >=_B B f(B)
        assert chain.deficiencies[0] <= 1e-7

    def test_garblings_compose_transitively(self, O1):
        chans = [O1, matrix_power(O1, 2).entries, matrix_power(O1, 3).entries]
        chain = approximate_blackwell_chain(chans)
        R = chain.garblings[0].entries @ chain.garblings[1].entries
        recon = chain.channels[0].matrix.entries @ R
        assert np.abs(recon - chain.channels[2].matrix.entries).max() < 2e-8

    def test_chain_of_deflated_polynomials(self, O1):
        fs = example2_polynomials()
        chans = [O1 @ eval_matrix_polynomial(f, O1).entries for f in fs]
        chain = approximate_blackwell_chain(chans)
        assert chain.is_certified()


class TestDominanceChainType:
    def test_shape_validation(self, O1):
        ch = make_channel(O1)
        with pytest.raises(DimensionMismatch):
            DominanceChain((ch, ch), (), ())


class TestOneVerdict:
    def test_a_patched_bound_flips_every_verdict(self, O1, O2, tmp_path, capsys,
                                                 monkeypatch):
        model = example1_model(0.5)
        chain = approximate_blackwell_chain([O1, O2])
        assert blackwell_dominates(O1, O2) and chain.is_certified()
        # below every deficiency, an exact 0 included, so nothing certifies
        monkeypatch.setattr(channels, "CERT_TOL", -1.0)
        assert not blackwell_dominates(O1, O2)
        assert not chain.is_certified()
        with pytest.raises(UncertifiedChain):
            verify_myopic_bound(model, M=6)
        with pytest.raises(UncertifiedChain):
            verify_orderings(chain, alphas=[0.5])
        with pytest.raises(UncertifiedChain):
            verify_ordinal_sensitivity(model, model, M=6)
        files = []
        for name, M in (("o1.json", O1), ("o2.json", O2)):
            (tmp_path / name).write_text(json.dumps(M.tolist()))
            files.append(str(tmp_path / name))
        assert main(["dominance", *files, "--threads", "1"]) == 1
        assert "(NOT certified)" in capsys.readouterr().err
        assert main(["example2", "--states", "3", "--pairs", "1", "--runs", "4",
                     "--horizon", "3", "--rho-list", "0", "--threads", "1",
                     "--out", str(tmp_path / "l2.csv")]) == 1
