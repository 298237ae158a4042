import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpoll import infotheory
from hierpoll.channels import DominanceChain, approximate_blackwell_chain, make_channel
from hierpoll.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    InvalidArgument,
    MaxIterationsExceeded,
    UncertifiedChain,
)
from hierpoll.infotheory import (
    channel_divergences,
    kl_divergence,
    mutual_information,
    renyi_divergence,
    shannon_capacities,
    shannon_capacity,
    verify_orderings,
)
from hierpoll.stochastic import matrix_power, validate_stochastic

from conftest import random_stochastic


def entropy_bits(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _reference_capacity(O, tol=1e-10, max_iterations=10 ** 5):
    """One channel's Blahut-Arimoto loop, the oracle for the packed iteration:
    (estimate in bits, input, iterations)."""
    O = np.asarray(O, dtype=float)
    r = np.full(O.shape[0], 1.0 / O.shape[0])
    prev = -np.inf
    for it in range(max_iterations):
        q = r @ O
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = np.where((O > 0) & (q > 0)[None, :], np.log(O / np.maximum(q, 1e-300)), 0.0)
        D = (O * lr).sum(axis=1)
        estimate = float(r @ D) / np.log(2)
        if abs(estimate - prev) < tol:
            return estimate, r, it
        prev = estimate
        w = r * np.exp(D - D.max())
        r = w / w.sum()
    raise AssertionError("oracle did not converge")


def _reference_renyi(p, q, alpha):
    """Scalar Renyi divergence in bits, the oracle for the broadcast kernel."""
    if alpha == 0.0:
        mass = q[p > 0].sum()
        return np.inf if mass <= 0 else -np.log2(mass)
    mask = (p > 0) & (q > 0)
    total = np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha))
    return np.inf if total <= 0 else np.log2(total) / (alpha - 1.0)


def _sparse_channel(X, Y, rng):
    """Random X x Y channel with zeroed entries and an all-zero last column."""
    O = rng.dirichlet(np.ones(Y - 1), size=X) * (rng.random((X, Y - 1)) < 0.7)
    O[np.arange(X), rng.integers(0, Y - 1, X)] += 0.1   # no all-zero row
    return np.hstack([O / O.sum(axis=1, keepdims=True), np.zeros((X, 1))])


def _zeroed_distribution(counts):
    """Normalised nonnegative integer counts, or None when all are zero."""
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum() if counts.sum() > 0 else None


class TestMutualInformation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_is_mean_row_divergence_with_zeroed_entries(self, X, Y, data):
        # integer weights with zeros give channels and inputs with zeroed
        # entries but no underflow
        counts = st.lists(st.integers(0, 4), min_size=Y, max_size=Y).filter(any)
        O = np.array([_zeroed_distribution(data.draw(counts)) for _ in range(X)])
        p = _zeroed_distribution(data.draw(
            st.lists(st.integers(0, 4), min_size=X, max_size=X).filter(any)))
        info = mutual_information(O, p)
        q = p @ O
        rows = sum(p[x] * kl_divergence(O[x], q) for x in range(X) if p[x] > 0)
        assert info == pytest.approx(rows, rel=1e-12, abs=1e-15)
        assert shannon_capacity(O)[0] >= info - 1e-9

    def test_identity_channel_one_bit(self):
        assert mutual_information(np.eye(2), [0.5, 0.5]) == pytest.approx(1.0)

    def test_uniform_channel_zero(self):
        assert mutual_information(np.full((3, 3), 1 / 3), [0.2, 0.3, 0.5]) == pytest.approx(0.0)

    def test_symmetric_channel_closed_form(self, O1):
        # symmetric channel at uniform input: log2(X) - H(row)
        want = np.log2(3) - entropy_bits(O1[0])
        got = mutual_information(O1, np.full(3, 1 / 3))
        assert got == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self, O1):
        with pytest.raises(DimensionMismatch):
            mutual_information(O1, [0.5, 0.5])


class TestShannonCapacity:
    def test_identity_three(self):
        cap, r = shannon_capacity(np.eye(3))
        assert cap == pytest.approx(np.log2(3), abs=1e-9)
        assert np.allclose(r, 1 / 3, atol=1e-6)

    def test_uniform_zero(self):
        cap, _ = shannon_capacity(np.full((4, 4), 0.25))
        assert cap == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_closed_form(self, O1):
        cap, _ = shannon_capacity(O1, tol=1e-12)
        assert cap == pytest.approx(np.log2(3) - entropy_bits(O1[0]), abs=1e-9)

    def test_published_channels_ordered(self, O1, O2):
        c1, _ = shannon_capacity(O1)
        c2, _ = shannon_capacity(O2)
        assert c1 > c2

    def test_sup_property(self, rng):
        O = random_stochastic(3, 4, rng)
        cap, _ = shannon_capacity(O)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3))
            assert cap >= mutual_information(O, p) - 1e-9

    def test_monotone_lower_bounds(self, rng):
        # successive estimates from the iteration are nondecreasing
        O = random_stochastic(4, 4, rng)
        r = np.full(4, 0.25)
        prev = -np.inf
        for _ in range(50):
            q = r @ O
            with np.errstate(divide="ignore", invalid="ignore"):
                lr = np.where((O > 0) & (q > 0)[None, :], np.log(O / q), 0.0)
            D = (O * lr).sum(axis=1)
            est = float(r @ D) / np.log(2)
            assert est >= prev - 1e-12
            prev = est
            w = r * np.exp(D - D.max())
            r = w / w.sum()

    def test_iteration_cap_raises(self, monkeypatch):
        # this channel needs 18 updates to meet the default tol
        monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", 3)
        with pytest.raises(MaxIterationsExceeded):
            shannon_capacity([[0.9, 0.1], [0.3, 0.7]])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_a_tol_no_change_can_meet_is_rejected(self, tol, monkeypatch):
        # a 1x1 channel's estimate never changes, so at tol <= 0 it would
        # run to the cap; the cap is lowered to keep a failure quick
        monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", 10)
        with pytest.raises(InvalidArgument, match="tol must be > 0"):
            shannon_capacities([[[1.0]]], tol=tol)


class TestPackedCapacities:
    @pytest.fixture
    def mixed(self, rng):
        shapes = [(2, 3), (5, 4), (3, 7), (6, 6), (4, 2), (7, 5)]
        return [_sparse_channel(X, Y, rng) for X, Y in shapes]

    def test_matches_the_one_channel_loop(self, mixed):
        assert any((O == 0).any() for O in mixed)
        for O, got in zip(mixed, shannon_capacities(mixed)):
            cap, r, _ = _reference_capacity(O)
            assert got.bits == pytest.approx(cap, abs=1e-12)
            assert np.abs(got.input - r).max() <= 1e-9

    def test_groups_split_at_the_entry_budget(self, mixed, monkeypatch):
        whole = shannon_capacities(mixed)
        # the 7 x 5 channel alone exceeds this budget and runs by itself
        monkeypatch.setattr(infotheory, "_PACK_ENTRIES", 30)
        assert infotheory._pack_groups([O.shape for O in mixed]) != [len(mixed)]
        for a, b in zip(whole, shannon_capacities(mixed)):
            assert a.bits == pytest.approx(b.bits, abs=1e-12)
            assert np.abs(a.input - b.input).max() <= 1e-9

    def test_a_fast_channel_is_unchanged_by_a_slow_one(self, rng):
        fast = random_stochastic(4, 4, rng)
        slow = np.array([[0.5, 0.5], [0.45, 0.55], [0.55, 0.45], [0.5, 0.5]])
        assert _reference_capacity(fast)[2] < _reference_capacity(slow)[2]
        alone = shannon_capacities([fast])[0]
        for batched in (shannon_capacities([fast, slow])[0],
                        shannon_capacities([slow, fast])[1]):
            assert batched.bits == pytest.approx(alone.bits, abs=1e-14)
            assert np.abs(batched.input - alone.input).max() <= 1e-12

    def test_the_channel_at_the_cap_is_named(self, monkeypatch):
        # the identity stops at its second estimate, the second channel needs 18
        monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", 3)
        with pytest.raises(MaxIterationsExceeded, match="index 1") as info:
            shannon_capacities([np.eye(2), [[0.9, 0.1], [0.3, 0.7]]])
        assert info.value.index == 1

    def test_gap_bounds_a_longer_run(self, mixed):
        for O, got in zip(mixed, shannon_capacities(mixed)):
            assert got.gap_bits >= 0.0
            longer, _, _ = _reference_capacity(O, tol=1e-14)
            assert got.bits <= longer + 1e-12
            assert got.bits + got.gap_bits >= longer - 1e-12

    def test_gap_is_zero_where_every_row_is_equally_informative(self):
        for O in (np.eye(3), np.full((4, 4), 0.25)):
            assert shannon_capacities([O])[0].gap_bits == pytest.approx(0.0, abs=1e-12)


class TestDataProcessingInequality:
    def test_garbling_never_gains_information(self, rng):
        for _ in range(100):
            X, Y, Z = (int(rng.integers(2, 5)) for _ in range(3))
            O = random_stochastic(X, Y, rng)
            R = random_stochastic(Y, Z, rng)
            p = rng.dirichlet(np.ones(X))
            assert mutual_information(O, p) >= mutual_information(O @ R, p) - 1e-9


class TestRenyiDivergence:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        for alpha in (0.0, 0.1, 0.5, 0.9):
            assert renyi_divergence(p, p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            renyi_divergence([1.0], [1.0], 1.0)
        with pytest.raises(AlphaOutOfRange):
            renyi_divergence([1.0], [1.0], -0.1)

    def test_kl_limit(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        near_one = renyi_divergence(p, q, 1.0 - 1e-6)
        assert near_one == pytest.approx(kl_divergence(p, q), abs=1e-4)

    def test_published_channel_ordering(self, O1, O2):
        d1 = renyi_divergence(O1[0], O1[1], 0.5)
        d2 = renyi_divergence(O2[0], O2[1], 0.5)
        assert d1 >= d2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
           st.floats(0.01, 0.99))
    def test_nonnegative(self, pw, qw, alpha):
        k = min(len(pw), len(qw))
        p = np.array(pw[:k]) / np.sum(pw[:k])
        q = np.array(qw[:k]) / np.sum(qw[:k])
        d = renyi_divergence(p, q, alpha)
        assert d >= -1e-10
        if np.abs(p - q).max() < 1e-12:
            assert d < 1e-10

    def test_disjoint_supports_infinite(self):
        assert renyi_divergence([1.0, 0.0], [0.0, 1.0], 0.5) == np.inf

    def test_channel_table_matches_the_scalar_loop(self, rng):
        # zeroed entries, a row disjoint from another (inf) and alpha = 0
        O = _sparse_channel(5, 6, rng)
        O[0] = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
        O[1] = [0.0, 0.0, 0.3, 0.7, 0.0, 0.0]
        alphas = [0.0, 0.1, 0.5, 0.9]
        got = channel_divergences(O, alphas)
        want = np.array([[[0.0 if i == j else _reference_renyi(O[i], O[j], a)
                           for a in alphas] for j in range(5)] for i in range(5)])
        assert np.isinf(want).any()
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=1e-15)
        assert np.all(np.diagonal(got, axis1=0, axis2=1) == 0.0)
        assert renyi_divergence(O[2], O[3], 0.0) == got[2, 3, 0]

    def test_channel_table_rejects_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            channel_divergences(np.eye(2), [0.5, 1.0])


class TestVerifyOrderings:
    def test_power_chain_capacities_strictly_decrease(self, O1):
        chain = approximate_blackwell_chain(
            [np.eye(3), O1, matrix_power(O1, 2).entries])
        report = verify_orderings(chain, alphas=[0.1, 0.5, 0.9])
        assert report.capacity_ordering_holds
        assert report.renyi_ordering_holds
        assert np.all(report.capacity_margins > 1e-3)

    def test_identical_channels_zero_margins(self, O1):
        chain = approximate_blackwell_chain([O1, O1])
        report = verify_orderings(chain, alphas=[0.3, 0.6])
        assert report.capacity_margins == pytest.approx(0.0, abs=1e-9)
        assert report.renyi_margins == pytest.approx(0.0, abs=1e-9)

    def test_published_pair_orderings(self, O1, O2):
        chain = approximate_blackwell_chain([O1, O2])
        report = verify_orderings(chain, alphas=np.arange(1, 10) / 10)
        assert report.capacity_ordering_holds
        assert report.renyi_ordering_holds

    def test_reversed_chain_with_a_false_certificate_fails_both_orderings(self, O1, O2):
        # mutant: the weaker O2 first, claimed to garble into O1 by the identity
        reversed_chain = DominanceChain(
            (make_channel(O2), make_channel(O1)),
            (validate_stochastic(np.eye(3)),),
            (0.0,),
        )
        report = verify_orderings(reversed_chain, alphas=np.arange(1, 10) / 10)
        assert not report.capacity_ordering_holds
        assert not report.renyi_ordering_holds
        assert np.all(report.capacity_margins < -1e-3)
        assert np.all(report.renyi_margins < -1e-3)

    def test_uncertified_chain_rejected(self, O1):
        bad = DominanceChain(
            (make_channel(O1), make_channel(np.eye(3))),
            (validate_stochastic(np.eye(3)),),
            (0.5,),
        )
        with pytest.raises(UncertifiedChain):
            verify_orderings(bad, alphas=[0.5])

    def test_report_rows_shape(self, O1, O2):
        chain = approximate_blackwell_chain([O1, O2])
        report = verify_orderings(chain, alphas=[0.25, 0.75])
        rows = report.rows()
        assert len(rows) == 2 * 6 * 2  # channels * ordered pairs * alphas
        assert {r[0] for r in rows} == {1, 2}
