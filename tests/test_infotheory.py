import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpoll import infotheory
from hierpoll.channels import (
    DominanceChain,
    approximate_blackwell_chain,
    friendship_channel,
    make_channel,
)
from hierpoll.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    InvalidArgument,
    MaxIterationsExceeded,
    NegativeEntry,
    RowSumMismatch,
    UncertifiedChain,
)
from hierpoll.presets import example2_parts
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


def _per_pass_capacities(channels, tol=1e-10):
    """The packed Blahut-Arimoto loop that tests its floor and stop after
    every pass, the bit-for-bit oracle for the block loop; Capacity per
    channel, or AssertionError at the iteration cap."""
    blocks = [O[:, O.any(axis=0)] for O in (np.asarray(c, dtype=float) for c in channels)]
    results = [None] * len(blocks)
    active = np.arange(len(blocks))
    B, H, starts, owner = infotheory._pack(blocks)
    r = np.concatenate([np.full(O.shape[0], 1.0 / O.shape[0]) for O in blocks])
    prev = np.full(len(blocks), -np.inf)
    for _ in range(infotheory._MAX_ITERATIONS):
        q = r @ B
        if q.min() >= 1e-300:
            D = H - B @ np.log(q)
        else:
            D = infotheory._kl_rows(B, q)
        estimate = np.add.reduceat(r * D, starts) / np.log(2.0)
        stop = np.abs(estimate - prev) < tol
        stopped = stop.any()
        if stopped:
            upper = np.maximum.reduceat(infotheory._gallager_rows(B, r, q, D), starts) / np.log(2.0)
            ends = np.append(starts[1:], r.size)
            for k in np.flatnonzero(stop):
                bits = max(0.0, float(estimate[k]))
                results[int(active[k])] = infotheory.Capacity(
                    bits, r[starts[k]:ends[k]].copy(), float(max(upper[k], bits)))
        prev = estimate
        w = r * np.exp(D - np.maximum.reduceat(D, starts)[owner])
        r = w / np.add.reduceat(w, starts)[owner]
        if stopped:
            keep = ~stop
            if not keep.any():
                return results
            r, prev, active = r[keep[owner]], prev[keep], active[keep]
            B, H, starts, owner = infotheory._pack([blocks[k] for k in active])
    raise AssertionError("oracle did not converge")


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.bits == b.bits
        assert np.array_equal(a.input, b.input)
        assert a.upper_bits == b.upper_bits


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
        # BA's estimate bits only bounds C from below; upper_bits bounds it above
        assert shannon_capacities([O])[0].upper_bits >= info - 1e-9

    def test_is_below_the_capacity_bound_where_the_estimate_stops_short(self):
        # BA's change-below-tol stop has left bits about 7e-9 under this MI
        O = np.array([[0, 0, 1], [0, 0, 1], [0, .6, .4], [2 / 3, 1 / 3, 0], [0, 0, 1]])
        p = np.array([0, 0, 0, .5, .5])
        info = mutual_information(O, p)
        assert info == pytest.approx(1.0, abs=1e-12)
        capacity = shannon_capacities([O])[0]
        assert capacity.bits <= capacity.upper_bits
        assert capacity.upper_bits >= info - 1e-9

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

    def test_channel_and_input_are_checked(self, O1):
        with pytest.raises(RowSumMismatch):
            mutual_information(O1, [0.5, 0.5, 0.5])
        with pytest.raises(RowSumMismatch):
            mutual_information([[2.0, 0.0], [0.0, 1.0]], [0.5, 0.5])


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

    def test_channels_are_checked(self):
        with pytest.raises(RowSumMismatch):
            shannon_capacities([[[2.0, 0.0], [0.0, 3.0]]])
        with pytest.raises(NegativeEntry):
            shannon_capacities([np.eye(2), [[1.5, -0.5], [0.5, 0.5]]])

    def test_zero_capacity_is_not_negative(self):
        # identical rows: C = 0, but at 3000 friends the estimate's round-off
        # fell below it (-1.6e-300 bits)
        channel = friendship_channel(np.full((2, 2), 0.5), 3000)
        (capacity,) = shannon_capacities([channel])
        assert capacity.bits == 0.0 and not np.signbit(capacity.bits)

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


class TestBlockedStop:
    """The block loop against the per-pass oracle, bit for bit."""

    SLOW = [[0.5, 0.5], [0.45, 0.55], [0.55, 0.45], [0.5, 0.5]]

    def test_mixed_channels(self, rng):
        mixed = [_sparse_channel(X, Y, rng) for X, Y in
                 [(2, 3), (5, 4), (3, 7), (6, 6), (4, 2), (7, 5)]]
        _assert_bitwise_equal(shannon_capacities(mixed), _per_pass_capacities(mixed))

    def test_ten_state_intent_chain(self):
        # the chain's first three channels stop after 425, 2,055 and 6,732
        # passes; the last two, at 16,067 and 37,946, would add about a
        # second of oracle time
        channels = [ch.matrix for ch in example2_parts(10, 0)[2][:3]]
        _assert_bitwise_equal(shannon_capacities(channels),
                              _per_pass_capacities(channels))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_stop_next_to_a_block_boundary(self, rng, monkeypatch, offset):
        # the slow channel stops at pass n; with blocks of n + 1, n and n - 1
        # passes, its stop is the last pass of a block, the first pass of
        # the next block, or the second; the fast channel leaves earlier
        fast = random_stochastic(4, 4, rng)
        n = _reference_capacity(self.SLOW)[2]
        assert _reference_capacity(fast)[2] < n - 2
        want = _per_pass_capacities([fast, self.SLOW])
        monkeypatch.setattr(infotheory, "_BLOCK", n + 1 - offset)
        _assert_bitwise_equal(shannon_capacities([fast, self.SLOW]), want)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_short_blocks(self, rng, monkeypatch, block):
        channels = [random_stochastic(3, 4, rng), self.SLOW, np.eye(2)]
        want = _per_pass_capacities(channels)
        monkeypatch.setattr(infotheory, "_BLOCK", block)
        _assert_bitwise_equal(shannon_capacities(channels), want)

    @pytest.mark.parametrize("channels", [[SLOW], [np.eye(2), SLOW]])
    def test_the_cap_is_exact(self, monkeypatch, channels):
        # the slow channel stops at pass n, in the second block or later:
        # a cap of n passes raises and names it, one more pass returns
        n = _reference_capacity(self.SLOW)[2]
        assert n > infotheory._BLOCK
        monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", n)
        with pytest.raises(MaxIterationsExceeded) as info:
            shannon_capacities(channels)
        assert info.value.index == len(channels) - 1
        monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", n + 1)
        _assert_bitwise_equal(shannon_capacities(channels), _per_pass_capacities(channels))


class TestOutputFloor:
    """Channels whose output marginal falls below the floor, so that D comes
    from _kl_rows; a block that meets such a pass is run again from its
    first pass."""

    ORDINARY = [[0.9, 0.1], [0.3, 0.7]]
    # a 1e-310 entry is the only mass on its symbol, so q there is always
    # below the floor
    TINY = [[0.5, 0.5, 1e-310], [0.3, 0.7, 0.0]]

    def _check(self, channels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = shannon_capacities(channels)
        _assert_bitwise_equal(got, _per_pass_capacities(channels))
        # Gallager's bound stays finite below the floor and bounds the MI of
        # the returned input
        for ch, c in zip(channels, got):
            assert np.isfinite(c.upper_bits)
            assert c.upper_bits >= mutual_information(ch, c.input)

    def test_every_pass_on_the_floor(self):
        self._check([self.TINY, self.ORDINARY])
        self._check([self.ORDINARY, self.TINY])

    def test_every_block_size_up_to_the_stop(self, monkeypatch):
        # the channels stop after 18 and 101 passes; over these block sizes a
        # stop falls on every position in a block, and on the first pass of
        # a block that meets the floor there, where the stop must wait for
        # the run that takes D from _kl_rows
        want = _per_pass_capacities([self.TINY, self.ORDINARY])
        for block in range(1, 103):
            monkeypatch.setattr(infotheory, "_BLOCK", block)
            _assert_bitwise_equal(shannon_capacities([self.TINY, self.ORDINARY]), want)

    def test_floor_reached_within_a_block(self):
        # the third row's divergence is log 2 below the other two, so its
        # weight halves every pass, and q on its 1e-290 symbol crosses the
        # floor some 30 passes in, partway through the first block
        fading = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1e-290]])
        r, first_floor = np.full(3, 1 / 3), 0
        while (r @ fading).min() >= 1e-300:
            w = r * np.exp(infotheory._kl_rows(fading, r @ fading))
            r, first_floor = w / w.sum(), first_floor + 1
        assert 0 < first_floor < infotheory._BLOCK
        self._check([fading, self.ORDINARY])

    def test_large_friendship_channel_beside_an_ordinary_one(self):
        # at 3000 friends some output symbols have q = 0 in floating point, so
        # a block's unchecked run turns NaN after its first floor pass; the
        # floor must still be found per pass, and the ordinary channel runs
        # on into a second block
        channels = [friendship_channel(np.full((2, 2), 0.5), 3000).matrix, self.ORDINARY]
        _assert_bitwise_equal(shannon_capacities(channels), _per_pass_capacities(channels))

    def test_identical_rows_below_the_floor_have_a_finite_gap(self):
        # capacity 0; q underflows to 0 on some symbols, where q(y) >= r_x O_x(y)
        # still bounds each row's divergence
        (cap,) = shannon_capacities([friendship_channel(np.full((2, 2), 0.5), 3000)])
        assert cap.bits == 0.0
        assert np.isfinite(cap.gap_bits) and 0.0 <= cap.gap_bits < 1e-9


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

    def test_channel_table_checks_the_channel(self):
        with pytest.raises(RowSumMismatch):
            channel_divergences([[2.0, 3.0], [0.5, 0.5]], [0.5])

    def test_channel_table_rejects_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            channel_divergences(np.eye(2), [0.5, 1.0])

    def test_empty_alpha_list_rejected(self, O1):
        with pytest.raises(AlphaOutOfRange):
            channel_divergences(O1, [])
        with pytest.raises(AlphaOutOfRange):
            verify_orderings(approximate_blackwell_chain([O1, O1]), [])

    def test_distributions_are_checked(self):
        with pytest.raises(RowSumMismatch):
            renyi_divergence([2.0, 3.0], [0.5, 0.5], 0.5)
        with pytest.raises(NegativeEntry):
            renyi_divergence([0.5, 0.5], [1.5, -0.5], 0.5)


class TestKLDivergence:
    def test_distributions_are_checked(self):
        with pytest.raises(RowSumMismatch):
            kl_divergence([2.0, 3.0], [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_mass_where_q_has_none_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")


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

    def test_published_pair_margin_is_the_off_diagonal_minimum(self, O1, O2):
        # the diagonal, 0 on both channels, would pin the margin at 0
        alphas = np.arange(1, 10) / 10
        report = verify_orderings(approximate_blackwell_chain([O1, O2]), alphas)
        want = min(renyi_divergence(O1[i], O1[j], a) - renyi_divergence(O2[i], O2[j], a)
                   for i in range(3) for j in range(3) if i != j for a in alphas)
        assert want == pytest.approx(0.0667, abs=1e-4)
        assert report.renyi_margins == pytest.approx([want], rel=1e-12)

    def test_pairs_infinite_on_both_channels_count_zero(self, O1):
        # every distinct pair of np.eye(3) is at infinite divergence
        report = verify_orderings(approximate_blackwell_chain([np.eye(3), O1]), [0.5])
        assert report.renyi_margins[0] == np.inf
        report = verify_orderings(approximate_blackwell_chain([np.eye(3), np.eye(3), O1]),
                                  [0.5])
        assert report.renyi_margins.tolist() == [0.0, np.inf]

    def test_one_state_chain_has_no_pair_to_order(self):
        report = verify_orderings(approximate_blackwell_chain([[[1.0]], [[1.0]]]), [0.5])
        assert report.renyi_margins.tolist() == [np.inf]
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
