import json
import tracemalloc
import warnings

import numpy as np
import pytest

from hierpoll import estimate
from hierpoll.errors import (
    AlphabetMismatch,
    EmptyData,
    InvalidArgument,
    ParseError,
    ProjectionStalled,
    UnknownSymbol,
    ZeroLikelihood,
)
from hierpoll.estimate import (
    ObservationDataset,
    _forward_backward,
    default_initialization,
    em_fit,
    estimate_to_dict,
    load_observations,
    project_ultrametric,
)
from hierpoll.presets import EXAMPLE1_O1, EXAMPLE1_P
from hierpoll.stochastic import is_ultrametric, validate_stochastic

from conftest import hmm_sample, random_stochastic


def row_tv(A, B):
    return 0.5 * np.abs(np.asarray(A) - np.asarray(B)).sum(axis=1)


def loop_forward_backward(P, B, pi0, y):
    """Reference scaled forward-backward, one Python step per symbol.

    Returns (log-likelihood, expected transition counts, expected emission
    counts) of one sequence.
    """
    T = y.size
    alpha = np.empty((T, P.shape[0]))
    scale = np.empty(T)
    a = pi0 * B[:, y[0]]
    scale[0] = a.sum()
    alpha[0] = a / scale[0]
    for t in range(1, T):
        a = (alpha[t - 1] @ P) * B[:, y[t]]
        scale[t] = a.sum()
        alpha[t] = a / scale[t]
    beta = np.empty_like(alpha)
    beta[-1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (P @ (B[:, y[t + 1]] * beta[t + 1])) / scale[t + 1]
    gamma = alpha * beta
    weights = B[:, y[1:]].T * beta[1:] / scale[1:, None]
    trans = P * (alpha[:-1].T @ weights)
    emit = np.zeros((B.shape[1], P.shape[0]))
    np.add.at(emit, y, gamma)
    return float(np.log(scale).sum()), trans, emit.T


def summed(forward_backward, P, B, pi0, sequences):
    """(log-likelihood, transition counts, emission counts) of a dataset."""
    parts = [forward_backward(P, B, pi0, y) for y in sequences]
    return tuple(sum(p[i] for p in parts) for i in range(3))


class TestProjectUltrametric:
    def test_fixed_point(self, O1):
        out = project_ultrametric(O1)
        assert np.abs(out.entries - O1).max() < 1e-12

    def test_identity_fixed_point(self):
        out = project_ultrametric(np.eye(4))
        assert np.abs(out.entries - np.eye(4)).max() < 1e-12

    def test_two_by_two_asymmetric(self):
        out = project_ultrametric(np.array([[0.7, 0.3], [0.4, 0.6]])).entries
        assert np.abs(out - out.T).max() < 1e-9
        assert out[0, 0] > out[0, 1]
        assert is_ultrametric(out)

    def test_counts_from_generated_data(self):
        y = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 5000, seed=7)
        # raw co-occurrence counts of consecutive symbols, row-normalized
        counts = np.zeros((3, 3))
        np.add.at(counts, (y[:-1], y[1:]), 1.0)
        counts /= counts.sum(axis=1, keepdims=True)
        out = project_ultrametric(counts)
        assert is_ultrametric(out.entries)

    def test_random_inputs_always_valid(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            raw = random_stochastic(n, n, rng)
            out = project_ultrametric(raw)
            assert is_ultrametric(out.entries)
            validate_stochastic(out.entries)

    def test_cycle_cap_raises(self, monkeypatch):
        # an asymmetric input needs a correcting cycle before one that accepts it
        monkeypatch.setattr(estimate, "_MAX_CYCLES", 1)
        with pytest.raises(ProjectionStalled):
            project_ultrametric([[0.7, 0.3], [0.4, 0.6]])


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(EmptyData):
            ObservationDataset((), ("a",))

    def test_symbol_out_of_range(self):
        with pytest.raises(UnknownSymbol):
            ObservationDataset((np.array([0, 3]),), ("a", "b"))


class TestLoadObservations:
    def test_csv_round_trip(self, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("a,b\na,b,a\nb,b\n")
        ds = load_observations(f)
        assert ds.alphabet == ("a", "b")
        assert [s.tolist() for s in ds.sequences] == [[0, 1, 0], [1, 1]]

    def test_json_object(self, tmp_path):
        # keys the loader does not read, such as "labels", are ignored
        f = tmp_path / "obs.json"
        f.write_text(json.dumps({"alphabet": ["x", "y", "z"],
                                 "sequences": [["x", "z"], ["y"]],
                                 "labels": ["first", "second"]}))
        ds = load_observations(f)
        assert [s.tolist() for s in ds.sequences] == [[0, 2], [1]]

    def test_json_bare_list(self, tmp_path):
        f = tmp_path / "obs.json"
        f.write_text("[[0, 1, 0], [1, 1]]")
        ds = load_observations(f)
        assert ds.alphabet == ("0", "1")
        assert [s.tolist() for s in ds.sequences] == [[0, 1, 0], [1, 1]]

    def test_unknown_symbol_with_location(self, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("a,b\na,q\n")
        with pytest.raises(UnknownSymbol, match="sequence 0, position 1"):
            load_observations(f)

    def test_parse_error(self, tmp_path):
        f = tmp_path / "obs.json"
        f.write_text("{not json")
        with pytest.raises(ParseError):
            load_observations(f)


class TestChunkedScan:
    """The chunked scan against the per-symbol reference. Lengths 48, 49 and
    50 give L = 7, 7 and 8: a padded last chunk, whole chunks, and a last
    chunk of two symbols and six padded steps."""

    @pytest.mark.parametrize("X", [2, 3, 5])
    @pytest.mark.parametrize("lengths", [
        (1,), (2,), (48,), (49,), (50,), (50_000,),
        (1, 2, 7, 48, 49, 50, 99, 1000, 3),
    ], ids=["1", "2", "L2-1", "L2", "L2+1", "50k", "unequal"])
    def test_counts_match_per_symbol_loop(self, X, lengths):
        rng = np.random.default_rng(100 * X + len(lengths))
        P, B = random_stochastic(X, X, rng), random_stochastic(X, X, rng)
        pi0 = rng.dirichlet(np.ones(X))
        seqs = [hmm_sample(P, B, n, seed=i) for i, n in enumerate(lengths)]
        want = summed(loop_forward_backward, P, B, pi0, seqs)
        got = summed(_forward_backward, P, B, pi0, seqs)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)

    def test_memory_follows_symbol_count(self):
        # 2000 two-symbol sequences and one of 40 000: padding every sequence
        # to chunks of sqrt(40 000) symbols would hold 440 000 steps
        ys = [hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 2, seed=s) for s in range(2000)]
        ys.append(hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 40_000, seed=7))
        ds = ObservationDataset(tuple(ys), ("a", "b", "c"))
        per_symbol = 3 * 8  # one float64 message over X = 3 states
        tracemalloc.start()
        try:
            em_fit(ds, X=3, max_iter=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * per_symbol * ds.n_symbols

    @pytest.mark.parametrize("sequences, culprit", [
        ([[0, 1, 0, 1]], 0),
        ([[0, 0, 0], [1, 1], [0, 1, 0, 1]], 2),
    ])
    def test_zero_likelihood_names_sequence(self, sequences, culprit):
        ds = ObservationDataset(tuple(np.array(s) for s in sequences), ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ZeroLikelihood, match=f"sequence {culprit} "):
                em_fit(ds, X=2, init=(np.eye(2), np.eye(2)))


class TestEmFit:
    def test_trace_matches_per_symbol_loop(self, monkeypatch):
        y = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 50_000, seed=42)
        ds = ObservationDataset((y,), ("a", "b", "c"))
        fast = em_fit(ds, X=3, max_iter=8, tol=0.0, seed=0)
        monkeypatch.setattr(estimate, "_forward_backward", loop_forward_backward)
        slow = em_fit(ds, X=3, max_iter=8, tol=0.0, seed=0)
        assert fast.iterations == slow.iterations == 8
        np.testing.assert_allclose(fast.log_likelihoods, slow.log_likelihoods,
                                   rtol=1e-9, atol=0)

    def test_mixed_lengths_match_per_symbol_loop(self, monkeypatch):
        lengths = [2] * 200 + [1, 3, 7, 48, 49, 50, 99, 1000, 20_000]
        ys = tuple(hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, n, seed=i)
                   for i, n in enumerate(lengths))
        ds = ObservationDataset(ys, ("a", "b", "c"))
        fast = em_fit(ds, X=3, max_iter=4, tol=0.0, seed=0)
        monkeypatch.setattr(estimate, "_forward_backward", loop_forward_backward)
        slow = em_fit(ds, X=3, max_iter=4, tol=0.0, seed=0)
        np.testing.assert_allclose(fast.log_likelihoods, slow.log_likelihoods,
                                   rtol=1e-9, atol=0)
        for got, want in ((fast.transition, slow.transition),
                          (fast.emission, slow.emission)):
            np.testing.assert_allclose(got.entries, want.entries, rtol=1e-9, atol=0)

    def test_alphabet_mismatch(self):
        ds = ObservationDataset((np.array([0, 1]),), ("a", "b"))
        with pytest.raises(AlphabetMismatch):
            em_fit(ds, X=3)

    def test_negative_seed_is_invalid_argument(self):
        with pytest.raises(InvalidArgument, match="integers >= 0"):
            default_initialization(3, -1)
        ds = ObservationDataset((np.array([0, 1, 2, 1]),), ("a", "b", "c"))
        with pytest.raises(InvalidArgument, match="integers >= 0"):
            em_fit(ds, X=3, seed=-1)

    def test_recovers_generated_model(self):
        y = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 50_000, seed=42)
        ds = ObservationDataset((y,), ("a", "b", "c"))
        est = em_fit(ds, X=3, max_iter=60, tol=1e-6, seed=0)
        assert np.all(np.diff(est.log_likelihoods) >= -1e-8)
        assert is_ultrametric(est.emission.entries)
        assert row_tv(est.emission.entries, EXAMPLE1_O1).max() <= 0.05

    def test_degenerate_single_symbol(self):
        ds = ObservationDataset((np.zeros(200, dtype=int),), ("a", "b"))
        est = em_fit(ds, X=2, max_iter=15, seed=1)
        assert is_ultrametric(est.emission.entries)
        validate_stochastic(est.transition.entries)

    def test_init_at_truth_stays_close(self):
        y = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 20_000, seed=5)
        ds = ObservationDataset((y,), ("a", "b", "c"))
        est = em_fit(ds, X=3, init=(EXAMPLE1_P, EXAMPLE1_O1), max_iter=10, tol=0.0, seed=0)
        assert np.all(np.diff(est.log_likelihoods) >= -1e-8)
        assert row_tv(est.emission.entries, EXAMPLE1_O1).max() <= 0.01

    def test_more_data_tightens_estimate(self):
        small = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 1_000, seed=11)
        big = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 100_000, seed=11)
        tv = {}
        for name, y in (("small", small), ("big", big)):
            ds = ObservationDataset((y,), ("a", "b", "c"))
            est = em_fit(ds, X=3, max_iter=25, tol=1e-7, seed=0)
            tv[name] = row_tv(est.emission.entries, EXAMPLE1_O1).max()
        assert tv["big"] < tv["small"]

    def test_non_ultrametric_generator_still_projects(self, rng):
        B_true = random_stochastic(3, 3, rng)  # asymmetric generator
        y = hmm_sample(EXAMPLE1_P, B_true, 5_000, seed=3)
        ds = ObservationDataset((y,), ("a", "b", "c"))
        est = em_fit(ds, X=3, max_iter=15, seed=2)
        assert is_ultrametric(est.emission.entries)

    def test_multiple_sequences(self):
        ys = tuple(hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 2_000, seed=s) for s in (1, 2, 3))
        ds = ObservationDataset(ys, ("a", "b", "c"))
        est = em_fit(ds, X=3, max_iter=20, seed=0)
        assert np.all(np.diff(est.log_likelihoods) >= -1e-8)

    def test_json_serialization(self):
        y = hmm_sample(EXAMPLE1_P, EXAMPLE1_O1, 500, seed=9)
        ds = ObservationDataset((y,), ("a", "b", "c"))
        est = em_fit(ds, X=3, max_iter=5, seed=0)
        payload = json.loads(json.dumps(estimate_to_dict(est)))
        assert payload["iterations"] == est.iterations
        assert len(payload["log_likelihoods"]) == est.iterations
