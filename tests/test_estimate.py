import json

import numpy as np
import pytest

from hierpoll.errors import (
    AlphabetMismatch,
    EmptyData,
    ParseError,
    UnknownSymbol,
)
from hierpoll.estimate import (
    ObservationDataset,
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
        f = tmp_path / "obs.json"
        f.write_text(json.dumps({"alphabet": ["x", "y", "z"],
                                 "sequences": [["x", "z"], ["y"]]}))
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


class TestEmFit:
    def test_alphabet_mismatch(self):
        ds = ObservationDataset((np.array([0, 1]),), ("a", "b"))
        with pytest.raises(AlphabetMismatch):
            em_fit(ds, X=3)

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
