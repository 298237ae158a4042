import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hierpoll import cli, estimate, infotheory, pomdp
from hierpoll.cli import main
from hierpoll.errors import InvalidCostSpec, LPSolverFailure, ParseError
from hierpoll.fileio import (
    channel_from_dict,
    channel_to_dict,
    cost_spec_from_dict,
    cost_spec_to_dict,
    load_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    render_table,
    save_matrix,
)
from hierpoll.pomdp import CostSpec
from hierpoll.presets import (
    EXAMPLE1_O1,
    EXAMPLE1_O2,
    EXAMPLE2_GAMMA1,
    EXAMPLE2_GAMMA2,
    example1_model,
    example2_model,
    example2_polynomials,
)
from hierpoll.stochastic import ConvexPolynomial

from conftest import hmm_sample

REFERENCE = json.loads((Path(__file__).parent / "data" / "cli_reference.json").read_text())


def _edited_model_config(keys, *value):
    """The example-1 model config with the entry at the key path removed, or
    set to `value` when one is given."""
    config = model_to_dict(example1_model(0.5))
    node = config
    for k in keys[:-1]:
        node = node[k]
    if value:
        node[keys[-1]] = value[0]
    else:
        del node[keys[-1]]
    return config


# JSON inputs each missing a key, or holding a value of the wrong type or form
BAD_FILES = {
    "no-alphabet.json": {"sequences": [["a"]]},
    "sequences-not-list.json": {"alphabet": ["a"], "sequences": 5},
    "no-costs.json": _edited_model_config(("costs",)),
    "no-variant.json": _edited_model_config(("costs", "variant")),
    "unknown-variant.json": _edited_model_config(("costs", "variant"), "bogus"),
    "intent-no-B.json": {"type": "intent", "beta": [1.0]},
    "friendship-no-n.json": {"type": "friendship", "B_level": [[1.0]]},
    "config-list.json": [model_to_dict(example1_model(0.5))],
    "rho-not-float.json": {**model_to_dict(example1_model(0.5)), "rho": "x"},
    "rho-out-of-range.json": {**model_to_dict(example1_model(0.5)), "rho": 1.0},
    "friendship-n-word.json": {"type": "friendship", "B_level": [[1.0]], "n_friends": "two"},
    "friendship-n-fraction.json": {"type": "friendship", "B_level": [[1.0]], "n_friends": 2.5},
    "intent-beta-short.json": {"type": "intent", "B": [[0.9, 0.1], [0.2, 0.8]],
                               "beta": [0.5]},
    "cost-nan.json": _edited_model_config(("costs", "measurement", 0), math.nan),
    # bytes that are not UTF-8, and bare-array channels of the wrong form
    "undecodable.json": b"[[0.5, 0.5], [0.5, \xff]]",
    "undecodable.csv": b"a,b\n0.5,\xff\n",
    "ragged.json": [[0.5, 0.5], [0.5]],
    "words.json": [["a", "b"], ["c", "d"]],
    # numbers written as strings, which the number rule rejects
    "string-entries.json": [["0.9", "0.1"], ["0.2", "0.8"]],
    "measurement-strings.json": _edited_model_config(("costs", "measurement"), ["0.5", "0.25"]),
    # values beyond float or int range: an integer literal of 400 digits, and
    # an infinite count
    "huge-int.json": b"[[1" + b"0" * 400 + b", 0.5], [0.5, 0.5]]",
    "friendship-n-inf.json": {"type": "friendship", "B_level": [[1.0]],
                              "n_friends": math.inf},
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.fixture
def channel_files(tmp_path):
    paths = []
    for name, M in (("o1", EXAMPLE1_O1), ("o2", EXAMPLE1_O2), ("ident", np.eye(3))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(M.tolist()))
        paths.append(str(p))
    return paths


@pytest.fixture
def model_config(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(model_to_dict(example1_model(0.5))))
    return str(p)


@pytest.fixture
def intent_config(tmp_path):
    p = tmp_path / "intent.json"
    p.write_text(json.dumps(model_to_dict(example2_model(0.7, X=4, seed=3))))
    return str(p)


class TestFileFormats:
    def test_matrix_csv_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix(p, EXAMPLE1_O1)
        assert np.array_equal(load_matrix(p), EXAMPLE1_O1)

    def test_matrix_json_round_trip(self, tmp_path):
        p = tmp_path / "m.json"
        save_matrix(p, EXAMPLE1_O1)
        assert np.array_equal(load_matrix(p), EXAMPLE1_O1)

    def test_matrix_csv_with_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# comment\na,b\n0.5,0.5\n0.25,0.75\n")
        assert np.array_equal(load_matrix(p), [[0.5, 0.5], [0.25, 0.75]])

    def test_matrix_parse_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.5,oops\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_channel_round_trip(self, tmp_path):
        from hierpoll.channels import friendship_channel
        ch = friendship_channel(EXAMPLE1_O1, 2)
        back = channel_from_dict(channel_to_dict(ch))
        assert back.output_labels == ch.output_labels
        assert np.array_equal(back.matrix.entries, ch.matrix.entries)

    def test_channel_recipes(self):
        intent = channel_from_dict({"type": "intent", "B": EXAMPLE1_O1.tolist(),
                                    "beta": [0.0, 1.0]})
        assert np.abs(intent.matrix.entries - EXAMPLE1_O2).max() < 5e-4
        exp = channel_from_dict({"type": "expectation", "B": EXAMPLE1_O1.tolist(),
                                 "polled_depth": 2, "target_depth": 2})
        assert np.abs(exp.matrix.entries - EXAMPLE1_O2).max() < 5e-4
        friend = channel_from_dict({"type": "friendship",
                                    "B_level": EXAMPLE1_O1.tolist(), "n_friends": 1})
        assert np.abs(friend.matrix.entries - EXAMPLE1_O1).max() < 1e-15

    def test_model_round_trip(self):
        model = example1_model(0.5)
        back = model_from_dict(model_to_dict(model))
        assert np.array_equal(back.P.entries, model.P.entries)
        assert back.rho == model.rho
        assert back.costs.equivalent(model.costs)
        intent = example2_model(0.3, X=4, seed=2)
        back = model_from_dict(model_to_dict(intent))
        assert back.costs.equivalent(intent.costs)
        friendship = _edited_model_config(("costs", "variant"), "friendship")
        assert model_from_dict(friendship).costs.variant == "friendship"

    @pytest.mark.parametrize("spec", [
        CostSpec.expectation([0.5, 0.25], [0.5, 1.0]),
        CostSpec.friendship([0.5, 0.3, 0.25], [0.2, 0.6, 1.5], ctilde_weight=0.25),
        # level costs as a list, which cost_spec_to_dict could not write when
        # the spec kept its recipe
        CostSpec.intent([0.3, 0.1], [ConvexPolynomial([1.0]), ConvexPolynomial([1 / 3, 2 / 3])],
                        entropy_weights=[2.0, 1.0], offsets=[1.0, 2.0], ctilde_weight=1.0),
    ], ids=["expectation", "friendship", "intent"])
    def test_cost_spec_round_trips_bit_for_bit(self, spec):
        def fields(s):
            return [np.asarray(getattr(s, f.name)).tobytes() if f.name != "variant"
                    else s.variant for f in dataclasses.fields(s)]

        assert [f.name for f in dataclasses.fields(CostSpec)] == [
            "variant", "measurement", "weights", "offsets", "ctilde_weight"]
        for payload in (cost_spec_to_dict(spec), json.loads(json.dumps(cost_spec_to_dict(spec)))):
            assert fields(cost_spec_from_dict(payload)) == fields(spec)

    def test_intent_recipe_and_values_configs_load_alike(self):
        model = example2_model(0.7, X=4, seed=3)
        values = model_to_dict(model)
        assert "level_costs" not in values["costs"]
        recipe = {**values, "costs": {
            "variant": "intent", "level_costs": [0.0] * 11,
            "betas": [f.coefficients.tolist() for f in example2_polynomials()],
            "gamma1": list(EXAMPLE2_GAMMA1), "gamma2": list(EXAMPLE2_GAMMA2),
            "ctilde_weight": 1.0}}
        loaded = [model_from_dict(json.loads(json.dumps(c))).costs for c in (values, recipe)]
        for f in dataclasses.fields(CostSpec):
            assert all(np.array_equal(getattr(c, f.name), getattr(model.costs, f.name))
                       for c in loaded), f.name

    def test_unknown_cost_variant_is_rejected_naming_the_file(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(_edited_model_config(("costs", "variant"), "bogus")))
        with pytest.raises(InvalidCostSpec) as info:
            load_model(p)
        assert str(info.value) == f"{p}: unknown variant 'bogus'"

    def test_render_table_deterministic(self):
        rows = [(0.1, 1 / 3), (0.2, 2 / 7)]
        a = render_table(("x", "y"), rows, "csv", {"seed": 1})
        b = render_table(("x", "y"), rows, "csv", {"seed": 1})
        assert a == b
        assert a.startswith("# seed=1\nx,y\n")


class TestDominanceCommand:
    def test_certified_chain_exit_zero(self, channel_files, capsys):
        o1, o2, _ = channel_files
        assert main(["dominance", o1, o2, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"]
        assert report["pairwise_deficiency"][0][1] <= 1e-8

    def test_identity_vs_uniform_reverse_deficiency(self, tmp_path, capsys):
        ident = tmp_path / "i.json"
        ident.write_text(json.dumps(np.eye(2).tolist()))
        unif = tmp_path / "u.json"
        unif.write_text(json.dumps([[0.5, 0.5], [0.5, 0.5]]))
        assert main(["dominance", str(ident), str(unif), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pairwise_deficiency"][0][1] == pytest.approx(0.0, abs=1e-9)
        assert report["pairwise_deficiency"][1][0] == pytest.approx(1.0, abs=1e-8)

    def test_identical_files_zero_both_ways(self, channel_files, capsys):
        o1, _, _ = channel_files
        assert main(["dominance", o1, o1, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        flat = np.asarray(report["pairwise_deficiency"])
        assert flat.max() <= 1e-9


    def test_non_finite_channel_exits_two_naming_the_entry(self, channel_files, tmp_path,
                                                            capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('[[0.2, 0.3, 0.5], [NaN, 0.5, 0.5], [0.1, 0.1, 0.8]]')
        assert main(["dominance", channel_files[0], str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: entry (1,0) = nan is not finite" in captured.err
        assert "infeasible" not in captured.err

    def test_lp_failure_names_both_channel_files(self, channel_files, monkeypatch, capsys):
        o1, o2, _ = channel_files

        def fail(W, H):
            raise LPSolverFailure("final tableau has drifted")

        monkeypatch.setattr(cli, "lecam_deficiency", fail)
        assert main(["dominance", o1, o2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {o1} vs {o2}: final tableau has drifted\n"


class TestExampleCommands:
    def test_example1_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "l1.csv"
        rc = main(["example1", "--rho-list", "0,0.4", "--grid-m", "16",
                   "--runs", "80", "--horizon", "25", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "0 violations" in err
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "rho,metric,value,stderr,runs,horizon,seed"
        rows = [l.split(",") for l in lines[1:]]
        assert rows[0][1] == "L1"
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)

    def test_example1_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["example1", "--rho-list", "0.3", "--grid-m", "12",
                  "--runs", "40", "--horizon", "15", "--seed", "7",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["dominance", "{ident}", "{o1}", "{o2}"],
        ["example2", "--states", "4", "--pairs", "3", "--runs", "20", "--horizon", "10"],
    ], ids=["dominance", "example2"])
    def test_commands_start_no_thread(self, argv, channel_files, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        files = dict(zip(("o1", "o2", "ident"), channel_files))
        monkeypatch.setattr(threading.Thread, "start", refuse)
        argv = [a.format(**files) for a in argv]
        assert main(argv + ["--threads", "2", "--out", str(tmp_path / "out")]) == 0

    def test_example2_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "l2.csv"
        rc = main(["example2", "--rho-list", "0,0.5", "--states", "4",
                   "--pairs", "2", "--runs", "60", "--horizon", "20",
                   "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "all convex Hurwitz: True" in err
        assert "weight audit" in err
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = {float(parts[0]): float(parts[2]) for parts in
                (l.split(",") for l in lines[1:])}
        assert rows[0.0] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(rows[0.5])


    @pytest.mark.parametrize("argv, rollouts", [
        (["example2", "--states", "5", "--pairs", "2", "--rho-list", "0.1,0.5,0.9"], 2),
        (["example1", "--rho-list", "0.3,0.6", "--grid-m", "12", "--runs", "50",
          "--horizon", "20"], 3),
        # at rho = 0 the grid estimate is the myopic one: one grid rollout fewer
        (["example1", "--rho-list", "0,0.3,0.6", "--grid-m", "12", "--runs", "50",
          "--horizon", "20"], 3),
    ], ids=["example2-one-per-pair", "example1-one-myopic-one-grid-per-rho",
            "example1-no-grid-rollout-at-rho-zero"])
    def test_each_trajectory_set_is_rolled_out_once(self, argv, rollouts, tmp_path,
                                                    monkeypatch):
        from hierpoll import sim
        calls = []
        rollout = sim._rollout

        def counted(*args, **kwargs):
            calls.append(type(args[1]).__name__)
            return rollout(*args, **kwargs)

        monkeypatch.setattr(sim, "_rollout", counted)
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == rollouts
        if argv[0] == "example1":
            assert calls == ["MyopicPolicy", "GridPolicy", "GridPolicy"]

    def test_example1_exits_one_when_the_myopic_bound_is_violated(self, tmp_path,
                                                                  monkeypatch, capsys):
        # mutant: the solver answers action 2 wherever the myopic action is 1
        solve = pomdp.value_iteration

        def raised(model, M):
            solution = solve(model, M)
            policy = solution.policy.copy()
            policy[pomdp.myopic_policy(solution.points, model.costs) == 1] = 2
            return dataclasses.replace(solution, policy=policy)

        monkeypatch.setattr(pomdp, "value_iteration", raised)
        assert main(["example1", "--rho-list", "0.5", "--grid-m", "8", "--runs", "20",
                     "--horizon", "10", "--out", str(tmp_path / "l1.csv")]) == 1
        (line,) = [l for l in capsys.readouterr().err.splitlines() if l.startswith("# rho=")]
        violations = int(re.search(r"myopic bound: (\d+) violations", line).group(1))
        assert violations > 0

    def test_example2_bytes_independent_of_threads(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            assert main(["example2", "--states", "5", "--pairs", "2",
                         "--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSolveSimulate:
    def test_solve_emits_grid(self, model_config, capsys):
        assert main(["solve", "--config", model_config, "--grid-m", "6"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "pi_1,pi_2,pi_3,value,action"
        assert len(lines) - 1 == 28  # C(8, 2) grid points

    def test_simulate_matches_library_call(self, model_config, capsys):
        from hierpoll.sim import MyopicPolicy, estimate_cost, uniform_belief
        assert main(["simulate", "--config", model_config, "--runs", "30",
                     "--horizon", "12", "--seed", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        mean = float(lines[1].split(",")[0])
        est = estimate_cost(example1_model(0.5), MyopicPolicy(),
                            uniform_belief(3), 12, 30, 5)
        assert mean == pytest.approx(est.mean, rel=1e-12)

    def test_simulate_pi0_matches_library_call(self, model_config, capsys):
        from hierpoll.sim import MyopicPolicy, estimate_cost, uniform_belief
        assert main(["simulate", "--config", model_config, "--pi0", "1,0,0", "--runs", "30",
                     "--horizon", "12", "--seed", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        mean = float(lines[1].split(",")[0])
        model = example1_model(0.5)
        est = estimate_cost(model, MyopicPolicy(), np.array([1.0, 0.0, 0.0]), 12, 30, 5)
        assert mean == pytest.approx(est.mean, rel=1e-12)
        # the option is read: the default uniform start gives another mean
        assert est.mean != estimate_cost(model, MyopicPolicy(), uniform_belief(3), 12, 30, 5).mean

    def test_simulate_fixed_policy(self, model_config, capsys):
        assert main(["simulate", "--config", model_config, "--policy", "fixed:2",
                     "--runs", "10", "--horizon", "5"]) == 0

    @pytest.mark.parametrize("pi0", ["0.5,0.6,0.2", "0.5,x,0.5", "1,0",
                                     "1.2,-0.2,0", "nan,0.5,0.5"])
    def test_simulate_rejects_bad_pi0(self, pi0, model_config, capsys):
        assert main(["simulate", "--config", model_config, "--pi0", pi0,
                     "--runs", "4", "--horizon", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --pi0")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{config}", "--policy", "fixed:x"],
        ["simulate", "--config", "{config}", "--policy", "fixed:9"],
        ["simulate", "--config", "{config}", "--runs", "0"],
        ["simulate", "--config", "{config}", "--horizon", "0"],
        ["renyi", "{o1}", "--alphas", "0.5,x"],
        ["example1", "--grid-m", "0"],
        ["example2", "--pairs", "0"],
        ["example2", "--states", "0"],
        ["dominance", "{o1}", "{o1}", "--threads", "0"],
        ["dominance", "{o1}", "{o1}", "--tol", "nan"],
        ["dominance", "{o1}", "{o1}", "--tol", "-1"],
        ["dominance", "{o1}", "{o1}", "--cert-tol", "inf"],
        ["example1", "--vi-tol", "nan"],
        ["solve", "--config", "{config}", "--vi-tol", "-1e-8"],
        ["simulate", "--config", "{config}", "--policy", "grid", "--vi-tol", "nan"],
        ["capacity", "{o1}", "--tol", "-1"],
        ["capacity", "{o1}", "--tol", "0"],
        ["estimate", "{o1}", "--states", "3", "--tol", "nan"],
        ["example1", "--rho-list", ""],
        ["example2", "--rho-list", ","],
        ["renyi", "{o1}", "--alphas", ""],
        ["example2", "--states", "3", "--pairs", "1", "--ctilde-weight", "nan"],
        ["estimate", "{bad:no-alphabet.json}", "--states", "1"],
        ["estimate", "{bad:sequences-not-list.json}", "--states", "1"],
        ["solve", "--config", "{bad:no-costs.json}"],
        ["solve", "--config", "{bad:no-variant.json}"],
        ["solve", "--config", "{bad:unknown-variant.json}"],
        ["capacity", "{bad:intent-no-B.json}"],
        ["capacity", "{bad:friendship-no-n.json}"],
        ["solve", "--config", "{bad:config-list.json}"],
        ["solve", "--config", "{bad:rho-not-float.json}"],
        ["solve", "--config", "{bad:rho-out-of-range.json}"],
        ["capacity", "{bad:friendship-n-word.json}"],
        ["capacity", "{bad:friendship-n-fraction.json}"],
        ["capacity", "{bad:intent-beta-short.json}"],
        ["solve", "--config", "{config}", "--vi-tol", "1e-8"],
        ["simulate", "--config", "{bad:cost-nan.json}", "--runs", "4", "--horizon", "3"],
        ["dominance", "{bad:undecodable.json}", "{o1}"],
        ["dominance", "{bad:undecodable.csv}", "{o1}"],
        ["capacity", "{bad:undecodable.json}"],
        ["solve", "--config", "{bad:undecodable.json}"],
        ["estimate", "{bad:undecodable.json}", "--states", "2"],
        ["estimate", "{bad:undecodable.csv}", "--states", "2"],
        ["capacity", "{bad:ragged.json}"],
        ["renyi", "{bad:ragged.json}"],
        ["capacity", "{bad:words.json}"],
        ["renyi", "{bad:words.json}"],
        ["dominance", "{bad:string-entries.json}", "{o1}"],
        ["solve", "--config", "{bad:measurement-strings.json}"],
        ["capacity", "{bad:huge-int.json}"],
        ["capacity", "{bad:friendship-n-inf.json}"],
        ["solve", "--config", "{bad:deep.json}"],
        ["example1", "--seed", "-1"],
        ["example2", "--states", "3", "--pairs", "1", "--seed", "-1"],
        ["simulate", "--config", "{config}", "--seed", "-1"],
        ["estimate", "{o1}", "--states", "2", "--seed", "-1"],
        ["dominance", "{o1}"],
    ], ids=["fixed-not-int", "fixed-out-of-range", "runs-0", "horizon-0",
            "alphas-not-float", "grid-m-0", "pairs-0", "states-0", "threads-0",
            "tol-nan", "tol-negative", "cert-tol-inf", "example1-vi-tol-nan",
            "solve-vi-tol-negative", "simulate-vi-tol-nan", "capacity-tol-negative",
            "capacity-tol-zero", "estimate-tol-nan", "rho-list-empty", "rho-list-blank",
            "alphas-empty", "ctilde-weight-nan", "data-no-alphabet", "data-sequences-not-list",
            "config-no-costs", "config-no-variant", "config-unknown-variant",
            "intent-recipe-no-B", "friendship-recipe-no-n-friends", "config-is-list", "config-rho-not-float",
            "config-rho-out-of-range", "friendship-n-friends-not-int",
            "friendship-n-friends-fraction", "intent-beta-not-stochastic",
            "unknown-option", "config-cost-nan", "dominance-undecodable-json",
            "dominance-undecodable-csv", "capacity-undecodable-json",
            "solve-undecodable-json", "estimate-undecodable-json",
            "estimate-undecodable-csv", "capacity-ragged-channel", "renyi-ragged-channel",
            "capacity-word-channel", "renyi-word-channel", "dominance-string-entries",
            "config-measurement-strings", "capacity-huge-int",
            "friendship-n-friends-inf", "solve-deeply-nested-json",
            "example1-seed-negative", "example2-seed-negative", "simulate-seed-negative",
            "estimate-seed-negative", "dominance-one-file"])
    def test_bad_options_exit_two(self, argv, model_config, channel_files, tmp_path,
                                  capsys):
        argv = [a.replace("{config}", model_config).replace("{o1}", channel_files[0])
                for a in argv]
        bad_paths = []
        for k, a in enumerate(argv):
            if a.startswith("{bad:"):
                argv[k] = str(tmp_path / a[5:-1])
                bad_paths.append(argv[k])
                content = BAD_FILES[a[5:-1]]
                Path(argv[k]).write_bytes(content if isinstance(content, bytes)
                                          else json.dumps(content).encode())
        try:
            rc = main(argv)
        except SystemExit as exc:      # argparse rejects an option's value
            rc = exc.code
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert all(path in captured.err for path in bad_paths)

    @pytest.mark.parametrize("argv, message", [
        (["example1", "--rho-list", "0.5,1.0"], "rho 1.0 outside [0, 1)"),
        (["simulate", "--config", "{config}", "--policy", "bogus"], "unknown policy 'bogus'"),
    ], ids=["rho-list-one", "policy-unknown"])
    def test_rejected_value_is_named(self, argv, message, model_config, capsys):
        try:
            rc = main([a.replace("{config}", model_config) for a in argv])
        except SystemExit as exc:      # argparse rejects an option's value
            rc = exc.code
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["example1", "--runs", "x"],
        ["example1", "--runs", "2.5"],
        ["renyi", "{o1}", "--alphas", "0.5,x"],
        ["capacity", "{o1}", "--tol", "x"],
    ], ids=["runs-word", "runs-fraction", "alphas-word", "tol-word"])
    def test_malformed_numbers_say_what_was_expected(self, argv, channel_files, capsys):
        argv = [a.replace("{o1}", channel_files[0]) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert re.search(r"argument --\S+: expected ", err)
        # argparse's own message names the type function, as in `invalid _positive_int value`
        assert not re.search(r"(?<!\w)_\w", err)


class TestModelConfigInputs:
    """A model config's costs are checked where CostSpec is built, and its
    channels are read as channel files are."""

    def _solve(self, tmp_path, name, config, capsys):
        p = tmp_path / name
        p.write_text(json.dumps(config))
        rc = main(["solve", "--config", str(p), "--grid-m", "3"])
        return rc, capsys.readouterr(), str(p)

    @pytest.mark.parametrize("costs, message", [
        ({"variant": "intent", "measurement": [0.1, 5.0], "gamma1": [2.0, 1.0],
          "gamma2": [1.0, 2.0]}, "measurement costs must be nonincreasing in u"),
        ({"variant": "expectation", "measurement": [[0.5, 0.25]], "error_weights": [0.5, 1.0]},
         "measurement must be a vector of finite numbers"),
    ], ids=["intent-measurement-increasing", "measurement-2d"])
    def test_malformed_costs_exit_two_naming_the_file(self, costs, message, tmp_path, capsys):
        config = _edited_model_config(("costs",), costs)
        rc, captured, path = self._solve(tmp_path, "model.json", config, capsys)
        assert rc == 2 and captured.out == ""
        assert f"error: {path}: {message}" in captured.err

    def test_bare_matrix_channels_load_as_their_labelled_twins(self, tmp_path, capsys):
        labelled = model_to_dict(example1_model(0.5))
        bare = {**labelled, "channels": [c["matrix"] for c in labelled["channels"]]}
        bodies = []
        for name, config in (("labelled.json", labelled), ("bare.json", bare)):
            rc, captured, _ = self._solve(tmp_path, name, config, capsys)
            assert rc == 0
            bodies.append([l for l in captured.out.splitlines() if not l.startswith("#")])
        assert bodies[0] == bodies[1] and len(bodies[0]) == 11


class TestInfoCommands:
    def test_capacity_identity(self, channel_files, capsys):
        *_, ident = channel_files
        assert main(["capacity", ident]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert float(lines[1].split(",")[1]) == pytest.approx(1.58496, abs=1e-5)

    def test_capacity_iteration_cap_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", 3)
        channel = tmp_path / "slow.json"
        channel.write_text(json.dumps([[0.9, 0.1], [0.3, 0.7]]))
        assert main(["capacity", str(channel)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert str(channel) in captured.err

    @pytest.mark.parametrize("name, text", [
        ("bad.json", '{"type": "intent", "B": [[0.9, 0.1], [0.2, 0.8]], "beta": [0.5]}'),
        ("bad.csv", "0.25,0.25\n0.5,0.5\n"),
    ])
    def test_build_error_names_the_file(self, name, text, channel_files, tmp_path, capsys):
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["capacity", channel_files[0], str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: row 0 sums to 0.500000000000 "
                                f"(deviation 5.000e-01)\n")

    def test_capacity_reports_each_gap_in_meta(self, channel_files, capsys):
        o1, o2, *_ = channel_files
        assert main(["capacity", o1, o2, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        gaps = payload["meta"]["gap_bits"]
        assert len(gaps) == 2 and all(0.0 <= g < 1e-4 for g in gaps)
        assert main(["capacity", o1, o2]) == 0
        meta = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
        assert f"# gap_bits={gaps}" in meta

    def test_capacity_of_a_large_friendship_recipe(self, tmp_path, capsys):
        # 3000 friends: the multinomial pmf is formed in log space, not from
        # an exact factorial too large for a float
        recipe = tmp_path / "friends.json"
        recipe.write_text(json.dumps({"type": "friendship", "n_friends": 3000,
                                      "B_level": [[0.5, 0.5], [0.5, 0.5]]}))
        assert main(["capacity", str(recipe)]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if not l.startswith("#")]
        assert float(lines[1].split(",")[1]) == pytest.approx(0.0, abs=1e-9)
        assert captured.err == ""

    def test_renyi_rows(self, channel_files, capsys):
        o1, *_ = channel_files
        assert main(["renyi", o1, "--alphas", "0.25,0.75"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert len(lines) - 1 == 6 * 2


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.optimize at start-up more than doubles the resident
    # memory of every CLI run; the library keeps numpy as its only import.
    # Every command runs on one thread, so no executor is imported either
    import hierpoll
    src = str(Path(hierpoll.__file__).resolve().parents[1])
    code = ("import sys, hierpoll.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('concurrent.futures')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestEstimateCommand:
    def test_estimate_json_trace(self, tmp_path, capsys):
        y = hmm_sample(np.asarray(example1_model(0.5).P),
                       EXAMPLE1_O1, 3000, seed=21)
        f = tmp_path / "obs.csv"
        f.write_text("a,b,c\n" + ",".join("abc"[i] for i in y) + "\n")
        rc = main(["estimate", str(f), "--states", "3", "--max-iter", "15",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        trace = payload["log_likelihoods"]
        assert np.all(np.diff(trace) >= -1e-8)

    @pytest.mark.parametrize("drop, rc", [(0.5, 0), (2.0, 1)],
                             ids=["within-slack", "past-slack"])
    def test_a_falling_trace_exits_one(self, drop, rc, tmp_path, monkeypatch, capsys):
        # mutant: the last iteration lowers the log-likelihood by `drop` slacks
        y = hmm_sample(np.asarray(example1_model(0.5).P), EXAMPLE1_O1, 500, seed=3)
        f = tmp_path / "obs.csv"
        f.write_text("a,b,c\n" + ",".join("abc"[i] for i in y) + "\n")
        fit = cli.em_fit

        def falling(*args, **kwargs):
            est = fit(*args, **kwargs)
            trace = est.log_likelihoods.copy()
            trace[-1] = trace[-2] - drop * estimate._ASCENT_SLACK
            return dataclasses.replace(est, log_likelihoods=trace)

        monkeypatch.setattr(cli, "em_fit", falling)
        assert main(["estimate", str(f), "--states", "3", "--max-iter", "3",
                     "--out", str(tmp_path / "fit.csv")]) == rc

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{broken")
        assert main(["estimate", str(f), "--states", "3"]) == 2

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_must_be_positive(self, max_iter, tmp_path, capsys):
        # with no iteration the non-decreasing-trace verdict would be vacuous
        f = tmp_path / "obs.csv"
        f.write_text("a,b\na,b,a\n")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(f), "--states", "2", "--max-iter", max_iter])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err


# a number in an output: not part of a word, a hex hash or a dotted version
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def _assert_same_output(got, want):
    """The text around the numbers matches exactly, so the layout, keys and
    words do; the numbers match to 1e-12 relative."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-12), (g, w)


def _csv_rows(text):
    return list(csv.DictReader(l for l in text.splitlines()
                               if l and not l.startswith("#")))


class TestRecordedOutputs:
    """CSV bodies, and for the full_* cases the whole stdout, stderr and exit
    code, of small runs match those recorded at an earlier commit: numbers
    to 1e-12 relative, so that another BLAS build still passes, and the solve
    action column, the keys and the words exactly."""

    @pytest.mark.parametrize("case", ["example1", "example2", "simulate_grid", "solve",
                                      "solve_intent", "simulate_intent"])
    def test_body_matches_recording(self, case, model_config, intent_config, capsys):
        ref = REFERENCE[case]
        assert main([a.replace("{config}", model_config)
                     .replace("{intent_config}", intent_config) for a in ref["argv"]]) == 0
        got = _csv_rows(capsys.readouterr().out)
        want = _csv_rows(ref["body"])
        assert len(got) == len(want) and list(got[0]) == list(want[0])
        for g, w in zip(got, want):
            for key in w:
                if key in ("action", "metric"):
                    assert g[key] == w[key]
                else:
                    assert math.isclose(float(g[key]), float(w[key]), rel_tol=1e-12), (key, g, w)

    @pytest.mark.parametrize("case", sorted(k for k in REFERENCE if k.startswith("full_")))
    def test_full_output_matches_recording(self, case, tmp_path, monkeypatch, capsys):
        ref = REFERENCE[case]
        for name, text in ref["files"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main(ref["argv"]) == ref["rc"]
        captured = capsys.readouterr()
        _assert_same_output(captured.out, ref["stdout"])
        _assert_same_output(captured.err, ref["stderr"])
