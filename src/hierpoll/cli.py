"""Batch command-line front end.

Subcommands cover dominance certification of channel files, the two canned
benchmark experiments, grid solving, simulation, capacity and divergence
reports, and EM parameter estimation. Every command is deterministic given
--seed and writes its result through `_emit`: byte-stable CSV bodies
(metadata in '#' comments) or JSON. Exit code 0 means every verification the
command ran has passed, 1 that one failed, and 2 a bad input.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .channels import approximate_blackwell_chain, certifies, garbling_residual, lecam_deficiency
from .errors import (HierPollError, InvalidArgument, LPSolverFailure, MaxIterationsExceeded,
                     ParseError)
from .estimate import em_fit, estimate_to_dict, load_observations
from .fileio import (
    chain_to_dict,
    load_channel,
    load_model,
    render_table,
    standard_meta,
    write_output,
)
from .infotheory import channel_divergences, shannon_capacities
from .pomdp import (
    PollingModel,
    value_iteration,
    verify_myopic_bound,
)
from .presets import (
    example1_model,
    example2_parts,
    example2_polynomials,
    intent_weight_audit,
)
from .sim import (
    FixedPolicy,
    GridPolicy,
    MyopicPolicy,
    estimate_cost,
    l1_components,
    l2_components,
    loss_ratio,
    uniform_belief,
)
from .stochastic import (check_integer, eval_matrix_polynomial, is_hurwitz,
                         polynomial_quotient, validate_belief)


def _int_at_least(low: int):
    """An argparse type for an integer >= low, checked by check_integer."""
    def parse(text: str) -> int:
        try:
            return check_integer("value", int(text), low)
        except ValueError:  # not an integer, or one below low
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}") from None
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted and ignored: every command runs on one thread")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value) and value >= 0.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",") if t.strip() != ""]
        if vals:
            return vals
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _rho_list(text: str) -> list[float]:
    vals = _float_list(text)
    for v in vals:
        if not 0.0 <= v < 1.0:
            raise argparse.ArgumentTypeError(f"rho {v} outside [0, 1)")
    return vals


def _pair_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % (2 ** 31))


def _emit(args, columns, rows, meta_src, extra=None, payload=None, holds=()) -> int:
    """Write a command's result and fold its verifications into the exit code.

    The result is the table of `columns` and `rows` with standard_meta of
    `meta_src` and then `extra` as its meta, rendered in --format; under
    --format json a command with its own `payload` writes that after the
    meta instead. Returns 0 when every verification in `holds` passed, else 1.
    """
    meta = standard_meta(meta_src, args.seed)
    if payload is not None and args.format == "json":
        text = json.dumps({"meta": meta, **payload}, indent=2) + "\n"
    else:
        text = render_table(columns, rows, args.format, {**meta, **(extra or {})})
    write_output(text, args.out)
    return 0 if all(holds) else 1


# ------------------------------------------------------------------ commands
def cmd_dominance(args) -> int:
    channels = [load_channel(f) for f in args.channels]
    if len(channels) < 2:
        raise InvalidArgument("need at least two channel files")
    n = len(channels)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairwise = np.zeros((n, n))
    for i, j in pairs:
        try:
            pairwise[i, j] = lecam_deficiency(channels[j], channels[i]).delta
        except LPSolverFailure as exc:
            raise LPSolverFailure(f"{args.channels[i]} vs {args.channels[j]}: {exc}") from exc
    chain = approximate_blackwell_chain(channels)
    certified = chain.is_certified()
    for u, d in enumerate(chain.deficiencies):
        mark = "certified" if certifies(d) else "NOT certified"
        print(f"# O({u + 1}) >= O({u + 2}): deficiency {d:.3e} ({mark})",
              file=sys.stderr)
    rows = [(i + 1, j + 1, pairwise[i, j]) for i, j in pairs]
    payload = {"pairwise_deficiency": pairwise.tolist(), "chain": chain_to_dict(chain),
               "certified": certified}
    return _emit(args, ("dominating", "dominated", "deficiency"), rows,
                 {"channels": args.channels}, payload=payload, holds=(certified,))


RESULT_COLUMNS = ("rho", "metric", "value", "stderr", "runs", "horizon", "seed")


def cmd_example1(args) -> int:
    meta_src = {"cmd": "example1", "rho": args.rho_list, "grid_m": args.grid_m,
                "runs": args.runs, "horizon": args.horizon}
    holds = []

    def solve(model):
        report = verify_myopic_bound(model, args.grid_m)
        print(f"# rho={model.rho}: chain deficiencies {['%.2e' % d for d in report.deficiencies]}, "
              f"myopic bound: {len(report.violations)} violations on "
              f"{report.solution.grid.size}-point grid (M={args.grid_m})", file=sys.stderr)
        holds.append(report.holds)
        return report.solution

    # rollouts read no discount: l1_components applies each rho of the sweep
    components = l1_components(example1_model(0.0), args.rho_list, args.grid_m,
                               args.runs, args.horizon, args.seed, uniform_belief(3),
                               solve=solve)
    rows = [(rho, "L1", *loss_ratio(*pair), args.runs, args.horizon, args.seed)
            for rho, pair in zip(args.rho_list, components)]
    return _emit(args, RESULT_COLUMNS, rows, meta_src, holds=holds)


def cmd_example2(args) -> int:
    meta_src = {"cmd": "example2", "rho": args.rho_list, "states": args.states,
                "pairs": args.pairs, "runs": args.runs, "horizon": args.horizon}
    total, deviation, _ = intent_weight_audit()
    print(f"# weight audit: printed sum = {total} (deviation {deviation:.4e}); "
          f"normalized before use", file=sys.stderr)
    polys = example2_polynomials()
    degrees = [p.degree for p in polys]
    all_hurwitz = all(is_hurwitz(p) for p in polys)
    print(f"# deflation audit: degrees f_1..f_5 = {degrees}, "
          f"all convex Hurwitz: {all_hurwitz}", file=sys.stderr)
    quotients = [polynomial_quotient(polys[u + 1], polys[u]) for u in range(4)]
    pi0 = np.zeros(args.states)
    pi0[0] = 1.0

    def run_pair(p):
        P, B, channels, costs = example2_parts(args.states, [args.seed, p])
        residual = max(garbling_residual(channels[u + 1].matrix.entries,
                                         channels[u].matrix.entries,
                                         eval_matrix_polynomial(quotients[u], B).entries)
                       for u in range(4))
        # rollouts read no discount: one per draw serves every rho
        model = PollingModel(P=P, channels=channels, costs=costs, rho=0.0)
        return residual, [loss_ratio(*pair) for pair in l2_components(
            model, args.rho_list, args.runs, args.horizon, _pair_seed(args.seed, p), pi0=pi0)]

    results = [run_pair(p) for p in range(args.pairs)]
    worst_residual = max(r for r, _ in results)
    print(f"# chain audit: worst quotient-garbling residual over {args.pairs} "
          f"draws = {worst_residual:.3e}", file=sys.stderr)
    values = np.array([[v for v, _ in losses] for _, losses in results])
    errors = np.array([[e for _, e in losses] for _, losses in results])
    rows = [(rho, "L2", float(values[:, k].mean()),
             float(np.sqrt((errors[:, k] ** 2).sum()) / args.pairs),
             args.runs, args.horizon, args.seed)
            for k, rho in enumerate(args.rho_list)]
    return _emit(args, RESULT_COLUMNS, rows, meta_src,
                 holds=(all_hurwitz, certifies(worst_residual)))


def cmd_solve(args) -> int:
    model, config = load_model(args.config)
    gvf = value_iteration(model, args.grid_m)
    cols = tuple(f"pi_{i + 1}" for i in range(model.n_states)) + ("value", "action")
    rows = [tuple(pt) + (float(v), int(a))
            for pt, v, a in zip(gvf.points, gvf.values, gvf.policy)]
    return _emit(args, cols, rows, {"cmd": "solve", "config": config, "grid_m": args.grid_m},
                 extra={"sweeps": gvf.sweeps})


def _make_policy(name: str, model, grid_m: int):
    if name == "myopic":
        return MyopicPolicy()
    if name.startswith("fixed:"):
        u = name.split(":", 1)[1]
        if not (u.isdecimal() and 1 <= int(u) <= model.n_actions):
            raise ParseError(f"--policy {name!r}: the fixed action must be an "
                             f"integer in 1..{model.n_actions}")
        return FixedPolicy(int(u))
    if name == "grid":
        return GridPolicy(value_iteration(model, grid_m))
    raise HierPollError(f"unknown policy {name!r}")


def _parse_pi0(text: str, X: int) -> np.ndarray:
    try:
        pi0 = validate_belief([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise ParseError(f"--pi0 {text!r}: {exc}") from exc
    if pi0.size != X:
        raise ParseError(f"--pi0 has {pi0.size} entries for a {X}-state model")
    return pi0


def cmd_simulate(args) -> int:
    model, config = load_model(args.config)
    pi0 = (uniform_belief(model.n_states) if args.pi0 is None
           else _parse_pi0(args.pi0, model.n_states))
    policy = _make_policy(args.policy, model, args.grid_m)
    est = estimate_cost(model, policy, pi0, args.horizon, args.runs, args.seed)
    rows = [(est.mean, est.stderr, est.runs, est.horizon, est.seed, est.truncation_bias)]
    return _emit(args, ("mean", "stderr", "runs", "horizon", "seed", "truncation_bias"),
                 rows, {"cmd": "simulate", "config": config, "policy": args.policy,
                        "runs": args.runs, "horizon": args.horizon})


def cmd_capacity(args) -> int:
    channels = [load_channel(f) for f in args.channels]
    try:
        results = shannon_capacities(channels, tol=args.tol)
    except MaxIterationsExceeded as exc:
        raise MaxIterationsExceeded(f"{args.channels[exc.index]}: {exc}", exc.index) from exc
    rows = [(f, c.bits) for f, c in zip(args.channels, results)]
    return _emit(args, ("channel", "capacity_bits"), rows,
                 {"cmd": "capacity", "channels": args.channels},
                 extra={"gap_bits": [c.gap_bits for c in results]})


def cmd_renyi(args) -> int:
    div = channel_divergences(load_channel(args.channel), args.alphas)
    rows = [(f"{i + 1}-{j + 1}", alpha, float(div[i, j, a]))
            for i in range(div.shape[0]) for j in range(div.shape[1]) if i != j
            for a, alpha in enumerate(args.alphas)]
    return _emit(args, ("pair", "alpha", "divergence"), rows,
                 {"cmd": "renyi", "channel": args.channel, "alphas": args.alphas})


def cmd_estimate(args) -> int:
    data = load_observations(args.data)
    est = em_fit(data, X=args.states, max_iter=args.max_iter, tol=args.tol,
                 seed=args.seed)
    extra = {"transition": json.dumps(est.transition.entries.tolist()),
             "emission": json.dumps(est.emission.entries.tolist()),
             "converged": est.converged}
    return _emit(args, ("iteration", "log_likelihood"), list(enumerate(est.log_likelihoods)),
                 {"cmd": "estimate", "data": args.data, "states": args.states,
                  "max_iter": args.max_iter},
                 extra=extra, payload=estimate_to_dict(est), holds=(est.ascends,))


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierpoll",
        description="Adaptive polling of hierarchical networks: dominance "
                    "certification, belief-grid planning, loss metrics, and "
                    "parameter estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dominance", help="certify a dominance chain from channel files")
    p.add_argument("channels", nargs="+", help="channel JSON/CSV files, most informative first")
    _add_common(p)
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("example1", help="three-state benchmark: myopic-vs-optimal loss sweep")
    p.add_argument("--rho-list", type=_rho_list,
                   default=[round(0.1 * k, 1) for k in range(10)])
    p.add_argument("--grid-m", type=_positive_int, default=60)
    p.add_argument("--runs", type=_positive_int, default=1000)
    p.add_argument("--horizon", type=_positive_int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("example2", help="large randomized benchmark: proxy-bound loss sweep")
    p.add_argument("--rho-list", type=_rho_list,
                   default=[round(0.1 * k, 1) for k in range(10)])
    p.add_argument("--states", type=_positive_int, default=20)
    p.add_argument("--pairs", type=_positive_int, default=10)
    p.add_argument("--runs", type=_positive_int, default=1000)
    p.add_argument("--horizon", type=_positive_int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_example2)

    p = sub.add_parser("solve", help="value iteration on a model config")
    p.add_argument("--config", required=True)
    p.add_argument("--grid-m", type=_positive_int, default=60)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo cost estimate on a model config")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", default="myopic", help="myopic | fixed:U | grid")
    p.add_argument("--grid-m", type=_positive_int, default=60)
    p.add_argument("--runs", type=_positive_int, default=1000)
    p.add_argument("--horizon", type=_positive_int, default=100)
    p.add_argument("--pi0", default=None, help="comma-separated initial belief")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("capacity", help="channel capacities in bits")
    p.add_argument("channels", nargs="+")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("renyi", help="all-pairs row divergences of a channel")
    p.add_argument("channel")
    p.add_argument("--alphas", type=_float_list, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    _add_common(p)
    p.set_defaults(func=cmd_renyi)

    p = sub.add_parser("estimate", help="EM fit of (P, B) from an observation dataset")
    p.add_argument("data")
    p.add_argument("--states", type=_positive_int, required=True)
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HierPollError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
