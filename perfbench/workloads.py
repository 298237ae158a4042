"""The benchmark workloads: their CLI calls and their output checks.

A workload is a list of `hierpoll` argv lists run in one fresh process. It
is made of parts (loss-x3, em-50k, certify-x10, proxy-x20), each with its
own calls, inputs, reference and checker. Under the reference seed a part's
checker compares against reference.json (written from the seed commit);
under any other seed it checks only invariants that hold for every input.
A checker returns a list of problems; an empty list means the outputs are
correct.

The parts are paired into two workloads, one serial and one on the
2-worker pool, rather than run as four: on a shared 2-vCPU host a core's
speed drifts by up to a third within a minute, and only runs about twice
as long kept the run-to-run spread of every workload within its bound.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from inputs import CERTIFY_CHANNELS, CERTIFY_STATES, EXAMPLE1_O1

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
CERT_TOL = 1e-7          # the CLI's --cert-tol default
LOSS_STDERRS = 4.0       # L1/L2 agreement with the reference, in reference stderrs
EM_MAX_ITER = 8
EM_TV_MAX = 0.05
PROXY_PAIRS = 2

WORKLOADS = {
    "plan-em": ("loss-x3", "em-50k"),
    "certify-proxy": ("certify-x10", "proxy-x20"),
}
WHY = {
    "plan-em": "serial X=3 work: example1's planning sweep (grid interpolation, grid "
               "rollouts, VI) then 8 ultrametric EM iterations on 50k symbols; "
               "no LP of size, no thread pool",
    "certify-proxy": "2-worker pool work: dominance, capacity and Renyi on five "
                     "10-state channels (dense LPs, Blahut-Arimoto), then example2 "
                     "at X=20 (myopic rollouts, ctilde); no grid, no EM",
}


def part_calls(part: str, seed: int, threads: int) -> list[list[str]]:
    common = ["--seed", str(seed), "--threads", str(threads)]
    channels = [f"channel{k}.json" for k in range(1, CERTIFY_CHANNELS + 1)]
    if part == "loss-x3":
        return [["example1", *common, "--out", "out-loss.csv"]]
    if part == "proxy-x20":
        return [["example2", "--states", "20", "--pairs", str(PROXY_PAIRS),
                 *common, "--out", "out-proxy.csv"]]
    if part == "certify-x10":
        return ([["dominance", *channels, "--format", "json", *common,
                  "--out", "out-dominance.json"],
                 ["capacity", *channels, *common, "--out", "out-capacity.csv"]]
                + [["renyi", ch, *common, "--out", f"out-renyi{k}.csv"]
                   for k, ch in enumerate(channels, start=1)])
    if part == "em-50k":
        return [["estimate", "observations.csv", "--states", "3",
                 "--max-iter", str(EM_MAX_ITER), "--tol", "0", *common,
                 "--out", "out-estimate.csv"]]
    raise KeyError(part)


def calls(workload: str, seed: int, threads: int) -> list[list[str]]:
    return [argv for part in WORKLOADS[workload]
            for argv in part_calls(part, seed, threads)]


# ------------------------------------------------------------------ parsing
def read_table(path: Path) -> tuple[dict, list[dict]]:
    """A CLI CSV output: ('# key=value' meta, rows as dicts of strings)."""
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    return meta, list(csv.DictReader(body))


def extract(part: str, workdir: Path) -> dict:
    """The numbers a part's checker compares, read from its outputs."""
    if part in ("loss-x3", "proxy-x20"):
        name = "out-loss.csv" if part == "loss-x3" else "out-proxy.csv"
        _, rows = read_table(workdir / name)
        return {"metric": sorted({r["metric"] for r in rows}),
                "rows": [[float(r["rho"]), float(r["value"]), float(r["stderr"])]
                         for r in rows]}
    if part == "certify-x10":
        dom = json.loads((workdir / "out-dominance.json").read_text())
        _, cap = read_table(workdir / "out-capacity.csv")
        renyi = []
        for k in range(1, CERTIFY_CHANNELS + 1):
            _, rows = read_table(workdir / f"out-renyi{k}.csv")
            renyi.append([float(r["divergence"]) for r in rows])
        return {"pairwise": dom["pairwise_deficiency"],
                "chain": dom["chain"]["deficiencies"],
                "certified": dom["certified"],
                "capacities": [float(r["capacity_bits"]) for r in cap],
                "renyi": renyi}
    if part == "em-50k":
        meta, rows = read_table(workdir / "out-estimate.csv")
        return {"emission": json.loads(meta["emission"]),
                "transition": json.loads(meta["transition"]),
                "log_likelihoods": [float(r["log_likelihood"]) for r in rows]}
    raise KeyError(part)


def load_references(workload: str, seed: int) -> dict:
    """{part: stored outputs to compare with, or None off the reference seed}."""
    stored = json.loads(REFERENCE_FILE.read_text()) if seed == REFERENCE_SEED else {}
    return {part: stored.get(part) for part in WORKLOADS[workload]}


# ----------------------------------------------------------------- checkers
def emission_tv(emission) -> float:
    """Largest row total-variation distance to O1, over state relabellings."""
    B = np.asarray(emission, dtype=float)
    return min(float(0.5 * np.abs(B[list(p)] - EXAMPLE1_O1).sum(axis=1).max())
               for p in itertools.permutations(range(B.shape[0])))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_loss(out: dict, stderr: str, part: str, ref) -> list[str]:
    problems = []
    metric = "L1" if part == "loss-x3" else "L2"
    rows = out["rows"]
    if out["metric"] != [metric] or len(rows) != 10:
        problems.append(f"expected 10 {metric} rows, got {len(rows)} {out['metric']}")
    if not _finite(v for row in rows for v in row):
        problems.append("non-finite loss value")
    zero = [v for rho, v, _ in rows if rho == 0.0]
    if not zero or abs(zero[0]) > 1e-9:
        problems.append(f"{metric}(0) = {zero} is not 0")
    if part == "loss-x3":
        found = re.findall(r"chain deficiencies \[([^\]]*)\], myopic bound: (\d+) violations",
                           stderr)
        if len(found) != len(rows):
            problems.append(f"{len(found)} myopic-bound reports for {len(rows)} rho values")
        for defs, violations in found:
            if any(float(d.strip(" '")) > CERT_TOL for d in defs.split(",") if d.strip()):
                problems.append(f"chain not certified: [{defs}]")
            if int(violations):
                problems.append(f"myopic bound violated {violations} times")
    else:
        m = re.search(r"worst quotient-garbling residual over \d+ draws = (\S+)", stderr)
        if not m or not float(m.group(1)) <= 1e-6:
            problems.append("chain audit residual missing or above 1e-6")
    if ref is not None:
        if len(ref["rows"]) != len(rows):
            return problems + ["row count differs from the reference"]
        for (rho, v, _), (rrho, rv, rse) in zip(rows, ref["rows"]):
            if rho != rrho or abs(v - rv) > LOSS_STDERRS * rse + 1e-12:
                problems.append(f"{metric}({rho}) = {v!r} vs reference {rv!r} "
                                f"(allowed {LOSS_STDERRS} x {rse:.3e})")
    return problems


def _check_certify(out: dict, stderr: str, ref) -> list[str]:
    problems = []
    n = CERTIFY_CHANNELS
    if not out["certified"] or len(out["chain"]) != n - 1 \
            or any(d > CERT_TOL for d in out["chain"]):
        problems.append(f"chain not certified: {out['chain']}")
    if "NOT certified" in stderr or stderr.count("(certified)") != n - 1:
        problems.append("a chain step is reported NOT certified")
    caps = out["capacities"]
    if len(caps) != n or not _finite(caps):
        problems.append(f"expected {n} finite capacities, got {caps}")
    elif any(b > a + 1e-8 for a, b in zip(caps, caps[1:])):
        problems.append(f"capacities break the dominance order: {caps}")
    pairs = CERTIFY_STATES * (CERTIFY_STATES - 1)
    if any(len(d) != 9 * pairs or not _finite(d) or min(d) < -1e-12
           for d in out["renyi"]):
        problems.append("Renyi table has the wrong size or an invalid divergence")
    if ref is None:
        return problems
    for i, row in enumerate(ref["pairwise"]):
        for j, rd in enumerate(row):
            d = out["pairwise"][i][j]
            bad = d > CERT_TOL if rd <= CERT_TOL else abs(d - rd) > 1e-6
            if bad:
                problems.append(f"deficiency ({i + 1},{j + 1}) = {d!r} vs reference {rd!r}")
    for k, (c, rc) in enumerate(zip(caps, ref["capacities"]), start=1):
        if abs(c - rc) > 1e-8:
            problems.append(f"capacity of channel {k} = {c!r} vs reference {rc!r}")
    for k, (d, rd) in enumerate(zip(out["renyi"], ref["renyi"]), start=1):
        if len(d) != len(rd) or any(abs(a - b) > 1e-9 * max(1.0, abs(b))
                                    for a, b in zip(d, rd)):
            problems.append(f"Renyi divergences of channel {k} differ from the reference")
    return problems


def _check_em(out: dict, ref) -> list[str]:
    problems = []
    tv = emission_tv(out["emission"])
    if not tv <= EM_TV_MAX:
        problems.append(f"emission row TV to O1 = {tv:.4f} > {EM_TV_MAX}")
    ll = out["log_likelihoods"]
    if not ll or not _finite(ll) or any(b < a - 1e-8 for a, b in zip(ll, ll[1:])):
        problems.append("log-likelihood trace is empty, non-finite or decreasing")
    if ref is not None and ll:
        rl = ref["log_likelihoods"][-1]
        if ll[-1] < rl - 1e-6 * abs(rl):
            problems.append(f"final log-likelihood {ll[-1]!r} below reference {rl!r}")
    return problems


def check_part(part: str, workdir: Path, stderr: str, reference) -> list[str]:
    """Problems with a part's outputs; `reference` is None off the reference seed."""
    try:
        out = extract(part, workdir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    if part in ("loss-x3", "proxy-x20"):
        return _check_loss(out, stderr, part, reference)
    if part == "certify-x10":
        return _check_certify(out, stderr, reference)
    return _check_em(out, reference)


def check(workload: str, workdir: Path, return_codes, stderr: str,
          references: dict) -> list[str]:
    """Problems with one run of `workload`; [] when its outputs are correct."""
    if any(rc != 0 for rc in return_codes):
        return [f"exit codes {list(return_codes)}"]
    return [f"{part}: {p}" for part in WORKLOADS[workload]
            for p in check_part(part, workdir, stderr, references[part])]
