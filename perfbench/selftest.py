"""Tests of the benchmark's own checkers and tracer.

Run from the root of a checkout: python3 perfbench/selftest.py

The checker mutants are outputs in the CLI's formats, built from the
stored reference and then broken one way each; every one must be
reported as a failure. The tracer tests drive nested spans in two threads
on a fake clock and check the self-time arithmetic exactly.
"""
import json
import shutil
import sys
import tempfile
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from inputs import EXAMPLE1_O1  # noqa: E402

REF = json.loads(workloads.REFERENCE_FILE.read_text())
OTHER_SEED = workloads.REFERENCE_SEED + 1


def _csv(path: Path, columns, rows, meta=None) -> None:
    lines = [f"# {k}={v}" for k, v in sorted((meta or {}).items())]
    lines.append(",".join(columns))
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n")


def render(part: str, out: dict, workdir: Path) -> str:
    """Write `out` (the form `workloads.extract` returns) as CLI outputs;
    return the matching stderr text."""
    if part == "loss-x3":
        _csv(workdir / "out-loss.csv", ("rho", "metric", "value", "stderr"),
             [(rho, "L1", v, se) for rho, v, se in out["rows"]])
        return "".join(f"# rho={rho}: chain deficiencies ['0.00e+00'], myopic bound: "
                       f"0 violations on 1891-point grid (M=60)\n"
                       for rho, _, _ in out["rows"])
    if part == "proxy-x20":
        _csv(workdir / "out-proxy.csv", ("rho", "metric", "value", "stderr"),
             [(rho, "L2", v, se) for rho, v, se in out["rows"]])
        return "# chain audit: worst quotient-garbling residual over 2 draws = 3.102e-15\n"
    if part == "certify-x10":
        (workdir / "out-dominance.json").write_text(json.dumps({
            "pairwise_deficiency": out["pairwise"],
            "chain": {"deficiencies": out["chain"]},
            "certified": out["certified"]}))
        _csv(workdir / "out-capacity.csv", ("channel", "capacity_bits"),
             [(f"channel{k}.json", c) for k, c in enumerate(out["capacities"], 1)])
        for k, divs in enumerate(out["renyi"], start=1):
            _csv(workdir / f"out-renyi{k}.csv", ("pair", "alpha", "divergence"),
                 [("1-2", 0.5, d) for d in divs])
        return "".join(f"# O({u + 1}) >= O({u + 2}): deficiency {d:.3e} "
                       f"({'certified' if d <= workloads.CERT_TOL else 'NOT certified'})\n"
                       for u, d in enumerate(out["chain"]))
    if part == "em-50k":
        _csv(workdir / "out-estimate.csv", ("iteration", "log_likelihood"),
             list(enumerate(out["log_likelihoods"])),
             {"emission": json.dumps(out["emission"]),
              "transition": json.dumps(out["transition"])})
        return ""
    raise KeyError(part)


class CheckerMutants(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE.parent / ".perfbench_work"))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def problems(self, part, out, seed, stderr=None):
        text = render(part, out, self.dir)
        ref = REF[part] if seed == workloads.REFERENCE_SEED else None
        return workloads.check_part(part, self.dir, text if stderr is None else stderr, ref)

    def test_reference_outputs_pass(self):
        for name, parts in workloads.WORKLOADS.items():
            for seed in (workloads.REFERENCE_SEED, OTHER_SEED):
                stderr = "".join(render(part, REF[part], self.dir) for part in parts)
                with self.subTest(workload=name, seed=seed):
                    self.assertEqual(workloads.check(
                        name, self.dir, [0], stderr,
                        workloads.load_references(name, seed)), [])

    def test_shifted_l1_is_rejected(self):
        out = json.loads(json.dumps(REF["loss-x3"]))
        rho, v, se = out["rows"][-1]
        out["rows"][-1] = [rho, v + 5 * se, se]
        self.assertTrue(self.problems("loss-x3", out, workloads.REFERENCE_SEED))
        shifted = {"metric": out["metric"],
                   "rows": [[rho, v + 0.01, se] for rho, v, se in REF["loss-x3"]["rows"]]}
        self.assertTrue(self.problems("loss-x3", shifted, OTHER_SEED))

    def test_garbling_residual_above_tolerance_is_rejected(self):
        stderr = render("proxy-x20", REF["proxy-x20"], self.dir).replace("3.102e-15", "2.0e-06")
        self.assertTrue(self.problems("proxy-x20", REF["proxy-x20"], OTHER_SEED, stderr=stderr))

    def test_not_certified_step_is_rejected(self):
        out = json.loads(json.dumps(REF["certify-x10"]))
        out["chain"][2] = 1e-3
        out["certified"] = False
        for seed in (workloads.REFERENCE_SEED, OTHER_SEED):
            self.assertTrue(self.problems("certify-x10", out, seed))
        # the stderr verdict alone is enough
        stderr = render("certify-x10", REF["certify-x10"], self.dir)
        stderr = stderr.replace("(certified)", "(NOT certified)", 1)
        self.assertTrue(self.problems("certify-x10", REF["certify-x10"], OTHER_SEED,
                                      stderr=stderr))

    def test_emission_tv_bound(self):
        out = json.loads(json.dumps(REF["em-50k"]))
        for tv, rejected in ((0.06, True), (0.04, False)):
            B = EXAMPLE1_O1.copy()
            B[0, 0] -= tv
            B[0, 1] += tv
            out["emission"] = B.tolist()
            self.assertAlmostEqual(workloads.emission_tv(B), tv, places=12)
            self.assertEqual(bool(self.problems("em-50k", out, OTHER_SEED)), rejected)

    def test_lower_log_likelihood_and_exit_code_are_rejected(self):
        out = json.loads(json.dumps(REF["em-50k"]))
        out["log_likelihoods"][-1] -= 1.0
        self.assertTrue(self.problems("em-50k", out, workloads.REFERENCE_SEED))
        self.assertTrue(workloads.check("plan-em", self.dir, [0, 1], "",
                                        workloads.load_references("plan-em", OTHER_SEED)))


class FakeClock:
    """Per-thread time that only moves when a test function says so."""

    def __init__(self):
        self.local = threading.local()

    def __call__(self):
        return self.local.now

    def set(self, t):
        self.local.now = t

    def advance(self, dt):
        self.local.now += dt


class TracerArithmetic(unittest.TestCase):
    def test_nested_spans_in_two_threads(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)
        inner = tr.wrap("lp.solve_lp", lambda: clock.advance(4))

        def outer_fn():
            clock.advance(1)
            inner()
            clock.advance(2)

        outer = tr.wrap("channels.lecam_deficiency", outer_fn)

        def worker():
            clock.set(7.0)
            outer()

        def command():
            outer()                                  # main thread, t = 0 .. 7
            t = threading.Thread(target=worker)      # pool thread, t = 7 .. 14
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
            clock.set(14.0)
            clock.advance(1)                         # cli's own work, 14 .. 15

        clock.set(0.0)
        tr.root(command)
        metrics, absent, checks = tracer.summarize(tr.records(), tr.installed, threads=2)
        value = {k: v for k, (v, _) in metrics.items()}
        self.assertEqual(value["lp.solve_lp.calls"], 2)
        self.assertEqual(value["lp.solve_lp.self_s"], 8.0)
        self.assertEqual(value["channels.lecam_deficiency.self_s"], 6.0)
        self.assertEqual(value["channels.lecam_deficiency.p50_ms"], 7000.0)
        self.assertEqual(value["lp.self_s"] + value["channels.self_s"], 14.0)
        self.assertEqual(value["trace.wall_s"], 15.0)
        self.assertEqual(value["cli.self_s"], 1.0)
        self.assertEqual(value["trace.layer_cover_s"], 14.0)
        self.assertAlmostEqual(value["cli.worker_busy_frac"], 7.0 / (2 * 15.0))
        self.assertIn("lp.pivots", absent)           # facts need a real LP
        self.assertIn("sim.estimate_cost.calls", absent)

    def test_install_rebinds_imported_names_and_tolerates_missing_targets(self):
        lp = types.ModuleType("hierpoll.lp")

        def solve_lp(c):
            return c

        solve_lp.__module__ = "hierpoll.lp"
        lp.solve_lp = solve_lp
        user = types.ModuleType("hierpoll.cli")
        user.solve_lp = solve_lp                     # as after `from .lp import solve_lp`
        tr = tracer.Tracer()
        tr.install({"hierpoll.lp": lp, "hierpoll.cli": user})
        self.assertIsNot(user.solve_lp, solve_lp)
        tr.root(user.solve_lp, 3)
        names = [s[1] for s in tr.records()]
        self.assertEqual(names, ["lp.solve_lp", tracer.ROOT])
        _, absent, checks = tracer.summarize(tr.records(), tr.installed, threads=1)
        self.assertIn("pomdp.interpolation_data", checks["missing_targets"])
        self.assertIn("pomdp.interpolation_data.calls", absent)


if __name__ == "__main__":
    (HERE.parent / ".perfbench_work").mkdir(exist_ok=True)
    unittest.main()
