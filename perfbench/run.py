"""Benchmark harness for the hierpoll CLI.

Usage, from the root of a hierpoll checkout:

    python3 perfbench/run.py --workload plan-em --seed 1 --seconds 55 --trace 0

Writes the workload's inputs from --seed (inputs.py), then starts one fresh
interpreter at a time (child.py), each running the workload's
`hierpoll.cli.main` calls, until --seconds have passed; every run's outputs
are checked (workloads.py). With --trace 0 it reports the end-to-end
metrics as medians over those runs; with --trace 1 it alternates untraced
and traced runs and reports the per-layer metrics of the traced ones
(tracer.py). The last line of stdout is the JSON result; the lines before
it give spreads, input hashes and the machine. Scratch files go to
.perfbench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5        # import-only processes per run, on top of one per workload run
CHILD_TIMEOUT_S = 150
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def machine(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cli_threads": threads, "thread_caps": THREAD_CAPS}


class Runner:
    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        **THREAD_CAPS)
        self.count = 0

    def spawn(self, argvs, trace: bool) -> tuple[dict | None, str]:
        """One fresh interpreter running `argvs`; (its report or None, stderr)."""
        self.count += 1
        tag = self.workdir / f"proc{self.count}"
        spec = {"calls": argvs, "trace": trace, "result": f"{tag}.result.json",
                "spans": f"{tag}.spans.json"}
        Path(f"{tag}.spec.json").write_text(json.dumps(spec))
        for old in self.workdir.glob("out-*"):
            old.unlink()
        with open(f"{tag}.stdout", "w") as out, open(f"{tag}.stderr", "w") as err:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), f"{tag}.spec.json"],
                    cwd=self.workdir, env=self.env, stdout=out, stderr=err,
                    timeout=CHILD_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
        stderr = Path(f"{tag}.stderr").read_text()
        if code != 0:
            sys.stderr.write(f"process {tag.name} ended with {code}:\n{stderr[-2000:]}")
            return None, stderr
        report = json.loads(Path(f"{tag}.result.json").read_text())
        report["setup_s"] = report["imported"] - spawned
        report["wall_s"] = sum(c["wall_s"] for c in report["calls"])
        if trace:
            report["trace"] = json.loads(Path(f"{tag}.spans.json").read_text())
        return report, stderr


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": len(values)}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="run once at the reference seed and store its outputs "
                         "as the reference for this workload")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hierpoll" / "cli.py").is_file():
        print("error: run from the root of a hierpoll checkout (src/hierpoll missing)",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    hashes = {}
    for part in workloads.WORKLOADS[args.workload]:
        hashes.update(inputs.write_inputs(part, args.seed, workdir))
    threads = min(2, os.cpu_count() or 1)
    argvs = workloads.calls(args.workload, args.seed, threads)
    runner = Runner(root, workdir)

    if args.write_reference:
        if args.seed != workloads.REFERENCE_SEED:
            print(f"error: the reference seed is {workloads.REFERENCE_SEED}", file=sys.stderr)
            return 2
        report, stderr = runner.spawn(argvs, trace=False)
        parts = workloads.WORKLOADS[args.workload]
        problems = workloads.check(args.workload, workdir,
                                   [c["rc"] for c in report["calls"]] if report else [None],
                                   stderr, dict.fromkeys(parts))
        if problems:
            print("error: " + "; ".join(problems), file=sys.stderr)
            return 1
        ref = (json.loads(workloads.REFERENCE_FILE.read_text())
               if workloads.REFERENCE_FILE.is_file() else {})
        ref.update((part, workloads.extract(part, workdir)) for part in parts)
        workloads.REFERENCE_FILE.write_text(json.dumps(ref, sort_keys=True) + "\n")
        return 0

    setup = []
    for _ in range(SETUP_SAMPLES):
        report, _ = runner.spawn([], trace=False)
        if report is None:
            print("error: the interpreter could not import hierpoll.cli", file=sys.stderr)
            return 2
        setup.append(report["setup_s"])

    references = workloads.load_references(args.workload, args.seed)
    plain, traced, failures = [], [], []
    attempted = 0
    start = time.monotonic()
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        report, stderr = runner.spawn(argvs, trace=trace)
        attempted += 1
        codes = [c["rc"] for c in report["calls"]] if report else [None]
        problems = workloads.check(args.workload, workdir, codes, stderr, references)
        if problems:
            failures.append(problems)
            sys.stderr.write(f"run {attempted} failed: {'; '.join(problems)}\n")
        if report is not None:
            (traced if trace else plain).append(report)
            setup.append(report["setup_s"])
        elapsed = time.monotonic() - start
        per_run_s = elapsed / attempted
        if elapsed + per_run_s > args.seconds and (not args.trace or traced):
            break
        if elapsed > args.seconds + 60:  # traced runs keep failing
            break

    info = {"workload": args.workload, "why": workloads.WHY[args.workload],
            "seed": args.seed, "runs": len(plain), "traced_runs": len(traced),
            "input_sha256": hashes, "machine": machine(threads)}
    metrics = {}
    if not plain or (args.trace and not traced):
        print("error: no run of this kind completed, so there is nothing to report",
              file=sys.stderr)
        return 1
    e2e = {"wall_s": [r["wall_s"] for r in plain],
           "cpu_s": [r["cpu_s"] for r in plain],
           "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
           "setup_s": setup}
    info["spread"] = {k: quartiles(v) for k, v in e2e.items()}
    if args.trace:
        per_run, absent, counts_repeat = [], set(), True
        for r in traced:
            m, a, checks = tracer.summarize(r["trace"]["spans"], r["trace"]["installed"],
                                            threads)
            per_run.append(m)
            absent.update(a)
            info.setdefault("trace_checks", []).append(checks)
        for name, (_, unit) in per_run[0].items():
            values = [m[name][0] for m in per_run]
            if unit == "count" and len(set(values)) > 1:
                counts_repeat = False
                sys.stderr.write(f"count {name} differs between traced runs: {values}\n")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(e2e["wall_s"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        info["absent"] = sorted(absent)
        info["counts_repeat"] = counts_repeat
    else:
        for name, values in e2e.items():
            metrics[name] = {"value": statistics.median(values), "unit": E2E_UNITS[name]}
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
