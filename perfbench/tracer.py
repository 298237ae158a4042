"""Outside-in span tracer for the hierpoll layers.

`Tracer.install()` wraps the public functions of every loaded
`hierpoll.<layer>` module (and a few public methods) and rebinds each
wrapper in every loaded hierpoll module that holds the original, so calls
made through `from .pomdp import value_iteration` style imports are seen
too. Nothing under `src/` is edited. Span stacks are kept per thread; each
span records its name, start, end, parent span, run id, thread and self
time. Spans stay in memory until `dump()`.

`summarize()` turns the span records of one traced process into the
per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import time

PACKAGE = "hierpoll"
ROOT = "cli.main"
# public methods wrapped on their classes: (module, class, method) -> span name
METHODS = {
    ("pomdp", "FreudenthalGrid", "__init__"): "pomdp.FreudenthalGrid",
    ("pomdp", "FreudenthalGrid", "interpolation_data"): "pomdp.interpolation_data",
    ("sim", "GridPolicy", "actions"): "sim.GridPolicy.actions",
    ("sim", "MyopicPolicy", "actions"): "sim.MyopicPolicy.actions",
}
# targets the named metrics read; one a refactor removes is reported missing
REQUIRED = (
    "lp.solve_lp", "channels.lecam_deficiency", "infotheory.shannon_capacity",
    "infotheory.channel_divergences", "infotheory.renyi_divergence",
    "pomdp.value_iteration", "pomdp.verify_myopic_bound", "pomdp.cost_matrix",
    "sim.estimate_cost", "sim.ctilde_values", "estimate.load_observations",
    "estimate.em_fit", "estimate.project_ultrametric", "stochastic.is_ultrametric",
    "presets.example2_parts", "stochastic.eval_matrix_polynomial",
    "fileio.load_channel", "fileio.render_table", "fileio.write_output",
) + tuple(METHODS.values())
LAYERS = ("lp", "channels", "infotheory", "pomdp", "sim", "estimate",
          "stochastic", "presets", "fileio")


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return shape[0] if len(shape) > 1 else 1


def _lp_facts(args, result):
    A_ub, b_ub, A_eq = args.get("A_ub"), args.get("b_ub"), args.get("A_eq")
    n = len(args["c"])
    m_ub = 0 if A_ub is None else _rows(A_ub)
    m_eq = 0 if A_eq is None else _rows(A_eq)
    ub_ok = 0 if b_ub is None else sum(1 for v in b_ub if v >= 0)
    m = m_ub + m_eq
    # dense two-phase tableau: slacks, artificials for rows without a basic slack
    cols = n + m_ub + (m - ub_ok) + 1
    return {"pivots": int(result.iterations), "tableau_bytes": 8 * (m + 1) * cols}


# span name -> facts(bound arguments, result) -> dict of numbers / labels
FACTS = {
    "lp.solve_lp": _lp_facts,
    "pomdp.value_iteration": lambda a, r: {"sweeps": int(r.sweeps)},
    "pomdp.interpolation_data": lambda a, r: {"beliefs": int(r[0].shape[0])},
    "sim.estimate_cost": lambda a, r: {
        "steps": int(a["runs"]) * int(a["horizon"]),
        "policy": type(a["policy"]).__name__},
    "estimate.em_fit": lambda a, r: {"iterations": int(r.iterations),
                                     "symbols": int(a["data"].n_symbols)},
    "fileio.write_output": lambda a, r: {"bytes": len(a["text"].encode())},
}


class Tracer:
    """Records spans from wrapped functions; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.installed: set[str] = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._run = 0
        self._root_sid = None
        self._main = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, sid):
        frame = [sid, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, name, frame, facts=None):
        end = self.clock()
        stack = self._stack()
        stack.pop()
        dur = end - frame[1]
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][0]
        else:
            parent = self._root_sid
        self.spans.append((frame[0], name, frame[1], end, parent, self._run,
                           threading.get_ident(), dur - frame[2], facts))

    def root(self, fn, *args):
        """Run fn(*args) as one traced run under a `cli.main` root span."""
        self._run += 1
        sid = next(self._ids)
        self._root_sid = sid
        frame = self._enter(sid)
        try:
            return fn(*args)
        finally:
            self._stack().pop()
            end = self.clock()
            self.spans.append((sid, ROOT, frame[1], end, None, self._run,
                               threading.get_ident(), end - frame[1] - frame[2], None))
            self._root_sid = None

    def wrap(self, name, fn):
        facts_of = FACTS.get(name)
        signature = inspect.signature(fn) if facts_of else None
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(next(tracer._ids))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, frame)
                raise
            facts = None
            if facts_of is not None:
                try:
                    facts = facts_of(signature.bind(*args, **kwargs).arguments, result)
                except Exception:  # a changed signature leaves the facts absent
                    facts = None
            tracer._exit(name, frame, facts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self.installed.add(name)
        return traced

    def install(self, modules=None) -> None:
        """Wrap public functions of the loaded hierpoll layer modules."""
        if modules is None:
            modules = {k: m for k, m in sys.modules.items()
                       if k == PACKAGE or k.startswith(PACKAGE + ".")}
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                setattr(cls, meth, self.wrap(name, fn))

    def records(self) -> list[list]:
        """Span records in the form `summarize` reads (thread -> is main)."""
        return [list(s[:6]) + [s[6] == self._main] + list(s[7:]) for s in self.spans]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"installed": sorted(self.installed),
                       "spans": self.records()}, fh)


# ------------------------------------------------------------------ summary
def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, installed, threads: int) -> tuple[dict, list, dict]:
    """Per-layer metrics from span records [sid, name, start, end, parent,
    run, is_main_thread, self_s, facts].

    Returns (metrics {name: (value, unit)}, absent metric names, checks).
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    roots = {s[0]: s for s in by_name.get(ROOT, [])}
    names = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    wall = sum(s[3] - s[2] for s in roots.values())

    top = [s for s in spans if s[1] != ROOT and s[4] in roots]
    cover = 0.0
    for sid, r in roots.items():
        cover += _union_length((max(s[2], r[2]), min(s[3], r[3]))
                               for s in top if s[4] == sid and s[3] > r[2])
    pool_busy = sum(s[3] - s[2] for s in top if not s[6])

    metrics: dict[str, tuple] = {}
    absent: list[str] = []

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(s[7] for s in by_name.get(name, []))

    def incl(name):
        return [s[3] - s[2] for s in by_name.get(name, [])]

    def facts(name, key):
        return [s[8][key] for s in by_name.get(name, []) if s[8] and key in s[8]]

    def put(metric, value, unit, present):
        metrics[metric] = (float(value) if present else 0.0, unit)
        if not present:
            absent.append(metric)

    def put_calls(name):
        put(f"{name}.calls", calls(name), "count", calls(name) > 0)

    def put_self(name):
        put(f"{name}.self_s", self_s(name), "s", calls(name) > 0)

    def ratio(metric, num, den, scale, unit):
        put(metric, num / den * scale if den else 0.0, unit, den > 0)

    put_calls("lp.solve_lp")
    put_self("lp.solve_lp")
    pivots = facts("lp.solve_lp", "pivots")
    put("lp.pivots", sum(pivots), "count", bool(pivots))
    tab = facts("lp.solve_lp", "tableau_bytes")
    put("lp.tableau_mb", max(tab, default=0) / 1e6, "MB-computed", bool(tab))

    put_calls("channels.lecam_deficiency")
    put_self("channels.lecam_deficiency")
    lat = incl("channels.lecam_deficiency")
    put("channels.lecam_deficiency.p50_ms",
        statistics.median(lat) * 1e3 if lat else 0.0, "ms", bool(lat))

    put_calls("infotheory.shannon_capacity")
    put_self("infotheory.shannon_capacity")
    put_self("infotheory.channel_divergences")
    put_calls("infotheory.renyi_divergence")

    put_calls("pomdp.value_iteration")
    put_self("pomdp.value_iteration")
    sweeps = facts("pomdp.value_iteration", "sweeps")
    put("pomdp.vi_sweeps", sum(sweeps), "count", bool(sweeps))
    ratio("pomdp.sweep_ms", self_s("pomdp.value_iteration"), sum(sweeps), 1e3, "ms")
    grid = incl("pomdp.FreudenthalGrid")
    put("pomdp.grid_build_s", sum(grid), "s", bool(grid))
    put_calls("pomdp.interpolation_data")
    put_self("pomdp.interpolation_data")
    beliefs = sum(facts("pomdp.interpolation_data", "beliefs"))
    put("pomdp.interp_beliefs", beliefs, "count", beliefs > 0)
    ratio("pomdp.interp_ns_per_belief", self_s("pomdp.interpolation_data"),
          beliefs, 1e9, "ns")
    put_self("pomdp.verify_myopic_bound")
    put_calls("pomdp.cost_matrix")
    put_self("pomdp.cost_matrix")

    put_calls("sim.estimate_cost")
    put_self("sim.estimate_cost")
    runs = [s for s in by_name.get("sim.estimate_cost", []) if s[8]]
    put("sim.rollout_steps", sum(s[8]["steps"] for s in runs), "count", bool(runs))
    for label, policy in (("myopic", "MyopicPolicy"), ("grid", "GridPolicy")):
        mine = [s for s in runs if s[8]["policy"] == policy]
        ratio(f"sim.us_per_run_step.{label}", sum(s[3] - s[2] for s in mine),
              sum(s[8]["steps"] for s in mine), 1e6, "us")
    put_self("sim.GridPolicy.actions")
    put_self("sim.MyopicPolicy.actions")
    put_self("sim.ctilde_values")

    put_self("estimate.load_observations")
    put_self("estimate.em_fit")
    its = facts("estimate.em_fit", "iterations")
    put("estimate.em_iterations", sum(its), "count", bool(its))
    work = sum(i * n for i, n in zip(its, facts("estimate.em_fit", "symbols")))
    ratio("estimate.us_per_symbol_iter", sum(incl("estimate.em_fit")), work, 1e6, "us")
    put_calls("estimate.project_ultrametric")
    put_self("estimate.project_ultrametric")

    def inside_em(sid):
        while sid is not None:
            if names.get(sid) == "estimate.em_fit":
                return True
            sid = parent_of.get(sid)
        return False

    guards = sum(1 for s in by_name.get("stochastic.is_ultrametric", [])
                 if inside_em(s[4]))
    put("estimate.guard_checks", guards, "count", guards > 0)

    put_self("presets.example2_parts")
    put_self("stochastic.eval_matrix_polynomial")
    put_self("fileio.load_channel")
    put_self("fileio.render_table")
    out = facts("fileio.write_output", "bytes")
    put("fileio.bytes_out", sum(out), "bytes", bool(out))

    layer_self = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[1].split(".", 1)[0] == layer]
        layer_self[layer] = sum(s[7] for s in mine)
        put(f"{layer}.self_s", layer_self[layer], "s", bool(mine))

    put("cli.self_s", wall - cover, "s", bool(roots))
    ratio("cli.worker_busy_frac", pool_busy, threads * wall, 1.0, "frac")
    put("trace.wall_s", wall, "s", bool(roots))
    put("trace.layer_cover_s", cover, "s", bool(roots))

    checks = {"top_level_s": sum(s[3] - s[2] for s in top),
              "layer_self_sum_s": sum(layer_self.values()),
              "missing_targets": [t for t in REQUIRED if t not in installed]}
    return metrics, absent, checks
