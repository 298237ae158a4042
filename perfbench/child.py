"""One benchmark process: import the CLI, run its calls, report what it cost.

Usage: python3 child.py SPEC.json

SPEC holds {"calls": [argv, ...], "trace": bool, "result": path,
"spans": path}. The process records the monotonic time at which
`import hierpoll.cli` returned (the parent subtracts its spawn time), the
wall time of each `cli.main(argv)` call and its return code, and its own
CPU time and peak RSS. With "trace" it wraps the layers first (tracer.py)
and writes the spans at exit. Nothing but stdlib runs before the import.
"""
import json
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import hierpoll.cli as cli
    imported = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in spec["calls"]:
        start = time.perf_counter()
        try:
            rc = tracer.root(cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
        calls.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump({"imported": imported, "calls": calls,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
