"""One benchmark run's workload process: a fresh interpreter that imports
what the workload needs and then drives a closed loop, one operation at a
time, until the run's seconds are up (the round in progress completes)
and at least ``workloads.RSS_ROUNDS`` rounds are done.

Each operation is ``rovecover.cli.main(argv)`` with stdout and stderr
captured, timed around that call alone. A traced run makes the same call
with the tracer's wrappers installed (see ``tracing.py``). The peak
resident set is read when the first ``RSS_ROUNDS`` rounds are done, so
it measures a fixed amount of work, however fast the loop runs. Every
operation's output goes to a JSON-lines file as soon as it returns, so
the outputs never add to this process's memory; the checker reads them
after this process has ended.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (after the path set-up above)


def _call_main(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # an internal fault: record it, keep the loop going
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def _write(sink, op, outcome, **extra):
    rc, stdout, stderr, elapsed = outcome
    sink.write(json.dumps({"kind": op["kind"], "argv": op["argv"], "rc": rc,
                           "seconds": elapsed, "stdout": stdout,
                           "stderr": stderr[-2000:], **extra}) + "\n")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _loop(generator, deadline, rss_rounds, run_op, sink):
    """Runs whole rounds; returns the round count and the peak RSS after
    the first ``rss_rounds`` rounds."""
    rounds = 0
    while True:
        for op in generator.round(rounds):
            _write(sink, op, run_op(op, rounds < rss_rounds), round=rounds)
        rounds += 1
        if rounds == rss_rounds:
            peak_kb = _peak_rss_kb()
        if rounds >= rss_rounds and time.perf_counter() >= deadline:
            return rounds, peak_kb


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--records", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    for module in workloads.READY_IMPORTS[args.workload]:
        importlib.import_module(module)
    main_fn = sys.modules["rovecover.cli"].main
    deadline = time.perf_counter() + args.seconds
    generator = workloads.Generator(args.workload, args.seed)
    rss_rounds = workloads.RSS_ROUNDS[args.workload]
    with open(args.records, "w") as sink:
        if args.spans is None:
            rounds, peak_kb = _loop(generator, deadline, rss_rounds,
                                    lambda op, _: _call_main(main_fn, op["argv"]), sink)
        else:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()

            def traced(op, primary, rss_window):
                with tracer.operation(op, primary, rss_window):
                    return _call_main(main_fn, op["argv"])

            rounds, peak_kb = _loop(generator, deadline, rss_rounds,
                                    lambda op, window: traced(op, True, window), sink)
            # Layers this workload never calls are measured on one round of
            # each other workload, after the timed loop.
            for other in workloads.WORKLOADS:
                if other != args.workload:
                    for op in workloads.Generator(other, args.seed).round(0):
                        _write(sink, op, traced(op, False, True), fill=True)
            tracer.write(args.spans)
    print(json.dumps({"rounds": rounds, "peak_rss_kb": peak_kb,
                      "reused_cache_keys": generator.claims.reused}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
