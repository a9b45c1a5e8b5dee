"""rovecover benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact-queries --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed). A run:

1. times cold starts: fresh interpreters that import what the workload
   needs, half before and half after the timed loop; ``setup_s`` is the
   median of the CPU time each one spent until it was ready;
2. starts ``worker.py`` in a fresh interpreter, which drives the closed
   loop for ``--seconds`` and writes every output to a file;
3. checks every output with ``oracle.py``, which does not use rovecover;
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics from the
   traced run (``--trace 1``).

The result also goes to ``perfbench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

COLD_STARTS = 16  # setup_s samples per run, half before and half after the loop
IMPORT_PROBES = 7  # per import figure of a traced run
FRESH_TIMEOUT_S = 60  # one cold start or import probe
WORKER_GRACE_S = 120  # the worker's set-up, last round and output, beyond --seconds


def _env() -> dict:
    # The program reads a global budget from this variable; the benchmark
    # fixes every input itself.
    env = dict(os.environ)
    env.pop("ROVE_COVER_BUDGET", None)
    return env


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; returns the line it printed."""
    prologue = f"import sys, time; sys.path.insert(0, {SRC!r}); "
    proc = subprocess.run([sys.executable, "-c", prologue + code], cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE, text=True, timeout=FRESH_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"fresh interpreter failed ({proc.returncode}): {code}")
    return proc.stdout.strip()


def _cold_start(workload: str) -> float:
    """CPU seconds (user + system, every thread) a fresh interpreter spends
    from exec until it has imported what the workload needs. Unlike wall
    time, this leaves out time the machine gives to other tenants."""
    imports = "; ".join(f"import {m}" for m in workloads.READY_IMPORTS[workload])
    return float(_fresh(f"{imports}; print(time.process_time())"))


def _import_probes() -> dict[str, float]:
    timed = "t = time.perf_counter(); import {0}; " \
            "print(time.perf_counter() - t, 'numpy' in sys.modules)"
    cli, numpy, loads_numpy = [], [], False
    for _ in range(IMPORT_PROBES):
        seconds, flag = _fresh(timed.format("rovecover.cli")).split()
        cli.append(float(seconds))
        loads_numpy = flag == "True"
        numpy.append(float(_fresh(timed.format("numpy")).split()[0]))
    return {"cli.import_ms": 1e3 * statistics.median(cli),
            "cli.import_numpy_ms": 1e3 * statistics.median(numpy) if loads_numpy else 0.0}


def _run_worker(args, records: str, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--records", records]
    if spans:
        cmd += ["--spans", spans]
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("the workload process overran its time")
    if proc.returncode != 0:
        raise RuntimeError(f"the workload process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _known_failure(rec: dict) -> bool:
    """The overflowing Stirling query, failing as it does today: exit 2 with
    CPython's int->str limit error."""
    return (rec["kind"] == workloads.OVERFLOW_KIND and rec["rc"] == 2
            and "set_int_max_str_digits" in rec["stderr"])


def _check(records: str):
    """attempted, failed per kind, every operation's seconds, and check
    errors. An operation that fails is an error too, unless it is the known
    failure. Operations of a traced run's fill round are checked but not
    counted."""
    checker = oracle.Checker()
    attempted = 0
    failed: dict[str, int] = {}
    seconds, errors = [], []
    with open(records) as f:
        for line in f:
            rec = json.loads(line)
            fill = rec.get("fill", False)
            if not fill:
                attempted += 1
                seconds.append(rec["seconds"])
            if rec["rc"] != 0:
                if not fill:
                    failed[rec["kind"]] = failed.get(rec["kind"], 0) + 1
                if not _known_failure(rec):
                    errors.append(f"{' '.join(rec['argv'])}: exit {rec['rc']}: "
                                  f"{rec['stderr'].strip()[-300:]}")
                continue
            try:
                checker.check(rec["argv"], rec["stdout"])
            except (oracle.CheckError, LookupError, TypeError, ValueError) as exc:
                errors.append(f"{' '.join(rec['argv'])}: {type(exc).__name__}: {exc}")
    return attempted, failed, seconds, errors


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rovecover", "cli.py")):
        print(f"error: no rovecover source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = os.path.join(OUT, f"records-{tag}.jsonl")
    spans = os.path.join(OUT, f"spans-{tag}.json") if args.trace else None

    _cold_start(args.workload)  # writes the bytecode caches; not a sample
    starts: list[float] = []
    if args.trace:
        metrics = _import_probes()
    else:
        starts += [_cold_start(args.workload) for _ in range(COLD_STARTS // 2)]
    summary = _run_worker(args, records, spans)
    if not args.trace:
        starts += [_cold_start(args.workload) for _ in range(COLD_STARTS - len(starts))]
    attempted, failed, seconds, errors = _check(records)
    os.remove(records)

    if args.trace:
        with open(spans) as f:
            metrics.update(tracing.layer_metrics(json.load(f)["spans"]))
    else:
        metrics = {
            "setup_s": statistics.median(starts),
            "ops_per_s": len(seconds) / sum(seconds),
            "latency_p50_ms": 1e3 * _percentile(seconds, 0.50),
            "latency_p90_ms": 1e3 * _percentile(seconds, 0.90),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if failed:
        print(f"failed operations by kind: {json.dumps(failed)}", file=sys.stderr)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(dict(result, failed_by_kind=failed, check_errors=errors, **summary),
                  f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
