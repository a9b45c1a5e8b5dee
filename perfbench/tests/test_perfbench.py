"""Tests of the benchmark itself: its checker, its operation lists, its
traced run and shortened end-to-end runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import oracle
import tracing
import workloads
from rovecover import cli

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def checked(argv):
    rc, stdout = run_main(argv)
    assert rc == 0
    oracle.Checker().check(argv, stdout)
    return json.loads(stdout)


def rejects(argv, envelope):
    with pytest.raises(oracle.CheckError):
        oracle.Checker().check(argv, json.dumps(envelope))


# The covered-count chain against brute force --------------------------------


@pytest.mark.parametrize("n,m,k", [(1, 1, 3), (4, 2, 3), (5, 3, 2), (5, 1, 4), (6, 2, 3), (3, 3, 2)])
def test_subset_chain_matches_brute_force(n, m, k):
    subsets = [set(c) for c in itertools.combinations(range(n), m)]
    brute = Counter(len(set().union(*pick)) for pick in itertools.product(subsets, repeat=k))
    assert oracle.chain_counts("subset", n, m, k) == dict(brute)


@pytest.mark.parametrize("n,m,k", [(1, 2, 2), (3, 2, 2), (4, 1, 5), (4, 3, 2), (5, 2, 3)])
def test_multinomial_chain_matches_brute_force(n, m, k):
    brute = Counter(len(set(seq)) for seq in itertools.product(range(n), repeat=m * k))
    assert oracle.chain_counts("multinomial", n, m, k) == dict(brute)


def test_chain_sums_to_outcome_total():
    for scheme in ("subset", "multinomial"):
        counts = oracle.chain_counts(scheme, 40, 6, 9)
        assert sum(counts.values()) == oracle.outcome_total(scheme, 40, 6, 9)


def test_chi2_sf_matches_known_quantiles():
    assert math.isclose(oracle.chi2_sf(3.841458820694124, 1), 0.05, rel_tol=1e-9)
    assert math.isclose(oracle.chi2_sf(18.307038053275146, 10), 0.05, rel_tol=1e-9)
    assert math.isclose(oracle.chi2_sf(2.0, 2), math.exp(-1.0), rel_tol=1e-12)


# The checker accepts the program's outputs and rejects wrong ones -----------


def test_checker_accepts_every_command():
    for argv in (
        ["dist", "--n", "30", "--m", "4", "--k", "6"],
        ["dist", "--scheme", "multinomial", "--n", "30", "--m", "4", "--k", "6", "--t", "17"],
        ["mean", "--n", "31", "--m", "4", "--k", "6"],
        ["tail", "--n", "32", "--m", "4", "--k", "6", "--tau", "19"],
        ["bounds", "--n", "100", "--m", "20", "--k", "3", "--epsilon", "2"],
        ["theorem2", "--n", "12", "--m", "3", "--k", "4"],
        ["stirling", "--N", "40", "--K", "7"],
        ["crosscheck", "--n", "5", "--m", "2", "--k", "4"],
        ["enumerate", "--scheme", "multinomial", "--n", "4", "--m", "2", "--k", "2"],
        ["plan", "--n", "40", "--m", "5", "--tau", "30", "--p", "1/2"],
        ["plan", "--scheme", "multinomial", "--n", "50", "--m", "3", "--alpha", "9/10"],
        ["compare", "--n", "40", "--m", "4", "--k", "5", "--trials", "8192", "--seed", "3"],
    ):
        checked(argv)


def test_checker_rejects_a_perturbed_pmf():
    argv = ["dist", "--scheme", "multinomial", "--n", "20", "--m", "3", "--k", "4"]
    envelope = checked(argv)
    bad = copy.deepcopy(envelope)
    row = bad["result"]["pmf"][3]
    row["num"] = str(int(row["num"]) + 1)
    row["approx"] = int(row["num"]) / int(row["den"])
    rejects(argv, bad)
    bad = copy.deepcopy(envelope)
    del bad["result"]["pmf"][-1]
    rejects(argv, bad)


@pytest.mark.parametrize("argv", [
    ["plan", "--n", "30", "--m", "3", "--tau", "24", "--p", "3/4"],
    ["plan", "--scheme", "multinomial", "--n", "200", "--m", "7", "--alpha", "4/5"],
])
def test_checker_rejects_an_off_by_one_plan(argv):
    envelope = checked(argv)
    for step in (-1, 1):
        bad = copy.deepcopy(envelope)
        bad["result"]["k"] += step
        rejects(argv, bad)


def test_checker_rejects_worker_dependent_counts():
    base = ["simulate", "--n", "300", "--m", "5", "--k", "4", "--trials", "8192", "--seed", "9"]
    one, two = base + ["--workers", "1"], base + ["--workers", "2"]
    checker = oracle.Checker()
    checker.check(one, run_main(one)[1])
    envelope = json.loads(run_main(two)[1])
    counts = envelope["result"]["counts"]
    # Move one trial between two t values: still a valid-looking table.
    counts[-1]["count"] += 1
    counts[-2]["count"] -= 1
    for row in counts[-2:]:
        row["frequency"] = row["count"] / 8192
    with pytest.raises(oracle.CheckError, match="worker count"):
        checker.check(two, json.dumps(envelope))


def test_checker_rejects_a_biased_sample():
    argv = ["simulate", "--n", "50", "--m", "5", "--k", "4", "--trials", "16384", "--seed", "1"]
    envelope = json.loads(run_main(argv)[1])
    counts = envelope["result"]["counts"]
    # Shift 3 % of the trials by one node: a sampler that is slightly off.
    moved = 16384 * 3 // 100
    top = max(range(len(counts) - 1), key=lambda i: counts[i]["count"])
    counts[top]["count"] -= moved
    counts[top + 1]["count"] += moved
    for row in counts:
        row["frequency"] = row["count"] / 16384
    rejects(argv, envelope)


def test_checker_checks_the_overflowing_stirling_number_once_it_prints():
    big_n, big_k = workloads.OVERFLOW_STIRLING_N, workloads.OVERFLOW_STIRLING_K
    argv = ["stirling", "--N", str(big_n), "--K", str(big_k)]
    rc, _ = run_main(argv)
    assert rc == 2  # today: CPython's int->str limit, reported as bad input
    value = oracle.stirling2_explicit(big_n, big_k)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(value)) > 4300
        texts = [json.dumps({"command": "stirling", "params_echo": {"N": big_n, "K": big_k},
                             "result": {"N": big_n, "K": big_k, "value": str(v)},
                             "format_version": "1.0.0"}) for v in (value, value + 1)]
    finally:
        sys.set_int_max_str_digits(limit)
    checker = oracle.Checker()  # lifts the limit only while it checks
    checker.check(argv, texts[0])
    with pytest.raises(oracle.CheckError):
        checker.check(argv, texts[1])
    assert sys.get_int_max_str_digits() == limit


def test_only_the_known_overflow_may_fail(tmp_path):
    import run

    limit_error = ("error: Exceeds the limit (4300 digits) for integer string conversion; "
                   "use sys.set_int_max_str_digits() to increase the limit\n")
    records = [
        (workloads.OVERFLOW_KIND, ["stirling", "--N", "3000", "--K", "40"], 2, limit_error),
        (workloads.OVERFLOW_KIND, ["stirling", "--N", "3001", "--K", "40"], 2, "error: bad\n"),
        ("mean", ["mean", "--n", "30", "--m", "3", "--k", "4"], 2, limit_error),
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps({"kind": kind, "argv": argv, "rc": rc, "seconds": 0.01,
                                        "stdout": "", "stderr": stderr}) + "\n"
                            for kind, argv, rc, stderr in records))
    attempted, failed, seconds, errors = run._check(str(path))
    assert attempted == 3 and seconds == [0.01] * 3
    assert failed == {workloads.OVERFLOW_KIND: 2, "mean": 1}
    assert len(errors) == 2
    assert "3001" in errors[0] and errors[1].startswith("mean")


# Operation lists ------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_lists_are_seeded_and_never_repeat(workload):
    def ops(seed, rounds):
        gen = workloads.Generator(workload, seed)
        return [[(op["kind"], tuple(op["argv"])) for op in gen.round(r)] for r in range(rounds)]

    first = ops(5, 60)
    assert first == ops(5, 60)
    assert first != ops(6, 60)
    flat = [argv for rnd in first for _, argv in rnd]
    assert len(set(flat)) == len(flat)
    kinds = [[kind for kind, _ in rnd] for rnd in first]
    assert all(k == kinds[0] for k in kinds)


def test_mc_sample_rounds_cover_both_samplers_and_a_two_worker_pair():
    gen = workloads.Generator("mc-sample", 3)
    for r in range(40):
        ops = {op["kind"]: op["argv"] for op in gen.round(r)}
        value = {kind: dict(zip(argv[1::2], argv[2::2])) for kind, argv in ops.items()}
        small = int(value["simulate_subset_small_n"]["--n"])
        assert workloads.SMALL_N_RANGE[0] <= small <= workloads.SMALL_N_RANGE[1] <= 2048
        assert 4096 * small * 8 > 32 * 2**20  # a mapped, not a heap, array per block
        assert int(value["simulate_subset_large_n"]["--n"]) > 2048
        one, two = value["simulate_multinomial_pair"], value["simulate_multinomial_pair_w2"]
        assert (one.pop("--workers"), two.pop("--workers")) == ("1", "2")
        assert one == two


def test_only_the_overflow_operation_depends_on_the_round_alone():
    a, b = workloads.Generator("exact-queries", 1), workloads.Generator("exact-queries", 2)
    for r in range(3):
        ra = {op["kind"]: op["argv"] for op in a.round(r)}
        rb = {op["kind"]: op["argv"] for op in b.round(r)}
        assert ra["stirling_overflow"] == rb["stirling_overflow"]


# Traced run -------------------------------------------------------------------


def test_traced_calls_print_what_untraced_calls_print_and_record_spans():
    ops = [op for workload in workloads.WORKLOADS
           for op in workloads.Generator(workload, 11).round(0)]
    untraced = [run_main(op["argv"]) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()  # for the rest of this process
    for op, expected in zip(ops, untraced):
        with tracer.operation(op, primary=True, rss_window=True):
            assert run_main(op["argv"]) == expected
    names = Counter(span[3] for span in tracer.spans)
    assert names["op"] == len(ops)
    assert names["cli.handler"] == len(ops)
    assert names["cli.parse"] == 2 * len(ops)  # build_parser and parse_args
    assert names["cli.emit"] == len(ops) - 1  # not the overflowing stirling
    assert {"serialize", "subset_scheme.coverage_pmf", "planner.min_agents_confident",
            "monte_carlo.simulate", "enumeration.crosscheck"} <= set(names)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["planner.pmfs_evaluated"] >= 1
    assert metrics["monte_carlo.subset_large_n_trials_per_s"] > 0
    assert metrics["combinatorics.result_bits"] > 0
    assert metrics["cli.emit_bytes"] > 0


# End to end -------------------------------------------------------------------


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def spec_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_shortened_run(workload):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == spec_names("end_to_end")
    per_round = len(workloads.Generator(workload, 2).round(0))
    assert result["attempted"] % per_round == 0
    known = 1 if workload == "exact-queries" else 0
    assert result["failed"] == known * result["attempted"] // per_round


def test_shortened_traced_run():
    proc = bench("--workload", "mc-sample", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == spec_names("per_layer")
    assert result["metrics"]["planner.min_agents_confident_ms"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "plan-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
