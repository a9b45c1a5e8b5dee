"""Acceptance suite: one test per criterion, exact tolerances pinned.

Each criterion reports through the terminal summary hook in conftest.py,
one PASS/FAIL line per test.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

from rovecover.combinatorics import binomial, stirling2
from rovecover.enumeration import (
    crosscheck,
    enumerate_multinomial_scheme,
    enumerate_subset_scheme,
)
from rovecover.monte_carlo import (
    SimulationConfig,
    compare,
    simulate,
)
from rovecover.multinomial_scheme import (
    all_distinct_probability,
    multinomial_coverage_pmf,
    r_count,
    repetition_mean,
    theorem2_check,
)
from rovecover.planner import PlanQuery, min_agents_confident, min_agents_expected
from rovecover.subset_scheme import (
    Params,
    coverage_pmf,
    mean_coverage,
    nested_pmf_terms,
    tail_probability,
)
from test_cli import cli_env


def subset_grid(n_max, m_max, k_max):
    for n in range(1, n_max + 1):
        for m in range(1, min(n, m_max) + 1):
            for k in range(1, k_max + 1):
                yield Params(n, m, k)


def test_criterion_01_theorem1_oracle_equivalence():
    """coverage_pmf equals exhaustive enumeration exactly on n<=6, m<=3, k<=3."""
    started = time.perf_counter()
    for params in subset_grid(6, 3, 3):
        oracle = enumerate_subset_scheme(params).to_distribution()
        assert oracle.pmf == coverage_pmf(params).pmf, params
    assert time.perf_counter() - started < 30


def test_criterion_02_nested_vs_closed_form():
    """For k=4, n in 5..8, m in {1,2}: exact agreement, or the crosscheck
    report names every differing t (silent disagreement fails)."""
    started = time.perf_counter()
    for n in range(5, 9):
        for m in (1, 2):
            params = Params(n, m, 4)
            nested = nested_pmf_terms(params)
            closed = coverage_pmf(params)
            if nested == dict(closed.pmf):
                continue
            report = crosscheck(params)
            differing = {
                t for t in nested if nested[t] != closed.pmf[t]
            }
            named = {row.t for row in report.discrepancies}
            assert named == differing, (
                f"crosscheck must name every differing t for {params}: "
                f"expected {sorted(differing)}, got {sorted(named)}"
            )
    assert time.perf_counter() - started < 60


def test_criterion_03_stirling_identity():
    """r_count(k,m,t) == t! * stirling2(mk,t) for all 1 <= t <= mk <= 20."""
    started = time.perf_counter()
    for m in range(1, 21):
        for k in range(1, 20 // m + 1):
            for t in range(1, m * k + 1):
                assert r_count(k, m, t) == math.factorial(t) * stirling2(m * k, t), (
                    k, m, t,
                )
    assert time.perf_counter() - started < 10


def test_criterion_04_normalization_both_schemes():
    """Both PMFs sum to exactly 1 on n<=12, m<=4, k<=4."""
    for params in subset_grid(12, 4, 4):
        assert coverage_pmf(params).total() == 1, params
        assert multinomial_coverage_pmf(params).total() == 1, params


def test_criterion_05_mean_consistency():
    """PMF-summation mean equals n*(1-((n-m)/n)^k) on n<=30, m<=n, k<=6;
    mean(4,2,2) == 3."""
    assert mean_coverage(Params(4, 2, 2)) == 3
    for n in range(1, 31):
        for m in range(1, n + 1):
            for k in range(1, 7):
                closed = n * (1 - Fraction(n - m, n) ** k)
                assert mean_coverage(Params(n, m, k)) == closed, (n, m, k)
                assert coverage_pmf(Params(n, m, k)).mean() == closed, (n, m, k)


def test_criterion_06_conditional_equivalence():
    """Multinomial outcomes conditioned on per-stage distinct draws follow
    the subset-scheme PMF exactly, for n<=5, m<=2, k<=2."""
    for n in range(1, 6):
        for m in range(1, min(n, 2) + 1):
            for k in (1, 2):
                params = Params(n, m, k)
                oracle = enumerate_multinomial_scheme(params)
                assert (
                    oracle.conditional_distribution().pmf == coverage_pmf(params).pmf
                ), params


def test_criterion_07_theorem2_inequality():
    """P * P_subset(t) <= multinomial pmf(t) for every t on n<=8, m<=3, k<=3,
    with equality whenever m == 1."""
    for params in subset_grid(8, 3, 3):
        report = theorem2_check(params)
        assert report.all_hold, params
        if params.m == 1:
            assert all(row.lhs == row.rhs for row in report.rows), params


def test_criterion_08_markov_bound_soundness():
    """At (100,5,3), (50,4,2), (200,10,5) with 10^6 trials, seed 42: repetition
    frequency <= clamped Markov bound + 5 SE, and the exact all-distinct
    probability is within 5 SE of its empirical frequency."""
    trials = 1_000_000
    for n, m, k in [(100, 5, 3), (50, 4, 2), (200, 10, 5)]:
        params = Params(n, m, k)
        emp = simulate(
            SimulationConfig(
                params=params,
                trials=trials,
                seed=42,
                scheme_tag="multinomial",
            )
        )
        rep_freq = emp.repetition_event_count / trials
        distinct_exact = float(all_distinct_probability(params))
        rep_exact = 1 - distinct_exact
        sigma = math.sqrt(rep_exact * (1 - rep_exact) / trials)
        bound = min(Fraction(1), k * repetition_mean(n, m))
        assert rep_freq <= float(bound) + 5 * sigma, (n, m, k)
        distinct_freq = 1 - rep_freq
        assert abs(distinct_exact - distinct_freq) <= 5 * sigma, (n, m, k)


def test_criterion_09_monte_carlo_fidelity():
    """TV distance between a 10^6-trial run at (20,5,3), seed 42, and the
    exact PMF is <= 0.01; runtime under 60 s."""
    started = time.perf_counter()
    params = Params(20, 5, 3)
    emp = simulate(
        SimulationConfig(params=params, trials=1_000_000, seed=42, scheme_tag="subset")
    )
    report = compare(emp, coverage_pmf(params))
    elapsed = time.perf_counter() - started
    assert report.total_variation_distance <= 0.01
    assert elapsed < 60


def test_criterion_10_planner_minimality():
    """min_agents_confident(4,2,tau=4,p=1/6) == 2 with the predicate failing
    at k=1; min_agents_expected(4,2,alpha=3/4) == 2."""
    confident = min_agents_confident(
        PlanQuery(n=4, m=2, threshold=4, confidence=Fraction(1, 6))
    )
    assert confident.k == 2
    assert tail_probability(Params(4, 2, 1), 4) < Fraction(1, 6)
    assert tail_probability(Params(4, 2, 2), 4) >= Fraction(1, 6)

    expected = min_agents_expected(PlanQuery(n=4, m=2, expected_fraction=Fraction(3, 4)))
    assert expected.k == 2
    assert mean_coverage(Params(4, 2, 1)) < 3
    assert mean_coverage(Params(4, 2, 2)) >= 3


def test_criterion_11_simulate_determinism():
    """Identical simulate invocations produce byte-identical stdout, at
    workers=1 and workers=8; counts also agree across worker counts."""
    outputs = {}
    for workers in ("1", "8"):
        argv = [
            sys.executable, "-m", "rovecover", "simulate",
            "--scheme", "multinomial", "--n", "30", "--m", "3", "--k", "3",
            "--trials", "100000", "--seed", "42", "--workers", workers,
        ]
        first = subprocess.run(argv, capture_output=True, text=True, env=cli_env())
        second = subprocess.run(argv, capture_output=True, text=True, env=cli_env())
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout, f"workers={workers}"
        outputs[workers] = first.stdout

    import json

    counts_by_workers = {
        w: {e["t"]: e["count"] for e in json.loads(out)["result"]["counts"]}
        for w, out in outputs.items()
    }
    assert counts_by_workers["1"] == counts_by_workers["8"]
