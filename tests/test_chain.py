"""The covered-count chain behind both exact PMFs, checked against the
inclusion-exclusion closed forms, exhaustive enumeration and the closed-form
mean on small random triples, and against the closed forms at the sizes the
benchmark runs, on both sides of k * m = n."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rovecover.combinatorics import binomial
from rovecover.enumeration import enumerate_multinomial_scheme, enumerate_subset_scheme
from rovecover.multinomial_scheme import multinomial_coverage_pmf, r_count
from rovecover.subset_scheme import (
    Params,
    coverage_pmf,
    mean_coverage,
    miss_ratio,
    q_count,
)

ENUMERATION_BUDGET = 20_000


def closed_form(scheme, params):
    n, m, k = params.n, params.m, params.k
    if scheme == "subset":
        lo, count, outcomes = m, q_count, binomial(n, m) ** k
    else:
        lo, count, outcomes = 1, r_count, n ** (m * k)
    return {
        t: Fraction(binomial(n, t) * count(k, m, t), outcomes)
        for t in range(lo, min(k * m, n) + 1)
    }


def chain_pmf(scheme, params):
    build = coverage_pmf if scheme == "subset" else multinomial_coverage_pmf
    return build(params)


@st.composite
def triples(draw, max_n=12, max_k=6):
    n = draw(st.integers(1, max_n))
    return Params(n, draw(st.integers(1, n)), draw(st.integers(1, max_k)))


schemes = st.sampled_from(["subset", "multinomial"])


@given(triples(), schemes)
def test_chain_equals_closed_form(params, scheme):
    assert dict(chain_pmf(scheme, params).pmf) == closed_form(scheme, params)


@given(triples(max_n=6, max_k=4), schemes)
def test_chain_equals_enumeration_within_budget(params, scheme):
    n, m, k = params.n, params.m, params.k
    outcomes = binomial(n, m) ** k if scheme == "subset" else n ** (m * k)
    assume(outcomes <= ENUMERATION_BUDGET)
    enumerate_scheme = (
        enumerate_subset_scheme if scheme == "subset" else enumerate_multinomial_scheme
    )
    oracle = enumerate_scheme(params, outcome_budget=ENUMERATION_BUDGET)
    assert oracle.to_distribution().pmf == chain_pmf(scheme, params).pmf


@given(triples(max_n=40, max_k=8), schemes)
def test_closed_form_mean_equals_pmf_mean(params, scheme):
    pmf_mean = chain_pmf(scheme, params).mean()
    if scheme == "subset":
        assert mean_coverage(params) == pmf_mean
    miss = miss_ratio(scheme, params.n, params.m)
    assert params.n * (1 - miss**params.k) == pmf_mean


@pytest.mark.parametrize(
    "n,m,k", [(120, 30, 6), (300, 40, 6), (300, 50, 6), (350, 5, 50)]
)
@pytest.mark.parametrize("scheme", ["subset", "multinomial"])
def test_chain_counts_at_benchmark_sizes(n, m, k, scheme):
    # k * m is above n, below n and equal to n; the counts C(n, t) * q_count
    # and C(n, t) * r_count = C(n, t) * t! * S(mk, t) are compared as integers.
    params = Params(n, m, k)
    if scheme == "subset":
        lo, count, outcomes = m, q_count, binomial(n, m) ** k
    else:
        lo, count, outcomes = 1, r_count, n ** (m * k)
    dist = chain_pmf(scheme, params)
    assert (dist.support_lo, dist.support_hi) == (lo, min(k * m, n))
    for t in range(lo, min(k * m, n) + 1):
        assert dist.pmf[t] * outcomes == binomial(n, t) * count(k, m, t), t
