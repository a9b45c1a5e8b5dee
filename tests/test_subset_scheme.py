import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rovecover.combinatorics import binomial
from rovecover.enumeration import enumerate_multinomial_scheme, enumerate_subset_scheme
from rovecover.errors import BudgetExceeded
from rovecover.multinomial_scheme import multinomial_coverage_pmf
from rovecover.subset_scheme import (
    CoverageDistribution,
    Params,
    coverage_pmf,
    coverage_pmf_nested,
    make_distribution,
    mean_coverage,
    nested_pmf_terms,
    nested_term_count,
    q_count,
    tail_probability,
)


def brute_force_union_counts(n, m, k):
    """Independent oracle: classify all C(n,m)^k ordered subset tuples by
    union size."""
    subsets = list(itertools.combinations(range(n), m))
    counts = {}
    for chosen in itertools.product(subsets, repeat=k):
        t = len(set().union(*chosen))
        counts[t] = counts.get(t, 0) + 1
    return counts, len(subsets) ** k


def brute_force_pmf(n, m, k):
    counts, total = brute_force_union_counts(n, m, k)
    return {t: Fraction(c, total) for t, c in counts.items()}


class TestParams:
    def test_valid(self):
        Params(5, 3, 2)

    @pytest.mark.parametrize("n,m,k", [(0, 1, 1), (3, 0, 1), (3, 4, 1), (3, 2, 0)])
    def test_invalid(self, n, m, k):
        with pytest.raises(ValueError):
            Params(n, m, k)


class TestQCount:
    def test_single_row(self):
        for m in range(1, 6):
            assert q_count(1, m, m) == 1

    def test_pair_oracle_on_3_set(self):
        # Oracle: 9 ordered pairs of 2-subsets of {0,1,2}; count unions of size 3.
        pairs = list(
            itertools.product(itertools.combinations(range(3), 2), repeat=2)
        )
        assert len(pairs) == 9
        onto = sum(1 for a, b in pairs if len(set(a) | set(b)) == 3)
        assert onto == 6
        assert q_count(2, 2, 3) == 6

    def test_pair_oracle_on_4_set(self):
        pairs = itertools.product(itertools.combinations(range(4), 2), repeat=2)
        onto = sum(1 for a, b in pairs if len(set(a) | set(b)) == 4)
        assert onto == 6
        assert q_count(2, 2, 4) == 6

    def test_zero_outside_support(self):
        assert q_count(2, 3, 2) == 0
        assert q_count(2, 2, 5) == 0

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6))
    def test_matches_matrix_enumeration(self, k, m, t):
        rows = list(itertools.combinations(range(t), m))
        expected = sum(
            1
            for rs in itertools.product(rows, repeat=k)
            if len(set().union(*rs)) == t
        )
        assert q_count(k, m, t) == expected

    def test_normalization_identity(self):
        # sum_t C(n,t) Q(k,m,t) counts every arrangement exactly once.
        for n in range(1, 13):
            for m in range(1, min(n, 12) + 1):
                for k in range(1, 5):
                    total = sum(
                        binomial(n, t) * q_count(k, m, t)
                        for t in range(m, min(k * m, n) + 1)
                    )
                    assert total == binomial(n, m) ** k, (n, m, k)


class TestCoveragePmf:
    def test_single_agent_point_mass(self):
        for n, m in [(5, 2), (7, 7), (3, 1)]:
            dist = coverage_pmf(Params(n, m, 1))
            assert dist.pmf == {m: Fraction(1)}

    def test_enumerated_4_2_2(self):
        # Oracle first: 36 ordered pairs of 2-subsets of a 4-set.
        assert brute_force_pmf(4, 2, 2) == {
            2: Fraction(1, 6),
            3: Fraction(2, 3),
            4: Fraction(1, 6),
        }
        dist = coverage_pmf(Params(4, 2, 2))
        assert dict(dist.pmf) == {
            2: Fraction(1, 6),
            3: Fraction(2, 3),
            4: Fraction(1, 6),
        }

    def test_matches_brute_force_grid(self):
        for n in range(1, 7):
            for m in range(1, min(n, 3) + 1):
                for k in range(1, 4):
                    expected = brute_force_pmf(n, m, k)
                    dist = coverage_pmf(Params(n, m, k))
                    got = {t: p for t, p in dist.pmf.items() if p}
                    assert got == expected, (n, m, k)

    def test_sums_to_one_exactly(self):
        for n in (1, 4, 9, 12):
            for m in range(1, min(n, 4) + 1):
                for k in range(1, 5):
                    assert coverage_pmf(Params(n, m, k)).total() == 1

    def test_full_visit_degenerate(self):
        # m = n pins the union at n for any k.
        for k in (1, 2, 5):
            dist = coverage_pmf(Params(6, 6, k))
            assert dist.pmf == {6: Fraction(1)}

    def test_scheme_tag_and_support(self):
        dist = coverage_pmf(Params(9, 2, 3))
        assert dist.scheme_tag == "subset"
        assert dist.support_lo == 2
        assert dist.support_hi == 6

    def test_perturbed_count_rejected(self):
        # The counts of (4, 2, 2) out of 36 outcomes: 6, 24, 6.
        params = Params(4, 2, 2)
        assert make_distribution(params, "subset", {2: 6, 3: 24, 4: 6}, 36).pmf == {
            2: Fraction(1, 6), 3: Fraction(2, 3), 4: Fraction(1, 6)
        }
        # One count off, one missing, and one moved outside the support (t = 1).
        for counts in ({2: 6, 3: 25, 4: 6}, {2: 6, 3: 24, 4: 5}, {2: 6, 3: 24},
                       {1: 6, 3: 24, 4: 6}):
            with pytest.raises(ArithmeticError):
                make_distribution(params, "subset", counts, 36)


class TestMeanCoverage:
    def test_single_agent(self):
        assert mean_coverage(Params(11, 4, 1)) == 4

    def test_enumerated_value(self):
        assert mean_coverage(Params(4, 2, 2)) == 3

    def test_closed_form_value(self):
        # Independent route: per-node miss probability ((n-m)/n)^k.
        assert mean_coverage(Params(10, 3, 2)) == Fraction(51, 10)

    def test_closed_form_grid(self):
        for n in range(1, 21):
            for m in range(1, n + 1):
                for k in (1, 2, 3, 6):
                    expected = n * (1 - Fraction(n - m, n) ** k)
                    assert mean_coverage(Params(n, m, k)) == expected, (n, m, k)


class TestTailProbability:
    def test_enumerated_value(self):
        assert tail_probability(Params(4, 2, 2), 4) == Fraction(1, 6)

    def test_at_or_below_support(self):
        assert tail_probability(Params(9, 3, 2), 3) == 1
        assert tail_probability(Params(9, 3, 2), -5) == 1

    def test_above_support(self):
        assert tail_probability(Params(9, 3, 2), 10) == 0

    def test_monotone_in_k(self):
        for n in range(2, 7):
            for m in range(1, min(n, 3) + 1):
                for k in range(1, 4):
                    for tau in range(m, n + 1):
                        assert tail_probability(
                            Params(n, m, k), tau
                        ) <= tail_probability(Params(n, m, k + 1), tau), (n, m, k, tau)


class TestNestedFormula:
    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            coverage_pmf_nested(Params(4, 2, 3))

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded) as info:
            nested_pmf_terms(Params(30, 10, 12), term_budget=1000)
        assert info.value.required == nested_term_count(Params(30, 10, 12))
        assert info.value.budget == 1000

    def test_matches_closed_form_k4(self):
        for n in range(5, 9):
            for m in (1, 2):
                params = Params(n, m, 4)
                assert nested_pmf_terms(params) == dict(coverage_pmf(params).pmf)

    def test_matches_brute_force_6_2_4(self):
        params = Params(6, 2, 4)
        expected = brute_force_pmf(6, 2, 4)
        nested = {t: p for t, p in nested_pmf_terms(params).items() if p}
        assert nested == expected

    def test_single_node_agents_match_occupancy(self):
        # m = 1 agents are single uniform draws; their distinct count follows
        # the classic occupancy distribution, enumerated here over 5^4 outcomes.
        counts = {}
        for seq in itertools.product(range(5), repeat=4):
            t = len(set(seq))
            counts[t] = counts.get(t, 0) + 1
        expected = {t: Fraction(c, 5**4) for t, c in counts.items()}
        nested = {t: p for t, p in nested_pmf_terms(Params(5, 1, 4)).items() if p}
        assert nested == expected

    def test_distribution_wrapper_validates(self):
        dist = coverage_pmf_nested(Params(5, 2, 4))
        assert isinstance(dist, CoverageDistribution)
        assert dist.total() == 1


def fraction_sum_tail(dist, tau):
    """Pr(t >= tau) as a plain running sum of the PMF's Fractions."""
    if tau <= dist.support_lo:
        return Fraction(1)
    return sum((p for t, p in dist.pmf.items() if t >= tau), Fraction(0))


def fraction_sum_mean(dist):
    return sum((t * p for t, p in dist.pmf.items()), Fraction(0))


INTEGER_SUM_CASES = {
    "subset_chain": lambda: coverage_pmf(Params(40, 7, 9)),
    "subset_chain_m_eq_n": lambda: coverage_pmf(Params(5, 5, 3)),
    "multinomial_chain": lambda: multinomial_coverage_pmf(Params(30, 4, 6)),
    "subset_enumeration": lambda: enumerate_subset_scheme(Params(5, 2, 3)).to_distribution(),
    "multinomial_enumeration":
        lambda: enumerate_multinomial_scheme(Params(4, 2, 3)).to_distribution(),
    "multinomial_conditional":
        lambda: enumerate_multinomial_scheme(Params(4, 2, 3)).conditional_distribution(),
    "nested": lambda: coverage_pmf_nested(Params(7, 2, 5)),
}


class TestIntegerSums:
    @pytest.mark.parametrize("name", sorted(INTEGER_SUM_CASES))
    def test_tail_and_mean_equal_fraction_sums(self, name):
        dist = INTEGER_SUM_CASES[name]()
        assert dist.mean() == fraction_sum_mean(dist)
        for tau in range(dist.support_lo - 2, dist.support_hi + 3):
            assert dist.tail(tau) == fraction_sum_tail(dist, tau), tau

    def test_outcomes_do_not_affect_equality(self):
        params = Params(7, 2, 5)
        nested, chain = coverage_pmf_nested(params), coverage_pmf(params)
        assert nested.outcomes * binomial(7, 2) == chain.outcomes
        assert nested == chain

    @pytest.mark.parametrize("outcomes", [0, 35])
    def test_outcomes_must_be_a_common_denominator(self, outcomes):
        dist = coverage_pmf(Params(4, 2, 2))
        with pytest.raises(ValueError, match="common denominator"):
            CoverageDistribution(
                dist.params, dist.scheme_tag, dist.support_lo, dist.support_hi,
                dist.pmf, outcomes,
            )
