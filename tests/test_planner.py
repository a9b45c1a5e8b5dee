from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovecover import planner
from rovecover.combinatorics import rational_to_json
from rovecover.multinomial_scheme import multinomial_coverage_pmf
from rovecover.planner import (
    PlanQuery,
    PlanResult,
    min_agents_confident,
    min_agents_expected,
)
from rovecover.subset_scheme import (
    Params,
    coverage_pmf,
    make_distribution,
    mean_coverage,
    support_bounds,
    tail_probability,
)


def reference_confident_plan(query):
    """The confident plan as a scan that builds every k's whole PMF from
    k = 1 up and reads its tail, as the planner did before it walked the
    chain once."""
    tau, p = query.threshold, query.confidence
    floor, _ = support_bounds(Params(query.n, query.m, 1), query.scheme_tag)
    if p == 1 and tau > floor:
        raise ValueError(f"a confidence of 1 is infeasible for tau > {floor}")
    build = coverage_pmf if query.scheme_tag == "subset" else multinomial_coverage_pmf
    target = {
        "threshold": tau,
        "confidence": rational_to_json(p),
        "scheme": query.scheme_tag,
    }
    achieved = Fraction(0)
    for k in range(1, query.k_max + 1):
        achieved = build(Params(query.n, query.m, k)).tail(tau)
        if achieved >= p:
            return PlanResult(k, achieved, target, verified_at_k_minus_1=True)
    return PlanResult(None, achieved, target, verified_at_k_minus_1=False,
                      cap_exceeded=True)


def outcome(plan, query):
    """The plan's result, or its ValueError message."""
    try:
        return plan(query)
    except ValueError as exc:
        return str(exc)


def count_pmf_calls(monkeypatch):
    """Wrap both PMF builders the planner calls; returns the call list."""
    calls = []
    for name in ("coverage_pmf", "multinomial_coverage_pmf"):
        build = getattr(planner, name)

        def counted(params, build=build):
            calls.append(params)
            return build(params)

        monkeypatch.setattr(planner, name, counted)
    return calls


class TestPlanQueryValidation:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            PlanQuery(n=4, m=2)
        with pytest.raises(ValueError):
            PlanQuery(
                n=4,
                m=2,
                expected_fraction=Fraction(1, 2),
                threshold=3,
                confidence=Fraction(1, 2),
            )

    def test_threshold_needs_confidence(self):
        with pytest.raises(ValueError):
            PlanQuery(n=4, m=2, threshold=3)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            PlanQuery(n=4, m=2, expected_fraction=Fraction(0))
        with pytest.raises(ValueError):
            PlanQuery(n=4, m=2, threshold=5, confidence=Fraction(1, 2))
        with pytest.raises(ValueError):
            PlanQuery(n=4, m=2, threshold=2, confidence=Fraction(3, 2))


class TestMinAgentsExpected:
    def test_enumerated_case(self):
        result = min_agents_expected(PlanQuery(n=4, m=2, expected_fraction=Fraction(3, 4)))
        assert result.k == 2
        assert result.achieved == Fraction(3, 4)
        assert result.verified_at_k_minus_1
        assert mean_coverage(Params(4, 2, 1)) < Fraction(3, 4) * 4

    def test_full_visit_needs_one_agent(self):
        result = min_agents_expected(PlanQuery(n=6, m=6, expected_fraction=Fraction(1)))
        assert result.k == 1

    def test_log_closed_form_case(self):
        result = min_agents_expected(PlanQuery(n=10, m=3, expected_fraction=Fraction(9, 10)))
        assert result.k == 7
        assert mean_coverage(Params(10, 3, 7)) >= 9
        assert mean_coverage(Params(10, 3, 6)) < 9

    def test_total_coverage_infeasible(self):
        with pytest.raises(ValueError):
            min_agents_expected(PlanQuery(n=5, m=2, expected_fraction=Fraction(1)))

    def test_agrees_with_exhaustive_scan(self):
        # Scan with the exact rational mean; criterion 5's grid separately
        # proves that mean equals the PMF summation.
        for n in range(1, 31):
            for m in range(1, min(n, 10) + 1):
                for alpha in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                    result = min_agents_expected(
                        PlanQuery(n=n, m=m, expected_fraction=alpha)
                    )
                    k = 1
                    while n * (1 - Fraction(n - m, n) ** k) < alpha * n:
                        k += 1
                    assert result.k == k, (n, m, alpha)

    def test_scan_agreement_via_pmf_mean_spot_checks(self):
        for n, m, alpha in [(12, 2, Fraction(3, 4)), (9, 4, Fraction(9, 10))]:
            result = min_agents_expected(PlanQuery(n=n, m=m, expected_fraction=alpha))
            k = 1
            while mean_coverage(Params(n, m, k)) < alpha * n:
                k += 1
            assert result.k == k, (n, m, alpha)

    def test_multinomial_scheme(self):
        result = min_agents_expected(
            PlanQuery(n=10, m=3, expected_fraction=Fraction(1, 2), scheme_tag="multinomial")
        )
        # Exact per-node coverage: 1 - ((n-1)/n)^(mk) >= 1/2.
        miss = Fraction(9, 10) ** 3
        assert miss ** (result.k - 1) > Fraction(1, 2) >= miss**result.k

    def test_large_instance_skips_pmf_verification(self):
        # Beyond the PMF-verification guard the exact closed-form predicate
        # alone decides; the answer must still be minimal.
        result = min_agents_expected(
            PlanQuery(n=10_000, m=10, expected_fraction=Fraction(99, 100))
        )
        miss = Fraction(10_000 - 10, 10_000)
        assert miss**result.k <= Fraction(1, 100) < miss ** (result.k - 1)


class TestMinAgentsConfident:
    def test_enumerated_case(self):
        result = min_agents_confident(
            PlanQuery(n=4, m=2, threshold=4, confidence=Fraction(1, 6))
        )
        assert result.k == 2
        assert result.achieved == Fraction(1, 6)
        assert tail_probability(Params(4, 2, 1), 4) == 0

    def test_threshold_at_m_is_immediate(self):
        result = min_agents_confident(
            PlanQuery(n=9, m=4, threshold=4, confidence=Fraction(999, 1000))
        )
        assert result.k == 1
        assert result.achieved == 1

    def test_cap_exceeded_carries_achieved(self):
        result = min_agents_confident(
            PlanQuery(
                n=4, m=2, threshold=4, confidence=1 - Fraction(1, 10**15), k_max=40
            )
        )
        assert result.cap_exceeded
        assert result.k is None
        assert 0 < result.achieved < 1
        assert result.achieved == tail_probability(Params(4, 2, 40), 4)

    def test_confidence_one_above_floor_rejected_before_scanning(self):
        # Coverage stays at m (subset) or 1 (multinomial) with positive
        # probability for every k, so p = 1 is out of reach; the scan used
        # to run all 10 000 k first.
        for scheme, tau in (("subset", 3), ("multinomial", 2)):
            with pytest.raises(ValueError, match="confidence of 1 is infeasible"):
                min_agents_confident(
                    PlanQuery(n=4, m=2, threshold=tau, confidence=Fraction(1),
                              scheme_tag=scheme)
                )

    def test_confidence_one_at_floor_is_one_agent(self):
        for scheme, tau in (("subset", 1), ("subset", 2), ("multinomial", 1)):
            result = min_agents_confident(
                PlanQuery(n=4, m=2, threshold=tau, confidence=Fraction(1),
                          scheme_tag=scheme)
            )
            assert (result.k, result.achieved) == (1, 1)

    def test_returned_k_is_minimal(self):
        for n, m, tau, p in [
            (6, 2, 5, Fraction(1, 2)),
            (8, 3, 6, Fraction(3, 4)),
            (5, 1, 4, Fraction(1, 3)),
        ]:
            result = min_agents_confident(
                PlanQuery(n=n, m=m, threshold=tau, confidence=p)
            )
            assert tail_probability(Params(n, m, result.k), tau) >= p
            if result.k > 1:
                assert tail_probability(Params(n, m, result.k - 1), tau) < p

    def test_multinomial_scheme(self):
        from rovecover.multinomial_scheme import multinomial_coverage_pmf

        result = min_agents_confident(
            PlanQuery(n=5, m=2, threshold=4, confidence=Fraction(1, 2),
                      scheme_tag="multinomial")
        )
        assert multinomial_coverage_pmf(Params(5, 2, result.k)).tail(4) >= Fraction(1, 2)
        if result.k > 1:
            assert (
                multinomial_coverage_pmf(Params(5, 2, result.k - 1)).tail(4)
                < Fraction(1, 2)
            )


class TestSinglePassMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        data=st.data(),
        scheme=st.sampled_from(["subset", "multinomial"]),
        p=st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(5, 6),
                           Fraction(99, 100), Fraction(1)]),
        k_max=st.sampled_from([1, 3, 50]),
    )
    def test_same_plan_as_per_k_pmf_scan(self, n, data, scheme, p, k_max):
        m = data.draw(st.integers(1, n), label="m")
        for tau in range(1, n + 1):
            query = PlanQuery(n=n, m=m, threshold=tau, confidence=p,
                              scheme_tag=scheme, k_max=k_max)
            assert outcome(min_agents_confident, query) == outcome(
                reference_confident_plan, query), tau

    def test_pmf_disagreeing_with_the_walk_raises(self, monkeypatch):
        def perturbed(params):
            # Move one outcome from the top of the support to the bottom:
            # still a distribution, but its tail is off by 1 / outcomes.
            dist = coverage_pmf(params)
            counts = {t: int(p * dist.outcomes) for t, p in dist.pmf.items()}
            counts[dist.support_hi] -= 1
            counts[dist.support_lo] += 1
            return make_distribution(params, dist.scheme_tag, counts, dist.outcomes)

        monkeypatch.setattr(planner, "coverage_pmf", perturbed)
        with pytest.raises(ArithmeticError, match="tail mismatch"):
            min_agents_confident(
                PlanQuery(n=6, m=2, threshold=5, confidence=Fraction(1, 2)))


class TestOnePmfPerPlan:
    def test_found_size_builds_one_pmf(self, monkeypatch):
        # The per-k scan built all 65 PMFs of this plan.
        calls = count_pmf_calls(monkeypatch)
        result = min_agents_confident(
            PlanQuery(n=200, m=10, threshold=190, confidence=Fraction(9, 10)))
        assert result.k == 65
        assert calls == [Params(200, 10, 65)]

    def test_cap_exceeded_builds_one_pmf(self, monkeypatch):
        calls = count_pmf_calls(monkeypatch)
        result = min_agents_confident(PlanQuery(
            n=200, m=10, threshold=190, confidence=Fraction(9, 10), k_max=10))
        assert result.cap_exceeded and result.k is None
        assert calls == [Params(200, 10, 10)]
        assert result.achieved == tail_probability(Params(200, 10, 10), 190)

    def test_multinomial_builds_one_pmf(self, monkeypatch):
        calls = count_pmf_calls(monkeypatch)
        result = min_agents_confident(PlanQuery(
            n=146, m=23, threshold=125, confidence=Fraction(9, 10),
            scheme_tag="multinomial"))
        assert result.k == 14
        assert calls == [Params(146, 23, 14)]


class TestPlanResultJson:
    def test_shape(self):
        result = min_agents_expected(PlanQuery(n=4, m=2, expected_fraction=Fraction(3, 4)))
        payload = result.to_json_dict()
        assert payload["k"] == 2
        assert payload["achieved"] == {"num": "3", "den": "4", "approx": 0.75}
        assert payload["verified_at_k_minus_1"] is True
        assert payload["cap_exceeded"] is False
