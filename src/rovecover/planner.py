"""Minimal-agent planning: how many roving agents are enough.

Two target styles are offered, since the operational question can be
posed either way: reach an expected coverage fraction, or reach a node
threshold with a given confidence. Searches use exact arithmetic; the
returned k is always re-verified minimal by checking k-1 fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import rational_to_json
from .multinomial_scheme import multinomial_coverage_pmf
from .subset_scheme import (
    SCHEME_MULTINOMIAL,
    SCHEME_SUBSET,
    CoverageDistribution,
    Params,
    coverage_pmf,
    miss_ratio,
    support_bounds,
)

DEFAULT_K_MAX = 10_000

# Exact mean re-verification via the full PMF summation is skipped beyond
# these sizes (the chain's work grows with m*k times the support size, on
# counts of up to m*k*log2(n) bits); the closed-form predicate, also exact,
# then stands alone.
_PMF_VERIFY_MAX_N = 64
_PMF_VERIFY_MAX_MK = 600


@dataclass(frozen=True)
class PlanQuery:
    """Planning request: exactly one of the two target styles must be set."""

    n: int
    m: int
    expected_fraction: Fraction | None = None
    threshold: int | None = None
    confidence: Fraction | None = None
    scheme_tag: str = SCHEME_SUBSET
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        Params(self.n, self.m, 1)
        if self.scheme_tag not in (SCHEME_SUBSET, SCHEME_MULTINOMIAL):
            raise ValueError(f"unknown scheme_tag {self.scheme_tag!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        expected_mode = self.expected_fraction is not None
        confident_mode = self.threshold is not None or self.confidence is not None
        if expected_mode == confident_mode:
            raise ValueError(
                "set either expected_fraction or threshold+confidence, not both"
            )
        if expected_mode:
            if not 0 < self.expected_fraction <= 1:
                raise ValueError(
                    f"expected_fraction must be in (0, 1], got {self.expected_fraction}"
                )
        else:
            if self.threshold is None or self.confidence is None:
                raise ValueError("threshold and confidence must be given together")
            if not 1 <= self.threshold <= self.n:
                raise ValueError(
                    f"threshold must satisfy 1 <= tau <= n, got {self.threshold}"
                )
            if not 0 < self.confidence <= 1:
                raise ValueError(
                    f"confidence must be in (0, 1], got {self.confidence}"
                )


@dataclass(frozen=True)
class PlanResult:
    """Outcome of a planning search.

    ``achieved`` is the value of the targeted quantity at the returned k
    (coverage fraction or tail probability); when the search cap k_max is
    exceeded, k is None and ``achieved`` reports the value at k_max.
    """

    k: int | None
    achieved: Fraction
    target: dict
    verified_at_k_minus_1: bool
    cap_exceeded: bool = False

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "achieved": rational_to_json(self.achieved),
            "target": self.target,
            "verified_at_k_minus_1": self.verified_at_k_minus_1,
            "cap_exceeded": self.cap_exceeded,
        }

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["k", "achieved_num", "achieved_den", "achieved_approx",
                  "verified_at_k_minus_1", "cap_exceeded"]
        return header, [[self.k, *rational_to_json(self.achieved).values(),
                         self.verified_at_k_minus_1, self.cap_exceeded]]


def _distribution(scheme_tag: str, params: Params) -> CoverageDistribution:
    if scheme_tag == SCHEME_SUBSET:
        return coverage_pmf(params)
    return multinomial_coverage_pmf(params)


def min_agents_expected(query: PlanQuery) -> PlanResult:
    """Smallest k whose exact expected coverage reaches alpha * n.

    The candidate comes from the float closed form ceil(ln(1-alpha) /
    ln(miss ratio)) and is then nudged by the exact rational predicate, so
    boundary cases cannot be lost to rounding. When the instance is small
    enough the mean is additionally recomputed from the full PMF summation
    and both routes must agree.
    """
    if query.expected_fraction is None:
        raise ValueError("query has no expected_fraction target")
    alpha = query.expected_fraction
    n, m = query.n, query.m
    miss = miss_ratio(query.scheme_tag, n, m)
    target = {"expected_fraction": rational_to_json(alpha), "scheme": query.scheme_tag}

    if miss == 0:
        # m = n (or n = 1): a single agent already covers everything.
        return PlanResult(
            k=1, achieved=Fraction(1), target=target, verified_at_k_minus_1=True
        )
    if alpha == 1:
        raise ValueError(
            "expected coverage can approach but never equal n for m < n; "
            "an expected_fraction of 1 is infeasible"
        )

    # mean(k) >= alpha * n  <=>  miss^k <= 1 - alpha
    allowed_miss = 1 - alpha
    # log of a Fraction via integer logs; immune to float under/overflow.
    log_allowed = math.log(allowed_miss.numerator) - math.log(allowed_miss.denominator)
    log_miss = math.log(miss.numerator) - math.log(miss.denominator)
    k = max(1, math.ceil(log_allowed / log_miss))
    while k > 1 and miss ** (k - 1) <= allowed_miss:
        k -= 1
    while miss**k > allowed_miss:
        k += 1

    # Linearity of expectation: each node is covered unless all k rounds miss it.
    achieved_mean = n * (1 - miss**k)
    verified_prev = k == 1 or n * (1 - miss ** (k - 1)) < alpha * n
    if n <= _PMF_VERIFY_MAX_N and m * k <= _PMF_VERIFY_MAX_MK:
        summed = _distribution(query.scheme_tag, Params(n, m, k)).mean()
        if summed != achieved_mean:
            raise ArithmeticError(
                f"mean mismatch at k={k}: pmf summation {summed} "
                f"vs closed form {achieved_mean}"
            )
        if k > 1:
            prev = _distribution(query.scheme_tag, Params(n, m, k - 1)).mean()
            verified_prev = prev < alpha * n
    return PlanResult(
        k=k,
        achieved=achieved_mean / n,
        target=target,
        verified_at_k_minus_1=verified_prev,
    )


def min_agents_confident(query: PlanQuery) -> PlanResult:
    """Smallest k with Pr(coverage >= threshold) at or above the confidence.

    A linear scan from k = 1 with exact tail probabilities: the first hit
    is minimal by construction, with no reliance on monotonicity in k.
    """
    if query.threshold is None or query.confidence is None:
        raise ValueError("query has no threshold/confidence target")
    tau, p = query.threshold, query.confidence
    # All agents may visit the same nodes, so for every k the coverage stays
    # at the k = 1 floor with positive probability.
    floor, _ = support_bounds(Params(query.n, query.m, 1), query.scheme_tag)
    if p == 1 and tau > floor:
        raise ValueError(f"a confidence of 1 is infeasible for tau > {floor}")
    target = {
        "threshold": tau,
        "confidence": rational_to_json(p),
        "scheme": query.scheme_tag,
    }
    achieved = Fraction(0)
    for k in range(1, query.k_max + 1):
        achieved = _distribution(query.scheme_tag, Params(query.n, query.m, k)).tail(tau)
        if achieved >= p:
            return PlanResult(
                k=k,
                achieved=achieved,
                target=target,
                verified_at_k_minus_1=True,
            )
    return PlanResult(
        k=None,
        achieved=achieved,
        target=target,
        verified_at_k_minus_1=False,
        cap_exceeded=True,
    )
