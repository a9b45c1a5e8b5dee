"""Exact coverage distribution for the subset allocation scheme.

k agents each select, independently and uniformly, one of the C(n, m)
m-element subsets of an n-node network. The quantity of interest is the
size t of the union of the selected subsets: how many distinct nodes got
visited at least once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping

from .combinatorics import binomial, rational_to_json
from .errors import BudgetExceeded

SCHEME_SUBSET = "subset"
SCHEME_MULTINOMIAL = "multinomial"
_SCHEMES = (SCHEME_SUBSET, SCHEME_MULTINOMIAL)

DEFAULT_NESTED_TERM_BUDGET = 10**7


@dataclass(frozen=True)
class Params:
    """Experiment triple: n nodes, m nodes visited per agent, k agents."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"m must satisfy 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def support_bounds(params: Params, scheme_tag: str) -> tuple[int, int]:
    """Possible union sizes: [m, min(km, n)] for subset draws, [1, min(km, n)]
    when per-stage repetition is allowed."""
    lo = params.m if scheme_tag == SCHEME_SUBSET else 1
    return lo, min(params.k * params.m, params.n)


@dataclass(frozen=True)
class CoverageDistribution:
    """Exact PMF of the covered-node count t over its full support range.

    ``outcomes`` is a common denominator of every pmf value: the number of
    equally likely outcomes the counts were taken over. Sums over the PMF
    run on integer numerators over it, with one reduction at the end."""

    params: Params
    scheme_tag: str
    support_lo: int
    support_hi: int
    pmf: Mapping[int, Fraction]
    outcomes: int = field(compare=False)

    def __post_init__(self):
        if self.scheme_tag not in _SCHEMES:
            raise ValueError(f"unknown scheme_tag {self.scheme_tag!r}")
        lo, hi = support_bounds(self.params, self.scheme_tag)
        if (self.support_lo, self.support_hi) != (lo, hi):
            raise ValueError(
                f"support [{self.support_lo}, {self.support_hi}] does not match "
                f"scheme {self.scheme_tag!r} bounds [{lo}, {hi}]"
            )
        if sorted(self.pmf) != list(range(lo, hi + 1)):
            raise ValueError("pmf keys must cover every t in the support range")
        if any(p < 0 for p in self.pmf.values()):
            raise ValueError("pmf values must be nonnegative")
        if self.outcomes < 1 or any(self.outcomes % p.denominator for p in self.pmf.values()):
            raise ValueError("outcomes must be a common denominator of the pmf values")

    def probability(self, t: int) -> Fraction:
        """pmf(t), zero outside the support."""
        return self.pmf.get(t, Fraction(0))

    def total(self) -> Fraction:
        return sum(self.pmf.values(), Fraction(0))

    def _count(self, t: int) -> int:
        """pmf(t) * outcomes, an integer."""
        p = self.pmf[t]
        return p.numerator * (self.outcomes // p.denominator)

    def mean(self) -> Fraction:
        """Exact expectation sum_t t * pmf(t)."""
        return Fraction(sum(t * self._count(t) for t in self.pmf), self.outcomes)

    def tail(self, tau: int) -> Fraction:
        """Pr(t >= tau); 1 below the support, 0 above it."""
        if tau <= self.support_lo:
            return Fraction(1)
        ts = range(tau, self.support_hi + 1)
        return Fraction(sum(self._count(t) for t in ts), self.outcomes)

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme_tag,
            "n": self.params.n,
            "m": self.params.m,
            "k": self.params.k,
            "pmf": [
                {"t": t, **rational_to_json(self.pmf[t])}
                for t in range(self.support_lo, self.support_hi + 1)
            ],
        }

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["t", "num", "den", "approx"]
        rows = [
            [t, str(p.numerator), str(p.denominator), float(p)]
            for t, p in sorted(self.pmf.items())
        ]
        return header, rows


def make_distribution(
    params: Params, scheme_tag: str, counts: Mapping[int, int], outcomes: int
) -> CoverageDistribution:
    """Distribution of ``counts[t]`` out of ``outcomes`` equally likely
    outcomes over the scheme's support (a missing t counts 0). The integer
    counts must sum to exactly ``outcomes`` before any Fraction is built."""
    lo, hi = support_bounds(params, scheme_tag)
    support = range(lo, hi + 1)
    total = sum(counts.get(t, 0) for t in support)
    if total != outcomes:
        raise ArithmeticError(
            f"counts for {params} ({scheme_tag}) sum to {total}, expected {outcomes}"
        )
    pmf = {t: Fraction(counts.get(t, 0), outcomes) for t in support}
    # Freeze the mapping too, so no caller can change a returned result.
    return CoverageDistribution(params, scheme_tag, lo, hi, MappingProxyType(pmf), outcomes)


def q_count(k: int, m: int, t: int) -> int:
    """Number of k x t binary matrices with exactly m ones per row and no
    all-zero column, by inclusion-exclusion over the empty columns."""
    if k < 1 or m < 1 or t < 1:
        raise ValueError(f"q_count requires k, m, t >= 1, got k={k}, m={m}, t={t}")
    if t < m or t > k * m:
        return 0
    total = 0
    for i in range(t - m + 1):
        term = binomial(t, i) * binomial(t - i, m) ** k
        total += -term if i & 1 else term
    return total


def _cover_chain(n: int, m: int, scheme_tag: str) -> Iterator[tuple[list[int], int]]:
    """The covered-count chain (Stadje, Adv. Appl. Prob. 22, 1990), run on
    numbers that do not depend on n. Yields ``(cover, outcomes)`` after
    each agent (subset) or stage of m drops (multinomial), for k = 1, 2, ...
    without end. ``cover[c]`` counts the outcomes so far whose visited set
    is exactly one fixed c-node set; there are C(n, t) such sets of size t,
    so C(n, t) * cover[t] of the ``outcomes`` equally likely outcomes cover
    t nodes. After k steps ``cover[t]`` is q_count(k, m, t) (subset) or
    t! * S(mk, t) = r_count(k, m, t) (multinomial), and ``outcomes`` is
    C(n, m)^k or n^(mk). Every term is a nonnegative count, so nothing
    cancels, and entries above c = n are never needed. A yielded ``cover``
    is the chain's own state: read it before asking for the next step."""
    cover = [1]
    outcomes = 1
    if scheme_tag == SCHEME_SUBSET:
        # One step per agent: its m-subset adds d new nodes to the c - d
        # already covered, in C(c, m) * C(m, d) ways. Convolving with the
        # row C(m, d) is m passes of Pascal's rule, additions only.
        fits = []
        agent_outcomes = math.comb(n, m)
        while True:
            for _ in range(m):
                shifted = [0, *cover]
                if len(cover) <= n:
                    cover.append(0)
                cover = [a + b for a, b in zip(cover, shifted)]
            fits.extend(math.comb(c, m) for c in range(len(fits), len(cover)))
            cover = [fit * ways for fit, ways in zip(fits, cover)]
            outcomes *= agent_outcomes
            yield cover, outcomes
    # One step per drop: it lands on one of the c nodes already visited
    # (c * cover[c]) or is the first visit to any one of the c, the other
    # c - 1 visited before (c * cover[c - 1]).
    stage_outcomes = n**m
    while True:
        for _ in range(m):
            if len(cover) <= n:
                cover.append(0)
            cover = [0] + [c * (cover[c] + cover[c - 1]) for c in range(1, len(cover))]
        outcomes *= stage_outcomes
        yield cover, outcomes


def _chain_distribution(params: Params, scheme_tag: str) -> CoverageDistribution:
    """Distribution of the covered-node count from the k-th step of
    :func:`_cover_chain`."""
    n, k = params.n, params.k
    chain = _cover_chain(n, params.m, scheme_tag)
    cover, outcomes = next(itertools.islice(chain, k - 1, None))
    counts = {t: math.comb(n, t) * ways for t, ways in enumerate(cover) if ways}
    return make_distribution(params, scheme_tag, counts, outcomes)


def coverage_pmf(params: Params) -> CoverageDistribution:
    """Exact distribution of the union size under the subset scheme, over
    all C(n, m)^k equally likely ordered subset collections."""
    return _chain_distribution(params, SCHEME_SUBSET)


def miss_ratio(scheme_tag: str, n: int, m: int) -> Fraction:
    """Probability that one agent (or multinomial stage) misses a node."""
    if scheme_tag == SCHEME_SUBSET:
        return Fraction(n - m, n)
    return Fraction(n - 1, n) ** m


def mean_coverage(params: Params) -> Fraction:
    """Exact expected coverage n * (1 - miss^k) under the subset scheme."""
    return params.n * (1 - miss_ratio(SCHEME_SUBSET, params.n, params.m) ** params.k)


def tail_probability(params: Params, tau: int) -> Fraction:
    """Pr(covered count >= tau) under the subset scheme."""
    return coverage_pmf(params).tail(tau)


def nested_term_count(params: Params) -> int:
    """Summand count of the legacy nested formula across the whole support."""
    if params.k < 4:
        raise ValueError(f"nested formula requires k >= 4, got k={params.k}")
    lo, hi = support_bounds(params, SCHEME_SUBSET)
    return (hi - lo + 1) * (params.m + 1) ** (params.k - 2)


def _nested_numerator(n: int, m: int, k: int, t: int) -> int:
    # Direct evaluation of the chained-binomial sum: agent 1 fixes m covered
    # nodes; each agent j = 2..k-1 revisits m_j covered nodes and adds
    # m - m_j new ones; the final agent is forced to land the total on
    # exactly t. A zero factor kills the term early.
    total = 0
    for overlaps in itertools.product(range(m + 1), repeat=k - 2):
        term = 1
        covered = m
        for m_j in overlaps:
            term *= binomial(covered, m_j) * binomial(n - covered, m - m_j)
            if term == 0:
                break
            covered += m - m_j
        if term == 0:
            continue
        shared = sum(overlaps)
        term *= binomial(covered, k * m - t - shared)
        term *= binomial(n - covered, t - covered)
        total += term
    return total


def _nested_numerators(params: Params, term_budget: int | None) -> dict[int, int]:
    """Per-t numerators of the nested formula over C(n, m)^(k-1), within budget."""
    budget = DEFAULT_NESTED_TERM_BUDGET if term_budget is None else term_budget
    required = nested_term_count(params)
    if required > budget:
        raise BudgetExceeded(
            f"nested evaluation needs {required} summands, budget is {budget}",
            required=required,
            budget=budget,
        )
    n, m, k = params.n, params.m, params.k
    lo, hi = support_bounds(params, SCHEME_SUBSET)
    return {t: _nested_numerator(n, m, k, t) for t in range(lo, hi + 1)}


def nested_pmf_terms(
    params: Params, term_budget: int | None = None
) -> dict[int, Fraction]:
    """Per-t values of the legacy nested-sum formula, evaluated directly
    with no algebraic simplification.

    The formula chains conditional choices of the 2nd through k-th agents
    given the first agent's subset, hence the C(n, m)^(k-1) normalizer. It
    is defined only for k >= 4 and is exponential in k, so evaluation is
    refused beyond ``term_budget`` total summands. No normalization check
    is applied here: this is the raw cross-check quantity.
    """
    numerators = _nested_numerators(params, term_budget)
    denominator = binomial(params.n, params.m) ** (params.k - 1)
    return {t: Fraction(num, denominator) for t, num in numerators.items()}


def coverage_pmf_nested(
    params: Params, term_budget: int | None = None
) -> CoverageDistribution:
    """Coverage distribution via the nested formula; cross-check oracle only."""
    numerators = _nested_numerators(params, term_budget)
    outcomes = binomial(params.n, params.m) ** (params.k - 1)
    return make_distribution(params, SCHEME_SUBSET, numerators, outcomes)
