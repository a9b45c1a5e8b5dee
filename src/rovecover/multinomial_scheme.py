"""Exact analysis of the stage-wise allocation scheme and its comparison
against the subset scheme.

Here each of the k stages drops m agents one by one, independently and
uniformly over the n nodes, so a stage may hit the same node twice. The
module provides the exact coverage PMF, the repetition bounds that make
the two schemes asymptotically interchangeable, and the per-t inequality
relating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    binomial,
    falling_factorial,
    rational_to_json,
    stirling2,
)
from .subset_scheme import (
    SCHEME_MULTINOMIAL,
    CoverageDistribution,
    Params,
    _chain_distribution,
    coverage_pmf,
)


def r_count(k: int, m: int, t: int) -> int:
    """Number of length-(m*k) sequences over a t-node alphabet that use
    every node at least once, by inclusion-exclusion over missed nodes."""
    if k < 1 or m < 1 or t < 1:
        raise ValueError(f"r_count requires k, m, t >= 1, got k={k}, m={m}, t={t}")
    if t > k * m:
        return 0
    total = 0
    for i in range(t):
        term = binomial(t, i) * (t - i) ** (m * k)
        total += -term if i & 1 else term
    return total


def r_via_stirling(k: int, m: int, t: int) -> int:
    """Same count as :func:`r_count`, via t! times a Stirling number of the
    second kind: pick which node gets which block of positions."""
    if k < 1 or m < 1 or t < 1:
        raise ValueError(
            f"r_via_stirling requires k, m, t >= 1, got k={k}, m={m}, t={t}"
        )
    if t > k * m:
        return 0
    return math.factorial(t) * stirling2(m * k, t)


def multinomial_coverage_pmf(params: Params) -> CoverageDistribution:
    """Exact distribution of the distinct-node count over all n^(mk) equally
    likely node sequences; support starts at t = 1 because a stage may
    collapse onto a single node."""
    return _chain_distribution(params, SCHEME_MULTINOMIAL)


def repetition_mean(n: int, m: int) -> Fraction:
    """Expected number of same-node agent pairs in one stage: C(m, 2) / n."""
    if not 1 <= m <= n:
        raise ValueError(f"repetition_mean requires 1 <= m <= n, got m={m}, n={n}")
    return Fraction(binomial(m, 2), n)


def all_distinct_probability(params: Params) -> Fraction:
    """Probability that every stage draws m pairwise distinct nodes."""
    n, m, k = params.n, params.m, params.k
    return Fraction(falling_factorial(n, m), n**m) ** k


@dataclass(frozen=True)
class BoundReport:
    """Repetition bounds for a parameter triple, all exact rationals.

    The Markov bounds can exceed 1 for crowded stages (C(m,2) >= n); they
    are clamped into [0, 1] and the clamping is flagged so a vacuous bound
    is visible to the caller.
    """

    params: Params
    epsilon: int
    repetition_mean: Fraction
    single_stage_markov_bound: Fraction
    single_stage_clamped: bool
    all_stages_markov_bound: Fraction
    all_stages_clamped: bool
    all_distinct_probability: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "m": self.params.m,
            "k": self.params.k,
            "epsilon": self.epsilon,
            "repetition_mean": rational_to_json(self.repetition_mean),
            "single_stage_markov_bound": rational_to_json(
                self.single_stage_markov_bound
            ),
            "single_stage_clamped": self.single_stage_clamped,
            "all_stages_markov_bound": rational_to_json(self.all_stages_markov_bound),
            "all_stages_clamped": self.all_stages_clamped,
            "all_distinct_probability": rational_to_json(
                self.all_distinct_probability
            ),
        }

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        names = ("repetition_mean", "single_stage_markov_bound",
                 "all_stages_markov_bound", "all_distinct_probability")
        rows = [[name, *rational_to_json(getattr(self, name)).values()] for name in names]
        return ["quantity", "num", "den", "approx"], rows


def markov_repetition_bound(params: Params, epsilon: int = 1) -> BoundReport:
    """Markov bound on the within-stage repetition probability.

    ``epsilon`` is the repetition-pair threshold of the underlying tail
    event ("at least epsilon colliding pairs"); the default 1 bounds the
    probability of any repetition at all.
    """
    if not isinstance(epsilon, int) or isinstance(epsilon, bool) or epsilon < 1:
        raise ValueError(f"epsilon must be an integer >= 1, got {epsilon!r}")
    mean = repetition_mean(params.n, params.m)
    raw_single = mean / epsilon
    raw_all = params.k * mean / epsilon
    return BoundReport(
        params=params,
        epsilon=epsilon,
        repetition_mean=mean,
        single_stage_markov_bound=min(raw_single, Fraction(1)),
        single_stage_clamped=raw_single > 1,
        all_stages_markov_bound=min(raw_all, Fraction(1)),
        all_stages_clamped=raw_all > 1,
        all_distinct_probability=all_distinct_probability(params),
    )


@dataclass(frozen=True)
class Theorem2Row:
    t: int
    lhs: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class Theorem2Report:
    """Per-t comparison of the two schemes.

    lhs is the subset-scheme probability damped by the all-stages-distinct
    probability P; rhs is the stage-wise scheme probability. lhs <= rhs
    must hold row by row because {all stages distinct, union size t} is a
    sub-event of {union size t}.
    """

    params: Params
    condition_value: Fraction
    rows: tuple[Theorem2Row, ...]
    all_hold: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "m": self.params.m,
            "k": self.params.k,
            "condition_value": rational_to_json(self.condition_value),
            "all_hold": self.all_hold,
            "rows": [
                {
                    "t": row.t,
                    "lhs": rational_to_json(row.lhs),
                    "rhs": rational_to_json(row.rhs),
                    "holds": row.holds,
                }
                for row in self.rows
            ],
        }

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["t", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "holds"]
        rows = [
            [row.t, str(row.lhs.numerator), str(row.lhs.denominator),
             str(row.rhs.numerator), str(row.rhs.denominator), row.holds]
            for row in self.rows
        ]
        return header, rows


def theorem2_check(params: Params) -> Theorem2Report:
    """Exact row-by-row check of the scheme-comparison inequality over the
    subset-scheme support; below t = m the lhs is zero and the rows are
    omitted as vacuous."""
    distinct_p = all_distinct_probability(params)
    subset_dist = coverage_pmf(params)
    stage_dist = multinomial_coverage_pmf(params)
    rows = []
    for t in range(subset_dist.support_lo, subset_dist.support_hi + 1):
        lhs = distinct_p * subset_dist.pmf[t]
        rhs = stage_dist.pmf[t]
        rows.append(Theorem2Row(t=t, lhs=lhs, rhs=rhs, holds=lhs <= rhs))
    condition = params.k * repetition_mean(params.n, params.m)
    return Theorem2Report(
        params=params,
        condition_value=condition,
        rows=tuple(rows),
        all_hold=all(row.holds for row in rows),
    )
