"""Brute-force ground truth for tiny parameters.

Both schemes are enumerated exhaustively in a canonical deterministic
order (lexicographic over subset ranks or node indices) so any failure is
reproducible. The module is exhaustive or it refuses; sampling lives in
``monte_carlo``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .combinatorics import binomial, rational_to_json
from .errors import BudgetExceeded
from .subset_scheme import (
    SCHEME_MULTINOMIAL,
    SCHEME_SUBSET,
    CoverageDistribution,
    Params,
    make_distribution,
    nested_pmf_terms,
    q_count,
)

DEFAULT_OUTCOME_BUDGET = 10**7


@dataclass(frozen=True)
class OracleResult:
    """Exact outcome counts from exhaustive enumeration of one scheme."""

    params: Params
    scheme_tag: str
    union_size_counts: Mapping[int, int]
    total_outcomes: int
    # Multinomial only: outcomes whose every stage drew m distinct nodes.
    conditional_distinct_counts: Mapping[int, int] | None = None

    def __post_init__(self):
        if self.scheme_tag not in (SCHEME_SUBSET, SCHEME_MULTINOMIAL):
            raise ValueError(f"unknown scheme_tag {self.scheme_tag!r}")
        if sum(self.union_size_counts.values()) != self.total_outcomes:
            raise ValueError("union size counts must sum to the total outcome count")

    def to_distribution(self) -> CoverageDistribution:
        """Counts normalized by the total, over the scheme's full support."""
        return make_distribution(
            self.params, self.scheme_tag, self.union_size_counts, self.total_outcomes
        )

    def conditional_distribution(self) -> CoverageDistribution:
        """Distribution conditioned on per-stage distinctness; its support is
        the subset scheme's, which is the point of the comparison."""
        if self.conditional_distinct_counts is None:
            raise ValueError("conditional counts exist only for the multinomial scheme")
        counts = self.conditional_distinct_counts
        return make_distribution(self.params, SCHEME_SUBSET, counts, sum(counts.values()))

    def to_json_dict(self) -> dict:
        result = {
            "scheme": self.scheme_tag,
            "n": self.params.n,
            "m": self.params.m,
            "k": self.params.k,
            "total_outcomes": self.total_outcomes,
            "counts": [
                {"t": t, "count": c}
                for t, c in sorted(self.union_size_counts.items())
            ],
            "pmf": self.to_distribution().to_json_dict()["pmf"],
        }
        if self.conditional_distinct_counts is not None:
            result["conditional_distinct_counts"] = [
                {"t": t, "count": c}
                for t, c in sorted(self.conditional_distinct_counts.items())
            ]
        return result

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        return ["t", "count"], [[t, c] for t, c in sorted(self.union_size_counts.items())]


def _check_budget(total: int, budget: int | None, what: str) -> None:
    limit = DEFAULT_OUTCOME_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceeded(
            f"{what} would enumerate {total} outcomes, budget is {limit}",
            required=total,
            budget=limit,
        )


def enumerate_subset_scheme(
    params: Params, outcome_budget: int | None = None
) -> OracleResult:
    """Tabulate union sizes over all C(n, m)^k ordered subset collections."""
    n, m, k = params.n, params.m, params.k
    total = binomial(n, m) ** k
    _check_budget(total, outcome_budget, "subset scheme")
    masks = [
        sum(1 << v for v in combo)
        for combo in itertools.combinations(range(n), m)
    ]
    counts: dict[int, int] = {}
    for chosen in itertools.product(masks, repeat=k):
        union = 0
        for mask in chosen:
            union |= mask
        t = union.bit_count()
        counts[t] = counts.get(t, 0) + 1
    return OracleResult(
        params=params,
        scheme_tag=SCHEME_SUBSET,
        union_size_counts=counts,
        total_outcomes=total,
    )


def enumerate_multinomial_scheme(
    params: Params, outcome_budget: int | None = None
) -> OracleResult:
    """Tabulate distinct-node counts over all n^(mk) node sequences, plus the
    counts restricted to outcomes whose every stage is repetition-free."""
    n, m, k = params.n, params.m, params.k
    total = n ** (m * k)
    _check_budget(total, outcome_budget, "multinomial scheme")
    counts: dict[int, int] = {}
    conditional: dict[int, int] = {}
    for sequence in itertools.product(range(n), repeat=m * k):
        union = 0
        stages_distinct = True
        for stage in range(k):
            stage_mask = 0
            for v in sequence[stage * m : (stage + 1) * m]:
                stage_mask |= 1 << v
            if stage_mask.bit_count() != m:
                stages_distinct = False
            union |= stage_mask
        t = union.bit_count()
        counts[t] = counts.get(t, 0) + 1
        if stages_distinct:
            conditional[t] = conditional.get(t, 0) + 1
    return OracleResult(
        params=params,
        scheme_tag=SCHEME_MULTINOMIAL,
        union_size_counts=counts,
        total_outcomes=total,
        conditional_distinct_counts=conditional,
    )


@dataclass(frozen=True)
class CrosscheckRow:
    t: int
    nested: Fraction
    closed: Fraction


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of pitting the nested formula, the closed form, and (budget
    permitting) exhaustive enumeration against each other. Disagreements
    are listed per t rather than silently reconciled; the enumeration, when
    available, is the arbiter."""

    params: Params
    nested_vs_closed_agree: bool
    discrepancies: tuple[CrosscheckRow, ...]
    enumeration_available: bool
    enumeration_agrees_closed: bool | None
    enumeration_agrees_nested: bool | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "m": self.params.m,
            "k": self.params.k,
            "nested_vs_closed_agree": self.nested_vs_closed_agree,
            "discrepancies": [
                {
                    "t": row.t,
                    "nested": rational_to_json(row.nested),
                    "closed": rational_to_json(row.closed),
                }
                for row in self.discrepancies
            ],
            "enumeration_available": self.enumeration_available,
            "enumeration_agrees_closed": self.enumeration_agrees_closed,
            "enumeration_agrees_nested": self.enumeration_agrees_nested,
        }

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["t", "nested_num", "nested_den", "closed_num", "closed_den"]
        rows = [
            [row.t, str(row.nested.numerator), str(row.nested.denominator),
             str(row.closed.numerator), str(row.closed.denominator)]
            for row in self.discrepancies
        ]
        return header, rows


def crosscheck(
    params: Params,
    term_budget: int | None = None,
    outcome_budget: int | None = None,
) -> CrosscheckReport:
    """Compare the two closed-form routes per t, then arbitrate by enumeration
    when it fits the budget. Raises for k < 4 (the nested formula does not
    exist there) and when the nested evaluation itself is over budget."""
    nested = nested_pmf_terms(params, term_budget)
    # The paper's closed form: C(n, t) * q_count(k, m, t) of C(n, m)^k outcomes.
    n, m, k = params.n, params.m, params.k
    outcomes = binomial(n, m) ** k
    closed = {t: Fraction(binomial(n, t) * q_count(k, m, t), outcomes) for t in nested}
    discrepancies = tuple(
        CrosscheckRow(t=t, nested=nested[t], closed=closed[t])
        for t in sorted(nested)
        if nested[t] != closed[t]
    )
    try:
        oracle = enumerate_subset_scheme(params, outcome_budget)
    except BudgetExceeded:
        return CrosscheckReport(
            params=params,
            nested_vs_closed_agree=not discrepancies,
            discrepancies=discrepancies,
            enumeration_available=False,
            enumeration_agrees_closed=None,
            enumeration_agrees_nested=None,
        )
    reference = oracle.to_distribution()
    return CrosscheckReport(
        params=params,
        nested_vs_closed_agree=not discrepancies,
        discrepancies=discrepancies,
        enumeration_available=True,
        enumeration_agrees_closed=reference.pmf == closed,
        enumeration_agrees_nested=reference.pmf == nested,
    )
