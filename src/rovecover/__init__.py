"""Exact coverage analysis for randomly roving agents over n network nodes.

k agents each visit m nodes; the package computes the exact probability
distribution of how many distinct nodes end up covered, under two
allocation schemes, with brute-force and Monte Carlo verifiers and a
minimal-agent planner on top.
"""

from .combinatorics import (
    binomial,
    falling_factorial,
    rational_from_json,
    rational_to_json,
    stirling2,
    stirling2_triangle,
)
from .enumeration import (
    CrosscheckReport,
    OracleResult,
    crosscheck,
    enumerate_multinomial_scheme,
    enumerate_subset_scheme,
)
from .errors import BudgetExceeded
from .multinomial_scheme import (
    BoundReport,
    Theorem2Report,
    all_distinct_probability,
    markov_repetition_bound,
    multinomial_coverage_pmf,
    r_count,
    r_via_stirling,
    repetition_mean,
    theorem2_check,
)
from .planner import (
    PlanQuery,
    PlanResult,
    min_agents_confident,
    min_agents_expected,
)
from .subset_scheme import (
    CoverageDistribution,
    Params,
    coverage_pmf,
    coverage_pmf_nested,
    mean_coverage,
    q_count,
    tail_probability,
)

__version__ = "0.1.0"

# The sampling names live in monte_carlo, which needs numpy; they are
# imported on first use (PEP 562), so the exact API starts without numpy.
_SAMPLING_NAMES = frozenset({
    "ComparisonReport",
    "EmpiricalDistribution",
    "SimulationConfig",
    "compare",
    "simulate",
    "subset_frequency_histogram",
})


def __getattr__(name):
    if name not in _SAMPLING_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import monte_carlo

    value = getattr(monte_carlo, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SAMPLING_NAMES)

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "ComparisonReport",
    "CoverageDistribution",
    "CrosscheckReport",
    "EmpiricalDistribution",
    "OracleResult",
    "Params",
    "PlanQuery",
    "PlanResult",
    "SimulationConfig",
    "Theorem2Report",
    "all_distinct_probability",
    "binomial",
    "compare",
    "coverage_pmf",
    "coverage_pmf_nested",
    "crosscheck",
    "enumerate_multinomial_scheme",
    "enumerate_subset_scheme",
    "falling_factorial",
    "markov_repetition_bound",
    "mean_coverage",
    "min_agents_confident",
    "min_agents_expected",
    "multinomial_coverage_pmf",
    "q_count",
    "r_count",
    "r_via_stirling",
    "rational_from_json",
    "rational_to_json",
    "repetition_mean",
    "simulate",
    "stirling2",
    "stirling2_triangle",
    "subset_frequency_histogram",
    "tail_probability",
    "theorem2_check",
]
