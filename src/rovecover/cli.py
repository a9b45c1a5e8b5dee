"""Command-line front end.

Every subcommand maps onto one library operation and prints a JSON
envelope (or a CSV table) on stdout. Validation problems exit 2 with a
single-line diagnostic on stderr; refusals to exceed a work budget exit 3.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

# rational_to_json is not called here; perfbench's tracer wraps it by this name.
from .combinatorics import ScalarResult, rational_to_json, stirling2  # noqa: F401
from .enumeration import (
    crosscheck,
    enumerate_multinomial_scheme,
    enumerate_subset_scheme,
)
from .errors import BudgetExceeded
from .multinomial_scheme import (
    markov_repetition_bound,
    multinomial_coverage_pmf,
    theorem2_check,
)
from .planner import DEFAULT_K_MAX, PlanQuery, min_agents_confident, min_agents_expected
from .subset_scheme import (
    SCHEME_MULTINOMIAL,
    SCHEME_SUBSET,
    Params,
    coverage_pmf,
    mean_coverage,
    tail_probability,
)

FORMAT_VERSION = "1.0.0"
BUDGET_ENV_VAR = "ROVE_COVER_BUDGET"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # Single-line diagnostics, exit status 2, no usage dump.
    def error(self, message):
        raise _CliError(message)


class _CliError(Exception):
    pass


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _effective_budget(args) -> int | None:
    """--budget, else the environment's budget, else None (the library's)."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if args.budget is not None or raw is None:
        return args.budget
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError:
        raise _CliError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")


def _params(args) -> Params:
    return Params(args.n, args.m, args.k)


def _pmf(args):
    if args.scheme == SCHEME_SUBSET:
        return coverage_pmf(_params(args))
    return multinomial_coverage_pmf(_params(args))


def _dist(args):
    dist = _pmf(args)
    if args.t is None:
        return dist
    return ScalarResult("probability", dist.probability(args.t), {"t": args.t},
                        context={"scheme": args.scheme})


def _crosscheck(args):
    budget = _effective_budget(args)
    return crosscheck(_params(args), term_budget=budget, outcome_budget=budget)


def _enumerate(args):
    budget = _effective_budget(args)
    if args.scheme == SCHEME_SUBSET:
        return enumerate_subset_scheme(_params(args), outcome_budget=budget)
    return enumerate_multinomial_scheme(_params(args), outcome_budget=budget)


# Sampling imports monte_carlo (and so numpy) when it runs, so the exact
# commands never load it.
def _sample(args):
    from .monte_carlo import ComparisonRun, SimulationConfig, compare, simulate

    config = SimulationConfig(_params(args), args.trials, args.seed, args.scheme,
                              args.workers)
    empirical = simulate(config)
    if args.command == "simulate":
        return empirical
    return ComparisonRun(compare(empirical, _pmf(args)), empirical)


def _plan(args):
    query = PlanQuery(
        n=args.n,
        m=args.m,
        expected_fraction=args.alpha,
        threshold=args.tau,
        confidence=args.p,
        scheme_tag=args.scheme,
        k_max=args.k_max,
    )
    if args.alpha is not None:
        return min_agents_expected(query)
    return min_agents_confident(query)


def _flag(name, **options):
    return name, options


_N = _flag("--n", type=int, required=True, help="node count")
_M = _flag("--m", type=int, required=True, help="nodes visited per agent")
_K = _flag("--k", type=int, required=True, help="agent count")
_PARAMS = (_N, _M, _K)
_SCHEME = _flag(
    "--scheme",
    choices=[SCHEME_SUBSET, SCHEME_MULTINOMIAL],
    default=SCHEME_SUBSET,
    help="allocation scheme (default: subset)",
)
_SAMPLING = (
    *_PARAMS,
    _SCHEME,
    _flag("--trials", type=_positive_int, default=100_000),
    _flag("--seed", type=int, default=0),
    _flag("--workers", type=_positive_int, default=1),
)

# command -> (help, flags, call). Each call turns the parsed args into a
# result that prints itself through to_json_dict() / to_csv_rows(); every
# command also takes --format.
_COMMANDS = {
    "dist": ("exact coverage PMF", (
        *_PARAMS, _SCHEME,
        _flag("--t", type=int, help="report only pmf(t) instead of the whole table"),
    ), _dist),
    "mean": ("exact expected coverage (subset scheme)", _PARAMS,
             lambda args: ScalarResult("mean", mean_coverage(_params(args)))),
    "tail": ("Pr(coverage >= tau) (subset scheme)", (
        *_PARAMS, _flag("--tau", type=int, required=True, help="coverage threshold"),
    ), lambda args: ScalarResult("probability", tail_probability(_params(args), args.tau),
                                 {"tau": args.tau})),
    "bounds": ("repetition bounds and distinctness probability", (
        *_PARAMS,
        _flag("--epsilon", type=_positive_int, default=1,
              help="repetition-pair threshold in the Markov bound (default: 1)"),
    ), lambda args: markov_repetition_bound(_params(args), epsilon=args.epsilon)),
    "theorem2": ("per-t scheme comparison inequality", _PARAMS,
                 lambda args: theorem2_check(_params(args))),
    "stirling": ("Stirling number of the second kind", (
        _flag("--N", type=int, required=True, help="set size"),
        _flag("--K", type=int, required=True, help="block count"),
    ), lambda args: ScalarResult("value", stirling2(args.N, args.K),
                                 {"N": args.N, "K": args.K})),
    "crosscheck": (
        "nested formula vs closed form vs enumeration, with discrepancy report",
        (*_PARAMS, _flag("--budget", type=_positive_int, help="work budget override")),
        _crosscheck,
    ),
    "enumerate": ("exhaustive enumeration oracle", (
        *_PARAMS, _SCHEME,
        _flag("--budget", type=_positive_int, help="outcome budget override"),
    ), _enumerate),
    "simulate": ("Monte Carlo simulation", _SAMPLING, _sample),
    "compare": ("simulate and compare against the exact PMF", _SAMPLING, _sample),
    "plan": ("minimal agent count for a coverage target", (
        _N, _M, _SCHEME,
        _flag("--k-max", type=_positive_int, default=DEFAULT_K_MAX),
        _flag("--alpha", type=_fraction_arg, help="target expected coverage fraction"),
        _flag("--tau", type=int, help="coverage threshold"),
        _flag("--p", type=_fraction_arg, help="confidence for the threshold target"),
    ), _plan),
}

_HANDLERS = {command: call for command, (_, _, call) in _COMMANDS.items()}

# Parsed values that are not echoed back.
_NOT_ECHOED = ("command", "output_format", "budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rovecover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, options in flags:
            p.add_argument(name, **options)
        p.add_argument(
            "--format",
            choices=["json", "csv"],
            default="json",
            dest="output_format",
            help="output format (default: json)",
        )
    return parser


def _echo(args) -> dict:
    """The parsed flags in flag order, rationals as strings. An absent
    optional value is left out (dist's --t), except that plan echoes its
    unused targets as null."""
    return {
        key: str(value) if isinstance(value, Fraction) else value
        for key, value in vars(args).items()
        if key not in _NOT_ECHOED and (value is not None or args.command == "plan")
    }


def _emit(command: str, echo: dict, body, output_format: str):
    """Print ``body`` as a CSV table (it is a (header, rows) pair), or in the
    JSON envelope (it is the result's JSON dict)."""
    if output_format == "csv":
        header, rows = body
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    envelope = {
        "command": command,
        "params_echo": echo,
        "result": body,
        "format_version": FORMAT_VERSION,
    }
    print(json.dumps(envelope, indent=2))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = _HANDLERS[args.command](args)
        # Serialized before anything is printed, so an answer too large to
        # print fails with no partial output.
        csv_format = args.output_format == "csv"
        body = result.to_csv_rows() if csv_format else result.to_json_dict()
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(args.command, _echo(args), body, args.output_format)
    # Only a plan can end past its cap; it prints its answer and exits 3.
    return EXIT_BUDGET if getattr(result, "cap_exceeded", False) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
