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
from typing import TYPE_CHECKING

from .combinatorics import rational_to_json, stirling2
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

if TYPE_CHECKING:
    from .monte_carlo import SimulationConfig

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


def _budget_from_env() -> int | None:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _CliError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    if value < 1:
        raise _CliError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _effective_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    return _budget_from_env()


def _add_params_flags(parser, with_k=True):
    parser.add_argument("--n", type=int, required=True, help="node count")
    parser.add_argument("--m", type=int, required=True, help="nodes visited per agent")
    if with_k:
        parser.add_argument("--k", type=int, required=True, help="agent count")


def _add_scheme_flag(parser):
    parser.add_argument(
        "--scheme",
        choices=[SCHEME_SUBSET, SCHEME_MULTINOMIAL],
        default=SCHEME_SUBSET,
        help="allocation scheme (default: subset)",
    )


def _add_format_flag(parser):
    parser.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        dest="output_format",
        help="output format (default: json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rovecover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="exact coverage PMF")
    _add_params_flags(p)
    _add_scheme_flag(p)
    p.add_argument(
        "--t", type=int, dest="point_t",
        help="report only pmf(t) instead of the whole table",
    )
    _add_format_flag(p)

    p = sub.add_parser("mean", help="exact expected coverage (subset scheme)")
    _add_params_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("tail", help="Pr(coverage >= tau) (subset scheme)")
    _add_params_flags(p)
    p.add_argument("--tau", type=int, required=True, help="coverage threshold")
    _add_format_flag(p)

    p = sub.add_parser("bounds", help="repetition bounds and distinctness probability")
    _add_params_flags(p)
    p.add_argument(
        "--epsilon", type=_positive_int, default=1,
        help="repetition-pair threshold in the Markov bound (default: 1)",
    )
    _add_format_flag(p)

    p = sub.add_parser("theorem2", help="per-t scheme comparison inequality")
    _add_params_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("stirling", help="Stirling number of the second kind")
    p.add_argument("--N", type=int, required=True, dest="big_n", help="set size")
    p.add_argument("--K", type=int, required=True, dest="big_k", help="block count")
    _add_format_flag(p)

    p = sub.add_parser(
        "crosscheck",
        help="nested formula vs closed form vs enumeration, with discrepancy report",
    )
    _add_params_flags(p)
    p.add_argument("--budget", type=_positive_int, help="work budget override")
    _add_format_flag(p)

    p = sub.add_parser("enumerate", help="exhaustive enumeration oracle")
    _add_params_flags(p)
    _add_scheme_flag(p)
    p.add_argument("--budget", type=_positive_int, help="outcome budget override")
    _add_format_flag(p)

    for name, help_text in [
        ("simulate", "Monte Carlo simulation"),
        ("compare", "simulate and compare against the exact PMF"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_params_flags(p)
        _add_scheme_flag(p)
        p.add_argument("--trials", type=_positive_int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=_positive_int, default=1)
        _add_format_flag(p)

    p = sub.add_parser("plan", help="minimal agent count for a coverage target")
    _add_params_flags(p, with_k=False)
    p.add_argument("--alpha", type=_fraction_arg, help="target expected coverage fraction")
    p.add_argument("--tau", type=int, help="coverage threshold")
    p.add_argument("--p", type=_fraction_arg, help="confidence for the threshold target")
    p.add_argument("--k-max", type=_positive_int, default=DEFAULT_K_MAX)
    _add_scheme_flag(p)
    _add_format_flag(p)

    return parser


def _cmd_dist(args):
    params = Params(args.n, args.m, args.k)
    dist = (
        coverage_pmf(params)
        if args.scheme == SCHEME_SUBSET
        else multinomial_coverage_pmf(params)
    )
    echo = {"n": args.n, "m": args.m, "k": args.k, "scheme": args.scheme}
    if args.point_t is not None:
        echo["t"] = args.point_t
        value = dist.probability(args.point_t)
        rj = rational_to_json(value)
        result = {"scheme": args.scheme, "t": args.point_t, "probability": rj}
        return echo, result, lambda: (
            ["t", "num", "den", "approx"],
            [[args.point_t, rj["num"], rj["den"], rj["approx"]]],
        )
    return echo, dist.to_json_dict(), dist.to_csv_rows


def _cmd_mean(args):
    params = Params(args.n, args.m, args.k)
    value = mean_coverage(params)
    echo = {"n": args.n, "m": args.m, "k": args.k}
    rj = rational_to_json(value)
    return echo, {"mean": rj}, lambda: (
        ["num", "den", "approx"], [[rj["num"], rj["den"], rj["approx"]]]
    )


def _cmd_tail(args):
    params = Params(args.n, args.m, args.k)
    value = tail_probability(params, args.tau)
    echo = {"n": args.n, "m": args.m, "k": args.k, "tau": args.tau}
    rj = rational_to_json(value)
    return echo, {"tau": args.tau, "probability": rj}, lambda: (
        ["tau", "num", "den", "approx"],
        [[args.tau, rj["num"], rj["den"], rj["approx"]]],
    )


def _cmd_bounds(args):
    params = Params(args.n, args.m, args.k)
    report = markov_repetition_bound(params, epsilon=args.epsilon)
    echo = {"n": args.n, "m": args.m, "k": args.k, "epsilon": args.epsilon}
    payload = report.to_json_dict()

    def csv_table():
        rows = [
            [name, *[payload[name][f] for f in ("num", "den", "approx")]]
            for name in (
                "repetition_mean",
                "single_stage_markov_bound",
                "all_stages_markov_bound",
                "all_distinct_probability",
            )
        ]
        return ["quantity", "num", "den", "approx"], rows

    return echo, payload, csv_table


def _cmd_theorem2(args):
    params = Params(args.n, args.m, args.k)
    report = theorem2_check(params)
    echo = {"n": args.n, "m": args.m, "k": args.k}

    def csv_table():
        rows = [
            [
                row.t,
                str(row.lhs.numerator),
                str(row.lhs.denominator),
                str(row.rhs.numerator),
                str(row.rhs.denominator),
                row.holds,
            ]
            for row in report.rows
        ]
        return ["t", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "holds"], rows

    return echo, report.to_json_dict(), csv_table


def _cmd_stirling(args):
    value = stirling2(args.big_n, args.big_k)
    echo = {"N": args.big_n, "K": args.big_k}
    result = {"N": args.big_n, "K": args.big_k, "value": str(value)}
    return echo, result, lambda: (
        ["N", "K", "value"], [[args.big_n, args.big_k, result["value"]]]
    )


def _cmd_crosscheck(args):
    params = Params(args.n, args.m, args.k)
    budget = _effective_budget(args)
    report = crosscheck(params, term_budget=budget, outcome_budget=budget)
    echo = {"n": args.n, "m": args.m, "k": args.k}

    def csv_table():
        rows = [
            [
                row.t,
                str(row.nested.numerator),
                str(row.nested.denominator),
                str(row.closed.numerator),
                str(row.closed.denominator),
            ]
            for row in report.discrepancies
        ]
        return ["t", "nested_num", "nested_den", "closed_num", "closed_den"], rows

    return echo, report.to_json_dict(), csv_table


def _cmd_enumerate(args):
    params = Params(args.n, args.m, args.k)
    budget = _effective_budget(args)
    if args.scheme == SCHEME_SUBSET:
        oracle = enumerate_subset_scheme(params, outcome_budget=budget)
    else:
        oracle = enumerate_multinomial_scheme(params, outcome_budget=budget)
    echo = {"n": args.n, "m": args.m, "k": args.k, "scheme": args.scheme}
    return echo, oracle.to_json_dict(), lambda: (
        ["t", "count"], [[t, c] for t, c in sorted(oracle.union_size_counts.items())]
    )


# The sampling handlers import monte_carlo (and so numpy) when they run, so
# the exact commands never load it.
def _simulation_config(args) -> SimulationConfig:
    from .monte_carlo import SimulationConfig

    return SimulationConfig(
        params=Params(args.n, args.m, args.k),
        trials=args.trials,
        seed=args.seed,
        scheme_tag=args.scheme,
        workers=args.workers,
    )


def _simulation_echo(args) -> dict:
    return {
        "n": args.n,
        "m": args.m,
        "k": args.k,
        "scheme": args.scheme,
        "trials": args.trials,
        "seed": args.seed,
        "workers": args.workers,
    }


def _cmd_simulate(args):
    from .monte_carlo import simulate

    empirical = simulate(_simulation_config(args))
    return _simulation_echo(args), empirical.to_json_dict(), empirical.to_csv_rows


def _cmd_compare(args):
    from .monte_carlo import compare, simulate

    config = _simulation_config(args)
    empirical = simulate(config)
    exact = (
        coverage_pmf(config.params)
        if args.scheme == SCHEME_SUBSET
        else multinomial_coverage_pmf(config.params)
    )
    report = compare(empirical, exact)
    payload = {
        "comparison": report.to_json_dict(),
        "empirical": empirical.to_json_dict(),
    }
    header = [
        "total_variation_distance",
        "chi_square_statistic",
        "degrees_of_freedom",
        "max_abs_deviation",
    ]
    return _simulation_echo(args), payload, lambda: (
        header, [[getattr(report, name) for name in header]]
    )


def _cmd_plan(args):
    expected_mode = args.alpha is not None
    query = PlanQuery(
        n=args.n,
        m=args.m,
        expected_fraction=args.alpha,
        threshold=args.tau,
        confidence=args.p,
        scheme_tag=args.scheme,
        k_max=args.k_max,
    )
    result = min_agents_expected(query) if expected_mode else min_agents_confident(query)
    echo = {
        "n": args.n,
        "m": args.m,
        "scheme": args.scheme,
        "k_max": args.k_max,
        "alpha": str(args.alpha) if args.alpha is not None else None,
        "tau": args.tau,
        "p": str(args.p) if args.p is not None else None,
    }
    payload = result.to_json_dict()
    achieved = payload["achieved"]
    header = ["k", "achieved_num", "achieved_den", "achieved_approx",
              "verified_at_k_minus_1", "cap_exceeded"]
    return echo, payload, lambda: (header, [[
        result.k,
        achieved["num"],
        achieved["den"],
        achieved["approx"],
        result.verified_at_k_minus_1,
        result.cap_exceeded,
    ]])


_HANDLERS = {
    "dist": _cmd_dist,
    "mean": _cmd_mean,
    "tail": _cmd_tail,
    "bounds": _cmd_bounds,
    "theorem2": _cmd_theorem2,
    "stirling": _cmd_stirling,
    "crosscheck": _cmd_crosscheck,
    "enumerate": _cmd_enumerate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "plan": _cmd_plan,
}


def _emit(command: str, echo: dict, result: dict, csv_table, output_format: str):
    """Print the JSON envelope, or the CSV table: ``csv_table`` is a
    zero-argument callable returning (header, rows), called only for CSV."""
    if output_format == "csv":
        header, rows = csv_table()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    envelope = {
        "command": command,
        "params_echo": echo,
        "result": result,
        "format_version": FORMAT_VERSION,
    }
    print(json.dumps(envelope, indent=2))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        echo, result, csv_table = _HANDLERS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(args.command, echo, result, csv_table, args.output_format)
    if args.command == "plan" and result.get("cap_exceeded"):
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
