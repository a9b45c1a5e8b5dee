"""Independent checker for the outputs of ``rovecover.cli.main``.

Nothing here imports rovecover. Exact PMFs come from the covered-count
chain: a DP over "nodes covered so far", advanced one agent (subset
scheme) or one ball (multinomial scheme) at a time, whose integer counts
add up to the number of equally likely outcomes. Everything else is
checked against the paper's closed forms or the definitions:

- ``mean`` is n (1 - miss^k); ``tail`` and ``dist --t`` sum the chain;
- ``stirling`` is the explicit alternating sum divided by K!;
- ``theorem2`` rows are rebuilt from chain PMFs;
- a plan's k meets its target and every smaller k misses it;
- Monte Carlo counts add up, stay in the support, pass a chi-square test
  against the chain PMF, and do not depend on the worker count.

The checker runs after the timed loop and is the only code of the
benchmark that lifts CPython's int->str digit limit.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

FORMAT_VERSION = "1.0.0"
# A Monte Carlo table fails when its chi-square p-value is below this.
CHI2_ALPHA = 1e-6
# Adjacent t bins are pooled until each expects this many trials.
CHI2_MIN_EXPECTED = 10.0


class CheckError(Exception):
    """An output disagrees with the checker's own computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# Covered-count chains ------------------------------------------------------


def subset_chain(n: int, m: int):
    """Yield (k, counts) for k = 1, 2, ...: counts[c] is the number of
    ordered k-tuples of m-subsets of n nodes whose union has c nodes."""
    weights: dict[int, list[int]] = {}
    counts = {m: math.comb(n, m)}
    k = 1
    while True:
        yield k, counts
        nxt: dict[int, int] = {}
        for c, ways in counts.items():
            row = weights.get(c)
            if row is None:
                row = weights[c] = [math.comb(c, j) * math.comb(n - c, m - j)
                                    for j in range(m + 1)]
            for j in range(m + 1):
                w = row[j]
                if w:
                    t = c + m - j
                    nxt[t] = nxt.get(t, 0) + ways * w
        counts = nxt
        k += 1


def multinomial_chain(n: int, m: int):
    """Yield (k, counts) for k = 1, 2, ...: counts[c] is the number of node
    sequences of length m*k with exactly c distinct nodes."""
    counts = {0: 1}
    k = 0
    while True:
        for _ in range(m):
            nxt: dict[int, int] = {}
            for c, ways in counts.items():
                if c:
                    nxt[c] = nxt.get(c, 0) + ways * c
                if c < n:
                    nxt[c + 1] = nxt.get(c + 1, 0) + ways * (n - c)
            counts = nxt
        k += 1
        yield k, counts


def support(scheme: str, n: int, m: int, k: int) -> tuple[int, int]:
    return (m if scheme == "subset" else 1), min(k * m, n)


def outcome_total(scheme: str, n: int, m: int, k: int) -> int:
    return math.comb(n, m) ** k if scheme == "subset" else n ** (m * k)


def chain_counts(scheme: str, n: int, m: int, k: int) -> dict[int, int]:
    chain = subset_chain(n, m) if scheme == "subset" else multinomial_chain(n, m)
    for kk, counts in chain:
        if kk == k:
            return counts


def chain_pmf(scheme: str, n: int, m: int, k: int) -> dict[int, Fraction]:
    total = outcome_total(scheme, n, m, k)
    return {t: Fraction(c, total) for t, c in chain_counts(scheme, n, m, k).items()}


def tail_count(counts: dict[int, int], tau: int) -> int:
    return sum(c for t, c in counts.items() if t >= tau)


def stirling2_explicit(big_n: int, big_k: int) -> int:
    total = sum(
        (-1) ** j * math.comb(big_k, j) * (big_k - j) ** big_n for j in range(big_k + 1)
    )
    quotient, remainder = divmod(total, math.factorial(big_k))
    _require(remainder == 0, f"alternating sum for S({big_n},{big_k}) is not divisible")
    return quotient


def miss_ratio(scheme: str, n: int, m: int) -> Fraction:
    """Probability that one agent (subset) or one stage (multinomial) misses
    a fixed node."""
    return Fraction(n - m, n) if scheme == "subset" else Fraction(n - 1, n) ** m


def all_distinct(n: int, m: int, k: int) -> Fraction:
    return Fraction(math.perm(n, m), n**m) ** k


# Rational fields -----------------------------------------------------------


def _rational(obj: dict) -> tuple[int, int]:
    num, den = int(obj["num"]), int(obj["den"])
    _require(den > 0, f"non-positive denominator in {obj!r:.80}")
    _require(obj["approx"] == num / den, f"approx {obj['approx']} is not num/den")
    return num, den


def _equals(obj: dict, value: Fraction | int, what: str) -> None:
    num, den = _rational(obj)
    value = Fraction(value)
    _require(num * value.denominator == value.numerator * den,
             f"{what}: {num}/{den} differs from {value}")


def _equals_ratio(obj: dict, count: int, total: int, what: str) -> None:
    # Cross-multiplied, so no gcd of large integers is needed.
    num, den = _rational(obj)
    _require(num * total == count * den, f"{what}: {num}/{den} != {count}/{total}")


# Chi-square ----------------------------------------------------------------


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution (regularized gamma Q)."""
    if x <= 0.0:
        return 1.0
    a, x = dof / 2.0, x / 2.0
    log_front = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while abs(term) > abs(total) * 1e-16:
            ap += 1.0
            term *= x / ap
            total += term
        return max(0.0, 1.0 - total * math.exp(log_front))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > tiny else tiny
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_front) * h


def chi_square_test(counts: dict[int, int], pmf: dict[int, Fraction], trials: int) -> float:
    """p-value of the observed table against the exact PMF, with adjacent
    bins pooled until each expects CHI2_MIN_EXPECTED trials."""
    bins = []
    obs = exp = 0.0
    for t in sorted(set(pmf) | set(counts)):
        obs += counts.get(t, 0)
        exp += trials * float(pmf.get(t, 0))
        if exp >= CHI2_MIN_EXPECTED:
            bins.append((obs, exp))
            obs = exp = 0.0
    if bins:
        last_obs, last_exp = bins[-1]
        bins[-1] = (last_obs + obs, last_exp + exp)
    else:
        bins.append((obs, exp))
    if len(bins) == 1:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return chi2_sf(stat, len(bins) - 1)


# The checker ---------------------------------------------------------------


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


class Checker:
    """Checks one run's records; ``check`` raises CheckError on a mismatch."""

    def __init__(self):
        self.simulations: dict[tuple, tuple] = {}

    def check(self, argv: list[str], stdout: str) -> None:
        # The program may not lift the int->str limit; the checker must, to
        # read and rebuild answers with thousands of digits.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            self._check(argv, stdout)
        finally:
            sys.set_int_max_str_digits(limit)

    def _check(self, argv: list[str], stdout: str) -> None:
        envelope = json.loads(stdout)
        command = argv[0]
        _require(envelope["command"] == command, "command field differs from argv")
        _require(envelope["format_version"] == FORMAT_VERSION, "unexpected format_version")
        flags = _flags(argv)
        echo = envelope["params_echo"]
        for key in ("n", "m", "k"):
            if key in flags:
                _require(echo[key] == int(flags[key]), f"params_echo {key} differs")
        getattr(self, "_" + command)(flags, envelope["result"])

    # exact commands

    @staticmethod
    def _nmk(f):
        return int(f["n"]), int(f["m"]), int(f["k"])

    def _pmf_table(self, scheme, n, m, k, rows):
        lo, hi = support(scheme, n, m, k)
        _require([row["t"] for row in rows] == list(range(lo, hi + 1)),
                 "pmf rows do not cover the support in order")
        counts = chain_counts(scheme, n, m, k)
        total = outcome_total(scheme, n, m, k)
        for row in rows:
            _equals_ratio(row, counts.get(row["t"], 0), total, f"pmf({row['t']})")
        _require(sum(counts.get(t, 0) for t in range(lo, hi + 1)) == total,
                 "pmf does not sum to 1")

    def _dist(self, f, res):
        n, m, k = self._nmk(f)
        scheme = f.get("scheme", "subset")
        _require(res["scheme"] == scheme, "scheme differs")
        if "t" in f:
            t = int(f["t"])
            _require(res["t"] == t, "t differs")
            counts = chain_counts(scheme, n, m, k)
            _equals_ratio(res["probability"], counts.get(t, 0),
                          outcome_total(scheme, n, m, k), f"pmf({t})")
            return
        _require((res["n"], res["m"], res["k"]) == (n, m, k), "n, m, k differ")
        self._pmf_table(scheme, n, m, k, res["pmf"])

    def _mean(self, f, res):
        n, m, k = self._nmk(f)
        _equals(res["mean"], n * (1 - miss_ratio("subset", n, m) ** k), "mean")

    def _tail(self, f, res):
        n, m, k = self._nmk(f)
        tau = int(f["tau"])
        _require(res["tau"] == tau, "tau differs")
        counts = chain_counts("subset", n, m, k)
        _equals_ratio(res["probability"], tail_count(counts, tau),
                      outcome_total("subset", n, m, k), f"tail({tau})")

    def _bounds(self, f, res):
        n, m, k = self._nmk(f)
        eps = int(f.get("epsilon", 1))
        mean = Fraction(math.comb(m, 2), n)
        single, every = mean / eps, k * mean / eps
        _equals(res["repetition_mean"], mean, "repetition_mean")
        _equals(res["single_stage_markov_bound"], min(single, 1), "single-stage bound")
        _equals(res["all_stages_markov_bound"], min(every, 1), "all-stages bound")
        _require(res["single_stage_clamped"] == (single > 1), "single_stage_clamped")
        _require(res["all_stages_clamped"] == (every > 1), "all_stages_clamped")
        _equals(res["all_distinct_probability"], all_distinct(n, m, k), "all-distinct")

    def _theorem2(self, f, res):
        n, m, k = self._nmk(f)
        subset = chain_pmf("subset", n, m, k)
        multi = chain_pmf("multinomial", n, m, k)
        distinct = all_distinct(n, m, k)
        lo, hi = support("subset", n, m, k)
        rows = res["rows"]
        _require([row["t"] for row in rows] == list(range(lo, hi + 1)), "theorem2 rows")
        for row in rows:
            t = row["t"]
            lhs, rhs = distinct * subset.get(t, 0), multi.get(t, 0)
            _equals(row["lhs"], lhs, f"theorem2 lhs({t})")
            _equals(row["rhs"], rhs, f"theorem2 rhs({t})")
            _require(row["holds"] is (lhs <= rhs), f"theorem2 holds flag at t={t}")
        _require(res["all_hold"] is all(row["holds"] for row in rows), "theorem2 all_hold")
        _equals(res["condition_value"], k * Fraction(math.comb(m, 2), n), "condition")

    def _stirling(self, f, res):
        big_n, big_k = int(f["N"]), int(f["K"])
        _require((res["N"], res["K"]) == (big_n, big_k), "N, K differ")
        _require(int(res["value"]) == stirling2_explicit(big_n, big_k),
                 f"S({big_n},{big_k}) differs from the alternating sum")

    def _crosscheck(self, f, res):
        n, m, k = self._nmk(f)
        budget = int(f.get("budget", 10**7))
        available = math.comb(n, m) ** k <= budget
        _require(res["nested_vs_closed_agree"] is True and res["discrepancies"] == [],
                 "nested formula and closed form disagree")
        _require(res["enumeration_available"] is available, "enumeration_available")
        expected = True if available else None
        _require(res["enumeration_agrees_closed"] is expected
                 and res["enumeration_agrees_nested"] is expected, "enumeration agreement")

    def _enumerate(self, f, res):
        n, m, k = self._nmk(f)
        scheme = f.get("scheme", "subset")
        counts = chain_counts(scheme, n, m, k)
        total = outcome_total(scheme, n, m, k)
        _require(res["total_outcomes"] == total, "total_outcomes")
        _require({row["t"]: row["count"] for row in res["counts"]} == counts,
                 "enumerated counts differ from the chain")
        self._pmf_table(scheme, n, m, k, res["pmf"])
        if scheme == "multinomial":
            # Outcomes whose every stage is repetition-free: each stage is an
            # ordered m-subset, so m!^k times the subset chain's count.
            distinct = chain_counts("subset", n, m, k) if m <= n else {}
            scale = math.factorial(m) ** k
            _require({row["t"]: row["count"] for row in res["conditional_distinct_counts"]}
                     == {t: c * scale for t, c in distinct.items()},
                     "conditional distinct counts")

    def _plan(self, f, res):
        n, m = int(f["n"]), int(f["m"])
        scheme = f.get("scheme", "subset")
        k = res["k"]
        _require(res["cap_exceeded"] is False and res["verified_at_k_minus_1"] is True,
                 "plan flags")
        if "alpha" in f:
            alpha = Fraction(f["alpha"])
            miss = miss_ratio(scheme, n, m)
            _require(res["target"]["scheme"] == scheme, "plan target scheme")
            _equals(res["target"]["expected_fraction"], alpha, "plan target")
            _require(1 - miss**k >= alpha, f"expected coverage at k={k} misses the target")
            _require(k == 1 or 1 - miss ** (k - 1) < alpha, f"k={k} is not minimal")
            _equals(res["achieved"], 1 - miss**k, "plan achieved")
            return
        tau, p = int(f["tau"]), Fraction(f["p"])
        _require(res["target"]["threshold"] == tau, "plan threshold")
        _equals(res["target"]["confidence"], p, "plan confidence")
        chain = subset_chain(n, m) if scheme == "subset" else multinomial_chain(n, m)
        for kk, counts in chain:
            total = outcome_total(scheme, n, m, kk)
            hits = tail_count(counts, tau)
            if kk == k:
                _require(hits >= p * total, f"tail at k={k} misses the target")
                _equals_ratio(res["achieved"], hits, total, "plan achieved")
                return
            _require(hits < p * total, f"k={kk} < {k} already meets the target")

    # Monte Carlo

    def _empirical(self, f, emp):
        n, m, k = self._nmk(f)
        scheme = f.get("scheme", "subset")
        trials, seed = int(f.get("trials", 100_000)), int(f.get("seed", 0))
        _require((emp["n"], emp["m"], emp["k"], emp["trials"], emp["seed"], emp["scheme"])
                 == (n, m, k, trials, seed, scheme), "simulation echo differs")
        counts = {row["t"]: row["count"] for row in emp["counts"]}
        lo, hi = support(scheme, n, m, k)
        _require(all(lo <= t <= hi for t in counts), "count outside the support")
        _require(sum(counts.values()) == trials, "counts do not sum to the trials")
        _require(all(row["frequency"] == row["count"] / trials for row in emp["counts"]),
                 "frequency is not count / trials")
        reps = emp.get("repetition_event_count")
        key = (scheme, n, m, k, trials, seed)
        seen = self.simulations.setdefault(key, (counts, reps))
        _require(seen == (counts, reps), "counts depend on the worker count")
        pmf = chain_pmf(scheme, n, m, k)
        p_value = chi_square_test(counts, pmf, trials)
        _require(p_value >= CHI2_ALPHA, f"chi-square p-value {p_value:.3g} for {key}")
        if scheme == "multinomial":
            q = float(1 - all_distinct(n, m, k))
            spread = 6.0 * math.sqrt(trials * q * (1 - q)) + 1.0
            _require(reps is not None and abs(reps - trials * q) <= spread,
                     "repetition events far from their exact expectation")
        return counts, pmf, trials

    def _simulate(self, f, res):
        _require(res["workers"] == int(f.get("workers", 1)), "workers differ")
        self._empirical(f, res)

    def _compare(self, f, res):
        counts, pmf, trials = self._empirical(f, res["empirical"])
        ts = sorted(set(counts) | set(pmf))
        deviations = [abs(counts.get(t, 0) / trials - float(pmf.get(t, 0))) for t in ts]
        cmp = res["comparison"]
        _require(math.isclose(cmp["total_variation_distance"], 0.5 * sum(deviations),
                              rel_tol=1e-9, abs_tol=1e-12), "total variation distance")
        _require(math.isclose(cmp["max_abs_deviation"], max(deviations),
                              rel_tol=1e-9, abs_tol=1e-12), "max_abs_deviation")
        # Chi-square as documented: bins expecting < 5 trials pool rightwards.
        bins, obs, exp = [], 0.0, 0.0
        for t in ts:
            obs += counts.get(t, 0)
            exp += trials * float(pmf.get(t, 0))
            if exp >= 5.0:
                bins.append((obs, exp))
                obs = exp = 0.0
        if obs or exp:
            if bins:
                bins[-1] = (bins[-1][0] + obs, bins[-1][1] + exp)
            else:
                bins.append((obs, exp))
        stat = sum((o - e) ** 2 / e for o, e in bins if e > 0)
        _require(cmp["degrees_of_freedom"] == max(len(bins) - 1, 0), "degrees_of_freedom")
        _require(math.isclose(cmp["chi_square_statistic"], stat, rel_tol=1e-9, abs_tol=1e-9),
                 "chi_square_statistic")
