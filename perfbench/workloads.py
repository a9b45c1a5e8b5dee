"""Seeded operation lists for the three benchmark workloads.

A workload is an endless sequence of rounds; round r holds the same kinds
of operation in the same order in every run, so a run that attempts whole
rounds always fails the same share of its operations. Each operation is
the argv of one ``rovecover.cli.main`` call.

The sizes that set an operation's cost follow additive recurrences in r
(u_r = phase + r * step mod 1) whose phases come from the seed and whose
steps are distinct irrationals, one per size: any run of a few rounds
covers every size range, and every pair of sizes, evenly, so the cost mix
barely depends on the seed, while the seed still changes every input.
Inputs that hardly move the cost (t, tau, n jitter, simulation seeds) are
drawn from a ``random.Random`` seeded by workload and seed.

No operation repeats within a run, and no two operations share an entry of
the program's caches: every exact PMF claims its (k, m) pair per scheme
(``q_count`` and ``r_count`` are cached per (k, m, t), whatever n is), and
every confident-mode plan claims its whole m, since it scans k = 1, 2, ...
Only when a range is used up do later operations reuse a pair with a new
n, and then the program's caches answer part of them; the tiny
crosscheck/enumerate inputs recur after one pass with a ``--budget`` that
does not bind. A 30 s run of today's code uses at most 55-90 % of each
range (the README has the figures), so a commit that completes about 1.1
(``mc-sample``) to 1.5 (``plan-scan``) times as many rounds reaches the
reuse; the worker reports how many operations reused a pair.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import count

WORKLOADS = ("exact-queries", "plan-scan", "mc-sample")

# What a fresh interpreter imports before its first operation. Sampling
# needs numpy through monte_carlo, whether or not the CLI imports it.
READY_IMPORTS = {
    "exact-queries": ["rovecover.cli"],
    "plan-scan": ["rovecover.cli"],
    "mc-sample": ["rovecover.cli", "rovecover.monte_carlo"],
}

# The one exact-queries operation that fails today: its answer has more
# than 4300 decimal digits, beyond CPython's default int->str limit. Its
# inputs depend on the round only, never on the seed.
OVERFLOW_KIND = "stirling_overflow"
OVERFLOW_STIRLING_N = 3000
OVERFLOW_STIRLING_K = 40

# A run reads its peak resident set when this many rounds are done, and
# runs at least this many, so that the figure measures a fixed amount of
# work however fast the program is. Today's code completes two to five
# times as many rounds in a 30 s run.
RSS_ROUNDS = {"exact-queries": 14, "plan-scan": 10, "mc-sample": 16}

# n of the subset simulations below the n = 2048 sampler split. The
# partial-shuffle sampler there keeps a 4096 x n int64 array per block:
# 32.5-44 MiB here. Arrays above glibc's largest dynamic mmap threshold
# (32 MiB) are mapped per block and returned when freed, so the peak
# resident set stays the same from run to run; smaller ones stay in the
# heap and in the worker threads' arenas, and the peak then moved by 10-14 %
# between seeds and between runs of one seed. Near n = 2048 (64 MiB) the
# sampler slowed the most beside a cache-thrashing process.
SMALL_N_RANGE = (1040, 1400)

# Rationals the planner targets are drawn from.
_TARGETS = [Fraction(a, b) for a, b in
            ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (9, 10), (19, 20))]
# (tau / n, confidence) of the confident-mode plans of a round, per scheme.
_CONFIDENT_TARGETS = [(0.70, Fraction(1, 2)), (0.75, Fraction(2, 3)),
                      (0.80, Fraction(3, 4)), (0.85, Fraction(9, 10))]

# Expected-mode plans re-verify by PMF only at n <= 64 (planner constant).
_PMF_VERIFY_MAX_N = 64
# Keep every exact answer well below CPython's 4300-digit str limit.
_MAX_ANSWER_DIGITS = 3500

# Tiny inputs whose enumeration runs in milliseconds.
_CROSSCHECK = [
    (n, m, k)
    for n in range(3, 9) for m in range(1, n) for k in range(4, 12)
    if math.comb(n, m) ** k <= 30000
    and (min(k * m, n) - m + 1) * (m + 1) ** (k - 2) <= 30000
]
_ENUM_SUBSET = [
    (n, m, k)
    for n in range(2, 9) for m in range(1, n + 1) for k in range(1, 9)
    if 200 <= math.comb(n, m) ** k <= 20000
]
_ENUM_MULTINOMIAL = [
    (n, m, k)
    for n in range(2, 9) for m in range(1, n + 1) for k in range(1, 9)
    if 200 <= n ** (m * k) <= 20000
]

# Steps of the size sequences: fractional parts of square roots of primes,
# which are rationally independent, so sizes drawn together are jointly
# equidistributed rather than locked to one another.
_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                       41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)]


class _Sequence:
    """Additive recurrence in the round index with a seeded phase."""

    def __init__(self, rng: random.Random, step: float):
        self.phase = rng.random()
        self.step = step

    def at(self, r: int) -> float:
        return (self.phase + r * self.step) % 1.0


def _scale(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


class _Cycle:
    """A seeded permutation of a finite input list, walked once per pass."""

    def __init__(self, rng: random.Random, items):
        self.items = list(items)
        rng.shuffle(self.items)
        self.next = 0

    def take(self) -> tuple[tuple, int]:
        pass_index, i = divmod(self.next, len(self.items))
        self.next += 1
        return self.items[i], pass_index


def _budget_flag(pass_index: int) -> list[str]:
    # Later passes over a tiny input list differ only in a budget far above
    # the work, so their argv stays unique and their work stays the same.
    return [] if pass_index == 0 else ["--budget", str(10**7 + pass_index)]


def _nearest_first(center: int, lo: int, hi: int):
    yield center
    for d in count(1):
        if center - d < lo and center + d > hi:
            return
        if center + d <= hi:
            yield center + d
        if center - d >= lo:
            yield center - d


class _Claims:
    """(k, m) pairs whose PMF a run has already asked for, per scheme."""

    def __init__(self):
        self.used = {"subset": set(), "multinomial": set()}
        self.reused = 0  # operations that had to share a used pair

    def free(self, schemes, k, m) -> bool:
        return all((k, m) not in self.used[s] for s in schemes)

    def take(self, schemes, k, m) -> None:
        for s in schemes:
            self.used[s].add((k, m))

    def pick(self, schemes, u_m, u_km, m_range, km_range) -> tuple[int, int, bool]:
        """(m, k) near the sequence's target with k*m in km_range; the flag
        is False when every pair in range is taken and one is reused."""
        km_lo, km_hi = km_range
        target_m = _scale(u_m, *m_range)
        target_km = km_lo + u_km * (km_hi - km_lo)
        for m in _nearest_first(target_m, *m_range):
            k_lo, k_hi = -(-km_lo // m), km_hi // m
            if k_lo > k_hi:
                continue
            center = min(max(round(target_km / m), k_lo), k_hi)
            for k in _nearest_first(center, k_lo, k_hi):
                if self.free(schemes, k, m):
                    self.take(schemes, k, m)
                    return m, max(k, 1), True
        self.reused += 1
        return target_m, max(round(target_km / target_m), 1), False


class Generator:
    """Endless round-by-round operation list of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.claims = _Claims()
        self.seen: set[tuple[str, ...]] = set()
        self.state = {}

    def _get(self, name: str, factory):
        if name not in self.state:
            self.state[name] = factory()
        return self.state[name]

    def _u(self, name: str, r: int) -> float:
        # Sequences are created in code order, the same for every seed, so
        # each size keeps its step.
        return self._get(name, lambda: _Sequence(
            self.rng, _STEPS[sum(isinstance(v, _Sequence) for v in self.state.values())])).at(r)

    def _unique(self, argv: list[str], flag: str) -> list[str]:
        """argv with the value after ``flag`` raised until it is new in this run."""
        while tuple(argv) in self.seen:
            i = argv.index(flag) + 1
            argv = argv[:i] + [str(int(argv[i]) + 1)] + argv[i + 1:]
        self.seen.add(tuple(argv))
        return argv

    def round(self, r: int) -> list[dict]:
        """Operations of round r: dicts with ``kind`` and ``argv``."""
        build = {
            "exact-queries": self._exact_round,
            "plan-scan": self._plan_round,
            "mc-sample": self._mc_round,
        }[self.workload]
        return [{"kind": kind, "argv": argv} for kind, argv in build(r)]

    # exact-queries ---------------------------------------------------------

    def _exact_pmf_params(self, name, r, schemes, n_range, m_range, km_range):
        m, k, fresh = self.claims.pick(
            schemes, self._u(name + ".m", r), self._u(name + ".km", r),
            m_range, km_range,
        )
        n = self.rng.randint(*n_range)
        if not fresh:
            n += self.rng.randint(1, 50)
        return n, m, k

    def _exact_round(self, r: int):
        rng = self.rng
        ops = []

        def add(kind, argv, flag="--n"):
            ops.append((kind, self._unique(argv, flag)))

        def pnk(n, m, k):
            return ["--n", str(n), "--m", str(m), "--k", str(k)]

        # Each PMF claims a (k, m) pair with k*m in [180, 280]: 330 pairs for
        # subset m in [3, 60] and 260 for multinomial m in [3, 30]. A 30 s
        # run of today's code uses at most 180 and 90 of them.
        for scheme, m_range in (("subset", (3, 60)), ("multinomial", (3, 30))):
            n, m, k = self._exact_pmf_params(
                f"dist.{scheme}", r, [scheme], (250, 400), m_range, (180, 280))
            add(f"dist_{scheme}", ["dist", "--scheme", scheme, *pnk(n, m, k)])
            n, m, k = self._exact_pmf_params(
                f"point.{scheme}", r, [scheme], (250, 400), m_range, (180, 280))
            lo = m if scheme == "subset" else 1
            t = rng.randint(lo, min(k * m, n))
            add(f"dist_t_{scheme}",
                ["dist", "--scheme", scheme, *pnk(n, m, k), "--t", str(t)])
        n, m, k = self._exact_pmf_params("tail", r, ["subset"], (250, 400), (3, 60), (180, 280))
        tau = rng.randint(m, min(k * m, n))
        add("tail", ["tail", *pnk(n, m, k), "--tau", str(tau)])
        n, m, k = self._exact_pmf_params("mean", r, ["subset"], (250, 400), (3, 60), (180, 280))
        add("mean", ["mean", *pnk(n, m, k)])
        n, m, k = self._exact_pmf_params(
            "theorem2", r, ["subset", "multinomial"], (150, 250), (3, 20), (100, 160))
        add("theorem2", ["theorem2", *pnk(n, m, k)])

        # S(N, K) has about N log10(K) - log10(K!) digits; stay below the limit.
        big_k = _scale(self._u("stirling.K", r), 20, 60)
        digits_per_n = math.log10(big_k)
        n_max = int((_MAX_ANSWER_DIGITS + math.log10(math.factorial(big_k))) / digits_per_n)
        big_n = _scale(self._u("stirling.N", r), n_max * 3 // 5, n_max)
        add("stirling", ["stirling", "--N", str(big_n), "--K", str(big_k)], flag="--N")
        ops.append((OVERFLOW_KIND, ["stirling", "--N", str(OVERFLOW_STIRLING_N + r),
                                          "--K", str(OVERFLOW_STIRLING_K)]))

        # The all-distinct probability has about k m log10(n) digits.
        n = int(10 ** (2 + 4 * rng.random()))
        m = rng.randint(1, min(50, n))
        k_max = max(1, int(_MAX_ANSWER_DIGITS / (m * math.log10(n))))
        add("bounds", ["bounds", *pnk(n, m, rng.randint(1, min(k_max, 1000))),
                       "--epsilon", str(rng.randint(1, 5))])

        for kind, items, scheme in (
            ("crosscheck", _CROSSCHECK, None),
            ("enumerate_subset", _ENUM_SUBSET, "subset"),
            ("enumerate_multinomial", _ENUM_MULTINOMIAL, "multinomial"),
        ):
            cycle = self._get(kind, lambda: _Cycle(rng, items))
            (n, m, k), pass_index = cycle.take()
            head = ["crosscheck"] if scheme is None else ["enumerate", "--scheme", scheme]
            argv = [*head, *pnk(n, m, k), *_budget_flag(pass_index)]
            self.seen.add(tuple(argv))
            ops.append((kind, argv))
        return ops

    # plan-scan -------------------------------------------------------------

    def _confident_plan(self, scheme: str, r: int, slot: int):
        # A confident plan builds the PMF of every k up to its answer, so it
        # takes a whole m of its own. n(m) keeps the cost of a scan roughly
        # level across m (measured: cost grows ~n^3.5 / m).
        name = f"confident.{scheme}"
        pool = self._get(name + ".pool", lambda: list(range(8, 121)))
        u = self._u(f"{name}.{slot}", r)
        reuse = not pool
        if reuse:
            self.claims.reused += 1
            m = _scale(u, 8, 120)
        else:
            m = pool.pop(min(int(u * len(pool)), len(pool) - 1))
        scale, exponent = (145, 0.2857) if scheme == "subset" else (125, 0.2)
        n = round(scale * (m / 10) ** exponent) + self.rng.randint(-3, 3)
        if reuse:
            n += self.rng.randint(4, 40)
        n = max(n, m + 2)
        # Each slot keeps one target, which sets the length of its k scan.
        fraction, p = _CONFIDENT_TARGETS[slot]
        tau = math.ceil(fraction * n)
        return ["plan", "--scheme", scheme, "--n", str(n), "--m", str(m),
                "--tau", str(tau), "--p", str(p)]

    @staticmethod
    def _miss(scheme: str, n: int, m: int) -> Fraction:
        return Fraction(n - m, n) if scheme == "subset" else Fraction(n - 1, n) ** m

    @staticmethod
    def _expected_k(miss: Fraction, alpha: Fraction) -> int:
        k = max(1, math.ceil(math.log(1 - alpha) / math.log(miss)))
        while k > 1 and miss ** (k - 1) <= 1 - alpha:
            k -= 1
        while miss ** k > 1 - alpha:
            k += 1
        return k

    def _expected_plan(self, scheme: str, small: bool):
        rng = self.rng
        for tries in count():
            if small:
                n, m = rng.randint(32, _PMF_VERIFY_MAX_N), rng.randint(2, 7)
            elif scheme == "subset":
                n, m = rng.randint(300, 2000), rng.randint(5, 40)
            else:
                n, m = rng.randint(100, 400), rng.randint(2, 12)
            alpha = rng.choice(_TARGETS)
            argv = ["plan", "--scheme", scheme, "--n", str(n), "--m", str(m),
                    "--alpha", str(alpha)]
            if tuple(argv) in self.seen:
                continue
            miss = self._miss(scheme, n, m)
            # Estimated digits of the answer's denominator.
            base = n if scheme == "subset" else n ** m
            k_est = math.log(1 - alpha) / math.log(miss)
            if k_est * math.log10(base) > _MAX_ANSWER_DIGITS:
                continue
            if small:
                # Re-verification builds the PMFs at k and k - 1.
                k = self._expected_k(miss, alpha)
                pairs = [(kk, m) for kk in (k, k - 1) if kk >= 1]
                if not all(self.claims.free([scheme], *p) for p in pairs):
                    if tries < 200:
                        continue
                    self.claims.reused += 1
                for p in pairs:
                    self.claims.take([scheme], *p)
            self.seen.add(tuple(argv))
            return argv

    def _plan_round(self, r: int):
        ops = []
        for slot in range(len(_CONFIDENT_TARGETS)):
            for scheme in ("subset", "multinomial"):
                argv = self._confident_plan(scheme, r, slot)
                while tuple(argv) in self.seen:
                    argv = self._confident_plan(scheme, r, slot)
                self.seen.add(tuple(argv))
                ops.append((f"plan_confident_{scheme}", argv))
        for small in (True, False):
            for scheme in ("subset", "multinomial"):
                size = "small" if small else "large"
                ops.append((f"plan_expected_{size}_{scheme}",
                            self._expected_plan(scheme, small)))
        return ops

    # mc-sample -------------------------------------------------------------

    def _mc_round(self, r: int):
        rng = self.rng
        ops = []

        def sim(kind, scheme, n, m, k, trials, workers=1, command="simulate", seed=None):
            seed = rng.getrandbits(63) if seed is None else seed
            argv = [command, "--scheme", scheme, "--n", str(n), "--m", str(m),
                    "--k", str(k), "--trials", str(trials), "--seed", str(seed),
                    "--workers", str(workers)]
            self.seen.add(tuple(argv))
            ops.append((kind, argv))
            return seed

        # Subset sampler on both sides of the n = 2048 path split (see
        # SMALL_N_RANGE), and the multinomial sampler.
        n = _scale(self._u("small.n", r), *SMALL_N_RANGE)
        m, k = _scale(self._u("small.m", r), 4, 10), _scale(self._u("small.k", r), 3, 8)
        sim("simulate_subset_small_n", "subset", n, m, k, 16384)
        n = _scale(self._u("large.n", r), 2049, 6000)
        m, k = _scale(self._u("large.m", r), 3, 5), _scale(self._u("large.k", r), 3, 5)
        sim("simulate_subset_large_n", "subset", n, m, k, 8192)
        n = _scale(self._u("multi.n", r), 100, 3000)
        m = _scale(self._u("multi.m", r), 3, 8)
        k = max(3, round(_scale(self._u("multi.km", r), 24, 40) / m))
        sim("simulate_multinomial", "multinomial", n, m, k, 65536)
        # One small multinomial config at one worker and again at two, with
        # the same seed. How much a second thread gains depends on whether
        # the host runs both CPUs at once, so this pair is kept short: its
        # swings then barely move the run's totals and percentiles.
        n = _scale(self._u("pair.n", r), 100, 3000)
        m = _scale(self._u("pair.m", r), 3, 8)
        k = max(3, round(_scale(self._u("pair.km", r), 24, 40) / m))
        seed = sim("simulate_multinomial_pair", "multinomial", n, m, k, 16384)
        sim("simulate_multinomial_pair_w2", "multinomial", n, m, k, 16384, workers=2, seed=seed)
        # compare builds a small exact PMF, so it claims the (k, m) pair.
        for scheme, m_range in (("subset", (2, 12)), ("multinomial", (2, 10))):
            m, k, fresh = self.claims.pick(
                [scheme], self._u(f"compare.{scheme}.m", r),
                self._u(f"compare.{scheme}.km", r), m_range, (10, 60),
            )
            n = rng.randint(40, 120) + (0 if fresh else rng.randint(1, 200))
            sim(f"compare_{scheme}", scheme, n, m, k, 16384, command="compare")
        return ops
