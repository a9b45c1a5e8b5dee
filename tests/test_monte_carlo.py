import math
from fractions import Fraction

import numpy as np
import pytest

from rovecover import monte_carlo
from rovecover.monte_carlo import (
    ComparisonReport,
    EmpiricalDistribution,
    SimulationConfig,
    compare,
    exact_repetition_probability,
    simulate,
    subset_frequency_histogram,
)
from rovecover.multinomial_scheme import multinomial_coverage_pmf
from rovecover.subset_scheme import Params, coverage_pmf


def config(n, m, k, trials, seed, scheme="subset", workers=1):
    return SimulationConfig(
        params=Params(n, m, k),
        trials=trials,
        seed=seed,
        scheme_tag=scheme,
        workers=workers,
    )


class TestConfigValidation:
    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            config(4, 2, 2, trials=0, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            config(4, 2, 2, trials=10, seed=-1)
        with pytest.raises(ValueError):
            config(4, 2, 2, trials=10, seed=2**64)

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            config(4, 2, 2, trials=10, seed=1, scheme="other")


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        a = simulate(config(6, 2, 3, trials=20_000, seed=11))
        b = simulate(config(6, 2, 3, trials=20_000, seed=11))
        assert a.counts == b.counts

    def test_worker_count_does_not_change_counts(self):
        base = simulate(config(6, 2, 3, trials=50_000, seed=5, workers=1))
        for workers in (2, 3, 8):
            other = simulate(config(6, 2, 3, trials=50_000, seed=5, workers=workers))
            assert other.counts == base.counts, workers

    def test_worker_invariance_multinomial(self):
        base = simulate(
            config(9, 3, 2, trials=30_000, seed=17, scheme="multinomial", workers=1)
        )
        other = simulate(
            config(9, 3, 2, trials=30_000, seed=17, scheme="multinomial", workers=8)
        )
        assert other.counts == base.counts
        assert other.repetition_event_count == base.repetition_event_count

    def test_different_seeds_differ(self):
        a = simulate(config(6, 2, 3, trials=20_000, seed=1))
        b = simulate(config(6, 2, 3, trials=20_000, seed=2))
        assert a.counts != b.counts

    def test_trial_prefix_independent_of_total(self):
        # Extending a run must not rewrite history: shared trial indices see
        # the same draws, so counts can only grow.
        short = simulate(config(5, 2, 2, trials=4_000, seed=9))
        long = simulate(config(5, 2, 2, trials=8_192, seed=9))
        assert all(
            long.counts.get(t, 0) >= c for t, c in short.counts.items() if c
        )


class TestSubsetSimulation:
    def test_full_visit_always_covers_n(self):
        emp = simulate(config(5, 5, 3, trials=5_000, seed=3))
        assert emp.counts[5] == 5_000

    def test_counts_within_support(self):
        emp = simulate(config(10, 3, 2, trials=10_000, seed=4))
        assert set(emp.counts) == set(range(3, 7))
        assert sum(emp.counts.values()) == 10_000

    def test_close_to_exact_pmf(self):
        params = Params(4, 2, 2)
        emp = simulate(config(4, 2, 2, trials=1_000_000, seed=42))
        report = compare(emp, coverage_pmf(params))
        assert report.total_variation_distance <= 0.005

    def test_large_n_floyd_path(self):
        # n above the partial-shuffle cutoff exercises the Floyd sampler.
        emp = simulate(config(5000, 3, 2, trials=2_000, seed=8))
        assert sum(emp.counts.values()) == 2_000
        assert all(t >= 3 for t, c in emp.counts.items() if c)
        mean = sum(t * c for t, c in emp.counts.items()) / 2_000
        exact_mean = 5000 * (1 - (1 - 3 / 5000) ** 2)
        assert abs(mean - exact_mean) < 0.2

    def test_floyd_path_uniformity(self, monkeypatch):
        # Force the Floyd sampler on a small n so its uniformity can be
        # checked subset by subset.
        import rovecover.monte_carlo as monte_carlo

        monkeypatch.setattr(monte_carlo, "_PARTIAL_SHUFFLE_MAX_N", 0)
        trials = 200_000
        histogram = subset_frequency_histogram(5, 2, trials, seed=21)
        total_subsets = math.comb(5, 2)
        assert len(histogram) == total_subsets
        p = 1 / total_subsets
        sigma = math.sqrt(p * (1 - p) * trials)
        for subset, count in histogram.items():
            assert abs(count - trials * p) <= 5 * sigma, subset

    def test_floyd_path_matches_exact_pmf(self, monkeypatch):
        import rovecover.monte_carlo as monte_carlo

        monkeypatch.setattr(monte_carlo, "_PARTIAL_SHUFFLE_MAX_N", 0)
        params = Params(4, 2, 2)
        emp = simulate(config(4, 2, 2, trials=200_000, seed=33))
        report = compare(emp, coverage_pmf(params))
        assert report.total_variation_distance <= 0.01


def reference_floyd_nodes(n, m, k, seed, block_index, count):
    """Floyd's sampler one trial and one stage at a time, on the block's
    own draws: the loop the vectorized path must reproduce node for node."""
    gen = monte_carlo._block_generator(seed, block_index)
    highs = np.tile(np.arange(n - m + 1, n + 1), k)
    draws = gen.integers(low=0, high=highs, size=(count, m * k)).tolist()
    nodes = np.empty((count, k, m), dtype=np.int64)
    for trial, row in enumerate(draws):
        for stage in range(k):
            chosen = set()
            for j in range(m):
                r = row[stage * m + j]
                chosen.add(n - m + j if r in chosen else r)
            nodes[trial, stage, :] = sorted(chosen)
    return nodes


class TestFloydMatchesReference:
    @pytest.mark.parametrize("n, m, k, seed, block_index, count", [
        (1, 1, 1, 0, 0, 1),
        (1, 1, 3, 5, 2, 50),
        (7, 1, 4, 11, 0, 300),
        (7, 7, 3, 11, 1, 300),
        (12, 12, 2, 2**64 - 1, 9, 500),
        (9, 4, 3, 2**64 - 1, 0, 1),
        (10, 6, 5, 3, 4, 4096),
        (30, 25, 2, 17, 0, 2000),
        (50, 3, 6, 99, 7, 1000),
    ])
    def test_same_nodes_as_per_trial_loop(
        self, monkeypatch, n, m, k, seed, block_index, count
    ):
        monkeypatch.setattr(monte_carlo, "_PARTIAL_SHUFFLE_MAX_N", 0)
        got = monte_carlo._draw_subset_stage_nodes(n, m, k, seed, block_index, count)
        want = reference_floyd_nodes(n, m, k, seed, block_index, count)
        assert got.shape == (count, k, m)
        assert np.array_equal(got, want)

    def test_same_nodes_above_the_cutoff(self):
        args = (2100, 40, 3, 6, 1, 700)
        got = monte_carlo._draw_subset_stage_nodes(*args)
        assert np.array_equal(got, reference_floyd_nodes(*args))


class TestUniformSubsetSampling:
    def test_each_subset_within_five_sigma(self):
        trials = 1_000_000
        for n in range(1, 7):
            for m in range(1, min(n, 3) + 1):
                histogram = subset_frequency_histogram(n, m, trials, seed=42)
                total_subsets = math.comb(n, m)
                assert len(histogram) == total_subsets
                p = 1 / total_subsets
                sigma = math.sqrt(p * (1 - p) * trials)
                for subset, count in histogram.items():
                    assert abs(count - trials * p) <= 5 * sigma + 1, (n, m, subset)

    def test_histogram_matches_trial_count(self):
        histogram = subset_frequency_histogram(6, 3, 12_345, seed=0)
        assert sum(histogram.values()) == 12_345


class TestMultinomialSimulation:
    def test_repetition_frequency_converges(self):
        for n, m, k in [(100, 5, 3), (50, 4, 2)]:
            trials = 200_000
            emp = simulate(
                config(n, m, k, trials=trials, seed=42, scheme="multinomial")
            )
            p_exact = float(exact_repetition_probability(Params(n, m, k)))
            freq = emp.repetition_event_count / trials
            sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
            assert abs(freq - p_exact) <= 5 * sigma, (n, m, k)

    def test_single_node_stage_never_repeats(self):
        emp = simulate(config(8, 1, 4, trials=5_000, seed=2, scheme="multinomial"))
        assert emp.repetition_event_count == 0

    def test_close_to_exact_pmf(self):
        params = Params(7, 2, 3)
        emp = simulate(config(7, 2, 3, trials=500_000, seed=13, scheme="multinomial"))
        report = compare(emp, multinomial_coverage_pmf(params))
        assert report.total_variation_distance <= 0.01


class TestCompare:
    def test_exact_match_gives_zero_distance(self):
        params = Params(4, 2, 2)
        exact = coverage_pmf(params)
        trials = 36
        counts = {t: int(p * trials) for t, p in exact.pmf.items()}
        emp = EmpiricalDistribution(
            config=config(4, 2, 2, trials=trials, seed=0),
            counts=counts,
            total_trials=trials,
        )
        report = compare(emp, exact)
        assert report.total_variation_distance == 0
        assert report.chi_square_statistic == 0
        assert report.max_abs_deviation == 0

    def test_disjoint_supports_give_tv_one(self):
        params = Params(4, 2, 2)
        exact = coverage_pmf(params)
        emp = EmpiricalDistribution(
            config=config(4, 2, 2, trials=100, seed=0),
            counts={1: 100},
            total_trials=100,
        )
        report = compare(emp, exact)
        assert report.total_variation_distance == pytest.approx(1.0)

    def test_mismatched_params_rejected(self):
        exact = coverage_pmf(Params(5, 2, 2))
        emp = simulate(config(4, 2, 2, trials=100, seed=0))
        with pytest.raises(ValueError):
            compare(emp, exact)

    def test_mismatched_scheme_rejected(self):
        exact = multinomial_coverage_pmf(Params(4, 2, 2))
        emp = simulate(config(4, 2, 2, trials=100, seed=0))
        with pytest.raises(ValueError):
            compare(emp, exact)

    def test_chi_square_pools_sparse_bins(self):
        params = Params(12, 3, 3)
        exact = coverage_pmf(params)
        emp = simulate(config(12, 3, 3, trials=1_000, seed=6))
        report = compare(emp, exact)
        # Support has 7 points but the extreme ones are far rarer than 5/1000.
        assert report.degrees_of_freedom < 6
        assert isinstance(report, ComparisonReport)


class TestEmpiricalDistributionValidation:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(
                config=config(4, 2, 2, trials=10, seed=0),
                counts={2: 3},
                total_trials=10,
            )

    def test_multinomial_requires_repetition_count(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(
                config=config(4, 2, 2, trials=10, seed=0, scheme="multinomial"),
                counts={2: 10},
                total_trials=10,
            )
