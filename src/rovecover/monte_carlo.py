"""Sampling verifier for parameter ranges beyond exhaustive enumeration.

Randomness contract: trials are numbered 0..trials-1 and grouped into
fixed-size blocks of ``_TRIALS_PER_BLOCK``. Block b draws from a Philox
counter-based generator keyed by (seed, b), and a trial's draws depend
only on the seed, its block, and its offset within the block: in other
words, on (seed, trial index) and nothing else. Total trial count and
worker count never touch the stream, so identical configs are bit-for-bit
reproducible and worker splits cannot change the result.

Subset draws are exactly uniform over the C(n, m) m-subsets: both the
partial-shuffle fast path and the large-n Floyd path map the generator's
unbiased bounded integers (Lemire rejection inside numpy) through
classical uniformity-preserving constructions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .subset_scheme import (
    SCHEME_MULTINOMIAL,
    SCHEME_SUBSET,
    CoverageDistribution,
    Params,
    support_bounds,
)

_TRIALS_PER_BLOCK = 4096
# Above this node count the per-trial shuffle array is too wide; Floyd's
# set-based sampler takes over (same uniformity, O(m) memory).
_PARTIAL_SHUFFLE_MAX_N = 2048

_SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible description of one simulation run."""

    params: Params
    trials: int
    seed: int
    scheme_tag: str
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.scheme_tag not in (SCHEME_SUBSET, SCHEME_MULTINOMIAL):
            raise ValueError(f"unknown scheme_tag {self.scheme_tag!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Frequency table of covered-node counts from a simulation run."""

    config: SimulationConfig
    counts: Mapping[int, int]
    total_trials: int
    # Multinomial only: trials where some stage repeated a node.
    repetition_event_count: int | None = None

    def __post_init__(self):
        if self.total_trials != self.config.trials:
            raise ValueError("total_trials must equal config.trials")
        if sum(self.counts.values()) != self.total_trials:
            raise ValueError("counts must sum to total_trials")
        hi = min(self.config.params.k * self.config.params.m, self.config.params.n)
        if any(not 1 <= t <= hi for t in self.counts):
            raise ValueError(f"counts keys must lie in [1, {hi}]")
        if self.config.scheme_tag == SCHEME_MULTINOMIAL:
            if self.repetition_event_count is None:
                raise ValueError("multinomial runs must report repetition events")
        elif self.repetition_event_count is not None:
            raise ValueError("repetition events are tracked only for multinomial runs")

    def frequency(self, t: int) -> float:
        return self.counts.get(t, 0) / self.total_trials

    def to_json_dict(self) -> dict:
        result = {
            "scheme": self.config.scheme_tag,
            "n": self.config.params.n,
            "m": self.config.params.m,
            "k": self.config.params.k,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "workers": self.config.workers,
            "counts": [
                {"t": t, "count": c, "frequency": c / self.total_trials}
                for t, c in sorted(self.counts.items())
            ],
        }
        if self.repetition_event_count is not None:
            result["repetition_event_count"] = self.repetition_event_count
        return result

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["t", "count", "frequency"]
        rows = [
            [t, c, c / self.total_trials] for t, c in sorted(self.counts.items())
        ]
        return header, rows


@dataclass(frozen=True)
class ComparisonReport:
    """Distance between an empirical table and an exact PMF."""

    total_variation_distance: float
    chi_square_statistic: float
    degrees_of_freedom: int
    max_abs_deviation: float

    def to_json_dict(self) -> dict:
        return {
            "total_variation_distance": self.total_variation_distance,
            "chi_square_statistic": self.chi_square_statistic,
            "degrees_of_freedom": self.degrees_of_freedom,
            "max_abs_deviation": self.max_abs_deviation,
        }


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | block_index))


def _block_ranges(trials: int) -> Iterator[tuple[int, int]]:
    """(block_index, trial count) pairs covering 0..trials-1."""
    full, rem = divmod(trials, _TRIALS_PER_BLOCK)
    for b in range(full):
        yield b, _TRIALS_PER_BLOCK
    if rem:
        yield full, rem


def _draw_subset_stage_nodes(
    n: int, m: int, k: int, seed: int, block_index: int, count: int
) -> np.ndarray:
    """Nodes visited per stage for one block of trials, shape (count, k, m).

    Stage subsets are exactly uniform and mutually independent. The fast
    path runs a partial Fisher-Yates shuffle vectorized across trials,
    continuing on the permuted array between stages (a partial shuffle of
    any fixed arrangement is uniform, and the fresh draws are independent
    of the carried-over state). The large-n path interprets the same draw
    layout with Floyd's algorithm, as numpy steps over the whole block.
    """
    gen = _block_generator(seed, block_index)
    if n <= _PARTIAL_SHUFFLE_MAX_N:
        nodes = np.empty((count, k, m), dtype=np.int64)
        lows = np.tile(np.arange(m), k)
        draws = gen.integers(low=lows, high=n, size=(count, m * k))
        arr = np.tile(np.arange(n), (count, 1))
        rows = np.arange(count)
        for stage in range(k):
            for j in range(m):
                r = draws[:, stage * m + j]
                swapped = arr[rows, r]
                arr[rows, r] = arr[:, j].copy()
                arr[:, j] = swapped
            nodes[:, stage, :] = arr[:, :m]
        return nodes
    # Floyd: draw j of a stage is uniform on [0, n-m+j]; a collision with the
    # already-chosen set inserts the previously unreachable value n-m+j.
    # Every draw ends up in the set, so draw j collides exactly when it
    # repeats an earlier draw of its stage, or equals n-m+i for an earlier
    # colliding draw i. A stable sort of each stage's draws finds the
    # repeats; the second rule only points back, so it is applied until
    # nothing changes (one or two passes for almost every block).
    highs = np.tile(np.arange(n - m + 1, n + 1), k)
    draws = gen.integers(low=0, high=highs, size=(count, m * k)).reshape(count, k, m)
    step = np.arange(m)
    order = np.argsort(draws, axis=2, kind="stable")
    ranked = np.take_along_axis(draws, order, axis=2)
    hit = np.zeros(draws.shape, dtype=bool)
    np.put_along_axis(hit, order[..., 1:], ranked[..., 1:] == ranked[..., :-1], axis=2)
    inserted_at = draws - (n - m)
    reaches_back = (inserted_at >= 0) & (inserted_at < step)
    inserted_at[~reaches_back] = 0
    while True:
        grown = hit | (reaches_back & np.take_along_axis(hit, inserted_at, axis=2))
        if np.array_equal(grown, hit):
            break
        hit = grown
    nodes = np.where(hit, n - m + step, draws)
    nodes.sort(axis=2)
    return nodes


def _draw_multinomial_nodes(
    n: int, m: int, k: int, seed: int, block_index: int, count: int
) -> np.ndarray:
    gen = _block_generator(seed, block_index)
    return gen.integers(0, n, size=(count, k, m))


def _distinct_per_trial(nodes: np.ndarray) -> np.ndarray:
    count = nodes.shape[0]
    flat = np.sort(nodes.reshape(count, -1), axis=1)
    if flat.shape[1] == 1:
        return np.ones(count, dtype=np.int64)
    return (np.diff(flat, axis=1) != 0).sum(axis=1) + 1


def _simulate_blocks(
    config: SimulationConfig, blocks: list[tuple[int, int]], hi: int
) -> tuple[np.ndarray, int]:
    params = config.params
    n, m, k = params.n, params.m, params.k
    counts = np.zeros(hi + 1, dtype=np.int64)
    repetition_events = 0
    for block_index, count in blocks:
        if config.scheme_tag == SCHEME_SUBSET:
            nodes = _draw_subset_stage_nodes(n, m, k, config.seed, block_index, count)
        else:
            nodes = _draw_multinomial_nodes(n, m, k, config.seed, block_index, count)
            if m > 1:
                stage_sorted = np.sort(nodes, axis=2)
                repeated = (np.diff(stage_sorted, axis=2) == 0).any(axis=(1, 2))
                repetition_events += int(repeated.sum())
        t = _distinct_per_trial(nodes)
        counts += np.bincount(t, minlength=hi + 1)[: hi + 1]
    return counts, repetition_events


def simulate(config: SimulationConfig) -> EmpiricalDistribution:
    """Run the configured trials and tabulate covered-node counts.

    With workers > 1 the trial blocks are split into contiguous chunks
    processed by a thread pool; because each block's stream is keyed by its
    own index and count merging is a plain sum, the output is identical for
    every worker count.
    """
    lo, hi = support_bounds(config.params, config.scheme_tag)
    blocks = list(_block_ranges(config.trials))
    if config.workers == 1 or len(blocks) == 1:
        counts, repetition_events = _simulate_blocks(config, blocks, hi)
    else:
        chunk_count = min(config.workers, len(blocks))
        size, rem = divmod(len(blocks), chunk_count)
        chunks = []
        start = 0
        for i in range(chunk_count):
            stop = start + size + (1 if i < rem else 0)
            chunks.append(blocks[start:stop])
            start = stop
        with ThreadPoolExecutor(max_workers=chunk_count) as pool:
            parts = list(
                pool.map(lambda chunk: _simulate_blocks(config, chunk, hi), chunks)
            )
        counts = np.zeros(hi + 1, dtype=np.int64)
        repetition_events = 0
        for part_counts, part_reps in parts:
            counts += part_counts
            repetition_events += part_reps
    return EmpiricalDistribution(
        config=config,
        counts={t: int(counts[t]) for t in range(lo, hi + 1)},
        total_trials=config.trials,
        repetition_event_count=(
            repetition_events if config.scheme_tag == SCHEME_MULTINOMIAL else None
        ),
    )


def subset_frequency_histogram(
    n: int, m: int, trials: int, seed: int
) -> dict[tuple[int, ...], int]:
    """Per-subset draw counts from the same sampler ``simulate`` uses.

    Exists to make the uniformity of the m-subset sampler directly
    testable: over many trials every subset's frequency must concentrate
    around 1 / C(n, m).
    """
    Params(n, m, 1)
    histogram: dict[tuple[int, ...], int] = {}
    for block_index, count in _block_ranges(trials):
        nodes = _draw_subset_stage_nodes(n, m, 1, seed, block_index, count)
        drawn = np.sort(nodes[:, 0, :], axis=1)
        unique, freqs = np.unique(drawn, axis=0, return_counts=True)
        for subset, freq in zip(unique.tolist(), freqs.tolist()):
            key = tuple(subset)
            histogram[key] = histogram.get(key, 0) + freq
    return histogram


def compare(
    empirical: EmpiricalDistribution, exact: CoverageDistribution
) -> ComparisonReport:
    """Float-arithmetic distance statistics between a simulation and an exact
    PMF. Chi-square bins with expected count below 5 are pooled with their
    right neighbors (a short tail merges leftward into the last bin)."""
    if empirical.config.params != exact.params:
        raise ValueError(
            f"parameter mismatch: empirical {empirical.config.params} "
            f"vs exact {exact.params}"
        )
    if empirical.config.scheme_tag != exact.scheme_tag:
        raise ValueError(
            f"scheme mismatch: empirical {empirical.config.scheme_tag!r} "
            f"vs exact {exact.scheme_tag!r}"
        )
    trials = empirical.total_trials
    ts = sorted(set(empirical.counts) | set(exact.pmf))
    deviations = [
        abs(empirical.counts.get(t, 0) / trials - float(exact.probability(t)))
        for t in ts
    ]
    tv = 0.5 * sum(deviations)

    pooled: list[tuple[float, float]] = []
    observed_acc = 0.0
    expected_acc = 0.0
    for t in ts:
        observed_acc += empirical.counts.get(t, 0)
        expected_acc += trials * float(exact.probability(t))
        if expected_acc >= 5.0:
            pooled.append((observed_acc, expected_acc))
            observed_acc = 0.0
            expected_acc = 0.0
    if observed_acc or expected_acc:
        if pooled:
            last_obs, last_exp = pooled[-1]
            pooled[-1] = (last_obs + observed_acc, last_exp + expected_acc)
        else:
            pooled.append((observed_acc, expected_acc))
    chi_square = 0.0
    for observed, expected in pooled:
        if expected > 0.0:
            chi_square += (observed - expected) ** 2 / expected
        elif observed > 0.0:
            chi_square = math.inf
    return ComparisonReport(
        total_variation_distance=tv,
        chi_square_statistic=chi_square,
        degrees_of_freedom=max(len(pooled) - 1, 0),
        max_abs_deviation=max(deviations, default=0.0),
    )


def exact_repetition_probability(params: Params) -> Fraction:
    """1 minus the all-stages-distinct probability; the quantity the Markov
    bound caps and the simulator's repetition frequency estimates."""
    from .multinomial_scheme import all_distinct_probability

    return 1 - all_distinct_probability(params)
