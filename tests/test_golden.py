"""Byte-identity of CLI stdout against recorded outputs.

Each file in ``tests/golden`` holds the stdout of ``rovecover <argv>`` for
the entry of the same name below, recorded before the inclusion-exclusion
PMF builders were replaced by the covered-count chain; the ``simulate_floyd``
entries (n above the partial-shuffle cutoff) were recorded before the
Floyd sampler ran vectorized over the block; the ``enumerate`` entries were
recorded before the CLI handlers became one table; the
``plan_confident_found_repro`` and ``plan_confident_multinomial_benchmark_csv``
entries were recorded before confident plans walked the chain once. Any
change to an exact value, to the JSON/CSV layout or to a seeded simulation
shows up here as a byte difference.
"""

import os

import pytest

from rovecover.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# name -> (argv, exit code)
GOLDEN = {
    "dist_subset": ("dist --n 6 --m 2 --k 3", 0),
    "dist_subset_csv": ("dist --n 6 --m 2 --k 3 --format csv", 0),
    "dist_subset_larger": ("dist --n 40 --m 7 --k 9", 0),
    "dist_subset_m_eq_n": ("dist --n 5 --m 5 --k 3", 0),
    "dist_multinomial": ("dist --scheme multinomial --n 5 --m 3 --k 2", 0),
    "dist_multinomial_csv": ("dist --scheme multinomial --n 5 --m 3 --k 2 --format csv", 0),
    "dist_multinomial_larger": ("dist --scheme multinomial --n 30 --m 4 --k 6", 0),
    "dist_point_subset": ("dist --n 10 --m 3 --k 4 --t 8", 0),
    "dist_point_outside_support": ("dist --n 6 --m 2 --k 2 --t 1", 0),
    "dist_point_multinomial_csv": (
        "dist --scheme multinomial --n 10 --m 3 --k 4 --t 7 --format csv", 0),
    "mean": ("mean --n 10 --m 3 --k 2", 0),
    "mean_csv": ("mean --n 37 --m 5 --k 11 --format csv", 0),
    "tail": ("tail --n 4 --m 2 --k 2 --tau 4", 0),
    "tail_below_support": ("tail --n 12 --m 4 --k 3 --tau 2", 0),
    "tail_csv": ("tail --n 20 --m 3 --k 5 --tau 12 --format csv", 0),
    "theorem2": ("theorem2 --n 6 --m 2 --k 2", 0),
    "theorem2_csv": ("theorem2 --n 9 --m 3 --k 3 --format csv", 0),
    "crosscheck": ("crosscheck --n 6 --m 2 --k 4", 0),
    "crosscheck_no_enumeration": ("crosscheck --n 9 --m 3 --k 4", 0),
    "crosscheck_csv": ("crosscheck --n 5 --m 2 --k 4 --format csv", 0),
    "plan_expected_subset": ("plan --n 10 --m 3 --alpha 9/10", 0),
    "plan_expected_multinomial": ("plan --scheme multinomial --n 50 --m 4 --alpha 3/4", 0),
    "plan_expected_closed_form_only": ("plan --n 1000 --m 10 --alpha 1/2", 0),
    "plan_confident_subset": ("plan --n 4 --m 2 --tau 4 --p 1/6", 0),
    "plan_confident_multinomial_csv": (
        "plan --scheme multinomial --n 8 --m 2 --tau 6 --p 1/2 --format csv", 0),
    "plan_confident_found_repro": ("plan --n 200 --m 10 --tau 190 --p 9/10", 0),
    "plan_confident_multinomial_benchmark_csv": (
        "plan --scheme multinomial --n 146 --m 23 --tau 125 --p 9/10 --format csv", 0),
    "plan_confidence_one_at_floor": ("plan --n 9 --m 4 --tau 3 --p 1", 0),
    "plan_cap_exceeded": ("plan --n 4 --m 2 --tau 4 --p 999/1000 --k-max 10", 3),
    "compare_subset": ("compare --n 20 --m 5 --k 3 --trials 2000 --seed 7", 0),
    "compare_multinomial_csv": (
        "compare --scheme multinomial --n 6 --m 2 --k 3 --trials 1000 --seed 3 --format csv",
        0),
    "simulate_floyd_workers1": (
        "simulate --n 5000 --m 4 --k 3 --trials 9000 --seed 12 --workers 1", 0),
    "simulate_floyd_workers2": (
        "simulate --n 5000 --m 4 --k 3 --trials 9000 --seed 12 --workers 2", 0),
    "simulate_floyd_spread_csv": (
        "simulate --n 3000 --m 30 --k 4 --trials 5000 --seed 5 --format csv", 0),
    "stirling": ("stirling --N 12 --K 5", 0),
    "stirling_csv": ("stirling --N 30 --K 7 --format csv", 0),
    "bounds": ("bounds --n 100 --m 5 --k 3", 0),
    "bounds_clamped_csv": ("bounds --n 10 --m 6 --k 4 --epsilon 2 --format csv", 0),
    "enumerate_subset": ("enumerate --n 4 --m 2 --k 2", 0),
    "enumerate_multinomial": ("enumerate --scheme multinomial --n 4 --m 2 --k 2", 0),
    "enumerate_csv": ("enumerate --n 3 --m 1 --k 2 --format csv", 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name, capsys):
    argv, expected_code = GOLDEN[name]
    code = main(argv.split())
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN_DIR, f"{name}.out"), encoding="utf-8", newline="") as f:
        assert out == f.read()
    assert code == expected_code
