import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rovecover.combinatorics import (
    binomial,
    falling_factorial,
    rational_from_json,
    rational_to_json,
    stirling2,
    stirling2_triangle,
)


def partitions_into_blocks(items, blocks):
    """Independent oracle: enumerate set partitions of `items` into exactly
    `blocks` nonempty parts."""
    items = list(items)
    if not items:
        yield [] if blocks == 0 else None
        if blocks == 0:
            return
        return
    first, rest = items[0], items[1:]
    for partition in partitions_into_blocks(rest, blocks):
        if partition is None:
            continue
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] | {first}] + partition[i + 1 :]
    for partition in partitions_into_blocks(rest, blocks - 1):
        if partition is None:
            continue
        yield partition + [{first}]


def count_partitions(n, k):
    return sum(1 for p in partitions_into_blocks(range(n), k) if p is not None)


class TestBinomial:
    def test_small_value(self):
        assert binomial(4, 2) == 6

    def test_choose_zero(self):
        for n in (0, 1, 5, 40):
            assert binomial(n, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_symmetry(self, n, k):
        if k <= n:
            assert binomial(n, k) == binomial(n, n - k)

    @given(st.integers(1, 200), st.integers(-2, 202))
    def test_pascal(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(4, 2) == 12
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(3, 4) == 0

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_equals_binomial_times_factorial(self, n, m):
        if m <= n:
            assert falling_factorial(n, m) == binomial(n, m) * math.factorial(m)
        else:
            assert falling_factorial(n, m) == 0


class TestStirling2:
    def test_single_block(self):
        for n in (1, 2, 5, 9):
            assert stirling2(n, 1) == 1

    def test_small_known_value(self):
        assert stirling2(3, 2) == 3

    def test_partition_oracle_4_2(self):
        # Oracle first: S(4, 2) by exhaustive set-partition enumeration.
        assert count_partitions(4, 2) == 7
        assert stirling2(4, 2) == 7

    def test_partition_oracle_grid(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert stirling2(n, k) == count_partitions(n, k)

    def test_zero_above_diagonal(self):
        assert stirling2(3, 5) == 0
        assert stirling2_triangle(3, 5) == 0

    def test_invalid_arguments(self):
        for bad in [(0, 1), (1, 0), (-2, 3)]:
            with pytest.raises(ValueError):
                stirling2(*bad)
            with pytest.raises(ValueError):
                stirling2_triangle(*bad)

    def test_both_routes_agree_to_60(self):
        # Every K from 1 to N, and K = N + 1, N + 2 above the diagonal.
        for n in range(1, 61):
            for k in range(1, n + 3):
                assert stirling2(n, k) == stirling2_triangle(n, k), (n, k)

    def test_both_routes_agree_at_3000_40(self):
        # S(3000, 40) has more than 4300 decimal digits, so the two routes
        # are compared as integers and the value is never turned into a str.
        value = stirling2(3000, 40)
        assert value == stirling2_triangle(3000, 40)
        assert value > 10**4300

    def test_row_sum_identity(self):
        # sum_k S(n,k) * x_(falling k) == x^n
        for n in range(1, 11):
            for x in range(0, 11):
                total = sum(
                    stirling2(n, k) * falling_factorial(x, k)
                    for k in range(1, n + 1)
                )
                assert total == x**n, (n, x)


class TestRationalJson:
    def test_shape(self):
        payload = rational_to_json(Fraction(1, 6))
        assert payload == {"num": "1", "den": "6", "approx": 1 / 6}

    @given(st.fractions())
    def test_round_trip_exact(self, value):
        assert rational_from_json(rational_to_json(value)) == value

    @given(st.fractions())
    def test_json_text_round_trip(self, value):
        text = json.dumps(rational_to_json(value))
        assert rational_from_json(json.loads(text)) == value

    @given(st.fractions(), st.fractions())
    def test_arithmetic_stays_reduced(self, a, b):
        for value in (a + b, a * b):
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value.denominator > 0

    @given(st.fractions())
    def test_string_round_trip_lossless(self, value):
        assert Fraction(str(value)) == value
