"""Exact combinatorial primitives shared by the rest of the package.

Counts are plain Python ints (arbitrary precision); probabilities are
``fractions.Fraction`` values built from them. Nothing here touches
floating point except the display-only ``approx`` field of the JSON form.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(n: int, m: int) -> int:
    """n * (n-1) * ... * (n-m+1); equals 1 for m = 0 and 0 for m > n."""
    if n < 0 or m < 0:
        raise ValueError(f"falling_factorial requires n, m >= 0, got n={n}, m={m}")
    return math.perm(n, m)


def _validate_stirling_args(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"stirling2 requires n >= 1 and k >= 1, got n={n}, k={k}")


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks.

    Computed by the explicit sum S(n,k) = sum_{j=0..k} (-1)^j C(k,j) (k-j)^n / k!:
    k + 1 powers and one division, O(k) big-integer operations in all. The
    integer sum is accumulated first and only then divided by k!; the
    division is checked to be exact, which would catch any cancellation bug
    in the summation. Returns 0 for k > n.
    """
    _validate_stirling_args(n, k)
    if k > n:
        return 0
    total = 0
    for j in range(k + 1):
        term = math.comb(k, j) * (k - j) ** n
        total += -term if j & 1 else term
    quotient, remainder = divmod(total, math.factorial(k))
    if remainder:
        raise ArithmeticError(
            f"alternating sum for stirling2({n}, {k}) is not divisible by {k}!"
        )
    return quotient


def stirling2_triangle(n: int, k: int) -> int:
    """Same value as :func:`stirling2`, by the triangle recurrence
    S(n,k) = k*S(n-1,k) + S(n-1,k-1); O(n*k) operations, cross-check oracle
    only. Iterative, so deep inputs cannot blow the stack.
    """
    _validate_stirling_args(n, k)
    if k > n:
        return 0
    # Single row updated in place; j descends so S(i-1, j-1) is still intact.
    row = [0] * (k + 1)
    row[0] = 1
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def rational_to_json(value: Fraction) -> dict:
    """JSON form of an exact rational: decimal strings plus a float approx."""
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf if value > 0 else -math.inf
    return {
        "num": str(value.numerator),
        "den": str(value.denominator),
        "approx": approx,
    }


def rational_from_json(obj: dict) -> Fraction:
    """Inverse of :func:`rational_to_json`; the float approx is ignored."""
    return Fraction(int(obj["num"]), int(obj["den"]))
