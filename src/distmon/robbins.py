"""Robbins numbers: ground-truth constants for the magma census.

The count of distance magmas with n nonzero elements equals the number of
n x n alternating sign matrices (equivalently, of Magog triangles of order
n; Mills-Robbins-Rumsey 1983, Zeilberger 1996).  The census computes its
magma counts with a row-transfer DP (census.count_magmas), and the audit
compares them against the constants below.

Provenance: ROBBINS_NUMBERS holds literal values of the classical product
formula

    A(n) = prod_{j=0}^{n-1} (3j+1)! / (n+j)!

(the alternating-sign-matrix counting sequence 1, 2, 7, 42, 429, 7436,
218348, ...).  They are stored as literals so the audit's expectations are
inspectable data, and robbins_number() recomputes the product exactly so a
unit test can confirm the literals, and the DP, from an independent path
for every n stored here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ROBBINS_NUMBERS: dict[int, int] = {
    1: 1,
    2: 2,
    3: 7,
    4: 42,
    5: 429,
    6: 7436,
    7: 218348,
    8: 10850216,
    9: 911835460,
}


def robbins_number(n: int) -> int:
    """A(n) via the product formula, exact.

    AssertionError, even under python -O, if the product is not an integer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    value = Fraction(1)
    for j in range(n):
        value *= Fraction(factorial(3 * j + 1), factorial(n + j))
    if value.denominator != 1:
        raise AssertionError(f"the product formula gave a non-integer at n={n}")
    return value.numerator
