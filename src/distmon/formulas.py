"""Exact counting formulas and the ceiling-map combinatorics behind them.

Everything here is integer-exact: Python ints never overflow and no
floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

# Arbitrary-precision counts.  Python's int already is one; the alias marks
# intent at API boundaries.
BigCount = int

# Largest n the `formula` command evaluates any formula at without an
# override: dm2, bell and stirling2 do big-integer work growing about as
# n^3 in bits (dm_n_2(2000) takes seconds); lower-bound and a-chains build
# integers of up to n and (n - 1) * log2(k + 1) bits.
FORMULA_GUARD = 1000


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into positive parts, in colexicographic order.

    Colex (last part varies slowest) is irrelevant to any sum computed over
    compositions but keeps logs and enumerations reproducible.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    for last in range(1, n + 1):
        for head in compositions(n - last):
            yield head + (last,)


def dm_n_2(n: int) -> BigCount:
    """Number of distance monoids on n nonzero elements with complexity 2.

    Sum over compositions (n1, ..., nk) of n with k <= n-1 parts of the
    product over classes j of j^(nj - 1): class j's additions into later
    classes are ceiling maps forming a (j-1)-chain, giving j^(nj-1) choices.

    The sum is evaluated in O(n^2) steps rather than over all 2^(n-1)
    compositions.  weight[s] is the sum of the products over compositions
    of s into exactly j parts; taking one element off the last class
    either empties it (a composition of s-1 into j-1 parts) or removes one
    factor of j from its j^(nj-1).
    """
    if n < 2:
        raise ValueError("dm_n_2 requires n >= 2")
    weight = [1] + [0] * n  # j = 0 classes: only the empty composition
    total = 0
    for j in range(1, n):
        nxt = [0] * (n + 1)
        for s in range(1, n + 1):
            nxt[s] = weight[s - 1] + j * nxt[s - 1]
        weight = nxt
        total += weight[n]
    return total


def bell(n: int) -> BigCount:
    """Number of set partitions of an n-set, by the Bell-triangle recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling2(n: int, k: int) -> BigCount:
    """Partitions of an n-set into exactly k blocks, S(n,k)."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        nxt = [0] * (min(m, k) + 1)
        for b in range(1, len(nxt)):
            below = row[b] if b < len(row) else 0
            nxt[b] = b * below + row[b - 1]
        row = nxt
    return row[k] if k < len(row) else 0


def dm_near_top(n: int, k: int) -> BigCount:
    """Exact count of monoids with complexity n - k, for the k with a formula.

    k = 0 (n >= 1): 1.  k = 1 (n >= 3): 2n - 2.  k = 2 (n >= 9):
    2n^2 - 2n - 8 + d3(n) + d3(n+1) where d3(m) = 1 iff 3 divides m.
    Other (n, k) have no known closed form and are rejected.
    """
    if k == 0 and n >= 1:
        return 1
    if k == 1 and n >= 3:
        return 2 * n - 2
    if k == 2 and n >= 9:
        d3 = lambda m: 1 if m % 3 == 0 else 0
        return 2 * n * n - 2 * n - 8 + d3(n) + d3(n + 1)
    raise ValueError(f"no closed form available for (n={n}, k={k})")


def lower_bound(n: int, k: int) -> BigCount:
    """Guaranteed minimum count of monoids with complexity n - k: C(n-2, k)."""
    if k < 1 or n < k + 2:
        raise ValueError(f"lower_bound requires k >= 1 and n >= k + 2, got ({n}, {k})")
    return math.comb(n - 2, k)


@dataclass(frozen=True)
class CeilingMap:
    """Map on [n] sending each point up to the next member of a fixed-point
    set containing n: targets[i-1] = min{f in F : f >= i}.

    Equivalent characterization (checked on construction): a_i >= i, and
    a_m = a_i for all i <= m <= a_i.
    """

    n: int
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.targets) != self.n:
            raise ValueError("targets must have length n >= 1")
        a = self.targets
        for i in range(1, self.n + 1):
            ai = a[i - 1]
            if not i <= ai <= self.n:
                raise ValueError(f"target a_{i}={ai} outside {i}..{self.n}")
            for m in range(i, ai + 1):
                if a[m - 1] != ai:
                    raise ValueError(f"a_{m} must equal a_{i}={ai} on the block")

    @property
    def fixed_points(self) -> frozenset[int]:
        return frozenset(i for i in range(1, self.n + 1) if self.targets[i - 1] == i)

    def __call__(self, i: int) -> int:
        return self.targets[i - 1]


def ceil_in(fixed: frozenset[int] | set[int], s: int) -> int:
    return min(f for f in fixed if f >= s)


def ceiling_map_from_fixed_points(n: int, fixed: frozenset[int] | set[int]) -> CeilingMap:
    if n not in fixed or not all(1 <= f <= n for f in fixed):
        raise ValueError("fixed-point set must be a subset of [n] containing n")
    fs = frozenset(fixed)
    return CeilingMap(n, tuple(ceil_in(fs, i) for i in range(1, n + 1)))


def enumerate_A(n: int) -> list[CeilingMap]:
    """All ceiling maps on [n]; count 2^(n-1), one per subset of [n-1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for mask in range(1 << (n - 1)):
        fixed = {i + 1 for i in range(n - 1) if mask >> i & 1} | {n}
        out.append(ceiling_map_from_fixed_points(n, fixed))
    return out


def _count_chains_explicit(n: int, k: int) -> BigCount:
    """Count k-chains F1 <= ... <= Fk of subsets of [n] all containing n by
    visiting every chain (sets as bitmasks over [n-1]; n is implicit)."""
    universe = (1 << (n - 1)) - 1

    def grow(levels_left: int, floor_mask: int) -> int:
        if levels_left == 0:
            return 1
        free = universe & ~floor_mask
        total = 0
        sub = free
        while True:
            total += grow(levels_left - 1, floor_mask | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
        return total

    return grow(k, 0)


def count_A_chains(n: int, k: int) -> BigCount:
    """Number of pointwise-ordered k-tuples of ceiling maps on [n].

    Closed form (k+1)^(n-1): ordered tuples correspond to nested
    fixed-point-set chains, and each point of [n-1] independently picks the
    chain level where it becomes fixed (or never does).  Up to 300,000
    chains, where enumerating them is desk-feasible, the closed form is
    cross-checked against explicit chain enumeration, raising
    AssertionError if they differ.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    value = (k + 1) ** (n - 1)
    if value <= 300_000:
        explicit = _count_chains_explicit(n, k)
        if explicit != value:
            raise AssertionError(
                f"chain enumeration disagrees with closed form at (n={n}, k={k}): "
                f"{explicit} != {value}"
            )
    return value
