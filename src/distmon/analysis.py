"""Archimedean structure of a finite distance monoid.

The central quantity is the Archimedean complexity: the least m >= 1 such
that in every nondecreasing chain r0 <= r1 <= ... <= rm the total sum equals
the sum of the tail, i.e. the smallest element is absorbed.  It is computed
two ways: a bitmask dynamic program over "reachable sums" (fast, used by the
census on every monoid) and a direct enumeration of nondecreasing chains
(slow, the oracle the fast path is tested against).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import NotAssociativeError, check_scale
from .table import AdditionTable, _multiples, fold_oplus, from_entries

NAIVE_ORACLE_LIMIT = 6


@dataclass(frozen=True)
class ArchDecomposition:
    """Ordered composition of n into Archimedean class sizes.

    boundaries[c] = (start, end) ranks of class c, inclusive; classes are
    consecutive intervals covering 1..n, each ending at an idempotent.
    """

    sizes: tuple[int, ...]
    boundaries: tuple[tuple[int, int], ...]

    @property
    def class_count(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class ApProfile:
    """Lengths of the progressions e, 2e, 3e, ... with distinct values.

    per_element[i-1] is the count of distinct multiples of element i.
    """

    per_element: tuple[int, ...]
    longest: int


def _require_monoid(t: AdditionTable, op: str) -> None:
    if not t.is_monoid:
        raise NotAssociativeError(f"{op} requires an associative table")


def arch_complexity(t: AdditionTable) -> int:
    """Archimedean complexity via the reachable-sums dynamic program.

    reach(r, m) = indices expressible as a sum of m elements all >= r, kept
    as bitmasks.  reach(r, 1) = {r..n}; reach(r, m+1) = {u+v : u in
    reach(r, m), v >= r}.  The complexity is the first m where every r
    absorbs all of reach(r, m); it exists because absorption at m implies
    absorption at m+1 and always holds at m = n.  bad[r] is the mask of
    sums s that r fails to absorb (r + s != s), and img[u][v] the mask
    {u + w : w >= v}.
    """
    _require_monoid(t, "arch_complexity")
    n = t.n
    if n < 1:
        raise ValueError("Archimedean complexity is undefined for n = 0")
    bad = []
    img = []
    for row in t.entries:
        bad.append(sum(1 << s for s in range(n + 1) if row[s] != s))
        suffix = [0] * (n + 1)
        acc = 0
        for v in range(n, -1, -1):
            acc |= 1 << row[v]
            suffix[v] = acc
        img.append(suffix)
    full = (1 << (n + 1)) - 1
    reach = [(full >> r) << r for r in range(n + 1)]
    for m in range(1, n + 1):
        ok = True
        for r in range(1, n + 1):
            if reach[r] & bad[r]:
                ok = False
                break
        if ok:
            return m
        for r in range(1, n + 1):
            acc = 0
            mask = reach[r]
            while mask:
                low = mask & -mask
                acc |= img[low.bit_length() - 1][r]
                mask ^= low
            reach[r] = acc
    raise AssertionError("absorption must hold by m = n on an associative table")


def chains_absorb(t: AdditionTable, m: int) -> bool:
    """Does every nondecreasing (m+1)-chain absorb its smallest element?

    Direct transcription over all chains; exponential, meant for oracle
    duty and for spot-checking that absorption is monotone in m.
    """
    _require_monoid(t, "chains_absorb")
    for chain in combinations_with_replacement(range(t.n + 1), m + 1):
        tail = fold_oplus(t, chain[1:])
        if t.entries[chain[0]][tail] != tail:
            return False
    return True


def arch_complexity_naive(t: AdditionTable) -> int:
    """Oracle for arch_complexity by brute chain enumeration."""
    _require_monoid(t, "arch_complexity_naive")
    if t.n < 1:
        raise ValueError("Archimedean complexity is undefined for n = 0")
    check_scale("naive-oracle n", t.n, NAIVE_ORACLE_LIMIT)
    for m in range(1, t.n + 1):
        if chains_absorb(t, m):
            return m
    raise AssertionError("absorption must hold by m = n on an associative table")


def idempotents(t: AdditionTable) -> frozenset[int]:
    """Nonzero elements with e + e = e; valid on magmas as well as monoids."""
    return frozenset(i for i in range(1, t.n + 1) if t.entries[i][i] == i)


def decompose(t: AdditionTable) -> ArchDecomposition:
    """Split 1..n into Archimedean classes.

    Constructive route: the least remaining element's multiples stabilize at
    its class maximum; emit that interval and continue past it.  The result
    must agree with the O(n) splitting at idempotents (class maxima are
    exactly the nonzero idempotents); AssertionError if it does not.
    """
    _require_monoid(t, "decompose")
    sizes: list[int] = []
    boundaries: list[tuple[int, int]] = []
    lo = 1
    while lo <= t.n:
        top = _multiples(t, lo)[-1]
        sizes.append(top - lo + 1)
        boundaries.append((lo, top))
        lo = top + 1

    tops = sorted(idempotents(t))
    alt = [(prev + 1, top) for prev, top in zip([0] + tops, tops)]
    if alt != boundaries:  # not an assert, which python -O would strip
        raise AssertionError("multiple-stabilization and idempotent splits differ")
    return ArchDecomposition(tuple(sizes), tuple(boundaries))


def class_submonoid(t: AdditionTable, class_index: int) -> AdditionTable:
    """Induced table on {0} u class, reindexed to ranks 0..class size."""
    dec = decompose(t)
    if not 1 <= class_index <= dec.class_count:
        raise IndexError(
            f"class index {class_index} out of range 1..{dec.class_count}"
        )
    lo, hi = dec.boundaries[class_index - 1]
    m = hi - lo + 1
    old = [0] + list(range(lo, hi + 1))

    def reindex(v: int) -> int:
        return 0 if v == 0 else v - lo + 1

    entries = [[reindex(t.entries[old[p]][old[q]]) for q in range(m + 1)] for p in range(m + 1)]
    return from_entries(m, entries)


def ap_profile(t: AdditionTable) -> ApProfile:
    """Distinct-multiple counts per element; classes make these stabilize."""
    _require_monoid(t, "ap_profile")
    per = [len(_multiples(t, i)) for i in range(1, t.n + 1)]
    return ApProfile(tuple(per), max(per, default=0))


def analysis_json(t: AdditionTable) -> dict:
    """Analysis summary; field names are a stable interface."""
    dec = decompose(t)
    ap = ap_profile(t)
    return {
        "n": t.n,
        "arch": arch_complexity(t),
        "class_sizes": list(dec.sizes),
        "idempotents": sorted(idempotents(t)),
        "ap_longest": ap.longest,
        "ap_per_element": list(ap.per_element),
    }
