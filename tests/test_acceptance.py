"""Acceptance suite: every exit criterion, one test each, with a printed
pass/fail line per criterion (run with -s to see the lines live).

The n = 9 cross-check (criterion 9) is the long one; it finishes in well
under a minute here thanks to the pruned parallel search, so it runs by
default rather than hiding behind a flag.
"""

import json
import time
from math import comb

import pytest

from distmon.analysis import (
    ap_profile,
    arch_complexity,
    arch_complexity_naive,
    class_submonoid,
    decompose,
)
from distmon.builders import (
    counterexample_family,
    enumerate_complexity2,
    lower_bound_family,
    sup_monoid,
)
from distmon.census import SearchConfig, enumerate_tables
from distmon.formulas import bell, dm_n_2, dm_near_top
from distmon.table import validate

ROBBINS_EXPECTED = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436}


def criterion(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def small_censuses():
    """Monoid censuses with emission for n = 1..6, with wall time."""
    t0 = time.monotonic()
    results = {
        n: enumerate_tables(SearchConfig(n=n, emit=True)) for n in range(1, 7)
    }
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def magma_counts():
    t0 = time.monotonic()
    counts = {
        n: enumerate_tables(SearchConfig(n=n, want_magmas=True)).magma_count
        for n in range(1, 7)
    }
    return counts, time.monotonic() - t0


@pytest.fixture(scope="module")
def big_censuses():
    """n = 7 and n = 8 monoid censuses with emission (parallel permitted)."""
    return {
        n: enumerate_tables(SearchConfig(n=n, emit=True, job_count=2))
        for n in (7, 8)
    }


def test_criterion_1_formula_bell_identity():
    t0 = time.monotonic()
    ok = all(dm_n_2(n) == bell(n) - 1 for n in range(2, 16))
    elapsed = time.monotonic() - t0
    criterion(
        1,
        f"dm_n_2(n) == bell(n)-1 for n=2..15 in {elapsed:.3f}s (< 1s)",
        ok and elapsed < 1.0,
    )


def test_criterion_2_census_vs_formulas(small_censuses):
    results, elapsed = small_censuses
    ok = True
    for n in range(1, 7):
        by_arch = results[n].by_arch
        ok = ok and by_arch.get(1) == 1 and by_arch.get(n) == 1
        if n >= 2:
            ok = ok and by_arch.get(2, 0) == bell(n) - 1
        if n >= 3:
            ok = ok and by_arch.get(n - 1, 0) == 2 * n - 2
    criterion(
        2,
        f"by_arch extremes/Bell/2n-2 agree for n=1..6 in {elapsed:.1f}s (< 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_3_magma_counts(magma_counts):
    counts, elapsed = magma_counts
    ok = counts == ROBBINS_EXPECTED
    criterion(
        3,
        f"magma counts n=1..6 equal {tuple(ROBBINS_EXPECTED.values())} "
        f"in {elapsed:.1f}s (< 120s)",
        ok and elapsed < 120.0,
    )


def test_criterion_4_oracle_equivalence(small_censuses):
    results, _ = small_censuses
    mismatches = 0
    total = 0
    for n in range(1, 6):
        for t in results[n].emitted:
            total += 1
            if arch_complexity(t) != arch_complexity_naive(t):
                mismatches += 1
    criterion(
        4,
        f"fast arch == chain-enumeration arch on all {total} monoids with n<=5",
        mismatches == 0,
    )


def test_criterion_5_structured_bijection(small_censuses):
    results, _ = small_censuses
    ok = True
    for n in range(2, 7):
        built = set(enumerate_complexity2(n))
        stratum = {t for t in results[n].emitted if arch_complexity(t) == 2}
        ok = ok and built == stratum and len(built) == dm_n_2(n)
    criterion(5, "complexity-2 enumeration == census stratum for n=2..6", ok)


def test_criterion_6_constructions():
    example, is_monoid = sup_monoid([1, 2, 5, 6, 7])
    ok = is_monoid and arch_complexity(example) == 3
    ok = ok and decompose(example).sizes == (2, 3)
    ok = ok and [
        arch_complexity(class_submonoid(example, c)) for c in (1, 2)
    ] == [2, 2]
    for m in range(2, 6):
        t = counterexample_family(m)
        ok = ok and arch_complexity(t) == m and ap_profile(t).longest == 2
    for n in range(3, 11):
        for k in (1, 2):
            if n < k + 2:
                continue
            members = lower_bound_family(n, k)
            ok = ok and len(set(members)) == comb(n - 2, k)
            ok = ok and all(arch_complexity(t) == n - k for t in members)
    criterion(
        6,
        "example monoid (arch 3, classes (2,3), sub-archs (2,2)); "
        "counterexamples m=2..5 (arch m, AP 2); lower-bound families exact",
        ok,
    )


def test_criterion_7_long_progressions(small_censuses, big_censuses):
    results, _ = small_censuses
    censuses = {5: results[5], 6: results[6], 7: big_censuses[7], 8: big_censuses[8]}
    exceptions = 0
    checked = 0
    for n, result in censuses.items():
        for t in result.emitted:
            if arch_complexity(t) != n - 1:
                continue
            checked += 1
            if ap_profile(t).longest < n - 1:
                exceptions += 1
    criterion(
        7,
        f"all {checked} monoids with n in 5..8 and arch n-1 have an (n-1)-term "
        "progression",
        exceptions == 0 and checked == sum(2 * n - 2 for n in range(5, 9)),
    )


def test_criterion_8_lower_bound_sandwich(small_censuses, big_censuses):
    results, _ = small_censuses
    censuses = {5: results[5], 6: results[6], 7: big_censuses[7], 8: big_censuses[8]}
    ok = True
    for n, result in censuses.items():
        for k in range(1, 4):
            if n < k + 2:
                continue
            ok = ok and result.by_arch.get(n - k, 0) >= comb(n - 2, k)
    criterion(8, "C(n-2,k) <= by_arch(n-k) for k<=3, 5<=n<=8", ok)


def test_criterion_9_deep_n9():
    t0 = time.monotonic()
    result = enumerate_tables(SearchConfig(n=9, job_count=2))
    elapsed = time.monotonic() - t0
    actual = result.by_arch.get(7, 0)
    expected = dm_near_top(9, 2)
    criterion(
        9,
        f"DEEP: census at n=9 gives {actual} monoids of arch 7; formula says "
        f"{expected}; total {result.monoid_count} monoids in {elapsed:.0f}s",
        actual == expected == 137,
    )


def test_criterion_10_determinism():
    seq = enumerate_tables(SearchConfig(n=5, emit=True, job_count=1))
    par = enumerate_tables(SearchConfig(n=5, emit=True, job_count=4))
    same_bytes = json.dumps(seq.to_json_dict()) == json.dumps(par.to_json_dict())
    criterion(
        10,
        "census results byte-identical for jobs in {1, 4} at n=5",
        same_bytes and seq == par,
    )
