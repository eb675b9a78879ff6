"""Cross-check harness tying the census to the formulas and structural guarantees.

Every check compares an independently computed expectation against brute
force and is reported as a record; the harness never repairs a mismatch,
it only reports it.

Checks (e) and (f) pick their complexity strata by the arch the census
carries with each emitted monoid (CensusResult.emitted_arch), computed
while the table was grown.  Check (d) ties that arch, per table, to
arch_complexity and to the chain-enumeration oracle for n <= 5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from .analysis import (
    ap_profile,
    arch_complexity,
    arch_complexity_naive,
    decompose,
    idempotents,
)
from .builders import enumerate_complexity2
from .census import (
    MAGMA_GUARD,
    MONOID_GUARD,
    CensusResult,
    SearchConfig,
    count_magmas,
    enumerate_tables,
)
from .errors import check_scale, scale_override_active
from .formulas import bell, dm_n_2, dm_near_top, lower_bound
from .robbins import ROBBINS_NUMBERS

DEEP_N = 9
DEEP_K = 2


@dataclass(frozen=True)
class CheckRecord:
    name: str
    parameters: dict
    expected: str
    actual: str
    passed: bool
    # seconds since the previous record (the first: since the censuses);
    # a measurement, so neither compared nor serialized
    elapsed_s: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "parameters": self.parameters,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class AuditReport:
    records: tuple[CheckRecord, ...]
    # seconds spent in the monoid censuses the checks read (not the deep one)
    census_s: float = field(default=0.0, compare=False)

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def to_json_dict(self) -> dict:
        return {
            "overall_pass": self.overall,
            "checks": [r.to_json_dict() for r in self.records],
        }

    def timings_json_dict(self) -> dict:
        """Where the audit's time went, in seconds; kept out of to_json_dict."""
        return {
            "census_s": self.census_s,
            "checks": [
                {"check": r.name, "parameters": r.parameters, "elapsed_s": r.elapsed_s}
                for r in self.records
            ],
        }


def run_audit(
    n_max: int,
    deep: bool = False,
    jobs: int = 1,
    census_hook: Callable[[CensusResult], CensusResult] | None = None,
) -> AuditReport:
    """Run the full battery of cross-checks up to n_max.

    n_max past MONOID_GUARD needs DISTMON_SCALE_OVERRIDE=1, and without
    it check (c) stops at MAGMA_GUARD; the deep census lifts its own guard.

    census_hook is a test seam: it may transform each census result before
    the checks see it, so the harness itself can be shown to catch faults.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # the largest census is guarded before the smaller ones spend time
    check_scale("monoid census n", n_max, MONOID_GUARD)
    records: list[CheckRecord] = []

    def add(name: str, parameters: dict, expected, actual) -> None:
        nonlocal last
        now = time.perf_counter()
        records.append(
            CheckRecord(
                name, parameters, str(expected), str(actual),
                str(expected) == str(actual), elapsed_s=now - last,
            )
        )
        last = now

    # magma counts come from the DP, attached to the monoid census of each n
    magma_top = n_max if scale_override_active() else min(n_max, MAGMA_GUARD)

    def census(n: int) -> CensusResult:
        result = enumerate_tables(SearchConfig(n=n, emit=True, job_count=jobs))
        if n <= magma_top:
            result = replace(result, magma_count=count_magmas(n))
        if census_hook is not None:
            result = census_hook(result)
        return result

    start = time.perf_counter()
    monoid_census = {n: census(n) for n in range(1, n_max + 1)}
    last = time.perf_counter()
    census_s = last - start

    # (a) complexity-2 stratum vs formula vs Bell
    for n in range(2, n_max + 1):
        add(
            "dm2-census-vs-formula",
            {"n": n},
            dm_n_2(n),
            monoid_census[n].by_arch.get(2, 0),
        )
        add("dm2-formula-vs-bell", {"n": n}, bell(n) - 1, dm_n_2(n))

    # (b) complexity n-1 stratum vs 2n-2
    for n in range(3, n_max + 1):
        add(
            "near-top-1-vs-census",
            {"n": n},
            dm_near_top(n, 1),
            monoid_census[n].by_arch.get(n - 1, 0),
        )

    # (c) magma counts vs stored Robbins constants
    for n in range(1, magma_top + 1):
        add(
            "magma-count-vs-robbins",
            {"n": n},
            ROBBINS_NUMBERS[n],
            monoid_census[n].magma_count,
        )

    # (d) census arch vs fast arch vs chain-enumeration oracle, exhaustive
    # for small n
    for n in range(1, min(n_max, 5) + 1):
        res = monoid_census[n]
        mismatches = sum(
            1
            for t, arch in zip(res.emitted, res.emitted_arch)
            if not arch == arch_complexity(t) == arch_complexity_naive(t)
        )
        add("arch-dp-vs-naive", {"n": n}, 0, mismatches)

    # (e) progressions of length n-1 in every complexity n-1 monoid
    for n in range(5, n_max + 1):
        res = monoid_census[n]
        stratum = [t for t, arch in zip(res.emitted, res.emitted_arch) if arch == n - 1]
        missing = sum(1 for t in stratum if ap_profile(t).longest < n - 1)
        add(
            "long-progression-guarantee",
            {"n": n, "stratum_size": len(stratum)},
            0,
            missing,
        )

    # (f) structured complexity-2 enumeration vs census stratum, both ways
    for n in range(2, min(n_max, 6) + 1):
        built = set(enumerate_complexity2(n))
        res = monoid_census[n]
        stratum = {t for t, arch in zip(res.emitted, res.emitted_arch) if arch == 2}
        add(
            "complexity2-bijection",
            {"n": n},
            "built == census stratum",
            "built == census stratum"
            if built == stratum
            else f"built-only={len(built - stratum)} census-only={len(stratum - built)}",
        )

    # (g) lower-bound sandwich: C(n-2, k) <= census count at complexity n-k
    for n in range(5, n_max + 1):
        for k in range(1, min(3, n - 2) + 1):
            bound = lower_bound(n, k)
            actual = monoid_census[n].by_arch.get(n - k, 0)
            add(
                "lower-bound-sandwich",
                {"n": n, "k": k},
                f"count >= {bound}",
                f"count >= {bound}" if actual >= bound else f"count = {actual} < {bound}",
            )

    # (h) class decomposition agrees with idempotent splitting, per monoid
    for n in range(1, n_max + 1):
        bad = 0
        for t in monoid_census[n].emitted:
            try:
                dec = decompose(t)  # AssertionError if the two splittings differ
            except AssertionError:
                bad += 1
                continue
            if dec.class_count != len(idempotents(t)):
                bad += 1
        add("class-splitting-agreement", {"n": n}, 0, bad)

    # (i) the one formula nothing smaller can reach: complexity n-2 at n = 9
    if deep:
        deep_census = enumerate_tables(
            SearchConfig(n=DEEP_N, job_count=jobs, scale_override=True)
        )
        if census_hook is not None:
            deep_census = census_hook(deep_census)
        add(
            "deep-near-top-2-vs-census",
            {"n": DEEP_N, "k": DEEP_K},
            dm_near_top(DEEP_N, DEEP_K),
            deep_census.by_arch.get(DEEP_N - DEEP_K, 0),
        )

    return AuditReport(tuple(records), census_s=census_s)
