"""Cross-check harness tying the census to the formulas and structural guarantees.

Every check compares an independently computed expectation against brute
force and is reported as a record; the harness never repairs a mismatch,
it only reports it.

Checks (e) and (f) pick their complexity strata by the arch the census
streams with each emitted monoid (census.stream_tables), computed while
the table was grown.  Check (d) ties that arch, per table, to
arch_complexity and to the chain-enumeration oracle for n <= 5.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from .analysis import (
    ap_profile,
    arch_complexity,
    arch_complexity_naive,
    decompose,
    idempotents,  # not called here, but perfbench/spans.py wraps audit.idempotents
)
from .builders import enumerate_complexity2
from .census import (
    MAGMA_GUARD,
    CensusResult,
    SearchConfig,
    _stream_levels,
    count_magmas,
    enumerate_tables,
)
from .errors import scale_override_active
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
    # seconds spent on this record's own check: its per-table time in the
    # census pass (checks d, e, f, h) plus the time since the previous
    # record; a measurement, so neither compared nor serialized
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
    # seconds spent in the one monoid census the checks read, its streams
    # and the tables they build included (not the deep one)
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


def _bijection(n: int, stratum: set) -> str:
    """Check (f): the structured complexity-2 monoids on n elements vs the
    census's complexity-2 stratum, both ways."""
    built = set(enumerate_complexity2(n))
    if built == stratum:
        return "built == census stratum"
    return f"built-only={len(built - stratum)} census-only={len(stratum - built)}"


def run_audit(
    n_max: int,
    deep: bool = False,
    jobs: int = 1,
    census_hook: Callable[[CensusResult, Iterator], tuple[CensusResult, Iterator]]
    | None = None,
) -> AuditReport:
    """Run the full battery of cross-checks up to n_max.

    n_max past the census guard (SearchConfig.check_scale; the deep census
    is within it) needs DISTMON_SCALE_OVERRIDE=1, and without it check (c)
    stops at MAGMA_GUARD.

    One truncation census up to n_max streams the monoids of every n, and
    each n is read in one pass over its stream: the per-table parts of
    checks (d), (e), (f) and (h) run as each table arrives and keep only
    their tallies, so the pass holds one table at a time.  The records are
    then made in check order from the tallies.

    census_hook is a test seam: it may transform each census result and
    its stream of (table, arch) pairs before the checks see them, so the
    harness itself can be shown to catch faults.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # guarded before the census spends any time
    SearchConfig(n=n_max).check_scale()
    records: list[CheckRecord] = []
    spent: Counter = Counter()
    mark = time.perf_counter()

    def split(key) -> None:
        # add the seconds since the previous split to spent[key]
        nonlocal mark
        now = time.perf_counter()
        spent[key] += now - mark
        mark = now

    def add(name: str, parameters: dict, expected, actual, key=None) -> None:
        # key: where the pass put this check's per-table time, if anywhere
        key = len(records) if key is None else key
        split(key)
        records.append(
            CheckRecord(
                name, parameters, str(expected), str(actual),
                str(expected) == str(actual), elapsed_s=spent[key],
            )
        )

    # magma counts come from the DP, attached to the monoid census of each n
    magma_top = n_max if scale_override_active() else min(n_max, MAGMA_GUARD)
    monoid_census: dict[int, CensusResult] = {}
    mismatches: Counter = Counter()  # (d) per n
    stratum_size: Counter = Counter()  # (e) per n
    missing: Counter = Counter()  # (e) per n
    bijection: dict[int, str] = {}  # (f) per n
    bad: Counter = Counter()  # (h) per n
    for n, (result, tables) in enumerate(_stream_levels(n_max, jobs), start=1):
        if n <= magma_top:
            result = replace(result, magma_count=count_magmas(n))
        if census_hook is not None:
            result, tables = census_hook(result, tables)
        monoid_census[n] = result
        stratum2 = set()
        split("census")
        for t, arch in tables:
            split("census")
            # (d) census arch vs fast arch vs chain-enumeration oracle
            if n <= 5:
                if not arch == arch_complexity(t) == arch_complexity_naive(t):
                    mismatches[n] += 1
                split(("d", n))
            # (e) progressions of length n-1 in the complexity n-1 stratum
            if n >= 5 and arch == n - 1:
                stratum_size[n] += 1
                if ap_profile(t).longest < n - 1:
                    missing[n] += 1
                split(("e", n))
            # (f) the complexity-2 stratum, compared with the builder below
            if 2 <= n <= 6 and arch == 2:
                stratum2.add(t)
                split(("f", n))
            # (h) class decomposition vs idempotent splitting: decompose
            # raises AssertionError if the two differ, and otherwise has one
            # class per idempotent by construction
            try:
                decompose(t)
            except AssertionError:
                bad[n] += 1
            split(("h", n))
        split("census")
        if 2 <= n <= 6:
            bijection[n] = _bijection(n, stratum2)
            split(("f", n))

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
        add("arch-dp-vs-naive", {"n": n}, 0, mismatches[n], key=("d", n))

    # (e) progressions of length n-1 in every complexity n-1 monoid
    for n in range(5, n_max + 1):
        add(
            "long-progression-guarantee",
            {"n": n, "stratum_size": stratum_size[n]},
            0,
            missing[n],
            key=("e", n),
        )

    # (f) structured complexity-2 enumeration vs census stratum, both ways
    for n in range(2, min(n_max, 6) + 1):
        add(
            "complexity2-bijection",
            {"n": n},
            "built == census stratum",
            bijection[n],
            key=("f", n),
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
        add("class-splitting-agreement", {"n": n}, 0, bad[n], key=("h", n))

    # (i) the one formula nothing smaller can reach: complexity n-2 at n = 9
    if deep:
        deep_census = enumerate_tables(SearchConfig(n=DEEP_N, job_count=jobs))
        if census_hook is not None:
            deep_census, _ = census_hook(deep_census, iter(()))
        add(
            "deep-near-top-2-vs-census",
            {"n": DEEP_N, "k": DEEP_K},
            dm_near_top(DEEP_N, DEEP_K),
            deep_census.by_arch.get(DEEP_N - DEEP_K, 0),
        )

    return AuditReport(tuple(records), census_s=spent["census"])
