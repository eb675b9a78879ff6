"""Workload definitions and the recorded results every iteration is checked against.

A workload spec is a plain dict, so the worker can rebuild it from the
workload name, the seed and the size.  Only stack-sweep consumes the seed:
it shuffles the order in which the caller depths are visited.

Sizes: "full" is what the benchmark measures; "tiny" runs the same code
paths at toy sizes for the self-test.
"""

from __future__ import annotations

import json
import random

NAMES = ("census-n9", "audit-n8", "stack-sweep")
SIZES = ("full", "tiny")

# Monoid counts by Archimedean complexity k = 1..n, as recorded in the README.
BY_ARCH = {
    4: [1, 14, 6, 1],
    6: [1, 202, 183, 54, 10, 1],
    8: [1, 4139, 6495, 2462, 558, 105, 14, 1],
    9: [1, 21146, 42489, 17737, 4052, 838, 137, 16, 1],
}
MAGMAS = {4: 42, 6: 7436}

# Number of records `distmon audit --n-max N` produces.
AUDIT_CHECKS = {4: 23, 8: 61}

SWEEP_DEPTHS = {"full": list(range(0, 217, 4)), "tiny": [0, 60, 120]}


def census_stdout(n: int, want_magmas: bool = False, bump: bool = False) -> str:
    """The exact stdout of `distmon census --n N [--magmas]` for a recorded row.

    `bump` adds one to the complexity-2 count, making a wrong expectation
    for the self-test.
    """
    row = list(BY_ARCH[n])
    if bump:
        row[1] += 1
    doc = {
        "n": n,
        "magma_count": str(MAGMAS[n]) if want_magmas else None,
        "monoid_count": str(sum(row)),
        "by_arch": {str(k): str(v) for k, v in enumerate(row, start=1)},
    }
    return json.dumps(doc, indent=2) + "\n"


def _census_argv(n: int, jobs: int, magmas: bool = False) -> list[str]:
    argv = ["census", "--n", str(n), "--jobs", str(jobs), "--prefix-depth", "3"]
    return argv + ["--magmas"] if magmas else argv


def _census_probe(n: int, magmas: bool = False) -> dict:
    """The census run at --jobs 1 and --jobs 2 for census.pool_speedup."""
    return {
        "argv_jobs1": _census_argv(n, 1, magmas),
        "argv_jobs2": _census_argv(n, 2, magmas),
        "stdout": census_stdout(n, magmas),
    }


def build(name: str, seed: int, size: str = "full", wrong: bool = False) -> dict:
    """The spec of workload `name`; `wrong` plants one wrong expected constant."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    if name == "census-n9":
        n = 4 if tiny else 9
        return {
            "name": name,
            "kind": "cli-census",
            "env": {"DISTMON_SCALE_OVERRIDE": "1"},
            "argv": _census_argv(n, 2),
            "stdout": census_stdout(n, bump=wrong),
            "probe": _census_probe(n),
        }
    if name == "audit-n8":
        n_max = 4 if tiny else 8
        return {
            "name": name,
            "kind": "cli-audit",
            "env": {},
            "argv": ["audit", "--n-max", str(n_max)],
            "checks": AUDIT_CHECKS[n_max] + (1 if wrong else 0),
            "probe": _census_probe(n_max),
        }
    n = 4 if tiny else 6
    depths = list(SWEEP_DEPTHS[size])
    random.Random(seed).shuffle(depths)
    by_arch = list(BY_ARCH[n])
    if wrong:
        by_arch[1] += 1
    return {
        "name": name,
        "kind": "sweep",
        "env": {},
        "n": n,
        "depths": depths,
        "magma_count": MAGMAS[n],
        "by_arch": by_arch,
        "probe": _census_probe(n, magmas=True),
    }
