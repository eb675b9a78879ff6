"""Spans recorded from outside the program, by wrapping public functions.

The tracer replaces a function in the module namespace its callers look it
up in (for example `distmon.audit.arch_complexity`, which the audit uses,
rather than `distmon.analysis.arch_complexity`).  Each call then records a
span: name, start, end, parent span and iteration id, plus a few
attributes taken from the result.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from statistics import median


def rusage_totals() -> tuple[float, float, int]:
    """(user+sys seconds, sys seconds, minor faults) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        me.ru_stime + kids.ru_stime,
        me.ru_minflt + kids.ru_minflt,
    )


def _census_attrs(result) -> dict:
    return {"tables": result.monoid_count + (result.magma_count or 0)}


def _audit_attrs(report) -> dict:
    return {"checks": len(report.records), "failed_checks": len(report.failures)}


class Tracer:
    """Wraps functions in place; `restore` puts the originals back."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, iteration, attrs]
        self.spans: list[list] = []
        self.iteration = -1
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, attrs=None, rusage: bool = False) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.iteration, {}]
            self.spans.append(span)
            self._open.append(index)
            before = rusage_totals() if rusage else None
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if before is not None:
                after = rusage_totals()
                span[5]["sys_s"] = after[1] - before[1]
                span[5]["minflt"] = after[2] - before[2]
            if attrs is not None:
                span[5].update(attrs(result))
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def install_distmon(self) -> None:
        """Wrap every layer boundary the benchmark workloads cross."""
        import distmon.audit
        import distmon.census
        import distmon.cli

        self.wrap(distmon.cli, "main", "cli.main")
        self.wrap(distmon.audit, "run_audit", "audit.run_audit", attrs=_audit_attrs)
        # cli and the stack sweep look these up in distmon.census; the
        # census looks up partition_work there too
        for module in (distmon.census, distmon.audit):
            self.wrap(module, "enumerate_tables", "census.enumerate_tables",
                      attrs=_census_attrs, rusage=True)
        self.wrap(distmon.census, "partition_work", "census.partition_work",
                  attrs=lambda prefixes: {"prefixes": len(prefixes)})
        for fn in ("arch_complexity", "arch_complexity_naive", "decompose",
                   "idempotents", "ap_profile"):
            self.wrap(distmon.audit, fn, f"analysis.{fn}")
        self.wrap(distmon.audit, "enumerate_complexity2", "builders.enumerate_complexity2")
        for fn in ("dm_n_2", "bell", "dm_near_top", "lower_bound"):
            self.wrap(distmon.audit, fn, f"formulas.{fn}")

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "iteration", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span[1]
        for start, end in sorted(kids):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[2] - span[1] - covered)
    return out


# per-iteration sums of span fields, keyed by metric name:
# metric -> (span name prefix or name, what to sum)
_SPAN_METRICS = {
    "census.enumerate_s": ("census.enumerate_tables", "duration"),
    "census.calls": ("census.enumerate_tables", "count"),
    "census.tables": ("census.enumerate_tables", "tables"),
    "census.partition_s": ("census.partition_work", "duration"),
    "census.prefixes": ("census.partition_work", "prefixes"),
    "census.sys_s": ("census.enumerate_tables", "sys_s"),
    "census.minflt": ("census.enumerate_tables", "minflt"),
    "analysis.arch_complexity_s": ("analysis.arch_complexity", "duration"),
    "analysis.arch_complexity_calls": ("analysis.arch_complexity", "count"),
    "analysis.arch_naive_s": ("analysis.arch_complexity_naive", "duration"),
    "analysis.arch_naive_calls": ("analysis.arch_complexity_naive", "count"),
    "analysis.decompose_s": ("analysis.decompose", "duration"),
    "analysis.decompose_calls": ("analysis.decompose", "count"),
    "analysis.idempotents_s": ("analysis.idempotents", "duration"),
    "analysis.idempotents_calls": ("analysis.idempotents", "count"),
    "analysis.ap_profile_s": ("analysis.ap_profile", "duration"),
    "analysis.ap_profile_calls": ("analysis.ap_profile", "count"),
    "builders.enumerate_complexity2_s": ("builders.enumerate_complexity2", "duration"),
    "formulas.s": ("formulas.", "duration"),
    "audit.run_s": ("audit.run_audit", "duration"),
    "audit.self_s": ("audit.run_audit", "self"),
    "audit.checks": ("audit.run_audit", "checks"),
    "audit.failed_checks": ("audit.run_audit", "failed_checks"),
    "cli.main_s": ("cli.main", "duration"),
    "cli.self_s": ("cli.main", "self"),
}


def layer_metrics(spans: list[list], iterations: list[int]) -> dict[str, float]:
    """Median over `iterations` of each per-iteration span sum.

    A name ending in "." matches every span whose name starts with it.
    A span nested in a span of the same name would be counted twice; no
    wrapped function calls itself through a wrapped name.
    """
    selfs = self_times(spans)
    per_iter = {it: dict.fromkeys(_SPAN_METRICS, 0.0) for it in iterations}
    for span, own in zip(spans, selfs):
        sums = per_iter.get(span[4])
        if sums is None:
            continue
        for metric, (name, field) in _SPAN_METRICS.items():
            if not (span[0] == name or (name.endswith(".") and span[0].startswith(name))):
                continue
            if field == "duration":
                sums[metric] += span[2] - span[1]
            elif field == "self":
                sums[metric] += own
            elif field == "count":
                sums[metric] += 1
            else:
                sums[metric] += span[5].get(field, 0)
    out = {m: median(per_iter[it][m] for it in iterations) for m in _SPAN_METRICS}
    out["census.tables_per_s"] = (
        out["census.tables"] / out["census.enumerate_s"] if out["census.enumerate_s"] > 0 else 0.0
    )
    return out
