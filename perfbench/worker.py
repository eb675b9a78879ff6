"""One measured run of one workload, in a fresh interpreter.

Started by run.py from the checkout root with `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is the interpreter start, `import distmon` and building the
workload.  Then it runs closed-loop iterations (one client; each starts
when the previous one returns) within `--seconds`, checking every output.  Its last stdout line is one JSON object: `ready_at`
(CLOCK_MONOTONIC when set-up ended), `attempted`, `failed` and the
metrics of the run.

With `--trace 1` the run has three parts: untraced iterations in half the
time, traced iterations in the other half, and the workload's pool probe
census once at --jobs 1 and once at --jobs 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import distmon.census
import distmon.cli
import workloads
from spans import Tracer, layer_metrics, rusage_totals

SLOW_DEPTH_FACTOR = 1.5
SPANS_DIR = Path(__file__).resolve().parent / "out"
E2E_KEYS = ("wall_s", "cpu_s", "peak_rss_mb")


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = distmon.cli.main(argv)
    return code, out.getvalue()


def _at_depth(depth: int, fn):
    """Call fn() from `depth` extra Python frames."""
    if depth == 0:
        return fn()
    return _at_depth(depth - 1, fn)


def _execute(spec: dict) -> tuple[list[str], list[tuple[int, float]]]:
    """Run one iteration; return (mismatches, [(caller depth, seconds)])."""
    kind = spec["kind"]
    if kind == "cli-census":
        t0 = time.perf_counter()
        code, out = _call_cli(spec["argv"])
        calls = [(0, time.perf_counter() - t0)]
        if code != 0:
            return [f"exit code {code}"], calls
        if out != spec["stdout"]:
            return ["census stdout differs from the recorded row"], calls
        return [], calls
    if kind == "cli-audit":
        t0 = time.perf_counter()
        code, out = _call_cli(spec["argv"])
        calls = [(0, time.perf_counter() - t0)]
        doc = json.loads(out)
        bad = [f"exit code {code}"] if code != 0 else []
        if doc["overall_pass"] is not True:
            bad.append("overall_pass is not true")
        if len(doc["checks"]) != spec["checks"]:
            bad.append(f"{len(doc['checks'])} checks, expected {spec['checks']}")
        bad += [f"check {c['check']} {c['parameters']} failed" for c in doc["checks"] if not c["pass"]]
        return bad, calls

    config = distmon.census.SearchConfig(n=spec["n"], want_magmas=True)
    expected = {k: v for k, v in enumerate(spec["by_arch"], start=1)}
    bad, calls = [], []
    for depth in spec["depths"]:
        t0 = time.perf_counter()
        # looked up at call time, so the traced run sees its wrapper
        result = _at_depth(depth, lambda: distmon.census.enumerate_tables(config))
        calls.append((depth, time.perf_counter() - t0))
        got = (result.magma_count, result.monoid_count, result.by_arch)
        want = (spec["magma_count"], sum(spec["by_arch"]), expected)
        if got != want:
            bad.append(f"depth {depth}: got {got}, expected {want}")
    return bad, calls


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _iteration(spec: dict) -> dict:
    gc.collect()  # untimed: each iteration starts from a collected heap
    cpu0 = rusage_totals()[0]
    t0 = time.perf_counter()
    try:
        bad, calls = _execute(spec)
    except Exception:  # an iteration that raises is counted, never retried
        traceback.print_exc(file=sys.stderr)
        bad, calls = ["raised"], []
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": rusage_totals()[0] - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "errors": bad,
        "calls": calls,
    }


def _phase(spec: dict, seconds: float, tracer: Tracer | None = None, first: int = 0) -> list[dict]:
    """Closed-loop iterations within `seconds`: at least one, and another
    only while a median iteration still fits in the time left."""
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.iteration = first + len(records)
        records.append(_iteration(spec))
        elapsed = time.perf_counter() - start
        if elapsed + median(r["wall_s"] for r in records) > seconds:
            return records


def _depth_metrics(records: list[dict]) -> dict[str, float]:
    """Slowest caller depth over the median depth, from per-depth medians."""
    by_depth: dict[int, list[float]] = {}
    for rec in records:
        for depth, secs in rec["calls"]:
            by_depth.setdefault(depth, []).append(secs)
    per_depth = [median(v) for v in by_depth.values()]
    mid = median(per_depth)
    return {
        "census.depth_max_over_median": max(per_depth) / mid,
        "census.slow_depths": sum(1 for t in per_depth if t > SLOW_DEPTH_FACTOR * mid),
    }


def _pool_speedup(probe: dict) -> tuple[float, list[dict]]:
    """Wall at --jobs 1 over wall at --jobs 2 for the probe census, and its two checks."""
    walls, checked = [], []
    for argv in (probe["argv_jobs1"], probe["argv_jobs2"]):
        t0 = time.perf_counter()
        code, out = _call_cli(argv)
        walls.append(time.perf_counter() - t0)
        ok = code == 0 and out == probe["stdout"]
        checked.append({"errors": [] if ok else [f"pool probe {argv}: output differs from the recorded row"]})
    return walls[0] / walls[1], checked


def _summary(records: list[dict]) -> dict[str, float]:
    return {key: median(r[key] for r in records) for key in E2E_KEYS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--wrong", action="store_true",
                        help="plant a wrong expected constant (self-test)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spec = workloads.build(args.workload, args.seed, args.size, args.wrong)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    if not args.trace:
        records = _phase(spec, args.seconds)
        metrics = _summary(records)
        samples = {key: [r[key] for r in records] for key in E2E_KEYS}
    else:
        samples = {}
        records = _phase(spec, args.seconds / 2)
        tracer = Tracer()
        tracer.install_distmon()
        try:
            traced = _phase(spec, args.seconds / 2, tracer, first=len(records))
        finally:
            tracer.restore()
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.dump(SPANS_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer.spans, list(range(len(records), len(records) + len(traced))))
        metrics.update(_depth_metrics(records))
        speedup, probe_checks = _pool_speedup(spec["probe"])
        metrics["census.pool_speedup"] = speedup
        metrics["trace.overhead"] = _summary(traced)["wall_s"] / _summary(records)["wall_s"] - 1
        records += traced + probe_checks
    for line in sorted({line for r in records for line in r["errors"]}):
        print(f"{spec['name']}: {line}", file=sys.stderr)
    result = {
        "metrics": metrics,
        "samples": samples,
        "ready_at": ready_at,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["errors"]),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
