"""distmon benchmark: one workload, one run, metrics as JSON on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-n9 --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters (worker.py) that import distmon from
`src/` and call it only through its public entry points.  Set-up is timed
several times: SETUP_PROBES interpreters that only set up and exit, half
before and half after the measuring one, plus the set-up of the measuring
interpreter; setup_s is their median.

--trace 0 reports the end-to-end metrics (medians over the iterations of
the run).  --trace 1 reports the per-layer metrics, taken from spans that
the benchmark records by wrapping distmon's public functions; the spans
are written to perfbench/out/.  Metric names and units come from
BENCHMARK.json, and a run fails if it measured a different set.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 170


def _worker_env(spec_env: dict) -> dict:
    env = dict(os.environ)
    env.pop("DISTMON_SCALE_OVERRIDE", None)  # only a workload may set it
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(spec_env)
    return env


def _spawn(args: list[str], env: dict) -> tuple[dict, float]:
    """Run worker.py; return its last-line JSON and its set-up time in seconds."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group, pool workers included
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_at"] - started


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", wrong: bool = False) -> tuple[dict, dict]:
    """One benchmark run: the result object run.py prints, and the samples behind each median."""
    spec = workloads.build(workload, seed, size, wrong)
    env = _worker_env(spec["env"])
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    probe_args = base + ["--setup-only"]
    setups = [_spawn(probe_args, env)[1] for _ in range(SETUP_PROBES // 2)]

    run_args = base + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if wrong:
        run_args.append("--wrong")
    result, setup = _spawn(run_args, env)
    setups.append(setup)
    # the rest after the run, so that one slow spell of the host weighs less
    setups += [_spawn(probe_args, env)[1] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    metrics, samples = dict(result["metrics"]), dict(result["samples"])
    if not trace:
        metrics["setup_s"] = median(setups)
        samples["setup_s"] = setups
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distmon" / "__init__.py").is_file():
        print(f"error: no distmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(f"# error_rate = {result['failed'] / result['attempted']:.6g} ratio")
    for name, m in result["metrics"].items():
        of = f"  median of {', '.join(f'{v:.4g}' for v in samples[name])}" if name in samples else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{of}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
