"""Self-test of the benchmark at toy sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

Each workload runs at toy size (census n = 4, audit --n-max 4, a sweep
over 3 caller depths), untraced and traced.  The test checks that each
run emits exactly the metrics BENCHMARK.json names, with their units, and
that no iteration failed.  It then plants one wrong expected constant per
workload and checks that the error rate rises above 0.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEED = 7
SECONDS = 0.5


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")

    for name in workloads.NAMES:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            result, _ = run.measure(name, SEED, SECONDS, trace, size="tiny")
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{label}: emitted {emitted}, declared {declared[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            print(f"{label}: {result['attempted']} attempted, {result['failed']} failed")

        result, _ = run.measure(name, SEED, SECONDS, False, size="tiny", wrong=True)
        error_rate = result["failed"] / result["attempted"]
        if error_rate <= 0 or result["correct"]:
            problems.append(f"{name}: a wrong expected constant left error_rate at {error_rate}")
        print(f"{name} with a wrong expected constant: error_rate = {error_rate:.3g}")

    for line in problems:
        print(f"FAIL {line}")
    print("self-test failed" if problems else "self-test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
