"""Harness self-test at toy sizes.

Usage (from the root of the repo)::

    python3 perfbench/selftest.py

For every workload it runs the benchmark briefly with ``--trace 0`` and
``--trace 1`` and checks that every end-to-end and per-layer metric is
reported with its unit, that the layers the workload exercises report
work, and that the outputs pass their checks.  It then reruns each
workload with ``--corrupt``, which damages every output before it is
checked, and demands that the damage is counted as failed operations
instead of passing.  Exit 0 when all checks hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Per-layer metrics that must be non-zero on each workload: the layers
#: that run there (see README.md for the full layer map).
ACTIVE = {
    "dcgen": ("inference.prime.", "inference.step.", "backend.build_s", "kv.gather.",
              "prompt_cache.hits", "prompt_cache.misses", "prompt_cache.hit_ratio",
              "sampler.", "dcgen.", "journal.", "process.", "host."),
    "ordered": ("inference.prime.", "kv.gather.", "prompt_cache.hits", "sampler.",
                "ordered.", "journal.", "process.", "host."),
    "serve": ("inference.step.", "sampler.", "free.", "journal.", "atomic.",
              "server.post", "server.poll", "server.fetch", "server.queue_wait",
              "server.slot", "server.cpu_util", "process.", "host."),
    "train": ("atomic.", "train.", "process.", "host."),
}
TOY_SECONDS = 2


def bench(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(TOY_SECONDS), *extra],
        capture_output=True, text=True, check=False, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, result: dict, wanted: dict, active=()) -> list[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r} != {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r} is not a number")
        elif (not active or name.startswith(active)) and got["value"] <= 0:
            problems.append(f"{name}: {got['value']} but the layer runs on {workload}")
    return problems


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = bench(workload, "--trace", trace)
            problems = check_metrics(
                workload, result,
                PER_LAYER if trace == "1" else END_TO_END,
                ACTIVE[workload] if trace == "1" else (),
            )
            if not result["correct"] or result["failed"]:
                problems.append(f"outputs failed their checks: {result}")
            failures += [f"{workload} trace {trace}: {p}" for p in problems]
        corrupted = bench(workload, "--trace", "0", "--corrupt")
        if corrupted["correct"] or corrupted["failed"] == 0:
            failures.append(f"{workload}: a corrupted stream passed the output checks")
        print(f"{workload}: checked", file=sys.stderr)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
