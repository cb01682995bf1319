"""Measure the benchmark's own noise floor and record it with a fingerprint.

Usage (from the root of the repo)::

    python3 perfbench/noise.py

Runs ``run.py --trace 0`` on unchanged code, once per seed on every
workload, for two sets of ten seeds (:data:`SEED_SETS`), each run
measuring ``run_seconds`` from ``BENCHMARK.json``.  For each set and
each end-to-end metric it records the median, quartiles and spread
(interquartile range over median), which must stay within the metric's
bound; for each metric it records how much worse the second set's median
is than the first's, which must too.  ``host.calib_s`` of every run and
the machine fingerprint go in as well.  Calibration is reported, never
used to adjust a metric.  Everything is written to ``noise_floor.json``;
the exit code is 1 when a spread or a drift exceeds its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_SETS = (range(101, 111), range(201, 211))


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        cc = "unavailable"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cc": cc,
    }


def run_set(workload: str, seeds: range, seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    calib = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            raise RuntimeError(f"{workload} seed {seed}:\n{proc.stdout}\n{proc.stderr}")
        calib += [float(line.split()[1]) for line in lines
                  if line.strip().startswith("host.calib_s")]
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: "
              + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), file=sys.stderr)
    metrics = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        med = statistics.median(series)
        metrics[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "values": series}
    return {"seeds": list(seeds), "host.calib_s": calib, "metrics": metrics}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [{w: run_set(w, seeds, seconds) for w in workloads} for seeds in SEED_SETS]
    report = {"fingerprint": fingerprint(), "seconds": seconds, "sets": sets,
              "drift": {}}
    problems = []
    for w in workloads:
        report["drift"][w] = {}
        for name, m in metrics.items():
            first, second = (s[w]["metrics"][name]["median"] for s in sets)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (second - first) / first
            report["drift"][w][name] = worse
            spreads = [s[w]["metrics"][name]["spread"] for s in sets]
            print(f"{w:8s} {name:18s} medians {first:.4g} / {second:.4g} "
                  f"(worse by {worse:+.3f}), spreads "
                  + " / ".join(f"{x:.3f}" for x in spreads) + f", bound {m['bound']}")
            if worse > m["bound"]:
                problems.append(f"{w} {name}: second median worse by {worse:.3f}")
            if name != "setup_s" and max(spreads) > m["bound"]:
                problems.append(f"{w} {name}: spread {max(spreads):.3f}")
    (HERE / "noise_floor.json").write_text(json.dumps(report, indent=1) + "\n")
    for problem in problems:
        print(f"OUT OF BOUND {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
