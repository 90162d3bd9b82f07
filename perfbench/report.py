"""Print every benchmark metric of every workload by name, with its unit.

    python3 perfbench/report.py                  # end-to-end metrics, all workloads
    python3 perfbench/report.py --trace          # and the per-layer metrics
    python3 perfbench/report.py --size toy --seconds 1

Runs perfbench/run.py once per workload (and once more traced with --trace)
and prints one `workload metric value unit` line per metric, plus
`fail_ratio`, the share of attempted repeats that failed their output check.
Exits non-zero if any run produced no result or failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """The result object run.py printed as its last line."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--size", size],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            result = run_workload(name, args.seed, args.seconds, trace, args.size)
            ok &= result["correct"]
            for metric, m in result["metrics"].items():
                print(f"{name:11s} {metric:26s} {m['value']:14.6g} {m['unit']}")
            if not trace:
                print(f"{name:11s} {'fail_ratio':26s} "
                      f"{result['failed'] / result['attempted']:14.6g} ratio")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
