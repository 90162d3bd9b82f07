"""framepool benchmark: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload curve_vlad --seed 1 --seconds 20 --trace 0

Sets up the workload's inputs from the seed (several times, timing each),
starts one worker process that repeats the timed operation for --seconds,
checks every repeat's outputs, and prints one JSON object as the last line
of stdout.  With --trace 0 its metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics, and the spans
are written to .perfbench-work/.  A run record (commit, Python, numpy, BLAS
and its thread count, CPU count, seed) is printed before the result and
saved with it.  Exits non-zero without a result if framepool cannot be
imported from src/ of this checkout.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, here and in the worker: one BLAS thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_MIN_REPEATS = 3  # and more, up to SETUP_MAX_REPEATS, until SETUP_MIN_S is spent
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 2.0
RUN_LIMIT_S = 170  # the whole run, set-up and checks included, ends within this


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import framepool
    except ImportError as exc:
        sys.exit(f"error: cannot import framepool from {SRC}: {exc}")
    if Path(framepool.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: framepool was imported from {framepool.__file__}, not {SRC}")


def _blas_runtime_threads():
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(args) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads_env": int(BLAS_THREADS),
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    began = time.perf_counter()
    _import_program()
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        setup_times = []
        while True:
            t0 = time.perf_counter()
            reference = workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if args.trace or len(setup_times) == SETUP_MAX_REPEATS:
                break
            if len(setup_times) >= SETUP_MIN_REPEATS and sum(setup_times) >= SETUP_MIN_S:
                break

        job = {"workload": args.workload, "size": args.size, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "src": str(SRC),
               "workdir": str(workdir), "result_path": str(workdir / "worker.json"),
               "spans_path": str(WORK / f"spans-{tag}.json")}
        (workdir / "job.json").write_text(json.dumps(job))
        budget = RUN_LIMIT_S - (time.perf_counter() - began)
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(workdir / "job.json")],
                       check=True, timeout=max(budget, 1.0))
        worker = json.loads((workdir / "worker.json").read_text())

        repeats = worker["repeats"]
        outs = [r["out"] if r["error"] is None else None for r in repeats]
        try:
            reasons, final_gap = workload.check(reference, outs)
        except Exception as exc:  # an output the check cannot even read fails every repeat
            reasons, final_gap = [f"check raised {type(exc).__name__}: {exc}"] * len(repeats), 0.0
        reasons = [r["error"] or reason for r, reason in zip(repeats, reasons)]
        failed = sum(reason is not None for reason in reasons)

        if args.trace:
            metrics = {name: statistics.median(layer[name] for layer in worker["layers"])
                       for name in PER_LAYER if name != "trace.overhead_ratio"}
            metrics["trace.overhead_ratio"] = (
                statistics.median(r["seconds"] for r in repeats if r["traced"])
                / statistics.median(r["seconds"] for r in repeats if not r["traced"]))
            units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        else:
            wall = statistics.median(r["seconds"] for r in repeats)
            good = next((o for o in outs if o is not None), None)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "videos_per_s": workload.videos(good) / wall if good else 0.0,
                "final_val_gap": final_gap,
                "peak_rss_mb": worker["peak_rss_mb"],
            }
            units = {"setup_s": "s", "wall_s": "s", "videos_per_s": "1/s",
                     "final_val_gap": "GAP", "peak_rss_mb": "MB"}
        result = {"correct": failed == 0, "attempted": len(repeats), "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        record = run_record(args)
        record.update({"repeat_seconds": [r["seconds"] for r in repeats],
                       "repeat_traced": [r["traced"] for r in repeats],
                       "setup_seconds": setup_times,
                       "failures": [reason for reason in reasons if reason is not None]})
        (WORK / f"result-{tag}.json").write_text(json.dumps({"record": record, **result},
                                                            indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("run_record", json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
