"""Worker process: repeat one workload's timed operation for a time budget.

Started by run.py with one argument, the path of a job JSON file; writes its
results next to it.  Everything runs in this one thread.  In a traced run the
repeats alternate untraced and traced, so the overhead ratio compares
repeats of the same process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_REPEATS = 2  # one to compare against, and in a traced run one of each kind


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]](job["size"], job["seed"], Path(job["workdir"]))
    state = workload.load()
    repeats, layers, tracers = [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(job["trace"]) and len(repeats) % 2 == 1
        tracer = Tracer() if traced else None
        workload.before_run()
        error, out = None, None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    out = workload.run(state)
            else:
                out = workload.run(state)
        except Exception as exc:  # a failed repeat is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if out is not None:
            workload.after_run(out)
        repeats.append({"traced": traced, "seconds": seconds, "error": error, "out": out})
        if traced:
            tracers.append(tracer)
            layers.append(layer_metrics(tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + typical > job["seconds"]:
            break

    result = {
        "repeats": repeats,
        "layers": layers,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracers:
        with open(job["spans_path"], "w") as sink:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "repeats": [t.spans for t in tracers]}, sink)
    Path(job["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
