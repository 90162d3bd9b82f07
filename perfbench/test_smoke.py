"""Smoke test: every workload at toy size reports every named metric, correctly.

    python3 -m pytest perfbench/test_smoke.py

Not part of the repository's tier-1 suite (pytest collects tests/ only); it
takes about a minute.
"""

from __future__ import annotations

import pytest

from report import benchmark_spec, run_workload

SPEC = benchmark_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(name, trace):
    result = run_workload(name, seed=3, seconds=1, trace=trace, size="toy")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
