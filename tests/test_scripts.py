"""scripts/rebalance_recipes.py at toy size: it runs, and reports each recipe."""

import re
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rebalance_recipes.py"
RESULT = re.compile(r"(.+): val GAP (\d\.\d{4}), tail-slice GAP (\d\.\d{4}) \((\d+) steps\)")


def test_rebalance_recipes_reports_every_step_of_both_phases(capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    assert main(["--train-videos", "60", "--val-videos", "20",
                 "--phase1", "0.5", "--phase2", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "train 60 videos; tail subset 12, hard set 108; tail slice of val 4/20"
    results = [RESULT.fullmatch(line) for line in lines[1:]]
    assert all(results) and len(results) == 3
    assert [m[1] for m in results] == ["control (full set throughout)", "tail second phase",
                                       "hard-tripled second phase"]
    assert all(0.0 <= float(m[k]) <= 1.0 for m in results for k in (2, 3))
    # batch 32: the control runs ceil(1.0 * 60 / 32) = 2 steps; each recipe runs
    # ceil(0.5 * 60 / 32) = 1, then ceil(0.5 * 12 / 32) = 1 on the tail subset
    # or ceil(0.5 * 108 / 32) = 2 on the hard set
    assert [int(m[4]) for m in results] == [2, 2, 3]
