"""Golden bytes of criterion 10's training run, pinned across commits.

Criterion 10 compares two runs of the same code with each other; this test
compares the run with fixed SHA-256 digests of its curve CSV and its VPCK
checkpoint, so that a change to the code is seen even when it is
deterministic.  A second pair pins the same run with two NetFV towers, so
that the gradients of both pooling kernels are pinned to the bit.  A pure
refactor must keep every digest.  A change that reorders floating-point sums
may move them; it then records the largest absolute parameter and
Adam-moment difference against its parent commit (at most 1e-12) and updates
the digests here.

The data files are pinned the same way: a toy ``gen`` VFR, its ``stats`` CSV
and both ``rebalance`` outputs.  Their bytes follow from the generator, the
VFR codec and the rebalance recipes alone, so no change short of a new
format or a new recipe may move them.  So is ``framepool eval`` of a toy K=8
checkpoint on 300 videos, three scoring chunks: its predictions CSV, its
``--out-miss`` CSV and its stdout.  The full-size ``score_cli`` benchmark
workload's predictions CSV (10,000 videos, 200,000 rows) is pinned as well,
from the inputs that ``perfbench/workloads.py`` sets up at seed 1; the file
is loaded and used as it is, never edited.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from framepool.cli import main
from framepool.featureio import SyntheticSpec, generate_synthetic
from framepool.netmodel import ModelConfig, init_model
from framepool.schedule import ScheduleParams
from framepool.trainer import TrainConfig, checkpoint_bytes, curve_csv, make_checkpoint, train

CURVE_SHA256 = "dacd687c596cd5b1e8246ad10101c59abb2b8f041a2f8c9f307eb41bc2c0c0a8"
CHECKPOINT_SHA256 = "533e68e22e8793fca27ec105c9d175dcc995f076d80ad16ee7e944eff1507350"
NETFV_CURVE_SHA256 = "ff04cf3db523b143e168b36cbdf4ed1ab56585ff73b94149567b88924403a5b4"
NETFV_CHECKPOINT_SHA256 = "7c6a4ed4319abb8fd5af4bf449792a7ea4ae110d369ca8d855341474bea48bc5"
DATA_SHA256 = {
    "data.vfr": "ace9c91631bc9e0ba324ce4f94d2212a6c05c3786d99015e91dd08f8bf58f3ec",
    "stats.csv": "d6fd898c342c4239a2ef457033ccb87f3d9073e3f9249486e46078aabb0642a5",
    "hard.vfr": "5917f718dc2c7beba7ece45c0114106a067edbf6b35bd235a2d043c487247438",
    "tail.vfr": "c218e1d8f18ddbb1c8e702857371f7ae5881ed14dd874322aa532744647041d8",
}
SCORE_CLI_CSV_SHA256 = "3289eb7468acf3f2411d5e338df9a7f153780280fd641dcbf6e3fa71b787db88"


def _run_digests(config):
    spec = SyntheticSpec(num_videos=40, vocab_size=8, d_video=5, d_audio=3,
                         t_min=2, t_max=4, labels_min=1, labels_max=2,
                         imbalance_exponent=1.0, noise_scale=0.05, seed=5)
    records = generate_synthetic(spec)
    tc = TrainConfig(batch_size=4, epoch_budget=2.0, eval_every=0.5, seed=3,
                     schedule=ScheduleParams(initial_lr=0.01, decay=0.9, decay_per_epoch=1.0))
    result = train(records[:32], records[32:], init_model(config, seed=1), tc)
    blob = checkpoint_bytes(make_checkpoint(result.model, result.opt_state,
                                            result.global_step, result.epoch_fraction, tc))
    return (hashlib.sha256(curve_csv(result.curve).encode()).hexdigest(),
            hashlib.sha256(blob).hexdigest())


def test_criterion_10_curve_and_checkpoint_bytes_are_pinned():
    config = ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=8,
                         d_video=5, d_audio=3, vocab_size=8)
    assert _run_digests(config) == (CURVE_SHA256, CHECKPOINT_SHA256)


def test_netfv_separate_curve_and_checkpoint_bytes_are_pinned():
    config = ModelConfig(pooling_kind="netfv", cluster_size=2, hidden_size=8, d_video=5,
                         d_audio=3, vocab_size=8, modality_mode="separate",
                         audio_cluster_size=2)
    assert _run_digests(config) == (NETFV_CURVE_SHA256, NETFV_CHECKPOINT_SHA256)


def test_gen_stats_and_rebalance_bytes_are_pinned(tmp_path):
    # 600 videos, and 1,000-odd in the hard subset, span several codec chunks
    data = str(tmp_path / "data.vfr")
    commands = [
        ["gen", "--videos", "600", "--vocab", "30", "--seed", "4", "--out", data],
        ["stats", "--data", data, "--out", str(tmp_path / "stats.csv")],
        ["rebalance", "--data", data, "--mode", "hard", "--out", str(tmp_path / "hard.vfr")],
        ["rebalance", "--data", data, "--mode", "tail", "--rank-threshold", "5",
         "--out", str(tmp_path / "tail.vfr")],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DATA_SHA256}
    assert digests == DATA_SHA256


EVAL_SHA256 = {
    "predictions.csv": "8f348b0ff44bf0a1d560f6c25ceeb3e4b181f5fcbac19b4beb29b0d953f4b188",
    "miss.csv": "3d3309fe24af2a09d134ba6cdfba7d6abea9809aa9c3fda87cb6e2b53f74b1c0",
    "stdout": "36d68068e1d1f75ff6da779432be0efadd3d555d8cda48d26ecfe1d3256d4f22",
}


def test_eval_predictions_miss_csv_and_stdout_bytes_are_pinned(tmp_path, monkeypatch):
    # relative paths, so that the config banner on stdout is the same in any directory;
    # 300 videos are scored in three EVAL_CHUNK chunks by a K=8 NetVLAD checkpoint
    monkeypatch.chdir(tmp_path)
    setup = [
        ["gen", "--videos", "120", "--vocab", "30", "--seed", "7", "--out", "train.vfr"],
        ["gen", "--videos", "300", "--vocab", "30", "--seed", "7", "--out", "data.vfr"],
        ["train", "--data", "train.vfr", "--val", "train.vfr", "--clusters", "8",
         "--hidden", "16", "--epochs", "1", "--eval-every", "1", "--output-prior", "0.07",
         "--out-checkpoint", "model.vpck"],
    ]
    for argv in setup:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--checkpoint", "model.vpck", "--data", "data.vfr",
                     "--out-predictions", "predictions.csv", "--out-miss", "miss.csv"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("predictions.csv", "miss.csv")}
    digests["stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == EVAL_SHA256


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_score_cli_predictions_csv_bytes_are_pinned(tmp_path):
    _load_workloads().ScoreCli("full", 1, tmp_path).setup()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["eval", "--checkpoint", str(tmp_path / "model.vpck"),
                     "--data", str(tmp_path / "eval.vfr"),
                     "--out-predictions", str(tmp_path / "predictions.csv")]) == 0
    digest = hashlib.sha256((tmp_path / "predictions.csv").read_bytes()).hexdigest()
    assert digest == SCORE_CLI_CSV_SHA256
