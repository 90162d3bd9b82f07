"""The benchmark's traced run still fits the program.

perfbench/tracing.py rebinds names on framepool modules (TARGETS) and its
counters read attributes of what the pooling kernels are passed: the
forward's params (.assign_weights) and the backward's cache (.frames,
.params).  Its own smoke test is outside this suite, so a refactor that
renames a traced function or changes those arguments is caught here.  The
file is imported and used as it is, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

from framepool import cli, trainer
from framepool.featureio import SyntheticSpec, generate_synthetic, save_dataset
from framepool.netmodel import ModelConfig, init_model
from framepool.optim import init_adam_state
from framepool.trainer import TrainConfig, make_checkpoint, save_checkpoint


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_binding_resolves():
    for module_name, attr, span, _ in tracing.TARGETS:
        module = importlib.import_module(f"framepool.{module_name}")
        assert callable(getattr(module, attr, None)), f"framepool.{module_name}.{attr} ({span})"


def test_traced_netfv_training_feeds_every_pooling_counter():
    spec = SyntheticSpec(num_videos=12, vocab_size=4, d_video=3, d_audio=2, t_min=2,
                         t_max=4, seed=1)
    records = generate_synthetic(spec)
    model = init_model(ModelConfig(pooling_kind="netfv", cluster_size=2, hidden_size=3,
                                   d_video=3, d_audio=2, vocab_size=4), seed=0)
    config = TrainConfig(batch_size=4, epoch_budget=0.5, eval_every=0.5)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = trainer.train(records[:8], records[8:], model, config)
    metrics = tracing.layer_metrics(tracer)
    steps = result.global_step
    assert steps == 1
    assert metrics["trainer.steps"] == steps
    assert metrics["optim.step_calls"] == steps
    assert metrics["pooling.backward_calls"] == 2 * steps  # video and audio towers
    assert metrics["pooling.forward_calls"] > metrics["pooling.backward_calls"]  # evals too
    for name in ("pooling.frames", "pooling.gflop", "pooling.flop_per_call",
                 "pooling.bytes_per_call", "netmodel.videos"):
        assert metrics[name] > 0, name


def _toy_run(top_n):
    spec = SyntheticSpec(num_videos=14, vocab_size=5, d_video=3, d_audio=2, t_min=2,
                         t_max=4, seed=1)
    records = generate_synthetic(spec)
    model = init_model(ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=3,
                                   d_video=3, d_audio=2, vocab_size=5), seed=0)
    config = TrainConfig(batch_size=4, epoch_budget=1.0, eval_every=0.5, gap_top_n=top_n)
    return spec, records, model, config


def test_traced_training_counts_every_gap_entry():
    _, records, model, config = _toy_run(top_n=3)
    train_set, val_set = records[:10], records[10:]
    tracer = tracing.Tracer()
    with tracer.installed():
        result = trainer.train(train_set, val_set, model, config)
    metrics = tracing.layer_metrics(tracer)
    eval_points = len(result.curve) // 2
    assert eval_points == 2
    assert metrics["trainer.evaluate_calls"] == 2 * eval_points
    assert metrics["metrics.gap_calls"] == 2 * eval_points
    # each eval point ranks every train and val video, min(n, vocab) entries each
    assert metrics["metrics.gap_entries"] == eval_points * (10 + 4) * min(3, 5)


def test_traced_cli_eval_feeds_gap_miss_and_csv(tmp_path):
    spec, records, model, config = _toy_run(top_n=20)
    data, ckpt = tmp_path / "data.vfr", tmp_path / "model.vpck"
    save_dataset(str(data), records, spec.header())
    save_checkpoint(str(ckpt), make_checkpoint(model, init_adam_state(model), 0, 0.0, config))
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--top-n", "3", "--out-predictions", str(tmp_path / "preds.csv")])
    assert code == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["netmodel.videos"] == len(records)
    assert metrics["metrics.gap_calls"] == 1
    assert metrics["metrics.gap_entries"] == len(records) * 3
    for name in ("metrics.gap_s", "metrics.miss_s", "metrics.csv_s"):
        assert metrics[name] > 0, name


def test_traced_data_prep_feeds_every_featureio_and_rebalance_counter(tmp_path):
    data, hard, tail = (str(tmp_path / name) for name in ("data.vfr", "hard.vfr", "tail.vfr"))
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv in (["gen", "--videos", "30", "--vocab", "6", "--d-video", "3",
                      "--d-audio", "1", "--t-min", "2", "--t-max", "3", "--out", data],
                     ["stats", "--data", data, "--out", str(tmp_path / "stats.csv")],
                     ["rebalance", "--data", data, "--mode", "hard", "--out", hard],
                     ["rebalance", "--data", data, "--mode", "tail", "--rank-threshold", "2",
                      "--out", tail]):
            assert cli.main(argv) == 0, argv
    metrics = tracing.layer_metrics(tracer)
    size = {path: Path(path).stat().st_size / 1e6 for path in (data, hard, tail)}
    assert tracing.layer_times(tracer.spans)["featureio.read"]["calls"] == 3  # one per load
    assert metrics["featureio.read_mb"] == 3 * size[data]
    assert metrics["featureio.write_mb"] == size[data] + size[hard] + size[tail]
    for name in ("featureio.generate_s", "featureio.read_s", "featureio.write_s",
                 "rebalance.stats_s", "rebalance.subset_s"):
        assert metrics[name] > 0, name
