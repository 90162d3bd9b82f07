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

from framepool import trainer
from framepool.featureio import SyntheticSpec, generate_synthetic
from framepool.netmodel import ModelConfig, init_model
from framepool.trainer import TrainConfig


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
