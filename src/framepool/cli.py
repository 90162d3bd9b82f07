"""Command-line surface: gen, stats, rebalance, train, eval, lr-curve.

Every subcommand accepts --config pointing at a JSON file whose keys mirror
the flag names (underscored); explicit flags win over file values.  The
effective configuration is printed as one `config {...}` line before any work
so a run can be reconstructed from its log.  Failures exit non-zero with a
single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .featureio import (
    SyntheticSpec,
    atomic_write,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .losses import HuberParams
from .metrics import (
    GapConfig,
    gap,
    miss_analysis,
    miss_report_csv,
    miss_report_text,
    read_predictions_csv,
    read_truth_csv,
    top_n,
    write_predictions_csv,
)
from .netmodel import ModelConfig, init_model, model_forward, set_output_prior
from .rebalance import build_hard_subset, build_tail_subset, label_frequency_stats, stats_csv
from .schedule import PRESETS, ScheduleParams
from .schedule import curve_csv as lr_curve_csv
from .trainer import (
    PhasePlan,
    TrainConfig,
    check_feature_width,
    curve_csv,
    dedupe_by_id,
    load_checkpoint,
    make_checkpoint,
    restore_checkpoint,
    save_checkpoint,
    train,
    train_phases,
)


class _Parser(argparse.ArgumentParser):
    """argparse's two-line usage dump replaced by a single parsable line."""

    def error(self, message: str) -> None:
        self.exit(2, f"error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="framepool", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for name, kind, _, *option_help in options:
            if kind is bool:
                how = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            p.add_argument("--" + name.replace("_", "-"),
                           help=option_help[0] if option_help else None, **how)
    return parser


def _check_file_value(name: str, kind, default, value) -> None:
    """A --config value must be one its flag could give: an int (not a bool)
    for int, any number for float, a string, a bool, or one of the choices;
    null only where the default is null."""
    if value is None:
        ok = default is None
    elif isinstance(kind, tuple):
        ok = value in kind
    elif kind is float:
        ok = type(value) in (int, float)
    else:
        ok = type(value) is kind
    if not ok:
        expected = f"one of {list(kind)}" if isinstance(kind, tuple) else kind.__name__
        raise ValueError(f"config {name}: expected {expected}, got {json.dumps(value)}")


def _effective(args: argparse.Namespace, options: list) -> dict:
    cfg = {name: default for name, _, default, *_ in options}
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        for name, kind, default, *_ in options:
            if name in file_cfg:
                _check_file_value(name, kind, default, file_cfg[name])
        cfg.update(file_cfg)
    for key in cfg:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _banner(command: str, cfg: dict) -> None:
    print("config", json.dumps({"command": command, **cfg}, sort_keys=True))


def _require(cfg: dict, key: str) -> None:
    if cfg[key] is None:
        raise ValueError(f"--{key.replace('_', '-')} is required")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with atomic_write(path, "w") as sink:
            sink.write(text)


def _resolve_schedule(cfg: dict) -> ScheduleParams:
    """The --preset schedule (slow when none is given), with each given field over it."""
    given = {key: cfg[key] for key in ("initial_lr", "decay", "decay_per_epoch", "staircase")
             if cfg[key] is not None}
    return dataclasses.replace(PRESETS[cfg["preset"] or "slow"], **given)


def cmd_gen(cfg: dict) -> int:
    _require(cfg, "out")
    spec = SyntheticSpec(
        num_videos=cfg["videos"], vocab_size=cfg["vocab"], d_video=cfg["d_video"],
        d_audio=cfg["d_audio"], t_min=cfg["t_min"], t_max=cfg["t_max"],
        labels_min=cfg["labels_min"], labels_max=cfg["labels_max"],
        imbalance_exponent=cfg["imbalance_exponent"], noise_scale=cfg["noise_scale"],
        seed=cfg["seed"])
    records = generate_synthetic(spec)
    written = save_dataset(cfg["out"], records, spec.header())
    print(f"wrote {cfg['out']}: {len(records)} videos, {written} bytes")
    return 0


def cmd_stats(cfg: dict) -> int:
    _require(cfg, "data")
    header, records = load_dataset(cfg["data"])
    stats = label_frequency_stats(records, header.vocab_size)
    _write_text(cfg["out"], stats_csv(stats))
    return 0


def cmd_rebalance(cfg: dict) -> int:
    for key in ("data", "mode", "out"):
        _require(cfg, key)
    header, records = load_dataset(cfg["data"])
    if cfg["mode"] == "tail":
        _require(cfg, "rank_threshold")
        subset = build_tail_subset(records, cfg["rank_threshold"], header.vocab_size)
    else:
        subset = build_hard_subset(records, cfg["multiplier"])
    out_header = dataclasses.replace(header, record_count=len(subset))
    save_dataset(cfg["out"], subset, out_header)
    print(f"wrote {cfg['out']}: {len(subset)} videos (from {len(records)})")
    return 0


def cmd_train(cfg: dict) -> int:
    for key in ("data", "val"):
        _require(cfg, key)
    header, records = load_dataset(cfg["data"])
    val_header, val_records = load_dataset(cfg["val"])
    shape = (header.d_video, header.d_audio, header.vocab_size)
    if shape != (val_header.d_video, val_header.d_audio, val_header.vocab_size):
        raise ValueError(f"train/val shape mismatch: {shape} vs "
                         f"{(val_header.d_video, val_header.d_audio, val_header.vocab_size)}")
    model_config = ModelConfig(
        pooling_kind=cfg["pooling"], cluster_size=cfg["clusters"],
        hidden_size=cfg["hidden"], d_video=header.d_video, d_audio=header.d_audio,
        vocab_size=header.vocab_size,
        modality_mode={"concat": "concatenated"}.get(cfg["modality"], cfg["modality"]),
        audio_cluster_size=cfg["audio_clusters"])
    model = init_model(model_config, seed=cfg["seed"])
    if cfg["output_prior"] is not None:
        set_output_prior(model, cfg["output_prior"])
    train_config = TrainConfig(
        batch_size=cfg["batch_size"], epoch_budget=cfg["epochs"],
        eval_every=cfg["eval_every"], seed=cfg["seed"],
        schedule=_resolve_schedule(cfg), loss=HuberParams(delta=cfg["delta"]),
        optimizer=cfg["optimizer"], gap_top_n=cfg["top_n"])

    if cfg["phase2_data"] is not None:
        _require(cfg, "phase2_epochs")
        _, phase2_records = load_dataset(cfg["phase2_data"])
        plan = PhasePlan(phases=[(records, cfg["epochs"]),
                                 (phase2_records, cfg["phase2_epochs"])])
        result = train_phases(plan, val_records, model, train_config)
    else:
        result = train(records, val_records, model, train_config)

    if cfg["out_curve"] is not None:
        _write_text(cfg["out_curve"], curve_csv(result.curve))
    if cfg["out_checkpoint"] is not None:
        cp = make_checkpoint(result.model, result.opt_state, result.global_step,
                             result.epoch_fraction, train_config)
        save_checkpoint(cfg["out_checkpoint"], cp)
    final_val = [row for row in result.curve if row[1] == "val"][-1]
    print(f"steps {result.global_step}")
    print(f"final_epoch {result.epoch_fraction:.6f}")
    print(f"final_val_gap {final_val[2]:.7f}")
    return 0


def _model_predictions(cfg: dict) -> tuple[list, dict]:
    model, _, _, _ = restore_checkpoint(load_checkpoint(cfg["checkpoint"]))
    _, records = load_dataset(cfg["data"])
    records = dedupe_by_id(records)
    check_feature_width(records, model)
    predictions = []
    truth = {}
    for start in range(0, len(records), 128):
        chunk = records[start:start + 128]
        probs, _ = model_forward([r.frames for r in chunk], model)
        for record, row in zip(chunk, probs):
            video_id = record.id.decode()
            predictions.append((video_id, top_n(enumerate(row.tolist()), cfg["top_n"])))
            truth[video_id] = set(record.labels.tolist())
    return predictions, truth


def cmd_eval(cfg: dict) -> int:
    file_mode = cfg["predictions"] is not None or cfg["truth"] is not None
    model_mode = cfg["checkpoint"] is not None or cfg["data"] is not None
    if file_mode == model_mode:
        raise ValueError("pass either --predictions with --truth, "
                         "or --checkpoint with --data")
    if file_mode:
        for key in ("predictions", "truth"):
            _require(cfg, key)
        with open(cfg["predictions"]) as fh:
            predictions = read_predictions_csv(fh)
        with open(cfg["truth"]) as fh:
            truth = read_truth_csv(fh)
    else:
        for key in ("checkpoint", "data"):
            _require(cfg, key)
        predictions, truth = _model_predictions(cfg)
        if cfg["out_predictions"] is not None:
            _write_text(cfg["out_predictions"], write_predictions_csv(predictions))
    config = GapConfig(n=cfg["top_n"])
    print(f"GAP {gap(predictions, truth, config):.7f}")
    report = miss_analysis(predictions, truth, config)
    print(miss_report_text(report), end="")
    if cfg["out_miss"] is not None:
        _write_text(cfg["out_miss"], miss_report_csv(report))
    return 0


def cmd_lr_curve(cfg: dict) -> int:
    params = _resolve_schedule(cfg)
    _write_text(cfg["out"], lr_curve_csv(params, cfg["epochs"], cfg["step"]))
    return 0


# One table per subcommand: (handler, help, options).  Each option is (name,
# type, default[, help]); the flag is --name with dashes and the --config key is
# the name itself.  A tuple type lists the choices; bool gives --x/--no-x.
_COMMANDS = {
    "gen": (cmd_gen, "write a synthetic dataset file", [
        ("videos", int, 1000),
        ("vocab", int, 50),
        ("d_video", int, 32),
        ("d_audio", int, 8),
        ("t_min", int, 4),
        ("t_max", int, 12),
        ("labels_min", int, 1),
        ("labels_max", int, 3),
        ("imbalance_exponent", float, 1.5),
        ("noise_scale", float, 0.05),
        ("seed", int, 0),
        ("out", str, None),
    ]),
    "stats": (cmd_stats, "label frequency table for a dataset", [
        ("data", str, None),
        ("out", str, None),
    ]),
    "rebalance": (cmd_rebalance, "derive a tail or hard-pattern subset", [
        ("data", str, None),
        ("mode", ("tail", "hard"), None),
        ("rank_threshold", int, None),
        ("multiplier", int, 3),
        ("out", str, None),
    ]),
    "train": (cmd_train, "train a model, optionally in two phases", [
        ("data", str, None),
        ("val", str, None),
        ("phase2_data", str, None),
        ("phase2_epochs", float, None),
        ("pooling", ("netvlad", "netfv"), "netvlad"),
        ("clusters", int, 8),
        ("audio_clusters", int, 0),
        ("hidden", int, 64),
        ("modality", ("separate", "concat"), "separate"),
        ("batch_size", int, 32),
        ("epochs", float, 2.5),
        ("eval_every", float, 0.25),
        ("seed", int, 0),
        ("optimizer", ("adam", "sgd"), "adam"),
        ("delta", float, 1.0),
        ("top_n", int, 20),
        ("output_prior", float, None, "start every output probability here instead of 0.5"),
        ("preset", tuple(sorted(PRESETS)), None),
        ("initial_lr", float, None),
        ("decay", float, None),
        ("decay_per_epoch", float, None),
        ("staircase", bool, None),
        ("out_curve", str, None),
        ("out_checkpoint", str, None),
    ]),
    "eval": (cmd_eval, "GAP plus missed-label report from CSVs or a checkpoint", [
        ("predictions", str, None),
        ("truth", str, None),
        ("checkpoint", str, None),
        ("data", str, None),
        ("top_n", int, 20),
        ("out_miss", str, None),
        ("out_predictions", str, None),
    ]),
    "lr-curve": (cmd_lr_curve, "emit a learning-rate schedule as CSV", [
        ("preset", tuple(sorted(PRESETS)), None),
        ("initial_lr", float, None),
        ("decay", float, None),
        ("decay_per_epoch", float, None),
        ("staircase", bool, None),
        ("epochs", float, 3.0),
        ("step", float, 0.25),
        ("out", str, None),
    ]),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, options = _COMMANDS[args.command]
    try:
        cfg = _effective(args, options)
        _banner(args.command, cfg)
        return handler(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
