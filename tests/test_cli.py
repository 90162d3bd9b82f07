"""CLI behavior: banners, config merging, subcommand outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from framepool.cli import main
from framepool.featureio import load_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=120):
    """``python -m framepool *argv`` in a child process that must end within
    ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "framepool", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def gen_dataset(tmp_path, capsys, name="data.vfr", videos=40, seed=0, **extra):
    path = tmp_path / name
    argv = ["gen", "--videos", str(videos), "--vocab", "10", "--d-video", "6",
            "--d-audio", "2", "--t-min", "3", "--t-max", "4", "--seed", str(seed),
            "--out", str(path)]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return path


def test_gen_writes_loadable_dataset(tmp_path, capsys):
    path = gen_dataset(tmp_path, capsys)
    header, records = load_dataset(str(path))
    assert header.record_count == 40
    assert len(records) == 40


def test_gen_zero_videos_fails_cleanly(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "--videos", "0",
                         "--out", str(tmp_path / "x.vfr"))
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_gen_with_fewer_weighted_labels_than_drawn_fails_without_hanging(tmp_path):
    # an infinite exponent leaves label 0 the only one with weight, so no video can
    # draw 2 distinct labels; the draw must fail, not retry forever
    proc = run_process("gen", "--videos", "5", "--vocab", "10", "--labels-max", "2",
                       "--imbalance-exponent", "inf", "--out", str(tmp_path / "x.vfr"),
                       timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: Fewer non-zero entries in p than size"]
    assert not (tmp_path / "x.vfr").exists()


def test_gen_missing_out_flag(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "--videos", "5")
    assert code == 1
    assert "error: --out is required" in err


def test_unknown_flag_single_line_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--bogus", "1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_banner_precedes_action_and_reconstructs_run(tmp_path, capsys):
    path = tmp_path / "d.vfr"
    code, out, err = run(capsys, "gen", "--videos", "12", "--vocab", "9",
                         "--out", str(path))
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("config ")
    cfg = json.loads(first[len("config "):])
    assert cfg["command"] == "gen"
    assert cfg["videos"] == 12
    assert cfg["vocab"] == 9
    assert cfg["out"] == str(path)


def test_config_file_merging_flags_win(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"videos": 15, "vocab": 7, "seed": 4}))
    path = tmp_path / "d.vfr"
    code, out, err = run(capsys, "gen", "--config", str(config),
                         "--videos", "20", "--out", str(path))
    assert code == 0
    cfg = json.loads(out.splitlines()[0][len("config "):])
    assert cfg["videos"] == 20  # flag beats file
    assert cfg["vocab"] == 7    # file beats default
    assert cfg["seed"] == 4
    header, _ = load_dataset(str(path))
    assert header.record_count == 20


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"video_count": 15}))
    code, out, err = run(capsys, "gen", "--config", str(config),
                         "--out", str(tmp_path / "d.vfr"))
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize("file_cfg, message", [
    ([["videos", 3]], "config file must hold a JSON object"),
    ({"videos": "12"}, 'config videos: expected int, got "12"'),
    ({"videos": True}, "config videos: expected int, got true"),
    ({"videos": None}, "config videos: expected int, got null"),
    ({"noise_scale": False}, "config noise_scale: expected float, got false"),
    ({"out": ["d.vfr"]}, 'config out: expected str, got ["d.vfr"]'),
])
def test_config_file_value_of_wrong_type_single_error_line(tmp_path, capsys, file_cfg, message):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(file_cfg))
    code, out, err = run(capsys, "gen", "--config", str(config),
                         "--out", str(tmp_path / "d.vfr"))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_config_file_choice_and_bool_checked_against_option_table(tmp_path, capsys):
    config = tmp_path / "lr.json"
    config.write_text(json.dumps({"preset": "medium"}))
    code, _, err = run(capsys, "lr-curve", "--config", str(config))
    assert err.splitlines() == ["error: config preset: expected one of ['fast', 'slow'], got \"medium\""]
    config.write_text(json.dumps({"preset": "fast", "staircase": 1}))
    code, _, err = run(capsys, "lr-curve", "--config", str(config))
    assert err.splitlines() == ["error: config staircase: expected bool, got 1"]
    # an int for a float option and null for an unset one are kept as written
    config.write_text(json.dumps({"preset": "fast", "staircase": True, "epochs": 1,
                                  "decay": None}))
    code, out, err = run(capsys, "lr-curve", "--config", str(config))
    assert code == 0, err
    assert out.splitlines()[0] == (
        'config {"command": "lr-curve", "decay": null, "decay_per_epoch": null, "epochs": 1, '
        '"initial_lr": null, "out": null, "preset": "fast", "staircase": true, "step": 0.25}')


def test_gen_reruns_byte_identical(tmp_path, capsys):
    a = gen_dataset(tmp_path, capsys, name="a.vfr", seed=3)
    b = gen_dataset(tmp_path, capsys, name="b.vfr", seed=3)
    assert a.read_bytes() == b.read_bytes()


def test_stats_csv_output(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys)
    out_path = tmp_path / "stats.csv"
    code, out, err = run(capsys, "stats", "--data", str(data),
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "rank,label,count,cumulative_coverage"
    assert len(lines) == 11  # header + one row per vocab label


def test_stats_to_stdout(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys)
    code, out, err = run(capsys, "stats", "--data", str(data))
    assert code == 0
    assert "rank,label,count,cumulative_coverage" in out


def test_rebalance_tail_and_hard(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, videos=60)
    tail = tmp_path / "tail.vfr"
    code, out, err = run(capsys, "rebalance", "--data", str(data), "--mode", "tail",
                         "--rank-threshold", "4", "--out", str(tail))
    assert code == 0
    header, records = load_dataset(str(tail))
    assert 0 < len(records) <= 60
    assert header.record_count == len(records)

    hard = tmp_path / "hard.vfr"
    code, out, err = run(capsys, "rebalance", "--data", str(data), "--mode", "hard",
                         "--multiplier", "3", "--out", str(hard))
    assert code == 0
    _, hard_records = load_dataset(str(hard))
    assert len(hard_records) >= 60


def test_rebalance_tail_requires_threshold(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys)
    code, out, err = run(capsys, "rebalance", "--data", str(data), "--mode", "tail",
                         "--out", str(tmp_path / "t.vfr"))
    assert code == 1
    assert "rank-threshold" in err


def test_missing_data_file_fails_cleanly(tmp_path, capsys):
    code, out, err = run(capsys, "stats", "--data", str(tmp_path / "absent.vfr"))
    assert code == 1
    assert err.startswith("error: ")


def test_lr_curve_matches_fast_anneal_value(tmp_path, capsys):
    code, out, err = run(capsys, "lr-curve", "--initial-lr", "0.01", "--decay",
                         "0.80", "--decay-per-epoch", "0.1", "--epochs", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "epoch,lr"  # banner first, then CSV
    row = next(line for line in lines if line.startswith("1.000000,"))
    assert float(row.split(",")[1]) == pytest.approx(0.0010737418, abs=1e-9)


def test_lr_curve_preset_and_file_output(tmp_path, capsys):
    out_path = tmp_path / "lr.csv"
    code, out, err = run(capsys, "lr-curve", "--preset", "slow", "--epochs", "1.0",
                         "--step", "0.5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "epoch,lr"
    assert lines[1] == "0.000000,0.001"
    assert lines[3].startswith("1.000000,0.00095")


@pytest.mark.parametrize("epochs", ["inf", "nan", "-1"])
def test_lr_curve_non_finite_or_negative_epochs_single_error_line(tmp_path, capsys, epochs):
    # inf ended in an OverflowError traceback, and -1 printed only the header
    out_path = tmp_path / "lr.csv"
    code, out, err = run(capsys, "lr-curve", "--epochs", epochs, "--out", str(out_path))
    assert code == 1
    assert err.splitlines() == [f"error: epoch_max must be finite and >= 0, got {float(epochs)}"]
    assert not out_path.exists()


def test_eval_fixture_prints_expected_gap(tmp_path, capsys):
    predictions = tmp_path / "preds.csv"
    predictions.write_text(
        "video_id,label,confidence\n"
        "A,0,0.9\nA,3,0.7\n"
        "B,1,0.8\nB,4,0.6\nB,2,0.4\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("video_id,label\nA,0\nB,1\nB,2\n")
    code, out, err = run(capsys, "eval", "--predictions", str(predictions),
                         "--truth", str(truth))
    assert code == 0
    assert "GAP 0.8666667" in out
    assert "videos evaluated:        2" in out


def test_eval_writes_miss_csv(tmp_path, capsys):
    predictions = tmp_path / "preds.csv"
    predictions.write_text("video_id,label,confidence\nA,0,0.9\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("video_id,label\nA,0\nA,1\n")
    miss = tmp_path / "miss.csv"
    code, out, err = run(capsys, "eval", "--predictions", str(predictions),
                         "--truth", str(truth), "--out-miss", str(miss))
    assert code == 0
    lines = miss.read_text().splitlines()
    assert lines[0].startswith("total_videos,")
    assert lines[1].split(",")[0] == "1"


def test_eval_requires_exactly_one_input_mode(tmp_path, capsys):
    code, out, err = run(capsys, "eval")
    assert code == 1
    assert "either" in err
    code, out, err = run(capsys, "eval", "--predictions", "p.csv",
                         "--checkpoint", "c.vpck")
    assert code == 1


def test_eval_file_mode_rejects_out_predictions_before_reading(tmp_path, capsys):
    # it used to score the files, exit 0 and write no predictions
    predictions = tmp_path / "preds.csv"
    predictions.write_text("video_id,label,confidence\nA,0,0.9\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("video_id,label\nA,0\n")
    out_predictions = tmp_path / "x.csv"
    for inputs in ((predictions, truth), (tmp_path / "missing.csv", tmp_path / "none.csv")):
        code, out, err = run(capsys, "eval", "--predictions", str(inputs[0]),
                             "--truth", str(inputs[1]), "--out-predictions", str(out_predictions))
        assert code == 1
        assert err.splitlines() == ["error: --out-predictions writes a checkpoint's "
                                    "predictions; pass it with --checkpoint and --data"]
        assert "GAP" not in out
        assert not out_predictions.exists()


def test_eval_checkpoint_names_a_video_whose_id_is_not_utf8(tmp_path, capsys):
    import dataclasses

    from framepool.featureio import save_dataset

    data = gen_dataset(tmp_path, capsys, videos=12)
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    header, corpus = load_dataset(str(data))
    records = list(corpus)  # a loaded corpus is read-only
    records[0] = dataclasses.replace(records[0], id=b"\xff\xfe")
    bad = tmp_path / "bad_id.vfr"
    save_dataset(str(bad), records, header)
    preds = tmp_path / "preds.csv"
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(bad),
                         "--out-predictions", str(preds))
    assert code == 1
    assert err.splitlines() == ["error: video b'\\xff\\xfe': id is not UTF-8"]
    assert "GAP" not in out
    assert not preds.exists()


def train_checkpoint(tmp_path, capsys, data):
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    return ckpt


def test_eval_checkpoint_prints_the_gap_trainer_evaluate_gives(tmp_path, capsys):
    # more than one 128-video chunk, and a repeated id (carrying another
    # video's frames) that both score once
    import dataclasses

    from framepool.featureio import save_dataset
    from framepool.losses import HuberParams
    from framepool.trainer import evaluate, load_checkpoint, restore_checkpoint

    data = gen_dataset(tmp_path, capsys, videos=140)
    ckpt = train_checkpoint(tmp_path, capsys, data)
    header, corpus = load_dataset(str(data))
    records = list(corpus)  # a loaded corpus is read-only
    records.insert(3, dataclasses.replace(records[130], id=records[0].id))
    repeated = tmp_path / "repeated.vfr"
    save_dataset(str(repeated), records, dataclasses.replace(header, record_count=141))
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(repeated))
    assert code == 0, err
    model = restore_checkpoint(load_checkpoint(str(ckpt)))[0]
    assert out.splitlines()[1] == f"GAP {evaluate(records, model, HuberParams())[0]:.7f}"
    assert "videos evaluated:        140" in out


def test_eval_checkpoint_on_empty_data_single_error_line(tmp_path, capsys):
    import dataclasses

    from framepool.featureio import save_dataset

    data = gen_dataset(tmp_path, capsys, videos=12)
    ckpt = train_checkpoint(tmp_path, capsys, data)
    header, _ = load_dataset(str(data))
    empty = tmp_path / "empty.vfr"
    save_dataset(str(empty), [], dataclasses.replace(header, record_count=0))
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(empty))
    assert code == 1
    assert err.splitlines() == ["error: nothing to evaluate"]
    assert "GAP" not in out


def test_eval_predictions_csv_round_trips_ids_with_carriage_returns(tmp_path, capsys):
    # a bare \r was written unquoted, and the CSVs were read with newline
    # translation, which turned a quoted \r\n into \n
    import csv
    import dataclasses

    from framepool.featureio import save_dataset

    data = gen_dataset(tmp_path, capsys, videos=12)
    ckpt = train_checkpoint(tmp_path, capsys, data)
    header, corpus = load_dataset(str(data))
    records = list(corpus)  # a loaded corpus is read-only
    for i, video_id in enumerate([b"a\rb", b"c\nd", b"c\r\nd", b"\r"]):
        records[i] = dataclasses.replace(records[i], id=video_id)
    odd = tmp_path / "odd_ids.vfr"
    save_dataset(str(odd), records, header)
    preds = tmp_path / "preds.csv"
    code, model_out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(odd),
                               "--out-predictions", str(preds))
    assert code == 0, err
    truth = tmp_path / "truth.csv"
    with open(truth, "w", newline="") as fh:
        csv.writer(fh).writerows([("video_id", "label")] + [
            (r.id.decode(), label) for r in records for label in r.labels.tolist()])
    code, file_out, err = run(capsys, "eval", "--predictions", str(preds), "--truth", str(truth))
    assert code == 0, err
    assert file_out.splitlines()[1:] == model_out.splitlines()[1:]
    assert "videos evaluated:        12" in file_out


def test_train_then_eval_checkpoint_roundtrip(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=48, seed=1,
                       noise_scale=0.0)
    val = gen_dataset(tmp_path, capsys, name="val.vfr", videos=12, seed=2,
                      noise_scale=0.0)
    curve = tmp_path / "curve.csv"
    ckpt = tmp_path / "model.vpck"
    code, out, err = run(
        capsys, "train", "--data", str(data), "--val", str(val),
        "--clusters", "2", "--hidden", "8", "--batch-size", "8",
        "--epochs", "0.5", "--eval-every", "0.25", "--initial-lr", "0.01",
        "--out-curve", str(curve), "--out-checkpoint", str(ckpt))
    assert code == 0, err
    assert "final_val_gap " in out
    assert "steps 3" in out  # ceil of 0.5 epochs of 48 videos at batch 8

    lines = curve.read_text().splitlines()
    assert lines[0] == "epoch,split,gap,loss,lr"
    assert len(lines) > 1

    preds = tmp_path / "preds.csv"
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--data", str(val), "--out-predictions", str(preds))
    assert code == 0, err
    assert out.splitlines()[1].startswith("GAP 0.")
    assert preds.read_text().startswith("video_id,label,confidence\n")


def test_train_two_phase_plan(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=32, seed=1)
    small = gen_dataset(tmp_path, capsys, name="small.vfr", videos=16, seed=3)
    val = gen_dataset(tmp_path, capsys, name="val.vfr", videos=8, seed=2)
    curve = tmp_path / "curve.csv"
    code, out, err = run(
        capsys, "train", "--data", str(data), "--val", str(val),
        "--phase2-data", str(small), "--phase2-epochs", "0.5",
        "--clusters", "2", "--hidden", "8", "--batch-size", "8",
        "--epochs", "0.5", "--out-curve", str(curve))
    assert code == 0, err
    rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
    epochs = [float(row[0]) for row in rows]
    assert epochs == sorted(epochs)
    assert epochs[-1] == pytest.approx(1.0)


def test_train_identical_runs_byte_identical_outputs(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=32, seed=1)
    val = gen_dataset(tmp_path, capsys, name="val.vfr", videos=8, seed=2)
    outputs = []
    for tag in ("x", "y"):
        curve = tmp_path / f"curve_{tag}.csv"
        ckpt = tmp_path / f"model_{tag}.vpck"
        code, out, err = run(
            capsys, "train", "--data", str(data), "--val", str(val),
            "--clusters", "2", "--hidden", "8", "--batch-size", "8",
            "--epochs", "0.25", "--out-curve", str(curve),
            "--out-checkpoint", str(ckpt))
        assert code == 0, err
        outputs.append((curve.read_bytes(), ckpt.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_concat_netfv_single_tower(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=48, seed=1)
    val = gen_dataset(tmp_path, capsys, name="val.vfr", videos=12, seed=2)
    code, out, err = run(
        capsys, "train", "--data", str(data), "--val", str(val), "--pooling", "netfv",
        "--modality", "concat", "--clusters", "2", "--hidden", "8", "--batch-size", "8",
        "--epochs", "0.5", "--eval-every", "0.5")
    assert code == 0, err
    lines = out.splitlines()
    assert '"modality": "concat"' in lines[0]
    assert "steps 3" in lines  # ceil of 0.5 epochs of 48 videos at batch 8
    gap_line = [line for line in lines if line.startswith("final_val_gap ")]
    assert len(gap_line) == 1 and 0.0 < float(gap_line[0].split()[1]) <= 1.0


def test_eval_checkpoint_with_wrong_shape_single_error_line(tmp_path, capsys):
    from framepool.trainer import checkpoint_bytes, load_checkpoint

    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=16, seed=1)
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    cp = load_checkpoint(str(ckpt))
    cp.arrays = [(n, a[:1] if n == "hidden_b" else a) for n, a in cp.arrays]
    ckpt.write_bytes(checkpoint_bytes(cp))
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert code == 1
    assert err.splitlines() == ["error: array hidden_b: expected shape (3,), got (1,)"]


def test_eval_checkpoint_with_non_finite_weight_blames_the_array(tmp_path, capsys):
    from framepool.trainer import checkpoint_bytes, load_checkpoint

    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=16, seed=1)
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    cp = load_checkpoint(str(ckpt))
    out_w = dict(cp.arrays)["out_w"]
    out_w[1, 2] = float("nan")
    ckpt.write_bytes(checkpoint_bytes(cp))
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert code == 1
    assert err.splitlines() == ["error: array out_w: non-finite value"]


def test_eval_malformed_checkpoint_single_error_line(tmp_path, capsys):
    import struct
    import zlib

    data = gen_dataset(tmp_path, capsys, videos=8)
    # CRC-valid body: metadata "{}", then one stray byte where the array count belongs
    body = b"VPCK" + struct.pack("<II", 1, 2) + b"{}" + b"\x00"
    ckpt = tmp_path / "stray.vpck"
    ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: malformed checkpoint")


def test_train_config_non_integer_clusters_single_error_line(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, videos=8)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"clusters": 2.5}))
    code, _, err = run(capsys, "train", "--config", str(config), "--data", str(data),
                       "--val", str(data))
    assert code == 1
    assert err.splitlines() == ["error: config clusters: expected int, got 2.5"]


def test_stats_on_record_claiming_more_frames_than_the_file_holds(tmp_path, capsys):
    import struct

    # 60 bytes whose one record claims 2**32 - 1 frames of width 40 (about 687 GB)
    blob = struct.pack("<4sIIIIQ", b"VFR1", 1, 32, 8, 50, 1)
    blob += struct.pack("<H", 2) + b"v0" + struct.pack("<I", 2**32 - 1)
    data = tmp_path / "crafted.vfr"
    data.write_bytes(blob + bytes(60 - len(blob)))
    code, _, err = run(capsys, "stats", "--data", str(data))
    assert code == 1
    assert err.splitlines() == ["error: record 0: truncated file while reading frame payload"]


def test_eval_predictions_field_past_csv_limit_single_error_line(tmp_path, capsys):
    predictions = tmp_path / "preds.csv"
    predictions.write_text(f"video_id,label,confidence\n{'v' * 131073},0,0.5\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("video_id,label\nA,0\n")
    code, _, err = run(capsys, "eval", "--predictions", str(predictions),
                       "--truth", str(truth))
    assert code == 1
    assert err.splitlines() == [
        "error: malformed predictions CSV: field larger than field limit (131072)"]


@pytest.mark.parametrize("kind, row, message", [
    ("predictions", "A,0", "predictions row 2: expected 3 fields, got 2"),
    ("predictions", "A,x,0.5", "predictions row 2: label 'x' is not an integer"),
    ("predictions", "A,0,high", "predictions row 2: confidence 'high' is not a number"),
    ("truth", "A,0,1", "truth row 2: expected 2 fields, got 3"),
    ("truth", "A,x", "truth row 2: label 'x' is not an integer"),
])
def test_eval_malformed_csv_row_names_the_file_kind_and_row(tmp_path, capsys, kind, row,
                                                           message):
    files = {"predictions": "video_id,label,confidence\nA,0,0.5\n",
             "truth": "video_id,label\nA,0\n"}
    files[kind] = files[kind].split("\n")[0] + f"\n{row}\n"
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    code, _, err = run(capsys, "eval", "--predictions", str(tmp_path / "predictions.csv"),
                       "--truth", str(tmp_path / "truth.csv"))
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]


def test_eval_checkpoint_with_tied_probabilities_ranks_by_label_id(tmp_path, capsys):
    from framepool.trainer import checkpoint_bytes, load_checkpoint

    data = gen_dataset(tmp_path, capsys, videos=12)
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    cp = load_checkpoint(str(ckpt))
    tied = {"out_w": lambda a: 0.0 * a, "out_b": lambda a: 0.0 * a + 0.25}
    cp.arrays = [(n, tied.get(n, lambda a: a)(a)) for n, a in cp.arrays]
    ckpt.write_bytes(checkpoint_bytes(cp))
    preds = tmp_path / "preds.csv"
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                       "--top-n", "4", "--out-predictions", str(preds))
    assert code == 0, err
    rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
    assert len(rows) == 12 * 4
    assert len({conf for _, _, conf in rows}) == 1
    for start in range(0, len(rows), 4):
        assert [int(label) for _, label, _ in rows[start:start + 4]] == [0, 1, 2, 3]
        assert len({video for video, _, _ in rows[start:start + 4]}) == 1


def test_two_phase_train_reports_and_saves_every_step(tmp_path, capsys):
    from framepool.trainer import load_checkpoint

    data = gen_dataset(tmp_path, capsys, name="train.vfr", videos=64, seed=1)
    hard = gen_dataset(tmp_path, capsys, name="hard.vfr", videos=100, seed=3)
    val = gen_dataset(tmp_path, capsys, name="val.vfr", videos=8, seed=2)
    ckpt = tmp_path / "model.vpck"
    code, out, err = run(
        capsys, "train", "--data", str(data), "--val", str(val),
        "--phase2-data", str(hard), "--phase2-epochs", "1.0", "--epochs", "1.0",
        "--clusters", "2", "--hidden", "4", "--batch-size", "8", "--eval-every", "1.0",
        "--out-checkpoint", str(ckpt))
    assert code == 0, err
    assert "steps 21" in out.splitlines()  # 64/8 = 8 steps, then ceil(100/8) = 13
    meta = load_checkpoint(str(ckpt)).meta
    assert meta["global_step"] == 21
    assert meta["optimizer"]["step"] == 21


@pytest.mark.parametrize("top_n", ["0", "-1"])
def test_eval_bad_top_n_rejected_before_any_output(tmp_path, capsys, top_n):
    data = gen_dataset(tmp_path, capsys, videos=12)
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    preds = tmp_path / "preds.csv"
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                       "--top-n", top_n, "--out-predictions", str(preds))
    assert code == 1
    assert err.splitlines() == [f"error: n must be >= 1, got {top_n}"]
    assert not preds.exists()


def test_train_top_n_zero_rejected_before_training(tmp_path, capsys):
    data = gen_dataset(tmp_path, capsys, videos=12)
    curve, ckpt = tmp_path / "curve.csv", tmp_path / "model.vpck"
    code, out, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                         "--top-n", "0", "--out-curve", str(curve),
                         "--out-checkpoint", str(ckpt))
    assert code == 1
    assert err.splitlines() == ["error: gap_top_n must be >= 1, got 0"]
    assert "steps" not in out
    assert not curve.exists() and not ckpt.exists()


def test_eval_checkpoint_against_data_of_another_vocab_single_error_line(tmp_path, capsys):
    # a vocab-10 model scored on vocab-30 data used to die with an IndexError
    data = gen_dataset(tmp_path, capsys, videos=12)
    wide = gen_dataset(tmp_path, capsys, name="wide.vfr", videos=12, vocab=30)
    ckpt = tmp_path / "model.vpck"
    code, _, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                       "--clusters", "2", "--hidden", "3", "--batch-size", "8",
                       "--epochs", "0.5", "--out-checkpoint", str(ckpt))
    assert code == 0, err
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(wide))
    assert code == 1
    assert err.splitlines() == ["error: checkpoint/data shape mismatch: "
                                "(d_video, d_audio, vocab_size) (6, 2, 10) vs (6, 2, 30)"]
    assert "GAP" not in out


def test_train_phase2_data_of_another_vocab_single_error_line(tmp_path, capsys):
    # the phase-2 file used to go unchecked, and training on it died with an IndexError
    data = gen_dataset(tmp_path, capsys, videos=12)
    wide = gen_dataset(tmp_path, capsys, name="wide.vfr", videos=12, vocab=30)
    code, out, err = run(capsys, "train", "--data", str(data), "--val", str(data),
                         "--phase2-data", str(wide), "--phase2-epochs", "0.5",
                         "--epochs", "0.5", "--clusters", "2", "--hidden", "3")
    assert code == 1
    assert err.splitlines() == ["error: train/phase-2 shape mismatch: "
                                "(d_video, d_audio, vocab_size) (6, 2, 10) vs (6, 2, 30)"]
    assert "steps" not in out


def test_train_non_finite_loss_prints_only_its_error_line(tmp_path, capsys):
    # run as a process, so that numpy's floating-point warnings would reach stderr
    data = gen_dataset(tmp_path, capsys)
    proc = run_process("train", "--data", str(data), "--val", str(data), "--pooling", "netfv",
                       "--initial-lr", "1e300", "--epochs", "1", "--eval-every", "5",
                       "--clusters", "2", "--hidden", "4", "--batch-size", "8")
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: non-finite loss at step ")


def test_train_with_a_tiny_eval_interval_evaluates_after_every_step(tmp_path, capsys):
    # 1e-300 added to 0.5 leaves 0.5, so stepping the next eval point by
    # repeated addition never got past the current epoch fraction
    data = gen_dataset(tmp_path, capsys, videos=16)
    curve = tmp_path / "curve.csv"
    proc = run_process("train", "--data", str(data), "--val", str(data), "--epochs", "1",
                       "--eval-every", "1e-300", "--clusters", "2", "--hidden", "3",
                       "--batch-size", "8", "--out-curve", str(curve), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "steps 2" in proc.stdout.splitlines()
    epochs = [line.split(",")[:2] for line in curve.read_text().splitlines()[1:]]
    assert [(float(epoch), split) for epoch, split in epochs] == [
        (0.5, "train"), (0.5, "val"), (1.0, "train"), (1.0, "val")]


def mixed_id_dataset(tmp_path, capsys, videos=600):
    """A gen corpus of 1 to 6 labels a video whose ids are 1 to 4 bytes long, so
    that its records start at every offset mod 4."""
    import dataclasses

    from framepool.featureio import save_dataset

    header, corpus = load_dataset(str(gen_dataset(tmp_path, capsys, name="gen.vfr",
                                                  videos=videos, labels_max=6)))
    records = [dataclasses.replace(r, id=bytes([65 + i % 26]) * (1 + i % 4))
               for i, r in enumerate(corpus)]
    path = tmp_path / "data.vfr"
    save_dataset(str(path), records, header)
    return path, header, records


@pytest.mark.parametrize("mode", [("hard", "--multiplier", "1"), ("hard", "--multiplier", "2"),
                                  ("hard", "--multiplier", "3"), ("tail", "--rank-threshold", "3")])
def test_rebalance_copies_the_bytes_its_subset_encodes_to(tmp_path, capsys, monkeypatch, mode):
    import dataclasses
    import io

    from framepool.featureio import write_dataset
    from framepool.rebalance import build_hard_subset, build_tail_subset

    data, header, records = mixed_id_dataset(tmp_path, capsys)
    if mode[0] == "hard":
        subset = build_hard_subset(records, int(mode[2]))
    else:
        subset = build_tail_subset(records, int(mode[2]), header.vocab_size)
    assert isinstance(subset, list) and len(subset) > 256  # more than one chunk
    want = io.BytesIO()
    write_dataset(subset, dataclasses.replace(header, record_count=len(subset)), want)
    # the CLI copies the records' checked byte ranges; it encodes none of them
    monkeypatch.setattr("framepool.featureio._check_chunk", None)
    out = tmp_path / "out.vfr"
    code, _, err = run(capsys, "rebalance", "--data", str(data), "--mode", *mode,
                       "--out", str(out))
    assert code == 0, err
    assert out.read_bytes() == want.getvalue()


def test_rebalance_onto_its_own_input_replaces_it_whole(tmp_path, capsys):
    data, header, records = mixed_id_dataset(tmp_path, capsys, videos=300)
    expected = tmp_path / "expected.vfr"
    assert run(capsys, "rebalance", "--data", str(data), "--mode", "hard",
               "--out", str(expected))[0] == 0
    code, out, err = run(capsys, "rebalance", "--data", str(data), "--mode", "hard",
                         "--out", str(data))
    assert code == 0, err
    assert data.read_bytes() == expected.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.vfr", "expected.vfr", "gen.vfr"]
