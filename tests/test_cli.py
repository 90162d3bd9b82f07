"""CLI behavior: banners, config merging, subcommand outputs, exit codes."""

import json

import pytest

from framepool.cli import main
from framepool.featureio import load_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
