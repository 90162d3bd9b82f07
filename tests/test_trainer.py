"""Trainer contracts: budget accounting, determinism, phases, checkpoints."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.featureio import SyntheticSpec, VideoRecord, generate_synthetic
from framepool.netmodel import Model, ModelConfig, init_model
from framepool.schedule import FAST_ANNEAL, ScheduleParams, lr_at
from framepool.trainer import (
    Checkpoint,
    CheckpointFormatError,
    PhasePlan,
    TrainConfig,
    _next_eval_point,
    checkpoint_bytes,
    checkpoint_from_bytes,
    curve_csv,
    epoch_permutation,
    evaluate,
    load_checkpoint,
    make_checkpoint,
    restore_checkpoint,
    save_checkpoint,
    steps_per_epoch,
    train,
    train_phases,
)
from framepool.optim import init_adam_state
from framepool.pooling import EPS_SPREAD


VOCAB = 12
D_VIDEO = 6
D_AUDIO = 2


def make_records(num_videos=60, seed=7, noise=0.05):
    spec = SyntheticSpec(num_videos=num_videos, vocab_size=VOCAB, d_video=D_VIDEO,
                         d_audio=D_AUDIO, t_min=3, t_max=5, noise_scale=noise,
                         seed=seed)
    return generate_synthetic(spec)


def make_model(seed=3):
    config = ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=8,
                         d_video=D_VIDEO, d_audio=D_AUDIO, vocab_size=VOCAB)
    return init_model(config, seed=seed)


def small_config(**overrides):
    base = dict(batch_size=6, epoch_budget=1.0, eval_every=0.25, seed=11,
                schedule=ScheduleParams(initial_lr=0.01, decay=0.9, decay_per_epoch=1.0))
    base.update(overrides)
    return TrainConfig(**base)


def params_of(model):
    return {name: arr.copy() for name, arr in model.arrays.items()}


def assert_params_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_steps_per_epoch_full_scale():
    assert steps_per_epoch(3_900_000, 160) == 24_375


def test_steps_per_epoch_small_set():
    assert steps_per_epoch(1_168_000, 160) == 7_300


def test_steps_per_epoch_single_video():
    assert steps_per_epoch(1, 160) == 1


def test_steps_per_epoch_rounds_up():
    assert steps_per_epoch(61, 6) == 11


def test_steps_per_epoch_rejects_nonpositive():
    with pytest.raises(ValueError):
        steps_per_epoch(0, 160)
    with pytest.raises(ValueError):
        steps_per_epoch(100, 0)


def test_epoch_permutation_is_keyed_not_sequential():
    a = epoch_permutation(5, 0, 40)
    b = epoch_permutation(5, 1, 40)
    assert sorted(a) == list(range(40))
    assert not np.array_equal(a, b)
    assert np.array_equal(a, epoch_permutation(5, 0, 40))


def test_budget_below_one_batch_runs_exactly_one_step():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    model = make_model()
    result = train(records, val, model, small_config(epoch_budget=0.01))
    assert result.global_step == 1
    assert result.epoch_fraction == pytest.approx(6 / 60)


def test_stops_within_one_batch_of_budget():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = small_config(epoch_budget=0.73)
    result = train(records, val, make_model(), config)
    assert result.epoch_fraction >= config.epoch_budget
    assert result.epoch_fraction < config.epoch_budget + config.batch_size / len(records)


def test_epoch_accounting_is_steps_times_batch_over_n():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    result = train(records, val, make_model(), small_config())
    assert result.epoch_fraction == result.global_step * 6 / 60


def test_determinism_same_seed_same_curve_and_params():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    r1 = train(records, val, make_model(seed=3), small_config())
    r2 = train(records, val, make_model(seed=3), small_config())
    assert r1.curve == r2.curve
    assert_params_equal(params_of(r1.model), params_of(r2.model))


def test_different_seed_changes_training():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    r1 = train(records, val, make_model(seed=3), small_config(seed=1))
    r2 = train(records, val, make_model(seed=3), small_config(seed=2))
    flat1 = np.concatenate([a.ravel() for a in params_of(r1.model).values()])
    flat2 = np.concatenate([a.ravel() for a in params_of(r2.model).values()])
    assert not np.array_equal(flat1, flat2)


def test_curve_rows_alternate_splits_and_record_lr_at():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = small_config()
    result = train(records, val, make_model(), config)
    assert len(result.curve) % 2 == 0
    for train_row, val_row in zip(result.curve[0::2], result.curve[1::2]):
        assert train_row[1] == "train" and val_row[1] == "val"
        assert train_row[0] == val_row[0]
        assert train_row[4] == lr_at(train_row[0], config.schedule)
    epochs = [row[0] for row in result.curve[0::2]]
    assert epochs == sorted(epochs)
    assert epochs[-1] == pytest.approx(result.epoch_fraction)


def test_eval_cadence_quarter_epoch():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    result = train(records, val, make_model(), small_config())
    # fraction advances 0.1 per step, so thresholds land at 0.3, 0.5, 0.8, 1.0
    epochs = [row[0] for row in result.curve[0::2]]
    assert epochs == pytest.approx([0.3, 0.5, 0.8, 1.0])


def test_train_rejects_empty_datasets():
    records = make_records()
    with pytest.raises(ValueError, match="empty"):
        train([], records, make_model(), small_config())
    with pytest.raises(ValueError, match="empty"):
        train(records, [], make_model(), small_config())


def test_train_rejects_feature_width_mismatch():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=8,
                         d_video=D_VIDEO + 1, d_audio=D_AUDIO, vocab_size=VOCAB)
    with pytest.raises(ValueError, match="feature"):
        train(records, val, init_model(config, seed=0), small_config())


def test_train_rejects_wrong_width_last_val_record_before_step_zero():
    records = make_records()
    val = list(make_records(num_videos=12, seed=8))
    val.append(VideoRecord(id=b"wide", frames=np.zeros((3, D_VIDEO + D_AUDIO + 1), np.float32),
                           labels=np.array([0])))
    model = make_model()
    before = params_of(model)
    with pytest.raises(ValueError, match="record 12 has feature width 9"):
        train(records, val, model, small_config())
    assert_params_equal(before, params_of(model))


def test_evaluate_scores_duplicated_videos_once():
    records = make_records(num_videos=30)
    model = make_model()
    once = evaluate(records, model, TrainConfig(batch_size=4).loss)
    doubled = evaluate(list(records) + list(records), model, TrainConfig(batch_size=4).loss)
    assert once == doubled


def test_single_phase_plan_matches_plain_train():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = small_config(epoch_budget=0.5)
    direct = train(records, val, make_model(seed=3), config)
    plan = PhasePlan(phases=[(records, 0.5)])
    phased = train_phases(plan, val, make_model(seed=3), config)
    assert direct.curve == phased.curve
    assert_params_equal(params_of(direct.model), params_of(phased.model))


def test_phase_two_epochs_are_offset():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    plan = PhasePlan(phases=[(records, 0.5), (records, 0.5)])
    result = train_phases(plan, val, make_model(), small_config())
    epochs = [row[0] for row in result.curve[0::2]]
    assert epochs == sorted(epochs)
    assert epochs[-1] == pytest.approx(1.0)
    assert result.epoch_fraction == pytest.approx(1.0)


def test_phase_boundary_carries_optimizer_state():
    records_a = make_records(num_videos=60, seed=7)
    records_b = make_records(num_videos=60, seed=9)
    val = make_records(num_videos=12, seed=8)
    config = small_config(epoch_budget=0.5)

    warm = train(records_a, val, make_model(seed=3), config)
    cp = make_checkpoint(warm.model, warm.opt_state, warm.global_step,
                         warm.epoch_fraction, config)
    model_carried, state_carried, _, _ = restore_checkpoint(cp)
    model_fresh, _, _, _ = restore_checkpoint(cp)

    one_step = small_config(epoch_budget=0.01)
    carried = train(records_b, val, model_carried, one_step, opt_state=state_carried)
    fresh = train(records_b, val, model_fresh, one_step)
    flat_carried = np.concatenate([a.ravel() for a in params_of(carried.model).values()])
    flat_fresh = np.concatenate([a.ravel() for a in params_of(fresh.model).values()])
    assert not np.array_equal(flat_carried, flat_fresh)


def test_plan_validation():
    records = make_records(num_videos=6)
    with pytest.raises(ValueError, match="empty"):
        PhasePlan(phases=[]).validate()
    with pytest.raises(ValueError, match="budget"):
        PhasePlan(phases=[(records, 0.0)]).validate()
    with pytest.raises(ValueError, match="empty"):
        PhasePlan(phases=[([], 1.0)]).validate()
    # train --phase2-epochs inf: rejected before the first phase trains
    with pytest.raises(ValueError, match="phase 1: epoch budget must be finite"):
        PhasePlan(phases=[(records, 1.0), (records, math.inf)]).validate()


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError, match="epoch_budget"):
        TrainConfig(batch_size=1, epoch_budget=0.0).validate()
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(batch_size=1, eval_every=-1.0).validate()
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(batch_size=1, optimizer="adamw").validate()
    # train --epochs inf used to loop until it was killed
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epoch_budget must be finite"):
            TrainConfig(batch_size=1, epoch_budget=value).validate()
        with pytest.raises(ValueError, match="eval_every must be finite"):
            TrainConfig(batch_size=1, eval_every=value).validate()


def test_checkpoint_roundtrip_bytes():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = small_config(epoch_budget=0.3)
    result = train(records, val, make_model(), config)
    cp = make_checkpoint(result.model, result.opt_state, result.global_step,
                         result.epoch_fraction, config)
    back = checkpoint_from_bytes(checkpoint_bytes(cp))
    assert back.meta == cp.meta
    assert [name for name, _ in back.arrays] == [name for name, _ in cp.arrays]
    for (_, a), (_, b) in zip(cp.arrays, back.arrays):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_checkpoint_roundtrip_file(tmp_path):
    model = make_model()
    config = small_config()
    cp = make_checkpoint(model, None, 0, 0.0, small_config(optimizer="sgd"))
    path = tmp_path / "model.vpck"
    save_checkpoint(str(path), cp)
    back = load_checkpoint(str(path))
    assert back.meta == cp.meta
    restored, state, step, fraction = restore_checkpoint(back)
    assert state is None and step == 0 and fraction == 0.0
    assert_params_equal(params_of(model), params_of(restored))


def test_checkpoint_truncation_fails_checksum():
    cp = make_checkpoint(make_model(), None, 0, 0.0, small_config(optimizer="sgd"))
    blob = checkpoint_bytes(cp)
    with pytest.raises(CheckpointFormatError, match="checksum"):
        checkpoint_from_bytes(blob[:-7])


def test_checkpoint_bit_flip_fails_checksum():
    cp = make_checkpoint(make_model(), None, 0, 0.0, small_config(optimizer="sgd"))
    blob = bytearray(checkpoint_bytes(cp))
    blob[40] ^= 0x01
    with pytest.raises(CheckpointFormatError, match="checksum"):
        checkpoint_from_bytes(bytes(blob))


def test_checkpoint_version_mismatch():
    cp = make_checkpoint(make_model(), None, 0, 0.0, small_config(optimizer="sgd"))
    body = bytearray(checkpoint_bytes(cp)[:-4])
    struct.pack_into("<I", body, 4, 99)
    blob = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
    with pytest.raises(CheckpointFormatError, match="version"):
        checkpoint_from_bytes(blob)


def test_resume_equivalence_50_steps():
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = small_config(epoch_budget=5.0)

    straight = train(records, val, make_model(seed=3), config)
    assert straight.global_step == 50

    part = train(records, val, make_model(seed=3), small_config(epoch_budget=2.3))
    assert part.global_step == 23
    cp = checkpoint_from_bytes(checkpoint_bytes(make_checkpoint(
        part.model, part.opt_state, part.global_step, part.epoch_fraction, config)))
    model, state, step, _ = restore_checkpoint(cp)
    resumed = train(records, val, model, config, opt_state=state, start_step=step)
    assert resumed.global_step == 50

    assert_params_equal(params_of(straight.model), params_of(resumed.model))
    assert straight.opt_state.step == resumed.opt_state.step
    assert np.array_equal(straight.opt_state.m, resumed.opt_state.m)
    assert np.array_equal(straight.opt_state.v, resumed.opt_state.v)


def test_training_reduces_loss_on_separable_data():
    records = make_records(num_videos=80, seed=21, noise=0.0)
    val = make_records(num_videos=20, seed=22, noise=0.0)
    model = make_model(seed=5)
    before_gap, before_loss = evaluate(val, model, TrainConfig(batch_size=8).loss)
    config = TrainConfig(batch_size=8, epoch_budget=3.0, eval_every=1.0, seed=0,
                         schedule=ScheduleParams(initial_lr=0.02, decay=0.9,
                                                 decay_per_epoch=1.0))
    result = train(records, val, model, config)
    after_gap, after_loss = evaluate(val, result.model, config.loss)
    assert after_loss < before_loss
    assert after_gap > before_gap


def test_curve_csv_layout():
    text = curve_csv([(0.25, "train", 0.5, 0.125, 0.001), (0.25, "val", 0.4, 0.25, 0.001)])
    lines = text.splitlines()
    assert lines[0] == "epoch,split,gap,loss,lr"
    assert lines[1] == "0.250000,train,0.50000000,0.12500000,0.001"
    assert lines[2] == "0.250000,val,0.40000000,0.25000000,0.001"
    assert text.endswith("\n")


def _restore_edited(edit):
    """restore_checkpoint of a CRC-valid VPCK whose checkpoint was edited first."""
    records = make_records()
    val = make_records(num_videos=12, seed=8)
    config = small_config(epoch_budget=0.2)
    result = train(records, val, make_model(), config)
    cp = make_checkpoint(result.model, result.opt_state, result.global_step,
                         result.epoch_fraction, config)
    edit(cp)
    return restore_checkpoint(checkpoint_from_bytes(checkpoint_bytes(cp)))


def _replace_array(cp, name, value):
    cp.arrays = [(n, value if n == name else a) for n, a in cp.arrays]


def test_restore_rejects_wrong_shape_instead_of_broadcasting():
    # hidden_b of an H=8 model stored with shape (1,) used to broadcast silently
    with pytest.raises(CheckpointFormatError, match=r"hidden_b: expected shape \(8,\)"):
        _restore_edited(lambda cp: _replace_array(cp, "hidden_b", np.zeros(1)))
    with pytest.raises(CheckpointFormatError, match="adam.v.out_w"):
        _restore_edited(lambda cp: _replace_array(cp, "adam.v.out_w", np.zeros((8, 1))))


def test_restore_rejects_missing_array():
    def drop(name):
        def edit(cp):
            cp.arrays = [(n, a) for n, a in cp.arrays if n != name]
        return edit

    with pytest.raises(CheckpointFormatError, match="video_pool.centers"):
        _restore_edited(drop("video_pool.centers"))
    with pytest.raises(CheckpointFormatError, match="adam.m.hidden_w"):
        _restore_edited(drop("adam.m.hidden_w"))


def test_restore_rejects_arrays_it_would_not_use():
    with pytest.raises(CheckpointFormatError, match="array stray: unused"):
        _restore_edited(lambda cp: cp.arrays.append(("stray", np.zeros(3))))
    # an SGD checkpoint has no moments, so stored ones are not silently dropped
    with pytest.raises(CheckpointFormatError, match=r"array adam\.m\..*: unused"):
        _restore_edited(lambda cp: cp.meta["optimizer"].update(kind="sgd"))


def test_duplicate_array_rejected_while_parsing():
    # the later hidden_b used to win silently
    with pytest.raises(CheckpointFormatError, match="array hidden_b: stored twice"):
        _restore_edited(lambda cp: cp.arrays.append(("hidden_b", np.full(8, 7.0))))


def test_restore_rejects_unknown_optimizer_kind():
    # "rmsprop" used to restore as a checkpoint with no optimizer state
    with pytest.raises(CheckpointFormatError, match="optimizer kind 'rmsprop'"):
        _restore_edited(lambda cp: cp.meta["optimizer"].update(kind="rmsprop"))


@pytest.mark.parametrize("name, value", [("out_w", np.nan), ("video_pool.centers", np.inf),
                                         ("adam.v.hidden_w", -np.inf)])
def test_restore_rejects_non_finite_value_naming_the_array(name, value):
    def edit(cp):
        arr = dict(cp.arrays)[name].copy()
        arr.flat[arr.size // 2] = value
        _replace_array(cp, name, arr)

    with pytest.raises(CheckpointFormatError, match=f"array {name}: non-finite value"):
        _restore_edited(edit)


def test_restore_rejects_missing_meta_key():
    for edit in (lambda cp: cp.meta.pop("global_step"),
                 lambda cp: cp.meta["optimizer"].pop("beta2"),
                 lambda cp: cp.meta["model_config"].pop("hidden_size")):
        with pytest.raises(CheckpointFormatError, match="metadata"):
            _restore_edited(edit)


def test_restore_rejects_non_integer_dimension():
    # 2.0 compares equal to 2 in a shape check, so the type must be checked itself;
    # true is an int to isinstance, and used to fail in reshape with a TypeError
    for value in (2.0, True):
        def edit(cp):
            cp.meta["model_config"]["cluster_size"] = value

        with pytest.raises(CheckpointFormatError, match="cluster_size must be an integer"):
            _restore_edited(edit)


@pytest.mark.parametrize("section, key, value", [
    ("optimizer", "beta1", "0.9"),
    ("optimizer", "eps", math.nan),
    ("optimizer", "step", -3),
    (None, "global_step", "x"),
    (None, "epoch_fraction", None),
])
def test_restore_rejects_bad_metadata_value_naming_the_key(section, key, value):
    # each of these used to restore, and failed or went wrong only in the resumed run
    def edit(cp):
        (cp.meta if section is None else cp.meta[section])[key] = value

    with pytest.raises(CheckpointFormatError, match=f"metadata {key}: expected"):
        _restore_edited(edit)


def test_fv_small_spread_rejected_on_restore():
    # a CRC-valid NetFV checkpoint with a spread under the floor would score
    # silently wrong, or non-finite, if it restored
    config = ModelConfig(pooling_kind="netfv", cluster_size=2, hidden_size=2, d_video=2,
                         d_audio=1, vocab_size=2)
    for name in ("video_pool.spreads", "audio_pool.spreads"):
        for spread in (EPS_SPREAD / 2, 0.0, -1.0):
            model = init_model(config, seed=0)
            model.arrays[name].flat[-1] = spread
            blob = checkpoint_bytes(make_checkpoint(model, None, 0, 0.0,
                                                    small_config(optimizer="sgd")))
            with pytest.raises(CheckpointFormatError, match=f"array {name}: spread below"):
                restore_checkpoint(checkpoint_from_bytes(blob))


def _crc_valid(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _netfv_body() -> bytes:
    """VPCK body (CRC stripped) of a tiny two-tower NetFV model with Adam moments."""
    config = ModelConfig(pooling_kind="netfv", cluster_size=1, hidden_size=2, d_video=2,
                         d_audio=1, vocab_size=2)
    model = init_model(config, seed=0)
    cp = make_checkpoint(model, init_adam_state(model), 0, 0.0, small_config())
    return checkpoint_bytes(cp)[:-4]


NETFV_BODY = _netfv_body()

_EDIT = st.tuples(st.sampled_from(["replace", "truncate", "insert", "delete"]),
                  st.one_of(st.integers(0, 120), st.integers(0, len(NETFV_BODY))),
                  st.integers(0, 255))


@settings(max_examples=400, deadline=None)
@given(st.lists(_EDIT, min_size=1, max_size=3))
def test_crc_valid_mutations_raise_format_error_or_restore(edits):
    body = bytearray(NETFV_BODY)
    for kind, where, byte in edits:
        where = min(where, len(body))
        if kind == "replace" and where < len(body):
            body[where] = byte
        elif kind == "truncate":
            del body[where:]
        elif kind == "insert":
            body.insert(where, byte)
        elif kind == "delete":
            del body[where:where + 1]
    try:
        cp = checkpoint_from_bytes(_crc_valid(bytes(body)))
        model, _, _, _ = restore_checkpoint(cp)
    except CheckpointFormatError:
        return
    assert isinstance(model, Model)


def test_checkpoint_body_errors_are_format_errors():
    header = b"VPCK" + struct.pack("<I", 1)
    # metadata "{}" and one stray byte where the array count should be
    with pytest.raises(CheckpointFormatError, match="malformed"):
        checkpoint_from_bytes(_crc_valid(header + struct.pack("<I", 2) + b"{}" + b"\x00"))
    with pytest.raises(CheckpointFormatError, match="not a JSON object"):
        checkpoint_from_bytes(_crc_valid(header + struct.pack("<I", 2) + b"[]"
                                         + struct.pack("<I", 0)))
    with pytest.raises(CheckpointFormatError, match="malformed"):
        checkpoint_from_bytes(_crc_valid(header + struct.pack("<I", 2) + b"\xff\xfe"
                                         + struct.pack("<I", 0)))


@pytest.mark.parametrize("label", [VOCAB, -1])
def test_train_and_evaluate_reject_a_label_outside_the_vocabulary(label):
    records = make_records()
    val = list(make_records(num_videos=12, seed=8))
    val[5] = VideoRecord(id=b"odd", frames=val[5].frames, labels=np.array([label]))
    model = make_model()
    before = params_of(model)
    message = rf"^record 5 has a label id outside the model's vocabulary \[0, {VOCAB}\)$"
    with pytest.raises(ValueError, match=message):
        train(records, val, model, small_config())
    with pytest.raises(ValueError, match=message):
        evaluate(val, model, TrainConfig(batch_size=4).loss)
    assert_params_equal(before, params_of(model))


@pytest.mark.parametrize("eval_every", [0.25, 0.5, 1.25])
def test_next_eval_point_equals_repeated_addition_for_binary_exact_intervals(eval_every):
    # the closed form replaced a loop that added eval_every until it passed f
    for f in np.arange(0, 6.0, 1 / 64):
        point = eval_every
        while point <= f:
            point += eval_every
        assert _next_eval_point(float(f), eval_every) == point


def test_next_eval_point_lies_above_f_for_intervals_too_small_to_add():
    for eval_every in (1e-300, 5e-324, 1e-17):
        assert _next_eval_point(0.5, eval_every) == math.nextafter(0.5, math.inf)
    assert _next_eval_point(0.0, 5e-324) == 5e-324
