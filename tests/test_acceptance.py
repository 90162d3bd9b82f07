"""Numbered end-to-end acceptance checks, one verdict line per criterion.

Run with ``python3 -m pytest tests/test_acceptance.py -s -v`` to see the
scorecard; every test prints "criterion NN: PASS/FAIL - detail" before
asserting, so the full list is visible even when one criterion fails.

Criterion 04 pins the two anneal presets: their values after one epoch,
and their single crossing.  fast / slow = 10 * (0.8**10 / 0.95) ** e falls
through 1 once, at the closed form e = ln 10 / ln(0.95 / 0.8**10) = 1.0562,
so the fast preset is above the slow one before that epoch and below it
after.  The verdict line carries the measured crossing and ratio.
"""

import time

import numpy as np

from gradcheck import central_diff, max_rel_error

from framepool.featureio import SyntheticSpec, VideoRecord, generate_synthetic
from framepool.losses import HuberParams, huber_grad_scalar, huber_scalar, multilabel_loss
from framepool.metrics import gap, gap_bruteforce
from framepool.netmodel import (
    ModelConfig,
    check_size_limit,
    init_model,
    model_backward,
    model_forward,
    parameter_count,
    set_output_prior,
    size_bytes,
)
from framepool.rebalance import (
    build_hard_subset,
    build_tail_subset,
    is_hard,
    label_frequency_stats,
)
from framepool.schedule import FAST_ANNEAL, SLOW_ANNEAL, ScheduleParams, lr_at
from framepool.trainer import (
    TrainConfig,
    checkpoint_bytes,
    checkpoint_from_bytes,
    curve_csv,
    make_checkpoint,
    restore_checkpoint,
    steps_per_epoch,
    train,
)


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {verdict} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ------------------------------------------------------------ criterion 1


def _random_tiny_config(rng: np.random.Generator, kind: str) -> ModelConfig:
    d_video = int(rng.integers(1, 5))
    d_audio = int(rng.integers(0, min(3, 7 - d_video)))
    mode = "separate" if rng.random() < 0.5 else "concatenated"
    return ModelConfig(
        pooling_kind=kind,
        cluster_size=int(rng.integers(1, 4)),
        hidden_size=int(rng.integers(1, 5)),
        d_video=d_video,
        d_audio=d_audio,
        vocab_size=int(rng.integers(1, 7)),
        modality_mode=mode,
        audio_cluster_size=int(rng.integers(0, 3)),
    )


def test_criterion_01_end_to_end_gradients():
    rng = np.random.default_rng(4001)
    worst = 0.0
    checked = 0
    for kind in ("netvlad", "netfv"):
        for i in range(20):
            config = _random_tiny_config(rng, kind)
            model = init_model(config, seed=int(rng.integers(1 << 30)))
            batch = [
                rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), config.feature_dim))
                for _ in range(2)
            ]
            targets = (rng.uniform(size=(2, config.vocab_size)) < 0.4).astype(np.int64)
            loss_params = HuberParams(delta=float(rng.choice([0.5, 1.0, 2.0])))

            probs, cache = model_forward(batch, model)
            _, dprobs = multilabel_loss(probs, targets, loss_params)
            grads = model_backward(dprobs, cache)

            def loss():
                p, _ = model_forward(batch, model)
                return multilabel_loss(p, targets, loss_params)[0]

            analytic = grads.arrays
            for name, arr in model.arrays.items():
                worst = max(worst, max_rel_error(analytic[name], central_diff(loss, arr)))
                checked += 1
            for j, frames in enumerate(batch):
                worst = max(worst, max_rel_error(grads.frames[j], central_diff(loss, frames)))
                checked += 1
    _report(1, worst <= 1e-4,
            f"worst relative gradient error {worst:.2e} over {checked} arrays "
            f"(40 random tiny models, both pooling kinds, tolerance 1e-4)")


# ------------------------------------------------------------ criterion 2

FIXTURE_PREDICTIONS = [
    ("A", [(0, 0.9), (3, 0.7)]),
    ("B", [(1, 0.8), (4, 0.6), (2, 0.4)]),
]
FIXTURE_TRUTH = {"A": {0}, "B": {1, 2}}


def _random_gap_instance(rng: np.random.Generator, coarse: bool):
    n_videos = int(rng.integers(1, 21))
    predictions = []
    truth = {}
    for v in range(n_videos):
        vid = f"v{v}"
        n_pred = int(rng.integers(0, 16))
        labels = rng.choice(15, size=n_pred, replace=False)
        if coarse:
            confs = rng.integers(-8, 9, size=n_pred) / 8.0  # many exact ties
        else:
            confs = rng.uniform(-1.0, 1.0, size=n_pred)
        predictions.append((vid, [(int(l), float(c)) for l, c in zip(labels, confs)]))
        truth[vid] = set(int(x) for x in rng.choice(15, size=int(rng.integers(0, 5)),
                                                    replace=False))
    if all(len(t) == 0 for t in truth.values()):
        truth["v0"] = {0}
    return predictions, truth


def test_criterion_02_gap_matches_bruteforce():
    rng = np.random.default_rng(4002)
    worst = 0.0
    for i in range(200):
        predictions, truth = _random_gap_instance(rng, coarse=(i % 2 == 1))
        worst = max(worst, abs(gap(predictions, truth) - gap_bruteforce(predictions, truth)))
    fixture = gap(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)
    ok = worst <= 1e-12 and abs(fixture - 13 / 15) <= 1e-15 and round(fixture, 7) == 0.8666667
    _report(2, ok,
            f"200 randomized instances, worst |gap - bruteforce| = {worst:.1e}; "
            f"hand fixture {fixture:.7f}")


# ------------------------------------------------------------ criterion 3


def test_criterion_03_loss_closed_forms():
    anchor = float(huber_scalar(1.0, 1.0))
    ok = abs(anchor - 0.4142136) <= 1e-6

    grid = np.linspace(-1000.0, 1000.0, 10_000)
    bound_ok = True
    regime_ok = True
    for delta in (0.5, 1.0, 3.0):
        bound_ok &= bool(np.all(np.abs(huber_grad_scalar(grid, delta)) < delta))
        small = 1e-4 * delta
        big = 1e4 * delta
        for a in (small, -small):
            quad = a * a / 2.0
            regime_ok &= abs(float(huber_scalar(a, delta)) / quad - 1.0) <= 1e-4
        for a in (big, -big):
            linear = delta * abs(a) - delta * delta
            regime_ok &= abs(float(huber_scalar(a, delta)) / linear - 1.0) <= 1e-4
    _report(3, ok and bound_ok and regime_ok,
            f"unit residual value {anchor:.7f}; |gradient| < delta on a 10^4-point grid; "
            f"quadratic and linear regimes within 1e-4 for three deltas")


# ------------------------------------------------------------ criterion 4


def test_criterion_04_schedule_presets():
    ours = lr_at(1.0, FAST_ANNEAL)
    base = lr_at(1.0, SLOW_ANNEAL)
    value_ok = abs(ours - 0.0010737418) <= 1e-9
    exact_ok = base == 0.00095
    rel_gap = abs(ours - base) / base
    gap_ok = rel_gap <= 0.15

    epochs = np.linspace(1.0, 3.0, 2001)[1:]
    fast = np.array([lr_at(float(e), FAST_ANNEAL) for e in epochs])
    slow = np.array([lr_at(float(e), SLOW_ANNEAL) for e in epochs])
    # One crossing: fast strictly above slow on the first n_above grid points,
    # strictly below from there on.  The closed form puts it at 1.0562, so the
    # first grid point at or past it is 1.057.
    n_above = int(np.count_nonzero(fast > slow))
    single_ok = bool(np.all(fast[:n_above] > slow[:n_above])
                     and np.all(fast[n_above:] < slow[n_above:]))
    cross = float(epochs[n_above]) if n_above < epochs.size else float("nan")
    cross_ok = abs(cross - 1.057) <= 1e-9
    ratio = lr_at(2.0, FAST_ANNEAL) / lr_at(2.0, SLOW_ANNEAL)
    ratio_ok = abs(ratio / (10 * 0.8**20 / 0.95**2) - 1.0) <= 1e-12

    detail = (f"one-epoch values ours {ours:.10f} / baseline exact {exact_ok}, "
              f"relative gap {rel_gap:.4f} (<= 0.15: {gap_ok}); single crossing "
              f"{single_ok}, first grid epoch at or past it {cross:.3f} (expected 1.057); "
              f"fast/slow at epoch 2.0 {ratio:.5f} (expected 10*0.8^20/0.95^2 = 0.12775)")
    _report(4, value_ok and exact_ok and gap_ok and single_ok and cross_ok and ratio_ok,
            detail)


# ------------------------------------------------------------ criterion 5


def test_criterion_05_steps_per_epoch():
    big = steps_per_epoch(3_900_000, 160)
    small = steps_per_epoch(1_168_000, 160)
    _report(5, big == 24_375 and small == 7_300,
            f"(3,900,000 videos, batch 160) -> {big} steps; "
            f"(1,168,000 videos, batch 160) -> {small} steps")


# ------------------------------------------------------------ criterion 6


def test_criterion_06_separable_training_reaches_95():
    spec = SyntheticSpec(num_videos=2500, vocab_size=50, d_video=32, d_audio=8,
                         t_min=4, t_max=12, labels_min=1, labels_max=3,
                         imbalance_exponent=0.8, noise_scale=0.0, seed=123)
    records = generate_synthetic(spec)
    train_recs, val_recs = records[:2000], records[2000:]
    config = ModelConfig(pooling_kind="netvlad", cluster_size=8, hidden_size=64,
                         d_video=32, d_audio=8, vocab_size=50)

    def run_once():
        model = init_model(config, seed=42)
        prior = sum(r.labels.size for r in train_recs) / (len(train_recs) * 50)
        set_output_prior(model, prior)
        tc = TrainConfig(batch_size=32, epoch_budget=2.5, eval_every=0.25, seed=7,
                         schedule=ScheduleParams(initial_lr=0.02, decay=0.9,
                                                 decay_per_epoch=1.0))
        return train(train_recs, val_recs, model, tc)

    t0 = time.perf_counter()
    first = run_once()
    elapsed = time.perf_counter() - t0
    second = run_once()

    final_gap = [row for row in first.curve if row[1] == "val"][-1][2]
    deterministic = first.curve == second.curve
    ok = final_gap >= 0.95 and deterministic and elapsed < 300.0
    _report(6, ok,
            f"2,000 separable videos, 2.5 epochs, {first.global_step} steps: "
            f"final validation GAP {final_gap:.4f} (threshold 0.95), "
            f"repeat run identical {deterministic}, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 7


def _resample_labels(records, fraction, vocab_size, seed):
    """Replace the label set of ~fraction of records with uniform noise."""
    rng = np.random.default_rng(seed)
    out = []
    for record in records:
        if rng.random() < fraction:
            k = record.labels.size
            labels = np.sort(rng.choice(vocab_size, size=k, replace=False)).astype(np.int64)
            out.append(VideoRecord(id=record.id, frames=record.frames, labels=labels))
        else:
            out.append(record)
    return out


def test_criterion_07_overfit_peak_then_decline():
    spec = SyntheticSpec(num_videos=400, vocab_size=20, d_video=16, d_audio=4,
                         t_min=3, t_max=6, labels_min=1, labels_max=2,
                         imbalance_exponent=0.8, noise_scale=0.05, seed=77)
    records = generate_synthetic(spec)
    train_recs = _resample_labels(records[:150], fraction=0.45, vocab_size=20, seed=31)
    val_recs = records[150:]

    config = ModelConfig(pooling_kind="netvlad", cluster_size=4, hidden_size=64,
                         d_video=16, d_audio=4, vocab_size=20)
    model = init_model(config, seed=5)
    prior = sum(r.labels.size for r in train_recs) / (len(train_recs) * 20)
    set_output_prior(model, prior)
    tc = TrainConfig(batch_size=4, epoch_budget=6.0, eval_every=0.5, seed=9,
                     schedule=ScheduleParams(initial_lr=0.015, decay=1.0,
                                             decay_per_epoch=1.0))
    result = train(train_recs, val_recs, model, tc)

    train_rows = [(row[0], row[2]) for row in result.curve if row[1] == "train"]
    val_rows = [(row[0], row[2]) for row in result.curve if row[1] == "val"]
    val_final = val_rows[-1][1]
    train_final = train_rows[-1][1]
    qualifying = [(e, vg, tg) for (e, vg), (_, tg) in zip(val_rows[:-1], train_rows[:-1])
                  if vg > val_final and train_final > tg]
    if qualifying:
        e, vg, tg = max(qualifying, key=lambda q: q[1] - val_final)
        detail = (f"45% of 150 train videos relabeled at random: validation peaks at "
                  f"epoch {e:.1f} ({vg:.4f} vs final {val_final:.4f}) while train GAP "
                  f"still rises ({tg:.4f} -> {train_final:.4f})")
    else:
        detail = (f"no eval point beats the final validation GAP {val_final:.4f} "
                  f"with train GAP still rising (final train {train_final:.4f})")
    _report(7, bool(qualifying), detail)


# ------------------------------------------------------------ criterion 8


def test_criterion_08_rebalance_matches_bruteforce():
    rng = np.random.default_rng(4008)
    for i in range(50):
        vocab = int(rng.integers(3, 30))
        spec = SyntheticSpec(num_videos=int(rng.integers(5, 120)), vocab_size=vocab,
                             d_video=2, d_audio=0, t_min=1, t_max=2,
                             labels_min=1, labels_max=int(rng.integers(1, min(5, vocab) + 1)),
                             imbalance_exponent=float(rng.uniform(0.3, 2.0)),
                             noise_scale=0.0, seed=int(rng.integers(1 << 30)))
        records = generate_synthetic(spec)
        stats = label_frequency_stats(records, vocab)

        counts = [0] * vocab
        for record in records:
            for label in record.labels:
                counts[label] += 1
        order = sorted(range(vocab), key=lambda l: (-counts[l], l))
        total = sum(counts)
        running = 0
        coverage = []
        for label in order:
            running += counts[label]
            coverage.append(running / total)
        assert stats.counts.tolist() == counts, f"dataset {i}: counts differ"
        assert stats.order.tolist() == order, f"dataset {i}: order differs"
        assert stats.coverage.tolist() == coverage, f"dataset {i}: coverage differs"

        threshold = int(rng.integers(0, vocab))
        ranks = {label: r for r, label in enumerate(order)}
        expected_tail = [record.id for record in records
                         if max(ranks[int(l)] for l in record.labels) > threshold]
        tail = build_tail_subset(records, threshold, vocab)
        assert [r.id for r in tail] == expected_tail, f"dataset {i}: tail subset differs"

        multiplier = int(rng.integers(1, 5))
        hard = build_hard_subset(records, multiplier)
        expected_hard = []
        for record in records:
            expected_hard.extend([record.id] * (multiplier if is_hard(record) else 1))
        assert [r.id for r in hard] == expected_hard, f"dataset {i}: hard subset differs"
        n_hard = sum(1 for record in records if is_hard(record))
        assert len(hard) == multiplier * n_hard + (len(records) - n_hard)
    _report(8, True,
            "frequency stats, tail subset, and hard subset match brute-force "
            "recomputation on 50 random datasets; size law m*h + r exact")


# ------------------------------------------------------------ criterion 9


def test_criterion_09_size_accounting():
    rng = np.random.default_rng(4009)
    for _ in range(100):
        d_video = int(rng.integers(1, 41))
        config = ModelConfig(
            pooling_kind=str(rng.choice(["netvlad", "netfv"])),
            cluster_size=int(rng.integers(1, 9)),
            hidden_size=int(rng.integers(1, 65)),
            d_video=d_video,
            d_audio=int(rng.integers(0, 17)),
            vocab_size=int(rng.integers(1, 51)),
            modality_mode=str(rng.choice(["separate", "concatenated"])),
            audio_cluster_size=int(rng.integers(0, 5)),
        )
        model = init_model(config, seed=0)
        enumerated = sum(arr.size for arr in model.arrays.values())
        assert parameter_count(config) == enumerated, f"count mismatch for {config}"

    concat = ModelConfig(pooling_kind="netvlad", cluster_size=192, hidden_size=1200,
                         d_video=1024, d_audio=128, vocab_size=3862,
                         modality_mode="concatenated")
    separate = ModelConfig(pooling_kind="netvlad", cluster_size=192, hidden_size=1200,
                           d_video=1024, d_audio=128, vocab_size=3862,
                           modality_mode="separate", audio_cluster_size=48)
    concat_bytes = size_bytes(concat)
    separate_bytes = size_bytes(separate)
    concat_ok, _ = check_size_limit(concat)
    separate_ok, _ = check_size_limit(separate)
    ok = (concat_bytes == 1_082_011_288 and separate_bytes == 993_390_424
          and not concat_ok and separate_ok)
    _report(9, ok,
            f"closed form equals enumeration on 100 random configs; wide single-tower "
            f"model {concat_bytes:,} B (over 1 GiB), split-tower model "
            f"{separate_bytes:,} B (under)")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_determinism_and_persistence():
    spec = SyntheticSpec(num_videos=40, vocab_size=8, d_video=5, d_audio=3,
                         t_min=2, t_max=4, labels_min=1, labels_max=2,
                         imbalance_exponent=1.0, noise_scale=0.05, seed=5)
    records = generate_synthetic(spec)
    train_recs, val_recs = records[:32], records[32:]
    config = ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=8,
                         d_video=5, d_audio=3, vocab_size=8)
    schedule = ScheduleParams(initial_lr=0.01, decay=0.9, decay_per_epoch=1.0)

    def run(budget):
        tc = TrainConfig(batch_size=4, epoch_budget=budget, eval_every=0.5, seed=3,
                         schedule=schedule)
        return tc, train(train_recs, val_recs, init_model(config, seed=1), tc)

    tc, first = run(2.0)
    _, second = run(2.0)
    curves_identical = curve_csv(first.curve) == curve_csv(second.curve)
    blob_a = checkpoint_bytes(make_checkpoint(first.model, first.opt_state,
                                              first.global_step, first.epoch_fraction, tc))
    blob_b = checkpoint_bytes(make_checkpoint(second.model, second.opt_state,
                                              second.global_step, second.epoch_fraction, tc))
    blobs_identical = blob_a == blob_b

    _, part = run(1.0)
    checkpoint = checkpoint_from_bytes(checkpoint_bytes(make_checkpoint(
        part.model, part.opt_state, part.global_step, part.epoch_fraction, tc)))
    model, state, step, _ = restore_checkpoint(checkpoint)
    resumed = train(train_recs, val_recs, model, tc, opt_state=state, start_step=step)
    params_equal = all(
        np.array_equal(a, b)
        for a, b in zip(first.model.arrays.values(), resumed.model.arrays.values())
    )
    moments_equal = (np.array_equal(first.opt_state.m, resumed.opt_state.m)
                     and np.array_equal(first.opt_state.v, resumed.opt_state.v))
    ok = curves_identical and blobs_identical and params_equal and moments_equal
    _report(10, ok,
            f"repeat runs byte-identical (curve {curves_identical}, checkpoint "
            f"{blobs_identical}); resume after {part.global_step} of "
            f"{first.global_step} steps reproduces parameters and optimizer "
            f"moments exactly")
