from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.featureio import SyntheticSpec, VideoRecord, generate_synthetic
from framepool.rebalance import (
    build_hard_subset,
    build_tail_subset,
    is_hard,
    label_frequency_stats,
    stats_csv,
)


def record(labels, ident=b"x"):
    labels = np.asarray(sorted(labels), dtype=np.int64)
    return VideoRecord(id=ident, frames=np.zeros((1, 2), dtype=np.float32), labels=labels)


def random_records(rng, vocab_size, n_videos, max_labels=5):
    spec = SyntheticSpec(num_videos=n_videos, vocab_size=vocab_size, d_video=2,
                         d_audio=0, labels_min=1, labels_max=min(max_labels, vocab_size),
                         t_min=1, t_max=2, seed=int(rng.integers(2**31)))
    return generate_synthetic(spec)


# ---------------------------------------------------------------- stats


def test_uniform_labels_coverage_is_linear():
    records = [record([l], ident=f"{l}-{i}".encode()) for l in range(8) for i in range(3)]
    stats = label_frequency_stats(records, 8)
    np.testing.assert_array_equal(stats.counts, np.full(8, 3))
    np.testing.assert_array_equal(stats.coverage, np.arange(1, 9) / 8)


def test_counts_match_bruteforce_recount():
    rng = np.random.default_rng(0)
    records = random_records(rng, vocab_size=20, n_videos=300)
    stats = label_frequency_stats(records, 20)
    recount = Counter(int(l) for r in records for l in r.labels)
    for label in range(20):
        assert stats.counts[label] == recount.get(label, 0)
    assert stats.total == sum(recount.values())


def test_order_breaks_ties_by_label_id():
    records = [record([0]), record([3]), record([1]), record([1])]
    stats = label_frequency_stats(records, 5)
    # counts: label1=2, labels 0,3 =1, labels 2,4 =0
    np.testing.assert_array_equal(stats.order, [1, 0, 3, 2, 4])
    ranks = stats.ranks
    assert ranks[1] == 0 and ranks[0] == 1 and ranks[3] == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 25), st.integers(1, 120))
def test_coverage_monotone_and_complete(seed, vocab, n_videos):
    rng = np.random.default_rng(seed)
    records = random_records(rng, vocab, n_videos)
    stats = label_frequency_stats(records, vocab)
    assert np.all(np.diff(stats.coverage) >= -1e-15)
    np.testing.assert_allclose(stats.coverage[-1], 1.0, rtol=0, atol=1e-12)
    assert stats.total == sum(r.labels.size for r in records)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        label_frequency_stats([], 5)


def test_stats_of_a_record_with_no_labels_names_the_record():
    with pytest.raises(ValueError, match="^record 0 has no labels$"):
        label_frequency_stats([record([])], 5)


# ---------------------------------------------------------------- tail subset


def test_tail_threshold_of_last_rank_gives_empty_subset():
    rng = np.random.default_rng(1)
    records = random_records(rng, vocab_size=10, n_videos=50)
    assert build_tail_subset(records, rank_threshold=9, vocab_size=10) == []


def test_tail_threshold_zero_keeps_videos_with_any_nonhead_label():
    records = [record([0]), record([0, 1]), record([1]), record([0])]
    # label 0 has count 3 (rank 0), label 1 count 2 (rank 1)
    subset = build_tail_subset(records, rank_threshold=0, vocab_size=2)
    assert subset == [records[1], records[2]]


def test_tail_membership_matches_bruteforce_filter():
    rng = np.random.default_rng(2)
    records = random_records(rng, vocab_size=15, n_videos=200)
    stats = label_frequency_stats(records, 15)
    ranks = stats.ranks
    for theta in (0, 3, 7, 14):
        subset = build_tail_subset(records, theta, 15)
        expected = [r for r in records if any(ranks[l] > theta for l in r.labels)]
        assert subset == expected


def test_tail_is_submultiset_of_input():
    rng = np.random.default_rng(3)
    records = random_records(rng, vocab_size=12, n_videos=80)
    subset = build_tail_subset(records, 4, 12)
    ids = [r.id for r in records]
    for r in subset:
        assert r in records
    assert [r.id for r in subset] == [i for i in ids
                                      if i in {r.id for r in subset}]  # order preserved


def test_tail_threshold_bounds_enforced():
    records = [record([0])]
    with pytest.raises(ValueError, match="rank_threshold"):
        build_tail_subset(records, 1, 1)
    with pytest.raises(ValueError, match="rank_threshold"):
        build_tail_subset(records, -1, 1)


def test_tail_subset_of_a_record_with_no_labels_names_the_record():
    with pytest.raises(ValueError, match="^record 0 has no labels$"):
        build_tail_subset([record([])], 0, 5)


# ---------------------------------------------------------------- hard subset


def test_hard_subset_identity_on_medium_cardinality():
    records = [record([0, 1]), record([2, 3, 4]), record([1, 2])]
    assert build_hard_subset(records, 3) == records


def test_hard_subset_size_law():
    rng = np.random.default_rng(4)
    records = random_records(rng, vocab_size=10, n_videos=150, max_labels=6)
    h = sum(1 for r in records if is_hard(r))
    r_count = len(records) - h
    for m in (1, 2, 3, 5):
        out = build_hard_subset(records, m)
        assert len(out) == m * h + r_count


def test_hard_subset_multiplier_one_is_identity():
    rng = np.random.default_rng(5)
    records = random_records(rng, vocab_size=8, n_videos=40)
    assert build_hard_subset(records, 1) == records


def test_hard_duplicates_are_adjacent_and_order_preserved():
    records = [record([0], b"a"), record([1, 2], b"b"), record([0, 1, 2, 3], b"c")]
    out = build_hard_subset(records, 3)
    assert [r.id for r in out] == [b"a", b"a", b"a", b"b", b"c", b"c", b"c"]


def test_hard_preserves_every_video_at_least_once():
    rng = np.random.default_rng(6)
    records = random_records(rng, vocab_size=9, n_videos=60, max_labels=6)
    out = build_hard_subset(records, 2)
    out_ids = {r.id for r in out}
    assert all(r.id in out_ids for r in records)


def test_hard_invalid_multiplier():
    with pytest.raises(ValueError, match="multiplier"):
        build_hard_subset([record([0])], 0)


# ---------------------------------------------------------------- consistency


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_subset_stats_reproducible_by_recount(seed):
    rng = np.random.default_rng(seed)
    records = random_records(rng, vocab_size=12, n_videos=100, max_labels=6)
    subset = build_hard_subset(records, 3)
    stats = label_frequency_stats(subset, 12)
    recount = Counter(int(l) for r in subset for l in r.labels)
    for label in range(12):
        assert stats.counts[label] == recount.get(label, 0)


def test_stats_csv_shape():
    records = [record([0]), record([1]), record([1])]
    text = stats_csv(label_frequency_stats(records, 3))
    lines = text.strip().split("\n")
    assert lines[0] == "rank,label,count,cumulative_coverage"
    assert len(lines) == 4
    assert lines[1].startswith("0,1,2,")  # label 1 is rank 0 with count 2


def test_hard_subset_of_a_read_corpus_is_written_a_chunk_at_a_time(tmp_path):
    import dataclasses
    import tracemalloc

    from framepool.featureio import load_dataset, save_dataset, write_dataset

    spec = SyntheticSpec(num_videos=2000, vocab_size=20, labels_max=5, seed=3)
    path = str(tmp_path / "data.vfr")
    save_dataset(path, generate_synthetic(spec), spec.header())
    header, corpus = load_dataset(path)
    subset = build_hard_subset(corpus, 3)

    class CountingSink:
        size = 0

        def write(self, chunk):
            self.size += len(chunk)
            return len(chunk)

    sink = CountingSink()
    tracemalloc.start()
    try:
        written = write_dataset(subset, dataclasses.replace(header, record_count=len(subset)),
                                sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written == sink.size > 4_000_000
    assert peak < written / 8
