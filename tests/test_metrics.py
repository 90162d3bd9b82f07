import csv
import io
import math
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool import metrics
from framepool.metrics import (
    GapConfig,
    MissReport,
    Ranked,
    gap,
    gap_bruteforce,
    miss_analysis,
    miss_report_csv,
    rank_pairs,
    rank_probs,
    read_predictions_csv,
    read_truth_csv,
    write_predictions_csv,
)
from framepool.netmodel import PROB_FLOOR

FIXTURE_PREDICTIONS = [
    ("A", [(0, 0.9), (3, 0.7)]),
    ("B", [(1, 0.8), (4, 0.6), (2, 0.4)]),
]
FIXTURE_TRUTH = {"A": {0}, "B": {1, 2}}


def random_instance(rng, max_videos=20, max_labels=15, coarse=False):
    n_videos = int(rng.integers(1, max_videos + 1))
    predictions = []
    truth = {}
    for v in range(n_videos):
        vid = f"v{v}"
        n_pred = int(rng.integers(0, max_labels + 1))
        labels = rng.choice(max_labels, size=n_pred, replace=False)
        if coarse:
            confs = rng.integers(-8, 9, size=n_pred) / 8.0  # many exact ties
        else:
            confs = rng.uniform(-1, 1, size=n_pred)
        predictions.append((vid, [(int(l), float(c)) for l, c in zip(labels, confs)]))
        n_true = int(rng.integers(0, 5))
        truth[vid] = set(int(x) for x in rng.choice(max_labels, size=n_true, replace=False))
    # keep P > 0
    if all(len(t) == 0 for t in truth.values()):
        truth["v0"] = {0}
    return predictions, truth


# ---------------------------------------------------------------- fixtures


def test_hand_fixture():
    value = gap(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)
    np.testing.assert_allclose(value, (1 + 1 + 3 / 5) / 3, rtol=1e-15)
    np.testing.assert_allclose(value, 0.8666667, atol=5e-8)


def test_perfect_ranking_gives_one():
    predictions = [("A", [(0, 0.9), (1, 0.8), (7, 0.2)]),
                   ("B", [(2, 0.95), (5, 0.1)])]
    truth = {"A": {0, 1}, "B": {2}}
    assert gap(predictions, truth) == 1.0


def test_all_wrong_gives_zero():
    predictions = [("A", [(3, 0.9)]), ("B", [(4, 0.8)])]
    truth = {"A": {0}, "B": {1}}
    assert gap(predictions, truth) == 0.0


def test_single_correct_prediction():
    assert gap_bruteforce([("A", [(0, 0.5)])], {"A": {0}}) == 1.0


def test_fixture_matches_bruteforce_exactly():
    a = gap(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)
    b = gap_bruteforce(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)
    assert abs(a - b) <= 1e-12


def test_top_n_cap_costs_recall():
    # 3 truth labels but n=2: even perfect confidence cannot reach 1.0
    predictions = [("A", [(0, 0.9), (1, 0.8), (2, 0.7)])]
    truth = {"A": {0, 1, 2}}
    value = gap(predictions, truth, GapConfig(n=2))
    np.testing.assert_allclose(value, (1 + 1) / 3, rtol=1e-15)


def test_errors():
    with pytest.raises(ValueError, match="truth"):
        gap([("A", [(0, 0.5)])], {})
    with pytest.raises(ValueError, match="P = 0"):
        gap([("A", [(0, 0.5)])], {"A": set()})
    with pytest.raises(ValueError, match="duplicate"):
        gap([("A", [(0, 0.5), (0, 0.4)])], {"A": {0}})
    with pytest.raises(ValueError, match="non-finite"):
        gap([("A", [(0, math.nan)])], {"A": {0}})
    with pytest.raises(ValueError):
        gap(FIXTURE_PREDICTIONS, FIXTURE_TRUTH, GapConfig(n=0))


# ---------------------------------------------------------------- properties


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31), st.booleans())
def test_gap_in_unit_interval_and_matches_bruteforce(seed, coarse):
    rng = np.random.default_rng(seed)
    predictions, truth = random_instance(rng, coarse=coarse)
    a = gap(predictions, truth)
    b = gap_bruteforce(predictions, truth)
    assert 0.0 <= a <= 1.0
    assert abs(a - b) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_gap_invariant_under_monotone_transform(seed):
    # Coarse confidences make exact ties common; exp preserves order and ties.
    rng = np.random.default_rng(seed)
    predictions, truth = random_instance(rng, coarse=True)
    transformed = [(vid, [(label, math.exp(conf)) for label, conf in items])
                   for vid, items in predictions]
    assert abs(gap(predictions, truth) - gap(transformed, truth)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_removing_a_correct_prediction_never_increases_gap(seed):
    # Videos predict at most 15 labels with n=20, so removal never promotes a
    # previously capped item back into the pool.
    rng = np.random.default_rng(seed)
    predictions, truth = random_instance(rng)
    hits = [(vi, pi) for vi, (vid, items) in enumerate(predictions)
            for pi, (label, _) in enumerate(items) if label in truth[vid]]
    if not hits:
        return
    vi, pi = hits[int(rng.integers(len(hits)))]
    before = gap(predictions, truth)
    vid, items = predictions[vi]
    reduced = list(predictions)
    reduced[vi] = (vid, items[:pi] + items[pi + 1:])
    assert gap(reduced, truth) <= before + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_prepending_a_correct_prediction_never_decreases_gap(seed):
    rng = np.random.default_rng(seed)
    predictions, truth = random_instance(rng, max_labels=12)
    candidates = []
    for vi, (vid, items) in enumerate(predictions):
        if len(items) >= 19:
            continue  # avoid evicting an existing item from the top-20
        unpredicted = set(truth[vid]) - {label for label, _ in items}
        if unpredicted:
            candidates.append((vi, min(unpredicted)))
    if not candidates:
        return
    vi, label = candidates[int(rng.integers(len(candidates)))]
    top = max((conf for _, items in predictions for _, conf in items), default=0.0)
    before = gap(predictions, truth)
    vid, items = predictions[vi]
    extended = list(predictions)
    extended[vi] = (vid, [(label, top + 1.0)] + list(items))
    assert gap(extended, truth) >= before - 1e-12


# ---------------------------------------------------------------- ranking core


def reference_top_n(items, n):
    return sorted(items, key=lambda lc: (-lc[1], lc[0]))[:n]


def reference_gap(predictions, truth, n=20):
    """The per-entry tuple walk the array core replaced: pool every video's
    top-n, sort by (-confidence, video order, label), walk once."""
    pool, total_truth = [], 0
    for order, (video_id, items) in enumerate(predictions):
        truth_set = set(truth[video_id])
        total_truth += len(truth_set)
        pool += [(conf, order, label, label in truth_set)
                 for label, conf in reference_top_n(items, n)]
    pool.sort(key=lambda e: (-e[0], e[1], e[2]))
    correct, score = 0, 0.0
    for i, (_, _, _, is_correct) in enumerate(pool, start=1):
        if is_correct:
            correct += 1
            score += correct / i
    return score / total_truth


def reference_misses(predictions, truth, n=20):
    buckets = [0, 0, 0]  # 1, 2-3, >= 4 truth labels
    for video_id, items in predictions:
        truth_set = set(truth[video_id])
        if truth_set - {label for label, _ in reference_top_n(items, n)}:
            buckets[0 if len(truth_set) <= 1 else 1 if len(truth_set) <= 3 else 2] += 1
    return MissReport(len(predictions), sum(buckets), *buckets)


def random_matrix(rng, coarse):
    n_videos, n_labels = int(rng.integers(1, 13)), int(rng.integers(1, 10))
    if coarse:  # exact ties within and across videos, often across the n-th place
        probs = rng.integers(0, 4, size=(n_videos, n_labels)) / 4.0
    else:
        probs = rng.uniform(size=(n_videos, n_labels))
    targets = np.zeros((n_videos, n_labels))
    for row in targets:  # some videos have no truth label
        row[rng.choice(n_labels, size=int(rng.integers(0, min(4, n_labels) + 1)),
                       replace=False)] = 1.0
    if not targets.any():
        targets[0, 0] = 1.0
    ids = [f"v{i}" for i in range(n_videos)]
    return ids, probs, targets


def as_pairs(ids, probs, targets, rng):
    """The same predictions as (label, confidence) pairs in shuffled order."""
    predictions = []
    for video_id, row in zip(ids, probs):
        items = list(enumerate(row.tolist()))
        rng.shuffle(items)
        predictions.append((video_id, items))
    truth = {video_id: set(np.flatnonzero(row).tolist()) for video_id, row in zip(ids, targets)}
    return predictions, truth


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31), st.booleans(), st.integers(1, 11), st.integers(1, 5))
def test_array_core_equals_tuple_walk(seed, coarse, n, chunk):
    rng = np.random.default_rng(seed)
    ids, probs, targets = random_matrix(rng, coarse)
    predictions, truth = as_pairs(ids, probs, targets, rng)
    config = GapConfig(n=n)
    chunks = [(ids[i:i + chunk], probs[i:i + chunk], targets[i:i + chunk])
              for i in range(0, len(ids), chunk)]
    ranked, hits = rank_probs(chunks, n)
    assert list(ranked) == [(vid, reference_top_n(items, n)) for vid, items in predictions]
    expected = reference_gap(predictions, truth, n)
    assert gap(ranked, hits, config) == expected
    assert gap(predictions, truth, config) == expected
    assert gap(*rank_probs(chunks, probs.shape[1]), config) == expected  # capped to n
    assert abs(gap_bruteforce(ranked, hits, config) - expected) <= 1e-12
    misses = reference_misses(predictions, truth, n)
    assert miss_analysis(ranked, hits, config) == misses
    assert miss_analysis(predictions, truth, config) == misses


def test_tie_across_the_nth_place_keeps_the_lower_label_id():
    probs = np.array([[0.5, 0.9, 0.5, 0.5, 0.1]])
    targets = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
    ranked, truth = rank_probs([(["a"], probs, targets)], 2)
    assert list(ranked) == [("a", [(1, 0.9), (0, 0.5)])]
    assert truth.hits.tolist() == [False, False]
    pairs = [("a", [(3, 0.5), (4, 0.1), (2, 0.5), (0, 0.5), (1, 0.9)])]
    assert list(rank_pairs(pairs, {"a": {2}})[0]) == [("a", [(1, 0.9), (0, 0.5), (2, 0.5),
                                                               (3, 0.5), (4, 0.1)])]
    assert miss_analysis(ranked, truth, GapConfig(n=2)).videos_with_missed_labels == 1
    assert gap(pairs, {"a": {2}}, GapConfig(n=2)) == 0.0
    assert gap(pairs, {"a": {2}}, GapConfig(n=3)) == 1 / 3


def test_partitioned_top_n_equals_full_stable_argsort():
    # distinct confidences everywhere but in two rows: one where ten labels
    # tie for the 19th to 28th places, and one where every label ties
    rng = np.random.default_rng(7)
    n_videos, n_labels, n = 300, 50, 20
    probs = rng.uniform(size=(n_videos, n_labels))
    order = np.argsort(-probs[137])
    probs[137, order[18:28]] = probs[137, order[18]]
    probs[200] = 0.25
    targets = (rng.uniform(size=probs.shape) < 0.1).astype(float)
    ids = [f"v{i}" for i in range(n_videos)]
    chunks = [(ids[i:i + 128], probs[i:i + 128], targets[i:i + 128])
              for i in range(0, n_videos, 128)]
    ranked, truth = rank_probs(chunks, n)
    top = np.argsort(-probs, axis=1, kind="stable")[:, :n]
    np.testing.assert_array_equal(ranked.labels.reshape(n_videos, n), top)
    np.testing.assert_array_equal(ranked.confs.reshape(n_videos, n),
                                  np.take_along_axis(probs, top, axis=1))
    np.testing.assert_array_equal(truth.hits.reshape(n_videos, n),
                                  np.take_along_axis(targets, top, axis=1) != 0)
    assert ranked.labels.reshape(n_videos, n)[200].tolist() == list(range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_probability_names_its_video(seed, bad):
    rng = np.random.default_rng(seed)
    ids, probs, targets = random_matrix(rng, coarse=False)
    v, label = int(rng.integers(len(ids))), int(rng.integers(probs.shape[1]))
    probs[v, label] = bad
    chunks = [(ids[i:i + 2], probs[i:i + 2], targets[i:i + 2]) for i in range(0, len(ids), 2)]
    with pytest.raises(ValueError, match=f"^video 'v{v}': non-finite confidence$"):
        rank_probs(chunks, 3)
    predictions, truth = as_pairs(ids, probs, targets, rng)
    with pytest.raises(ValueError, match=f"^video 'v{v}': non-finite confidence$"):
        gap(predictions, truth)


def test_rank_probs_rejects_bad_n_and_no_videos():
    with pytest.raises(ValueError, match="n must be >= 1"):
        rank_probs([(["a"], np.ones((1, 2)), np.ones((1, 2)))], 0)
    with pytest.raises(ValueError, match="no videos"):
        rank_probs([], 3)


# ---------------------------------------------------------------- miss report


def test_no_misses_when_perfect():
    predictions = [("A", [(0, 0.9), (1, 0.8)]), ("B", [(2, 0.95)])]
    truth = {"A": {0, 1}, "B": {2}}
    report = miss_analysis(predictions, truth)
    assert report.total_videos == 2
    assert report.videos_with_missed_labels == 0


def test_constructed_misses_are_counted_and_bucketed():
    rng = np.random.default_rng(0)
    predictions = []
    truth = {}
    # 90 perfectly predicted videos with 2 labels each
    for v in range(90):
        vid = f"ok{v}"
        truth[vid] = {0, 1}
        predictions.append((vid, [(0, 0.9), (1, 0.8)]))
    # 10 videos whose top-n misses everything: 4 single-label, 3 with 2-3, 3 with >=4
    cards = [1, 1, 1, 1, 2, 3, 2, 4, 5, 6]
    for v, card in enumerate(cards):
        vid = f"bad{v}"
        truth[vid] = set(range(card))
        predictions.append((vid, [(99, 0.5)]))
    report = miss_analysis(predictions, truth)
    assert report.total_videos == 100
    assert report.videos_with_missed_labels == 10
    assert report.missed_single_label == 4
    assert report.missed_two_to_three == 3
    assert report.missed_four_plus == 3
    rng.shuffle(predictions)  # order must not matter for the counts
    again = miss_analysis(predictions, truth)
    assert again == report


def test_partial_miss_counts():
    # one truth label inside top-n, one outside: still a missed video
    predictions = [("A", [(0, 0.9), (7, 0.8)])]
    truth = {"A": {0, 1}}
    report = miss_analysis(predictions, truth)
    assert report.videos_with_missed_labels == 1
    assert report.missed_two_to_three == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_buckets_partition_missed_set(seed):
    rng = np.random.default_rng(seed)
    predictions, truth = random_instance(rng)
    report = miss_analysis(predictions, truth, GapConfig(n=3))
    total_bucketed = (report.missed_single_label + report.missed_two_to_three
                      + report.missed_four_plus)
    assert total_bucketed == report.videos_with_missed_labels
    assert report.videos_with_missed_labels <= report.total_videos


# ---------------------------------------------------------------- csv io


def test_csv_roundtrip():
    text = write_predictions_csv(rank_pairs(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)[0])
    parsed = read_predictions_csv(text.splitlines())
    assert parsed == [("A", [(0, 0.9), (3, 0.7)]), ("B", [(1, 0.8), (4, 0.6), (2, 0.4)])]

    truth = read_truth_csv(["video_id,label", "A,0", "B,1", "B,2"])
    assert truth == {"A": {0}, "B": {1, 2}}

    report = miss_analysis(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)
    text = miss_report_csv(report)
    assert text.splitlines()[0].startswith("total_videos,")


def reference_predictions_csv(ranked):
    """The row-by-row csv.writer walk the block writer replaced, each row
    quoted as by a writer whose rows end in CR LF (so an id holding a bare CR
    is quoted too), then ended in LF."""
    rows = ["video_id,label,confidence\n"]
    for video_id, items in ranked:
        for label, conf in items:
            row = io.StringIO()
            csv.writer(row, lineterminator="\r\n").writerow((video_id, label, f"{conf:.10g}"))
            rows.append(row.getvalue()[:-2] + "\n")
    return "".join(rows)


# 0, the smallest subnormal, a larger subnormal, the smallest normal, and
# values that repeat exactly within and across videos
_CONF_TIES = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1 / 3, 0.5, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=',"\r\n a\u00e9\u4e2d', max_size=5), min_size=1, max_size=8),
       st.integers(1, 300), st.integers(0, 2**31))
def test_block_writer_equals_row_walk(id_pool, n_videos, seed):
    # up to 300 videos in one block (block joins are checked with small
    # blocks below); counts and ids vary per video
    rng = np.random.default_rng(seed)
    ids = [id_pool[int(i)] for i in rng.integers(len(id_pool), size=n_videos)]
    counts = rng.integers(0, 6, size=n_videos)
    m = int(counts.sum())
    confs = np.where(rng.random(m) < 0.5, rng.choice(_CONF_TIES, size=m), rng.uniform(size=m))
    ranked = Ranked(ids, rng.integers(0, 1000, size=m), confs,
                    np.concatenate([[0], np.cumsum(counts)]))
    assert write_predictions_csv(ranked) == reference_predictions_csv(ranked)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=',"\r\n a\u00e9\u4e2d', max_size=5), min_size=1, max_size=8),
       st.integers(1, 40), st.integers(1, 7), st.integers(0, 2**31))
def test_block_writer_joins_small_blocks_as_the_row_walk_does(id_pool, n_videos, block, seed):
    # blocks of a few videos, so most cases cross several block boundaries,
    # some of them after a video with no entries
    rng = np.random.default_rng(seed)
    ids = [id_pool[int(i)] for i in rng.integers(len(id_pool), size=n_videos)]
    counts = rng.integers(0, 4, size=n_videos)
    m = int(counts.sum())
    confs = np.where(rng.random(m) < 0.5, rng.choice(_CONF_TIES, size=m), rng.uniform(size=m))
    ranked = Ranked(ids, rng.integers(-5, 1000, size=m), confs,
                    np.concatenate([[0], np.cumsum(counts)]))
    with mock.patch.object(metrics, "_CSV_BLOCK", block):
        assert write_predictions_csv(ranked) == reference_predictions_csv(ranked)


def test_block_writer_halves_a_block_of_long_ids(monkeypatch):
    # 200 videos of 10 rows whose ids run to thousands of bytes (commas,
    # quotes, CR, LF, 2- to 4-byte UTF-8 and a lone surrogate) pass
    # _BLOCK_CELLS, so the block is halved, and its halves again
    rng = np.random.default_rng(7)
    alphabet = list(',"\r\n a\u00e9\u4e2d\U0001f600\udc80')
    ids = ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(2000, 4000, size=200)]
    m = 10 * len(ids)
    ranked = Ranked(ids, rng.integers(0, 3000, size=m), rng.uniform(size=m),
                    np.arange(0, m + 1, 10))
    spans, block_rows = [], metrics._block_rows
    monkeypatch.setattr(metrics, "_block_rows",
                        lambda ranked, labels, a, b: spans.append(b - a)
                        or block_rows(ranked, labels, a, b))
    got = write_predictions_csv(ranked).split("\n")
    want = reference_predictions_csv(ranked).split("\n")
    assert len(got) == len(want)  # and no pieces differ, named without a diff of megabytes
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    assert spans == [200, 100, 50, 50, 100, 50, 50]


def test_block_writer_quotes_ids_as_csv_does():
    ranked = Ranked([' a,"b"', "x\ny", "c\rd", "\u00e9"], np.array([3, 1, 4, 2]),
                    np.array([0.5, 5e-324, 0.25, 1.0]), np.array([0, 1, 2, 3, 4]))
    text = write_predictions_csv(ranked)
    assert text == ('video_id,label,confidence\n" a,""b""",3,0.5\n'
                    '"x\ny",1,4.940656458e-324\n"c\rd",4,0.25\n\u00e9,2,1\n')
    assert read_predictions_csv(io.StringIO(text, newline="")) == [
        (' a,"b"', [(3, 0.5)]), ("x\ny", [(1, 5e-324)]), ("c\rd", [(4, 0.25)]),
        ("\u00e9", [(2, 1.0)])]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(alphabet=',"\r\n a'), st.text()),
                min_size=1, max_size=12, unique=True))
def test_predictions_csv_ids_survive_write_then_read(ids):
    ranked = Ranked(ids, np.arange(len(ids)), np.full(len(ids), 0.5), np.arange(len(ids) + 1))
    text = write_predictions_csv(ranked)
    assert read_predictions_csv(io.StringIO(text, newline="")) == [
        (video_id, [(label, 0.5)]) for label, video_id in enumerate(ids)]


def _written_confs(confs):
    """The confidence text of each row write_predictions_csv writes for confs."""
    confs = np.array(confs, dtype=np.float64)
    ranked = Ranked(["v"], np.zeros(len(confs), np.int64), confs, np.array([0, len(confs)]))
    return [row.split(",")[2] for row in write_predictions_csv(ranked).splitlines()[1:]]


def _ulps_around(values, ulps=3):
    """Each value and its neighbours up to ``ulps`` doubles away on both sides."""
    out = []
    for v in values:
        up = down = float(v)
        out.append(up)
        for _ in range(ulps):
            up, down = float(np.nextafter(up, np.inf)), float(np.nextafter(down, -np.inf))
            out += [up, down]
    return out


def _encoder_edges():
    """Values where the digits or the exponent of format(c, ".10g") change."""
    rng = np.random.default_rng(0)
    values = []
    for e in range(-13, 0):
        values += _ulps_around([10.0 ** e])
        # half-way between two 10-digit values, where format() rounds half to even
        ks = [10 ** 9, 10 ** 10 - 1, *rng.integers(10 ** 9, 10 ** 10, size=20).tolist()]
        values += _ulps_around([float(Fraction(2 * k + 1, 2) * Fraction(10) ** (e - 9))
                                for k in ks])
    values += _ulps_around([9.99999999995e-05, 0.99999999995, 0.0999999999996,
                            9.99999999996e-05, PROB_FLOOR, 1 - PROB_FLOOR, 1e-13])
    values += [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0,
               -0.5, 1.5, 1e300, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    return values


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e-13, 1.0, exclude_max=True)), min_size=1, max_size=40))
def test_confidence_encoder_equals_format_for_any_double(confs):
    assert _written_confs(confs) == [format(c, ".10g") for c in confs]


def test_confidence_encoder_equals_format_where_rounding_turns():
    values = _encoder_edges()
    assert _written_confs(values) == [format(c, ".10g") for c in values]


def test_confidence_encoder_leaves_format_only_what_it_cannot_prove(monkeypatch):
    # powers of ten, values whose digits round up to the next power (one of
    # them from the exponent form into 0.0001), and ordinary probabilities
    # are all encoded without format(); the near half-way values need it
    calls = []
    monkeypatch.setattr(metrics, "format", lambda c, spec: calls.append(c) or format(c, spec),
                        raising=False)
    proven = [c for c in _ulps_around([10.0 ** e for e in range(-13, 0)] + [
        0.0999999999996, 9.99999999996e-05, 0.0999999999, PROB_FLOOR]) if c >= 1e-13]
    proven += np.random.default_rng(1).uniform(size=2000).tolist()
    assert _written_confs(proven) == [format(c, ".10g") for c in proven]
    assert calls == []
    assert _written_confs([0.5, 1.0, 0.0, 2.5e-14]) == ["0.5", "1", "0", "2.5e-14"]
    assert calls == [1.0, 0.0, 2.5e-14]


def test_predictions_csv_writes_labels_of_any_int64():
    labels = np.array([-1, 0, 7, -(2 ** 63), 2 ** 63 - 1, 2 ** 40, -5], np.int64)
    ranked = Ranked(["a", "b"], labels, np.linspace(0.9, 0.1, len(labels)), np.array([0, 3, 7]))
    assert write_predictions_csv(ranked) == reference_predictions_csv(ranked)
    near = Ranked(["a"], np.array([2 ** 63 - 1, 2 ** 63 - 3]), np.array([0.5, 0.25]),
                  np.array([0, 2]))
    assert write_predictions_csv(near) == reference_predictions_csv(near)


def test_csv_bad_headers_rejected():
    with pytest.raises(ValueError, match="header"):
        read_predictions_csv(["vid,label,conf", "A,0,0.5"])
    with pytest.raises(ValueError, match="header"):
        read_truth_csv(["id,lab", "A,0"])


FUZZ_PREDICTIONS = write_predictions_csv(rank_pairs(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)[0])
FUZZ_TRUTH = "video_id,label\nA,0\nB,1\nB,2\n"
_csv_text = st.text(alphabet='AB0123456789.,-+e"\r\n\x00 nai', min_size=1, max_size=6)
_csv_mutations = st.one_of(
    st.tuples(st.just("edit"), st.integers(0, 10**4), _csv_text),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("insert"), st.integers(0, 10**4), _csv_text),
)


def _mutate(text, mutations):
    for kind, at, *arg in mutations:
        at %= len(text) + 1
        if kind == "edit":
            text = text[:at] + arg[0] + text[at + len(arg[0]):]
        elif kind == "truncate":
            text = text[:at]
        else:
            text = text[:at] + arg[0] + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.lists(_csv_mutations, max_size=3), st.lists(_csv_mutations, max_size=3))
def test_mutated_csv_is_rejected_or_scores(prediction_edits, truth_edits):
    try:
        predictions = read_predictions_csv(io.StringIO(_mutate(FUZZ_PREDICTIONS, prediction_edits)))
        truth = read_truth_csv(io.StringIO(_mutate(FUZZ_TRUTH, truth_edits)))
    except ValueError:
        return
    for score in (gap, miss_analysis):
        try:
            score(predictions, truth)
        except ValueError:
            pass


def test_csv_module_errors_are_value_errors():
    with pytest.raises(ValueError, match="malformed predictions CSV: field larger than field limit"):
        read_predictions_csv(io.StringIO(f"video_id,label,confidence\n{'v' * 131073},0,0.5\n"))
    with pytest.raises(ValueError, match="malformed truth CSV: new-line character"):
        read_truth_csv(io.StringIO("video_id,label\nA,0\rB,1\n"))
