import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.metrics import (
    GapConfig,
    gap,
    gap_bruteforce,
    miss_analysis,
    miss_report_csv,
    read_predictions_csv,
    read_truth_csv,
    write_predictions_csv,
)

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
    text = write_predictions_csv(FIXTURE_PREDICTIONS)
    parsed = read_predictions_csv(text.splitlines())
    assert parsed == [("A", [(0, 0.9), (3, 0.7)]), ("B", [(1, 0.8), (4, 0.6), (2, 0.4)])]

    truth = read_truth_csv(["video_id,label", "A,0", "B,1", "B,2"])
    assert truth == {"A": {0}, "B": {1, 2}}

    report = miss_analysis(FIXTURE_PREDICTIONS, FIXTURE_TRUTH)
    text = miss_report_csv(report)
    assert text.splitlines()[0].startswith("total_videos,")


def test_csv_bad_headers_rejected():
    with pytest.raises(ValueError, match="header"):
        read_predictions_csv(["vid,label,conf", "A,0,0.5"])
    with pytest.raises(ValueError, match="header"):
        read_truth_csv(["id,lab", "A,0"])


FUZZ_PREDICTIONS = write_predictions_csv(FIXTURE_PREDICTIONS)
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
