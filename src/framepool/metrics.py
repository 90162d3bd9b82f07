"""Global average precision over pooled per-video top-n predictions.

Every video contributes its n most confident predicted labels to one global
pool; the pool is sorted by descending confidence and walked once, and each
correct prediction at position i contributes precision_at_i / P, where P is
the total number of ground-truth (video, label) pairs over all evaluated
videos.  P counts pairs the top-n cap may have dropped, so a video with more
truth labels than n caps the reachable score below 1.

Ties are broken deterministically everywhere: within a video by ascending
label id, in the global pool by video input order then label id.  Two runs of
the same evaluation are therefore bit-identical.

gap_bruteforce recomputes precision at every rank from scratch, O(M^2); it
exists only to cross-check gap and must agree to 1e-12.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# predictions: ordered [(video_id, [(label, confidence), ...]), ...]
# truth: mapping video_id -> iterable of ground-truth label ids
Predictions = Sequence[tuple[object, Sequence[tuple[int, float]]]]


@dataclass(frozen=True)
class GapConfig:
    n: int = 20

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class MissReport:
    total_videos: int
    videos_with_missed_labels: int
    missed_single_label: int
    missed_two_to_three: int
    missed_four_plus: int

    def validate(self) -> None:
        buckets = (self.missed_single_label + self.missed_two_to_three
                   + self.missed_four_plus)
        if buckets != self.videos_with_missed_labels:
            raise AssertionError("miss buckets do not partition the missed set")


def top_n(items: Iterable[tuple[int, float]], n: int) -> list[tuple[int, float]]:
    """A video's n most confident (label, confidence) pairs, ties by label id."""
    return sorted(items, key=lambda lc: (-lc[1], lc[0]))[:n]


def _ranked(predictions: Predictions, truth: Mapping, config: GapConfig):
    """Per video, in input order, once checked: (its truth set, its top-n)."""
    config.validate()
    for video_id, items in predictions:
        if video_id not in truth:
            raise ValueError(f"no truth entry for video {video_id!r}")
        labels = [label for label, _ in items]
        if len(set(labels)) != len(labels):
            raise ValueError(f"video {video_id!r}: duplicate predicted labels")
        if not all(np.isfinite(conf) for _, conf in items):
            raise ValueError(f"video {video_id!r}: non-finite confidence")
        yield set(truth[video_id]), top_n(items, config.n)


def _pooled(predictions: Predictions, truth: Mapping, config: GapConfig):
    """Cap per video and return (sorted pool, P).

    Pool entries are (confidence, video order, label, is_correct); the sort is
    by descending confidence, then video input order, then label id.
    """
    pool = []
    total_truth = 0
    for order, (truth_set, kept) in enumerate(_ranked(predictions, truth, config)):
        total_truth += len(truth_set)
        pool.extend((conf, order, label, label in truth_set) for label, conf in kept)
    if total_truth == 0:
        raise ValueError("no ground-truth pairs among evaluated videos (P = 0)")
    pool.sort(key=lambda e: (-e[0], e[1], e[2]))
    return pool, total_truth


def gap(predictions: Predictions, truth: Mapping, config: GapConfig = GapConfig()) -> float:
    """Single-pass walk: running correct count gives precision at each hit."""
    pool, total_truth = _pooled(predictions, truth, config)
    correct = 0
    score = 0.0
    for i, (_, _, _, is_correct) in enumerate(pool, start=1):
        if is_correct:
            correct += 1
            score += correct / i
    return score / total_truth


def gap_bruteforce(predictions: Predictions, truth: Mapping,
                   config: GapConfig = GapConfig()) -> float:
    """Same contract as gap; precision at each rank recounted from scratch."""
    pool, total_truth = _pooled(predictions, truth, config)
    score = 0.0
    for i in range(1, len(pool) + 1):
        if pool[i - 1][3]:
            precision = sum(1 for e in pool[:i] if e[3]) / i
            score += precision / total_truth
    return score


def miss_analysis(predictions: Predictions, truth: Mapping,
                  config: GapConfig = GapConfig()) -> MissReport:
    """A video is missed iff any truth label is absent from its top-n."""
    total = 0
    missed = 0
    buckets = {1: 0, 2: 0, 4: 0}  # keyed by bucket floor: 1, 2-3, >=4
    for truth_set, kept in _ranked(predictions, truth, config):
        total += 1
        if truth_set - {label for label, _ in kept}:
            missed += 1
            cardinality = len(truth_set)
            if cardinality <= 1:
                buckets[1] += 1
            elif cardinality <= 3:
                buckets[2] += 1
            else:
                buckets[4] += 1
    report = MissReport(total_videos=total, videos_with_missed_labels=missed,
                        missed_single_label=buckets[1], missed_two_to_three=buckets[2],
                        missed_four_plus=buckets[4])
    report.validate()
    return report


def miss_report_csv(report: MissReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["total_videos", "videos_with_missed_labels",
                     "missed_single_label", "missed_two_to_three", "missed_four_plus"])
    writer.writerow([report.total_videos, report.videos_with_missed_labels,
                     report.missed_single_label, report.missed_two_to_three,
                     report.missed_four_plus])
    return out.getvalue()


def miss_report_text(report: MissReport) -> str:
    lines = [
        f"videos evaluated:        {report.total_videos}",
        f"videos with misses:      {report.videos_with_missed_labels}",
        f"  with 1 truth label:    {report.missed_single_label}",
        f"  with 2-3 truth labels: {report.missed_two_to_three}",
        f"  with >=4 truth labels: {report.missed_four_plus}",
    ]
    return "\n".join(lines) + "\n"


def _csv_rows(lines: Iterable[str], what: str) -> Iterator[list[str]]:
    """csv.reader's rows, with its csv.Error (a bare carriage return, a field
    past csv.field_size_limit) raised as ValueError like every other format fault."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise ValueError(f"malformed {what} CSV: {exc}") from None


def read_predictions_csv(lines: Iterable[str]) -> list[tuple[str, list[tuple[int, float]]]]:
    """CSV with header video_id,label,confidence; rows grouped by first seen id."""
    reader = _csv_rows(lines, "predictions")
    header = next(reader, None)
    if header != ["video_id", "label", "confidence"]:
        raise ValueError(f"bad predictions header: {header}")
    by_video: dict[str, list[tuple[int, float]]] = {}
    for row in reader:
        if not row:
            continue
        video_id, label, conf = row
        by_video.setdefault(video_id, []).append((int(label), float(conf)))
    return list(by_video.items())


def read_truth_csv(lines: Iterable[str]) -> dict[str, set[int]]:
    """CSV with header video_id,label; one row per ground-truth pair."""
    reader = _csv_rows(lines, "truth")
    header = next(reader, None)
    if header != ["video_id", "label"]:
        raise ValueError(f"bad truth header: {header}")
    truth: dict[str, set[int]] = {}
    for row in reader:
        if not row:
            continue
        video_id, label = row
        truth.setdefault(video_id, set()).add(int(label))
    return truth


def write_predictions_csv(predictions: Predictions) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["video_id", "label", "confidence"])
    for video_id, items in predictions:
        for label, conf in items:
            writer.writerow([video_id, label, f"{conf:.10g}"])
    return out.getvalue()
