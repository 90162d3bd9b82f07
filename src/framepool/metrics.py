"""Global average precision over pooled per-video top-n predictions.

Every video contributes its n most confident predicted labels to one global
pool; the pool is sorted by descending confidence, and each correct prediction
at position i contributes precision_at_i / P, where P is the total number of
ground-truth (video, label) pairs over all evaluated videos.  P counts pairs
the top-n cap may have dropped, so a video with more truth labels than n caps
the reachable score below 1.

The ranking core is flat arrays.  A Ranked holds each video's labels and
confidences, best first, videos in input order; a Truth marks which of those
entries are truth labels and counts each video's truth labels.  rank_probs
builds them from (ids, probs, targets) chunks, a probability matrix and its
0/1 truth indicator, one chunk at a time so no caller holds the whole matrix
or its argsort.  rank_pairs is the adapter for (label, confidence) pairs with
a truth mapping (CSV input); it also rejects a video with no truth entry or a
duplicate label.  Both reject a non-finite confidence, naming the video.  gap,
gap_bruteforce and miss_analysis keep each video's first n entries and take
pairs too, ranking them through rank_pairs.  A Ranked iterates as (video_id,
[(label, confidence), ...]).  write_predictions_csv writes a Ranked 1,024
videos at a time as padded uint8 columns cut out by one mask: each id quoted
once as csv quotes it (also where it holds a carriage return), each label from
a table, and each confidence c in [1e-13, 1) as format(c, ".10g") would, from
e = floor(log10(c)) (fixed by one when the digits leave [1e9, 1e10)) and the
digits rint(y), y = c * 10**(9 - e) rounded once as the power is exact.  y is
within 2**-20 of exact, so the digits are proven unless y is within 2**-18 of
a half or below 1e9 - 0.05; those, and any c outside [1e-13, 1), go to format().

Ties are broken deterministically everywhere: within a video by ascending
label id, so a tie across the n-th place keeps the lower label id; in the
global pool by video input order, then label id (a stable sort of the
entries, which are in that order, found by an unstable sort and one fix-up
sort within ties).  Two runs of the same evaluation are therefore
bit-identical.  For pairs the within-video order is a lexsort.
For probabilities it is what a stable argsort of -probs keeps, found from a
partition: the n best labels of a row, sorted by label id and then stably by
confidence.  That set is unique unless a confidence equal to the n-th one
lies outside it, a tie across the n-th place; such rows alone are sorted in
full.

gap_bruteforce recounts precision at every rank from scratch over the same
pool, O(M^2); it exists only to cross-check gap and must agree to 1e-12.
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


@dataclass(frozen=True)
class Ranked:
    """Per video, in input order, its kept labels and confidences, best first:
    video v's entries are labels[starts[v]:starts[v + 1]] and the same confs."""
    ids: list
    labels: np.ndarray  # (M,) int64
    confs: np.ndarray  # (M,) float64
    starts: np.ndarray  # (V + 1,) int64

    def __iter__(self) -> Iterator[tuple[object, list[tuple[int, float]]]]:
        labels, confs, starts = self.labels.tolist(), self.confs.tolist(), self.starts.tolist()
        for video_id, a, b in zip(self.ids, starts, starts[1:]):
            yield video_id, list(zip(labels[a:b], confs[a:b]))


@dataclass(frozen=True)
class Truth:
    """The truth as a Ranked sees it: hits[i] says whether entry i's label is
    a truth label of its video; positives[v] is video v's truth-label count."""
    hits: np.ndarray  # (M,) bool
    positives: np.ndarray  # (V,) int64


def _top_labels(probs: np.ndarray, n: int) -> np.ndarray:
    """np.argsort(-probs, axis=1, kind="stable")[:, :n], from a partition."""
    if n >= probs.shape[1]:
        return np.argsort(-probs, axis=1, kind="stable")
    kept = np.sort(np.argpartition(-probs, n - 1, axis=1)[:, :n], axis=1)
    top = np.take_along_axis(kept, np.argsort(-np.take_along_axis(probs, kept, axis=1),
                                              axis=1, kind="stable"), axis=1)
    # every label outside the partition scores no better than the n-th; one
    # that scores the same makes the kept set depend on the partition
    nth = np.take_along_axis(probs, top[:, -1:], axis=1)
    straddle = np.flatnonzero(np.count_nonzero(probs >= nth, axis=1) > n)
    top[straddle] = np.argsort(-probs[straddle], axis=1, kind="stable")[:, :n]
    return top


def rank_probs(chunks: Iterable[tuple[Sequence, np.ndarray, np.ndarray]],
               n: int) -> tuple[Ranked, Truth]:
    """Each video's n most probable labels, from (ids, probs, targets) chunks
    whose probs and 0/1 targets are (B, L): a stable argsort of -probs."""
    GapConfig(n).validate()
    ids: list = []
    labels, confs, hits, positives = [], [], [], []
    for chunk_ids, probs, targets in chunks:
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            raise ValueError(f"video {chunk_ids[int(np.argmin(finite))]!r}: "
                             "non-finite confidence")
        top = _top_labels(probs, n)
        ids.extend(chunk_ids)
        labels.append(top.ravel())
        confs.append(np.take_along_axis(probs, top, axis=1).ravel())
        hits.append(np.take_along_axis(targets, top, axis=1).ravel() != 0)
        positives.append(np.count_nonzero(targets, axis=1))
    if not ids:
        raise ValueError("no videos to rank")
    return (Ranked(ids, np.concatenate(labels), np.concatenate(confs),
                   np.arange(len(ids) + 1) * top.shape[1]),
            Truth(np.concatenate(hits), np.concatenate(positives)))


def rank_pairs(predictions: Predictions, truth: Mapping) -> tuple[Ranked, Truth]:
    """The adapter for (label, confidence) pairs and a video_id -> labels
    mapping; every video needs a truth entry and distinct labels."""
    ids, counts, positives, labels, confs, hits = [], [], [], [], [], []
    for video_id, items in predictions:
        if video_id not in truth:
            raise ValueError(f"no truth entry for video {video_id!r}")
        truth_set = set(truth[video_id])
        video_labels = [label for label, _ in items]
        if len(set(video_labels)) != len(video_labels):
            raise ValueError(f"video {video_id!r}: duplicate predicted labels")
        ids.append(video_id)
        counts.append(len(items))
        positives.append(len(truth_set))
        labels += video_labels
        confs += [conf for _, conf in items]
        hits += [label in truth_set for label in video_labels]
    video = np.repeat(np.arange(len(ids)), counts)
    confs = np.array(confs, dtype=np.float64)
    finite = np.isfinite(confs)
    if not finite.all():
        raise ValueError(f"video {ids[video[np.argmin(finite)]]!r}: non-finite confidence")
    try:
        labels = np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ValueError("predicted label outside the int64 range") from None
    order = np.lexsort((labels, -confs, video))
    return (Ranked(ids, labels[order], confs[order], np.cumsum([0] + counts)),
            Truth(np.array(hits, dtype=bool)[order], np.array(positives, dtype=np.int64)))


def _top_n(predictions, truth, config: GapConfig):
    """Each video's first n entries as (video index, confidence, hit) arrays,
    plus the per-video truth counts; pairs are ranked through rank_pairs."""
    config.validate()
    if not isinstance(predictions, Ranked):
        predictions, truth = rank_pairs(predictions, truth)
    starts = predictions.starts
    video = np.repeat(np.arange(len(predictions.ids)), np.diff(starts))
    keep = np.arange(len(video)) - starts[video] < config.n
    return video[keep], predictions.confs[keep], truth.hits[keep], truth.positives


def _pool_order(confs: np.ndarray) -> np.ndarray:
    """np.argsort(-confs, kind="stable"): an unstable sort, then each run of
    equal confidences put back in entry order by one sort of run * M + entry."""
    order = np.argsort(-confs)
    ranked = confs[order]
    run = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return np.sort(run * len(confs) + order) % len(confs)


def _pooled_hits(predictions, truth, config: GapConfig) -> tuple[np.ndarray, int]:
    """The pool's hits in pool order (descending confidence, then video
    order, then label id: a stable sort of entries in that order), and P."""
    _, confs, hits, positives = _top_n(predictions, truth, config)
    total_truth = int(positives.sum())
    if total_truth == 0:
        raise ValueError("no ground-truth pairs among evaluated videos (P = 0)")
    return hits[_pool_order(confs)], total_truth


def gap(predictions: Ranked | Predictions, truth: Truth | Mapping,
        config: GapConfig = GapConfig()) -> float:
    """Precision at each hit, summed in pool order, over P.  cumsum adds in
    sequence, as a walk over the pool would (np.sum adds pairwise)."""
    hits, total_truth = _pooled_hits(predictions, truth, config)
    ranks = np.flatnonzero(hits) + 1
    if len(ranks) == 0:
        return 0.0
    return float(np.cumsum(np.arange(1, len(ranks) + 1) / ranks)[-1]) / total_truth


def gap_bruteforce(predictions: Ranked | Predictions, truth: Truth | Mapping,
                   config: GapConfig = GapConfig()) -> float:
    """Same contract as gap; precision at each rank recounted from scratch."""
    hits, total_truth = _pooled_hits(predictions, truth, config)
    hits = hits.tolist()
    score = 0.0
    for i in range(1, len(hits) + 1):
        if hits[i - 1]:
            precision = sum(hits[:i]) / i
            score += precision / total_truth
    return score


def miss_analysis(predictions: Ranked | Predictions, truth: Truth | Mapping,
                  config: GapConfig = GapConfig()) -> MissReport:
    """A video is missed iff its top-n holds fewer hits than it has truth labels."""
    video, _, hits, positives = _top_n(predictions, truth, config)
    found = np.bincount(video[hits], minlength=len(positives))
    missed = positives[found < positives]  # the missed videos' truth counts
    report = MissReport(total_videos=len(positives), videos_with_missed_labels=len(missed),
                        missed_single_label=int(np.count_nonzero(missed <= 1)),
                        missed_two_to_three=int(np.count_nonzero((missed >= 2) & (missed <= 3))),
                        missed_four_plus=int(np.count_nonzero(missed >= 4)))
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


def _data_rows(lines: Iterable[str], what: str, header: list[str]) -> Iterator[tuple[int, list]]:
    """The non-empty rows after ``header``, each with its row number (the
    header is row 1), checked to hold one field per header column."""
    reader = _csv_rows(lines, what)
    first = next(reader, None)
    if first != header:
        raise ValueError(f"bad {what} header: {first}")
    for number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{what} row {number}: expected {len(header)} fields, got {len(row)}")
        yield number, row


def _field(kind: type, text: str, where: str, name: str):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {name} {text!r} is not {noun}") from None


def read_predictions_csv(lines: Iterable[str]) -> list[tuple[str, list[tuple[int, float]]]]:
    """CSV with header video_id,label,confidence; rows grouped by first seen id."""
    by_video: dict[str, list[tuple[int, float]]] = {}
    for number, (video_id, label, conf) in _data_rows(lines, "predictions",
                                                      ["video_id", "label", "confidence"]):
        where = f"predictions row {number}"
        by_video.setdefault(video_id, []).append(
            (_field(int, label, where, "label"), _field(float, conf, where, "confidence")))
    return list(by_video.items())


def read_truth_csv(lines: Iterable[str]) -> dict[str, set[int]]:
    """CSV with header video_id,label; one row per ground-truth pair."""
    truth: dict[str, set[int]] = {}
    for number, (video_id, label) in _data_rows(lines, "truth", ["video_id", "label"]):
        truth.setdefault(video_id, set()).add(_field(int, label, f"truth row {number}", "label"))
    return truth


class _Echo:
    """A csv.writer sink whose writerow returns the row it formatted."""

    def write(self, text: str) -> str:
        return text


# ids are quoted by a writer whose rows end in "\r\n", so that an id holding a
# bare "\r", where csv.reader would end the row, is quoted too
_quote_row = csv.writer(_Echo(), lineterminator="\r\n").writerow
_CSV_BLOCK = 1024  # videos encoded per block
_BLOCK_CELLS = 1 << 22  # a block of wider ids is halved until its rows fit
_LABEL_TABLE = 1 << 16  # label texts tabled by offset from the least label
_POW10 = np.array([float(10 ** k) for k in range(23)])  # each exact in float64
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).reshape(-1, 4)  # the four zero-padded digits of 0..9999
_HEAD3 = np.insert(_DIGITS4[:100, 2:], 1, ord("."), axis=1)  # d.d of 10..99
_ZEROS4 = np.argmax(np.c_[_DIGITS4[:, ::-1] != 48, np.ones(10 ** 4, bool)], 1)  # trailing zeros
# a confidence's 21 columns, by exponent e in [-13, -1]: "0.000", d.d, 8 digits,
# "e-XX" and "\n"; which are kept, by e and the significant digits s in [1, 10]
_CONF_TEXT = np.frombuffer(b"".join(b"0.000%11se-%02d\n" % (b"", k) for k in range(13, 0, -1)),
                           np.uint8).reshape(13, 21)
_CONF_KEEP = np.array([[k < (0 if e < -4 else 1 - e) for k in range(5)]
                       + [True, e < -4 and s > 1] + [k < s for k in range(1, 10)]
                       + [e < -4] * 4 + [True] for e in range(-13, 0) for s in range(1, 11)])


def _padded(texts: list[bytes], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Byte strings as the rows of a zero-padded uint8 matrix, and its mask."""
    lens = np.fromiter(map(len, texts), np.intp, len(texts))
    cols = np.zeros((len(texts), int(lens.max(initial=width))), np.uint8)
    mask = np.arange(cols.shape[1]) < lens[:, None]
    cols[mask] = np.frombuffer(b"".join(texts), np.uint8)
    return cols, mask


def _conf_columns(confs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f"{c:.10g}\n" for each confidence, as 21 uint8 columns and their mask."""
    fast = (confs >= 1e-13) & (confs < 1.0)
    c = np.where(fast, confs, 0.5)
    e = np.clip(np.floor(np.log10(c)), -13, -1).astype(np.intp)
    d = np.rint(c * _POW10[9 - e])
    e = np.clip(e + (d >= 1e10) - (d < 1e9), -13, -1)  # log10 or the rounding was one off
    y = c * _POW10[9 - e]  # within 2**-20 of the exact c * 10**(9 - e)
    ok = (fast & (y < 1e10 - 0.5) & (y - 1e9 > 2.0 ** -18 - 0.05)
          & (np.abs(y - np.floor(y) - 0.5) > 2.0 ** -18))
    n = np.rint(np.where(ok, y, 1e9)).astype(np.int64)
    hi, mid, lo = n // 10 ** 8, n // 10 ** 4 % 10 ** 4, n % 10 ** 4  # 2, 4 and 4 digits
    sig = 10 - _ZEROS4[lo] - (lo == 0) * (_ZEROS4[mid] + (mid == 0) * _ZEROS4[hi])
    cols = np.take(_CONF_TEXT, e + 13, axis=0)
    cols[:, 5:8] = np.take(_HEAD3, hi, axis=0)
    cols[:, 8:12] = np.take(_DIGITS4, mid, axis=0)
    cols[:, 12:16] = np.take(_DIGITS4, lo, axis=0)
    mask = np.take(_CONF_KEEP, (e + 13) * 10 + sig - 1, axis=0)
    slow = np.flatnonzero(~ok)
    cols[slow, :20], mask[slow, :20] = _padded(
        [format(c, ".10g").encode() for c in confs[slow].tolist()], 20)
    return cols, mask


def _label_columns(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each entry's row in a table of "label," texts, and the padded table and its
    mask; by offset where it can, as np.unique's sort took 6 of 44 ms on score_cli."""
    low, high = int(labels.min(initial=0)), int(labels.max(initial=0))
    values, which = ((range(low, high + 1), labels - low) if high - low < _LABEL_TABLE
                     else np.unique(labels, return_inverse=True))
    return (which, *_padded([b"%d," % v for v in values]))


def _block_rows(ranked: Ranked, labels: tuple, a: int, b: int) -> str:
    """The rows of videos a..b-1, cut as UTF-8 from padded columns by one mask."""
    pre_cols, pre_mask = _padded([_quote_row((video_id, ""))[:-2].encode("utf-8", "surrogatepass")
                                  for video_id in ranked.ids[a:b]])
    lo, hi = int(ranked.starts[a]), int(ranked.starts[b])
    which, label_cols, label_mask = labels
    if (hi - lo) * (pre_cols.shape[1] + label_cols.shape[1] + 21) > _BLOCK_CELLS and b - a > 1:
        mid = (a + b) // 2
        return _block_rows(ranked, labels, a, mid) + _block_rows(ranked, labels, mid, b)
    video, entry = np.repeat(np.arange(b - a), np.diff(ranked.starts[a:b + 1])), which[lo:hi]
    conf_cols, conf_mask = _conf_columns(ranked.confs[lo:hi])
    rows = np.concatenate((np.take(pre_cols, video, axis=0),
                           np.take(label_cols, entry, axis=0), conf_cols), axis=1)
    keep = np.concatenate((np.take(pre_mask, video, axis=0),
                           np.take(label_mask, entry, axis=0), conf_mask), axis=1)
    return rows[keep].tobytes().decode("utf-8", "surrogatepass")


def write_predictions_csv(ranked: Ranked) -> str:
    """video_id,label,confidence rows, each video's entries best first: the
    bytes a csv.writer gives for (video_id, label, f"{conf:.10g}") rows, with
    an id holding a carriage return quoted as well."""
    labels = _label_columns(ranked.labels)
    return "".join(["video_id,label,confidence\n"] + [
        _block_rows(ranked, labels, a, min(a + _CSV_BLOCK, len(ranked.ids)))
        for a in range(0, len(ranked.ids), _CSV_BLOCK)])
