"""Label-frequency analysis and the two rebalanced training-set recipes.

Long-tail multi-label corpora concentrate most label instances in a small
head of frequent labels.  This module measures that shape exactly (integer
counting, no sampling) and builds two modified training sets from it:

  * tail subset: only the videos carrying at least one rare label, where
    "rare" means frequency rank above a threshold (rank 0 = most frequent);
  * hard subset: videos with exactly one label or four-plus labels are
    duplicated m times, since those cardinalities dominate evaluation misses.

Ranking ties are broken by ascending label id so every derived artifact is
deterministic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .featureio import Corpus, VideoRecord


@dataclass(frozen=True)
class LabelStats:
    counts: np.ndarray  # (L,) occurrences per label id
    order: np.ndarray  # (L,) label ids sorted by descending count, ties by id
    coverage: np.ndarray  # (L,) cumulative fraction covered by top-k labels

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def ranks(self) -> np.ndarray:
        """rank[label] = frequency rank, 0 for the most frequent label."""
        ranks = np.empty_like(self.order)
        ranks[self.order] = np.arange(self.order.size)
        return ranks


def _label_columns(records: Sequence[VideoRecord]) -> tuple[np.ndarray, np.ndarray]:
    """All labels of ``records`` in one flat array, and each record's label count."""
    if isinstance(records, Corpus):
        return records.label_columns()
    sizes = np.array([record.labels.size for record in records], dtype=np.int64)
    return np.concatenate([record.labels for record in records] or [np.empty(0, int)]), sizes


def _select(records: Sequence[VideoRecord], index: np.ndarray) -> Sequence[VideoRecord]:
    if isinstance(records, Corpus):
        return records[index]
    return [records[i] for i in index.tolist()]


def label_frequency_stats(records: Sequence[VideoRecord], vocab_size: int) -> LabelStats:
    """Exact per-label counts and the cumulative coverage curve."""
    if len(records) == 0:
        raise ValueError("empty dataset")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    labels, sizes = _label_columns(records)
    if not sizes.all():
        raise ValueError(f"record {np.argmin(sizes)} has no labels")
    if labels.min() < 0 or labels.max() >= vocab_size:
        raise ValueError(f"label id outside [0, {vocab_size})")
    counts = np.bincount(labels, minlength=vocab_size)
    order = np.lexsort((np.arange(vocab_size), -counts))
    coverage = np.cumsum(counts[order]) / counts.sum()
    return LabelStats(counts=counts, order=order, coverage=coverage)


def build_tail_subset(records: Sequence[VideoRecord], rank_threshold: int,
                      vocab_size: int) -> Sequence[VideoRecord]:
    """Videos having at least one label of frequency rank > rank_threshold."""
    if not 0 <= rank_threshold < vocab_size:
        raise ValueError(
            f"rank_threshold must be in [0, {vocab_size}), got {rank_threshold}"
        )
    ranks = label_frequency_stats(records, vocab_size).ranks  # rejects a record with no labels
    labels, sizes = _label_columns(records)
    worst = np.maximum.reduceat(ranks[labels], np.cumsum(sizes) - sizes)  # rarest label
    return _select(records, np.flatnonzero(worst > rank_threshold))


def _hard(label_count):
    """Cardinality classes that dominate evaluation misses: 1 or >= 4 labels."""
    return (label_count == 1) | (label_count >= 4)


def is_hard(record: VideoRecord) -> bool:
    return _hard(record.labels.size)


def build_hard_subset(records: Sequence[VideoRecord],
                      multiplier: int = 3) -> Sequence[VideoRecord]:
    """Hard videos appear multiplier times (adjacent), the rest once."""
    if multiplier < 1:
        raise ValueError(f"multiplier must be >= 1, got {multiplier}")
    counts = np.where(_hard(_label_columns(records)[1]), multiplier, 1)
    return _select(records, np.repeat(np.arange(len(records)), counts))


def stats_csv(stats: LabelStats) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "label", "count", "cumulative_coverage"])
    for rank, label in enumerate(stats.order):
        writer.writerow([rank, int(label), int(stats.counts[label]),
                         f"{stats.coverage[rank]:.10g}"])
    return out.getvalue()
