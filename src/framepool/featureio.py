"""Video feature datasets: record model, binary file format, synthetic generator.

File layout (everything little-endian):

    magic "VFR1" | u32 version=1 | u32 d_video | u32 d_audio | u32 vocab_size
    | u64 record_count

then, per record:

    u16 id_len | id bytes | u32 T
    | T * (d_video + d_audio) float32, row-major
    | u16 label_count | label_count * u32 ascending label ids

Each frame row stores the video features followed by the audio features for
one sampled second.  Features are float32 on disk; NaN/Inf anywhere is a hard
format error on both write and read, because a single non-finite value
silently poisons every downstream gradient check.

A read takes the file into one buffer, finds each record's byte offset in one
walk (a ``struct.unpack_from`` per id length, frame count and label count) and
then checks the whole file once, each rule in one vectorized pass: the frames
as payload rows gathered from a float32 view per byte alignment, label order
and range over one flat int64 label array.  It returns a ``Corpus`` of those columns,
whose records (frames are read-only views of the buffer) are built on first
item access; a corpus selection written in its own layout copies each
record's checked byte range.  Other records are written CHUNK_RECORDS at a
time, each chunk checked the same way (finiteness as float32, so a float64
value past the float32 range is refused, not written as inf) and written from
the very blocks the check built.  Either check reports the lowest failing
record with the message ``validate_record`` gives it.

The synthetic generator stands in for a real large-scale corpus: each label
owns a unit-norm prototype direction, a video's frames are the average of its
labels' prototypes plus spherical noise, and label frequencies follow a
power law over label ids (id 0 most frequent).  Labels are therefore linearly
recoverable, which gives end-to-end training a known-achievable target.  Each
video's label draws consume the generator's stream exactly as
``rng.choice(vocab, k, replace=False, p=weights)`` would, and give the same
labels, so a spec keeps its bytes; noise is drawn into one block and frames are
built CHUNK_RECORDS videos at a time, each a row slice of a float32 block.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import dataclasses
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAGIC = b"VFR1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIQ")
HEADER_SIZE = _HEADER.size  # 28 bytes
MAX_ID_BYTES = 0xFFFF
MAX_LABELS_PER_RECORD = 0xFFFF
CHUNK_RECORDS = 256  # records checked, written or generated per vectorized pass
_F4 = np.dtype("<f4")
_SCAN_FLOATS = 1 << 20  # float32 values a read checks for finiteness per pass


class DatasetFormatError(ValueError):
    """Malformed dataset bytes, or a record that violates the format."""


@dataclass(frozen=True)
class DatasetHeader:
    """Fixed-size prefix describing the feature layout of every record."""

    d_video: int
    d_audio: int
    vocab_size: int
    record_count: int

    @property
    def feature_dim(self) -> int:
        return self.d_video + self.d_audio

    def validate(self) -> None:
        if self.d_video < 1:
            raise DatasetFormatError(f"d_video must be >= 1, got {self.d_video}")
        if self.d_audio < 0:
            raise DatasetFormatError(f"d_audio must be >= 0, got {self.d_audio}")
        if self.vocab_size < 1:
            raise DatasetFormatError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.record_count < 0:
            raise DatasetFormatError(f"record_count must be >= 0, got {self.record_count}")


@dataclass
class VideoRecord:
    """One video: id, per-second feature rows, and its ascending label ids."""

    id: bytes
    frames: np.ndarray  # (T, d_video + d_audio) float32
    labels: np.ndarray  # (n_labels,) int64, strictly ascending


def validate_record(record: VideoRecord, header: DatasetHeader, index: int) -> None:
    """Check record ``index`` against the header; raise DatasetFormatError if
    inconsistent.  Reads and writes check a chunk of records at a time and call
    this only to word the error of the first record that fails."""
    where = f"record {index}"
    if len(record.id) == 0:
        raise DatasetFormatError(f"{where}: empty id")
    if len(record.id) > MAX_ID_BYTES:
        raise DatasetFormatError(f"{where}: id longer than {MAX_ID_BYTES} bytes")
    frames = record.frames
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise DatasetFormatError(f"{where}: frames must be a (T>=1, D) matrix, got shape {frames.shape}")
    if frames.shape[1] != header.feature_dim:
        raise DatasetFormatError(
            f"{where}: frame width {frames.shape[1]} != d_video+d_audio = {header.feature_dim}"
        )
    with np.errstate(over="ignore"):  # a value past the float32 range is written as inf
        if not np.isfinite(frames.astype(np.float32)).all():
            raise DatasetFormatError(f"{where}: non-finite feature value")
    labels = np.asarray(record.labels)
    if labels.size == 0:
        raise DatasetFormatError(f"{where}: empty label list")
    if labels.size > MAX_LABELS_PER_RECORD:
        raise DatasetFormatError(f"{where}: more than {MAX_LABELS_PER_RECORD} labels")
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise DatasetFormatError(
            f"{where}: label ids must be a 1-D integer array, got {labels.dtype} {labels.shape}"
        )
    if np.any(labels[1:] <= labels[:-1]):
        raise DatasetFormatError(f"{where}: labels must be strictly ascending")
    if labels[0] < 0 or labels[-1] >= header.vocab_size:
        raise DatasetFormatError(f"{where}: label id outside [0, {header.vocab_size})")


def _check_chunk(ids: list, frames: list, labels: list, header: DatasetHeader,
                 start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records numbered ``start, start + 1, ...``, given as columns, as one
    float32 frame block, one int64 label block and each record's label end in
    it.  Each rule runs once over the chunk; the lowest-numbered record that
    breaks one raises the error ``validate_record`` words for it."""
    width, bad = header.feature_dim, len(ids)
    for i, (video_id, rows, label_ids) in enumerate(zip(ids, frames, labels)):
        if not (0 < len(video_id) <= MAX_ID_BYTES and rows.ndim == 2 and rows.shape[0] >= 1
                and rows.shape[1] == width and 0 < label_ids.size <= MAX_LABELS_PER_RECORD
                and label_ids.ndim == 1 and label_ids.dtype.kind in "iu"):
            bad = i
            break
    # the rules below need the shapes above, so they run on the records before `bad`
    with np.errstate(over="ignore"):
        block = np.concatenate(frames[:bad] or [np.empty((0, width))], dtype="<f4",
                               casting="unsafe")
    finite = np.isfinite(block)
    if not finite.all():
        row_ends = np.cumsum([len(rows) for rows in frames[:bad]])
        bad = int(np.searchsorted(row_ends, np.argmin(finite.all(axis=1)), "right"))
    sizes = np.array([label_ids.size for label_ids in labels[:bad]], dtype=np.int64)
    ends = np.cumsum(sizes)
    flat = np.concatenate(labels[:bad] or [np.empty(0)], dtype=np.int64, casting="unsafe")
    bad = min(bad, _first_bad_labels(flat, ends, sizes, header.vocab_size))
    if bad < len(ids):
        validate_record(VideoRecord(ids[bad], frames[bad], labels[bad]), header, start + bad)
        raise AssertionError(f"record {start + bad} failed the chunk check only")
    return block, flat, ends


def _first_bad_labels(flat: np.ndarray, ends: np.ndarray, sizes: np.ndarray,
                      vocab_size: int) -> int:
    """The lowest record whose labels ``flat[ends - sizes:ends]`` (one or more) are
    not strictly ascending or leave [0, vocab_size), or len(ends)."""
    bad = len(ends)
    rising = flat[1:] > flat[:-1]
    rising[ends[:-1] - 1] = True  # no order is asked across a record boundary
    if not rising.all():
        bad = int(np.searchsorted(ends, np.argmin(rising) + 1, "right"))
    outside = (flat[ends - sizes] < 0) | (flat[ends - 1] >= vocab_size)
    if outside.any():
        bad = min(bad, int(np.argmax(outside)))
    return bad


def write_dataset(records: Sequence[VideoRecord], header: DatasetHeader, sink: BinaryIO) -> int:
    """Write a dataset to ``sink``; returns the number of bytes written.

    ``header.record_count`` must equal ``len(records)``.  A ``Corpus`` read
    from a file of the header's layout is written as its records' byte ranges,
    which its read checked.  Other records are checked a chunk at a time and
    written from the float32 frame and ``<u4`` label blocks that the check
    built.  Each chunk is one ``sink.write``.
    """
    header.validate()
    if header.record_count != len(records):
        raise DatasetFormatError(
            f"header.record_count = {header.record_count} but {len(records)} records given"
        )
    written = sink.write(
        _HEADER.pack(MAGIC, FORMAT_VERSION, header.d_video, header.d_audio,
                     header.vocab_size, header.record_count)
    )
    if (isinstance(records, Corpus)
            and dataclasses.replace(records.header, record_count=len(records)) == header):
        buf, offsets = memoryview(records.buf), records.offsets
        for start in range(0, len(records), CHUNK_RECORDS):
            index = records.index[start:start + CHUNK_RECORDS]
            written += sink.write(b"".join([buf[a:b] for a, b in zip(
                offsets[index].tolist(), offsets[index + 1].tolist())]))
        return written
    row_bytes = 4 * header.feature_dim
    for start in range(0, len(records), CHUNK_RECORDS):
        chunk = records[start:start + CHUNK_RECORDS]
        ids, frames = [r.id for r in chunk], [r.frames for r in chunk]
        block, flat, ends = _check_chunk(ids, frames, [np.asarray(r.labels) for r in chunk],
                                         header, start)
        frame_bytes = memoryview(block).cast("B")
        label_bytes = memoryview(flat.astype("<u4")).cast("B")
        parts, at, label_at = [], 0, 0
        for video_id, t, end in zip(ids, [len(rows) for rows in frames], ends.tolist()):
            parts += (struct.pack("<H", len(video_id)), video_id, struct.pack("<I", t),
                      frame_bytes[at:at + t * row_bytes], struct.pack("<H", end - label_at),
                      label_bytes[4 * label_at:4 * end])
            at, label_at = at + t * row_bytes, end
        written += sink.write(b"".join(parts))
    return written


class ByteReader:
    """Reads one in-memory buffer front to back; arrays are views of it.  A size
    claimed past its end raises ``error("truncated file while reading <what>")``."""

    def __init__(self, buf: bytes, error: Callable[[str], Exception]):
        self.buf, self.pos, self.error = buf, 0, error

    def left(self) -> int:
        return len(self.buf) - self.pos

    def _advance(self, n: int, what: str) -> int:
        at = self.pos  # the offset of the n bytes passed over
        if n > len(self.buf) - at:
            raise self.error(f"truncated file while reading {what}")
        self.pos = at + n
        return at

    def take(self, n: int, what: str) -> bytes:
        at = self._advance(n, what)
        return bytes(self.buf[at:at + n])

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt), what))

    def array(self, dtype, shape: int | tuple[int, ...], what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        return np.ndarray(shape, dtype, self.buf, self._advance(size * dtype.itemsize, what))


class Corpus(Sequence[VideoRecord]):
    """The records of one VFR file as columns over its buffer: record i is
    ``buf[offsets[i]:offsets[i + 1]]``, with ``frame_counts[i]`` frames from
    ``frames_at[i]`` and its labels ending at ``label_ends[i]`` in the flat
    int64 ``labels``.  A corpus is the selection ``index`` of those records.
    Items are VideoRecords whose frames are read-only views of the buffer,
    built for the whole file on first item access and shared by selections."""

    def __init__(self, header: DatasetHeader, buf: bytes, offsets: np.ndarray,
                 frame_counts: np.ndarray, label_counts: np.ndarray):
        self.header, self.buf, self.offsets = header, buf, offsets
        self.frame_counts, self.label_ends = frame_counts, np.cumsum(label_counts)
        labels_at = offsets[1:] - 4 * label_counts
        self.frames_at = labels_at - 2 - 4 * header.feature_dim * frame_counts
        at = np.repeat(labels_at - 4 * (self.label_ends - label_counts), label_counts)
        at += 4 * np.arange(len(at))  # each label's byte offset
        u4 = np.frombuffer(buf, np.uint8)[at[:, None] + np.arange(4)].view("<u4")
        self.labels = u4.ravel().astype(np.int64)
        self.labels.flags.writeable = False  # like the frames, so a corpus stays as read
        self.index, self._records = np.arange(len(frame_counts)), []

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        """The record at an integer ``key``; the selection at a slice or an index array."""
        if isinstance(key, (int, np.integer)):
            return self._built()[self.index[key]]
        out = copy.copy(self)
        out.index = self.index[key]
        return out

    def __iter__(self) -> Iterator[VideoRecord]:
        return map(self._built().__getitem__, self.index.tolist())

    def label_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The selected records' labels in one flat int64 array, and each one's count."""
        sizes = np.diff(self.label_ends, prepend=0)[self.index]
        at = np.repeat(self.label_ends[self.index] - np.cumsum(sizes), sizes)
        return self.labels[at + np.arange(len(at))], sizes

    def _built(self) -> list[VideoRecord]:
        if not self._records:
            buf, labels, width = self.buf, self.labels, self.header.feature_dim
            bounds = [0, *self.label_ends.tolist()]
            self._records += [
                VideoRecord(buf[offset + 2:at - 4], np.ndarray((t, width), _F4, buf, at),
                            labels[a:b])
                for offset, at, t, a, b in zip(
                    self.offsets[:-1].tolist(), self.frames_at.tolist(),
                    self.frame_counts.tolist(), bounds, bounds[1:])]
        return self._records


def _first_bad_record(corpus: Corpus) -> int:
    """The lowest record of a whole-file corpus that breaks a rule, or its
    length.  Each rule runs once over the file; the frames are checked as the
    payload rows of each byte alignment's records, gathered from a float32 view
    at that alignment _SCAN_FLOATS floats (at most _SCAN_FLOATS / 8 rows) a pass."""
    frames_at, width = corpus.frames_at, corpus.header.feature_dim
    sizes = np.diff(corpus.label_ends, prepend=0)
    empty = (frames_at - 6 == corpus.offsets[:-1]) | (sizes == 0)  # id or labels
    bad = int(np.argmax(empty)) if empty.any() else len(sizes)
    step = max(1, _SCAN_FLOATS // max(width, 8))  # payload rows per pass, and 3 indices each
    for align in range(4):
        owners = np.flatnonzero(frames_at[:bad] % 4 == align)
        counts = corpus.frame_counts[owners]
        row_ends = np.cumsum(counts)  # the class's payload rows, record by record
        at = (frames_at[owners] - align) // 4 - width * (row_ends - counts)  # + width * row
        floats = np.frombuffer(corpus.buf, _F4, (len(corpus.buf) - align) // 4, align)
        for first in range(0, int(row_ends[-1:].sum()), step):
            row = np.arange(first, min(first + step, int(row_ends[-1])))
            record = np.searchsorted(row_ends, row, "right")
            finite = np.isfinite(sliding_window_view(floats, width)[at[record] + width * row])
            if not finite.all():
                bad = min(bad, int(owners[record[np.argmin(finite.all(axis=1))]]))
                break
    ends = corpus.label_ends[:bad]  # the label rules need at least one label a record
    return min(bad, _first_bad_labels(corpus.labels[:ends[-1:].sum()], ends, sizes[:bad],
                                      corpus.header.vocab_size))


_U16, _U32 = struct.Struct("<H").unpack_from, struct.Struct("<I").unpack_from


def read_dataset(source: BinaryIO) -> tuple[DatasetHeader, Corpus]:
    """The header and records of ``source``, read to its end into one buffer.
    One walk finds each record's offset, frame count and label count, then one
    pass checks every record.  A record that breaks a rule is reported before
    a later one that is cut short, and trailing bytes are an error."""
    buf = source.read()
    if len(buf) < HEADER_SIZE:
        raise DatasetFormatError("truncated file while reading header")
    magic, version, *fields = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format version {version}")
    header = DatasetHeader(*fields)  # d_video, d_audio, vocab_size, record_count
    header.validate()
    size, row_bytes, at = len(buf), 4 * header.feature_dim, HEADER_SIZE
    offsets, frame_counts, label_counts = [at], [], []  # grown as the walk goes
    problem = None
    for index in range(header.record_count):
        if at + 2 > size:
            problem = "truncated file while reading id length"
            break
        at += 2 + _U16(buf, at)[0]
        if at + 4 > size:
            problem = f"truncated file while reading {'id' if at > size else 'frame count'}"
            break
        (t,) = _U32(buf, at)
        if t < 1:
            problem = "frame count must be >= 1"
            break
        at += 4 + t * row_bytes
        if at + 2 > size:
            problem = ("truncated file while reading "
                       + ("frame payload" if at > size else "label count"))
            break
        (n_labels,) = _U16(buf, at)
        at += 2 + 4 * n_labels
        if at > size:
            problem = "truncated file while reading labels"
            break
        offsets.append(at)
        frame_counts.append(t)
        label_counts.append(n_labels)
    corpus = Corpus(header, buf, *[np.array(column, np.int64)
                                   for column in (offsets, frame_counts, label_counts)])
    bad = _first_bad_record(corpus)
    if bad < len(corpus):
        validate_record(corpus[bad], header, bad)
        raise AssertionError(f"record {bad} failed the whole-file check only")
    if problem is not None:
        raise DatasetFormatError(f"record {index}: {problem}")
    if at < size:
        raise DatasetFormatError(f"{size - at} bytes after the last record")
    return header, corpus


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb"):
    """A file opened beside `path` that replaces it only once the block has
    completed, so a write that fails partway leaves the old file as it was."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, mode) as sink:
            yield sink
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def save_dataset(path: str, records: Sequence[VideoRecord], header: DatasetHeader) -> int:
    with atomic_write(path) as sink:
        return write_dataset(records, header, sink)


def load_dataset(path: str) -> tuple[DatasetHeader, Corpus]:
    with open(path, "rb") as source:
        return read_dataset(source)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic long-tail corpus generator.

    The same spec (seed included) always produces a byte-identical dataset.
    """

    num_videos: int
    vocab_size: int
    d_video: int = 32
    d_audio: int = 8
    t_min: int = 4
    t_max: int = 12
    labels_min: int = 1
    labels_max: int = 3
    imbalance_exponent: float = 1.5
    noise_scale: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.num_videos < 1:
            raise ValueError(f"num_videos must be >= 1, got {self.num_videos}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.d_video < 1:
            raise ValueError(f"d_video must be >= 1, got {self.d_video}")
        if self.d_audio < 0:
            raise ValueError(f"d_audio must be >= 0, got {self.d_audio}")
        if not 1 <= self.t_min <= self.t_max:
            raise ValueError(f"need 1 <= t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if not 1 <= self.labels_min <= self.labels_max:
            raise ValueError(
                f"need 1 <= labels_min <= labels_max, got [{self.labels_min}, {self.labels_max}]"
            )
        if self.labels_max > self.vocab_size:
            raise ValueError(
                f"labels_max = {self.labels_max} exceeds vocab_size = {self.vocab_size}"
            )
        if not self.imbalance_exponent > 0:
            raise ValueError(f"imbalance_exponent must be > 0, got {self.imbalance_exponent}")
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")

    @property
    def feature_dim(self) -> int:
        return self.d_video + self.d_audio

    def header(self) -> DatasetHeader:
        return DatasetHeader(d_video=self.d_video, d_audio=self.d_audio,
                             vocab_size=self.vocab_size, record_count=self.num_videos)


def label_weights(vocab_size: int, exponent: float) -> np.ndarray:
    """Normalized power-law sampling weights; label id 0 is the most frequent."""
    w = np.arange(1, vocab_size + 1, dtype=np.float64) ** (-exponent)
    return w / w.sum()


def _draw_prototypes(rng: np.random.Generator, vocab_size: int, dim: int) -> np.ndarray:
    protos = rng.standard_normal((vocab_size, dim))
    norms = np.linalg.norm(protos, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return protos / norms


def label_prototypes(spec: SyntheticSpec) -> np.ndarray:
    """The (vocab_size, feature_dim) unit-norm prototype matrix a spec commits to."""
    spec.validate()
    return _draw_prototypes(np.random.default_rng(spec.seed), spec.vocab_size, spec.feature_dim)


def _draw_labels(rng: np.random.Generator, cdf: list, weights: np.ndarray, k: int) -> list:
    """The ascending labels ``rng.choice(len(weights), k, replace=False,
    p=weights)`` draws, from the same stream: one bisect per draw on ``cdf``
    (``weights``' normalized cumulative sum), and numpy's own loop over the
    renormalized rest for the draws that repeat a label."""
    found = set(map(bisect.bisect_right, repeat(cdf, k), rng.random(k).tolist()))
    if len(found) < k and k > np.count_nonzero(weights):
        raise ValueError("Fewer non-zero entries in p than size")
    while len(found) < k:
        x = rng.random(k - len(found))
        p = weights.copy()
        p[list(found)] = 0
        rest = np.cumsum(p)
        rest /= rest[-1]
        found.update(rest.searchsorted(x, side="right").tolist())
    return sorted(found)


def _chunk_records(protos: np.ndarray, first: int, labels: list, noise: np.ndarray,
                   noise_scale: float, lengths: list) -> list[VideoRecord]:
    """Records ``first, first + 1, ...`` from their label lists and their
    noise draws, the rows of one block with each draw's T in ``lengths``: the
    mean of each record's prototypes plus the scaled noise, cast to float32 in
    one block whose row slices are the records' frames."""
    sizes = np.array([len(label_ids) for label_ids in labels])
    base = np.empty((len(labels), protos.shape[1]))
    # one (videos, k, D) mean per label count k sums in the order each video's own
    # (k, D) mean does: pairwise when D = 1 and k >= 8, one label at a time otherwise
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        base[rows] = protos[[labels[i] for i in rows.tolist()]].mean(axis=1)
    noise *= noise_scale
    noise += np.repeat(base, lengths, axis=0)
    frames = noise.astype(np.float32)
    flat = np.fromiter(chain.from_iterable(labels), np.int64, int(sizes.sum()))
    row_ends, label_ends = np.cumsum(lengths).tolist(), np.cumsum(sizes).tolist()
    return [VideoRecord(f"v{first + i:06d}".encode(), frames[end - t:end], flat[stop - k:stop])
            for i, (t, end, k, stop) in enumerate(zip(lengths, row_ends, sizes.tolist(),
                                                     label_ends))]


def generate_synthetic(spec: SyntheticSpec) -> list[VideoRecord]:
    """Generate the corpus described by ``spec``; pure function of its fields.

    Each video draws its label count, labels, T and noise from one stream in
    that order; records are built ``CHUNK_RECORDS`` at a time."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos = _draw_prototypes(rng, spec.vocab_size, spec.feature_dim)
    weights = label_weights(spec.vocab_size, spec.imbalance_exponent)
    cdf = np.cumsum(weights)
    cdf = (cdf / cdf[-1]).tolist()
    records: list[VideoRecord] = []
    labels, lengths = [], []  # the chunk drawn but not yet built
    block = np.empty((min(CHUNK_RECORDS, spec.num_videos) * spec.t_max, spec.feature_dim))
    at = 0  # rows of block drawn
    for v in range(spec.num_videos):
        k = int(rng.integers(spec.labels_min, spec.labels_max + 1))
        labels.append(_draw_labels(rng, cdf, weights, k))
        t = int(rng.integers(spec.t_min, spec.t_max + 1))
        rng.standard_normal(out=block[at:at + t])
        lengths.append(t)
        at += t
        if len(lengths) == CHUNK_RECORDS or v == spec.num_videos - 1:
            records += _chunk_records(protos, len(records), labels, block[:at],
                                      spec.noise_scale, lengths)
            labels, lengths, at = [], [], 0
    return records
