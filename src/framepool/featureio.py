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

The synthetic generator stands in for a real large-scale corpus: each label
owns a unit-norm prototype direction, a video's frames are the average of its
labels' prototypes plus spherical noise, and label frequencies follow a
power law over label ids (id 0 most frequent).  Labels are therefore linearly
recoverable, which gives end-to-end training a known-achievable target.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence

import numpy as np

MAGIC = b"VFR1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIQ")
HEADER_SIZE = _HEADER.size  # 28 bytes
MAX_ID_BYTES = 0xFFFF
MAX_LABELS_PER_RECORD = 0xFFFF


class DatasetFormatError(ValueError):
    """Malformed dataset bytes, or a record that violates the format."""


@dataclass(frozen=True)
class DatasetHeader:
    """Fixed-size prefix describing the feature layout of every record."""

    d_video: int
    d_audio: int
    vocab_size: int
    record_count: int
    version: int = FORMAT_VERSION

    @property
    def feature_dim(self) -> int:
        return self.d_video + self.d_audio

    def validate(self) -> None:
        if self.version != FORMAT_VERSION:
            raise DatasetFormatError(f"unsupported format version {self.version}")
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


def validate_record(record: VideoRecord, header: DatasetHeader, index: int | None = None) -> None:
    """Check one record against the header; raise DatasetFormatError if inconsistent."""
    where = f"record {index}" if index is not None else f"record id={record.id!r}"
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
    if not np.isfinite(frames).all():
        raise DatasetFormatError(f"{where}: non-finite feature value")
    labels = np.asarray(record.labels)
    if labels.size == 0:
        raise DatasetFormatError(f"{where}: empty label list")
    if labels.size > MAX_LABELS_PER_RECORD:
        raise DatasetFormatError(f"{where}: more than {MAX_LABELS_PER_RECORD} labels")
    if np.any(np.diff(labels) <= 0):
        raise DatasetFormatError(f"{where}: labels must be strictly ascending")
    if labels[0] < 0 or labels[-1] >= header.vocab_size:
        raise DatasetFormatError(f"{where}: label id outside [0, {header.vocab_size})")


def write_dataset(records: Sequence[VideoRecord], header: DatasetHeader, sink: BinaryIO) -> int:
    """Write a dataset to ``sink``; returns the number of bytes written.

    ``header.record_count`` must equal ``len(records)``.
    """
    header.validate()
    if header.record_count != len(records):
        raise DatasetFormatError(
            f"header.record_count = {header.record_count} but {len(records)} records given"
        )
    written = 0
    written += sink.write(
        _HEADER.pack(MAGIC, header.version, header.d_video, header.d_audio,
                     header.vocab_size, header.record_count)
    )
    for index, record in enumerate(records):
        validate_record(record, header, index)
        frames = np.ascontiguousarray(record.frames, dtype="<f4")
        labels = np.ascontiguousarray(np.asarray(record.labels), dtype="<u4")
        written += sink.write(struct.pack("<H", len(record.id)))
        written += sink.write(record.id)
        written += sink.write(struct.pack("<I", frames.shape[0]))
        written += sink.write(frames.tobytes())
        written += sink.write(struct.pack("<H", labels.size))
        written += sink.write(labels.tobytes())
    return written


def read_dataset(source: BinaryIO) -> tuple[DatasetHeader, Iterator[VideoRecord]]:
    """Read the header eagerly and return a lazy record iterator.

    Records are yielded in file order; the iterator reads each byte exactly
    once and never holds more than one record in memory.  Every size a record
    claims is checked against the bytes left in ``source`` (found once, by
    seeking to its end) before it is read, and bytes after the last record
    are an error.
    """
    start = source.tell()
    left = source.seek(0, os.SEEK_END) - start
    source.seek(start)

    def read_exact(n: int, what: str) -> bytes:
        nonlocal left
        left -= n
        if left < 0 or len(buf := source.read(n)) != n:
            raise DatasetFormatError(f"truncated file while reading {what}")
        return buf

    raw = read_exact(HEADER_SIZE, "header")
    magic, version, d_video, d_audio, vocab_size, record_count = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    header = DatasetHeader(d_video=d_video, d_audio=d_audio, vocab_size=vocab_size,
                           record_count=record_count, version=version)
    header.validate()

    def records() -> Iterator[VideoRecord]:
        dim = header.feature_dim
        for index in range(header.record_count):
            try:
                (id_len,) = struct.unpack("<H", read_exact(2, "id length"))
                video_id = read_exact(id_len, "id")
                (t,) = struct.unpack("<I", read_exact(4, "frame count"))
                if t < 1:
                    raise DatasetFormatError("frame count must be >= 1")
                payload = read_exact(t * dim * 4, "frame payload")
                frames = np.frombuffer(payload, dtype="<f4").reshape(t, dim)
                (n_labels,) = struct.unpack("<H", read_exact(2, "label count"))
                label_bytes = read_exact(n_labels * 4, "labels")
                labels = np.frombuffer(label_bytes, dtype="<u4").astype(np.int64)
            except DatasetFormatError as exc:
                raise DatasetFormatError(f"record {index}: {exc}") from None
            record = VideoRecord(id=video_id, frames=frames.copy(), labels=labels)
            validate_record(record, header, index)
            yield record
        if left:
            raise DatasetFormatError(f"{left} bytes after the last record")

    return header, records()


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


def load_dataset(path: str) -> tuple[DatasetHeader, list[VideoRecord]]:
    with open(path, "rb") as source:
        header, stream = read_dataset(source)
        return header, list(stream)


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


def generate_synthetic(spec: SyntheticSpec) -> list[VideoRecord]:
    """Generate the corpus described by ``spec``; pure function of its fields."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos = _draw_prototypes(rng, spec.vocab_size, spec.feature_dim)
    weights = label_weights(spec.vocab_size, spec.imbalance_exponent)
    records = []
    for v in range(spec.num_videos):
        k = int(rng.integers(spec.labels_min, spec.labels_max + 1))
        labels = np.sort(rng.choice(spec.vocab_size, size=k, replace=False, p=weights))
        t = int(rng.integers(spec.t_min, spec.t_max + 1))
        base = protos[labels].mean(axis=0)
        noise = rng.standard_normal((t, spec.feature_dim))
        frames = (base[None, :] + spec.noise_scale * noise).astype(np.float32)
        records.append(VideoRecord(id=f"v{v:06d}".encode(), frames=frames,
                                   labels=labels.astype(np.int64)))
    return records
