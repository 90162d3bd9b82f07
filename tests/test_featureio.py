import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.featureio import (
    HEADER_SIZE,
    DatasetFormatError,
    DatasetHeader,
    SyntheticSpec,
    VideoRecord,
    atomic_write,
    generate_synthetic,
    label_prototypes,
    read_dataset,
    save_dataset,
    write_dataset,
)


def roundtrip(records, header):
    sink = io.BytesIO()
    write_dataset(records, header, sink)
    sink.seek(0)
    got_header, stream = read_dataset(sink)
    return got_header, list(stream)


def make_record(rng, header, ident):
    t = int(rng.integers(1, 5))
    frames = rng.standard_normal((t, header.feature_dim)).astype(np.float32)
    n = int(rng.integers(1, min(4, header.vocab_size) + 1))
    labels = np.sort(rng.choice(header.vocab_size, size=n, replace=False)).astype(np.int64)
    return VideoRecord(id=ident, frames=frames, labels=labels)


def test_empty_dataset_is_header_only():
    header = DatasetHeader(d_video=4, d_audio=2, vocab_size=10, record_count=0)
    sink = io.BytesIO()
    n = write_dataset([], header, sink)
    assert n == HEADER_SIZE == 28
    assert len(sink.getvalue()) == 28
    got, records = roundtrip([], header)
    assert got == header
    assert records == []


def test_single_record_roundtrip():
    header = DatasetHeader(d_video=4, d_audio=2, vocab_size=10, record_count=1)
    rec = VideoRecord(id=b"a", frames=np.arange(6, dtype=np.float32).reshape(1, 6),
                      labels=np.array([0], dtype=np.int64))
    _, got = roundtrip([rec], header)
    assert len(got) == 1
    assert got[0].id == b"a"
    assert np.array_equal(got[0].frames, rec.frames)
    assert np.array_equal(got[0].labels, rec.labels)


def test_synthetic_thousand_record_roundtrip_bit_exact():
    spec = SyntheticSpec(num_videos=1000, vocab_size=30, d_video=8, d_audio=3, seed=11)
    records = generate_synthetic(spec)
    _, got = roundtrip(records, spec.header())
    assert len(got) == 1000
    for a, b in zip(records, got):
        assert a.id == b.id
        assert a.frames.tobytes() == b.frames.tobytes()
        assert np.array_equal(a.labels, b.labels)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(0, 3), st.integers(1, 12))
def test_roundtrip_property(seed, d_video, d_audio, vocab_size):
    rng = np.random.default_rng(seed)
    header = DatasetHeader(d_video=d_video, d_audio=d_audio, vocab_size=vocab_size,
                           record_count=int(rng.integers(0, 5)))
    records = [make_record(rng, header, f"id{i}".encode()) for i in range(header.record_count)]
    got_header, got = roundtrip(records, header)
    assert got_header == header
    assert len(got) == len(records)
    for a, b in zip(records, got):
        assert a.id == b.id
        assert a.frames.tobytes() == b.frames.tobytes()
        assert np.array_equal(a.labels, b.labels)


def test_streaming_reads_each_byte_once():
    spec = SyntheticSpec(num_videos=7, vocab_size=5, d_video=3, d_audio=1, seed=2)
    records = generate_synthetic(spec)
    sink = io.BytesIO()
    total = write_dataset(records, spec.header(), sink)
    sink.seek(0)
    _, stream = read_dataset(sink)
    count = sum(1 for _ in stream)
    assert count == 7
    assert sink.tell() == total
    assert sink.read() == b""


def test_bad_magic_rejected():
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=1, record_count=0)
    sink = io.BytesIO()
    write_dataset([], header, sink)
    blob = bytearray(sink.getvalue())
    blob[:4] = b"XXXX"
    with pytest.raises(DatasetFormatError, match="magic"):
        read_dataset(io.BytesIO(bytes(blob)))


def test_truncation_error_names_record_index():
    header = DatasetHeader(d_video=2, d_audio=0, vocab_size=4, record_count=2)
    rng = np.random.default_rng(0)
    records = [make_record(rng, header, b"first"), make_record(rng, header, b"second")]
    sink = io.BytesIO()
    write_dataset(records, header, sink)
    blob = sink.getvalue()
    got_header, stream = read_dataset(io.BytesIO(blob[:-3]))
    next(stream)
    with pytest.raises(DatasetFormatError, match="record 1"):
        list(stream)


def test_nonfinite_feature_rejected_on_write_and_read():
    header = DatasetHeader(d_video=2, d_audio=0, vocab_size=4, record_count=1)
    bad = VideoRecord(id=b"x", frames=np.array([[1.0, np.nan]], dtype=np.float32),
                      labels=np.array([0], dtype=np.int64))
    with pytest.raises(DatasetFormatError, match="non-finite"):
        write_dataset([bad], header, io.BytesIO())
    # Hand-assemble the same record so the reader is exercised too.
    body = io.BytesIO()
    good = VideoRecord(id=b"x", frames=np.array([[1.0, 2.0]], dtype=np.float32),
                       labels=np.array([0], dtype=np.int64))
    write_dataset([good], header, body)
    blob = bytearray(body.getvalue())
    payload_at = HEADER_SIZE + 2 + 1 + 4  # id_len, id, T
    blob[payload_at + 4:payload_at + 8] = struct.pack("<f", np.nan)
    with pytest.raises(DatasetFormatError, match="non-finite"):
        _, stream = read_dataset(io.BytesIO(bytes(blob)))
        list(stream)


def test_failed_dataset_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    rng = np.random.default_rng(3)
    header = DatasetHeader(d_video=3, d_audio=1, vocab_size=5, record_count=20)
    records = [make_record(rng, header, f"v{i}".encode()) for i in range(20)]
    path = tmp_path / "data.vfr"
    save_dataset(str(path), records, header)
    old = path.read_bytes()
    # the last record is rejected after the first 19 have been written
    records[-1] = VideoRecord(id=b"bad", frames=np.full((2, 4), np.nan, dtype=np.float32),
                              labels=np.array([0]))
    with pytest.raises(DatasetFormatError, match="record 19: non-finite"):
        save_dataset(str(path), records, header)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["data.vfr"]


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_write(str(path), "w") as sink:
            sink.write("new, half written")
            sink.flush()
            raise RuntimeError("disk full")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with atomic_write(str(path), "w") as sink:
        sink.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_label_out_of_vocab_rejected():
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=3, record_count=1)
    bad = VideoRecord(id=b"x", frames=np.ones((1, 1), dtype=np.float32),
                      labels=np.array([3], dtype=np.int64))
    with pytest.raises(DatasetFormatError, match="label"):
        write_dataset([bad], header, io.BytesIO())


def test_descending_labels_rejected():
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=5, record_count=1)
    bad = VideoRecord(id=b"x", frames=np.ones((1, 1), dtype=np.float32),
                      labels=np.array([2, 1], dtype=np.int64))
    with pytest.raises(DatasetFormatError, match="ascending"):
        write_dataset([bad], header, io.BytesIO())


def test_zero_noise_single_label_frames_equal_prototypes():
    spec = SyntheticSpec(num_videos=12, vocab_size=6, d_video=5, d_audio=2,
                         t_min=1, t_max=1, labels_min=1, labels_max=1,
                         noise_scale=0.0, seed=3)
    protos = label_prototypes(spec).astype(np.float32)
    for rec in generate_synthetic(spec):
        assert rec.frames.shape == (1, 7)
        assert np.array_equal(rec.frames[0], protos[rec.labels[0]])


def test_synthetic_determinism():
    spec = SyntheticSpec(num_videos=40, vocab_size=9, seed=21)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for x, y in zip(a, b):
        assert x.id == y.id
        assert x.frames.tobytes() == y.frames.tobytes()
        assert np.array_equal(x.labels, y.labels)


def test_synthetic_label_lists_valid():
    spec = SyntheticSpec(num_videos=200, vocab_size=15, labels_min=1, labels_max=4, seed=5)
    for rec in generate_synthetic(spec):
        assert rec.labels.size >= 1
        assert np.all(np.diff(rec.labels) > 0)
        assert rec.labels[0] >= 0 and rec.labels[-1] < 15


def test_long_tail_top_quintile_coverage():
    # Head-heavy by construction: top 20% of labels should carry most instances.
    spec = SyntheticSpec(num_videos=10_000, vocab_size=50, imbalance_exponent=1.5, seed=0)
    counts = np.zeros(50, dtype=np.int64)
    for rec in generate_synthetic(spec):
        counts[rec.labels] += 1
    top = np.sort(counts)[::-1][:10].sum()
    assert top / counts.sum() >= 0.75


def test_infeasible_label_range_rejected():
    spec = SyntheticSpec(num_videos=1, vocab_size=2, labels_min=1, labels_max=3)
    with pytest.raises(ValueError, match="labels_max"):
        generate_synthetic(spec)


def test_bytes_after_last_record_rejected():
    spec = SyntheticSpec(num_videos=3, vocab_size=5, d_video=3, d_audio=1, seed=2)
    sink = io.BytesIO()
    write_dataset(generate_synthetic(spec), spec.header(), sink)
    _, stream = read_dataset(io.BytesIO(sink.getvalue() + b"junk"))
    with pytest.raises(DatasetFormatError, match="4 bytes after the last record"):
        list(stream)


def _fuzz_blob() -> bytes:
    spec = SyntheticSpec(num_videos=3, vocab_size=6, d_video=2, d_audio=1, t_min=1, t_max=3,
                         labels_min=1, labels_max=3, seed=4)
    sink = io.BytesIO()
    write_dataset(generate_synthetic(spec), spec.header(), sink)
    return sink.getvalue()


FUZZ_BLOB = _fuzz_blob()

_mutations = st.one_of(
    st.tuples(st.just("edit"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.binary(min_size=1, max_size=8)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_mutations, min_size=1, max_size=3))
def test_mutated_file_is_rejected_or_reencodes_to_the_same_bytes(mutations):
    blob = bytearray(FUZZ_BLOB)
    for kind, at, *arg in mutations:
        at %= len(blob) + 1
        if kind == "edit" and at < len(blob):
            blob[at] = arg[0]
        elif kind == "truncate":
            del blob[at:]
        elif kind == "insert":
            blob[at:at] = arg[0]
    try:
        header, stream = read_dataset(io.BytesIO(bytes(blob)))
        records = list(stream)
    except DatasetFormatError:
        return
    sink = io.BytesIO()
    write_dataset(records, header, sink)
    assert sink.getvalue() == bytes(blob)
