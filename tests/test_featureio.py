import dataclasses
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.featureio import (
    CHUNK_RECORDS,
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    ByteReader,
    Corpus,
    DatasetFormatError,
    DatasetHeader,
    SyntheticSpec,
    VideoRecord,
    _check_chunk,
    _chunk_records,
    _draw_labels,
    _draw_prototypes,
    atomic_write,
    generate_synthetic,
    label_prototypes,
    label_weights,
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


def test_unsupported_format_version_rejected():
    spec = SyntheticSpec(num_videos=2, vocab_size=5, d_video=3, d_audio=1, seed=2)
    sink = io.BytesIO()
    write_dataset(generate_synthetic(spec), spec.header(), sink)
    blob = bytearray(sink.getvalue())
    struct.pack_into("<I", blob, 4, 2)
    with pytest.raises(DatasetFormatError, match="unsupported format version 2"):
        read_dataset(io.BytesIO(bytes(blob)))


def test_byte_reader_checks_every_size_before_reading():
    blob = struct.pack("<HI", 3, 2) + b"abc" + np.array([0.5, -1.0], dtype="<f4").tobytes()
    reader = ByteReader(blob, DatasetFormatError)
    assert reader.unpack("<HI", "sizes") == (3, 2)
    assert reader.take(3, "id") == b"abc"
    assert reader.left() == 8
    with pytest.raises(DatasetFormatError, match="truncated file while reading frames"):
        reader.array("<f4", 3, "frames")
    assert reader.left() == 8  # a refused read takes nothing
    assert reader.array("<f4", 2, "frames").tolist() == [0.5, -1.0]
    assert reader.left() == 0
    with pytest.raises(DatasetFormatError, match="truncated file while reading label count"):
        reader.unpack("<H", "label count")


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
    with pytest.raises(DatasetFormatError, match="record 1"):
        read_dataset(io.BytesIO(blob[:-3]))


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


def test_negative_label_rejected_on_write():
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=3, record_count=2)
    good = VideoRecord(id=b"a", frames=np.ones((1, 1)), labels=np.array([0, 2]))
    bad = VideoRecord(id=b"b", frames=np.ones((1, 1)), labels=np.array([-1, 2]))
    with pytest.raises(DatasetFormatError, match=r"^record 1: label id outside \[0, 3\)$"):
        write_dataset([good, bad], header, io.BytesIO())

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


def reference_generate_synthetic(spec):
    """The generator one video at a time, drawing labels with rng.choice: the
    oracle for generate_synthetic's bisect draws and chunked frame blocks."""
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


@st.composite
def synthetic_specs(draw):
    vocab = draw(st.integers(1, 12))
    labels_max = draw(st.integers(1, vocab))
    t_max = draw(st.integers(1, 5))
    return SyntheticSpec(
        num_videos=draw(st.sampled_from([1, 7, 255, 256, 257, 513])), vocab_size=vocab,
        d_video=draw(st.integers(1, 4)), d_audio=draw(st.integers(0, 2)),
        t_min=draw(st.integers(1, t_max)), t_max=t_max,
        labels_min=draw(st.integers(1, labels_max)), labels_max=labels_max,
        # steep exponents make most draws repeat a label
        imbalance_exponent=draw(st.sampled_from([0.5, 1.5, 6.0, 40.0, 250.0])),
        noise_scale=draw(st.sampled_from([0.0, 0.05, 3.0])), seed=draw(st.integers(0, 2**31)))


@settings(max_examples=60, deadline=None)
@given(synthetic_specs())
def test_synthetic_matches_the_per_video_reference(spec):
    got, want = generate_synthetic(spec), reference_generate_synthetic(spec)
    assert [r.id for r in got] == [r.id for r in want]
    for a, b in zip(got, want):
        assert a.frames.dtype == np.float32 and a.frames.shape == b.frames.shape
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.labels.dtype == np.int64 and a.labels.tolist() == b.labels.tolist()


@pytest.mark.parametrize("width", [1, 2])
def test_chunk_base_sums_labels_in_the_order_a_videos_own_mean_does(width):
    # Summed one label at a time, the six 2**-54 terms vanish into 1 + 2**-24 and
    # the mean is a float32 tie that rounds down to 1/8; summed pairwise (as a (8, 1)
    # mean does) they add up to 2**-52 and it rounds up.  The frames must follow
    # the reduction order of protos[labels].mean(axis=0) at either width.
    protos = np.zeros((8, width))
    protos[:, 0] = [1.0, 2.0**-24] + [2.0**-54] * 6
    labels = list(range(8))
    (record,) = _chunk_records(protos, 0, [labels], np.zeros((1, width)), 0.0, [1])
    want = protos[labels].mean(axis=0).astype(np.float32)
    assert record.frames.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 30), st.sampled_from([0.5, 1.5, 6.0, 40.0]),
       st.data())
def test_draw_labels_equals_choice_and_leaves_the_same_state(seed, vocab, exponent, data):
    weights = label_weights(vocab, exponent)
    cdf = np.cumsum(weights)
    cdf = (cdf / cdf[-1]).tolist()
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    ours.integers(0, 2), numpys.integers(0, 2)  # leave a buffered uint32 in the state
    for _ in range(20):
        k = data.draw(st.integers(1, vocab))
        want = np.sort(numpys.choice(vocab, size=k, replace=False, p=weights)).tolist()
        assert _draw_labels(ours, cdf, weights, k) == want
        assert ours.bit_generator.state == numpys.bit_generator.state


def test_draw_labels_sends_a_draw_equal_to_a_cdf_step_to_the_next_label():
    # choice searches its CDF with side="right"; build weights whose CDF holds the
    # exact value of a draw, once in the first pass and once in the renormalized retry
    x = np.random.default_rng(4).random(3)
    first_pass = np.array([x[0], 1.0 - x[0]])
    retry = np.array([1.0 - 2.0**-30, x[2] * 2.0**-30, (1.0 - x[2]) * 2.0**-30])
    assert x[:2].max() < retry[0]  # the first two draws both pick label 0
    for weights, k, picked in [(first_pass, 1, [1]), (retry, 2, [0, 2])]:
        cdf = np.cumsum(weights)
        cdf = (cdf / cdf[-1]).tolist()
        want = np.sort(np.random.default_rng(4).choice(len(weights), size=k, replace=False,
                                                       p=weights)).tolist()
        assert want == picked
        assert _draw_labels(np.random.default_rng(4), cdf, weights, k) == want


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
    with pytest.raises(DatasetFormatError, match="4 bytes after the last record"):
        read_dataset(io.BytesIO(sink.getvalue() + b"junk"))


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


def test_frames_past_the_float32_range_rejected_on_write():
    header = DatasetHeader(d_video=2, d_audio=0, vocab_size=4, record_count=2)
    good = VideoRecord(id=b"a", frames=np.ones((1, 2)), labels=np.array([0]))
    huge = VideoRecord(id=b"b", frames=np.array([[1.0, 1e39]]), labels=np.array([1]))
    with pytest.raises(DatasetFormatError, match="^record 1: non-finite feature value$"):
        write_dataset([good, huge], header, io.BytesIO())


def test_non_integer_labels_rejected_on_write():
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=4, record_count=2)
    good = VideoRecord(id=b"a", frames=np.ones((1, 1)), labels=np.array([0]))
    half = VideoRecord(id=b"b", frames=np.ones((1, 1)), labels=np.array([0.5]))
    with pytest.raises(DatasetFormatError, match="^record 1: label ids must be a 1-D integer"):
        write_dataset([good, half], header, io.BytesIO())


def test_unsigned_descending_labels_rejected_on_write():
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=9, record_count=1)
    bad = VideoRecord(id=b"x", frames=np.ones((1, 1)), labels=np.array([5, 3], dtype=np.uint64))
    with pytest.raises(DatasetFormatError, match="^record 0: labels must be strictly ascending$"):
        write_dataset([bad], header, io.BytesIO())


def _nan_at(blob: bytearray, record: int, dim: int) -> None:
    """Overwrite the first feature of `record` in a file of 1-byte ids and T=1."""
    at = HEADER_SIZE
    for _ in range(record):
        (n_labels,) = struct.unpack_from("<H", blob, at + 7 + 4 * dim)
        at += 7 + 4 * dim + 2 + 4 * n_labels
    blob[at + 7:at + 11] = struct.pack("<f", np.nan)


@pytest.mark.parametrize("first, second", [(3, 300), (300, 301), (255, 256)])
def test_two_bad_records_report_the_lower_index(first, second):
    n = 600
    header = DatasetHeader(d_video=2, d_audio=0, vocab_size=4, record_count=n)
    records = [VideoRecord(id=b"v", frames=np.ones((1, 2), np.float32), labels=np.array([1, 2]))
               for _ in range(n)]
    bad = list(records)
    bad[first] = VideoRecord(id=b"v", frames=np.ones((1, 2)), labels=np.array([2, 1]))
    bad[second] = VideoRecord(id=b"", frames=np.ones((1, 2)), labels=np.array([1]))
    with pytest.raises(DatasetFormatError, match=f"^record {first}: labels must be"):
        write_dataset(bad, header, io.BytesIO())
    sink = io.BytesIO()
    write_dataset(records, header, sink)
    blob = bytearray(sink.getvalue())
    _nan_at(blob, second, 2)
    _nan_at(blob, first, 2)
    with pytest.raises(DatasetFormatError, match=f"^record {first}: non-finite feature value$"):
        read_dataset(io.BytesIO(bytes(blob)))
    # a bad record is reported before a later record that is cut short
    cut = bytes(blob[:HEADER_SIZE + (second + 1) * (7 + 8 + 2 + 8) - 1])
    with pytest.raises(DatasetFormatError, match=f"^record {first}: non-finite"):
        read_dataset(io.BytesIO(cut))


def test_clean_read_and_write_word_no_record_check(monkeypatch):
    calls = []
    monkeypatch.setattr("framepool.featureio.validate_record", lambda *a: calls.append(a))
    spec = SyntheticSpec(num_videos=700, vocab_size=9, d_video=3, d_audio=1, seed=6)
    records = generate_synthetic(spec)
    _, got = roundtrip(records, spec.header())
    assert len(got) == 700
    assert calls == []


def test_header_claiming_2_pow_60_records_fails_at_record_0_without_allocating():
    blob = (struct.pack("<4sIIIIQ", b"VFR1", 1, 2, 0, 3, 2**60)
            + struct.pack("<H", 5) + b"abcde" + struct.pack("<I", 1) + b"\x00")
    assert len(blob) == 40
    tracemalloc.start()
    try:
        with pytest.raises(DatasetFormatError,
                           match="^record 0: truncated file while reading frame payload$"):
            read_dataset(io.BytesIO(blob))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def reference_read_dataset(source):
    """The reader before the offset index: six ByteReader calls per record, each
    chunk of CHUNK_RECORDS checked as it fills, one VideoRecord per record.  The
    oracle for read_dataset's records and for every error it raises."""
    reader = ByteReader(source.read(), DatasetFormatError)
    magic, version, *fields = reader.unpack("<4sIIIIQ", "header")
    if magic != MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format version {version}")
    header = DatasetHeader(*fields)
    header.validate()
    records, ids, frames, labels = [], [], [], []

    def keep_checked():
        _, flat, ends = _check_chunk(ids, frames, labels, header, len(records))
        bounds = [0, *ends.tolist()]
        records.extend(map(VideoRecord, ids, frames,
                           [flat[a:b] for a, b in zip(bounds, bounds[1:])]))
        del ids[:], frames[:], labels[:]

    for index in range(header.record_count):
        try:
            (id_len,) = reader.unpack("<H", "id length")
            video_id = reader.take(id_len, "id")
            (t,) = reader.unpack("<I", "frame count")
            if t < 1:
                raise DatasetFormatError("frame count must be >= 1")
            rows = reader.array("<f4", (t, header.feature_dim), "frame payload")
            (n_labels,) = reader.unpack("<H", "label count")
            label_ids = reader.array("<u4", n_labels, "labels")
        except DatasetFormatError as exc:
            keep_checked()
            raise DatasetFormatError(f"record {index}: {exc}") from None
        ids.append(video_id)
        frames.append(rows)
        labels.append(label_ids)
        if len(ids) == CHUNK_RECORDS:
            keep_checked()
    keep_checked()
    if reader.left():
        raise DatasetFormatError(f"{reader.left()} bytes after the last record")
    return header, records


def _outcome(read, blob):
    """The error message, or the header and each record's id, frame bytes and labels."""
    try:
        header, records = read(io.BytesIO(blob))
    except DatasetFormatError as exc:
        return str(exc)
    return header, [(r.id, r.frames.shape, r.frames.tobytes(), r.labels.dtype,
                     r.labels.tolist()) for r in records]


def _mixed_id_blob() -> bytes:
    """12 records whose ids are 1 to 4 bytes long, so that frame payloads start
    at every offset mod 4; some id bytes read as a NaN in a float32 view."""
    header = DatasetHeader(d_video=2, d_audio=1, vocab_size=6, record_count=12)
    rng = np.random.default_rng(0)
    ids = [b"\xff", b"\x7f\xff", b"a\xff\xff", b"\xff\xff\xff\x7f"]
    records = [dataclasses.replace(make_record(rng, header, b""), id=ids[i % 4])
               for i in range(12)]
    sink = io.BytesIO()
    write_dataset(records, header, sink)
    return sink.getvalue()


MIXED_ID_BLOB = _mixed_id_blob()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([FUZZ_BLOB, MIXED_ID_BLOB]), st.lists(_mutations, min_size=1, max_size=3))
def test_mutated_file_reads_as_the_reference_reader_reads_it(base, mutations):
    blob = bytearray(base)
    for kind, at, *arg in mutations:
        at %= len(blob) + 1
        if kind == "edit" and at < len(blob):
            blob[at] = arg[0]
        elif kind == "truncate":
            del blob[at:]
        elif kind == "insert":
            blob[at:at] = arg[0]
    assert _outcome(read_dataset, bytes(blob)) == _outcome(reference_read_dataset, bytes(blob))


@pytest.mark.parametrize("scan_floats", [None, 1, 3])
def test_a_nan_in_each_payload_alignment_names_its_record(monkeypatch, scan_floats):
    if scan_floats is not None:  # finiteness is checked in passes of this many floats
        monkeypatch.setattr("framepool.featureio._SCAN_FLOATS", scan_floats)
    blob = MIXED_ID_BLOB
    _, records = read_dataset(io.BytesIO(blob))
    starts = [HEADER_SIZE + 2 + len(records[0].id) + 4]
    for a, b in zip(records, records[1:]):
        starts.append(starts[-1] + 4 * a.frames.size + 2 + 4 * a.labels.size + 2
                      + len(b.id) + 4)
    assert {at % 4 for at in starts} == {0, 1, 2, 3}
    assert _outcome(read_dataset, blob) == _outcome(reference_read_dataset, blob)
    for index, at in enumerate(starts):
        for value in (np.nan, np.inf, -np.inf):
            for dim in (0, records[index].frames.size - 1):
                bad = bytearray(blob)
                bad[at + 4 * dim:at + 4 * dim + 4] = struct.pack("<f", value)
                want = f"record {index}: non-finite feature value"
                assert _outcome(reference_read_dataset, bytes(bad)) == want
                assert _outcome(read_dataset, bytes(bad)) == want


def _raw_blob(records, d_video=2, vocab_size=5) -> bytes:
    """A VFR of (id, frames, labels) triples, assembled without any check."""
    parts = [struct.pack("<4sIIIIQ", MAGIC, FORMAT_VERSION, d_video, 0, vocab_size,
                         len(records))]
    for video_id, frames, labels in records:
        parts += [struct.pack("<H", len(video_id)), video_id, struct.pack("<I", len(frames)),
                  np.asarray(frames, "<f4").tobytes(), struct.pack("<H", len(labels)),
                  np.asarray(labels, "<u4").tobytes()]
    return b"".join(parts)


_OK, _NAN = [[0.5, 1.0]], [[0.5, np.nan]]


@pytest.mark.parametrize("bad, want", [
    ((b"", _OK, [1]), "empty id"),
    ((b"", _NAN, []), "empty id"),  # a record's first broken rule names it
    ((b"x", _NAN, []), "non-finite feature value"),
    ((b"x", _OK, []), "empty label list"),
    ((b"x", _OK, [3, 3]), "labels must be strictly ascending"),
    ((b"x", _NAN, [4, 2]), "non-finite feature value"),
    ((b"x", _OK, [4, 2, 9]), "labels must be strictly ascending"),
    ((b"x", _OK, [0, 5]), "label id outside [0, 5)"),
    ((b"x", [], [1]), "frame count must be >= 1"),
])
def test_each_broken_rule_is_reported_as_the_reference_reports_it(bad, want):
    good = (b"ok", _OK, [1, 2])
    blob = _raw_blob([good, bad, good, (b"", _NAN, [])])
    assert _outcome(read_dataset, blob) == _outcome(reference_read_dataset, blob)
    assert _outcome(read_dataset, blob) == f"record 1: {want}"


def test_non_finite_patterns_outside_payloads_are_not_frame_errors():
    # seven 0xff id bytes read as a NaN in all four float32 views, and the
    # trailing bytes hold a float32 NaN: only the trailing bytes are an error
    header = DatasetHeader(d_video=1, d_audio=0, vocab_size=3, record_count=2)
    records = [VideoRecord(b"\xff" * 7, np.ones((1, 1), np.float32),
                           np.array([0])),
               VideoRecord(b"\x7f\xc0\xff", np.ones((2, 1), np.float32), np.array([1, 2]))]
    sink = io.BytesIO()
    write_dataset(records, header, sink)
    _, got = read_dataset(io.BytesIO(sink.getvalue()))
    assert [r.id for r in got] == [r.id for r in records]
    nan = struct.pack("<f", np.nan)
    for tail in (nan, b"\x00" + nan, b"\x00\x00" + nan, b"\x00\x00\x00" + nan):
        with pytest.raises(DatasetFormatError, match=f"^{len(tail)} bytes after the last record$"):
            read_dataset(io.BytesIO(sink.getvalue() + tail))


def test_read_returns_a_corpus_whose_columns_index_the_file():
    _, corpus = read_dataset(io.BytesIO(MIXED_ID_BLOB))
    assert isinstance(corpus, Corpus) and len(corpus) == 12
    assert corpus.offsets[0] == HEADER_SIZE and corpus.offsets[-1] == len(MIXED_ID_BLOB)
    _, want = reference_read_dataset(io.BytesIO(MIXED_ID_BLOB))
    for i, record in enumerate(want):
        assert corpus.frame_counts[i] == len(record.frames)
        assert corpus.labels[corpus.label_ends[i] - record.labels.size:corpus.label_ends[i]
                             ].tolist() == record.labels.tolist()
    assert corpus._records == []  # no record is built before an item is asked for
    first = corpus[0]
    assert corpus[0] is first
    assert not first.frames.flags.writeable and not first.labels.flags.writeable
    selection = corpus[np.array([3, 3, 0])]
    assert [r.id for r in selection] == [want[3].id, want[3].id, want[0].id]
    assert selection[0] is corpus[3]  # built once, shared by every selection
    labels, sizes = selection.label_columns()
    assert sizes.tolist() == [want[3].labels.size, want[3].labels.size, want[0].labels.size]
    assert labels.tolist() == [*want[3].labels, *want[3].labels, *want[0].labels]
    assert [r.id for r in corpus[10:]] == [want[10].id, want[11].id]


@pytest.mark.parametrize("index", [[], [0], [5, 5, 1], list(range(12))[::-1]])
def test_a_corpus_selection_writes_the_bytes_its_records_encode_to(index):
    _, corpus = read_dataset(io.BytesIO(MIXED_ID_BLOB))
    selection = corpus[np.array(index, dtype=np.int64)]
    header = dataclasses.replace(corpus.header, record_count=len(index))
    copied, encoded = io.BytesIO(), io.BytesIO()
    assert write_dataset(selection, header, copied) == len(copied.getvalue())
    write_dataset([corpus[i] for i in index], header, encoded)
    assert copied.getvalue() == encoded.getvalue()
    # another layout encodes the records again, and checks them against it
    wide = io.BytesIO()
    write_dataset(selection, dataclasses.replace(header, vocab_size=7), wide)
    assert wide.getvalue()[HEADER_SIZE:] == copied.getvalue()[HEADER_SIZE:]
    if any(r.labels.max() >= 2 for r in selection):
        with pytest.raises(DatasetFormatError, match="label id outside"):
            write_dataset(selection, dataclasses.replace(header, vocab_size=2), io.BytesIO())
