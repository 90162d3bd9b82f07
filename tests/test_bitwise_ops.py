"""The rewritten scoring and training-step primitives keep every bit.

Each primitive is compared with its earlier form in ``reference_ops`` by
``tobytes()``, not to a tolerance: the rewrites only fuse passes and reuse
buffers, so they must run the same floating-point operations on the same
operands in the same order.  The cases cover the edges where a changed order
or branch would show: K from 1 to 256, one-frame and padded batches, vectors
under NORM_GUARD, logits at +-1e4, sigmoid inputs at +-0.0, +-40 and +-800,
Adam steps with floored views, and GAP pools full of ties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ref
from framepool import metrics, netmodel, optim, pooling
from framepool.netmodel import PROB_FLOOR
from framepool.pooling import NORM_GUARD, Tower

KS = st.sampled_from([1, 2, 8, 64, 256])
SEEDS = st.integers(0, 2**32 - 1)


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _batch(rng, b, t_max, d):
    """A padded (B, Tmax, D) float64 batch of float32 rows, its lengths and mask."""
    lengths = rng.integers(1, t_max + 1, size=b)
    lengths[0] = t_max
    x = np.zeros((b, t_max, d))
    mask = np.arange(t_max) < lengths[:, None]
    x[mask] = rng.standard_normal((int(lengths.sum()), d)).astype(np.float32)
    return x, lengths, mask


def _tower(rng, d, k, scale=1.0):
    return Tower(assign_weights=scale * rng.standard_normal((d, k)),
                 assign_bias=scale * rng.standard_normal(k),
                 centers=rng.standard_normal((k, d)) / np.sqrt(d))


@settings(max_examples=40, deadline=None)
@given(KS, SEEDS, st.integers(1, 5), st.integers(1, 6),
       st.sampled_from([1.0, 30.0, 1e4]))
def test_row_softmax_and_assignment_keep_their_bytes(k, seed, b, t, scale):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-scale, scale, size=(b, t, k))
    logits[0, 0, :] = scale  # a row of tied maxima
    before = logits.copy()
    _same(pooling.row_softmax(logits), ref.row_softmax(logits))
    _same(logits, before)  # the input is left as it was
    x, _, mask = _batch(rng, b, t, 5)
    params = _tower(rng, 5, k, scale)
    _same(pooling._assign(x, params, mask),
          ref.assign(x, params.assign_weights, params.assign_bias, mask))


def _vectors(rng, shape, guarded):
    v = rng.standard_normal(shape)
    flat = v.reshape(-1, shape[-1])
    for row, kind in zip(flat, guarded):
        if kind == "zero":
            row[:] = 0.0
        elif kind == "tiny":
            row *= 1e-14  # a norm under NORM_GUARD, not zero
        elif kind == "edge":
            row[:] = 0.0
            row[0] = NORM_GUARD
    return v


GUARDS = st.lists(st.sampled_from(["plain", "zero", "tiny", "edge"]), max_size=4)


@settings(max_examples=40, deadline=None)
@given(KS, SEEDS, st.integers(1, 4), st.integers(1, 9), GUARDS)
def test_normalize_and_its_backward_keep_their_bytes(k, seed, b, d, guarded):
    rng = np.random.default_rng(seed)
    for shape in ((b, k, d), (b, k * d), (b, 2, k * d)):
        v = _vectors(rng, shape, guarded)
        y, r = pooling._normalize(v)
        y_ref, r_ref = ref.normalize(v)
        _same(y, y_ref)
        _same(r, r_ref)
        g = rng.standard_normal(shape)
        _same(pooling._normalize_backward(g, y, r), ref.normalize_backward(g, y_ref, r_ref))


@settings(max_examples=30, deadline=None)
@given(KS, SEEDS, st.integers(1, 5), st.integers(1, 6), st.sampled_from([1.0, 1e4]))
def test_vlad_forward_keeps_the_bytes_of_its_reference_steps(k, seed, b, t, scale):
    rng = np.random.default_rng(seed)
    x, lengths, mask = _batch(rng, b, t, 6)
    params = _tower(rng, 6, k, scale)
    desc, cache = pooling.vlad_forward(x, params, lengths)
    a = ref.assign(x, params.assign_weights, params.assign_bias, mask)
    rows, row_norms = ref.normalize(ref.vlad_descriptor_rows(a, x, params.centers))
    flat, flat_norm = ref.normalize(rows.reshape(b, -1))
    for got, want in ((desc, flat), (cache.assign, a), (cache.row_vecs, rows),
                      (cache.row_norms, row_norms), (cache.flat_norm, flat_norm)):
        _same(got, want)


EDGES = [0.0, -0.0, 40.0, -40.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7]


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 6), st.integers(1, 60))
def test_sigmoid_keeps_its_bytes(seed, b, l):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((b, l)) * rng.choice([1.0, 30.0, 800.0], size=(b, l))
    z.ravel()[: len(EDGES)] = EDGES[: z.size]
    _same(netmodel._sigmoid(z), ref.sigmoid(z))


def test_sigmoid_clips_at_the_floor():
    p = netmodel._sigmoid(np.array(EDGES))
    assert p.min() == PROB_FLOOR and p.max() == 1.0 - PROB_FLOOR


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 7), st.integers(1, 6), st.integers(1, 5), st.integers(0, 4),
       st.sampled_from([np.float32, np.float64]))
def test_pad_gives_each_tower_the_columns_of_the_reference_pad(seed, b, t_max, dv, da, dtype):
    rng = np.random.default_rng(seed)
    batch = [rng.standard_normal((rng.integers(1, t_max + 1), dv + da)).astype(dtype)
             for _ in range(b)]
    padded, lengths_ref = ref.pad(batch, dv + da)
    for widths in ([dv + da], [dv, da]):
        blocks, lengths = netmodel._pad(batch, widths)
        _same(lengths, lengths_ref)
        start = 0
        for width, block in zip(widths, blocks):
            assert block.flags.c_contiguous
            _same(block, np.ascontiguousarray(padded[:, :, start:start + width]))
            start += width


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.integers(1, 300), st.sampled_from([1e-3, 0.02, 0.5]))
def test_fifty_adam_steps_with_floored_views_keep_their_bytes(seed, n, lr):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    w_ref = w.copy()
    state = optim.AdamState(m=np.zeros(n), v=np.zeros(n))
    state_ref = optim.AdamState(m=np.zeros(n), v=np.zeros(n))
    half = slice(n // 2, n)
    for _ in range(50):
        g = rng.standard_normal(n) * rng.choice([1e-8, 1.0, 1e3])
        optim.adam_update(w, g, state, lr, [w[half]])
        ref.adam_update(w_ref, g, state_ref, lr, [w_ref[half]])
        for got, want in ((w, w_ref), (state.m, state_ref.m), (state.v, state_ref.v)):
            _same(got, want)
    assert state.step == state_ref.step == 50


POOLS = st.sampled_from(["equal", "clipped", "zeros", "few", "spread"])


@settings(max_examples=60, deadline=None)
@given(POOLS, SEEDS, st.integers(0, 3000))
def test_pool_order_is_the_stable_argsort(kind, seed, m):
    rng = np.random.default_rng(seed)
    if kind == "equal":
        confs = np.full(m, rng.random())
    elif kind == "clipped":
        confs = rng.choice([PROB_FLOOR, 1.0 - PROB_FLOOR, 0.5], size=m)
    elif kind == "zeros":
        confs = rng.choice([0.0, -0.0, 1.0], size=m)
    elif kind == "few":
        confs = rng.integers(0, 5, size=m) / 4
    else:
        confs = rng.random(m)
    _same(metrics._pool_order(confs), ref.pool_order(confs))
