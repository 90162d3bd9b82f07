"""The batched pooling kernels against the per-record reference kernels.

Every check feeds a ragged batch: videos of unequal length padded to the
longest.  Descriptors, every parameter gradient and dX must equal what the
per-record kernels in ``reference_pooling`` give video by video, with the
parameter gradients summed over the batch, to 1e-12 of the largest entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pooling as ref
from framepool.pooling import (
    EPS_SPREAD,
    Tower,
    fv_backward,
    fv_forward,
    vlad_backward,
    vlad_forward,
)

from gradcheck import assert_grad_matches

KERNELS = {
    "netvlad": (vlad_forward, vlad_backward, ref.vlad_forward, ref.vlad_backward),
    "netfv": (fv_forward, fv_backward, ref.fv_forward, ref.fv_backward),
}
PARAM_NAMES = ("assign_weights", "assign_bias", "centers", "spreads")


def make_params(rng, kind, d, k, spreads="random"):
    arrays = dict(assign_weights=rng.standard_normal((d, k)),
                  assign_bias=rng.standard_normal(k),
                  centers=rng.standard_normal((k, d)))
    if kind == "netvlad":
        return Tower(**arrays)
    if spreads == "floor":
        s = np.full((k, d), EPS_SPREAD)
    elif spreads == "small":
        s = rng.uniform(EPS_SPREAD, 0.002, size=(k, d))
    else:
        s = rng.uniform(0.5, 2.0, size=(k, d))
    return Tower(spreads=s, **arrays)


def backward_into_new(backward, upstream, cache):
    """(dX, parameter gradients) of a backward kernel given a NaN-filled
    Tower, so that an entry the kernel does not write shows."""
    arrays = vars(cache.params).values()
    grads = Tower(*(None if a is None else np.full_like(a, np.nan) for a in arrays))
    return backward(upstream, cache, grads), grads


def pad(records, fill=0.0):
    lengths = np.array([len(r) for r in records])
    out = np.full((len(records), lengths.max(), records[0].shape[1]), fill)
    for row, r in zip(out, records):
        row[: len(r)] = r
    return out, lengths


def assert_matches(batched, reference, what):
    batched, reference = np.asarray(batched), np.asarray(reference)
    assert batched.shape == reference.shape, what
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    err = float(np.max(np.abs(batched - reference), initial=0.0))
    assert err <= 1e-12 * scale, f"{what}: max difference {err:.3e} at scale {scale:.3e}"


def check_against_reference(kind, records, params, upstream):
    forward, backward, ref_forward, ref_backward = KERNELS[kind]
    frames, lengths = pad(records)
    desc, cache = forward(frames, params, lengths)
    dx, grads = backward_into_new(backward, upstream, cache)

    totals = {}
    for b, record in enumerate(records):
        ref_desc, ref_cache = ref_forward(record, ref.Params(**vars(params)))
        assert_matches(desc[b], ref_desc, f"{kind} descriptor {b}")
        ref_grads = ref_backward(upstream[b], ref_cache)
        assert_matches(dx[b, : len(record)], ref_grads.frames, f"{kind} dX {b}")
        for name in PARAM_NAMES:
            g = getattr(ref_grads, name)
            if g is not None:
                totals[name] = totals.get(name, 0.0) + g
    for name in PARAM_NAMES:
        if name in totals:
            assert_matches(getattr(grads, name), totals[name], f"{kind} {name}")
        else:
            assert getattr(grads, name) is None
    return grads, lengths


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31),
       kind=st.sampled_from(sorted(KERNELS)),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       d=st.integers(1, 5),
       k=st.integers(1, 4),
       spreads=st.sampled_from(["random", "small", "floor"]))
def test_ragged_batch_matches_per_record_reference(seed, kind, lengths, d, k, spreads):
    rng = np.random.default_rng(seed)
    params = make_params(rng, kind, d, k, spreads)
    records = [rng.standard_normal((t, d)) for t in lengths]
    width = (2 if kind == "netfv" else 1) * k * d
    check_against_reference(kind, records, params, rng.standard_normal((len(records), width)))


@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("lengths", [(1,), (1, 1, 1), (4, 4), (1, 5, 3), (6, 2)])
def test_fixed_shapes_match_reference(kind, lengths):
    rng = np.random.default_rng(sum(lengths))
    params = make_params(rng, kind, 3, 2)
    records = [rng.standard_normal((t, 3)) for t in lengths]
    width = (2 if kind == "netfv" else 1) * 6
    check_against_reference(kind, records, params, rng.standard_normal((len(records), width)))


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_norm_guard_branch_matches_reference(kind):
    # One cluster makes the assignment exactly one-hot; a record sitting on
    # the center has a zero vlad residual and a zero fv first-order half, so
    # the guard branch runs for it while the other record normalizes.
    center = np.array([[0.3, -1.2, 0.7]])
    arrays = dict(assign_weights=np.zeros((3, 1)), assign_bias=np.zeros(1), centers=center)
    params = (Tower(**arrays) if kind == "netvlad"
              else Tower(spreads=np.full((1, 3), 0.7), **arrays))
    rng = np.random.default_rng(12)
    records = [np.repeat(center, 4, axis=0), rng.standard_normal((2, 3))]
    width = 3 if kind == "netvlad" else 6
    frames, lengths = pad(records)
    desc, _ = KERNELS[kind][0](frames, params, lengths)
    assert np.all(desc[0, :3] == 0.0)
    check_against_reference(kind, records, params, rng.standard_normal((2, width)))


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_padding_gets_zero_gradient_and_changes_nothing(kind):
    rng = np.random.default_rng(21)
    forward, backward = KERNELS[kind][:2]
    params = make_params(rng, kind, 4, 3)
    records = [rng.standard_normal((t, 4)) for t in (2, 5, 1)]
    zeros, lengths = pad(records)
    noisy = zeros.copy()
    for row, t in zip(noisy, lengths):
        row[t:] = 10.0 * rng.standard_normal(row[t:].shape)
    upstream = rng.standard_normal((3, (2 if kind == "netfv" else 1) * 12))

    desc_zero, cache_zero = forward(zeros, params, lengths)
    desc_noisy, cache_noisy = forward(noisy, params, lengths)
    np.testing.assert_array_equal(desc_zero, desc_noisy)
    for cache in (cache_zero, cache_noisy):
        dx, _ = backward_into_new(backward, upstream, cache)
        for row, t in zip(dx, lengths):
            assert np.all(row[t:] == 0.0)


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_ragged_batch_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(31)
    forward, backward = KERNELS[kind][:2]
    params = make_params(rng, kind, 3, 2)
    frames, lengths = pad([rng.standard_normal((t, 3)) for t in (3, 1, 2)])
    upstream = rng.standard_normal((3, (2 if kind == "netfv" else 1) * 6))

    _, cache = forward(frames, params, lengths)
    dx, grads = backward_into_new(backward, upstream, cache)

    def scalar():
        return float(np.sum(upstream * forward(frames, params, lengths)[0]))

    assert_grad_matches(dx, scalar, frames, "frames")
    for name in PARAM_NAMES:
        if getattr(grads, name) is not None:
            assert_grad_matches(getattr(grads, name), scalar, getattr(params, name), name)


def test_batch_shape_errors():
    params = make_params(np.random.default_rng(0), "netvlad", 3, 2)
    with pytest.raises(ValueError, match="T>=1"):
        vlad_forward(np.zeros((2, 3)), params, np.array([2]))
    with pytest.raises(ValueError, match="T>=1"):
        vlad_forward(np.zeros((2, 3, 3)), params, np.array([3, 0]))
    with pytest.raises(ValueError, match="T>=1"):
        vlad_forward(np.zeros((2, 3, 3)), params, np.array([3, 4]))
    with pytest.raises(ValueError, match="one length per video"):
        vlad_forward(np.zeros((2, 3, 3)), params, np.array([3]))
