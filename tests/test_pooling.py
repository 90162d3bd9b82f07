import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool import pooling
from framepool.pooling import Tower, row_softmax

from gradcheck import assert_grad_matches


def _record_forward(kernel):
    """A batched forward kernel applied to one (T, D) record as a batch of one."""
    def forward(frames, params):
        frames = np.asarray(frames)
        desc, cache = kernel(frames[None], params, np.array([len(frames)]))
        return desc[0], cache
    return forward


def unset_grads(params):
    """A NaN-filled Tower shaped like `params`, so that an entry the kernel
    does not write shows."""
    arrays = vars(params).values()
    return Tower(*(None if a is None else np.full_like(a, np.nan) for a in arrays))


def _record_backward(kernel):
    """A batched backward kernel fed one upstream row: ((T, D) dX, parameter gradients)."""
    def backward(upstream, cache):
        grads = unset_grads(cache.params)
        dx = kernel(np.asarray(upstream)[None], cache, grads)
        return dx[0], grads
    return backward


vlad_forward = _record_forward(pooling.vlad_forward)
fv_forward = _record_forward(pooling.fv_forward)
vlad_backward = _record_backward(pooling.vlad_backward)
fv_backward = _record_backward(pooling.fv_backward)


def make_vlad(rng, d, k):
    return Tower(
        assign_weights=rng.standard_normal((d, k)),
        assign_bias=rng.standard_normal(k),
        centers=rng.standard_normal((k, d)),
    )


def make_fv(rng, d, k):
    params = make_vlad(rng, d, k)
    params.spreads = rng.uniform(0.5, 2.0, size=(k, d))
    return params


# ---------------------------------------------------------------- softmax


@settings(max_examples=100)
@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(1, 8),
       st.floats(min_value=1.0, max_value=250.0))
def test_softmax_rows_are_distributions(seed, t, k, scale):
    # Logit gaps are capped at 500 here; beyond ~745, exp underflows to an
    # exact 0 and the open-interval claim stops being float-representable.
    rng = np.random.default_rng(seed)
    a = row_softmax(rng.uniform(-scale, scale, size=(t, k)))
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(a > 0) and np.all(a < 1 + 1e-12)
    assert np.isfinite(a).all()


def test_softmax_survives_extreme_logits():
    a = row_softmax(np.array([[1e4, -1e4, 0.0]]))
    assert np.isfinite(a).all()
    np.testing.assert_allclose(a.sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------- vlad forward


def test_vlad_single_cluster_normalizes_to_sign():
    params = Tower(assign_weights=np.zeros((1, 1)), assign_bias=np.zeros(1),
                   centers=np.array([[0.5]]))
    desc, _ = vlad_forward(np.array([[2.0]]), params)
    np.testing.assert_allclose(desc, [1.0], atol=1e-12)


def test_vlad_two_cluster_scalar_reference():
    params = Tower(assign_weights=np.array([[1.0, -1.0]]), assign_bias=np.zeros(2),
                   centers=np.array([[0.0], [2.0]]))
    desc, cache = vlad_forward(np.array([[1.0]]), params)
    np.testing.assert_allclose(cache.assign[0], [[0.8807971, 0.1192029]], atol=1e-7)
    np.testing.assert_allclose(desc, [0.7071068, -0.7071068], atol=1e-7)


def test_vlad_zero_residual_gives_zero_descriptor():
    # Single cluster makes the soft assignment exactly one-hot, so frames
    # sitting on the center leave nothing to accumulate.
    center = np.array([[0.3, -1.2, 0.7]])
    params = Tower(assign_weights=np.zeros((3, 1)), assign_bias=np.zeros(1),
                   centers=center)
    desc, _ = vlad_forward(np.repeat(center, 4, axis=0), params)
    assert np.all(desc == 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4))
def test_vlad_norm_is_one_or_zero(seed, t, d, k):
    rng = np.random.default_rng(seed)
    desc, _ = vlad_forward(rng.standard_normal((t, d)), make_vlad(rng, d, k))
    n = np.linalg.norm(desc)
    assert n == 0.0 or abs(n - 1.0) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 6), st.integers(1, 5), st.integers(1, 4))
def test_vlad_frame_order_invariance(seed, t, d, k):
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((t, d))
    params = make_vlad(rng, d, k)
    a, _ = vlad_forward(frames, params)
    b, _ = vlad_forward(frames[rng.permutation(t)], params)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_vlad_shape_and_finiteness_errors():
    rng = np.random.default_rng(0)
    params = make_vlad(rng, 3, 2)
    with pytest.raises(ValueError, match="columns"):
        vlad_forward(np.zeros((2, 4)), params)
    with pytest.raises(ValueError, match="non-finite"):
        vlad_forward(np.array([[1.0, np.inf, 0.0]]), params)
    with pytest.raises(ValueError, match="T>=1"):
        vlad_forward(np.zeros((0, 3)), params)


# ---------------------------------------------------------------- vlad backward


def test_vlad_zero_upstream_zero_gradients():
    rng = np.random.default_rng(1)
    params = make_vlad(rng, 4, 2)
    _, cache = vlad_forward(rng.standard_normal((3, 4)), params)
    dx, g = vlad_backward(np.zeros(8), cache)
    for arr in (dx, g.assign_weights, g.assign_bias, g.centers):
        assert np.all(arr == 0.0)
    assert g.spreads is None


def test_vlad_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    t, d, k = 3, 4, 2
    frames = rng.standard_normal((t, d))
    params = make_vlad(rng, d, k)
    upstream = rng.standard_normal(k * d)

    _, cache = vlad_forward(frames, params)
    dx, grads = vlad_backward(upstream, cache)

    def scalar():
        return float(upstream @ vlad_forward(frames, params)[0])

    assert_grad_matches(dx, scalar, frames, "frames")
    assert_grad_matches(grads.assign_weights, scalar, params.assign_weights, "assign_weights")
    assert_grad_matches(grads.assign_bias, scalar, params.assign_bias, "assign_bias")
    assert_grad_matches(grads.centers, scalar, params.centers, "centers")


def test_vlad_duplicate_frames_get_equal_gradients():
    rng = np.random.default_rng(3)
    d, k = 3, 2
    row = rng.standard_normal(d)
    frames = np.vstack([row, rng.standard_normal(d), row])
    params = make_vlad(rng, d, k)
    _, cache = vlad_forward(frames, params)
    dx, _ = vlad_backward(rng.standard_normal(k * d), cache)
    np.testing.assert_allclose(dx[0], dx[2], atol=1e-12)


def test_vlad_upstream_shape_mismatch_rejected():
    rng = np.random.default_rng(4)
    params = make_vlad(rng, 3, 2)
    _, cache = vlad_forward(rng.standard_normal((2, 3)), params)
    with pytest.raises(ValueError, match="upstream"):
        vlad_backward(np.zeros(7), cache)


# ---------------------------------------------------------------- fv forward


def test_fv_scalar_reference():
    params = Tower(assign_weights=np.zeros((1, 1)), assign_bias=np.zeros(1),
                   centers=np.array([[0.5]]), spreads=np.array([[1.0]]))
    desc, _ = fv_forward(np.array([[2.0]]), params)
    # raw halves 1.5 and 1.25 each normalize to 1.0
    np.testing.assert_allclose(desc, [1.0, 1.0], atol=1e-12)


def test_fv_frames_at_centers():
    # One cluster, frames on the center: first-order half vanishes, second
    # half is a constant -mass row that normalizes to -1/sqrt(D).
    d, t = 3, 5
    center = np.array([[0.4, -0.2, 1.1]])
    params = Tower(assign_weights=np.zeros((d, 1)), assign_bias=np.zeros(1),
                   centers=center, spreads=np.full((1, d), 0.7))
    desc, _ = fv_forward(np.repeat(center, t, axis=0), params)
    assert np.all(desc[:d] == 0.0)
    np.testing.assert_allclose(desc[d:], -np.ones(d) / np.sqrt(d), atol=1e-12)


def test_fv_first_half_invariant_to_spread_scale_in_scalar_case():
    frames = np.array([[2.0]])
    kw = dict(assign_weights=np.zeros((1, 1)), assign_bias=np.zeros(1),
              centers=np.array([[0.5]]))
    a, _ = fv_forward(frames, Tower(spreads=np.array([[1.0]]), **kw))
    b, _ = fv_forward(frames, Tower(spreads=np.array([[2.0]]), **kw))
    np.testing.assert_allclose(a[0], b[0], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4))
def test_fv_halves_norm_one_or_zero(seed, t, d, k):
    rng = np.random.default_rng(seed)
    desc, _ = fv_forward(rng.standard_normal((t, d)), make_fv(rng, d, k))
    assert desc.shape == (2 * k * d,)
    for half in (desc[: k * d], desc[k * d:]):
        n = np.linalg.norm(half)
        assert n == 0.0 or abs(n - 1.0) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 6), st.integers(1, 5), st.integers(1, 4))
def test_fv_frame_order_invariance(seed, t, d, k):
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((t, d))
    params = make_fv(rng, d, k)
    a, _ = fv_forward(frames, params)
    b, _ = fv_forward(frames[rng.permutation(t)], params)
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------- fv backward


def test_fv_zero_upstream_zero_gradients():
    rng = np.random.default_rng(5)
    params = make_fv(rng, 4, 2)
    _, cache = fv_forward(rng.standard_normal((3, 4)), params)
    dx, g = fv_backward(np.zeros(16), cache)
    for arr in (dx, g.assign_weights, g.assign_bias, g.centers, g.spreads):
        assert np.all(arr == 0.0)


def test_fv_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    t, d, k = 3, 4, 2
    frames = rng.standard_normal((t, d))
    params = make_fv(rng, d, k)
    upstream = rng.standard_normal(2 * k * d)

    _, cache = fv_forward(frames, params)
    dx, grads = fv_backward(upstream, cache)

    def scalar():
        return float(upstream @ fv_forward(frames, params)[0])

    assert_grad_matches(dx, scalar, frames, "frames")
    assert_grad_matches(grads.assign_weights, scalar, params.assign_weights, "assign_weights")
    assert_grad_matches(grads.assign_bias, scalar, params.assign_bias, "assign_bias")
    assert_grad_matches(grads.centers, scalar, params.centers, "centers")
    assert_grad_matches(grads.spreads, scalar, params.spreads, "spreads")


def test_fv_spread_gradient_scalar_cases():
    # K=1, D=1, upstream selecting only the second-order half.  Away from the
    # zero point the half normalizes a lone scalar to its sign, locally
    # constant, so the spread gradient is exactly zero.
    params = Tower(assign_weights=np.zeros((1, 1)), assign_bias=np.zeros(1),
                   centers=np.array([[0.5]]), spreads=np.array([[1.0]]))
    _, cache = fv_forward(np.array([[2.0]]), params)
    _, g = fv_backward(np.array([0.0, 1.0]), cache)
    assert g.spreads[0, 0] == 0.0

    # At |x - c| = s the raw statistic ((x-c)/s)^2 - 1 is zero, normalization
    # passes through as identity, and the spread gradient reproduces the raw
    # closed-form derivative -2 (x-c)^2 / s^3 exactly.
    x, c, s = 2.0, 0.5, 1.5
    params = Tower(assign_weights=np.zeros((1, 1)), assign_bias=np.zeros(1),
                   centers=np.array([[c]]), spreads=np.array([[s]]))
    _, cache = fv_forward(np.array([[x]]), params)
    _, g = fv_backward(np.array([0.0, 1.0]), cache)
    np.testing.assert_allclose(g.spreads[0, 0], -2 * (x - c) ** 2 / s**3, rtol=1e-12)


def test_fv_spread_gradient_matches_closed_form():
    # T=1, K=1, D=2, upstream selecting the first second-order component.
    # With assignment mass 1, raw stats are F2_j = e_j^2 - 1, e_j = (x_j-c_j)/s_j.
    # d<g, F2/|F2|>/ds_0 with g=(1,0) is (y1^2 / |F2|) * (-2 e_0^2 / s_0):
    # the raw derivative -2 e_0^2 / s_0 scaled by the normalization Jacobian.
    x = np.array([[2.0, -1.0]])
    c = np.array([[0.5, 0.5]])
    s = np.array([[1.2, 0.8]])
    params = Tower(assign_weights=np.zeros((2, 1)), assign_bias=np.zeros(1),
                   centers=c, spreads=s)
    _, cache = fv_forward(x, params)
    _, g = fv_backward(np.array([0.0, 0.0, 1.0, 0.0]), cache)

    e = (x[0] - c[0]) / s[0]
    f2 = e * e - 1
    r = np.linalg.norm(f2)
    y = f2 / r
    expected = (y[1] ** 2 / r) * (-2 * e[0] ** 2 / s[0, 0])
    np.testing.assert_allclose(g.spreads[0, 0], expected, rtol=1e-12)
    assert g.spreads[0, 0] < 0  # matches the sign of d((x-c)/s)^2-1)/ds


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
def test_pooling_gradients_random_shapes(seed, t, d, k):
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((t, d))

    vp = make_vlad(rng, d, k)
    uv = rng.standard_normal(k * d)
    _, cache = vlad_forward(frames, vp)
    _, gv = vlad_backward(uv, cache)
    assert_grad_matches(gv.centers, lambda: float(uv @ vlad_forward(frames, vp)[0]),
                        vp.centers, "vlad centers")

    fp = make_fv(rng, d, k)
    uf = rng.standard_normal(2 * k * d)
    _, cache = fv_forward(frames, fp)
    _, gf = fv_backward(uf, cache)
    assert_grad_matches(gf.spreads, lambda: float(uf @ fv_forward(frames, fp)[0]),
                        fp.spreads, "fv spreads")
