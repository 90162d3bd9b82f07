import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.losses import multilabel_loss
from framepool.netmodel import ModelConfig, init_model, model_backward, model_forward
from framepool.optim import (
    AdamState,
    adam_step,
    adam_update,
    init_adam_state,
    sgd_step,
    sgd_update,
)
from framepool.pooling import EPS_SPREAD


def fresh_state(n):
    return AdamState(m=np.zeros(n), v=np.zeros(n))


def tiny_fv_model_and_grads():
    config = ModelConfig(pooling_kind="netfv", cluster_size=2, hidden_size=3,
                         d_video=4, d_audio=2, vocab_size=5, modality_mode="separate",
                         audio_cluster_size=1)
    model = init_model(config, seed=0)
    rng = np.random.default_rng(1)
    batch = [rng.standard_normal((3, 6)), rng.standard_normal((4, 6))]
    targets = (rng.uniform(size=(2, 5)) < 0.5).astype(np.int64)
    probs, cache = model_forward(batch, model)
    _, dprobs = multilabel_loss(probs, targets)
    return model, model_backward(dprobs, cache)


def test_zero_gradients_leave_parameters_unchanged():
    w = np.array([1.0, -2.0, 3.0])
    state = fresh_state(3)
    adam_update(w, np.zeros(3), state, lr=0.1)
    np.testing.assert_array_equal(w, [1.0, -2.0, 3.0])
    assert state.step == 1


def test_first_adam_step_moves_by_lr():
    w = np.zeros(1)
    adam_update(w, np.ones(1), fresh_state(1), lr=0.1)
    np.testing.assert_allclose(w, [-0.1], rtol=1e-7)


def test_spread_clamp_after_update():
    w = np.array([EPS_SPREAD * 1.01, 5.0, EPS_SPREAD * 1.01])
    adam_update(w, np.array([100.0, -1.0, 100.0]), fresh_state(3), lr=0.5, floored=[w[:2]])
    assert w[0] == EPS_SPREAD  # driven below the floor, clamped exactly
    assert w[1] > 5.0
    assert w[2] < EPS_SPREAD  # outside the floored range, not clamped


def test_nonfinite_gradient_rejected_with_array_name():
    model, grads = tiny_fv_model_and_grads()
    grads.arrays["hidden_b"][0] = np.nan
    with pytest.raises(ValueError, match="hidden_b"):
        adam_step(model, grads, init_adam_state(model), lr=0.1)
    grads.arrays["hidden_b"][0] = 0.0
    grads.arrays["out_w"][1, 2] = np.inf
    with pytest.raises(ValueError, match="out_w"):
        sgd_step(model, grads, lr=0.1)


def test_sgd_zero_lr_is_identity():
    w = np.array([1.5])
    sgd_update(w, np.array([10.0]), lr=0.0)
    assert w[0] == 1.5


def test_sgd_arithmetic():
    w = np.array([1.0])
    sgd_update(w, np.array([2.0]), lr=0.5)
    assert w[0] == 0.0


def test_sgd_converges_on_quadratic():
    # loss (w - 3)^2 / 2, gradient w - 3
    w = np.array([-2.0])
    for _ in range(200):
        sgd_update(w, w - 3.0, lr=0.1)
    assert abs(w[0] - 3.0) < 1e-6


def test_adam_converges_on_quadratic():
    w = np.array([-2.0])
    state = fresh_state(1)
    for _ in range(500):
        adam_update(w, w - 3.0, state, lr=0.1)
    assert abs(w[0] - 3.0) < 1e-3


@settings(max_examples=100)
@given(st.integers(0, 2**31), st.integers(1, 20),
       st.floats(min_value=1e-4, max_value=1.0))
def test_adam_step_magnitude_bounded(seed, steps, lr):
    # Bias-corrected Adam moves each coordinate by at most about lr; the
    # bound is not exact (correction ratios can overshoot slightly), so a
    # 10% tolerance is used.
    rng = np.random.default_rng(seed)
    w = np.zeros(8)
    state = fresh_state(8)
    for _ in range(steps):
        before = w.copy()
        adam_update(w, rng.standard_normal(8), state, lr)
        assert np.max(np.abs(w - before)) <= lr * 1.1


@settings(max_examples=50)
@given(st.integers(0, 2**31))
def test_updates_deterministic(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(4)
    runs = []
    for _ in range(2):
        w = np.arange(4.0)
        state = fresh_state(4)
        for _ in range(5):
            adam_update(w, g, state, lr=0.05)
        runs.append(w.copy())
    np.testing.assert_array_equal(runs[0], runs[1])


def test_finite_outputs_from_finite_inputs():
    w = np.array([1e300, -1e300, 0.0])
    state = fresh_state(3)
    for _ in range(10):
        adam_update(w, np.array([1e30, -1e30, 1e-30]), state, lr=1.0)
        assert np.isfinite(w).all()


def test_model_level_step_touches_every_array_and_clamps_spreads():
    model, grads = tiny_fv_model_and_grads()
    state = init_adam_state(model)
    before = {name: arr.copy() for name, arr in model.arrays.items()}
    adam_step(model, grads, state, lr=0.01)

    changed = [name for name, arr in model.arrays.items()
               if not np.array_equal(arr, before[name])]
    assert "hidden_w" in changed and "out_w" in changed
    assert any(name.startswith("video_pool") for name in changed)
    assert np.all(model.video_pool.spreads >= EPS_SPREAD)
    assert state.step == 1
