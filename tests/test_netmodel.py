import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepool.losses import HuberParams, multilabel_loss
from framepool.netmodel import (
    Model,
    ModelConfig,
    check_size_limit,
    init_model,
    model_backward,
    model_forward,
    parameter_count,
    set_output_prior,
    size_bytes,
)

from gradcheck import assert_grad_matches

config_strategy = st.builds(
    ModelConfig,
    pooling_kind=st.sampled_from(["netvlad", "netfv"]),
    cluster_size=st.integers(1, 4),
    hidden_size=st.integers(1, 6),
    d_video=st.integers(1, 8),
    d_audio=st.integers(0, 5),
    vocab_size=st.integers(1, 7),
    modality_mode=st.sampled_from(["separate", "concatenated"]),
    audio_cluster_size=st.integers(0, 3),
)


def tiny_config(kind, mode):
    return ModelConfig(pooling_kind=kind, cluster_size=2, hidden_size=3,
                       d_video=4, d_audio=2, vocab_size=5, modality_mode=mode,
                       audio_cluster_size=1)


def make_batch(rng, config, lengths=(3, 4)):
    return [rng.standard_normal((t, config.feature_dim)) for t in lengths]


def zero_model(config):
    model = init_model(config, seed=0)
    for arr in model.arrays.values():
        arr[:] = 0.0
    for spreads in model.floored:
        spreads[:] = 1.0  # zero spreads are illegal
    return model


# ---------------------------------------------------------------- init


def test_init_deterministic():
    config = tiny_config("netfv", "separate")
    a = init_model(config, seed=9)
    b = init_model(config, seed=9)
    for (name_a, arr_a), arr_b in zip(a.arrays.items(), b.arrays.values()):
        assert arr_a.tobytes() == arr_b.tobytes(), name_a


def test_output_layer_param_count_h1_l1():
    config = ModelConfig(pooling_kind="netvlad", cluster_size=1, hidden_size=1,
                         d_video=1, d_audio=0, vocab_size=1, modality_mode="concatenated")
    model = init_model(config, seed=0)
    assert model.out_w.size + model.out_b.size == 2


def test_hidden_weight_fan_in_scaling():
    # pooled_dim = K * D = 16 * 64 = 1024 in concatenated netvlad mode
    config = ModelConfig(pooling_kind="netvlad", cluster_size=16, hidden_size=16,
                         d_video=64, d_audio=0, vocab_size=2, modality_mode="concatenated")
    model = init_model(config, seed=1)
    assert config.pooled_dim == 1024
    std = model.hidden_w.std()
    assert abs(std - 1 / 32) / (1 / 32) < 0.10


# ---------------------------------------------------------------- forward


def test_zero_weights_give_half_probabilities():
    for kind in ("netvlad", "netfv"):
        model = zero_model(tiny_config(kind, "separate"))
        rng = np.random.default_rng(0)
        probs, _ = model_forward(make_batch(rng, model.config), model)
        np.testing.assert_array_equal(probs, np.full((2, 5), 0.5))


def test_scalar_reference_probability():
    # 1x1 netvlad pooling gives descriptor sign(x - center) = +1; the head is
    # then hand-evaluated: relu(2 * 1 + 0.5) = 2.5, logits [2.6, -4.7].
    config = ModelConfig(pooling_kind="netvlad", cluster_size=1, hidden_size=1,
                         d_video=1, d_audio=0, vocab_size=2, modality_mode="concatenated")
    model = init_model(config, seed=0)
    model.video_pool.assign_weights[:] = 0.0
    model.video_pool.assign_bias[:] = 0.0
    model.video_pool.centers[:] = 0.5
    model.hidden_w[:] = 2.0
    model.hidden_b[:] = 0.5
    model.out_w[:] = np.array([[1.0, -2.0]])
    model.out_b[:] = np.array([0.1, 0.3])
    probs, _ = model_forward([np.array([[2.0]])], model)

    def sigmoid(z):
        return 1 / (1 + np.exp(-z))

    np.testing.assert_allclose(probs, [[sigmoid(2.6), sigmoid(-4.7)]], rtol=1e-12)


def test_identical_records_identical_rows():
    model = init_model(tiny_config("netfv", "separate"), seed=3)
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((5, 6))
    probs, _ = model_forward([frames, frames.copy()], model)
    np.testing.assert_array_equal(probs[0], probs[1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31),
       st.sampled_from(["netvlad", "netfv"]),
       st.sampled_from(["separate", "concatenated"]))
def test_forward_permutation_invariance(seed, kind, mode):
    rng = np.random.default_rng(seed)
    model = init_model(tiny_config(kind, mode), seed=seed % 1000)
    batch = make_batch(rng, model.config, lengths=(4, 3, 5))
    probs, _ = model_forward(batch, model)
    # batch order permutes rows; frame order within a record changes nothing
    order = rng.permutation(3)
    shuffled = [batch[i][rng.permutation(batch[i].shape[0])] for i in order]
    probs2, _ = model_forward(shuffled, model)
    np.testing.assert_allclose(probs2, probs[order], atol=1e-12)


def test_probabilities_strictly_interior():
    model = init_model(tiny_config("netvlad", "separate"), seed=5)
    model.out_w[:] *= 1e6  # force saturating logits
    rng = np.random.default_rng(6)
    probs, _ = model_forward(make_batch(rng, model.config), model)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_forward_errors():
    model = init_model(tiny_config("netvlad", "separate"), seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        model_forward([], model)
    with pytest.raises(ValueError, match="inconsistent"):
        model_forward([np.zeros((2, 99))], model)
    with pytest.raises(ValueError, match="T>=1"):
        model_forward([np.zeros((0, 6))], model)


# ---------------------------------------------------------------- backward


def test_zero_upstream_zero_gradients():
    model = init_model(tiny_config("netfv", "separate"), seed=7)
    rng = np.random.default_rng(8)
    probs, cache = model_forward(make_batch(rng, model.config), model)
    grads = model_backward(np.zeros_like(probs), cache)
    for name, arr in grads.arrays.items():
        assert np.all(arr == 0.0), name


def test_dead_relu_unit_gets_zero_gradient():
    model = init_model(tiny_config("netvlad", "separate"), seed=9)
    model.hidden_b[1] = -100.0  # unit 1 can never activate
    rng = np.random.default_rng(10)
    probs, cache = model_forward(make_batch(rng, model.config), model)
    assert np.all(cache.hidden_pre[:, 1] < 0)
    grads = model_backward(rng.standard_normal(probs.shape), cache)
    assert np.all(grads.arrays["hidden_w"][:, 1] == 0.0)
    assert grads.arrays["hidden_b"][1] == 0.0


@pytest.mark.parametrize("kind", ["netvlad", "netfv"])
@pytest.mark.parametrize("mode", ["separate", "concatenated"])
def test_end_to_end_gradients_match_finite_differences(kind, mode):
    rng = np.random.default_rng(11)
    model = init_model(tiny_config(kind, mode), seed=12)
    batch = make_batch(rng, model.config)
    targets = (rng.uniform(size=(2, 5)) < 0.4).astype(np.int64)
    loss_params = HuberParams(delta=1.0)

    probs, cache = model_forward(batch, model)
    _, dprobs = multilabel_loss(probs, targets, loss_params)
    grads = model_backward(dprobs, cache)

    def loss():
        p, _ = model_forward(batch, model)
        return multilabel_loss(p, targets, loss_params)[0]

    grad_map = grads.arrays
    for name, arr in model.arrays.items():
        assert_grad_matches(grad_map[name], loss, arr, name)
    for i, frames in enumerate(batch):
        assert grads.frames[i].shape == frames.shape
        assert_grad_matches(grads.frames[i], loss, frames, f"frames[{i}]")


def test_backward_shape_mismatch_rejected():
    model = init_model(tiny_config("netvlad", "separate"), seed=0)
    rng = np.random.default_rng(1)
    _, cache = model_forward(make_batch(rng, model.config), model)
    with pytest.raises(ValueError, match="dprobs"):
        model_backward(np.zeros((1, 5)), cache)


# ---------------------------------------------------------------- accounting


@settings(max_examples=100, deadline=None)
@given(config_strategy)
def test_parameter_count_matches_enumeration(config):
    model = init_model(config, seed=0)
    total = sum(arr.size for arr in model.arrays.values())
    assert parameter_count(config) == total


def test_seven_parameter_minimal_model():
    config = ModelConfig(pooling_kind="netvlad", cluster_size=1, hidden_size=1,
                         d_video=1, d_audio=0, vocab_size=1, modality_mode="concatenated")
    assert parameter_count(config) == 7


def test_challenge_scale_size_accounting():
    # Wide single-tower configuration: blows the 1 GB budget.
    concat = ModelConfig(pooling_kind="netvlad", cluster_size=192, hidden_size=1200,
                         d_video=1024, d_audio=128, vocab_size=3862,
                         modality_mode="concatenated")
    assert concat.pooled_dim == 221_184
    assert parameter_count(concat) == 270_502_822
    assert size_bytes(concat) == 1_082_011_288
    ok, report = check_size_limit(concat)
    assert not ok
    assert "exceeds" in report

    # Split towers (audio cluster size 48): fits under the same budget.
    separate = ModelConfig(pooling_kind="netvlad", cluster_size=192, hidden_size=1200,
                           d_video=1024, d_audio=128, vocab_size=3862,
                           modality_mode="separate", audio_cluster_size=48)
    assert separate.pooled_dim == 202_752
    assert parameter_count(separate) == 248_347_606
    assert size_bytes(separate) == 993_390_424
    ok, report = check_size_limit(separate)
    assert ok
    assert "within" in report


def test_size_limit_boundaries():
    tiny = ModelConfig(pooling_kind="netfv", cluster_size=2, hidden_size=4,
                       d_video=3, d_audio=2, vocab_size=5)
    ok, _ = check_size_limit(tiny)
    assert ok
    ok, _ = check_size_limit(tiny, limit_bytes=0)
    assert not ok
    # fails iff size >= limit: exactly at the limit is a failure
    ok, _ = check_size_limit(tiny, limit_bytes=size_bytes(tiny))
    assert not ok
    ok, _ = check_size_limit(tiny, limit_bytes=size_bytes(tiny) + 1)
    assert ok


def test_set_output_prior_moves_initial_probabilities():
    config = ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=4,
                         d_video=3, d_audio=2, vocab_size=6)
    model = init_model(config, seed=0)
    set_output_prior(model, 0.04)
    assert np.allclose(model.out_b, np.log(0.04 / 0.96))
    # with the hidden contribution zeroed out, every probability is the prior
    model.out_w[:] = 0.0
    probs, _ = model_forward([np.random.default_rng(1).standard_normal((3, 5))],
                             model)
    assert np.allclose(probs, 0.04)


def test_set_output_prior_rejects_degenerate_values():
    config = ModelConfig(pooling_kind="netvlad", cluster_size=2, hidden_size=4,
                         d_video=3, d_audio=2, vocab_size=6)
    model = init_model(config, seed=0)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="prior"):
            set_output_prior(model, bad)
