"""The full classifier: per-modality pooling, hidden ReLU layer, sigmoid output.

Each video's frame rows carry video features then audio features.  In
"separate" mode the two column blocks are pooled by independent towers and the
pooled descriptors concatenated; in "concatenated" mode one tower pools the
full rows.  A batch is zero-padded to (B, Tmax, D) once, and each tower pools
it in one kernel call.  The pooled vectors then pass through hidden ReLU and
sigmoid output layers, giving one probability per label.

Separate mode exists because the wide concatenated configuration at
challenge-scale dimensions breaks the 1 GB single-model budget that
check_size_limit enforces; both modes share all other machinery.

Everything differentiable here is backed by a hand-written backward pass;
tests pin each piece to finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pooling import (
    FvParams,
    PoolGradients,
    VladParams,
    fv_backward,
    fv_forward,
    vlad_backward,
    vlad_forward,
)

POOLING_KINDS = ("netvlad", "netfv")
MODALITY_MODES = ("separate", "concatenated")
PROB_FLOOR = 1e-12  # sigmoid outputs are clipped to [PROB_FLOOR, 1 - PROB_FLOOR]


@dataclass(frozen=True)
class ModelConfig:
    pooling_kind: str
    cluster_size: int
    hidden_size: int
    d_video: int
    d_audio: int
    vocab_size: int
    modality_mode: str = "separate"
    audio_cluster_size: int = 0  # 0 means max(1, cluster_size // 4)

    def validate(self) -> None:
        if self.pooling_kind not in POOLING_KINDS:
            raise ValueError(f"pooling_kind must be one of {POOLING_KINDS}")
        if self.modality_mode not in MODALITY_MODES:
            raise ValueError(f"modality_mode must be one of {MODALITY_MODES}")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.d_video < 1:
            raise ValueError(f"d_video must be >= 1, got {self.d_video}")
        if self.d_audio < 0:
            raise ValueError(f"d_audio must be >= 0, got {self.d_audio}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.audio_cluster_size < 0:
            raise ValueError(f"audio_cluster_size must be >= 0, got {self.audio_cluster_size}")

    @property
    def feature_dim(self) -> int:
        return self.d_video + self.d_audio

    @property
    def effective_audio_clusters(self) -> int:
        if self.audio_cluster_size > 0:
            return self.audio_cluster_size
        return max(1, self.cluster_size // 4)

    @property
    def has_audio_tower(self) -> bool:
        return self.modality_mode == "separate" and self.d_audio > 0

    def _tower_width(self, d: int, k: int) -> int:
        per_cluster = 2 * d if self.pooling_kind == "netfv" else d
        return k * per_cluster

    @property
    def pooled_dim(self) -> int:
        if self.modality_mode == "concatenated":
            return self._tower_width(self.feature_dim, self.cluster_size)
        width = self._tower_width(self.d_video, self.cluster_size)
        if self.has_audio_tower:
            width += self._tower_width(self.d_audio, self.effective_audio_clusters)
        return width


@dataclass
class Model:
    config: ModelConfig
    video_pool: VladParams  # FvParams when pooling_kind == "netfv"
    audio_pool: VladParams | None
    hidden_w: np.ndarray  # (pooled_dim, H)
    hidden_b: np.ndarray  # (H,)
    out_w: np.ndarray  # (H, L)
    out_b: np.ndarray  # (L,)


@dataclass
class ModelGradients:
    video_pool: PoolGradients
    audio_pool: PoolGradients | None
    hidden_w: np.ndarray
    hidden_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    frames: list[np.ndarray]  # per record, input-shaped dX


def _init_tower(rng: np.random.Generator, kind: str, d: int, k: int):
    # 1/sqrt(fan_in) keeps assignment logits at unit scale; centers match the
    # roughly unit-norm rows the synthetic generator emits (entries ~ 1/sqrt(d)).
    scale = 1.0 / np.sqrt(d)
    weights = scale * rng.standard_normal((d, k))
    bias = np.zeros(k)
    centers = scale * rng.standard_normal((k, d))
    if kind == "netfv":
        return FvParams(assign_weights=weights, assign_bias=bias, centers=centers,
                        spreads=np.ones((k, d)))
    return VladParams(assign_weights=weights, assign_bias=bias, centers=centers)


def init_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic initialization; fixed draw order, biases zero."""
    config.validate()
    rng = np.random.default_rng(seed)
    if config.modality_mode == "concatenated":
        video_pool = _init_tower(rng, config.pooling_kind, config.feature_dim,
                                 config.cluster_size)
        audio_pool = None
    else:
        video_pool = _init_tower(rng, config.pooling_kind, config.d_video,
                                 config.cluster_size)
        audio_pool = (_init_tower(rng, config.pooling_kind, config.d_audio,
                                  config.effective_audio_clusters)
                      if config.has_audio_tower else None)
    pooled = config.pooled_dim
    hidden_w = rng.standard_normal((pooled, config.hidden_size)) / np.sqrt(pooled)
    hidden_b = np.zeros(config.hidden_size)
    out_w = rng.standard_normal((config.hidden_size, config.vocab_size)) / np.sqrt(
        config.hidden_size)
    out_b = np.zeros(config.vocab_size)
    return Model(config=config, video_pool=video_pool, audio_pool=audio_pool,
                 hidden_w=hidden_w, hidden_b=hidden_b, out_w=out_w, out_b=out_b)


def set_output_prior(model: Model, prior: float) -> None:
    """Shift the output biases so every initial probability equals `prior`.

    Multi-label targets are mostly zeros; starting the sigmoid outputs at the
    base label rate instead of 0.5 avoids the violent first correction that
    otherwise loads the optimizer's second-moment estimates and stalls short
    training runs.  Call after init_model; pass the dataset's labels-per-video
    over vocab_size (or any estimate in (0, 1)).
    """
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must be in (0, 1), got {prior}")
    model.out_b[:] = np.log(prior / (1.0 - prior))


def parameter_arrays(model: Model) -> list[tuple[str, np.ndarray]]:
    """All trainable arrays in a fixed order; names are stable identifiers."""
    out: list[tuple[str, np.ndarray]] = []
    towers = [("video_pool", model.video_pool)]
    if model.audio_pool is not None:
        towers.append(("audio_pool", model.audio_pool))
    for prefix, tower in towers:
        out.append((f"{prefix}.assign_weights", tower.assign_weights))
        out.append((f"{prefix}.assign_bias", tower.assign_bias))
        out.append((f"{prefix}.centers", tower.centers))
        if isinstance(tower, FvParams):
            out.append((f"{prefix}.spreads", tower.spreads))
    out.append(("hidden_w", model.hidden_w))
    out.append(("hidden_b", model.hidden_b))
    out.append(("out_w", model.out_w))
    out.append(("out_b", model.out_b))
    return out


def gradient_arrays(grads: ModelGradients, model: Model) -> list[tuple[str, np.ndarray]]:
    """Gradient arrays in the same order and naming as parameter_arrays."""
    out: list[tuple[str, np.ndarray]] = []
    towers = [("video_pool", grads.video_pool, model.video_pool)]
    if model.audio_pool is not None:
        towers.append(("audio_pool", grads.audio_pool, model.audio_pool))
    for prefix, g, params in towers:
        out.append((f"{prefix}.assign_weights", g.assign_weights))
        out.append((f"{prefix}.assign_bias", g.assign_bias))
        out.append((f"{prefix}.centers", g.centers))
        if isinstance(params, FvParams):
            out.append((f"{prefix}.spreads", g.spreads))
    out.append(("hidden_w", grads.hidden_w))
    out.append(("hidden_b", grads.hidden_b))
    out.append(("out_w", grads.out_w))
    out.append(("out_b", grads.out_b))
    return out


def parameter_count(config: ModelConfig) -> int:
    """Closed-form parameter total; must equal enumerating parameter_arrays."""
    config.validate()

    def tower(d: int, k: int) -> int:
        n = d * k + k + k * d  # assignment weights + bias + centers
        if config.pooling_kind == "netfv":
            n += k * d  # spreads
        return n

    if config.modality_mode == "concatenated":
        total = tower(config.feature_dim, config.cluster_size)
    else:
        total = tower(config.d_video, config.cluster_size)
        if config.has_audio_tower:
            total += tower(config.d_audio, config.effective_audio_clusters)
    pooled = config.pooled_dim
    total += pooled * config.hidden_size + config.hidden_size
    total += config.hidden_size * config.vocab_size + config.vocab_size
    return total


def size_bytes(config: ModelConfig, bytes_per_param: int = 4) -> int:
    return parameter_count(config) * bytes_per_param


def check_size_limit(config: ModelConfig, limit_bytes: int = 2**30) -> tuple[bool, str]:
    """Single-model size budget check; fails at exactly the limit."""
    size = size_bytes(config)
    ok = size < limit_bytes
    verdict = "within" if ok else "exceeds"
    report = (f"{config.pooling_kind}/{config.modality_mode}: "
              f"{parameter_count(config):,} params = {size:,} bytes "
              f"{verdict} limit {limit_bytes:,}")
    return ok, report


def _kernels(kind: str):
    # looked up at call time, so that a rebinding of the module names takes effect
    return (fv_forward, fv_backward) if kind == "netfv" else (vlad_forward, vlad_backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Two-branch form never exponentiates a positive number; the clip keeps
    # probabilities strictly inside (0, 1) even where float64 would round to
    # an endpoint.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, PROB_FLOOR, 1.0 - PROB_FLOOR)


@dataclass
class ForwardCache:
    model: Model
    lengths: np.ndarray  # (B,) frames per record
    video_cache: object  # pooling cache of the video (or only) tower
    audio_cache: object | None
    pooled: np.ndarray  # (B, pooled_dim)
    hidden_pre: np.ndarray  # (B, H)
    hidden_act: np.ndarray  # (B, H)
    probs: np.ndarray  # (B, L)


def _pad(batch: list[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Records stacked into one zero-padded (B, Tmax, width) array, plus lengths."""
    records = [np.asarray(frames, dtype=np.float64) for frames in batch]
    for frames in records:
        if frames.ndim != 2 or frames.shape[1] != width:
            raise ValueError(f"record shape {frames.shape} inconsistent with feature_dim {width}")
    lengths = np.array([len(frames) for frames in records])
    padded = np.zeros((len(records), lengths.max(), width))
    for row, frames in zip(padded, records):
        row[: len(frames)] = frames
    return padded, lengths


def model_forward(batch: list[np.ndarray], model: Model) -> tuple[np.ndarray, ForwardCache]:
    """Probabilities (B, L) for a batch of per-video frame matrices."""
    cfg = model.config
    if len(batch) == 0:
        raise ValueError("empty batch")
    pool = _kernels(cfg.pooling_kind)[0]
    frames, lengths = _pad(batch, cfg.feature_dim)
    if model.audio_pool is None:
        pooled, video_cache = pool(frames, model.video_pool, lengths)
        audio_cache = None
    else:
        video, video_cache = pool(frames[:, :, : cfg.d_video], model.video_pool, lengths)
        audio, audio_cache = pool(frames[:, :, cfg.d_video:], model.audio_pool, lengths)
        pooled = np.concatenate([video, audio], axis=1)

    hidden_pre = pooled @ model.hidden_w + model.hidden_b
    hidden_act = np.maximum(hidden_pre, 0.0)
    probs = _sigmoid(hidden_act @ model.out_w + model.out_b)
    cache = ForwardCache(model=model, lengths=lengths, video_cache=video_cache,
                         audio_cache=audio_cache, pooled=pooled, hidden_pre=hidden_pre,
                         hidden_act=hidden_act, probs=probs)
    return probs, cache


def model_backward(dprobs: np.ndarray, cache: ForwardCache) -> ModelGradients:
    """Exact gradients of sum(dprobs * probs_linearized) for every parameter."""
    model = cache.model
    cfg = model.config
    dprobs = np.asarray(dprobs, dtype=np.float64)
    if dprobs.shape != cache.probs.shape:
        raise ValueError(f"dprobs shape {dprobs.shape}, cache expects {cache.probs.shape}")

    p = cache.probs
    dlogits = dprobs * p * (1.0 - p)
    d_out_w = cache.hidden_act.T @ dlogits
    d_out_b = dlogits.sum(axis=0)
    d_hidden_act = dlogits @ model.out_w.T
    d_hidden_pre = d_hidden_act * (cache.hidden_pre > 0)
    d_hidden_w = cache.pooled.T @ d_hidden_pre
    d_hidden_b = d_hidden_pre.sum(axis=0)
    d_pooled = d_hidden_pre @ model.hidden_w.T

    pool_backward = _kernels(cfg.pooling_kind)[1]
    video_width, audio = cfg.pooled_dim, None
    if cache.audio_cache is not None:
        video_width = cfg._tower_width(cfg.d_video, cfg.cluster_size)
        audio = pool_backward(d_pooled[:, video_width:], cache.audio_cache)
    video = pool_backward(d_pooled[:, :video_width], cache.video_cache)
    dframes = video.frames if audio is None else np.concatenate([video.frames, audio.frames], 2)
    return ModelGradients(video_pool=video, audio_pool=audio, hidden_w=d_hidden_w,
                          hidden_b=d_hidden_b, out_w=d_out_w, out_b=d_out_b,
                          frames=[row[:t] for row, t in zip(dframes, cache.lengths)])
