"""The full classifier: per-modality pooling, hidden ReLU layer, sigmoid output.

Each video's frame rows carry video features then audio features.  In
"separate" mode the two column blocks are pooled by independent towers and the
pooled descriptors concatenated; in "concatenated" mode one tower pools the
full rows.  A batch is zero-padded once, straight into one contiguous
(B, Tmax, width) array per tower, and each tower pools its own in one kernel
call.  The pooled vectors then pass through hidden ReLU and
sigmoid output layers, giving one probability per label.

Separate mode exists because the wide concatenated configuration at
challenge-scale dimensions breaks the 1 GB single-model budget that
check_size_limit enforces; both modes share all other machinery.

The parameter layout is decided here alone.  param_spec lists every trainable
array by name and shape: per tower the assignment weights, assignment bias,
centers and (NetFV) spreads, then the hidden and output layers.  All of them
live in one contiguous float64 vector in that order; a Model reads and writes
them through named views.  model_backward returns the gradient as a Model of
the same config, so gradients have the same layout and names, and the
optimizer and the checkpoint work on that layout too.

Everything differentiable here is backed by a hand-written backward pass;
tests pin each piece to finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pooling import Tower, fv_backward, fv_forward, vlad_backward, vlad_forward

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
        # the type check matters for a config read back from a checkpoint or a JSON
        # file; a bool passes isinstance(int) but fails as an array dimension
        for name, low in (("cluster_size", 1), ("hidden_size", 1), ("d_video", 1),
                          ("d_audio", 0), ("vocab_size", 1), ("audio_cluster_size", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

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


ParamSpec = list[tuple[str, tuple[int, ...]]]


def param_spec(config: ModelConfig) -> ParamSpec:
    """(name, shape) of every trainable array, in the order they take in the
    flat parameter vector and in a checkpoint; names are stable identifiers."""
    config.validate()

    def tower(prefix: str, d: int, k: int) -> ParamSpec:
        spec = [(f"{prefix}.assign_weights", (d, k)), (f"{prefix}.assign_bias", (k,)),
                (f"{prefix}.centers", (k, d))]
        if config.pooling_kind == "netfv":
            spec.append((f"{prefix}.spreads", (k, d)))
        return spec

    if config.modality_mode == "concatenated":
        spec = tower("video_pool", config.feature_dim, config.cluster_size)
    else:
        spec = tower("video_pool", config.d_video, config.cluster_size)
        if config.has_audio_tower:
            spec += tower("audio_pool", config.d_audio, config.effective_audio_clusters)
    h, labels = config.hidden_size, config.vocab_size
    return spec + [("hidden_w", (config.pooled_dim, h)), ("hidden_b", (h,)),
                   ("out_w", (h, labels)), ("out_b", (labels,))]


def param_views(flat: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Each array of param_spec(config), by name, as a view into a flat vector."""
    views, start = {}, 0
    for name, shape in param_spec(config):
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    if flat.shape != (start,):
        raise ValueError(f"flat vector has shape {flat.shape}, the layout needs ({start},)")
    return views


def parameter_count(config: ModelConfig) -> int:
    """Total size of param_spec(config); allocates nothing."""
    return sum(math.prod(shape) for _, shape in param_spec(config))


class Model:
    """A classifier's parameters, or their gradients: one contiguous float64
    vector in param_spec order, read and written through named views.

    `arrays` maps every param_spec name to its view; `video_pool` and
    `audio_pool` (None without an audio tower) are Towers of the same views,
    and the head has one attribute per array.  An in-place update of `flat`
    is seen through all of them.  `floored` holds the views that must stay at
    or above EPS_SPREAD: the NetFV spreads, empty for NetVLAD.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None):
        self.config = config
        self.flat = np.zeros(parameter_count(config)) if flat is None else flat
        self.arrays = param_views(self.flat, config)
        towers: dict[str, dict[str, np.ndarray]] = {}
        for name, view in self.arrays.items():
            tower, _, field = name.rpartition(".")
            if tower:
                towers.setdefault(tower, {})[field] = view
        self.video_pool = Tower(**towers["video_pool"])
        self.audio_pool = Tower(**towers["audio_pool"]) if "audio_pool" in towers else None
        self.hidden_w = self.arrays["hidden_w"]  # (pooled_dim, H)
        self.hidden_b = self.arrays["hidden_b"]  # (H,)
        self.out_w = self.arrays["out_w"]  # (H, L)
        self.out_b = self.arrays["out_b"]  # (L,)
        self.floored = [fields["spreads"] for fields in towers.values() if "spreads" in fields]


class ModelGradients(Model):
    """Every parameter's gradient, laid out and named as the Model's own."""

    frames: list[np.ndarray]  # per record, input-shaped dX


def init_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic initialization: draws in param_spec order, biases zero,
    spreads one."""
    model = Model(config)
    rng = np.random.default_rng(seed)
    for name, arr in model.arrays.items():
        field = name.rpartition(".")[2]
        # 1/sqrt(fan_in) keeps assignment logits at unit scale; centers match the
        # roughly unit-norm rows the synthetic generator emits (entries ~ 1/sqrt(d)).
        if field == "assign_weights":
            arr[:] = (1.0 / np.sqrt(arr.shape[0])) * rng.standard_normal(arr.shape)
        elif field == "centers":
            arr[:] = (1.0 / np.sqrt(arr.shape[1])) * rng.standard_normal(arr.shape)
        elif field == "spreads":
            arr[:] = 1.0
        elif field in ("hidden_w", "out_w"):
            arr[:] = rng.standard_normal(arr.shape) / np.sqrt(arr.shape[0])
    return model


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
    # Two-branch form never exponentiates a positive number: with e = exp(-|z|)
    # it is 1 / (1 + e) for z >= 0 and e / (1 + e) below.  The clip keeps
    # probabilities strictly inside (0, 1) even where float64 would round to
    # an endpoint.
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return np.clip(out, PROB_FLOOR, 1.0 - PROB_FLOOR, out=out)


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


def _pad(batch: list[np.ndarray], widths: list[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Records stacked and zero-padded, straight into one contiguous float64
    (B, Tmax, w) array per column block w of `widths`, plus the lengths."""
    batch, width = [np.asarray(frames) for frames in batch], sum(widths)
    for frames in batch:
        if frames.ndim != 2 or frames.shape[1] != width:
            raise ValueError(f"record shape {frames.shape} inconsistent with feature_dim {width}")
    lengths = np.array([len(frames) for frames in batch])
    real = np.arange(lengths.max()) < lengths[:, None]
    rows, ends = np.concatenate(batch), np.cumsum(widths)
    blocks = [np.zeros(real.shape + (w,)) for w in widths]
    for block, end, w in zip(blocks, ends, widths):
        block[real] = rows[:, end - w:end]
    return blocks, lengths


def model_forward(batch: list[np.ndarray], model: Model) -> tuple[np.ndarray, ForwardCache]:
    """Probabilities (B, L) for a batch of per-video frame matrices."""
    cfg = model.config
    if len(batch) == 0:
        raise ValueError("empty batch")
    pool = _kernels(cfg.pooling_kind)[0]
    if model.audio_pool is None:
        (frames,), lengths = _pad(batch, [cfg.feature_dim])
        pooled, video_cache = pool(frames, model.video_pool, lengths)
        audio_cache = None
    else:
        (video, audio), lengths = _pad(batch, [cfg.d_video, cfg.d_audio])
        video, video_cache = pool(video, model.video_pool, lengths)
        audio, audio_cache = pool(audio, model.audio_pool, lengths)
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

    grads = ModelGradients(cfg)
    p = cache.probs
    dlogits = dprobs * p * (1.0 - p)
    grads.out_w[...] = cache.hidden_act.T @ dlogits
    grads.out_b[...] = dlogits.sum(axis=0)
    d_hidden_act = dlogits @ model.out_w.T
    d_hidden_pre = d_hidden_act * (cache.hidden_pre > 0)
    grads.hidden_w[...] = cache.pooled.T @ d_hidden_pre
    grads.hidden_b[...] = d_hidden_pre.sum(axis=0)
    d_pooled = d_hidden_pre @ model.hidden_w.T

    pool_backward = _kernels(cfg.pooling_kind)[1]
    if cache.audio_cache is None:
        dframes = pool_backward(d_pooled, cache.video_cache, grads.video_pool)
    else:
        video_width = cfg._tower_width(cfg.d_video, cfg.cluster_size)
        dframes = np.concatenate([
            pool_backward(d_pooled[:, :video_width], cache.video_cache, grads.video_pool),
            pool_backward(d_pooled[:, video_width:], cache.audio_cache, grads.audio_pool)], 2)
    grads.frames = [row[:t] for row, t in zip(dframes, cache.lengths)]
    return grads
