"""Trainable pooling of frame features into fixed-size video descriptors.

Each kernel pools one padded batch per call: `frames` is (B, T, D) and the
first `lengths[b]` rows of video b are real; the rest is padding (zeros from
model_forward).  Logits are X @ W + b and A is their softmax over K clusters,
zeroed on padded rows, so every sum runs over real frames only and padding
gets exactly zero gradient.  Per video, with moments
    S0 = A^T 1,   S1 = A^T X,   S2 = A^T (X * X):

vlad (K*D): V = sum_t A[t, k] (X[t] - c[k]) = S1 - S0 c; each cluster row of
    V is L2-normalized, then the flat vector is.
fv (2*K*D): sufficient statistics of the scaled residuals
    E = (X[t] - c[k]) / s[k], so the (T, K, D) tensor E is never built:
    F1 = sum_t A E          = (S1 - c S0) / s
    F2 = sum_t A (E**2 - 1) = (S2 - 2 c S1 + c**2 S0) / s**2 - S0
    F1 and F2 are L2-normalized independently and concatenated.

Backward passes run through the same moments: the descriptor gradient gives
dS0, dS1 (and dS2), then dA = dS0 + X dS1^T + (X*X) dS2^T and
dX = A dS1 + 2 X * (A dS2) before the softmax backward.  Parameter gradients
are summed over the batch; the (B, T, D) dX is always returned, as the
end-to-end gradient checks read it and it costs little.

The rules are hand-derived and pinned in the tests to finite differences and
to the per-record reference kernels.  All math runs in float64.  A vector
with norm below NORM_GUARD is left unnormalized and its normalization is the
identity in the backward pass; the descriptor is non-differentiable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_GUARD = 1e-12
EPS_SPREAD = 1e-3  # hard floor for fv spreads, enforced here and by the optimizer


@dataclass
class VladParams:
    assign_weights: np.ndarray  # (D, K)
    assign_bias: np.ndarray  # (K,)
    centers: np.ndarray  # (K, D)

    @property
    def d(self) -> int:
        return self.assign_weights.shape[0]

    @property
    def k(self) -> int:
        return self.assign_weights.shape[1]

    def validate(self) -> None:
        d, k = self.assign_weights.shape
        if self.assign_bias.shape != (k,):
            raise ValueError(f"assign_bias shape {self.assign_bias.shape}, expected ({k},)")
        if self.centers.shape != (k, d):
            raise ValueError(f"centers shape {self.centers.shape}, expected ({k}, {d})")
        for name in ("assign_weights", "assign_bias", "centers"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite values in {name}")


@dataclass
class FvParams(VladParams):
    spreads: np.ndarray  # (K, D), elementwise >= EPS_SPREAD

    def validate(self) -> None:
        super().validate()
        if self.spreads.shape != self.centers.shape:
            raise ValueError(f"spreads shape {self.spreads.shape}, expected {self.centers.shape}")
        if not np.isfinite(self.spreads).all():
            raise ValueError("non-finite values in spreads")
        if np.any(self.spreads < EPS_SPREAD):
            raise ValueError(f"spreads must be >= {EPS_SPREAD}")


@dataclass
class PoolGradients:
    frames: np.ndarray  # (B, T, D), exactly zero on padded rows
    assign_weights: np.ndarray
    assign_bias: np.ndarray
    centers: np.ndarray
    spreads: np.ndarray | None = None


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted so logits up to +-1e4 cannot overflow."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_batch(frames: np.ndarray, lengths: np.ndarray, d: int):
    """(contiguous float64 frames, (B, T) mask of real rows) for a padded batch."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    lengths = np.asarray(lengths)
    if frames.ndim != 3 or frames.shape[0] < 1 or lengths.shape != frames.shape[:1]:
        raise ValueError(f"frames must be a (B>=1, T>=1, D) batch with one length per "
                         f"video, got shapes {frames.shape} and {lengths.shape}")
    if lengths.min() < 1 or lengths.max() > frames.shape[1]:
        raise ValueError(f"every video needs T>=1 frames within the {frames.shape[1]} "
                         f"padded rows, got lengths {lengths.min()}..{lengths.max()}")
    if frames.shape[2] != d:
        raise ValueError(f"frames have {frames.shape[2]} columns, params expect {d}")
    if not np.isfinite(frames).all():
        raise ValueError("non-finite values in frames")
    return frames, np.arange(frames.shape[1]) < lengths[:, None]


def _assign(x: np.ndarray, params: VladParams, mask: np.ndarray) -> np.ndarray:
    b, t, d = x.shape
    logits = (x.reshape(b * t, d) @ params.assign_weights).reshape(b, t, -1)
    return row_softmax(logits + params.assign_bias) * mask[:, :, None]


def _assign_backward(x: np.ndarray, a: np.ndarray, da: np.ndarray, dx: np.ndarray,
                     params: VladParams, **grads) -> PoolGradients:
    """Through the masked softmax into dX, W and b; padded rows have A = 0."""
    b, t, d = x.shape
    dz = (a * (da - (da * a).sum(axis=2, keepdims=True))).reshape(b * t, -1)
    dx += (dz @ params.assign_weights.T).reshape(b, t, d)
    return PoolGradients(frames=dx, assign_weights=x.reshape(b * t, d).T @ dz,
                         assign_bias=dz.sum(axis=0), **grads)


def _normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize along the last axis; below NORM_GUARD a vector passes through."""
    r = np.linalg.norm(v, axis=-1)
    guarded = (r < NORM_GUARD)[..., None]
    return np.where(guarded, v, v / np.where(guarded, 1.0, r[..., None])), r


def _normalize_backward(g: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    # d/dv of <g, v/|v|> = (g - y (g.y)) / |v|; identity on the guard branch.
    guarded = (r < NORM_GUARD)[..., None]
    dots = (g * y).sum(axis=-1, keepdims=True)
    return np.where(guarded, g, (g - y * dots) / np.where(guarded, 1.0, r[..., None]))


def _check_upstream(upstream: np.ndarray, cache, width: int) -> np.ndarray:
    upstream = np.asarray(upstream, dtype=np.float64)
    expected = (len(cache.frames), width)
    if upstream.shape != expected:
        raise ValueError(f"upstream shape {upstream.shape}, cache expects {expected}")
    return upstream


@dataclass
class _VladCache:
    frames: np.ndarray  # (B, T, D)
    params: VladParams
    assign: np.ndarray  # (B, T, K) softmax rows, zero on padding
    mass: np.ndarray  # (B, K) = S0
    row_vecs: np.ndarray  # (B, K, D) intra-normalized cluster rows
    row_norms: np.ndarray  # (B, K)
    flat_vec: np.ndarray  # (B, K*D) final descriptors
    flat_norm: np.ndarray  # (B,)


def vlad_forward(frames: np.ndarray, params: VladParams,
                 lengths: np.ndarray) -> tuple[np.ndarray, _VladCache]:
    """(B, K*D) descriptors of a padded (B, T, D) batch with per-video lengths."""
    params.validate()
    x, mask = _check_batch(frames, lengths, params.d)
    a = _assign(x, params, mask)
    mass = a.sum(axis=1)
    v = np.matmul(a.transpose(0, 2, 1), x) - mass[:, :, None] * params.centers
    row_vecs, row_norms = _normalize(v)
    flat_vec, flat_norm = _normalize(row_vecs.reshape(len(x), -1))
    cache = _VladCache(frames=x, params=params, assign=a, mass=mass, row_vecs=row_vecs,
                       row_norms=row_norms, flat_vec=flat_vec, flat_norm=flat_norm)
    return flat_vec.copy(), cache


def vlad_backward(upstream: np.ndarray, cache: _VladCache) -> PoolGradients:
    p = cache.params
    x, a = cache.frames, cache.assign
    upstream = _check_upstream(upstream, cache, p.k * p.d)
    d_rows = _normalize_backward(upstream, cache.flat_vec, cache.flat_norm)
    dv = _normalize_backward(d_rows.reshape(cache.row_vecs.shape), cache.row_vecs,
                             cache.row_norms)
    da = np.matmul(x, dv.transpose(0, 2, 1)) - (dv * p.centers).sum(axis=2)[:, None, :]
    dc = -(cache.mass[:, :, None] * dv).sum(axis=0)
    return _assign_backward(x, a, da, np.matmul(a, dv), p, centers=dc)


@dataclass
class _FvCache:
    frames: np.ndarray  # (B, T, D)
    params: FvParams
    assign: np.ndarray  # (B, T, K), zero on padding
    s0: np.ndarray  # (B, K, 1)
    s1: np.ndarray  # (B, K, D)
    halves: np.ndarray  # (B, 2, K, D) raw F1 and F2
    vecs: np.ndarray  # (B, 2, K*D) normalized halves
    norms: np.ndarray  # (B, 2)


def fv_forward(frames: np.ndarray, params: FvParams,
               lengths: np.ndarray) -> tuple[np.ndarray, _FvCache]:
    """(B, 2*K*D) descriptors of a padded (B, T, D) batch with per-video lengths."""
    params.validate()
    x, mask = _check_batch(frames, lengths, params.d)
    a = _assign(x, params, mask)
    c, s = params.centers, params.spreads
    at = a.transpose(0, 2, 1)
    s0 = a.sum(axis=1)[:, :, None]
    s1 = np.matmul(at, x)
    s2 = np.matmul(at, x * x)
    halves = np.stack([(s1 - c * s0) / s,
                       (s2 - 2.0 * c * s1 + c * c * s0) / (s * s) - s0], axis=1)
    vecs, norms = _normalize(halves.reshape(len(x), 2, -1))
    cache = _FvCache(frames=x, params=params, assign=a, s0=s0, s1=s1, halves=halves,
                     vecs=vecs, norms=norms)
    return vecs.reshape(len(x), -1).copy(), cache


def fv_backward(upstream: np.ndarray, cache: _FvCache) -> PoolGradients:
    p = cache.params
    x, a, s0, s1 = cache.frames, cache.assign, cache.s0, cache.s1
    upstream = _check_upstream(upstream, cache, 2 * p.k * p.d)
    df = _normalize_backward(upstream.reshape(cache.vecs.shape), cache.vecs, cache.norms)
    df1, df2 = np.moveaxis(df.reshape(cache.halves.shape), 1, 0)
    f1, f2 = np.moveaxis(cache.halves, 1, 0)

    c, s = p.centers, p.spreads
    g1 = df1 / s
    ds2 = df2 / (s * s)
    ds1 = g1 - 2.0 * c * ds2
    ds0 = (c * c * ds2 - c * g1 - df2).sum(axis=2)
    dc = (2.0 * ds2 * (c * s0 - s1) - g1 * s0).sum(axis=0)
    ds = -(df1 * f1 + 2.0 * df2 * (f2 + s0)).sum(axis=0) / s

    da = (ds0[:, None, :] + np.matmul(x, ds1.transpose(0, 2, 1))
          + np.matmul(x * x, ds2.transpose(0, 2, 1)))
    dx = np.matmul(a, ds1) + 2.0 * x * np.matmul(a, ds2)
    return _assign_backward(x, a, da, dx, p, centers=dc, spreads=ds)
