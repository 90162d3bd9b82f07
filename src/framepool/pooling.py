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
dX = A dS1 + 2 X * (A dS2) before the softmax backward.  A Tower holds a
tower's parameters or their gradients: a backward kernel writes the parameter
gradients, summed over the batch, into the Tower it is given and returns the
(B, T, D) dX.  The kernels check frames and upstream gradients, not
parameters: netmodel's layout fixes their shapes, checkpoint restore rejects
non-finite values, and the optimizer and restore hold the spreads at or
above EPS_SPREAD.

The rules are hand-derived and pinned in the tests to finite differences and
to the per-record reference kernels.  All math runs in float64.  A vector
with norm below NORM_GUARD is left unnormalized and its normalization is the
identity in the backward pass; the descriptor is non-differentiable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_GUARD = 1e-12
EPS_SPREAD = 1e-3  # hard floor for fv spreads, kept by the optimizer and on restore


@dataclass
class Tower:
    """One pooling tower's arrays, named as in netmodel.param_spec: its
    parameters, or the gradients of those parameters."""

    assign_weights: np.ndarray  # (D, K)
    assign_bias: np.ndarray  # (K,)
    centers: np.ndarray  # (K, D)
    spreads: np.ndarray | None = None  # (K, D), NetFV only; parameters >= EPS_SPREAD


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted so logits up to +-1e4 cannot overflow.
    A max is exact in any order, and reduceat over the flat logits is the fast one."""
    k = logits.shape[-1]
    row_max = np.maximum.reduceat(logits.ravel(), np.arange(0, logits.size, k))
    e = logits - row_max.reshape(logits.shape[:-1] + (1,))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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


def _assign(x: np.ndarray, params: Tower, mask: np.ndarray) -> np.ndarray:
    b, t, d = x.shape
    logits = (x.reshape(b * t, d) @ params.assign_weights).reshape(b, t, -1)
    a = row_softmax(np.add(logits, params.assign_bias, out=logits))
    return np.multiply(a, mask[:, :, None], out=a)


def _assign_backward(x: np.ndarray, a: np.ndarray, da: np.ndarray, dx: np.ndarray,
                     params: Tower, grads: Tower) -> np.ndarray:
    """Through the masked softmax into dX, W and b; padded rows have A = 0."""
    b, t, d = x.shape
    dz = (a * (da - (da * a).sum(axis=2, keepdims=True))).reshape(b * t, -1)
    dx += (dz @ params.assign_weights.T).reshape(b, t, d)
    grads.assign_weights[...] = x.reshape(b * t, d).T @ dz
    grads.assign_bias[...] = dz.sum(axis=0)
    return dx


def _guarded_divide(kept: np.ndarray, num: np.ndarray, r: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """num / r per vector (into `out` if given), but `kept` where r < NORM_GUARD."""
    guarded = r < NORM_GUARD
    if not guarded.any():
        return np.divide(num, r[..., None], out=out)
    guarded = guarded[..., None]
    return np.where(guarded, kept, num / np.where(guarded, 1.0, r[..., None]))


def _normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize along the last axis; below NORM_GUARD a vector passes through."""
    r = np.sqrt(np.add.reduce(v * v, axis=-1))  # what np.linalg.norm computes
    return _guarded_divide(v, v, r), r


def _normalize_backward(g: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    # d/dv of <g, v/|v|> = (g - y (g.y)) / |v|; identity on the guard branch.
    num = y * (g * y).sum(axis=-1, keepdims=True)
    return _guarded_divide(g, np.subtract(g, num, out=num), r, out=num)


def _check_upstream(upstream: np.ndarray, expected: tuple[int, int]) -> np.ndarray:
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != expected:
        raise ValueError(f"upstream shape {upstream.shape}, cache expects {expected}")
    return upstream


@dataclass
class _VladCache:
    frames: np.ndarray  # (B, T, D)
    params: Tower
    assign: np.ndarray  # (B, T, K) softmax rows, zero on padding
    mass: np.ndarray  # (B, K) = S0
    row_vecs: np.ndarray  # (B, K, D) intra-normalized cluster rows
    row_norms: np.ndarray  # (B, K)
    flat_vec: np.ndarray  # (B, K*D) final descriptors
    flat_norm: np.ndarray  # (B,)


def vlad_forward(frames: np.ndarray, params: Tower,
                 lengths: np.ndarray) -> tuple[np.ndarray, _VladCache]:
    """(B, K*D) descriptors of a padded (B, T, D) batch with per-video lengths."""
    x, mask = _check_batch(frames, lengths, len(params.assign_weights))
    a = _assign(x, params, mask)
    mass = a.sum(axis=1)
    v = np.matmul(a.transpose(0, 2, 1), x)
    v -= np.einsum("bk,kd->bkd", mass, params.centers)
    row_vecs, row_norms = _normalize(v)
    flat_vec, flat_norm = _normalize(row_vecs.reshape(len(x), -1))
    cache = _VladCache(frames=x, params=params, assign=a, mass=mass, row_vecs=row_vecs,
                       row_norms=row_norms, flat_vec=flat_vec, flat_norm=flat_norm)
    return flat_vec.copy(), cache


def vlad_backward(upstream: np.ndarray, cache: _VladCache, grads: Tower) -> np.ndarray:
    """dX for a (B, K*D) upstream; the batch's parameter gradients go into `grads`."""
    p = cache.params
    x, a = cache.frames, cache.assign
    upstream = _check_upstream(upstream, cache.flat_vec.shape)
    d_rows = _normalize_backward(upstream, cache.flat_vec, cache.flat_norm)
    dv = _normalize_backward(d_rows.reshape(cache.row_vecs.shape), cache.row_vecs,
                             cache.row_norms)
    da = np.matmul(x, dv.transpose(0, 2, 1)) - (dv * p.centers).sum(axis=2)[:, None, :]
    grads.centers[...] = -(cache.mass[:, :, None] * dv).sum(axis=0)
    return _assign_backward(x, a, da, np.matmul(a, dv), p, grads)


@dataclass
class _FvCache:
    frames: np.ndarray  # (B, T, D)
    params: Tower
    assign: np.ndarray  # (B, T, K), zero on padding
    s0: np.ndarray  # (B, K, 1)
    s1: np.ndarray  # (B, K, D)
    halves: np.ndarray  # (B, 2, K, D) raw F1 and F2
    vecs: np.ndarray  # (B, 2, K*D) normalized halves
    norms: np.ndarray  # (B, 2)


def fv_forward(frames: np.ndarray, params: Tower,
               lengths: np.ndarray) -> tuple[np.ndarray, _FvCache]:
    """(B, 2*K*D) descriptors of a padded (B, T, D) batch with per-video lengths."""
    x, mask = _check_batch(frames, lengths, len(params.assign_weights))
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


def fv_backward(upstream: np.ndarray, cache: _FvCache, grads: Tower) -> np.ndarray:
    """dX for a (B, 2*K*D) upstream; the batch's parameter gradients go into `grads`."""
    p = cache.params
    x, a, s0, s1 = cache.frames, cache.assign, cache.s0, cache.s1
    upstream = _check_upstream(upstream, (len(x), cache.vecs[0].size))
    df = _normalize_backward(upstream.reshape(cache.vecs.shape), cache.vecs, cache.norms)
    df1, df2 = np.moveaxis(df.reshape(cache.halves.shape), 1, 0)
    f1, f2 = np.moveaxis(cache.halves, 1, 0)

    c, s = p.centers, p.spreads
    g1 = df1 / s
    ds2 = df2 / (s * s)
    ds1 = g1 - 2.0 * c * ds2
    ds0 = (c * c * ds2 - c * g1 - df2).sum(axis=2)
    grads.centers[...] = (2.0 * ds2 * (c * s0 - s1) - g1 * s0).sum(axis=0)
    grads.spreads[...] = -(df1 * f1 + 2.0 * df2 * (f2 + s0)).sum(axis=0) / s

    da = (ds0[:, None, :] + np.matmul(x, ds1.transpose(0, 2, 1))
          + np.matmul(x * x, ds2.transpose(0, 2, 1)))
    dx = np.matmul(a, ds1) + 2.0 * x * np.matmul(a, ds2)
    return _assign_backward(x, a, da, dx, p, grads)
