"""Per-record pooling kernels, kept verbatim as the oracle for the batched ones.

These are the one-video-per-call NetVLAD and NetFV kernels that
``framepool.pooling`` replaced with padded (B, T, D) batch kernels.  They
build the (T, K, D) residual tensor directly from the definitions, so they
are slow but plainly correct; the tests compare the production kernels
against them, the way ``gap_bruteforce`` judges ``gap``.  They read their
parameters from, and return their gradients in, records of their own, so the
oracle depends on nothing in ``framepool.pooling`` but NORM_GUARD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framepool.pooling import NORM_GUARD


@dataclass
class Params:
    assign_weights: np.ndarray  # (D, K)
    assign_bias: np.ndarray  # (K,)
    centers: np.ndarray  # (K, D)
    spreads: np.ndarray | None = None  # (K, D), NetFV only

    @property
    def d(self) -> int:
        return self.assign_weights.shape[0]

    @property
    def k(self) -> int:
        return self.assign_weights.shape[1]


@dataclass
class Gradients:
    frames: np.ndarray  # (T, D)
    assign_weights: np.ndarray
    assign_bias: np.ndarray
    centers: np.ndarray
    spreads: np.ndarray | None = None


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-subtracted so logits up to +-1e4 cannot overflow."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_frames(frames: np.ndarray, d: int) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError(f"frames must be a (T>=1, D) matrix, got shape {frames.shape}")
    if frames.shape[1] != d:
        raise ValueError(f"frames have {frames.shape[1]} columns, params expect {d}")
    if not np.isfinite(frames).all():
        raise ValueError("non-finite values in frames")
    return frames


def _normalize(v: np.ndarray) -> tuple[np.ndarray, float]:
    """L2-normalize a flat vector; below NORM_GUARD the vector passes through."""
    r = float(np.linalg.norm(v))
    if r < NORM_GUARD:
        return v, r
    return v / r, r


def _normalize_backward(g: np.ndarray, y: np.ndarray, r: float) -> np.ndarray:
    # d/dv of <g, v/|v|> = (g - y (g.y)) / |v|; identity on the guard branch.
    if r < NORM_GUARD:
        return g
    return (g - y * np.dot(g, y)) / r


@dataclass
class _VladCache:
    frames: np.ndarray  # (T, D)
    params: Params
    assign: np.ndarray  # (T, K) softmax rows
    mass: np.ndarray  # (K,) column sums of assign
    row_vecs: np.ndarray  # (K, D) intra-normalized cluster rows
    row_norms: np.ndarray  # (K,)
    flat_vec: np.ndarray  # (K*D,) final descriptor
    flat_norm: float


def vlad_forward(frames: np.ndarray, params: Params) -> tuple[np.ndarray, _VladCache]:
    x = _check_frames(frames, params.d)
    a = row_softmax(x @ params.assign_weights + params.assign_bias)
    mass = a.sum(axis=0)
    v = a.T @ x - mass[:, None] * params.centers

    row_norms = np.linalg.norm(v, axis=1)
    safe = np.where(row_norms < NORM_GUARD, 1.0, row_norms)
    row_vecs = np.where(row_norms[:, None] < NORM_GUARD, v, v / safe[:, None])

    flat_vec, flat_norm = _normalize(row_vecs.ravel())
    cache = _VladCache(frames=x, params=params, assign=a, mass=mass, row_vecs=row_vecs,
                       row_norms=row_norms, flat_vec=flat_vec, flat_norm=flat_norm)
    return flat_vec.copy(), cache


def vlad_backward(upstream: np.ndarray, cache: _VladCache) -> Gradients:
    p = cache.params
    k, d = p.k, p.d
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (k * d,):
        raise ValueError(f"upstream shape {upstream.shape}, cache expects ({k * d},)")
    x, a = cache.frames, cache.assign

    d_rows = _normalize_backward(upstream, cache.flat_vec, cache.flat_norm).reshape(k, d)
    u = cache.row_vecs
    dots = (d_rows * u).sum(axis=1)
    safe = np.where(cache.row_norms < NORM_GUARD, 1.0, cache.row_norms)
    dv = np.where(cache.row_norms[:, None] < NORM_GUARD,
                  d_rows, (d_rows - u * dots[:, None]) / safe[:, None])

    da = x @ dv.T - (dv * p.centers).sum(axis=1)[None, :]
    dc = -cache.mass[:, None] * dv
    dx = a @ dv

    dz = a * (da - (da * a).sum(axis=1, keepdims=True))
    dx += dz @ p.assign_weights.T
    dw = x.T @ dz
    db = dz.sum(axis=0)
    return Gradients(frames=dx, assign_weights=dw, assign_bias=db, centers=dc)


@dataclass
class _FvCache:
    frames: np.ndarray
    params: Params
    assign: np.ndarray
    scaled: np.ndarray  # (T, K, D) residuals over spreads
    first_vec: np.ndarray  # (K*D,) normalized first-order half
    first_norm: float
    second_vec: np.ndarray
    second_norm: float


def fv_forward(frames: np.ndarray, params: Params) -> tuple[np.ndarray, _FvCache]:
    x = _check_frames(frames, params.d)
    a = row_softmax(x @ params.assign_weights + params.assign_bias)
    e = (x[:, None, :] - params.centers[None, :, :]) / params.spreads[None, :, :]

    f1 = np.einsum("tk,tkj->kj", a, e)
    f2 = np.einsum("tk,tkj->kj", a, e * e) - a.sum(axis=0)[:, None]

    first_vec, first_norm = _normalize(f1.ravel())
    second_vec, second_norm = _normalize(f2.ravel())
    cache = _FvCache(frames=x, params=params, assign=a, scaled=e,
                     first_vec=first_vec, first_norm=first_norm,
                     second_vec=second_vec, second_norm=second_norm)
    return np.concatenate([first_vec, second_vec]), cache


def fv_backward(upstream: np.ndarray, cache: _FvCache) -> Gradients:
    p = cache.params
    k, d = p.k, p.d
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (2 * k * d,):
        raise ValueError(f"upstream shape {upstream.shape}, cache expects ({2 * k * d},)")
    x, a, e = cache.frames, cache.assign, cache.scaled

    df1 = _normalize_backward(upstream[: k * d], cache.first_vec, cache.first_norm).reshape(k, d)
    df2 = _normalize_backward(upstream[k * d:], cache.second_vec, cache.second_norm).reshape(k, d)

    da = (np.einsum("kj,tkj->tk", df1, e)
          + np.einsum("kj,tkj->tk", df2, e * e)
          - df2.sum(axis=1)[None, :])
    de = a[:, :, None] * (df1[None, :, :] + 2.0 * e * df2[None, :, :])

    dx = (de / p.spreads[None, :, :]).sum(axis=1)
    dc = -de.sum(axis=0) / p.spreads
    ds = -(de * e).sum(axis=0) / p.spreads

    dz = a * (da - (da * a).sum(axis=1, keepdims=True))
    dx += dz @ p.assign_weights.T
    dw = x.T @ dz
    db = dz.sum(axis=0)
    return Gradients(frames=dx, assign_weights=dw, assign_bias=db, centers=dc, spreads=ds)
