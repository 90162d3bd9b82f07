"""The scoring and training-step primitives as they were before their
in-place rewrites, kept verbatim as the oracle for the rewritten ones.

``framepool`` now computes each of these in fewer numpy passes and
temporaries, with the same floating-point operations on the same operands in
the same order.  The tests compare the two with ``tobytes()``, so any rewrite
that moves a single bit fails, the way ``reference_pooling`` judges the
batched pooling kernels.  Nothing here depends on ``framepool`` beyond its
constants.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from framepool.netmodel import PROB_FLOOR
from framepool.pooling import EPS_SPREAD, NORM_GUARD


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted so logits up to +-1e4 cannot overflow."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def assign(x: np.ndarray, assign_weights: np.ndarray, assign_bias: np.ndarray,
           mask: np.ndarray) -> np.ndarray:
    b, t, d = x.shape
    logits = (x.reshape(b * t, d) @ assign_weights).reshape(b, t, -1)
    return row_softmax(logits + assign_bias) * mask[:, :, None]


def normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize along the last axis; below NORM_GUARD a vector passes through."""
    r = np.linalg.norm(v, axis=-1)
    guarded = (r < NORM_GUARD)[..., None]
    return np.where(guarded, v, v / np.where(guarded, 1.0, r[..., None])), r


def normalize_backward(g: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    # d/dv of <g, v/|v|> = (g - y (g.y)) / |v|; identity on the guard branch.
    guarded = (r < NORM_GUARD)[..., None]
    dots = (g * y).sum(axis=-1, keepdims=True)
    return np.where(guarded, g, (g - y * dots) / np.where(guarded, 1.0, r[..., None]))


def vlad_descriptor_rows(a: np.ndarray, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """vlad_forward's unnormalized (B, K, D) residual sums."""
    mass = a.sum(axis=1)
    return np.matmul(a.transpose(0, 2, 1), x) - mass[:, :, None] * centers


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Two-branch form never exponentiates a positive number; the clip keeps
    # probabilities strictly inside (0, 1) even where float64 would round to
    # an endpoint.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, PROB_FLOOR, 1.0 - PROB_FLOOR)


def pad(batch: list[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray]:
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


def adam_update(w: np.ndarray, g: np.ndarray, state, lr: float,
                floored: Sequence[np.ndarray] = ()) -> None:
    """One bias-corrected Adam step on the vector w, in place, then the floor
    on `floored` (views into w); `state` needs m, v, beta1, beta2, eps, step."""
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    w -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    for arr in floored:
        np.maximum(arr, EPS_SPREAD, out=arr)


def pool_order(confs: np.ndarray) -> np.ndarray:
    """The GAP pool order: descending confidence, ties in entry order."""
    return np.argsort(-confs, kind="stable")
