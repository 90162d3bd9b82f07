"""Pseudo-Huber loss on multi-label probability outputs.

The scalar loss is delta**2 * (sqrt(1 + (a/delta)**2) - 1): quadratic in a
near zero, asymptotically linear with slope delta for large |a|.  Its gradient
a / sqrt(1 + (a/delta)**2) is bounded by delta, so a single wildly wrong
(possibly mislabeled) entry cannot dominate a batch update.

The multi-label form takes residuals between predicted probabilities and
binary targets and averages over every (video, label) cell, keeping the loss
scale independent of batch size and vocabulary size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class HuberParams:
    delta: float = 1.0

    def validate(self) -> None:
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")


def huber_scalar(a, delta: float):
    """delta**2 * (sqrt(1 + (a/delta)**2) - 1); accepts scalars or arrays.

    Evaluated as a**2 / (sqrt(1 + (a/delta)**2) + 1), the same expression with
    the subtraction rationalized away, so small residuals keep full precision.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    a = np.asarray(a, dtype=np.float64)
    r = a / delta
    return a * a / (np.sqrt(1.0 + r * r) + 1.0)


def huber_grad_scalar(a, delta: float):
    """d/da of huber_scalar: a / sqrt(1 + (a/delta)**2), bounded by delta."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    a = np.asarray(a, dtype=np.float64)
    r = a / delta
    # for |a| >> delta the rounded quotient can exceed delta by an ulp
    return np.clip(a / np.sqrt(1.0 + r * r), -delta, delta)


def multilabel_loss(probabilities: np.ndarray, targets: np.ndarray,
                    params: HuberParams = HuberParams()) -> tuple[float, np.ndarray]:
    """Mean pseudo-Huber loss over a (batch, vocab) grid, plus its gradient.

    Returns (loss, grad) where grad has the shape of ``probabilities`` and is
    the derivative of the mean-reduced loss with respect to each probability.
    """
    params.validate()
    probabilities = np.asarray(probabilities, dtype=np.float64)
    targets = np.asarray(targets)
    if probabilities.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: probabilities {probabilities.shape} vs targets {targets.shape}"
        )
    if not np.isin(targets, (0, 1)).all():
        raise ValueError("targets must be binary (0 or 1)")
    residual = probabilities - targets.astype(np.float64)
    loss = float(np.mean(huber_scalar(residual, params.delta)))
    grad = huber_grad_scalar(residual, params.delta) / residual.size
    return loss, grad
