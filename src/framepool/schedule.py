"""Exponential learning-rate decay in units of training epochs.

lr(e) = initial_lr * decay ** (e / decay_per_epoch), optionally floored to
integer exponents (staircase).  decay_per_epoch is the epoch interval per
decay application, so a small value means fast decay: decay_per_epoch=0.1
applies the factor ten times per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScheduleParams:
    initial_lr: float
    decay: float
    decay_per_epoch: float
    staircase: bool = False

    def validate(self) -> None:
        if not self.initial_lr > 0:
            raise ValueError(f"initial_lr must be > 0, got {self.initial_lr}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not self.decay_per_epoch > 0:
            raise ValueError(f"decay_per_epoch must be > 0, got {self.decay_per_epoch}")


# The two benchmark recipes compared throughout: a slow anneal starting low,
# and a fast anneal starting 10x higher that drops below the first within
# roughly one epoch.
SLOW_ANNEAL = ScheduleParams(initial_lr=0.001, decay=0.95, decay_per_epoch=1.0)
FAST_ANNEAL = ScheduleParams(initial_lr=0.01, decay=0.80, decay_per_epoch=0.1)

PRESETS = {"slow": SLOW_ANNEAL, "fast": FAST_ANNEAL}


def lr_at(epoch_fraction: float, params: ScheduleParams) -> float:
    params.validate()
    if epoch_fraction < 0:
        raise ValueError(f"epoch_fraction must be >= 0, got {epoch_fraction}")
    exponent = epoch_fraction / params.decay_per_epoch
    if params.staircase:
        exponent = math.floor(exponent)
    return params.initial_lr * params.decay ** exponent


def emit_curve(params: ScheduleParams, epoch_max: float, step: float) -> list[tuple[float, float]]:
    """Sample lr_at on the uniform grid 0, step, 2*step, ... up to epoch_max."""
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not 0 <= epoch_max < math.inf:
        raise ValueError(f"epoch_max must be finite and >= 0, got {epoch_max}")
    # +1e-9 absorbs float division error so an exact multiple keeps its endpoint.
    n = math.floor(epoch_max / step + 1e-9)
    return [(i * step, lr_at(i * step, params)) for i in range(n + 1)]


def curve_csv(params: ScheduleParams, epoch_max: float, step: float) -> str:
    lines = ["epoch,lr"]
    lines += [f"{e:.6f},{lr:.10g}" for e, lr in emit_curve(params, epoch_max, step)]
    return "\n".join(lines) + "\n"
