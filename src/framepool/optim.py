"""Adam and plain SGD over a model's flat parameter vector.

Parameters, gradients (a ModelGradients is a Model of the same config) and
Adam's two moments share one layout (netmodel's param_spec), so a step is a
few whole-vector elementwise operations, and bit-identical to stepping each
named array on its own.  Adam's temporaries go to two work vectors that its
state holds and a checkpoint leaves out.  A model step rejects a non-finite
gradient, naming its array, before it changes anything.  After every update
the model's floored views, the NetFV spreads, are projected back to the
positivity floor EPS_SPREAD; keeping that constraint by projection rather
than reparameterization keeps the gradients directly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .netmodel import Model, ModelGradients
from .pooling import EPS_SPREAD


@dataclass
class AdamState:
    m: np.ndarray  # first moment, in the layout of the parameter vector
    v: np.ndarray  # second moment, likewise
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    # two work vectors of m's shape for the update's temporaries; never saved
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def _check_shapes(*vectors: np.ndarray) -> None:
    shapes = {vector.shape for vector in vectors}
    if len(shapes) != 1:
        raise ValueError(f"parameter, gradient and moment shapes differ: {sorted(shapes)}")


def _check_finite(grads: ModelGradients) -> None:
    if not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.arrays.items() if not np.isfinite(g).all())
        raise ValueError(f"non-finite gradient in {name}")


def _floor(floored: Sequence[np.ndarray]) -> None:
    for arr in floored:
        np.maximum(arr, EPS_SPREAD, out=arr)


def adam_update(w: np.ndarray, g: np.ndarray, state: AdamState, lr: float,
                floored: Sequence[np.ndarray] = ()) -> None:
    """One bias-corrected Adam step on the vector w, in place, then the floor
    on `floored` (views into w)."""
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    _check_shapes(w, g, state.m, state.v)
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    num, denom = state.scratch
    # w -= lr (m / bc1) / (sqrt(v / bc2) + eps), each temporary into scratch
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, g, out=num)
    v *= state.beta2
    v += np.multiply(1.0 - state.beta2, np.multiply(g, g, out=num), out=num)
    np.multiply(lr, np.divide(m, bc1, out=num), out=num)
    np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), state.eps, out=denom)
    w -= np.divide(num, denom, out=num)
    _floor(floored)


def sgd_update(w: np.ndarray, g: np.ndarray, lr: float,
               floored: Sequence[np.ndarray] = ()) -> None:
    """w <- w - lr * g, in place, then the floor on `floored` (views into w)."""
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    _check_shapes(w, g)
    w -= lr * g
    _floor(floored)


def init_adam_state(model: Model) -> AdamState:
    return AdamState(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat))


def adam_step(model: Model, grads: ModelGradients, state: AdamState, lr: float) -> None:
    _check_finite(grads)
    adam_update(model.flat, grads.flat, state, lr, model.floored)


def sgd_step(model: Model, grads: ModelGradients, lr: float) -> None:
    _check_finite(grads)
    sgd_update(model.flat, grads.flat, lr, model.floored)
