"""SGD with momentum and the exponential-moving-average target update."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Params = dict[str, np.ndarray]


@dataclass
class SgdMomentum:
    """v <- m*v + g ; p <- p - lr*v.

    Parameter arrays are treated as immutable: each step produces fresh
    arrays, so tensors recorded on an earlier tape never see mutation.
    """

    lr: float
    momentum: float = 0.0
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.lr < math.inf:  # NaN and inf fail it too
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def step(self, params: Params, grads: Params, prefix: str = "") -> Params:
        updated: Params = {}
        for name, value in params.items():
            g = grads[name]
            if g.shape != value.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter shape {value.shape} for {name}"
                )
            key = prefix + name
            v = self.momentum * self.velocity.get(key, 0.0) + g
            self.velocity[key] = v
            updated[name] = value - self.lr * v
        return updated


def ema_update(target: Params, online: Params, zeta: float) -> Params:
    """psi <- zeta*psi + (1-zeta)*theta, elementwise over matching names."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    if target.keys() != online.keys():
        raise ValueError("target/online parameter names differ")
    return {name: zeta * target[name] + (1.0 - zeta) * online[name] for name in target}
