"""SGD with momentum and the exponential-moving-average target update."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

Params = dict[str, np.ndarray]


@dataclass
class SgdMomentum:
    """v <- m*v + g ; p <- p - lr*v.

    Each velocity is keyed by its parameter's checkpoint record name,
    ``<group>/<name>``. Parameter arrays are treated as immutable: each
    step produces fresh arrays, so tensors recorded on an earlier tape
    never see mutation.
    """

    lr: float
    momentum: float = 0.0
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.lr < math.inf:  # NaN and inf fail it too
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def step(self, bundle, groups: dict[str, dict[str, Tensor]], grads: dict[int, Tensor]) -> None:
        """Step each group the phase trains (group name -> its taped leaves)
        with the tape's gradients, replacing the group on ``bundle``; the
        tensors of a group are stepped in the bundle's order."""
        for group, leaves in groups.items():
            updated: Params = {}
            for name, value in getattr(bundle, group).items():
                g = grads[leaves[name].node_id].data
                if g.shape != value.shape:
                    raise ValueError(
                        f"gradient shape {g.shape} != parameter shape {value.shape} for {group}/{name}"
                    )
                key = f"{group}/{name}"
                v = self.momentum * self.velocity.get(key, 0.0) + g
                self.velocity[key] = v
                updated[name] = value - self.lr * v
            setattr(bundle, group, updated)


def ema_update(target: Params, online: Params, zeta: float) -> Params:
    """psi <- zeta*psi + (1-zeta)*theta, elementwise over matching names."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    if target.keys() != online.keys():
        raise ValueError("target/online parameter names differ")
    return {name: zeta * target[name] + (1.0 - zeta) * online[name] for name in target}
