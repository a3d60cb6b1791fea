"""Single-qubit unitary evolution driving the rotating measurement frame.

The evolution is a three-axis rotation Z(beta) Y(gamma) Z(delta) whose angles
grow linearly in time, each with its own period.  Time is dimensionless
throughout the package: one unit equals the base period of the middle (Y)
rotation, and the default periods are (4, 1, 2) in those units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import require_finite


@dataclass(frozen=True)
class DynamicsParams:
    """Rotation periods of the three-axis evolution, in base-period units."""

    period_1: float = 4.0
    period_2: float = 1.0
    period_3: float = 2.0

    def __post_init__(self):
        for name in ("period_1", "period_2", "period_3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def angular_frequencies(self) -> tuple[float, float, float]:
        return (
            2.0 * math.pi / self.period_1,
            2.0 * math.pi / self.period_2,
            2.0 * math.pi / self.period_3,
        )


def evolution_unitaries(params: DynamicsParams, times) -> np.ndarray:
    """Evolution unitaries at many instants at once.

    Returns an array of shape ``times.shape + (2, 2)``.  Negative times are
    legitimate inputs: the jitter convolution integrates through them.
    """
    times = np.asarray(times, dtype=float)
    require_finite(times, "times")
    w1, w2, w3 = params.angular_frequencies
    z1 = np.exp(-0.5j * w1 * times)
    z3 = np.exp(-0.5j * w3 * times)
    c = np.cos(0.5 * w2 * times)
    s = np.sin(0.5 * w2 * times)
    u = np.empty(times.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = z1 * c * z3
    u[..., 0, 1] = -z1 * s * np.conj(z3)
    u[..., 1, 0] = np.conj(z1) * s * z3
    u[..., 1, 1] = np.conj(z1) * c * np.conj(z3)
    return u

