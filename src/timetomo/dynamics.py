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


# Each rotation factor is a sum over the eigenprojectors (I + a sigma) / 2 of
# its Pauli matrix, Z(w t) = sum_a exp(-i a w t / 2) (I + a sigma_z) / 2 and
# likewise Y(w t) with sigma_y, so U(t) expands over the sign triples (a, b, c).
_SIGNS = np.array([(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)])
_Z, _Y = np.diag([1.0, -1.0]), np.array([[0.0, -1j], [1j, 0.0]])
_SPECTRAL_MATRICES = np.array(
    [(np.eye(2) + a * _Z) @ (np.eye(2) + b * _Y) @ (np.eye(2) + c * _Z) / 8.0 for a, b, c in _SIGNS]
)
_SPECTRAL_MATRICES.flags.writeable = False


def evolution_spectrum(params: DynamicsParams) -> tuple[np.ndarray, np.ndarray]:
    """Spectral form of the evolution, U(t) = sum_s exp(-i h_s t) A_s.

    Returns the 8 half-frequencies h_s = (a w1 + b w2 + c w3) / 2 over the
    sign triples (a, b, c) and the 8 constant matrices A_s = P^z_a P^y_b P^z_c,
    products of the factors' eigenprojectors; shapes (8,) and (8, 2, 2).
    """
    return 0.5 * (_SIGNS @ np.array(params.angular_frequencies)), _SPECTRAL_MATRICES
