"""Single-qubit unitary evolution driving the rotating measurement frame.

The evolution is a three-axis rotation Z(beta) Y(gamma) Z(delta) whose angles
grow linearly in time, each with its own period.  Time is dimensionless
throughout the package: one unit equals the base period of the middle (Y)
rotation, and the default periods are (4, 1, 2) in those units.

In Bloch coordinates the evolution rotates a measurement operator's Bloch
vector: U(t)^dag (n . sigma) U(t) = (R(t) n) . sigma, and R(t) is a constant
plus harmonics in the 13 frequencies k . w, one for each pair +-k of nonzero
integer vectors k in {-1, 0, 1}^3 (``rotation_harmonics``).
"""

from __future__ import annotations

import itertools
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
        # the rotation's phases (w1 + w2 + w3) t must stay finite up to t = 2,
        # past the six measurement instants
        if not math.isfinite(2.0 * sum(self.angular_frequencies)):
            raise ValueError("periods are too short: the phases 2 pi t / period overflow by t = 2")

    @property
    def angular_frequencies(self) -> tuple[float, float, float]:
        return (
            2.0 * math.pi / self.period_1,
            2.0 * math.pi / self.period_2,
            2.0 * math.pi / self.period_3,
        )


# Each rotation factor is a sum over the eigenprojectors (I + a sigma) / 2 of
# its Pauli matrix, Z(w t) = sum_a exp(-i a w t / 2) (I + a sigma_z) / 2 and
# likewise Y(w t) with sigma_y, so U(t) expands over the sign triples s = (a, b, c)
# as U(t) = sum_s exp(-i (s . w) t / 2) A_s with A_s = P^z_a P^y_b P^z_c.
_SIGNS = np.array([(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)])
_Z, _Y = np.diag([1.0, -1.0]), np.array([[0.0, -1j], [1j, 0.0]])
_PAULIS = np.array([[[0.0, 1.0], [1.0, 0.0]], _Y, _Z])

# The nonzero k in {-1, 0, 1}^3 whose first nonzero entry is positive: one
# vector of each pair +-k.
_HARMONICS = np.array([k for k in itertools.product((-1.0, 0.0, 1.0), repeat=3) if k > (0.0, 0.0, 0.0)])


def _rotation_terms() -> np.ndarray:
    """The constant matrices [R_0, C_1..C_13, S_1..S_13] of ``rotation_harmonics``."""
    spectral = np.array(
        [(np.eye(2) + a * _Z) @ (np.eye(2) + b * _Y) @ (np.eye(2) + c * _Z) / 8.0 for a, b, c in _SIGNS]
    )
    # R(t)_ij = tr(sigma_i U^dag sigma_j U) / 2 sums the terms
    # exp(i k . w t) tr(sigma_i A_s^dag sigma_j A_s') / 2 with k = (s - s') / 2;
    # swapping s and s' conjugates a term, so the terms of k and -k add up to
    # 2 Re(term) cos(k . w t) - 2 Im(term) sin(k . w t)
    terms = 0.5 * np.einsum("iab,scb,jcd,uda->suij", _PAULIS, spectral.conj(), _PAULIS, spectral)
    k = 0.5 * (_SIGNS[:, None, :] - _SIGNS[None, :, :])
    grouped = np.einsum("hsu,suij->hij", (k[None] == _HARMONICS[:, None, None]).all(axis=-1), terms)
    constant = np.einsum("ssij->ij", terms).real
    return np.concatenate([constant[None], 2.0 * grouped.real, -2.0 * grouped.imag])


_ROTATION_TERMS = _rotation_terms()
_ROTATION_TERMS.flags.writeable = False


def rotation_harmonics(params: DynamicsParams) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic form of the Bloch rotation R(t), U(t)^dag (n . sigma) U(t) = (R(t) n) . sigma:

        R(t) = R_0 + sum_k (C_k cos(Omega_k t) + S_k sin(Omega_k t)),   Omega_k = k . w,

    over the 13 integer vectors k in {-1, 0, 1}^3 taken up to sign, with
    w the angular frequencies.  Returns the 13 frequencies Omega_k and the
    stacked real matrices [R_0, C_1..C_13, S_1..S_13]; shapes (13,) and (27, 3, 3).
    """
    return _HARMONICS @ np.array(params.angular_frequencies), _ROTATION_TERMS
