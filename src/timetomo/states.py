"""Input-state constructors and the deterministic sample grids.

Single qubits are parametrised by Bloch coordinates (r, theta, phi) and
photon pairs by the relative phase of a maximally entangled superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, first_unphysical

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BlochParams:
    """Bloch-ball coordinates: radius r, polar theta, azimuth phi."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0):
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < TWO_PI):
            raise ValueError(f"phi must lie in [0, 2 pi), got {self.phi}")


@dataclass(frozen=True)
class BellParams:
    """Relative phase of the entangled superposition (|00> + e^{i alpha}|11>)/sqrt(2)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < TWO_PI):
            raise ValueError(f"alpha must lie in [0, 2 pi), got {self.alpha}")


def _bloch_matrix(b: BlochParams) -> np.ndarray:
    rz = b.r * math.cos(b.theta)
    cross = b.r * (math.sin(b.theta) * math.cos(b.phi) - 1j * math.sin(b.theta) * math.sin(b.phi))
    return 0.5 * np.array([[1.0 + rz, cross], [np.conj(cross), 1.0 - rz]])


def _bell_matrix(b: BellParams) -> np.ndarray:
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0 / math.sqrt(2.0)
    ket[3] = np.exp(1j * b.alpha) / math.sqrt(2.0)
    return np.outer(ket, ket.conj())


def bloch_state(b: BlochParams) -> DensityMatrix:
    """Density matrix with Bloch vector r (sin t cos p, sin t sin p, cos t)."""
    return DensityMatrix(_bloch_matrix(b))


def bell_state(b: BellParams) -> DensityMatrix:
    """Projector onto (|00> + e^{i alpha} |11>)/sqrt(2)."""
    return DensityMatrix(_bell_matrix(b))


def state_stack(sample: list[BlochParams] | list[BellParams]) -> np.ndarray:
    """``bloch_state`` or ``bell_state`` of each sample entry, stacked (B, d, d) and validated once."""
    build = _bloch_matrix if isinstance(sample[0], BlochParams) else _bell_matrix
    stack = np.array([build(b) for b in sample])
    problem = first_unphysical(stack)
    if problem is not None:
        raise ValueError(f"sample state {problem[0]}: {problem[1]}")
    return stack


def _polar_grid(n: int, stop: float) -> np.ndarray:
    if n < 1:
        raise ValueError("grid size must be at least 1")
    return np.linspace(0.0, stop, n) if n > 1 else np.array([0.0])


def _azimuth_grid(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("grid size must be at least 1")
    return TWO_PI * np.arange(n) / n


def sample_mixed_qubits(n_r: int = 21, n_theta: int = 21, n_phi: int = 20) -> list[BlochParams]:
    """Deterministic Bloch-ball grid: r and theta inclusive, phi periodic.

    The default grid has 8820 points.
    """
    return [
        BlochParams(float(r), float(theta), float(phi))
        for r in _polar_grid(n_r, 1.0)
        for theta in _polar_grid(n_theta, math.pi)
        for phi in _azimuth_grid(n_phi)
    ]


def sample_pure_qubits(n_theta: int = 21, n_phi: int = 20) -> list[BlochParams]:
    """Bloch-sphere surface grid (r = 1); 420 points at the default sizes."""
    return [
        BlochParams(1.0, float(theta), float(phi))
        for theta in _polar_grid(n_theta, math.pi)
        for phi in _azimuth_grid(n_phi)
    ]


def orthogonal_pairs(n_theta: int = 21, n_phi: int = 20) -> list[tuple[BlochParams, BlochParams]]:
    """Pair up the pure-state grid into antipodal (orthogonal) couples.

    Requires even ``n_phi`` so every antipode lands back on the grid.
    The default grid gives 210 pairs.
    """
    if n_phi % 2 != 0:
        raise ValueError("n_phi must be even so antipodes stay on the grid")
    thetas = _polar_grid(n_theta, math.pi)
    phis = _azimuth_grid(n_phi)
    half = n_phi // 2
    pairs = []
    for j, theta in enumerate(thetas):
        j_mate = n_theta - 1 - j
        if j > j_mate:
            continue
        for k, phi in enumerate(phis):
            k_mate = (k + half) % n_phi
            if j == j_mate and k >= half:
                continue
            first = BlochParams(1.0, float(theta), float(phi))
            second = BlochParams(1.0, float(thetas[j_mate]), float(phis[k_mate]))
            pairs.append((first, second))
    return pairs


def sample_bell_states(n: int = 200) -> list[BellParams]:
    """Evenly spaced entangled-phase sample alpha = 2 pi k / n."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return [BellParams(TWO_PI * k / n) for k in range(n)]
