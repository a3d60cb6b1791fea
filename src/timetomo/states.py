"""Input-state stacks and the deterministic sample grids.

Single qubits are given by Bloch coordinates (r, theta, phi) and photon
pairs by the relative phase of a maximally entangled superposition.  Each
builder returns a (B, d, d) stack, checked once by ``first_unphysical``; the
grid sizes arrive checked by the sweep config.  Each sampler also returns a
(B,) flag of the states it built pure, which ``metrics.fidelities`` needs:
every Bell state and every qubit at r = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .core import first_unphysical

TWO_PI = 2.0 * math.pi


def _checked(stack: np.ndarray) -> np.ndarray:
    problem = first_unphysical(stack)
    if problem is not None:
        raise ValueError(f"sample state {problem[0]}: {problem[1]}")
    return stack


def qubit_states(r, theta, phi) -> np.ndarray:
    """Qubit states with Bloch vectors r (sin theta cos phi, sin theta sin phi, cos theta), (B, 2, 2).

    The three coordinates broadcast against each other, and the stack
    follows the broadcast shape in C order.  A radius above 1 raises.
    """
    r, theta, phi = (np.ravel(a) for a in np.broadcast_arrays(r, theta, phi))
    rz = r * np.cos(theta)
    cross = r * (np.sin(theta) * np.cos(phi) - 1j * np.sin(theta) * np.sin(phi))
    return _checked(0.5 * np.stack([1.0 + rz, cross, np.conj(cross), 1.0 - rz], axis=1).reshape(-1, 2, 2))


def bell_states(alpha) -> np.ndarray:
    """Projectors onto (|00> + e^{i alpha} |11>)/sqrt(2), one per phase, (B, 4, 4)."""
    alpha = np.ravel(alpha)
    ket = np.zeros((len(alpha), 4), dtype=complex)
    ket[:, 0] = 1.0 / math.sqrt(2.0)
    ket[:, 3] = np.exp(1j * alpha) / math.sqrt(2.0)
    return _checked(ket[:, :, None] * ket[:, None, :].conj())


def _polar_grid(n: int, stop: float) -> np.ndarray:
    # for n = 1, linspace gives the single point 0.0
    return np.linspace(0.0, stop, n)


def _azimuth_grid(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def _all_pure(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return stack, np.ones(len(stack), dtype=bool)


def sample_mixed_qubits(n_r: int, n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Bloch-ball grid, r and theta inclusive and phi periodic, in (r, theta, phi) order.

    The outer shell is flagged pure: the last radius of the grid is exactly
    1.0, unless ``n_r`` is 1 and the only radius is 0.
    """
    axes = _polar_grid(n_r, 1.0), _polar_grid(n_theta, math.pi), _azimuth_grid(n_phi)
    r, theta, phi = np.meshgrid(*axes, indexing="ij")
    return qubit_states(r, theta, phi), r.ravel() == 1.0


def sample_pure_qubits(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Bloch-sphere surface grid (r = 1), in (theta, phi) order, every state flagged pure."""
    theta, phi = np.meshgrid(_polar_grid(n_theta, math.pi), _azimuth_grid(n_phi), indexing="ij")
    return _all_pure(qubit_states(1.0, theta, phi))


def orthogonal_pairs(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """The pure-state grid paired into antipodal (orthogonal) couples, pair i at entries 2i and 2i + 1.

    ``n_phi`` must be even, so that every antipode lands back on the grid.
    Point (j, k) is paired with (n_theta - 1 - j, k + n_phi / 2 mod n_phi);
    the pairs follow the first point in (theta, phi) order.  Every state is
    flagged pure.
    """
    j, k = np.meshgrid(np.arange(n_theta), np.arange(n_phi), indexing="ij")
    j_mate, half = n_theta - 1 - j, n_phi // 2
    first = (j < j_mate) | ((j == j_mate) & (k < half))
    j = np.stack([j[first], j_mate[first]], axis=1)
    k = np.stack([k[first], (k[first] + half) % n_phi], axis=1)
    return _all_pure(qubit_states(1.0, _polar_grid(n_theta, math.pi)[j], _azimuth_grid(n_phi)[k]))


def sample_bell_states(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evenly spaced entangled phases alpha = 2 pi k / n, every state flagged pure."""
    return _all_pure(bell_states(_azimuth_grid(n)))
