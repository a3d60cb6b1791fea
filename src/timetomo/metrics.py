"""State-comparison metrics and their sweep-level aggregation."""

from __future__ import annotations

import math

import numpy as np

from .core import ascending_eigenvalues

# Pauli sigma_y tensored with itself; fixed matrix used by the concurrence.
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

CHSH_THRESHOLD = 1.0 / math.sqrt(2.0)


def fidelities(truth: np.ndarray, estimate: np.ndarray, pure: np.ndarray) -> np.ndarray:
    """Fidelity of each estimate to its truth, in two (B, d, d) stacks, clipped to [0, 1].

    F = tr(ab) + 2 sqrt(det a det b) for qubits (Hubner, Phys. Lett. A 163,
    239, 1992), with det a exactly 0 where the (B,) ``pure`` flags, which the
    samplers of ``states`` return, mark the truth a as pure: there F =
    <psi|b|psi> = tr(ab) (Jozsa, J. Mod. Opt. 41, 2315, 1994), with no square
    root of rounding.  Pair truths must all be pure; the first pair row not
    flagged raises ``ValueError``.
    """
    overlap = np.einsum("bij,bji->b", truth, estimate).real
    mixed = ~np.asarray(pure, dtype=bool)
    if truth.shape[-1] != 2:
        if mixed.any():
            raise ValueError(f"pair truth {np.argmax(mixed)} is not flagged pure; pair fidelities need pure truths")
        return np.clip(overlap, 0.0, 1.0)
    det_a, det_b = (
        np.maximum((m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]).real, 0.0) for m in (truth, estimate)
    )
    return np.clip(overlap + 2.0 * np.sqrt(np.where(mixed, det_a, 0.0) * det_b), 0.0, 1.0)


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the sum of absolute eigenvalues of a - b, for each pair in two stacks."""
    return 0.5 * np.abs(ascending_eigenvalues(a - b)).sum(axis=1)


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each state in a (B, 4, 4) stack.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy) (Wootters, PRL 80, 2245,
    1998).  With rho = X X^dagger, X = V sqrt(w) from the eigensystem of
    rho, those l_i are the singular values of X^T (sy x sy) X, so a pure
    state's l_2, l_3, l_4 are products of rounding, not square roots of it.
    """
    weights, vectors = np.linalg.eigh(rho)
    factor = vectors * np.sqrt(np.maximum(weights, 0.0))[:, None, :]
    roots = np.linalg.svd(np.swapaxes(factor, 1, 2) @ _SPIN_FLIP @ factor, compute_uv=False)
    return np.maximum(0.0, roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3])


def aggregate(values) -> tuple[float, float, int]:
    """Mean, (n-1)-normalised standard deviation and count of metric values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty value list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("metric values contain non-finite entries")
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), sd, int(arr.size)


def chsh_guarantee(mean: float, sd: float) -> bool:
    """Whether the whole three-sigma band clears the CHSH-violation bound.

    True when mean - 3 sd > 1/sqrt(2), i.e. effectively every state in the
    batch retains enough entanglement to violate the inequality.
    """
    return bool(mean - 3.0 * sd > CHSH_THRESHOLD)
