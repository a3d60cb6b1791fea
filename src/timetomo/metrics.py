"""State-comparison metrics and their sweep-level aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, psd_sqrt

# Pauli sigma_y tensored with itself; fixed matrix used by the concurrence.
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

CHSH_THRESHOLD = 1.0 / math.sqrt(2.0)


def fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fidelity of each pair of states in two (B, d, d) stacks, clipped to [0, 1].

    Qubits use the closed form tr(ab) + 2 sqrt(det a det b) (Hubner, Phys.
    Lett. A 163, 239, 1992); photon pairs the Uhlmann formula.
    """
    if a.shape[-1] != 2:
        return _uhlmann(a, b)
    overlap = np.einsum("bij,bji->b", a, b).real
    det_a, det_b = (np.maximum((m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]).real, 0.0) for m in (a, b))
    return np.clip(overlap + 2.0 * np.sqrt(det_a * det_b), 0.0, 1.0)


def _uhlmann(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(tr sqrt(sqrt(a) b sqrt(a)))^2 for each pair in two stacks of states."""
    root = psd_sqrt(a)
    inner = root @ b @ root
    values = np.linalg.eigvalsh(0.5 * (inner + np.conj(np.swapaxes(inner, 1, 2))))
    total = np.sqrt(np.clip(values, 0.0, None)).sum(axis=1)
    return np.clip(total * total, 0.0, 1.0)


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the sum of absolute eigenvalues of a - b, for each pair in two stacks."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=1)


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each state in a (B, 4, 4) stack.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    product = rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    # The product is similar to a PSD matrix, so its spectrum is real and
    # nonnegative up to rounding; |.| guards the square roots.
    roots = np.sqrt(np.sort(np.abs(np.linalg.eigvals(product)), axis=1))
    return np.maximum(0.0, roots[:, 3] - roots[:, 2] - roots[:, 1] - roots[:, 0])


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 of two states, clipped to [0, 1].

    The reference that the closed-form qubit branch of ``fidelities`` is
    checked against.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(_uhlmann(a.matrix[None], b.matrix[None])[0])


@dataclass(frozen=True)
class MetricsSummary:
    """Mean and sample standard deviation of one metric over a state sample."""

    mean: float
    sd: float
    n: int
    metric_name: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("summary needs at least one value")

    @property
    def stderr(self) -> float:
        return self.sd / math.sqrt(self.n)


def aggregate(values, metric_name: str = "metric") -> MetricsSummary:
    """Summarise metric values: mean plus (n-1)-normalised standard deviation."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty value list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("metric values contain non-finite entries")
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return MetricsSummary(mean=float(np.mean(arr)), sd=sd, n=int(arr.size), metric_name=metric_name)


def chsh_guarantee(summary: MetricsSummary) -> bool:
    """Whether the whole three-sigma band clears the CHSH-violation bound.

    True when mean - 3 sd > 1/sqrt(2), i.e. effectively every state in the
    batch retains enough entanglement to violate the inequality.
    """
    return bool(summary.mean - 3.0 * summary.sd > CHSH_THRESHOLD)
