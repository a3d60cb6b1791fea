"""Small complex-matrix primitives and the physical density-matrix type.

Everything downstream works with 2x2 (single qubit) and 4x4 (photon pair)
matrices, so the routines here favour clarity over asymptotic cleverness.
Numerical tolerances are module constants; individual calls may override
them through keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances used by validation checks throughout the package.
HERMITIAN_ATOL = 1e-10       # max |M - M^dag| entry for "is Hermitian"
TRACE_ATOL = 1e-10           # |tr(rho) - 1| for a density matrix
PSD_FLOOR = -1e-10           # eigenvalues above this count as nonnegative
EIG_HERMITIAN_ATOL = 1e-8    # looser Hermiticity gate at the eigensolver
PSD_REJECT_TOL = 1e-6        # eigenvalues below -this are a hard error


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; the norm used by all tolerance checks."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def require_finite(m, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, rejecting NaN or Inf entries."""
    out = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def require_square(m, name: str = "matrix") -> np.ndarray:
    out = require_finite(m, name)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dag| over entries."""
    m = np.asarray(m)
    return max_abs(m - m.conj().T)


def hermitian_eigensystem(m, atol: float = EIG_HERMITIAN_ATOL):
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within ``atol``.
    atol : float
        Largest tolerated entry of ``m - m^dag``.

    Returns
    -------
    (values, vectors)
        ``values`` sorted descending; ``vectors[:, k]`` is the unit
        eigenvector belonging to ``values[k]``.
    """
    m = require_square(m)
    defect = hermiticity_defect(m)
    if defect > atol:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} > {atol:.1e}"
        )
    # Symmetrise first so the result is insensitive to defects below atol.
    values, vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    return values[::-1].copy(), vectors[:, ::-1].copy()


def psd_sqrt(m, reject_tol: float = PSD_REJECT_TOL) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in ``(-reject_tol, 0)`` are treated as rounding debris and
    clamped to zero; anything below ``-reject_tol`` raises ``ValueError``.
    """
    values, vectors = hermitian_eigensystem(m)
    if values.min() < -reject_tol:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {values.min():.3e}"
        )
    values = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """A physical quantum state: Hermitian, unit trace, PSD, dim 2 or 4.

    The wrapped array is validated and frozen at construction, so any
    ``DensityMatrix`` in flight can be trusted without re-checking.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_square(self.matrix, "density matrix")
        if m.shape[0] not in (2, 4):
            raise ValueError(f"only dimensions 2 and 4 are supported, got {m.shape[0]}")
        defect = hermiticity_defect(m)
        if defect > HERMITIAN_ATOL:
            raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
        trace_err = abs(m.trace() - 1.0)
        if trace_err > TRACE_ATOL:
            raise ValueError(f"density matrix trace off by {trace_err:.3e}")
        smallest = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        if smallest < PSD_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))
