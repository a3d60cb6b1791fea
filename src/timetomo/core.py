"""Small complex-matrix primitives, the config value checks and the physicality check.

Everything downstream works with (B, d, d) stacks of 2x2 (single qubit) and
4x4 (photon pair) matrices, so the routines here favour clarity over
asymptotic cleverness.  ``first_unphysical`` is the one test of a state
stack: finite, Hermitian, unit trace and PSD.  Numerical tolerances are
module constants, and no call overrides them.
"""

from __future__ import annotations

import numbers

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


def require_integer(value, key: str) -> int:
    """``value`` as an int; a boolean or a non-integral number raises, naming ``key``."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def require_real(value, key: str) -> float:
    """``value`` as a float; a string, boolean or other non-number raises, naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dag| over entries, of every matrix in a stack."""
    m = np.asarray(m)
    return max_abs(m - np.conj(np.swapaxes(m, -1, -2)))


def ascending_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian matrix in a (..., d, d) stack, ascending, as ``np.linalg.eigvalsh``.

    Like ``eigvalsh`` it reads the lower triangle only.  A 2x2 Hermitian
    matrix is a I + b . sigma, with eigenvalues a -/+ |b|, so qubit stacks
    take that closed form instead of a LAPACK call.
    """
    if stack.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(stack)
    top, bottom = stack[..., 0, 0].real, stack[..., 1, 1].real
    centre = 0.5 * (top + bottom)
    radius = np.hypot(0.5 * (top - bottom), np.abs(stack[..., 1, 0]))
    return np.stack([centre - radius, centre + radius], axis=-1)


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix, or of each in a stack.

    The input must be Hermitian within ``EIG_HERMITIAN_ATOL``.  Eigenvalues
    in ``(-PSD_REJECT_TOL, 0)`` are treated as rounding debris and clamped to
    zero; anything below ``-PSD_REJECT_TOL`` raises ``ValueError``.
    """
    m = require_finite(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > EIG_HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e}")
    # symmetrise first so the result is insensitive to defects below the tolerance
    values, vectors = np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
    if values.min() < -PSD_REJECT_TOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {values.min():.3e}")
    roots = np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    return (vectors * roots) @ np.conj(np.swapaxes(vectors, -1, -2))


class StateError(Exception):
    """Entry ``index`` of a state batch failed; the chained cause says how."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


def first_unphysical(stack, name: str = "density matrix") -> tuple[int, str] | None:
    """Index and defect of the first entry of a (B, d, d) stack that is not
    finite, Hermitian, unit-trace and PSD within the module tolerances, or None."""
    stack = np.asarray(stack)
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = np.where(finite[:, None, None], stack, 0.0)
    adjoint = np.conj(np.swapaxes(stack, 1, 2))
    defect = np.abs(stack - adjoint).max(axis=(1, 2))
    trace_err = np.abs(np.einsum("bii->b", stack) - 1.0)
    smallest = ascending_eigenvalues(0.5 * (stack + adjoint))[:, 0]
    bad = ~finite | (defect > HERMITIAN_ATOL) | (trace_err > TRACE_ATOL) | (smallest < PSD_FLOOR)
    for i in np.flatnonzero(bad)[:1]:
        if not finite[i]:
            return int(i), f"{name} contains non-finite entries"
        if defect[i] > HERMITIAN_ATOL:
            return int(i), f"{name} not Hermitian: defect {defect[i]:.3e}"
        if trace_err[i] > TRACE_ATOL:
            return int(i), f"{name} trace off by {trace_err[i]:.3e}"
        return int(i), f"{name} has negative eigenvalue {smallest[i]:.3e}"
    return None

