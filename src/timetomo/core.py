"""The config value checks and seed range, the Hermitian spectra and the physicality check.

Everything downstream works with (B, d, d) stacks of 2x2 (single qubit) and
4x4 (photon pair) matrices.  ``ascending_eigenvalues`` gives their spectra,
and ``first_unphysical`` is the one test of a state stack: finite,
Hermitian, unit trace and PSD.  Numerical tolerances are module constants,
and no call overrides them.
"""

from __future__ import annotations

import numbers

import numpy as np

# Tolerances used by validation checks throughout the package.
HERMITIAN_ATOL = 1e-10       # max |M - M^dag| entry for "is Hermitian"
TRACE_ATOL = 1e-10           # |tr(rho) - 1| for a density matrix
PSD_FLOOR = -1e-10           # eigenvalues above this count as nonnegative

# Largest run seed: the counts' Philox key holds a seed in one 64-bit word.
MAX_SEED = 2**64 - 1


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

