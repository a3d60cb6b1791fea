"""Time-continuous measurement operators and their jitter-blurred versions.

A fixed polarization projector M0, watched from the rotating frame of the
qubit evolution, becomes a time-dependent operator M(t) = U(t)^dag M0 U(t).
Sampling M(t) at six chosen instants yields an informationally complete set
equivalent to the usual six-state polarization scheme.  Finite detector
timing resolution smears M(t) with a Gaussian kernel in time, which damps
each harmonic of M(t) by a closed-form factor; the smeared operator is what
the simulated counts are drawn from, while reconstruction keeps using the
sharp ideal operators.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DynamicsParams, evolution_spectrum

_SQRT2 = math.sqrt(2.0)

# Jones vectors of the six standard polarization states.
POLARIZATION_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0 / _SQRT2, 1.0 / _SQRT2], dtype=complex),
    "A": np.array([1.0 / _SQRT2, -1.0 / _SQRT2], dtype=complex),
    "R": np.array([1.0 / _SQRT2, 1j / _SQRT2], dtype=complex),
    "L": np.array([1.0 / _SQRT2, -1j / _SQRT2], dtype=complex),
}


def polarization_projector(label: str) -> np.ndarray:
    """Rank-1 projector onto one of the six polarization states H V D A R L."""
    try:
        ket = POLARIZATION_KETS[label]
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None
    return np.outer(ket, ket.conj())


# The six instants, in base-period units, whose operators form an
# informationally complete set.  At the default periods (4, 1, 2), one third
# of the sum of the six operators is the identity and the six operators pair
# up into three mutually unbiased projective bases.  Neither holds for periods
# in general: at (3.7, 1.3, 2.9) one third of the sum is 0.116 off the
# identity in its largest entry.  Sweep configs only require the six
# operators to span the 2x2 Hermitian matrices.
IC_POVM_INSTANTS = (0.0, 0.25, 0.5, 0.75, 1.25, 1.75)


def jittered_matrices(label: str, params: DynamicsParams, sigma: float, times) -> np.ndarray:
    """Operators of the ``label`` projector M0 smeared by Gaussian timing jitter
    of width ``sigma``, at many instants; shape (len(times), 2, 2).

    With U(t) = sum_s exp(-i h_s t) A_s (``evolution_spectrum``), the evolved
    operator is a sum of harmonics,

        M(t) = sum_{s, s'} exp(i Omega t) A_s^dag M0 A_s',   Omega = h_s - h_s',

    and convolving with the kernel exp(-t^2 / 2 sigma^2) / sqrt(2 pi sigma^2)
    damps each by exp(-sigma^2 Omega^2 / 2), exactly.  At sigma 0 these are
    the sharp operators U(t)^dag M0 U(t).
    """
    m0 = polarization_projector(label)
    times = np.asarray(times, dtype=float).ravel()
    rates, mats = evolution_spectrum(params)
    # terms[s, s'] = A_s^dag M0 A_s', from one (16, 2) @ (2, 16) product
    left = (np.swapaxes(mats.conj(), 1, 2) @ m0).reshape(-1, 2)
    terms = (left @ np.swapaxes(mats, 0, 1).reshape(2, -1)).reshape(8, 2, 8, 2).swapaxes(1, 2)
    damping = np.exp(-0.5 * (sigma * np.subtract.outer(rates, rates)) ** 2)
    phases = np.exp(-1j * np.multiply.outer(times, rates))
    harmonics = (phases.conj()[:, :, None] * phases[:, None, :]).reshape(times.size, -1)
    # einsum rather than a BLAS product: BLAS worker threads left spinning
    # after a long product slow the single-threaded work that follows
    stack = np.einsum("tk,kij->tij", harmonics, (damping[:, :, None, None] * terms).reshape(-1, 2, 2))
    # the (s, s') and (s', s) terms are each other's adjoints; symmetrise
    # away the rounding that the summation order leaves
    return 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))


def kron_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Batched Kronecker product of 2x2 stacks: entry k is first[k] kron second[k]."""
    # (a kron b)[2i + k, 2j + l] = a[i, j] b[k, l]
    return (first[:, :, None, :, None] * second[:, None, :, None, :]).reshape(len(first), 4, 4)


def setting_operators(params: DynamicsParams, sigma: float, times, dim: int):
    """Instants and operators of every measurement setting of one detector arm.

    A qubit setting is one instant.  A pair setting is an ordered instant
    pair, in row-major order (first arm outer), and tensors two operators of
    the same arm, each smeared on its own.  Returns ``(settings, sharp,
    smeared)`` with the H-projector stacks of shape (K, d, d): counts are
    drawn from the smeared operators and booked against the sharp ones.
    """
    sharp, smeared = jittered_matrices("H", params, 0.0, times), jittered_matrices("H", params, sigma, times)
    if dim == 2:
        return [(t,) for t in times], sharp, smeared
    first, second = np.divmod(np.arange(len(times) ** 2), len(times))
    settings = [(times[i], times[j]) for i, j in zip(first, second)]
    return settings, kron_pairs(sharp[first], sharp[second]), kron_pairs(smeared[first], smeared[second])


def bloch_trajectory(label: str, params: DynamicsParams, sigma: float, time_grid) -> np.ndarray:
    """Bloch-vector path traced by the ``label`` projector, smeared by jitter of width ``sigma``.

    Returns an array with columns (t, x, y, z, purity) where the Bloch
    components are tr(M sigma_i) and purity is tr(M^2).  For a projector
    with no jitter the path stays on the unit sphere; jitter contracts it
    toward the centre.
    """
    times = np.asarray(time_grid, dtype=float)
    mats = jittered_matrices(label, params, sigma, times)
    x = 2.0 * mats[:, 0, 1].real
    y = -2.0 * mats[:, 0, 1].imag
    z = (mats[:, 0, 0] - mats[:, 1, 1]).real
    purity = np.einsum("nij,nji->n", mats, mats).real
    return np.column_stack([times, x, y, z, purity])
