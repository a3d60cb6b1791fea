"""Time-continuous measurement operators and their jitter-blurred versions.

A fixed polarization projector M0, watched from the rotating frame of the
qubit evolution, becomes a time-dependent operator M(t) = U(t)^dag M0 U(t).
Sampling M(t) at six chosen instants yields an informationally complete set
equivalent to the usual six-state polarization scheme.  Finite detector
timing resolution smears M(t) with a Gaussian kernel in time.  In Bloch
coordinates M(t) = (I + m(t) . sigma) / 2, and m(t) is a constant plus
harmonics in 13 frequencies k . w; the kernel damps each harmonic by a
closed-form factor, so one real kernel gives the sharp and the smeared
operators.  A projector excites only some of those harmonics, the same ones
for every set of periods, so the kernel evaluates only those.  The smeared
operator is what the simulated counts are drawn from, while reconstruction
keeps using the sharp ideal operators.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dynamics import _ROTATION_TERMS, DynamicsParams, rotation_harmonics

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


def _by_label(table: dict, label: str):
    try:
        return table[label]
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None


def polarization_projector(label: str) -> np.ndarray:
    """Rank-1 projector onto one of the six polarization states H V D A R L."""
    ket = _by_label(POLARIZATION_KETS, label)
    return np.outer(ket, ket.conj())


def _excited_rows(label: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows of [1, cos(Omega_k t), sin(Omega_k t)] that the ``label`` projector
    excites, their coefficients R_row n, and how many of them are 1 or a cosine.

    M0 = (I + n . sigma) / 2 has the Bloch vector n, and the evolved one is
    R(t) n: row r contributes (R_r n) times basis row r.  R_r does not depend
    on the periods, so a row whose R_r n is exactly 0 is 0 for every config.
    """
    m0 = polarization_projector(label)
    n = np.array([2.0 * m0[0, 1].real, -2.0 * m0[0, 1].imag, (m0[0, 0] - m0[1, 1]).real])
    coefficients = np.einsum("kij,j->ki", _ROTATION_TERMS, n)
    rows = np.flatnonzero(coefficients.any(axis=1))
    return rows, coefficients[rows], int(np.count_nonzero(rows <= len(_ROTATION_TERMS) // 2))


# built once: the rotation terms, and so the rows, do not depend on the periods
_EXCITED_ROWS = {label: _excited_rows(label) for label in POLARIZATION_KETS}


# The six instants, in base-period units, whose operators form an
# informationally complete set.  At the default periods (4, 1, 2), one third
# of the sum of the six operators is the identity and the six operators pair
# up into three mutually unbiased projective bases.  Neither holds for periods
# in general: at (3.7, 1.3, 2.9) one third of the sum is 0.116 off the
# identity in its largest entry.  Sweep configs only require the six
# operators to span the 2x2 Hermitian matrices.
IC_POVM_INSTANTS = (0.0, 0.25, 0.5, 0.75, 1.25, 1.75)


def smeared_bloch_vectors(label: str, params: DynamicsParams, sigma: float, times) -> np.ndarray:
    """Bloch vectors m_i = tr(M sigma_i) of the ``label`` projector M0 smeared
    by Gaussian timing jitter of width ``sigma``, at many instants; shape
    (len(times), 3).

    With M0 = (I + n . sigma) / 2, the evolved operator U(t)^dag M0 U(t) has
    the Bloch vector R(t) n, a constant plus one cosine and one sine for each
    of the 13 frequencies Omega_k = k . w (``rotation_harmonics``).
    Convolving with the kernel exp(-t^2 / 2 sigma^2) / sqrt(2 pi sigma^2)
    damps each harmonic by exp(-sigma^2 Omega_k^2 / 2), exactly.  At sigma 0
    these are the Bloch vectors of the sharp operators U(t)^dag M0 U(t).

    Of the 27 rows [1, cos(Omega_k t), sin(Omega_k t)], only those whose
    coefficient R_row n is nonzero are evaluated: 5 for H and V, since
    sigma_z commutes with the first factor Z(beta) of U, leaving the
    harmonics k = (0, 1, *); 14 for D, A, R and L.  The rows left out carry
    coefficients of exactly 0.0 for any periods, so dropping them from the
    sum changes no bit.
    """
    rows, coefficients, n_cosines = _by_label(_EXCITED_ROWS, label)
    times = np.asarray(times, dtype=float).ravel()
    omegas, _ = rotation_harmonics(params)
    damping = np.exp(-0.5 * (sigma * omegas) ** 2)
    coefficients = coefficients * np.concatenate(([1.0], damping, damping))[rows, None]
    # the phases of the rows, turned into the basis rows in place; the
    # constant row, if excited, is cos(0 t) = 1
    basis = np.multiply.outer(np.concatenate(([0.0], omegas, omegas))[rows], times)
    np.cos(basis[:n_cosines], out=basis[:n_cosines])
    np.sin(basis[n_cosines:], out=basis[n_cosines:])
    # einsum rather than a BLAS product: BLAS worker threads left spinning
    # after a long product slow the single-threaded work that follows
    return np.einsum("kj,kt->jt", coefficients, basis).T


def jittered_matrices(label: str, params: DynamicsParams, sigma: float, times) -> np.ndarray:
    """Operators (I + m . sigma) / 2 of the ``label`` projector smeared by
    Gaussian timing jitter of width ``sigma``, with m from
    ``smeared_bloch_vectors``, at many instants; shape (len(times), 2, 2).

    Each operator is exactly Hermitian, with trace 1 up to rounding.  At
    sigma 0 these are the sharp operators U(t)^dag M0 U(t).
    """
    x, y, z = smeared_bloch_vectors(label, params, sigma, times).T
    stack = np.empty((x.size, 2, 2), dtype=complex)
    stack[:, 0, 0] = 0.5 * (1.0 + z)
    stack[:, 1, 1] = 0.5 * (1.0 - z)
    stack[:, 1, 0] = 0.5 * (x + 1j * y)
    stack[:, 0, 1] = stack[:, 1, 0].conj()
    return stack


@functools.lru_cache(maxsize=16)
def sharp_operators(params: DynamicsParams, times: tuple[float, ...]) -> np.ndarray:
    """The sharp H operators ``jittered_matrices("H", params, 0.0, times)``, read-only.

    Cached, because a sweep needs the ones at ``IC_POVM_INSTANTS`` twice:
    its config checks that they are informationally complete, and its
    ``setting_operators`` call fits against them.
    """
    stack = jittered_matrices("H", params, 0.0, times)
    stack.flags.writeable = False
    return stack


def kron_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Batched Kronecker product of 2x2 stacks: entry k is first[k] kron second[k]."""
    # (a kron b)[2i + k, 2j + l] = a[i, j] b[k, l]
    return (first[:, :, None, :, None] * second[:, None, :, None, :]).reshape(len(first), 4, 4)


def setting_operators(params: DynamicsParams, sigmas, times, dim: int):
    """Instants and operators of every measurement setting of one detector arm.

    A qubit setting is one instant.  A pair setting is an ordered instant
    pair, in row-major order (first arm outer), and tensors two operators of
    the same arm, each smeared on its own.  Returns ``(settings, sharp,
    smeared)``: the H-projector stack of shape (K, d, d), and its smeared
    stack for each jitter width in ``sigmas``, shape (len(sigmas), K, d, d),
    as ``counts.count_rows`` takes them.  Counts are drawn from the smeared
    operators and booked against the sharp ones, from ``sharp_operators``.
    """
    arms = [sharp_operators(params, tuple(times))]
    arms += [jittered_matrices("H", params, sigma, times) for sigma in sigmas]
    if dim == 2:
        return [(t,) for t in times], arms[0], np.stack(arms[1:])
    first, second = np.divmod(np.arange(len(times) ** 2), len(times))
    settings = [(times[i], times[j]) for i, j in zip(first, second)]
    sharp, *smeared = (kron_pairs(arm[first], arm[second]) for arm in arms)
    return settings, sharp, np.stack(smeared)


def bloch_trajectory(label: str, params: DynamicsParams, sigma: float, time_grid) -> np.ndarray:
    """Bloch-vector path traced by the ``label`` projector, smeared by jitter of width ``sigma``.

    Returns an array with columns (t, x, y, z, purity) where the Bloch
    components are tr(M sigma_i) and purity is tr(M^2) = (1 + |m|^2) / 2.
    For a projector with no jitter the path stays on the unit sphere; jitter
    contracts it toward the centre.
    """
    times = np.asarray(time_grid, dtype=float)
    bloch = smeared_bloch_vectors(label, params, sigma, times)
    purity = 0.5 * (1.0 + np.einsum("ti,ti->t", bloch, bloch))
    return np.column_stack([times, bloch, purity])
