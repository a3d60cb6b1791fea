"""Simulated photon counts for batches of single qubits and photon pairs.

Counts follow the two-step noise model: the smeared (jitter-blurred)
operator fixes the detection probability, and the photon number fed into
each setting is an independent Poisson draw around the source mean.

The photon numbers come from the counter-based generator Philox4x64-10
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC'11), written in numpy ``uint64`` arithmetic: setting k of sample
state s draws one uniform from key (seed, 0) and counter (s, k, 0, 0), and
exact inversion of the Poisson CDF turns it into a photon number.  A count
is therefore a pure function of (run seed, state, setting).
"""

from __future__ import annotations

import math

import numpy as np

from .core import MAX_SEED

# Largest accepted mean photon number.  The Poisson table that a count call
# builds for each photon number grows as sqrt(mean): at 1e9 it holds 547k
# entries (4.4 MB), takes about 25 ms to build and raises a process's peak
# memory by about 18 MB.
MAX_MEAN_PHOTONS = 1e9

_PHILOX_ROUNDS = 10
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF

# Each tail the Poisson table leaves out holds less than exp(-_TAIL_LOG) =
# 2^-54, so together they hold less than 2^-53, the spacing of the uniforms.
_TAIL_LOG = 54.0 * math.log(2.0)


def _uniforms(key, counter: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from Philox4x64-10 blocks, one per counter.

    ``key`` is a pair of unsigned 64-bit ints and ``counter`` a ``uint64``
    array of shape (4, ...).  A uniform is the top 53 bits of output word 0
    over 2^53, the double that ``numpy.random.Generator(Philox).random()``
    makes of the same block.
    """
    ctr = np.array(counter, dtype=np.uint64)
    key = list(key)
    mult = np.array(_PHILOX_MULTIPLIERS, dtype=np.uint64).reshape((2,) + (1,) * (ctr.ndim - 1))
    mult_lo, mult_hi = mult & _LOW32, mult >> 32
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            key = [(k + w) & MAX_SEED for k, w in zip(key, _PHILOX_WEYL)]
        # 64 x 64 -> 128-bit products of words 0 and 2 with the multipliers, from 32-bit halves
        words = ctr[0::2]
        lo, hi = words & _LOW32, words >> 32
        cross_lo, cross_hi = lo * mult_hi, hi * mult_lo
        carry = ((lo * mult_lo) >> 32) + (cross_lo & _LOW32) + (cross_hi & _LOW32)
        high = hi * mult_hi + (cross_lo >> 32) + (cross_hi >> 32) + (carry >> 32)
        ctr = np.stack((
            high[1] ^ ctr[1] ^ np.uint64(key[0]),
            words[1] * mult[1],
            high[0] ^ ctr[3] ^ np.uint64(key[1]),
            words[0] * mult[0],
        ))
    return (ctr[0] >> 11).astype(float) * 2.0**-53


def _poisson_table(mean: float) -> tuple[int, np.ndarray]:
    """Lowest photon number and CDF of Poisson(``mean``) on a window about the mean.

    The window leaves out less than 2^-53 of the mass: by the Bernstein
    bound P(X >= mean + t) <= exp(-t^2 / (2 (mean + t / 3))) above and the
    Chernoff bound P(X <= mean - t) <= exp(-t^2 / (2 mean)) below, each tail
    holds less than 2^-54.  Its width grows as sqrt(mean).  The log pmf is
    the running sum of log p(n) / p(n - 1) = -log1p((n - mean) / mean), so no
    large terms cancel; the CDF is normalised to end at exactly 1.
    """
    upper = _TAIL_LOG / 3.0 + math.sqrt((_TAIL_LOG / 3.0) ** 2 + 2.0 * _TAIL_LOG * mean)
    lowest = max(0, math.floor(mean - math.sqrt(2.0 * _TAIL_LOG * mean)))
    numbers = np.arange(lowest + 1, math.ceil(mean + upper) + 1, dtype=float)
    log_pmf = np.concatenate(([0.0], np.cumsum(-np.log1p((numbers - mean) / mean))))
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return lowest, cdf / cdf[-1]


def overlaps(states: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tr(M_k rho_b) of a (B, d, d) state stack and a (K, d, d) operator stack, shape (B, K).

    Both factors are PSD, so an overlap below 0 is rounding and is clipped.
    """
    batch, dim = states.shape[0], states.shape[1]
    # tr(M rho) = vec(M^T) . vec(rho); an einsum sums each entry alike whatever the batch size
    operators = np.swapaxes(stack, 1, 2).reshape(stack.shape[0], dim * dim)
    return np.maximum(np.einsum("kx,bx->bk", operators, states.reshape(batch, dim * dim)).real, 0.0)


def count_rows(states: np.ndarray, smeared: np.ndarray, mean_photons, seed: int, first_index=0) -> np.ndarray:
    """Measured counts of a batch of states in every (jitter width, photon number) cell, shape (S, P, B, K).

    ``states`` is (B, d, d), ``smeared`` the (S, K, d, d) operator stacks of
    S jitter widths, one entry per setting, and ``mean_photons`` the P
    source means.  The count of cell (s, p) is the photon number drawn about
    ``mean_photons[p]`` times the overlap with ``smeared[s]``.  Batch entry
    b is sample state ``first_index + b``, and the photon number of its
    setting k inverts the Poisson CDF at the Philox uniform of key (``seed``,
    0) and counter (first_index + b, k, 0, 0).  So the uniforms are drawn
    once for all cells, a sample gives the same counts whether it is counted
    whole or in any split, and every jitter width sees the same photon
    numbers.  ``mean_photons`` and ``seed`` arrive checked by the sweep
    config: positive and at most ``MAX_MEAN_PHOTONS``, and in
    0..``MAX_SEED``.
    """
    batch, count = states.shape[0], smeared.shape[1]
    index = np.arange(first_index, first_index + batch, dtype=np.uint64)[:, None]
    counter = np.stack(np.broadcast_arrays(index, np.arange(count, dtype=np.uint64), np.uint64(0), np.uint64(0)))
    uniforms = _uniforms((seed, 0), counter)
    photons = []
    for mean in mean_photons:
        lowest, cdf = _poisson_table(mean)
        photons.append(lowest + np.searchsorted(cdf, uniforms, side="right").astype(float))
    smeared_overlaps = np.stack([overlaps(states, stack) for stack in smeared])
    return np.stack(photons)[None] * smeared_overlaps[:, None]
