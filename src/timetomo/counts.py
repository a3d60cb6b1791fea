"""Simulated photon counts for batches of single qubits and photon pairs.

Counts follow the two-step noise model: the smeared (jitter-blurred)
operator fixes the detection probability, and the photon number fed into
each setting is an independent Poisson draw around the source mean.  Each
count comes with the count an ideal sharp detector would expect for the
true input state, purely as bookkeeping; reconstruction recomputes its own
expectations from candidate states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class NoiseConfig:
    """Source intensity and noise switches for one simulated experiment."""

    mean_photons: float
    seed: int = 0
    poisson_enabled: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.mean_photons) and self.mean_photons > 0):
            raise ValueError(f"mean_photons must be positive, got {self.mean_photons}")
        if not (0 <= int(self.seed) <= MAX_SEED):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def count_rows(states: np.ndarray, sharp: np.ndarray, smeared: np.ndarray, cfg: NoiseConfig, first_index=0):
    """Expected and measured counts of a batch of states, each of shape (B, K).

    ``states`` is (B, d, d) and the operator stacks are (K, d, d), one entry
    per setting.  Counts are drawn from ``smeared`` and booked against
    ``sharp``.  Batch entry b is sample state ``first_index + b``, and the
    photon number of its setting k is drawn from a stream of its own, keyed
    (seed, state, setting), so a sample gives the same counts whether it is
    counted whole or in any split.  Without Poisson noise every setting gets
    the mean photon number.
    """
    expected, measured = [], []
    for index, rho in enumerate(states, first_index):
        # tr(M rho) for a whole stack, one state at a time: a batched einsum
        # would sum in an order that depends on the batch size
        overlaps = np.einsum("kij,ji->k", smeared, rho).real
        expected.append(cfg.mean_photons * np.einsum("kij,ji->k", sharp, rho).real)
        photons = [
            float(np.random.default_rng([int(cfg.seed), 0, index, k]).poisson(cfg.mean_photons))
            if cfg.poisson_enabled
            else float(cfg.mean_photons)
            for k in range(len(smeared))
        ]
        measured.append(np.array(photons) * overlaps)
    return np.array(expected), np.array(measured)
