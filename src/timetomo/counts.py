"""Simulated photon-count records for single qubits and photon pairs.

Counts follow the two-step noise model: the smeared (jitter-blurred)
operator fixes the detection probability, and the photon number fed into
each setting is an independent Poisson draw around the source mean.  The
record also carries the count an ideal sharp detector would expect for the
true input state, purely as bookkeeping; reconstruction recomputes its own
expectations from candidate states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix
from .dynamics import DynamicsParams
from .measurement import JitterModel, MeasurementSchedule, ic_povm_schedule, setting_operators

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


@dataclass(frozen=True)
class CountRecord:
    """One measurement setting: its instants and the two count numbers."""

    times: tuple[float, ...]
    expected: float
    measured: float

    def __post_init__(self):
        if len(self.times) not in (1, 2):
            raise ValueError("a record carries one instant (qubit) or two (pair)")


def counting_rng(seed: int, state_index: int, setting_index: int) -> np.random.Generator:
    """Independent, order-insensitive random stream for one (state, setting)."""
    return np.random.default_rng([int(seed), 0, int(state_index), int(setting_index)])


def poisson_draw(mean_photons: float, rng: np.random.Generator, enabled: bool = True) -> float:
    """Photon number for one setting: Poisson around the mean, or the mean itself."""
    if mean_photons <= 0:
        raise ValueError("mean_photons must be positive")
    if not enabled:
        return float(mean_photons)
    return float(rng.poisson(mean_photons))


def count_rows(states: np.ndarray, sharp: np.ndarray, smeared: np.ndarray, cfg: NoiseConfig, first_index=0):
    """Expected and measured counts of a batch of states, each of shape (B, K).

    ``states`` is (B, d, d) and the operator stacks are (K, d, d), one entry
    per setting.  Counts are drawn from ``smeared`` and booked against
    ``sharp``.  Batch entry b is sample state ``first_index + b`` and takes
    its photon numbers from that state's own per-setting streams, so a
    sample gives the same counts whether it is counted whole or in any split.
    """
    expected, measured = [], []
    for index, rho in enumerate(states, first_index):
        # tr(M rho) for a whole stack, one state at a time: a batched einsum
        # would sum in an order that depends on the batch size
        overlaps = np.einsum("kij,ji->k", smeared, rho).real
        expected.append(cfg.mean_photons * np.einsum("kij,ji->k", sharp, rho).real)
        rngs = [counting_rng(cfg.seed, index, k) for k in range(len(smeared))]
        photons = [poisson_draw(cfg.mean_photons, rng, cfg.poisson_enabled) for rng in rngs]
        measured.append(np.array(photons) * overlaps)
    return np.array(expected), np.array(measured)


def _count_set(rho_in: DensityMatrix, params, jitter, cfg, state_index, schedule) -> list[CountRecord]:
    instants = (schedule if schedule is not None else ic_povm_schedule()).instants
    settings, sharp, smeared = setting_operators(params, jitter, instants, rho_in.dim)
    expected, measured = count_rows(rho_in.matrix[None], sharp, smeared, cfg, state_index)
    return [CountRecord(times, float(e), float(m)) for times, e, m in zip(settings, expected[0], measured[0])]


def qubit_count_set(
    rho_in: DensityMatrix,
    params: DynamicsParams,
    jitter: JitterModel,
    cfg: NoiseConfig,
    state_index: int = 0,
    schedule: MeasurementSchedule | None = None,
) -> list[CountRecord]:
    """Count records for a single qubit over the measurement schedule."""
    if rho_in.dim != 2:
        raise ValueError("qubit count sets need a 2x2 input state")
    return _count_set(rho_in, params, jitter, cfg, state_index, schedule)


def coincidence_count_set(
    rho_in: DensityMatrix,
    params: DynamicsParams,
    jitter: JitterModel,
    cfg: NoiseConfig,
    state_index: int = 0,
    schedule: MeasurementSchedule | None = None,
) -> list[CountRecord]:
    """Coincidence records for a photon pair over all instant pairs.

    Settings run through the schedule product in row-major order (first arm
    outer, second arm inner), 36 records for the standard schedule.  Each
    arm is smeared independently before the tensor product.
    """
    if rho_in.dim != 4:
        raise ValueError("coincidence count sets need a 4x4 input state")
    return _count_set(rho_in, params, jitter, cfg, state_index, schedule)
