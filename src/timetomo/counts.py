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
from .measurement import (
    JitterModel,
    MeasurementSchedule,
    arm_operator_stacks,
    ic_povm_schedule,
)

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


def qubit_count_set(
    rho_in: DensityMatrix,
    params: DynamicsParams,
    jitter: JitterModel,
    cfg: NoiseConfig,
    state_index: int = 0,
    schedule: MeasurementSchedule | None = None,
    jittered_mats: np.ndarray | None = None,
    ideal_mats: np.ndarray | None = None,
) -> list[CountRecord]:
    """Count records for a single qubit over the measurement schedule.

    ``jittered_mats`` / ``ideal_mats`` accept precomputed operator stacks so
    sweeps do not redo the convolution per state; unless both are given,
    both are computed here.
    """
    if rho_in.dim != 2:
        raise ValueError("qubit count sets need a 2x2 input state")
    if schedule is None:
        schedule = ic_povm_schedule()
    if jittered_mats is None or ideal_mats is None:
        ideal_mats, jittered_mats = arm_operator_stacks(params, jitter, schedule.instants)
    rho = rho_in.matrix
    records = []
    for k, t in enumerate(schedule.instants):
        rng = counting_rng(cfg.seed, state_index, k)
        photons = poisson_draw(cfg.mean_photons, rng, cfg.poisson_enabled)
        measured = photons * float(np.real(np.trace(jittered_mats[k] @ rho)))
        expected = cfg.mean_photons * float(np.real(np.trace(ideal_mats[k] @ rho)))
        records.append(CountRecord(times=(t,), expected=expected, measured=measured))
    return records


def coincidence_count_set(
    rho_in: DensityMatrix,
    params: DynamicsParams,
    jitter: JitterModel,
    cfg: NoiseConfig,
    state_index: int = 0,
    schedule: MeasurementSchedule | None = None,
    jittered_mats: np.ndarray | None = None,
    ideal_mats: np.ndarray | None = None,
) -> list[CountRecord]:
    """Coincidence records for a photon pair over all instant pairs.

    Settings run through the schedule product in row-major order (first arm
    outer, second arm inner), 36 records for the standard schedule.  Each
    arm is smeared independently before the tensor product.
    """
    if rho_in.dim != 4:
        raise ValueError("coincidence count sets need a 4x4 input state")
    if schedule is None:
        schedule = ic_povm_schedule()
    if jittered_mats is None or ideal_mats is None:
        ideal_mats, jittered_mats = arm_operator_stacks(params, jitter, schedule.instants)
    rho = rho_in.matrix
    records = []
    setting = 0
    for i, t_first in enumerate(schedule.instants):
        for j, t_second in enumerate(schedule.instants):
            rng = counting_rng(cfg.seed, state_index, setting)
            photons = poisson_draw(cfg.mean_photons, rng, cfg.poisson_enabled)
            pair_smeared = np.kron(jittered_mats[i], jittered_mats[j])
            pair_ideal = np.kron(ideal_mats[i], ideal_mats[j])
            measured = photons * float(np.real(np.trace(pair_smeared @ rho)))
            expected = cfg.mean_photons * float(np.real(np.trace(pair_ideal @ rho)))
            records.append(
                CountRecord(times=(t_first, t_second), expected=expected, measured=measured)
            )
            setting += 1
    return records
