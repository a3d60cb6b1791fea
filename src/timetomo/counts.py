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
    kron_pairs,
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


def _count_records(settings, smeared, ideal, rho_in: DensityMatrix, cfg: NoiseConfig, state_index: int):
    """One record per setting: counts drawn from ``smeared``, booked against ``ideal``."""
    # tr(M rho) for a whole operator stack at once
    overlaps = np.einsum("kij,ji->k", smeared, rho_in.matrix).real
    expected = cfg.mean_photons * np.einsum("kij,ji->k", ideal, rho_in.matrix).real
    records = []
    for k, times in enumerate(settings):
        photons = poisson_draw(cfg.mean_photons, counting_rng(cfg.seed, state_index, k), cfg.poisson_enabled)
        records.append(CountRecord(times, float(expected[k]), photons * float(overlaps[k])))
    return records


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
    sweeps do not recompute them per state; unless both are given, both are
    computed here.
    """
    if rho_in.dim != 2:
        raise ValueError("qubit count sets need a 2x2 input state")
    if schedule is None:
        schedule = ic_povm_schedule()
    if jittered_mats is None or ideal_mats is None:
        ideal_mats, jittered_mats = arm_operator_stacks(params, jitter, schedule.instants)
    settings = [(t,) for t in schedule.instants]
    return _count_records(settings, jittered_mats, ideal_mats, rho_in, cfg, state_index)


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
    instants = schedule.instants
    settings = [(a, b) for a in instants for b in instants]
    first, second = np.divmod(np.arange(len(settings)), len(instants))
    smeared = kron_pairs(jittered_mats[first], jittered_mats[second])
    ideal = kron_pairs(ideal_mats[first], ideal_mats[second])
    return _count_records(settings, smeared, ideal, rho_in, cfg, state_index)
