"""The noiseless limit of the estimator: the jitter bias with no counting noise.

The objective is homogeneous in (measured, model) counts, so a fit to
Poisson-free counts is the N -> infinity limit of the estimator, the bias
curve that finite-N cells scatter around.  Criterion 8 places the CHSH
boundary between jitter widths 0.065 and 0.07; in this limit the sixteen
Bell phases cross 1/sqrt 2 between about 0.0695 and 0.0701, so a few phases
still clear it at 0.07.
"""

import math

import numpy as np
import pytest

from timetomo.counts import NoiseConfig, count_rows
from timetomo.dynamics import DynamicsParams
from timetomo.estimator import EstimatorConfig, estimate_states
from timetomo.measurement import IC_POVM_INSTANTS, JitterModel, setting_operators
from timetomo.metrics import concurrences
from timetomo.states import sample_bell_states, state_stack

SIGMAS = (0.065, 0.07, 0.072, 0.1, 0.25)


@pytest.fixture(scope="module")
def noiseless_concurrence():
    """Concurrence of the noiseless fit of 16 Bell phases, (sigma, phase)."""
    states = state_stack(sample_bell_states(16))
    table = []
    for sigma in SIGMAS:
        _, sharp, smeared = setting_operators(DynamicsParams(), JitterModel(sigma), IC_POVM_INSTANTS, 4)
        _, measured = count_rows(states, sharp, smeared, NoiseConfig(mean_photons=1000.0, poisson_enabled=False))
        fits = estimate_states(sharp, measured, 1000.0, EstimatorConfig())
        assert fits.converged.all()
        table.append(concurrences(fits.rho))
    return np.array(table)


def test_noiseless_concurrence_crosses_the_chsh_bound_between_the_criterion_widths(noiseless_concurrence):
    bound = 1.0 / math.sqrt(2.0)
    assert (noiseless_concurrence[SIGMAS.index(0.065)] > bound).all()
    assert (noiseless_concurrence[SIGMAS.index(0.072)] < bound).all()


def test_noiseless_concurrence_decreases_with_jitter(noiseless_concurrence):
    assert (np.diff(noiseless_concurrence, axis=0) < 0).all()
