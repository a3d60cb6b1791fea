"""The noiseless limit of the estimator: the jitter bias with no counting noise.

The objective is homogeneous in (measured, model) counts, so a fit to
Poisson-free counts is the N -> infinity limit of the estimator, the bias
curve that finite-N cells scatter around.  Criterion 8 places the CHSH
boundary between jitter widths 0.065 and 0.07; in this limit the sixteen
Bell phases cross 1/sqrt 2 between about 0.0695 and 0.0701, so a few phases
still clear it at 0.07.  As N grows, the finite-N cell means close in on the
noiseless ones.
"""

import math

import numpy as np
import pytest

from timetomo.counts import count_rows, overlaps
from timetomo.dynamics import DynamicsParams
from timetomo.estimator import EstimatorConfig, estimate_states
from timetomo.measurement import IC_POVM_INSTANTS, setting_operators
from timetomo.metrics import concurrences
from timetomo.states import sample_bell_states

SIGMAS = (0.065, 0.07, 0.072, 0.1, 0.25)


@pytest.fixture(scope="module")
def noiseless_concurrence():
    """Concurrence of the noiseless fit of 16 Bell phases, (sigma, phase)."""
    states, _ = sample_bell_states(16)
    table = []
    for sigma in SIGMAS:
        _, sharp, (smeared,) = setting_operators(DynamicsParams(), [sigma], IC_POVM_INSTANTS, 4)
        # the noiseless count row: N times the smeared overlaps
        measured = 1000.0 * overlaps(states, smeared)
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


def test_cell_means_approach_the_noiseless_limit_as_photon_number_grows():
    # cell mean minus noiseless mean is bias plus counting noise, both
    # shrinking with N; the gap's sign can flip below N = 100 and, on some
    # seeds, between 100 and 1000, so only magnitudes are compared: the
    # largest N sits closest, and every gap is within 0.1 / sqrt(N) (seeds
    # 0-19 stay within 0.051 / sqrt(N))
    states, _ = sample_bell_states(200)
    _, sharp, smeared = setting_operators(DynamicsParams(), [0.1], IC_POVM_INSTANTS, 4)
    noiseless = 1000.0 * overlaps(states, smeared[0])
    limit = concurrences(estimate_states(sharp, noiseless, 1000.0, EstimatorConfig()).rho).mean()
    photon_numbers = (100.0, 1000.0, 10000.0)
    gaps = []
    for n_photons in photon_numbers:
        measured = count_rows(states, smeared, [n_photons], 0)[0, 0]
        fits = estimate_states(sharp, measured, n_photons, EstimatorConfig())
        assert fits.converged.all()
        gaps.append(abs(concurrences(fits.rho).mean() - limit))
    assert gaps[-1] < min(gaps[:-1]), gaps
    for gap, n_photons in zip(gaps, photon_numbers):
        assert gap < 0.1 / math.sqrt(n_photons), (n_photons, gap)
