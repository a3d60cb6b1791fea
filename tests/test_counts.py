"""Photon-count simulation: noise model, seeding, setting layout."""

import math

import numpy as np
import pytest

from timetomo.counts import NoiseConfig, count_rows
from timetomo.dynamics import DynamicsParams
from timetomo.measurement import (
    IC_POVM_INSTANTS,
    JitterModel,
    polarization_projector,
    setting_operators,
)
from timetomo.states import BellParams, BlochParams, bell_state, bloch_state

PARAMS = DynamicsParams()

# one setting whose operator is the identity: a count is the photon number itself
IDENTITY = np.eye(2, dtype=complex)[None]
H_STATE = np.diag([1.0, 0.0]).astype(complex)


def _photons(seed, state_index, setting_index, mean_photons):
    """The photon number of one setting, drawn from its (seed, state, setting) stream."""
    return float(np.random.default_rng([seed, 0, state_index, setting_index]).poisson(mean_photons))


def _rows(rho, sigma, cfg, state_index=0):
    """Settings, expected and measured counts of one state over the six-instant schedule."""
    settings, sharp, smeared = setting_operators(PARAMS, JitterModel(sigma), IC_POVM_INSTANTS, rho.dim)
    expected, measured = count_rows(rho.matrix[None], sharp, smeared, cfg, state_index)
    return settings, expected[0], measured[0]


def test_noise_config_validation():
    NoiseConfig(mean_photons=100.0)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=math.inf)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=10.0, seed=-1)


def test_counting_rng_streams_are_independent_and_stable():
    stack = np.repeat(IDENTITY, 4, axis=0)
    a = count_rows(H_STATE[None], stack, stack, NoiseConfig(100.0, seed=0), first_index=3)[1][0]
    b = count_rows(H_STATE[None], stack, stack, NoiseConfig(100.0, seed=0), first_index=3)[1][0]
    assert np.array_equal(a, b)
    assert a.tolist() == [_photons(0, 3, k, 100.0) for k in range(4)]
    assert len(set(a.tolist())) > 1


def test_expected_count_is_intensity_times_overlap():
    # the bookkeeping column is N tr(M rho) with the sharp operator, whatever
    # photon number the setting drew; t = 0 and t = 0.25 give overlaps 1 and 1/2
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    settings, expected, _ = _rows(rho, 0.0, NoiseConfig(mean_photons=500.0, seed=1))
    assert settings[0] == (0.0,) and settings[1] == (0.25,)
    assert expected[0] == pytest.approx(500.0)
    assert expected[1] == pytest.approx(250.0)


def test_poisson_draw_switch():
    _, off = count_rows(H_STATE[None], IDENTITY, IDENTITY, NoiseConfig(123.4, poisson_enabled=False))
    assert off[0, 0] == 123.4
    states = np.repeat(H_STATE[None], 200, axis=0)
    draws = count_rows(states, IDENTITY, IDENTITY, NoiseConfig(1000.0, poisson_enabled=True))[1][:, 0]
    assert np.mean(draws) == pytest.approx(1000.0, rel=0.02)
    assert all(d == int(d) for d in draws)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=0.0)


def test_measured_count_uses_fresh_photon_number():
    # setting 0 (t = 0) has overlap 1 with H, so its count is the photon
    # number drawn from that setting's own stream
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    _, _, measured = _rows(rho, 0.0, NoiseConfig(mean_photons=1000.0, seed=3), state_index=4)
    assert measured[0] == _photons(3, 4, 0, 1000.0)


def test_qubit_set_noiseless_matches_closed_form():
    # sharp detector, no Poisson spread: counts are N (1 + cos 2 pi t) / 2
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    settings, expected, measured = _rows(rho, 0.0, cfg)
    assert len(settings) == 6
    for (t,), e, m in zip(settings, expected, measured):
        want = 1000.0 * 0.5 * (1.0 + math.cos(2.0 * math.pi * t))
        assert m == pytest.approx(want, abs=1e-9)
        assert e == pytest.approx(want, abs=1e-9)


def test_qubit_set_expected_column_ignores_jitter():
    # bookkeeping column always reflects the sharp detector
    rho = bloch_state(BlochParams(1.0, 0.6, 1.1))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    _, sharp_expected, sharp_measured = _rows(rho, 0.0, cfg)
    _, blurred_expected, blurred_measured = _rows(rho, 0.2, cfg)
    assert blurred_expected == pytest.approx(sharp_expected)
    assert np.abs(sharp_measured - blurred_measured).max() > 1.0


def test_qubit_set_is_deterministic_per_seed_and_state():
    rho = bloch_state(BlochParams(0.7, 1.0, 2.0))
    cfg = NoiseConfig(mean_photons=100.0, seed=42)
    first = _rows(rho, 0.1, cfg, state_index=5)[2]
    second = _rows(rho, 0.1, cfg, state_index=5)[2]
    other = _rows(rho, 0.1, cfg, state_index=6)[2]
    assert first.tolist() == second.tolist()
    assert first.tolist() != other.tolist()


def test_qubit_set_settings_draw_independent_photon_numbers():
    rho = bloch_state(BlochParams(0.0, 0.0, 0.0))  # flat overlap 1/2 everywhere
    _, _, measured = _rows(rho, 0.0, NoiseConfig(mean_photons=1000.0, seed=0))
    photons = {round(2.0 * m) for m in measured}
    assert len(photons) > 1


def test_qubit_set_accepts_precomputed_stacks():
    # a sweep counts a whole batch; state b of a batch starting at sample
    # index 5 is state 5 + b counted on its own
    states = [bloch_state(BlochParams(0.9, 0.4, 5.0)), bloch_state(BlochParams(0.2, 2.0, 1.0))]
    cfg = NoiseConfig(mean_photons=200.0, seed=9)
    _, sharp, smeared = setting_operators(PARAMS, JitterModel(0.15), IC_POVM_INSTANTS, 2)
    expected, measured = count_rows(np.array([s.matrix for s in states]), sharp, smeared, cfg, 5)
    for b, rho in enumerate(states):
        _, direct_expected, direct_measured = _rows(rho, 0.15, cfg, state_index=5 + b)
        assert direct_measured.tolist() == measured[b].tolist()
        assert direct_expected.tolist() == expected[b].tolist()


def test_coincidence_set_layout_and_normalization():
    rho = bell_state(BellParams(0.0))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    settings, _, measured = _rows(rho, 0.0, cfg)
    assert len(settings) == 36
    instants = IC_POVM_INSTANTS
    assert settings[0] == (instants[0], instants[0])
    assert settings[1] == (instants[0], instants[1])
    assert settings[6] == (instants[1], instants[0])
    # schedule resolves identity on each arm: total over 36 settings is 9 N
    assert measured.sum() == pytest.approx(9.0 * 1000.0, rel=1e-12)


def test_coincidence_correlations_follow_the_pair_phase():
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    # phase 0: perfectly correlated in the first basis, and the cross-basis
    # coincidence at (0.25, 1.25) is N (1 + sin alpha) / 4 by direct algebra
    settings, _, measured = _rows(bell_state(BellParams(0.0)), 0.0, cfg)
    by_times = dict(zip(settings, measured))
    assert by_times[(0.0, 0.0)] == pytest.approx(500.0)
    assert by_times[(0.5, 0.5)] == pytest.approx(500.0)
    assert by_times[(0.0, 0.5)] == pytest.approx(0.0, abs=1e-9)
    assert by_times[(0.25, 1.25)] == pytest.approx(250.0)
    settings, _, measured = _rows(bell_state(BellParams(1.5 * math.pi)), 0.0, cfg)
    quarter = dict(zip(settings, measured))
    assert quarter[(0.25, 1.25)] == pytest.approx(0.0, abs=1e-9)


def test_coincidence_setting_streams_match_flat_index():
    rho = bell_state(BellParams(1.0))
    cfg = NoiseConfig(mean_photons=500.0, seed=7)
    settings, expected, measured = _rows(rho, 0.1, cfg, state_index=2)
    # rebuild every setting by hand, each from its own rng stream
    from timetomo.measurement import evolved_matrices, jittered_matrices

    times = np.asarray(IC_POVM_INSTANTS)
    proj = polarization_projector("H")
    smeared = jittered_matrices(proj, PARAMS, JitterModel(0.1), times)
    ideal = evolved_matrices(proj, PARAMS, times)
    for k in range(len(settings)):
        i, j = divmod(k, 6)
        photons = _photons(7, 2, k, 500.0)
        overlap = np.real(np.trace(np.kron(smeared[i], smeared[j]) @ rho.matrix))
        want = 500.0 * np.real(np.trace(np.kron(ideal[i], ideal[j]) @ rho.matrix))
        assert settings[k] == (times[i], times[j])
        assert measured[k] == pytest.approx(photons * float(overlap), rel=1e-12, abs=1e-12)
        assert expected[k] == pytest.approx(float(want), rel=1e-12, abs=1e-12)
