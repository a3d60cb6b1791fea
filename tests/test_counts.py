"""Photon-count simulation: noise model, seeding, record layout."""

import math

import numpy as np
import pytest

from timetomo.counts import (
    CountRecord,
    NoiseConfig,
    coincidence_count_set,
    count_rows,
    counting_rng,
    poisson_draw,
    qubit_count_set,
)
from timetomo.dynamics import DynamicsParams
from timetomo.measurement import (
    JitterModel,
    ic_povm_schedule,
    polarization_projector,
    setting_operators,
)
from timetomo.states import BellParams, BlochParams, bell_state, bloch_state

PARAMS = DynamicsParams()


def test_noise_config_validation():
    NoiseConfig(mean_photons=100.0)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=math.inf)
    with pytest.raises(ValueError):
        NoiseConfig(mean_photons=10.0, seed=-1)


def test_count_record_arity():
    CountRecord(times=(0.0,), expected=1.0, measured=2.0)
    CountRecord(times=(0.0, 0.25), expected=1.0, measured=2.0)
    with pytest.raises(ValueError):
        CountRecord(times=(), expected=1.0, measured=2.0)


def test_counting_rng_streams_are_independent_and_stable():
    a = counting_rng(0, 3, 1).poisson(100.0, size=4)
    b = counting_rng(0, 3, 1).poisson(100.0, size=4)
    c = counting_rng(0, 3, 2).poisson(100.0, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_expected_count_is_intensity_times_overlap():
    # the bookkeeping column is N tr(M rho) with the sharp operator, whatever
    # photon number the setting drew; t = 0 and t = 0.25 give overlaps 1 and 1/2
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    records = qubit_count_set(rho, PARAMS, JitterModel(0.0), NoiseConfig(mean_photons=500.0, seed=1))
    assert records[0].times == (0.0,) and records[1].times == (0.25,)
    assert records[0].expected == pytest.approx(500.0)
    assert records[1].expected == pytest.approx(250.0)
    with pytest.raises(ValueError):
        qubit_count_set(bell_state(BellParams(0.0)), PARAMS, JitterModel(0.0), NoiseConfig(500.0))


def test_poisson_draw_switch():
    rng = np.random.default_rng(5)
    assert poisson_draw(123.4, rng, enabled=False) == 123.4
    draws = [poisson_draw(1000.0, np.random.default_rng(k), True) for k in range(200)]
    assert np.mean(draws) == pytest.approx(1000.0, rel=0.02)
    assert all(d == int(d) for d in draws)
    with pytest.raises(ValueError):
        poisson_draw(0.0, rng)


def test_measured_count_uses_fresh_photon_number():
    # setting 0 (t = 0) has overlap 1 with H, so its count is the photon
    # number drawn from that setting's own stream
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    cfg = NoiseConfig(mean_photons=1000.0, seed=3)
    records = qubit_count_set(rho, PARAMS, JitterModel(0.0), cfg, state_index=4)
    assert records[0].measured == counting_rng(3, 4, 0).poisson(1000.0)


def test_qubit_set_noiseless_matches_closed_form():
    # sharp detector, no Poisson spread: counts are N (1 + cos 2 pi t) / 2
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    records = qubit_count_set(rho, PARAMS, JitterModel(0.0), cfg)
    assert len(records) == 6
    for rec in records:
        t = rec.times[0]
        want = 1000.0 * 0.5 * (1.0 + math.cos(2.0 * math.pi * t))
        assert rec.measured == pytest.approx(want, abs=1e-9)
        assert rec.expected == pytest.approx(want, abs=1e-9)


def test_qubit_set_expected_column_ignores_jitter():
    # bookkeeping column always reflects the sharp detector
    rho = bloch_state(BlochParams(1.0, 0.6, 1.1))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    sharp = qubit_count_set(rho, PARAMS, JitterModel(0.0), cfg)
    blurred = qubit_count_set(rho, PARAMS, JitterModel(0.2), cfg)
    for a, b in zip(sharp, blurred):
        assert a.expected == pytest.approx(b.expected)
    assert any(
        abs(a.measured - b.measured) > 1.0 for a, b in zip(sharp, blurred)
    )


def test_qubit_set_is_deterministic_per_seed_and_state():
    rho = bloch_state(BlochParams(0.7, 1.0, 2.0))
    cfg = NoiseConfig(mean_photons=100.0, seed=42)
    first = qubit_count_set(rho, PARAMS, JitterModel(0.1), cfg, state_index=5)
    second = qubit_count_set(rho, PARAMS, JitterModel(0.1), cfg, state_index=5)
    other = qubit_count_set(rho, PARAMS, JitterModel(0.1), cfg, state_index=6)
    assert [r.measured for r in first] == [r.measured for r in second]
    assert [r.measured for r in first] != [r.measured for r in other]


def test_qubit_set_settings_draw_independent_photon_numbers():
    rho = bloch_state(BlochParams(0.0, 0.0, 0.0))  # flat overlap 1/2 everywhere
    cfg = NoiseConfig(mean_photons=1000.0, seed=0)
    records = qubit_count_set(rho, PARAMS, JitterModel(0.0), cfg)
    photons = {round(2.0 * r.measured) for r in records}
    assert len(photons) > 1


def test_qubit_set_accepts_precomputed_stacks():
    # a sweep counts a whole batch over stacks it builds once; state b of a
    # batch starting at sample index 5 is state 5 + b of the single-state sets
    states = [bloch_state(BlochParams(0.9, 0.4, 5.0)), bloch_state(BlochParams(0.2, 2.0, 1.0))]
    cfg = NoiseConfig(mean_photons=200.0, seed=9)
    times = np.asarray(ic_povm_schedule().instants)
    _, sharp, smeared = setting_operators(PARAMS, JitterModel(0.15), times, 2)
    expected, measured = count_rows(np.array([s.matrix for s in states]), sharp, smeared, cfg, 5)
    for b, rho in enumerate(states):
        direct = qubit_count_set(rho, PARAMS, JitterModel(0.15), cfg, state_index=5 + b)
        assert [r.measured for r in direct] == measured[b].tolist()
        assert [r.expected for r in direct] == expected[b].tolist()
    with pytest.raises(ValueError):
        qubit_count_set(bell_state(BellParams(0.0)), PARAMS, JitterModel(0.0), cfg)


def test_coincidence_set_layout_and_normalization():
    rho = bell_state(BellParams(0.0))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    records = coincidence_count_set(rho, PARAMS, JitterModel(0.0), cfg)
    assert len(records) == 36
    instants = ic_povm_schedule().instants
    assert records[0].times == (instants[0], instants[0])
    assert records[1].times == (instants[0], instants[1])
    assert records[6].times == (instants[1], instants[0])
    # schedule resolves identity on each arm: total over 36 settings is 9 N
    total = sum(r.measured for r in records)
    assert total == pytest.approx(9.0 * 1000.0, rel=1e-12)
    with pytest.raises(ValueError):
        coincidence_count_set(
            bloch_state(BlochParams(0.0, 0.0, 0.0)), PARAMS, JitterModel(0.0), cfg
        )


def test_coincidence_correlations_follow_the_pair_phase():
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    # phase 0: perfectly correlated in the first basis, and the cross-basis
    # coincidence at (0.25, 1.25) is N (1 + sin alpha) / 4 by direct algebra
    by_times = {
        r.times: r.measured
        for r in coincidence_count_set(
            bell_state(BellParams(0.0)), PARAMS, JitterModel(0.0), cfg
        )
    }
    assert by_times[(0.0, 0.0)] == pytest.approx(500.0)
    assert by_times[(0.5, 0.5)] == pytest.approx(500.0)
    assert by_times[(0.0, 0.5)] == pytest.approx(0.0, abs=1e-9)
    assert by_times[(0.25, 1.25)] == pytest.approx(250.0)
    quarter = {
        r.times: r.measured
        for r in coincidence_count_set(
            bell_state(BellParams(1.5 * math.pi)), PARAMS, JitterModel(0.0), cfg
        )
    }
    assert quarter[(0.25, 1.25)] == pytest.approx(0.0, abs=1e-9)


def test_coincidence_setting_streams_match_flat_index():
    rho = bell_state(BellParams(1.0))
    cfg = NoiseConfig(mean_photons=500.0, seed=7)
    records = coincidence_count_set(rho, PARAMS, JitterModel(0.1), cfg, state_index=2)
    # rebuild every setting by hand, each from its own rng stream
    from timetomo.measurement import evolved_matrices, jittered_matrices

    times = np.asarray(ic_povm_schedule().instants)
    proj = polarization_projector("H")
    smeared = jittered_matrices(proj, PARAMS, JitterModel(0.1), times)
    ideal = evolved_matrices(proj, PARAMS, times)
    for k, record in enumerate(records):
        i, j = divmod(k, 6)
        photons = counting_rng(7, 2, k).poisson(500.0)
        overlap = np.real(np.trace(np.kron(smeared[i], smeared[j]) @ rho.matrix))
        expected = 500.0 * np.real(np.trace(np.kron(ideal[i], ideal[j]) @ rho.matrix))
        assert record.times == (times[i], times[j])
        assert record.measured == pytest.approx(float(photons) * float(overlap), rel=1e-12, abs=1e-12)
        assert record.expected == pytest.approx(float(expected), rel=1e-12, abs=1e-12)
