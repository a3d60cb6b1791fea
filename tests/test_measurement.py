"""Rotating-frame measurement operators, jitter smearing, trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evolution_unitaries, horizontal_closed_form
from timetomo.core import max_abs
from timetomo.counts import NoiseConfig, count_rows
from timetomo.dynamics import DynamicsParams
from timetomo.measurement import (
    IC_POVM_INSTANTS,
    POLARIZATION_KETS,
    JitterModel,
    bloch_trajectory,
    evolved_matrices,
    jittered_matrices,
    polarization_projector,
    setting_operators,
)
from timetomo.states import BellParams, bell_state

PARAMS = DynamicsParams()


def test_polarization_kets_are_unit_norm():
    for ket in POLARIZATION_KETS.values():
        assert np.linalg.norm(ket) == pytest.approx(1.0)


def test_polarization_basis_structure():
    # three orthogonal pairs, mutually unbiased across pairs
    pairs = (("H", "V"), ("D", "A"), ("R", "L"))
    for a, b in pairs:
        overlap = POLARIZATION_KETS[a].conj() @ POLARIZATION_KETS[b]
        assert abs(overlap) < 1e-15
    for (a, _), (c, _) in zip(pairs, pairs[1:]):
        overlap = POLARIZATION_KETS[a].conj() @ POLARIZATION_KETS[c]
        assert abs(overlap) ** 2 == pytest.approx(0.5)


def test_projector_is_rank_one_and_idempotent():
    for label in POLARIZATION_KETS:
        p = polarization_projector(label)
        assert max_abs(p @ p - p) < 1e-15
        assert np.trace(p).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        polarization_projector("X")


def test_measurement_operator_validation():
    # the seed operator must be a Hermitian PSD 2x2 matrix
    assert evolved_matrices(np.eye(2) / 2, PARAMS, [0.25]).shape == (1, 2, 2)
    with pytest.raises(ValueError):
        evolved_matrices(np.array([[0.0, 1.0], [0.0, 0.0]]), PARAMS, [0.0])
    with pytest.raises(ValueError):
        evolved_matrices(np.diag([1.0, -0.5]), PARAMS, [0.0])
    with pytest.raises(ValueError):
        evolved_matrices(np.eye(3), PARAMS, [0.0])


def test_standard_schedule_instants_frozen():
    assert IC_POVM_INSTANTS == (0.0, 0.25, 0.5, 0.75, 1.25, 1.75)


def test_evolved_matches_closed_form_on_grid():
    proj = polarization_projector("H")
    times = np.linspace(0.0, 2.0, 101)
    stack = evolved_matrices(proj, PARAMS, times)
    for k, t in enumerate(times):
        assert max_abs(stack[k] - horizontal_closed_form(t)) < 1e-12


def test_quarter_period_operator_frozen():
    # hand value: diag 1/2, off-diagonal -(1/2) e^{i pi/4}
    op = evolved_matrices(polarization_projector("H"), PARAMS, [0.25])[0]
    expect = np.array(
        [
            [0.5, -0.5 * np.exp(0.25j * math.pi)],
            [-0.5 * np.exp(-0.25j * math.pi), 0.5],
        ]
    )
    assert max_abs(op - expect) < 1e-12


def test_six_instants_are_informationally_complete():
    proj = polarization_projector("H")
    stack = evolved_matrices(proj, PARAMS, IC_POVM_INSTANTS)
    total = stack.sum(axis=0) / 3.0
    assert max_abs(total - np.eye(2)) < 1e-12


def test_six_instants_form_three_orthogonal_pairs():
    proj = polarization_projector("H")
    mats = {t: m for t, m in zip(IC_POVM_INSTANTS, evolved_matrices(proj, PARAMS, IC_POVM_INSTANTS))}
    for a, b in ((0.0, 0.5), (0.25, 1.25), (0.75, 1.75)):
        assert max_abs(mats[a] + mats[b] - np.eye(2)) < 1e-12
        assert abs(np.trace(mats[a] @ mats[b])) < 1e-12
    # projectors from different pairs overlap like mutually unbiased bases
    assert np.trace(mats[0.0] @ mats[0.25]).real == pytest.approx(0.5)
    assert np.trace(mats[0.25] @ mats[0.75]).real == pytest.approx(0.5)


def test_jitter_model_validation():
    assert JitterModel(0.0).sigma == 0.0
    assert JitterModel(0.2).sigma == 0.2
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            JitterModel(bad)


def test_zero_jitter_is_a_passthrough():
    proj = polarization_projector("H")
    times = np.array([0.0, 0.3, 1.1])
    ideal = evolved_matrices(proj, PARAMS, times)
    smeared = jittered_matrices(proj, PARAMS, JitterModel(0.0), times)
    assert max_abs(ideal - smeared) == 0.0


def test_subnormal_width_yields_the_sharp_stack():
    # sigma^2 Omega^2 underflows to 0, so every harmonic keeps its full weight
    proj = polarization_projector("D")
    times = np.array([0.0, 0.3, 1.1])
    ideal = evolved_matrices(proj, PARAMS, times)
    smeared = jittered_matrices(proj, PARAMS, JitterModel(5e-324), times)
    assert max_abs(ideal - smeared) == 0.0


def test_smeared_diagonal_matches_analytic_damping():
    # closed form: 1/2 + (1/2) exp(-2 pi^2 sigma^2) cos(2 pi t)
    proj = polarization_projector("H")
    times = np.linspace(0.0, 2.0, 27)
    for sigma in (0.1, 0.3, 0.5):
        smeared = jittered_matrices(proj, PARAMS, JitterModel(sigma), times)
        damp = math.exp(-2.0 * (math.pi * sigma) ** 2)
        expect = 0.5 + 0.5 * damp * np.cos(2.0 * math.pi * times)
        assert np.abs(smeared[:, 0, 0].real - expect).max() < 1e-12


def test_smeared_off_diagonal_matches_analytic_damping():
    # each frequency component damps as exp(-(w sigma)^2 / 2)
    proj = polarization_projector("H")
    times = np.linspace(0.0, 2.0, 27)
    for sigma in (0.1, 0.3, 0.5):
        smeared = jittered_matrices(proj, PARAMS, JitterModel(sigma), times)
        d3 = math.exp(-4.5 * (math.pi * sigma) ** 2)
        d1 = math.exp(-0.5 * (math.pi * sigma) ** 2)
        expect = -(1.0 / 4j) * (
            np.exp(3j * math.pi * times) * d3 - np.exp(-1j * math.pi * times) * d1
        )
        assert np.abs(smeared[:, 0, 1] - expect).max() < 1e-12


def test_smearing_preserves_trace_and_positivity():
    proj = polarization_projector("D")
    times = np.linspace(0.0, 2.0, 21)
    smeared = jittered_matrices(proj, PARAMS, JitterModel(0.4), times)
    traces = np.einsum("nii->n", smeared).real
    assert np.abs(traces - 1.0).max() < 1e-12
    for m in smeared:
        assert np.linalg.eigvalsh(m).min() > -1e-12


def _trapezoid_reference(m0, params, sigma, times):
    # the convolution done directly: a trapezoid rule with step sigma / 40 on
    # U(t)^dag M0 U(t) over a +-8 sigma window, normalised analytically
    offsets = np.linspace(-8.0, 8.0, 641)
    weights = np.exp(-0.5 * offsets**2) * (offsets[1] - offsets[0]) / math.sqrt(2.0 * math.pi)
    weights[[0, -1]] *= 0.5
    u = evolution_unitaries(params, np.add.outer(times, sigma * offsets))
    evolved = np.einsum("tkji,jl,tklm->tkim", u.conj(), m0, u)
    return np.einsum("k,tkij->tij", weights, evolved)


@settings(max_examples=100, deadline=None)
@given(
    periods=st.tuples(*[st.floats(0.5, 5.0)] * 3),
    sigma=st.floats(0.01, 1.0),
    times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    label=st.sampled_from(sorted(POLARIZATION_KETS)),
)
def test_smeared_stack_is_physical_and_matches_direct_convolution(periods, sigma, times, label):
    params = DynamicsParams(*periods)
    proj = polarization_projector(label)
    times = np.array(times)
    smeared = jittered_matrices(proj, params, JitterModel(sigma), times)
    assert max_abs(smeared - np.conj(np.swapaxes(smeared, 1, 2))) == 0.0
    assert np.abs(np.einsum("nii->n", smeared) - 1.0).max() < 1e-12
    bloch = np.stack(
        [2.0 * smeared[:, 0, 1].real, -2.0 * smeared[:, 0, 1].imag, (smeared[:, 0, 0] - smeared[:, 1, 1]).real]
    )
    assert np.linalg.norm(bloch, axis=0).max() <= 1.0 + 1e-12
    assert np.linalg.eigvalsh(smeared).min() >= -1e-12
    assert max_abs(smeared - _trapezoid_reference(proj, params, sigma, times)) < 1e-12


def test_extreme_jitter_flattens_to_half_identity():
    op = jittered_matrices(polarization_projector("H"), PARAMS, JitterModel(5.0), [0.3])[0]
    assert max_abs(op - np.eye(2) / 2) < 1e-6


def test_two_qubit_operator_is_smeared_tensor_product():
    # each arm is smeared on its own before the product: a noiseless
    # coincidence count is N tr((M_a (x) M_b) rho) with smeared arm operators
    jm = JitterModel(0.15)
    rho = bell_state(BellParams(0.4))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    settings, sharp, smeared = setting_operators(PARAMS, jm, IC_POVM_INSTANTS, 4)
    by_times = dict(zip(settings, count_rows(rho.matrix[None], sharp, smeared, cfg)[1][0]))
    proj = polarization_projector("H")
    a = jittered_matrices(proj, PARAMS, jm, [0.25])[0]
    b = jittered_matrices(proj, PARAMS, jm, [0.75])[0]
    want = 1000.0 * np.trace(np.kron(a, b) @ rho.matrix).real
    assert by_times[(0.25, 0.75)] == pytest.approx(want, rel=1e-12)


def test_setting_operators_pair_sharp_and_smeared_projectors():
    jm = JitterModel(0.15)
    times = [0.25, 0.75]
    settings, ideal, smeared = setting_operators(PARAMS, jm, times, 2)
    proj = polarization_projector("H")
    assert settings == [(0.25,), (0.75,)]
    assert np.array_equal(ideal, evolved_matrices(proj, PARAMS, times))
    assert np.array_equal(smeared, jittered_matrices(proj, PARAMS, jm, times))
    # pair settings run first arm outer and tensor the same arm stacks
    settings, pair_ideal, pair_smeared = setting_operators(PARAMS, jm, times, 4)
    assert settings == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    assert np.array_equal(pair_ideal[1], np.kron(ideal[0], ideal[1]))
    assert np.array_equal(pair_smeared[2], np.kron(smeared[1], smeared[0]))
    # the six-instant schedule gives 6 qubit and 36 pair settings
    assert setting_operators(PARAMS, jm, IC_POVM_INSTANTS, 2)[1].shape == (6, 2, 2)
    assert setting_operators(PARAMS, jm, IC_POVM_INSTANTS, 4)[1].shape == (36, 4, 4)


def test_trajectory_stays_on_sphere_without_jitter():
    table = bloch_trajectory(
        polarization_projector("H"), PARAMS, JitterModel(0.0), np.linspace(0, 2, 50)
    )
    assert table.shape == (50, 5)
    radius = np.linalg.norm(table[:, 1:4], axis=1)
    assert np.abs(radius - 1.0).max() < 1e-12
    assert np.abs(table[:, 4] - 1.0).max() < 1e-12


def test_trajectory_contracts_under_jitter():
    table = bloch_trajectory(
        polarization_projector("H"), PARAMS, JitterModel(0.75), np.linspace(0, 2, 50)
    )
    radius = np.linalg.norm(table[:, 1:4], axis=1)
    assert radius.max() < 0.05
    # z amplitude damps by exactly exp(-2 pi^2 sigma^2)
    z0 = bloch_trajectory(
        polarization_projector("H"), PARAMS, JitterModel(0.3), np.array([0.0])
    )[0, 3]
    assert z0 == pytest.approx(math.exp(-2.0 * (math.pi * 0.3) ** 2), abs=1e-8)
