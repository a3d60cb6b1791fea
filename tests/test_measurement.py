"""Rotating-frame measurement operators, jitter smearing, trajectories."""

import math

import numpy as np
import pytest

from timetomo.core import max_abs
from timetomo.counts import NoiseConfig, coincidence_count_set
from timetomo.dynamics import DynamicsParams
from timetomo.measurement import (
    POLARIZATION_KETS,
    JitterModel,
    MeasurementSchedule,
    arm_operator_stacks,
    bloch_trajectory,
    evolved_matrices,
    horizontal_closed_form,
    ic_povm_schedule,
    jittered_matrices,
    polarization_projector,
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


def test_schedule_requires_strictly_increasing_instants():
    MeasurementSchedule((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        MeasurementSchedule(())
    with pytest.raises(ValueError):
        MeasurementSchedule((0.0, 0.5, 0.5))


def test_standard_schedule_instants_frozen():
    assert ic_povm_schedule().instants == (0.0, 0.25, 0.5, 0.75, 1.25, 1.75)


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
    stack = evolved_matrices(proj, PARAMS, ic_povm_schedule().instants)
    total = stack.sum(axis=0) / 3.0
    assert max_abs(total - np.eye(2)) < 1e-12


def test_six_instants_form_three_orthogonal_pairs():
    proj = polarization_projector("H")
    instants = ic_povm_schedule().instants
    mats = {t: m for t, m in zip(instants, evolved_matrices(proj, PARAMS, instants))}
    for a, b in ((0.0, 0.5), (0.25, 1.25), (0.75, 1.75)):
        assert max_abs(mats[a] + mats[b] - np.eye(2)) < 1e-12
        assert abs(np.trace(mats[a] @ mats[b])) < 1e-12
    # projectors from different pairs overlap like mutually unbiased bases
    assert np.trace(mats[0.0] @ mats[0.25]).real == pytest.approx(0.5)
    assert np.trace(mats[0.25] @ mats[0.75]).real == pytest.approx(0.5)


def test_jitter_model_validation_and_weights():
    assert JitterModel(0.0).sigma == 0.0
    jm = JitterModel(0.2)
    assert jm.window_halfwidth == pytest.approx(1.2)
    assert jm.quadrature_step == pytest.approx(0.01)
    offsets, weights = jm.kernel_weights()
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert offsets[0] == pytest.approx(-1.2)
    assert jm.kernel_mass() == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        JitterModel(-0.1)
    with pytest.raises(ValueError):
        JitterModel(0.2, window_halfwidth=0.2)  # truncates too much mass


def test_zero_jitter_is_a_passthrough():
    proj = polarization_projector("H")
    times = np.array([0.0, 0.3, 1.1])
    ideal = evolved_matrices(proj, PARAMS, times)
    smeared = jittered_matrices(proj, PARAMS, JitterModel(0.0), times)
    assert max_abs(ideal - smeared) == 0.0


def test_smeared_diagonal_matches_analytic_damping():
    # closed form: 1/2 + (1/2) exp(-2 pi^2 sigma^2) cos(2 pi t)
    proj = polarization_projector("H")
    times = np.linspace(0.0, 2.0, 27)
    for sigma in (0.1, 0.3, 0.5):
        smeared = jittered_matrices(proj, PARAMS, JitterModel(sigma), times)
        damp = math.exp(-2.0 * (math.pi * sigma) ** 2)
        expect = 0.5 + 0.5 * damp * np.cos(2.0 * math.pi * times)
        assert np.abs(smeared[:, 0, 0].real - expect).max() < 1e-8


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
        assert np.abs(smeared[:, 0, 1] - expect).max() < 1e-8


def test_smearing_preserves_trace_and_positivity():
    proj = polarization_projector("D")
    times = np.linspace(0.0, 2.0, 21)
    smeared = jittered_matrices(proj, PARAMS, JitterModel(0.4), times)
    traces = np.einsum("nii->n", smeared).real
    assert np.abs(traces - 1.0).max() < 1e-12
    for m in smeared:
        assert np.linalg.eigvalsh(m).min() > -1e-12


def test_extreme_jitter_flattens_to_half_identity():
    op = jittered_matrices(polarization_projector("H"), PARAMS, JitterModel(5.0), [0.3])[0]
    assert max_abs(op - np.eye(2) / 2) < 1e-6


def test_quadrature_refinement_is_converged():
    # halving the step must not move the result at reported precision
    proj = polarization_projector("H")
    coarse = jittered_matrices(proj, PARAMS, JitterModel(0.25), [0.4])[0]
    fine = jittered_matrices(
        proj, PARAMS, JitterModel(0.25, quadrature_step=0.25 / 40.0), [0.4]
    )[0]
    assert max_abs(coarse - fine) < 1e-9


def test_two_qubit_operator_is_smeared_tensor_product():
    # each arm is smeared on its own before the product: a noiseless
    # coincidence count is N tr((M_a (x) M_b) rho) with smeared arm operators
    jm = JitterModel(0.15)
    rho = bell_state(BellParams(0.4))
    cfg = NoiseConfig(mean_photons=1000.0, poisson_enabled=False)
    by_times = {r.times: r.measured for r in coincidence_count_set(rho, PARAMS, jm, cfg)}
    proj = polarization_projector("H")
    a = jittered_matrices(proj, PARAMS, jm, [0.25])[0]
    b = jittered_matrices(proj, PARAMS, jm, [0.75])[0]
    want = 1000.0 * np.trace(np.kron(a, b) @ rho.matrix).real
    assert by_times[(0.25, 0.75)] == pytest.approx(want, rel=1e-12)


def test_arm_operator_stacks_pair_sharp_and_smeared_projectors():
    jm = JitterModel(0.15)
    times = [0.25, 0.75]
    ideal, smeared = arm_operator_stacks(PARAMS, jm, times)
    proj = polarization_projector("H")
    assert np.array_equal(ideal, evolved_matrices(proj, PARAMS, times))
    assert np.array_equal(smeared, jittered_matrices(proj, PARAMS, jm, times))


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
