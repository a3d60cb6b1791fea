"""Rotating-frame measurement operators, jitter smearing, trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_rows_bloch_vectors, evolution_unitaries, horizontal_closed_form, max_abs
from timetomo.counts import overlaps
from timetomo.dynamics import _ROTATION_TERMS, DynamicsParams
from timetomo.measurement import (
    _EXCITED_ROWS,
    IC_POVM_INSTANTS,
    POLARIZATION_KETS,
    bloch_trajectory,
    jittered_matrices,
    polarization_projector,
    setting_operators,
    smeared_bloch_vectors,
)
from timetomo.states import bell_states

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


def test_unknown_label_is_rejected():
    for entry in (smeared_bloch_vectors, jittered_matrices, bloch_trajectory):
        with pytest.raises(ValueError, match="unknown polarization label 'X'"):
            entry("X", PARAMS, 0.1, [0.0])


def _bits(array):
    # a -0.0 in place of 0.0 differs here, and would print as -0 in a CSV
    return np.ascontiguousarray(array).view(np.uint64)


def test_left_out_rows_have_zero_coefficients():
    # each projector's rows come from the rotation terms, which do not depend
    # on the periods; a row left out has coefficient R_row n = 0.0 exactly
    for label, (rows, coefficients, _) in _EXCITED_ROWS.items():
        m0 = polarization_projector(label)
        n = np.array([2.0 * m0[0, 1].real, -2.0 * m0[0, 1].imag, (m0[0, 0] - m0[1, 1]).real])
        full = np.einsum("kij,j->ki", _ROTATION_TERMS, n)
        left_out = np.setdiff1d(np.arange(len(full)), rows)
        assert (full[left_out] == 0.0).all()
        assert full[rows].any(axis=1).all()
        assert np.array_equal(_bits(coefficients), _bits(full[rows]))
        # sigma_z commutes with Z(beta), leaving the harmonics k = (0, 1, *)
        assert len(rows) == (5 if label in "HV" else 14)


_KERNEL_GRIDS = {"6000 points": np.linspace(0.0, 30.0, 6000), "six instants": np.array(IC_POVM_INSTANTS)}
_KERNEL_SIGMAS = (0.0, 1e-7, 0.065, 0.5, 3.0)


@pytest.mark.parametrize("grid", sorted(_KERNEL_GRIDS))
@pytest.mark.parametrize("periods", [(4.0, 1.0, 2.0), (3.7, 1.3, 2.9)])
@pytest.mark.parametrize("label", sorted(POLARIZATION_KETS))
def test_kernel_matches_the_all_rows_oracle_bit_for_bit(label, periods, grid):
    params, times = DynamicsParams(*periods), _KERNEL_GRIDS[grid]
    for sigma in _KERNEL_SIGMAS:
        got = smeared_bloch_vectors(label, params, sigma, times)
        assert np.array_equal(_bits(got), _bits(all_rows_bloch_vectors(label, params, sigma, times)))


@settings(max_examples=60, deadline=None)
@given(
    periods=st.tuples(*[st.floats(0.5, 5.0)] * 3),
    label=st.sampled_from(sorted(POLARIZATION_KETS)),
    sigma=st.sampled_from(_KERNEL_SIGMAS),
    grid=st.sampled_from(sorted(_KERNEL_GRIDS)),
)
def test_kernel_matches_the_all_rows_oracle_at_any_periods(periods, label, sigma, grid):
    params, times = DynamicsParams(*periods), _KERNEL_GRIDS[grid]
    got = smeared_bloch_vectors(label, params, sigma, times)
    assert np.array_equal(_bits(got), _bits(all_rows_bloch_vectors(label, params, sigma, times)))


def test_standard_schedule_instants_frozen():
    assert IC_POVM_INSTANTS == (0.0, 0.25, 0.5, 0.75, 1.25, 1.75)


def test_evolved_matches_closed_form_on_grid():
    times = np.linspace(0.0, 2.0, 101)
    stack = jittered_matrices("H", PARAMS, 0.0, times)
    for k, t in enumerate(times):
        assert max_abs(stack[k] - horizontal_closed_form(t)) < 1e-12


def test_quarter_period_operator_frozen():
    # hand value: diag 1/2, off-diagonal -(1/2) e^{i pi/4}
    op = jittered_matrices("H", PARAMS, 0.0, [0.25])[0]
    expect = np.array(
        [
            [0.5, -0.5 * np.exp(0.25j * math.pi)],
            [-0.5 * np.exp(-0.25j * math.pi), 0.5],
        ]
    )
    assert max_abs(op - expect) < 1e-12


def test_six_instants_are_informationally_complete():
    stack = jittered_matrices("H", PARAMS, 0.0, IC_POVM_INSTANTS)
    total = stack.sum(axis=0) / 3.0
    assert max_abs(total - np.eye(2)) < 1e-12


def test_six_instants_form_three_orthogonal_pairs():
    mats = {t: m for t, m in zip(IC_POVM_INSTANTS, jittered_matrices("H", PARAMS, 0.0, IC_POVM_INSTANTS))}
    for a, b in ((0.0, 0.5), (0.25, 1.25), (0.75, 1.75)):
        assert max_abs(mats[a] + mats[b] - np.eye(2)) < 1e-12
        assert abs(np.trace(mats[a] @ mats[b])) < 1e-12
    # projectors from different pairs overlap like mutually unbiased bases
    assert np.trace(mats[0.0] @ mats[0.25]).real == pytest.approx(0.5)
    assert np.trace(mats[0.25] @ mats[0.75]).real == pytest.approx(0.5)


def test_zero_jitter_is_a_passthrough():
    # at zero width the smeared operator is U(t)^dag M0 U(t) itself
    times = np.array([0.0, 0.3, 1.1])
    u = evolution_unitaries(PARAMS, times)
    ideal = np.conj(np.swapaxes(u, 1, 2)) @ polarization_projector("H") @ u
    assert max_abs(ideal - jittered_matrices("H", PARAMS, 0.0, times)) < 1e-15


def test_subnormal_width_yields_the_sharp_stack():
    # sigma^2 Omega^2 underflows to 0, so every harmonic keeps its full weight
    times = np.array([0.0, 0.3, 1.1])
    ideal = jittered_matrices("D", PARAMS, 0.0, times)
    smeared = jittered_matrices("D", PARAMS, 5e-324, times)
    assert max_abs(ideal - smeared) == 0.0


def test_smeared_diagonal_matches_analytic_damping():
    # closed form: 1/2 + (1/2) exp(-2 pi^2 sigma^2) cos(2 pi t)
    times = np.linspace(0.0, 2.0, 27)
    for sigma in (0.1, 0.3, 0.5):
        smeared = jittered_matrices("H", PARAMS, sigma, times)
        damp = math.exp(-2.0 * (math.pi * sigma) ** 2)
        expect = 0.5 + 0.5 * damp * np.cos(2.0 * math.pi * times)
        assert np.abs(smeared[:, 0, 0].real - expect).max() < 1e-12


def test_smeared_off_diagonal_matches_analytic_damping():
    # each frequency component damps as exp(-(w sigma)^2 / 2)
    times = np.linspace(0.0, 2.0, 27)
    for sigma in (0.1, 0.3, 0.5):
        smeared = jittered_matrices("H", PARAMS, sigma, times)
        d3 = math.exp(-4.5 * (math.pi * sigma) ** 2)
        d1 = math.exp(-0.5 * (math.pi * sigma) ** 2)
        expect = -(1.0 / 4j) * (
            np.exp(3j * math.pi * times) * d3 - np.exp(-1j * math.pi * times) * d1
        )
        assert np.abs(smeared[:, 0, 1] - expect).max() < 1e-12


def test_smearing_preserves_trace_and_positivity():
    times = np.linspace(0.0, 2.0, 21)
    smeared = jittered_matrices("D", PARAMS, 0.4, times)
    traces = np.einsum("nii->n", smeared).real
    assert np.abs(traces - 1.0).max() < 1e-12
    for m in smeared:
        assert np.linalg.eigvalsh(m).min() > -1e-12


def _bloch(mats):
    """Bloch vectors tr(M sigma_i) of a (n, 2, 2) stack."""
    return np.stack(
        [2.0 * mats[:, 0, 1].real, -2.0 * mats[:, 0, 1].imag, (mats[:, 0, 0] - mats[:, 1, 1]).real], axis=1
    )


@settings(max_examples=100, deadline=None)
@given(
    periods=st.tuples(*[st.floats(0.5, 5.0)] * 3),
    # the kernel and the oracle each round a phase k . w t to about
    # |k . w t| eps, so times stay within 100 base periods (phases up to 4e3)
    times=st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-100.0, 100.0)), min_size=1, max_size=8),
    label=st.sampled_from(sorted(POLARIZATION_KETS)),
)
def test_sharp_bloch_vectors_match_the_evolved_projector(periods, times, label):
    # the oracle multiplies out U(t)^dag M0 U(t) factor by factor, with no harmonics
    params = DynamicsParams(*periods)
    u = evolution_unitaries(params, times)
    evolved = np.conj(np.swapaxes(u, 1, 2)) @ polarization_projector(label) @ u
    bloch = smeared_bloch_vectors(label, params, 0.0, times)
    assert np.abs(bloch - _bloch(evolved)).max() < 1e-12
    assert np.linalg.norm(bloch, axis=1).max() <= 1.0 + 1e-12
    sharp = jittered_matrices(label, params, 0.0, times)
    assert max_abs(sharp - np.conj(np.swapaxes(sharp, 1, 2))) == 0.0
    assert np.abs(np.einsum("nii->n", sharp) - 1.0).max() <= 2.0**-52
    assert max_abs(sharp - evolved) < 1e-12


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
    times = np.array(times)
    smeared = jittered_matrices(label, params, sigma, times)
    assert max_abs(smeared - np.conj(np.swapaxes(smeared, 1, 2))) == 0.0
    assert np.abs(np.einsum("nii->n", smeared) - 1.0).max() <= 2.0**-52
    bloch = smeared_bloch_vectors(label, params, sigma, times)
    assert np.linalg.norm(bloch, axis=1).max() <= 1.0 + 1e-12
    assert np.linalg.eigvalsh(smeared).min() >= -1e-12
    reference = _trapezoid_reference(polarization_projector(label), params, sigma, times)
    assert np.abs(bloch - _bloch(reference)).max() < 1e-12
    assert max_abs(smeared - reference) < 1e-12


def test_extreme_jitter_flattens_to_half_identity():
    op = jittered_matrices("H", PARAMS, 5.0, [0.3])[0]
    assert max_abs(op - np.eye(2) / 2) < 1e-6


def test_two_qubit_operator_is_smeared_tensor_product():
    # each arm is smeared on its own before the product: a noiseless
    # coincidence count is N tr((M_a (x) M_b) rho) with smeared arm operators
    rho = bell_states(0.4)[0]
    settings, _, (smeared,) = setting_operators(PARAMS, [0.15], IC_POVM_INSTANTS, 4)
    # the noiseless count row: N times the smeared overlaps
    by_times = dict(zip(settings, 1000.0 * overlaps(rho[None], smeared)[0]))
    a = jittered_matrices("H", PARAMS, 0.15, [0.25])[0]
    b = jittered_matrices("H", PARAMS, 0.15, [0.75])[0]
    want = 1000.0 * np.trace(np.kron(a, b) @ rho).real
    assert by_times[(0.25, 0.75)] == pytest.approx(want, rel=1e-12)


def test_setting_operators_pair_sharp_and_smeared_projectors():
    times = [0.25, 0.75]
    settings, ideal, (smeared,) = setting_operators(PARAMS, [0.15], times, 2)
    assert settings == [(0.25,), (0.75,)]
    assert np.array_equal(ideal, jittered_matrices("H", PARAMS, 0.0, times))
    assert np.array_equal(smeared, jittered_matrices("H", PARAMS, 0.15, times))
    # pair settings run first arm outer and tensor the same arm stacks
    settings, pair_ideal, (pair_smeared,) = setting_operators(PARAMS, [0.15], times, 4)
    assert settings == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    assert np.array_equal(pair_ideal[1], np.kron(ideal[0], ideal[1]))
    assert np.array_equal(pair_smeared[2], np.kron(smeared[1], smeared[0]))
    # the six-instant schedule gives 6 qubit and 36 pair settings
    assert setting_operators(PARAMS, [0.15], IC_POVM_INSTANTS, 2)[1].shape == (6, 2, 2)
    assert setting_operators(PARAMS, [0.15], IC_POVM_INSTANTS, 4)[1].shape == (36, 4, 4)


@pytest.mark.parametrize("dim", [2, 4])
def test_setting_operators_stack_one_smeared_stack_per_width(dim):
    # several widths share one sharp stack, and each smeared stack has the
    # bytes of a call with that width alone
    sigmas = (0.0, 0.065, 0.5)
    settings, sharp, smeared = setting_operators(PARAMS, sigmas, IC_POVM_INSTANTS, dim)
    assert smeared.shape == (len(sigmas),) + sharp.shape
    assert np.array_equal(smeared[0], sharp)
    for sigma, stack in zip(sigmas, smeared):
        alone = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, dim)
        assert alone[0] == settings
        assert alone[1].tobytes() == sharp.tobytes()
        assert alone[2][0].tobytes() == stack.tobytes()


def test_trajectory_stays_on_sphere_without_jitter():
    table = bloch_trajectory(
        "H", PARAMS, 0.0, np.linspace(0, 2, 50)
    )
    assert table.shape == (50, 5)
    radius = np.linalg.norm(table[:, 1:4], axis=1)
    assert np.abs(radius - 1.0).max() < 1e-12
    assert np.abs(table[:, 4] - 1.0).max() < 1e-12


def test_trajectory_contracts_under_jitter():
    table = bloch_trajectory(
        "H", PARAMS, 0.75, np.linspace(0, 2, 50)
    )
    radius = np.linalg.norm(table[:, 1:4], axis=1)
    assert radius.max() < 0.05
    # z amplitude damps by exactly exp(-2 pi^2 sigma^2)
    z0 = bloch_trajectory(
        "H", PARAMS, 0.3, np.array([0.0])
    )[0, 3]
    assert z0 == pytest.approx(math.exp(-2.0 * (math.pi * 0.3) ** 2), abs=1e-8)
