"""State builders and sample grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bell_matrix, bloch_matrix, max_abs

from timetomo.core import first_unphysical
from timetomo.estimator import _coordinates, _matrices, _project_to_states
from timetomo.states import (
    bell_states,
    orthogonal_pairs,
    qubit_states,
    sample_bell_states,
    sample_mixed_qubits,
    sample_pure_qubits,
)

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1j], [1j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _purity(rho):
    return np.trace(rho @ rho).real


def _bloch_radii(stack):
    return np.hypot((stack[:, 0, 0] - stack[:, 1, 1]).real, 2.0 * np.abs(stack[:, 1, 0]))


def test_bloch_state_reproduces_its_coordinates():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rho = qubit_states(r, theta, phi)[0]
        vec = np.array(
            [
                r * math.sin(theta) * math.cos(phi),
                r * math.sin(theta) * math.sin(phi),
                r * math.cos(theta),
            ]
        )
        recovered = np.array([np.trace(rho @ PAULI[a]).real for a in "xyz"])
        assert np.abs(recovered - vec).max() < 1e-14


def test_bloch_state_purity_tracks_radius():
    assert _purity(qubit_states(0.0, 0.0, 0.0)[0]) == pytest.approx(0.5)
    assert _purity(qubit_states(1.0, 1.2, 3.4)[0]) == pytest.approx(1.0)
    assert _purity(qubit_states(0.6, 1.2, 3.4)[0]) == pytest.approx(
        0.5 * (1.0 + 0.36)
    )
    # outside the Bloch ball one eigenvalue is negative
    with pytest.raises(ValueError, match="sample state 1: .*negative eigenvalue"):
        qubit_states([1.0, 1.1], 1.0, 2.0)


def test_bell_state_structure():
    rho = bell_states(math.pi / 3)[0]
    assert rho.shape == (4, 4)
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[3, 3] == pytest.approx(0.5)
    assert rho[0, 3] == pytest.approx(0.5 * np.exp(-1j * math.pi / 3))
    assert np.trace(rho @ rho).real == pytest.approx(1.0)
    # middle block untouched
    assert max_abs(rho[1:3, :]) == 0.0


def test_pair_parametrization_spans_entangled_states():
    # the estimator searches the density matrices themselves; the projection
    # that keeps it there leaves a Bell state fixed and lands on it exactly
    # from a nearby matrix with negative eigenvalues
    def project(h):
        return _matrices(_project_to_states(_coordinates(h)))

    target = bell_states(0.0)
    assert max_abs(project(target) - target) < 1e-12
    near = 0.999999 * target + (1e-6 / 4.0) * np.eye(4)
    grown = project(near + 1e-3 * (target - np.eye(4) / 4.0))
    assert max_abs(grown - target) < 1e-5


def test_mixed_grid_size_and_coverage():
    grid, _ = sample_mixed_qubits(3, 3, 4)
    assert grid.shape == (36, 2, 2)
    assert np.round(_bloch_radii(grid), 12).tolist() == [0.0] * 12 + [0.5] * 12 + [1.0] * 12
    assert len(sample_mixed_qubits(21, 21, 20)[0]) == 21 * 21 * 20


def test_pure_grid_and_validation():
    grid, _ = sample_pure_qubits(5, 4)
    assert grid.shape == (20, 2, 2)
    assert np.abs(_bloch_radii(grid) - 1.0).max() < 1e-15


def test_orthogonal_partner_is_antipodal():
    mate = qubit_states(1.0, math.pi - 0.7, (1.3 + math.pi) % (2.0 * math.pi))[0]
    assert max_abs(qubit_states(1.0, 0.7, 1.3)[0] @ mate) < 1e-14


def test_orthogonal_pairs_cover_grid_once():
    pairs, _ = orthogonal_pairs(5, 4)
    assert pairs.shape == (20, 2, 2)
    assert max_abs(pairs[::2] @ pairs[1::2]) < 1e-12
    # away from the poles every grid state is distinct, and each appears once
    grid = sample_pure_qubits(5, 4)[0][4:-4]
    matches = (np.abs(pairs[:, None] - grid[None]).max(axis=(2, 3)) < 1e-15).sum(axis=0)
    assert matches.tolist() == [1] * 12


def test_bell_sample_is_even_phase_grid():
    sample, _ = sample_bell_states(8)
    # entry (3, 0) is e^{i alpha} / 2
    assert np.mod(np.angle(sample[:, 3, 0]), 2.0 * math.pi) == pytest.approx(
        [2.0 * math.pi * k / 8 for k in range(8)]
    )


def _polar(n, stop):
    return [stop * j / (n - 1) for j in range(n)] if n > 1 else [0.0]


def _azimuth(n):
    return [2.0 * math.pi * k / n for k in range(n)]


def _reference_pairs(n_theta, n_phi):
    """Grid indices (j, k) of the antipodal couples, first points in (theta, phi) order."""
    pairs = []
    for j in range(n_theta):
        for k in range(n_phi):
            mate = (n_theta - 1 - j, (k + n_phi // 2) % n_phi)
            if (j, k) < mate:
                pairs += [(j, k), mate]
    return pairs


@settings(max_examples=60, deadline=None)
@given(n_r=st.integers(1, 6), n_theta=st.integers(1, 6), n_phi=st.integers(1, 6), half_phi=st.integers(1, 3))
def test_samplers_match_the_pointwise_reference(n_r, n_theta, n_phi, half_phi):
    # each sampler against the per-state formulas, point by point in grid order
    radii, thetas, phis = _polar(n_r, 1.0), _polar(n_theta, math.pi), _azimuth(n_phi)
    mixed = [bloch_matrix(r, t, p) for r in radii for t in thetas for p in phis]
    samples = [
        (sample_mixed_qubits(n_r, n_theta, n_phi)[0], mixed),
        (sample_pure_qubits(n_theta, n_phi)[0], [bloch_matrix(1.0, t, p) for t in thetas for p in phis]),
        (sample_bell_states(n_phi)[0], [bell_matrix(a) for a in phis]),
    ]
    # a pair needs two polar rows: with one, the grid is a single point, the pole
    pair_theta, pair_phi = max(n_theta, 2), 2 * half_phi
    couples = _reference_pairs(pair_theta, pair_phi)
    assert sorted(couples) == [(j, k) for j in range(pair_theta) for k in range(pair_phi)]
    pair_thetas, pair_phis = _polar(pair_theta, math.pi), _azimuth(pair_phi)
    pairs, _ = orthogonal_pairs(pair_theta, pair_phi)
    samples.append((pairs, [bloch_matrix(1.0, pair_thetas[j], pair_phis[k]) for j, k in couples]))
    for stack, reference in samples:
        assert stack.shape == np.shape(reference)
        assert max_abs(stack - np.array(reference)) < 1e-15
        assert first_unphysical(stack) is None
    overlaps = np.einsum("bij,bji->b", pairs[::2], pairs[1::2])
    assert np.abs(overlaps).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(n_r=st.integers(1, 6), n_theta=st.integers(2, 6), n_phi=st.integers(1, 6), half_phi=st.integers(1, 3))
def test_samplers_flag_exactly_the_pure_states(n_r, n_theta, n_phi, half_phi):
    # the mixed grid flags its outer shell, the last n_theta * n_phi rows;
    # with one radius, r = 0, it flags none
    mixed = sample_mixed_qubits(n_r, n_theta, n_phi)
    shell = n_theta * n_phi if n_r > 1 else 0
    assert mixed[1].dtype == bool and mixed[1].tolist() == [False] * (len(mixed[0]) - shell) + [True] * shell
    all_pure = [sample_pure_qubits(n_theta, n_phi), orthogonal_pairs(n_theta, 2 * half_phi), sample_bell_states(n_phi)]
    for stack, pure in all_pure:
        assert pure.dtype == bool and pure.shape == (len(stack),) and pure.all()
    for stack, pure in [mixed, *all_pure]:
        assert np.abs(np.einsum("bij,bji->b", stack[pure], stack[pure]) - 1.0).max(initial=0.0) <= 1e-15
