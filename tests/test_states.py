"""State constructors and sample grids."""

import math

import numpy as np
import pytest

from timetomo.core import max_abs
from timetomo.estimator import _project_to_states
from timetomo.states import (
    BellParams,
    BlochParams,
    orthogonal_pairs,
    sample_bell_states,
    sample_mixed_qubits,
    sample_pure_qubits,
    state_stack,
)

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1j], [1j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _state(params):
    return state_stack([params])[0]


def _purity(rho):
    return np.trace(rho @ rho).real


def test_bloch_params_validation():
    BlochParams(0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        BlochParams(1.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        BlochParams(0.5, -0.1, 2.0)
    with pytest.raises(ValueError):
        BlochParams(0.5, 1.0, 2.0 * math.pi)


def test_bell_params_validation():
    BellParams(0.0)
    with pytest.raises(ValueError):
        BellParams(-0.1)
    with pytest.raises(ValueError):
        BellParams(2.0 * math.pi)


def test_bloch_state_reproduces_its_coordinates():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rho = _state(BlochParams(r, theta, phi))
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
    assert _purity(_state(BlochParams(0.0, 0.0, 0.0))) == pytest.approx(0.5)
    assert _purity(_state(BlochParams(1.0, 1.2, 3.4))) == pytest.approx(1.0)
    assert _purity(_state(BlochParams(0.6, 1.2, 3.4))) == pytest.approx(
        0.5 * (1.0 + 0.36)
    )


def test_bell_state_structure():
    rho = _state(BellParams(math.pi / 3))
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
    target = _state(BellParams(0.0))
    assert max_abs(_project_to_states(target) - target) < 1e-12
    near = 0.999999 * target + (1e-6 / 4.0) * np.eye(4)
    grown = _project_to_states(near + 1e-3 * (target - np.eye(4) / 4.0))
    assert max_abs(grown - target) < 1e-5


def test_mixed_grid_size_and_coverage():
    grid = sample_mixed_qubits(3, 3, 4)
    assert len(grid) == 36
    assert {b.r for b in grid} == {0.0, 0.5, 1.0}
    default = sample_mixed_qubits()
    assert len(default) == 21 * 21 * 20


def test_pure_grid_and_validation():
    grid = sample_pure_qubits(5, 4)
    assert len(grid) == 20
    assert all(b.r == 1.0 for b in grid)
    with pytest.raises(ValueError):
        sample_mixed_qubits(0, 3, 4)


def test_orthogonal_partner_is_antipodal():
    b = BlochParams(1.0, 0.7, 1.3)
    mate = BlochParams(1.0, math.pi - b.theta, (b.phi + math.pi) % (2.0 * math.pi))
    overlap = _state(b) @ _state(mate)
    assert max_abs(overlap) < 1e-14


def test_orthogonal_pairs_cover_grid_once():
    pairs = orthogonal_pairs(5, 4)
    assert len(pairs) == 10
    seen = set()
    for a, b in pairs:
        overlap = _state(a) @ _state(b)
        assert max_abs(overlap) < 1e-12
        seen.add((round(a.theta, 12), round(a.phi, 12)))
        seen.add((round(b.theta, 12), round(b.phi, 12)))
    assert len(seen) == 20
    with pytest.raises(ValueError):
        orthogonal_pairs(5, 3)


def test_bell_sample_is_even_phase_grid():
    sample = sample_bell_states(8)
    assert [b.alpha for b in sample] == pytest.approx(
        [2.0 * math.pi * k / 8 for k in range(8)]
    )
    with pytest.raises(ValueError):
        sample_bell_states(0)
