"""Shared matrix utilities and the validated density-matrix container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import qubit_stacks
from timetomo.core import (
    DensityMatrix,
    ascending_eigenvalues,
    hermiticity_defect,
    max_abs,
    psd_sqrt,
    require_finite,
    require_square,
)


def test_max_abs_picks_largest_entry_magnitude():
    m = np.array([[1.0, -3.5], [2.0 + 2.0j, 0.0]])
    assert max_abs(m) == pytest.approx(3.5)


def test_require_finite_rejects_nan_and_inf():
    require_finite(np.eye(2))
    with pytest.raises(ValueError):
        require_finite(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        require_finite(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_require_square_rejects_rectangular_and_vector_input():
    require_square(np.eye(3))
    with pytest.raises(ValueError):
        require_square(np.ones((2, 3)))
    with pytest.raises(ValueError):
        require_square(np.ones(4))


def test_hermiticity_defect_zero_for_hermitian():
    m = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]])
    assert hermiticity_defect(m) == 0.0
    assert hermiticity_defect(m + np.array([[0, 1e-3], [0, 0]])) > 1e-4


@settings(max_examples=150, deadline=None)
@given(stack=qubit_stacks, scale=st.sampled_from([1.0, 1e-150, 1e150]))
def test_qubit_eigenvalues_match_eigvalsh(stack, scale):
    stack = scale * stack
    closed = ascending_eigenvalues(stack)
    # the largest entry is within a factor 2 of the spectral norm of a 2x2 matrix
    norms = np.abs(stack).max(axis=(1, 2))
    assert (np.abs(closed - np.linalg.eigvalsh(stack)) <= 1e-12 * norms[:, None]).all()
    assert (closed[:, 0] <= closed[:, 1]).all()


def test_eigenvalues_of_larger_matrices_come_from_eigvalsh():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    h = h + np.conj(np.swapaxes(h, 1, 2))
    assert np.array_equal(ascending_eigenvalues(h), np.linalg.eigvalsh(h))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for dim in (2, 4):
        for _ in range(25):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            p = a @ a.conj().T
            root = psd_sqrt(p)
            assert max_abs(root @ root - p) < 1e-9 * max(1.0, max_abs(p))


def test_psd_sqrt_clamps_small_negative_eigenvalues():
    # slightly indefinite inputs are treated as rounding noise
    root = psd_sqrt(np.diag([1.0, -1e-12]))
    assert max_abs(root @ root - np.diag([1.0, 0.0])) < 1e-10


def test_psd_sqrt_rejects_clearly_indefinite_input():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1e-3]))
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_density_matrix_accepts_valid_states():
    rho = DensityMatrix(np.eye(2) / 2)
    assert rho.dim == 2
    assert rho.purity() == pytest.approx(0.5)
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert DensityMatrix(bell).purity() == pytest.approx(1.0)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(m)


def test_density_matrix_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.2, -0.2]))


def test_density_matrix_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)


def test_density_matrix_array_is_frozen():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
