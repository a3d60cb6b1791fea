"""Shared matrix utilities and the validated density-matrix container."""

import numpy as np
import pytest

from timetomo.core import (
    DensityMatrix,
    hermitian_eigensystem,
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


def test_hermitian_eigensystem_orders_descending_and_reconstructs():
    rng = np.random.default_rng(11)
    for dim in (2, 4):
        for _ in range(25):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = a + a.conj().T
            vals, vecs = hermitian_eigensystem(h)
            assert np.all(np.diff(vals) <= 1e-12)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert max_abs(rebuilt - h) < 1e-10 * max(1.0, max_abs(h))


def test_hermitian_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
