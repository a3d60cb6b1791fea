"""The Hermitian spectra and the physicality check of state stacks, and the tests' entry norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_abs, qubit_stacks
from timetomo.core import ascending_eigenvalues, first_unphysical


def test_max_abs_picks_largest_entry_magnitude():
    m = np.array([[1.0, -3.5], [2.0 + 2.0j, 0.0]])
    assert max_abs(m) == pytest.approx(3.5)


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


def _with_entry_2(bad):
    """A stack of maximally mixed states of ``bad``'s size, with ``bad`` at index 2."""
    dim = len(bad)
    stack = np.repeat(np.eye(dim, dtype=complex)[None] / dim, 4, axis=0)
    stack[2] = bad
    return stack


def test_density_matrix_accepts_valid_states():
    assert first_unphysical(_with_entry_2(np.diag([1.0, 0.0]))) is None
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert first_unphysical(_with_entry_2(bell)) is None


def test_density_matrix_rejects_bad_trace():
    assert first_unphysical(_with_entry_2(np.eye(2))) == (2, "density matrix trace off by 1.000e+00")


def test_density_matrix_rejects_non_hermitian():
    index, message = first_unphysical(_with_entry_2(np.array([[0.5, 0.1], [0.3, 0.5]])))
    assert (index, message) == (2, "density matrix not Hermitian: defect 2.000e-01")


def test_density_matrix_rejects_negative_eigenvalues():
    index, message = first_unphysical(_with_entry_2(np.diag([1.2, -0.2])), "sample state")
    assert (index, message) == (2, "sample state has negative eigenvalue -2.000e-01")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_density_matrix_rejects_non_finite_entries(bad):
    state = np.diag([1.0, 0.0]).astype(complex)
    state[0, 1] = bad
    assert first_unphysical(_with_entry_2(state)) == (2, "density matrix contains non-finite entries")
