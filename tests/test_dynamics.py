"""Unitary evolution: ZYZ composition and the rotating-frame periods."""

import math

import numpy as np
import pytest

from oracles import evolution_unitaries, max_abs
from timetomo.dynamics import DynamicsParams, rotation_harmonics


def test_params_require_positive_periods():
    DynamicsParams(4.0, 1.0, 2.0)
    for bad in ((0.0, 1.0, 2.0), (4.0, -1.0, 2.0), (4.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            DynamicsParams(*bad)
    # 2 pi / 5e-324 is infinite; three frequencies of 1.6e308 sum past the largest float;
    # frequencies summing to 1.7e308 give infinite phases at the instant t = 1.25
    for bad in ((5e-324, 1.0, 2.0), (4e-308, 4e-308, 4e-308), (1.0, 1.0, 3.724618113308335e-308)):
        with pytest.raises(ValueError, match="overflow"):
            DynamicsParams(*bad)


def test_angular_frequencies_are_two_pi_over_period():
    w1, w2, w3 = DynamicsParams(4.0, 1.0, 2.0).angular_frequencies
    assert w1 == pytest.approx(math.pi / 2)
    assert w2 == pytest.approx(2 * math.pi)
    assert w3 == pytest.approx(math.pi)


def test_evolution_starts_at_identity():
    assert max_abs(evolution_unitaries(DynamicsParams(), 0.0) - np.eye(2)) < 1e-15


def test_full_period_value_frozen():
    # hand-derived: with periods (4, 1, 2) the t=1 unitary collapses to
    # diag(e^{i pi/4}, e^{-i pi/4}) because the middle rotation closes a
    # full turn and contributes only a sign pair that cancels
    u = evolution_unitaries(DynamicsParams(), 1.0)
    expect = np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
    assert max_abs(u - expect) < 1e-12


def test_unitarity_on_dense_grid():
    params = DynamicsParams()
    times = np.linspace(-2.0, 3.0, 301)
    stack = evolution_unitaries(params, times)
    assert stack.shape == (301, 2, 2)
    products = np.einsum("tij,tkj->tik", stack, stack.conj())
    assert max_abs(products - np.eye(2)) < 1e-12


def test_scalar_wrapper_matches_batch():
    params = DynamicsParams(3.0, 1.5, 5.0)
    times = np.array([0.1, 0.77, 2.4])
    stack = evolution_unitaries(params, times)
    # a scalar instant gives one 2x2 unitary; numpy's scalar and vector
    # loops may differ in the last ulp
    for k, t in enumerate(times):
        assert max_abs(stack[k] - evolution_unitaries(params, float(t))) < 1e-14


def test_composition_structure_against_direct_product():
    # independent reconstruction from the three factor rotations
    params = DynamicsParams(4.0, 1.0, 2.0)
    w1, w2, w3 = params.angular_frequencies
    for t in (0.13, 0.5, 1.31):
        z1 = np.diag([np.exp(-0.5j * w1 * t), np.exp(0.5j * w1 * t)])
        c, s = math.cos(0.5 * w2 * t), math.sin(0.5 * w2 * t)
        y = np.array([[c, -s], [s, c]])
        z3 = np.diag([np.exp(-0.5j * w3 * t), np.exp(0.5j * w3 * t)])
        assert max_abs(evolution_unitaries(params, t) - z1 @ y @ z3) < 1e-13


def test_spectral_form_reproduces_the_unitaries():
    # R(t)_ij = tr(sigma_i U^dag sigma_j U) / 2 from the factor-by-factor
    # unitaries equals R_0 + sum_k (C_k cos + S_k sin)(k . w t), and R(0) = I
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for periods in ((4.0, 1.0, 2.0), (3.7, 1.3, 2.9)):
        params = DynamicsParams(*periods)
        omegas, terms = rotation_harmonics(params)
        assert omegas.shape == (13,) and terms.shape == (27, 3, 3)
        w1, w2, w3 = params.angular_frequencies
        assert sorted(omegas) == pytest.approx(
            sorted(
                a * w1 + b * w2 + c * w3
                for a in (-1, 0, 1)
                for b in (-1, 0, 1)
                for c in (-1, 0, 1)
                if (a, b, c) > (0, 0, 0)
            )
        )
        assert max_abs(terms[:14].sum(axis=0) - np.eye(3)) < 1e-15
        times = np.linspace(-2.0, 3.0, 61)
        u = evolution_unitaries(params, times)
        rotation = 0.5 * np.einsum("iab,tcb,jcd,tda->tij", paulis, u.conj(), paulis, u).real
        phases = np.multiply.outer(times, omegas)
        basis = np.concatenate([np.ones((times.size, 1)), np.cos(phases), np.sin(phases)], axis=1)
        assert max_abs(np.einsum("tk,kij->tij", basis, terms) - rotation) < 1e-14
