"""Fidelity, trace distance, concurrence, and sweep aggregation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import uhlmann_fidelity, wootters_concurrences
from timetomo.metrics import (
    CHSH_THRESHOLD,
    aggregate,
    chsh_guarantee,
    concurrences,
    fidelities,
    trace_distances,
)
from timetomo.states import bell_states, qubit_states, sample_bell_states


def fidelity(a, b, pure: bool) -> float:
    """``fidelities`` of one pair of states, the truth ``a`` flagged ``pure`` or not."""
    return float(fidelities(a[None], b[None], np.array([pure]))[0])


def trace_distance(a, b) -> float:
    """``trace_distances`` of one pair of states."""
    return float(trace_distances(a[None], b[None])[0])


def concurrence(rho) -> float:
    """``concurrences`` of one two-qubit state."""
    return float(concurrences(rho[None])[0])


def _werner(p: float) -> np.ndarray:
    pure = bell_states(0.0)[0]
    return p * pure + (1.0 - p) * np.eye(4) / 4.0


def test_fidelity_limits():
    a = qubit_states(1.0, 0.3, 0.8)[0]
    bell = bell_states(0.0)[0]
    opposite = qubit_states(1.0, math.pi - 0.3, (0.8 + math.pi) % (2 * math.pi))[0]
    for f in (lambda x, y: fidelity(x, y, True), uhlmann_fidelity):
        assert f(a, a) == pytest.approx(1.0)
        assert f(a, opposite) == pytest.approx(0.0, abs=1e-12)
        assert f(bell, bell) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity(a, bell, True)


def test_fidelity_pure_mixed_closed_form():
    # F(pure, rho) = <psi| rho |psi>; against I/2 that is 1/2
    a = qubit_states(1.0, 1.1, 2.2)[0]
    mixed = qubit_states(0.0, 0.0, 0.0)[0]
    assert fidelity(a, mixed, True) == pytest.approx(0.5)
    assert fidelity(mixed, a, False) == pytest.approx(0.5)
    assert uhlmann_fidelity(a, mixed) == pytest.approx(0.5)
    assert uhlmann_fidelity(mixed, a) == pytest.approx(0.5)


def test_fidelity_qubit_closed_form_random_pairs():
    # F = tr(ab) + 2 sqrt(det a det b) for qubits, the Uhlmann fidelity in closed form
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = qubit_states(rng.uniform(0, 1), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))[0]
        b = qubit_states(rng.uniform(0, 1), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))[0]
        want = np.trace(a @ b).real + 2.0 * math.sqrt(max(0.0, np.linalg.det(a).real * np.linalg.det(b).real))
        assert uhlmann_fidelity(a, b) == pytest.approx(want, abs=1e-10)
        assert fidelity(a, b, False) == pytest.approx(want, abs=1e-10)


def test_trace_distance_is_half_bloch_vector_gap():
    # for qubits T = |r1 - r2| / 2
    a = qubit_states(0.9, 0.4, 1.0)[0]
    b = qubit_states(0.3, 0.4, 1.0)[0]
    assert trace_distance(a, b) == pytest.approx(0.3)
    c = qubit_states(1.0, 0.0, 0.0)[0]
    d = qubit_states(1.0, math.pi, 0.0)[0]
    assert trace_distance(c, d) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        trace_distance(a, bell_states(0.0)[0])


def test_concurrence_of_entangled_phase_family_is_one():
    for alpha in (0.0, 1.0, math.pi, 5.0):
        assert concurrence(bell_states(alpha)[0]) == pytest.approx(1.0)


def test_concurrence_of_product_state_is_zero():
    qubit = qubit_states(1.0, 0.7, 0.3)[0]
    product = np.kron(qubit, qubit)
    assert concurrence(product) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_werner_closed_form():
    # isotropic mixture p |phi><phi| + (1-p) I/4 has C = max(0, (3p - 1)/2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(_werner(p)) == pytest.approx(want, abs=1e-12)


def test_aggregate_mean_and_sample_sd():
    mean, sd, n = aggregate([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
    assert n == 4
    assert aggregate([5.0]) == (5.0, 0.0, 1)
    # an empty sample has no summary, so no row can have n 0
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([1.0, math.nan])


def test_chsh_guarantee_band_logic():
    assert CHSH_THRESHOLD == pytest.approx(1.0 / math.sqrt(2.0))
    assert chsh_guarantee(0.95, 0.05)
    assert not chsh_guarantee(0.95, 0.09)
    # boundary itself does not count as clearing the bound
    assert not chsh_guarantee(CHSH_THRESHOLD, 0.0)
    assert chsh_guarantee(CHSH_THRESHOLD + 1e-12, 0.0)


# radius 1 gives pure, rank-deficient states; radius 0 the maximally mixed one
_QUBIT = st.builds(
    lambda r, theta, phi: qubit_states(r, theta, phi)[0],
    st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(a=_QUBIT, b=_QUBIT)
def test_closed_form_qubit_fidelity_equals_uhlmann(a, b):
    closed = fidelity(a, b, False)
    # square roots of rank-deficient matrices carry rounding of order 1e-8
    assert closed == pytest.approx(uhlmann_fidelity(a, b), abs=1e-7)
    assert 0.0 <= closed <= 1.0


def _qubit_ket(theta, phi):
    return np.array([math.cos(0.5 * theta), np.exp(1j * phi) * math.sin(0.5 * theta)])


def _bell_ket(alpha):
    return np.array([1.0, 0.0, 0.0, np.exp(1j * alpha)]) / math.sqrt(2.0)


_ANGLE = st.floats(0.0, 2.0 * math.pi, exclude_max=True)

# (truth, ket): qubits on the sphere r = 1 and Bell states, as the samplers build them
_PURE_TRUTH = st.one_of(
    st.builds(lambda t, p: (qubit_states(1.0, t, p)[0], _qubit_ket(t, p)), st.floats(0.0, math.pi), _ANGLE),
    st.builds(lambda a: (bell_states(a)[0], _bell_ket(a)), _ANGLE),
)


@settings(max_examples=200, deadline=None)
@given(truth=_PURE_TRUTH, entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
def test_fidelity_to_a_pure_truth_is_the_overlap(truth, entries):
    # F(psi, rho) = <psi| rho |psi> (Jozsa 1994), for any state rho
    a, ket = truth
    dim = len(ket)
    parts = np.reshape(entries[: 2 * dim * dim], (2, dim, dim))
    g = parts[0] + 1j * parts[1]
    weight = np.vdot(g, g).real
    assume(weight > 1e-6)
    rho = g @ g.conj().T / weight
    exact = fidelity(a, rho, True)
    assert abs(exact - np.vdot(ket, rho @ ket).real) <= 1e-14
    # square roots of rank-deficient matrices carry rounding of order 1e-8
    assert exact == pytest.approx(uhlmann_fidelity(a, rho), abs=1e-7)


@pytest.mark.parametrize("p", [1e-3, 0.05, 0.3, 0.9])
@pytest.mark.parametrize(
    "truth", [qubit_states(1.0, 0.3, 0.8)[0], qubit_states(1.0, 1.1, 2.2)[0], bell_states(0.7)[0], bell_states(3.0)[0]]
)
def test_fidelity_to_a_depolarised_pure_truth_is_exact(truth, p):
    # F(a, (1 - p) a + p I/d) = 1 - (d - 1) p / d for pure a, to rounding:
    # no square root of a rounding-level det a or eigenvalue enters (these
    # qubits have det a = 2e-17 and 3e-17 as built, which would add up to 5e-9)
    dim = len(truth)
    noisy = (1.0 - p) * truth + p * np.eye(dim) / dim
    assert abs(fidelity(truth, noisy, True) - (1.0 - (dim - 1) * p / dim)) <= 1e-14


def test_pair_truth_not_flagged_pure_is_refused():
    truths, pure = sample_bell_states(4)
    pure[2] = False
    with pytest.raises(ValueError, match="pair truth 2 is not flagged pure"):
        fidelities(truths, truths, pure)


@settings(max_examples=100, deadline=None)
@given(a=_QUBIT, b=_QUBIT)
def test_trace_distance_is_symmetric_and_bounded(a, b):
    forward = trace_distance(a, b)
    assert forward == trace_distance(b, a)
    assert 0.0 <= forward <= 1.0 + 1e-12
    assert np.array_equal(trace_distances(np.stack([a, b]), np.stack([b, a])), [forward, forward])


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_concurrence_is_one_on_every_bell_phase(alpha):
    rho = bell_states(alpha)[0]
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-7)
    assert concurrences(np.repeat(rho[None], 2, axis=0)).tolist() == [concurrence(rho)] * 2


def test_concurrence_of_exact_bell_states_is_one_to_rounding():
    # the eigenvalue formula takes square roots of rounding and gives up to
    # 1.4e-8 below 1 here; the singular values of X^T (sy x sy) X do not
    states, _ = sample_bell_states(200)
    assert np.abs(concurrences(states) - 1.0).max() < 1e-14


def test_concurrence_matches_the_eigenvalue_formula_on_mixed_states():
    rng = np.random.default_rng(11)
    factors = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    gram = factors @ np.swapaxes(factors, 1, 2).conj()
    # full-rank states are mostly separable; mixing in a Bell state gives entangled ones too
    weights = rng.uniform(0.0, 1.0, (500, 1, 1))
    mixed = gram / np.trace(gram, axis1=1, axis2=2)[:, None, None]
    states = weights * bell_states(rng.uniform(0.0, 2.0 * math.pi, 500)) + (1.0 - weights) * mixed
    want = wootters_concurrences(states)
    assert (want > 0.1).sum() > 100 and (want == 0.0).sum() > 50
    assert np.abs(concurrences(states) - want).max() < 1e-12
