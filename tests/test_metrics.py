"""Fidelity, trace distance, concurrence, and sweep aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timetomo.core import DensityMatrix
from timetomo.metrics import (
    CHSH_THRESHOLD,
    MetricsSummary,
    aggregate,
    chsh_guarantee,
    concurrences,
    fidelities,
    fidelity,
    trace_distances,
)
from timetomo.states import BellParams, BlochParams, bell_state, bloch_state


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """``trace_distances`` of one pair of states."""
    return float(trace_distances(a.matrix[None], b.matrix[None])[0])


def concurrence(rho: DensityMatrix) -> float:
    """``concurrences`` of one two-qubit state."""
    return float(concurrences(rho.matrix[None])[0])


def _werner(p: float) -> DensityMatrix:
    pure = bell_state(BellParams(0.0)).matrix
    return DensityMatrix(p * pure + (1.0 - p) * np.eye(4) / 4.0)


def test_fidelity_limits():
    a = bloch_state(BlochParams(1.0, 0.3, 0.8))
    assert fidelity(a, a) == pytest.approx(1.0)
    opposite = bloch_state(BlochParams(1.0, math.pi - 0.3, (0.8 + math.pi) % (2 * math.pi)))
    assert fidelity(a, opposite) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity(a, bell_state(BellParams(0.0)))


def test_fidelity_pure_mixed_closed_form():
    # F(pure, rho) = <psi| rho |psi>; against I/2 that is 1/2
    a = bloch_state(BlochParams(1.0, 1.1, 2.2))
    mixed = bloch_state(BlochParams(0.0, 0.0, 0.0))
    assert fidelity(a, mixed) == pytest.approx(0.5)
    assert fidelity(mixed, a) == pytest.approx(0.5)


def test_fidelity_qubit_closed_form_random_pairs():
    # F = tr(ab) + 2 sqrt(det a det b) for qubits
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = bloch_state(
            BlochParams(rng.uniform(0, 1), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        )
        b = bloch_state(
            BlochParams(rng.uniform(0, 1), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        )
        want = np.trace(a.matrix @ b.matrix).real + 2.0 * math.sqrt(
            max(0.0, np.linalg.det(a.matrix).real * np.linalg.det(b.matrix).real)
        )
        assert fidelity(a, b) == pytest.approx(want, abs=1e-10)


def test_trace_distance_is_half_bloch_vector_gap():
    # for qubits T = |r1 - r2| / 2
    a = bloch_state(BlochParams(0.9, 0.4, 1.0))
    b = bloch_state(BlochParams(0.3, 0.4, 1.0))
    assert trace_distance(a, b) == pytest.approx(0.3)
    c = bloch_state(BlochParams(1.0, 0.0, 0.0))
    d = bloch_state(BlochParams(1.0, math.pi, 0.0))
    assert trace_distance(c, d) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        trace_distance(a, bell_state(BellParams(0.0)))


def test_concurrence_of_entangled_phase_family_is_one():
    for alpha in (0.0, 1.0, math.pi, 5.0):
        assert concurrence(bell_state(BellParams(alpha))) == pytest.approx(1.0)


def test_concurrence_of_product_state_is_zero():
    qubit = bloch_state(BlochParams(1.0, 0.7, 0.3)).matrix
    product = DensityMatrix(np.kron(qubit, qubit))
    assert concurrence(product) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_werner_closed_form():
    # isotropic mixture p |phi><phi| + (1-p) I/4 has C = max(0, (3p - 1)/2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(_werner(p)) == pytest.approx(want, abs=1e-12)


def test_aggregate_mean_and_sample_sd():
    s = aggregate([1.0, 2.0, 3.0, 4.0], "demo")
    assert s.mean == pytest.approx(2.5)
    assert s.sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
    assert s.n == 4
    assert s.metric_name == "demo"
    assert s.stderr == pytest.approx(s.sd / 2.0)
    single = aggregate([5.0])
    assert single.sd == 0.0
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([1.0, math.nan])
    with pytest.raises(ValueError):
        MetricsSummary(mean=0.0, sd=0.0, n=0, metric_name="x")


def test_chsh_guarantee_band_logic():
    assert CHSH_THRESHOLD == pytest.approx(1.0 / math.sqrt(2.0))
    assert chsh_guarantee(MetricsSummary(mean=0.95, sd=0.05, n=10, metric_name="c"))
    assert not chsh_guarantee(MetricsSummary(mean=0.95, sd=0.09, n=10, metric_name="c"))
    # boundary itself does not count as clearing the bound
    edge = MetricsSummary(mean=CHSH_THRESHOLD, sd=0.0, n=3, metric_name="c")
    assert not chsh_guarantee(edge)
    above = MetricsSummary(mean=CHSH_THRESHOLD + 1e-12, sd=0.0, n=3, metric_name="c")
    assert chsh_guarantee(above)


def _qubit(r, theta, phi):
    return bloch_state(BlochParams(r, theta, phi)).matrix


# radius 1 gives pure, rank-deficient states; radius 0 the maximally mixed one
_QUBIT = st.builds(
    _qubit,
    st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(a=_QUBIT, b=_QUBIT)
def test_closed_form_qubit_fidelity_equals_uhlmann(a, b):
    closed = fidelities(a[None], b[None])[0]
    # square roots of rank-deficient matrices carry rounding of order 1e-8
    assert closed == pytest.approx(fidelity(DensityMatrix(a), DensityMatrix(b)), abs=1e-7)
    assert 0.0 <= closed <= 1.0


@settings(max_examples=100, deadline=None)
@given(a=_QUBIT, b=_QUBIT)
def test_trace_distance_is_symmetric_and_bounded(a, b):
    forward = trace_distance(DensityMatrix(a), DensityMatrix(b))
    assert forward == trace_distance(DensityMatrix(b), DensityMatrix(a))
    assert 0.0 <= forward <= 1.0 + 1e-12
    assert np.array_equal(trace_distances(np.stack([a, b]), np.stack([b, a])), [forward, forward])


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_concurrence_is_one_on_every_bell_phase(alpha):
    rho = bell_state(BellParams(alpha))
    # the square roots of three rounding-level eigenvalues come off the first
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-7)
    assert concurrences(np.repeat(rho.matrix[None], 2, axis=0)).tolist() == [concurrence(rho)] * 2
