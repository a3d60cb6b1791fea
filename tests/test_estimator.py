"""Likelihood objective and maximum-likelihood reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timetomo.core import DensityMatrix, StateError, max_abs
from timetomo.counts import NoiseConfig, count_rows
from timetomo.dynamics import DynamicsParams
from timetomo.estimator import (
    EstimatorConfig,
    _objective_from_stack,
    _project_to_states,
    _warm_start,
    estimate_states,
)
from timetomo.measurement import IC_POVM_INSTANTS, JitterModel, setting_operators
from timetomo.metrics import fidelity
from timetomo.states import (
    BellParams,
    BlochParams,
    bell_state,
    bloch_state,
    sample_bell_states,
    sample_mixed_qubits,
    state_stack,
)

PARAMS = DynamicsParams()
MIXED_QUBIT = 0.5 * np.eye(2, dtype=complex)


def _row_objective(stack, row, mean_photons):
    """The batched objective on one count row, as a map rho -> (f, R)."""
    evaluate = _objective_from_stack(stack, np.array([row], dtype=float), mean_photons, 1e-9)

    def single(rho):
        value, grad = evaluate(np.asarray(rho, dtype=complex)[None], np.array([0]))
        return float(value[0]), grad[0]

    return single


def _objective(records, mean_photons):
    return _row_objective(*records, mean_photons)


def _random_state(rng, dim):
    factor = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = factor @ factor.conj().T
    return gram / gram.trace().real


def _records(rho, sigma=0.0, n=1000.0, poisson=True, seed=0, state_index=0):
    """The sharp operator stack and the count row of one state, as a sweep makes them."""
    cfg = NoiseConfig(mean_photons=n, seed=seed, poisson_enabled=poisson)
    _, sharp, smeared = setting_operators(PARAMS, JitterModel(sigma), IC_POVM_INSTANTS, rho.dim)
    _, measured = count_rows(rho.matrix[None], sharp, smeared, cfg, state_index)
    return sharp, measured[0]


def _estimate(records, mean_photons, cfg=EstimatorConfig()):
    """``estimate_states`` on one count row: (estimate, objective, converged, trial steps)."""
    sharp, row = records
    fit = estimate_states(sharp, row[None], mean_photons, cfg)
    return DensityMatrix(fit.rho[0]), float(fit.objective[0]), bool(fit.converged[0]), int(fit.iterations[0])


def test_estimator_config_validation():
    EstimatorConfig()
    with pytest.raises(ValueError):
        EstimatorConfig(max_iterations=0)
    with pytest.raises(ValueError):
        EstimatorConfig(convergence_tol=0.0)


def test_likelihood_matches_direct_formula():
    rho = bloch_state(BlochParams(0.8, 1.0, 0.5))
    records = _records(rho, sigma=0.1, n=500.0)
    cand = bloch_state(BlochParams(0.6, 0.9, 2.0)).matrix
    got = _objective(records, 500.0)(cand)[0]
    stack, row = records
    total = 0.0
    for measured, m in zip(row, stack):
        n_e = max(500.0 * float(np.trace(m @ cand).real), 1e-9)
        total += (measured - n_e) ** 2 / n_e
    assert got == pytest.approx(total, rel=1e-12)


def test_likelihood_floors_vanishing_model_counts():
    # candidate orthogonal to the measured state: floor keeps it finite
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    records = _records(rho, poisson=False)
    objective = _objective(records, 1000.0)
    val = objective(np.diag([0.0, 1.0]).astype(complex))[0]
    assert math.isfinite(val)
    assert objective(MIXED_QUBIT)[0] < val


def test_qubit_and_pair_objectives_agree_on_shared_formula():
    # one objective serves both dimensions; the pair stack meets the same formula
    rho = bell_state(BellParams(0.7))
    records = _records(rho, sigma=0.05, n=800.0)
    rng = np.random.default_rng(2)
    objective = _objective(records, 800.0)
    for _ in range(5):
        cand = _random_state(rng, 4)
        direct = objective(cand)[0]
        stack, row = records
        total = 0.0
        for measured, m in zip(row, stack):
            n_e = max(800.0 * float(np.trace(m @ cand).real), 1e-9)
            total += (measured - n_e) ** 2 / n_e
        assert direct == pytest.approx(total, rel=1e-10)


def test_gradient_matches_finite_differences():
    # R = N sum_k (1 - n_k^2 / mu_k^2) M_k is the derivative of f along any
    # Hermitian direction D: f(rho + h D) - f(rho - h D) = 2 h tr(R D) + O(h^3)
    rng = np.random.default_rng(3)
    for rho_in, n in ((bloch_state(BlochParams(0.7, 0.4, 1.0)), 300.0), (bell_state(BellParams(1.1)), 50.0)):
        objective = _objective(_records(rho_in, sigma=0.1, n=n), n)
        rho = _random_state(rng, rho_in.dim)
        grad = objective(rho)[1]
        step = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
        step = 0.5 * (step + step.conj().T)
        h = 1e-6
        numeric = (objective(rho + h * step)[0] - objective(rho - h * step)[0]) / (2 * h)
        assert numeric == pytest.approx(np.vdot(grad, step).real, rel=1e-6)


def test_projection_is_physical_and_fixes_states():
    rng = np.random.default_rng(9)
    for dim in (2, 4):
        for _ in range(20):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            DensityMatrix(_project_to_states(h + h.conj().T))
            state = _random_state(rng, dim)
            assert max_abs(_project_to_states(state) - state) < 1e-12
    bell = bell_state(BellParams(0.0)).matrix
    assert max_abs(_project_to_states(bell) - bell) < 1e-12
    # the spectrum (1.5, 0.2) lands on the simplex vertex (1, 0)
    assert max_abs(_project_to_states(np.diag([1.5, 0.2]).astype(complex)) - np.diag([1.0, 0.0])) < 1e-15


def test_noiseless_qubit_reconstruction_is_exact():
    rho = bloch_state(BlochParams(1.0, 1.2, 0.4))
    rho_out, _, converged, _ = _estimate(_records(rho, poisson=False), 1000.0)
    assert converged
    assert fidelity(rho_out, rho) > 0.9999
    assert max_abs(rho_out.matrix - rho.matrix) < 5e-3


def test_noiseless_pair_reconstruction_is_exact():
    rho = bell_state(BellParams(2.0))
    rho_out, _, converged, _ = _estimate(_records(rho, poisson=False), 1000.0)
    assert converged
    assert fidelity(rho_out, rho) > 0.999


@pytest.mark.parametrize(
    "rho",
    [bloch_state(BlochParams(1.0, 1.2, 0.4)), bell_state(BellParams(2.0))],
    ids=["qubit", "pair"],
)
def test_noiseless_estimate_does_not_depend_on_photon_number(rho):
    # noiseless counts at N=10 and N=1000 differ only by a factor of 100,
    # and the objective is homogeneous of degree one in (measured, model),
    # so both fits must land on the same state
    estimates = []
    for n in (10.0, 1000.0):
        rho_out, _, converged, _ = _estimate(_records(rho, sigma=0.07, n=n, poisson=False), n)
        assert converged
        estimates.append(rho_out.matrix)
    assert max_abs(estimates[0] - estimates[1]) < 1e-3


def test_mixed_state_reconstruction():
    rho = bloch_state(BlochParams(0.4, 2.0, 3.0))
    rho_out = _estimate(_records(rho, poisson=False), 1000.0)[0]
    assert fidelity(rho_out, rho) > 0.9999


def test_reconstruction_is_deterministic_given_rng_seed():
    rho = bloch_state(BlochParams(0.9, 0.8, 1.5))
    records = _records(rho, sigma=0.05, n=100.0, seed=3)
    a_rho, a_objective, _, _ = _estimate(records, 100.0)
    b_rho, b_objective, _, _ = _estimate(records, 100.0)
    assert np.array_equal(a_rho.matrix, b_rho.matrix)
    assert a_objective == b_objective


def test_estimate_state_validates_arguments():
    records = _records(bloch_state(BlochParams(0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        _estimate(records, 0.0)


def test_estimator_is_blind_to_jitter_by_design():
    # fitting blurred counts with sharp models drags the estimate inward;
    # the pull toward the maximally mixed state is the effect under study
    rho = bloch_state(BlochParams(1.0, 0.5 * math.pi, 0.0))
    sharp = _estimate(_records(rho, sigma=0.0, poisson=False), 1000.0)[0]
    blurred = _estimate(_records(rho, sigma=0.25, poisson=False), 1000.0)[0]
    assert sharp.purity() > 0.999
    assert blurred.purity() < sharp.purity() - 0.1


def test_convergence_is_certified_within_the_iteration_budget():
    # a noisy, jitter-blurred Bell fit: certified at the default budget,
    # not after two trial steps
    records = _records(bell_state(BellParams(0.9)), sigma=0.07, n=10.0, seed=4)
    _, full_objective, full_converged, full_iterations = _estimate(records, 10.0)
    assert full_converged
    assert full_iterations <= EstimatorConfig().max_iterations
    cut = EstimatorConfig(max_iterations=2)
    _, cut_objective, cut_converged, cut_iterations = _estimate(records, 10.0, cut)
    assert not cut_converged
    assert cut_iterations == 2
    assert full_objective <= cut_objective


_BLOCH = st.builds(
    BlochParams,
    st.floats(0.0, 1.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
_BELL = st.builds(BellParams, st.floats(0.0, 2.0 * math.pi, exclude_max=True))


@settings(max_examples=40, deadline=None)
@given(
    params=st.one_of(_BLOCH, _BELL),
    sigma=st.floats(0.0, 0.3),
    n=st.sampled_from([10.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_is_physical_and_no_worse_than_the_input_state(params, sigma, n, seed):
    # the minimum lies at or below the objective of every state, the true
    # input included, and the estimate is within the certified gap of it
    rho_in = bloch_state(params) if isinstance(params, BlochParams) else bell_state(params)
    records = _records(rho_in, sigma=sigma, n=n, seed=seed)
    cfg = EstimatorConfig()
    rho_out, value, converged, _ = _estimate(records, n, cfg)
    assert converged
    DensityMatrix(rho_out.matrix)
    objective = _objective(records, n)
    assert objective(rho_out.matrix)[0] == pytest.approx(value, rel=1e-12)
    assert value <= objective(rho_in.matrix)[0] + cfg.convergence_tol


@pytest.mark.parametrize("dim", [2, 4], ids=["qubit", "pair"])
def test_batch_split_does_not_change_estimates(dim):
    # a sweep fits a cell whole, or in one contiguous chunk per worker; every
    # state must come out bit for bit the same whichever way it is split
    rng = np.random.default_rng(5)
    states = np.array([_random_state(rng, dim) for _ in range(9)])
    _, sharp, smeared = setting_operators(PARAMS, JitterModel(0.07), IC_POVM_INSTANTS, dim)
    _, measured = count_rows(states, sharp, smeared, NoiseConfig(mean_photons=50.0, seed=11))
    cfg = EstimatorConfig()
    whole = estimate_states(sharp, measured, 50.0, cfg)
    for bounds in ((0, 4, 9), (0, 1, 2, 6, 9), tuple(range(10))):
        chunks = [estimate_states(sharp, measured[a:b], 50.0, cfg) for a, b in zip(bounds, bounds[1:])]
        for field, joined in zip(whole, zip(*chunks)):
            assert np.array_equal(field, np.concatenate(joined))
    assert whole.converged.all()
    assert len(set(whole.iterations.tolist())) > 1  # the states finish at different passes


def test_failing_batch_entries_are_named(monkeypatch):
    import timetomo.estimator as estimator

    stack, row = _records(bloch_state(BlochParams(0.5, 1.0, 1.0)))
    measured = np.tile(row, (3, 1))
    corrupt = measured.copy()
    corrupt[1, 2] = np.inf
    with pytest.raises(StateError) as info:
        estimate_states(stack, corrupt, 1000.0, EstimatorConfig())
    assert info.value.index == 1
    assert isinstance(info.value.__cause__, FloatingPointError)

    real = estimator._accelerated_descent

    def unphysical(*args):
        fits = real(*args)
        fits.rho[2] = np.diag([1.2, -0.2])
        return fits

    monkeypatch.setattr(estimator, "_accelerated_descent", unphysical)
    with pytest.raises(StateError) as info:
        estimate_states(stack, measured, 1000.0, EstimatorConfig())
    assert info.value.index == 2
    assert "estimate has negative eigenvalue" in str(info.value.__cause__)


def _serial_descent(evaluate, rho, cfg, mean_photons):
    """The one-state FISTA loop that the batched solver replaced, kept as its reference.

    Returns (rho, converged, trial steps, overshoot restarts).
    """
    value, grad = evaluate(rho)
    ahead, ahead_value, ahead_grad = rho, value, grad
    momentum, lipschitz, steps, restarts = 1.0, mean_photons, 0, 0
    while True:
        if np.vdot(grad, rho).real - np.linalg.eigvalsh(grad)[0] <= cfg.convergence_tol:
            return rho, True, steps, restarts
        lipschitz *= 0.9
        while steps < cfg.max_iterations:
            steps += 1
            trial = _project_to_states(ahead - ahead_grad / lipschitz)
            trial_value, trial_grad = evaluate(trial)
            move = trial - ahead
            bound = ahead_value + np.vdot(ahead_grad, move).real
            if trial_value <= bound + 0.5 * lipschitz * np.vdot(move, move).real:
                break
            lipschitz *= 2.0
        else:
            return rho, False, steps, restarts
        if trial_value > value:
            ahead, ahead_value, ahead_grad, momentum = rho, value, grad, 1.0
            restarts += 1
            continue
        next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        ahead = trial + ((momentum - 1.0) / next_momentum) * (trial - rho)
        rho, value, grad, momentum = trial, trial_value, trial_grad, next_momentum
        ahead_value, ahead_grad = evaluate(ahead)
        if ahead_value > value:
            ahead, ahead_value, ahead_grad, momentum = rho, value, grad, 1.0


@pytest.mark.parametrize(
    "sample, sigma, n",
    [(sample_mixed_qubits(8, 8, 8), 0.0, 1000.0), (sample_bell_states(50), 0.07, 10.0)],
    ids=["qubit", "pair"],
)
@pytest.mark.parametrize("max_iterations", [20000, 7])
def test_batched_descent_follows_each_state_alone(sample, sigma, n, max_iterations):
    # every state of a batch takes the trial steps, restarts and budget cut
    # that the one-state loop takes from the same warm start; both samples
    # hold states whose momentum overshoots
    states = state_stack(sample)
    _, sharp, smeared = setting_operators(PARAMS, JitterModel(sigma), IC_POVM_INSTANTS, states.shape[1])
    _, measured = count_rows(states, sharp, smeared, NoiseConfig(mean_photons=n, seed=3))
    cfg = EstimatorConfig(max_iterations=max_iterations)
    fits = estimate_states(sharp, measured, n, cfg)
    starts = _warm_start(sharp, measured, n)
    restarts = 0
    for b in range(len(states)):
        evaluate = _row_objective(sharp, measured[b], n)
        rho, converged, steps, overshoots = _serial_descent(evaluate, starts[b], cfg, n)
        assert (steps, converged) == (fits.iterations[b], fits.converged[b])
        assert max_abs(rho - fits.rho[b]) < 1e-12
        restarts += overshoots
    assert fits.converged.all() == (max_iterations > 7)
    assert restarts > 0 or max_iterations == 7
