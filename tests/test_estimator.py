"""Likelihood objective and maximum-likelihood reconstruction."""

import math

import numpy as np
import pytest

from timetomo.core import max_abs
from timetomo.counts import NoiseConfig, coincidence_count_set, qubit_count_set
from timetomo.dynamics import DynamicsParams
from timetomo.estimator import (
    EstimatorConfig,
    _objective_from_stack,
    _rank_truncated_candidates,
    estimate_state,
    model_operator_stack,
)
from timetomo.measurement import JitterModel
from timetomo.metrics import fidelity
from timetomo.states import (
    BellParams,
    BlochParams,
    bell_state,
    bloch_state,
    cholesky_to_density,
)

PARAMS = DynamicsParams()
IDENTITY_W = np.array([1.0, 1.0, 0.0, 0.0])


def _objective(records, mean_photons):
    measured = np.array([r.measured for r in records])
    return _objective_from_stack(model_operator_stack(records), measured, mean_photons, 1e-9)


def _records(rho, sigma=0.0, n=1000.0, poisson=True, seed=0, state_index=0):
    cfg = NoiseConfig(mean_photons=n, seed=seed, poisson_enabled=poisson)
    maker = qubit_count_set if rho.dim == 2 else coincidence_count_set
    return maker(rho, PARAMS, JitterModel(sigma), cfg, state_index=state_index)


def test_estimator_config_validation():
    EstimatorConfig()
    with pytest.raises(ValueError):
        EstimatorConfig(optimizer="newton")
    with pytest.raises(ValueError):
        EstimatorConfig(max_iterations=0)
    with pytest.raises(ValueError):
        EstimatorConfig(restarts=0)
    with pytest.raises(ValueError):
        EstimatorConfig(convergence_tol=0.0)


def test_model_stack_shapes_and_mixed_rejection():
    qubit = _records(bloch_state(BlochParams(0.0, 0.0, 0.0)))
    pair = _records(bell_state(BellParams(0.0)))
    assert model_operator_stack(qubit).shape == (6, 2, 2)
    assert model_operator_stack(pair).shape == (36, 4, 4)
    with pytest.raises(ValueError):
        model_operator_stack([])
    with pytest.raises(ValueError):
        model_operator_stack(qubit + pair)


def test_likelihood_matches_direct_formula():
    rho = bloch_state(BlochParams(0.8, 1.0, 0.5))
    records = _records(rho, sigma=0.1, n=500.0)
    w = np.array([0.9, 0.5, 0.2, -0.1])
    got = _objective(records, 500.0)(w)
    cand = cholesky_to_density(w).matrix
    stack = model_operator_stack(records)
    total = 0.0
    for rec, m in zip(records, stack):
        n_e = max(500.0 * float(np.trace(m @ cand).real), 1e-9)
        total += (rec.measured - n_e) ** 2 / n_e
    assert got == pytest.approx(total, rel=1e-12)


def test_likelihood_floors_vanishing_model_counts():
    # candidate orthogonal to the measured state: floor keeps it finite
    rho = bloch_state(BlochParams(1.0, 0.0, 0.0))
    records = _records(rho, poisson=False)
    objective = _objective(records, 1000.0)
    val = objective(np.array([0.0, 1.0, 0.0, 0.0]))
    assert math.isfinite(val)
    assert objective(IDENTITY_W) < val


def test_qubit_and_pair_objectives_agree_on_shared_formula():
    # the scalar fast path and the vectorised path implement one likelihood
    rho = bell_state(BellParams(0.7))
    records = _records(rho, sigma=0.05, n=800.0)
    rng = np.random.default_rng(2)
    objective = _objective(records, 800.0)
    for _ in range(5):
        w = rng.normal(size=16)
        direct = objective(w)
        cand = cholesky_to_density(w).matrix
        stack = model_operator_stack(records)
        total = 0.0
        for rec, m in zip(records, stack):
            n_e = max(800.0 * float(np.trace(m @ cand).real), 1e-9)
            total += (rec.measured - n_e) ** 2 / n_e
        assert direct == pytest.approx(total, rel=1e-10)


def test_rank_truncation_roundtrip():
    # truncated candidates reproduce the clamped spectrum exactly
    rng = np.random.default_rng(4)
    w = rng.normal(size=16)
    rho = cholesky_to_density(w).matrix
    vals = np.linalg.eigvalsh(rho)
    got = list(_rank_truncated_candidates(w, 4))
    assert got, "a generic random state has small eigenvalues to truncate"
    for cand in got:
        back = cholesky_to_density(cand).matrix
        cand_vals = np.linalg.eigvalsh(back)
        kept = vals[vals >= 1e-4 - 1e-15]
        # some clamp level reproduces these eigenvalues after renormalising
        if len(cand_vals[cand_vals > 1e-9]) == len(kept):
            assert np.allclose(np.sort(cand_vals)[-len(kept):], np.sort(kept / kept.sum()), atol=1e-8)


def test_rank_truncation_skips_full_rank_states():
    w = np.array([1.0, 1.0, 0.0, 0.0])  # maximally mixed, both eigenvalues 1/2
    assert list(_rank_truncated_candidates(w, 2)) == []


def test_noiseless_qubit_reconstruction_is_exact():
    rho = bloch_state(BlochParams(1.0, 1.2, 0.4))
    records = _records(rho, poisson=False)
    result = estimate_state(
        records, 2, EstimatorConfig(), np.random.default_rng(0), mean_photons=1000.0
    )
    assert result.converged
    assert fidelity(result.rho_out, rho) > 0.9999
    assert max_abs(result.rho_out.matrix - rho.matrix) < 5e-3


def test_noiseless_pair_reconstruction_is_exact():
    rho = bell_state(BellParams(2.0))
    records = _records(rho, poisson=False)
    result = estimate_state(
        records, 4, EstimatorConfig(), np.random.default_rng(0), mean_photons=1000.0
    )
    assert result.converged
    assert fidelity(result.rho_out, rho) > 0.999


@pytest.mark.parametrize(
    "rho",
    [bloch_state(BlochParams(1.0, 1.2, 0.4)), bell_state(BellParams(2.0))],
    ids=["qubit", "pair"],
)
def test_noiseless_estimate_does_not_depend_on_photon_number(rho):
    # noiseless counts at N=10 and N=1000 differ only by a factor of 100,
    # and the objective is homogeneous of degree one in (measured, model),
    # so both fits must land on the same state; the tolerance sits well
    # above the simplex stopping scatter (polish xatol 1e-6 on w)
    estimates = []
    for n in (10.0, 1000.0):
        records = _records(rho, sigma=0.07, n=n, poisson=False)
        result = estimate_state(
            records, rho.dim, EstimatorConfig(), np.random.default_rng(0), mean_photons=n
        )
        assert result.converged
        estimates.append(result.rho_out.matrix)
    assert max_abs(estimates[0] - estimates[1]) < 1e-3


def test_mixed_state_reconstruction():
    rho = bloch_state(BlochParams(0.4, 2.0, 3.0))
    records = _records(rho, poisson=False)
    result = estimate_state(
        records, 2, EstimatorConfig(), np.random.default_rng(0), mean_photons=1000.0
    )
    assert fidelity(result.rho_out, rho) > 0.9999


def test_reconstruction_is_deterministic_given_rng_seed():
    rho = bloch_state(BlochParams(0.9, 0.8, 1.5))
    records = _records(rho, sigma=0.05, n=100.0, seed=3)
    a = estimate_state(
        records, 2, EstimatorConfig(), np.random.default_rng(12), mean_photons=100.0
    )
    b = estimate_state(
        records, 2, EstimatorConfig(), np.random.default_rng(12), mean_photons=100.0
    )
    assert np.array_equal(a.w_opt, b.w_opt)
    assert a.objective == b.objective


def test_gradient_optimizer_agrees_with_simplex():
    rho = bloch_state(BlochParams(0.7, 1.0, 0.2))
    records = _records(rho, poisson=False)
    rng = np.random.default_rng(1)
    simplex = estimate_state(
        records, 2, EstimatorConfig(), np.random.default_rng(1), mean_photons=1000.0
    )
    gradient = estimate_state(
        records,
        2,
        EstimatorConfig(optimizer="gradient"),
        rng,
        mean_photons=1000.0,
    )
    assert fidelity(simplex.rho_out, gradient.rho_out) > 0.9999


def test_estimate_state_validates_arguments():
    records = _records(bloch_state(BlochParams(0.0, 0.0, 0.0)))
    cfg = EstimatorConfig()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_state(records, 3, cfg, rng, mean_photons=100.0)
    with pytest.raises(ValueError):
        estimate_state(records, 4, cfg, rng, mean_photons=100.0)
    with pytest.raises(ValueError):
        estimate_state(records, 2, cfg, rng, mean_photons=0.0)


def test_estimator_is_blind_to_jitter_by_design():
    # fitting blurred counts with sharp models drags the estimate inward;
    # the pull toward the maximally mixed state is the effect under study
    rho = bloch_state(BlochParams(1.0, 0.5 * math.pi, 0.0))
    sharp = estimate_state(
        _records(rho, sigma=0.0, poisson=False),
        2,
        EstimatorConfig(),
        np.random.default_rng(0),
        mean_photons=1000.0,
    )
    blurred = estimate_state(
        _records(rho, sigma=0.25, poisson=False),
        2,
        EstimatorConfig(),
        np.random.default_rng(0),
        mean_photons=1000.0,
    )
    assert sharp.rho_out.purity() > 0.999
    assert blurred.rho_out.purity() < sharp.rho_out.purity() - 0.1
