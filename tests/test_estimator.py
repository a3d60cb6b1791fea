"""Likelihood objective and maximum-likelihood reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    gathered_descent,
    hermitian_stacks,
    max_abs,
    project_to_states,
    qubit_stacks,
    serial_descent,
    uhlmann_fidelity,
)
from timetomo.core import StateError, first_unphysical
from timetomo.counts import count_rows, overlaps
from timetomo.dynamics import DynamicsParams
from timetomo.estimator import (
    _BASES,
    EstimatorConfig,
    _accelerated_descent,
    _coordinates,
    _matrices,
    _newton_points,
    _objective_from_design,
    _project_to_states,
    _traceless_outer,
    _warm_start,
    estimate_states,
)
from timetomo.measurement import IC_POVM_INSTANTS, setting_operators
from timetomo.states import bell_states, qubit_states, sample_bell_states, sample_mixed_qubits

PARAMS = DynamicsParams()
MIXED_QUBIT = 0.5 * np.eye(2, dtype=complex)


def _row_objective(stack, row, mean_photons):
    """The batched objective on one count row, as a map rho -> (f, R) on matrices."""
    evaluate = _objective_from_design(_coordinates(stack), np.array([row], dtype=float), np.array([mean_photons]))

    def single(rho):
        value, grad, _ = evaluate(_coordinates(np.asarray(rho, dtype=complex)[None]))
        return float(value[0]), _matrices(grad)[0]

    return single


def _project(h):
    """The solver's projection applied to a stack of matrices (B, d, d)."""
    return _matrices(_project_to_states(_coordinates(h)))


def _objective(records, mean_photons):
    return _row_objective(*records, mean_photons)


def _random_state(rng, dim):
    factor = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = factor @ factor.conj().T
    return gram / gram.trace().real


def _purity(rho):
    return np.trace(rho @ rho).real


def _records(rho, sigma=0.0, n=1000.0, poisson=True, seed=0, state_index=0):
    """The sharp operator stack and the count row of one state, as a sweep makes them.

    Without ``poisson`` the row is the noiseless one, ``n`` times the
    smeared overlaps.
    """
    _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, len(rho))
    if poisson:
        return sharp, count_rows(rho[None], smeared, [n], seed, state_index)[0, 0, 0]
    return sharp, n * overlaps(rho[None], smeared[0])[0]


def _estimate(records, mean_photons, cfg=EstimatorConfig()):
    """``estimate_states`` on one count row: (estimate, objective, converged, trial steps)."""
    sharp, row = records
    fit = estimate_states(sharp, row[None], mean_photons, cfg)
    assert first_unphysical(fit.rho) is None
    return fit.rho[0], float(fit.objective[0]), bool(fit.converged[0]), int(fit.iterations[0])


def test_estimator_config_validation():
    EstimatorConfig()
    with pytest.raises(ValueError):
        EstimatorConfig(max_iterations=0)
    with pytest.raises(ValueError):
        EstimatorConfig(convergence_tol=0.0)


def test_likelihood_matches_direct_formula():
    rho = qubit_states(0.8, 1.0, 0.5)[0]
    records = _records(rho, sigma=0.1, n=500.0)
    cand = qubit_states(0.6, 0.9, 2.0)[0]
    got = _objective(records, 500.0)(cand)[0]
    stack, row = records
    total = 0.0
    for measured, m in zip(row, stack):
        n_e = max(500.0 * float(np.trace(m @ cand).real), 1e-9)
        total += (measured - n_e) ** 2 / n_e
    assert got == pytest.approx(total, rel=1e-12)


def test_likelihood_floors_vanishing_model_counts():
    # candidate orthogonal to the measured state: floor keeps it finite
    rho = qubit_states(1.0, 0.0, 0.0)[0]
    records = _records(rho, poisson=False)
    objective = _objective(records, 1000.0)
    val = objective(np.diag([0.0, 1.0]).astype(complex))[0]
    assert math.isfinite(val)
    assert objective(MIXED_QUBIT)[0] < val


def test_qubit_and_pair_objectives_agree_on_shared_formula():
    # one objective serves both dimensions; the pair stack meets the same formula
    rho = bell_states(0.7)[0]
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
    for rho_in, n in ((qubit_states(0.7, 0.4, 1.0)[0], 300.0), (bell_states(1.1)[0], 50.0)):
        objective = _objective(_records(rho_in, sigma=0.1, n=n), n)
        rho = _random_state(rng, len(rho_in))
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
            assert first_unphysical(_project((h + h.conj().T)[None])) is None
            state = _random_state(rng, dim)
            assert max_abs(_project(state[None])[0] - state) < 1e-12
    bell = bell_states(0.0)
    assert max_abs(_project(bell) - bell) < 1e-12
    # the spectrum (1.5, 0.2) lands on the simplex vertex (1, 0)
    assert max_abs(_project(np.diag([1.5, 0.2])[None])[0] - np.diag([1.0, 0.0])) < 1e-15


def _simplex_projection(h):
    """Nearest state to the Hermitian part of one matrix: eigh, then the
    spectrum projected onto the simplex by the sorting rule."""
    values, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    ordered = values[::-1]
    for k in range(len(values), 0, -1):
        shift = (ordered[:k].sum() - 1.0) / k
        if ordered[k - 1] > shift:
            break
    return (vectors * np.maximum(values - shift, 0.0)) @ vectors.conj().T


def _check_projection(h, rounding):
    # the projection on coordinates against eigh and the simplex, matrix by
    # matrix, and against the matrix-form projection
    coords = _project_to_states(_coordinates(h))
    rho = _matrices(coords)
    assert max_abs(rho - np.array([_simplex_projection(m) for m in h])) < 1e-12
    assert max_abs(rho - project_to_states(0.5 * (h + np.conj(np.swapaxes(h, 1, 2))))) < 1e-12
    assert np.array_equal(rho, np.conj(np.swapaxes(rho, 1, 2)))
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() < rounding
    assert np.linalg.eigvalsh(rho).min() > -rounding
    assert max_abs(_project_to_states(coords) - coords) < rounding


@settings(max_examples=150, deadline=None)
@given(h=st.one_of(qubit_stacks, hermitian_stacks(2)))
def test_qubit_projection_matches_eigh_and_simplex(h):
    _check_projection(h, 1e-15)


@settings(max_examples=100, deadline=None)
@given(h=hermitian_stacks(4))
def test_pair_projection_matches_eigh_and_simplex(h):
    # eigh and the way back to coordinates keep a few more roundings
    _check_projection(h, 1e-14)


@pytest.mark.parametrize("dim", [2, 4])
def test_basis_is_hermitian_orthonormal_with_identity_first(dim):
    basis = _BASES[dim]
    assert basis.shape == (dim * dim, dim, dim)
    assert np.array_equal(basis, np.conj(np.swapaxes(basis, 1, 2)))
    assert max_abs(np.einsum("ixy,jyx->ij", basis, basis) - np.eye(dim * dim)) < 1e-15
    assert max_abs(basis[0] - np.eye(dim) / math.sqrt(dim)) < 1e-16


@settings(max_examples=60, deadline=None)
@given(h=st.one_of(hermitian_stacks(2), hermitian_stacks(4)))
def test_coordinates_are_traces_against_the_basis(h):
    # h_j = tr(H E_j), and sum_j h_j E_j gives H back
    coords = _coordinates(h)
    assert max_abs(coords - np.einsum("bxy,jyx->bj", h, _BASES[h.shape[-1]]).real) < 1e-14
    assert max_abs(_matrices(coords) - h) < 1e-14
    assert np.array_equal(_matrices(coords), np.conj(np.swapaxes(_matrices(coords), 1, 2)))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4]), sigma=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
def test_design_reproduces_the_operator_traces(dim, sigma, seed):
    # the real design A_kj = tr(M_k E_j) gives tr(M_k rho) as A . coordinates(rho)
    rho = _random_state(np.random.default_rng(seed), dim)
    _, sharp, (smeared,) = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, dim)
    for stack in (sharp, smeared):
        direct = np.einsum("kxy,yx->k", stack, rho).real
        assert max_abs(np.einsum("kj,j->k", _coordinates(stack), _coordinates(rho[None])[0]) - direct) < 1e-14


def test_noiseless_qubit_reconstruction_is_exact():
    rho = qubit_states(1.0, 1.2, 0.4)[0]
    rho_out, _, converged, _ = _estimate(_records(rho, poisson=False), 1000.0)
    assert converged
    assert uhlmann_fidelity(rho_out, rho) > 0.9999
    assert max_abs(rho_out - rho) < 5e-3


def test_noiseless_pair_reconstruction_is_exact():
    rho = bell_states(2.0)[0]
    rho_out, _, converged, _ = _estimate(_records(rho, poisson=False), 1000.0)
    assert converged
    assert uhlmann_fidelity(rho_out, rho) > 0.999


@pytest.mark.parametrize(
    "rho",
    [qubit_states(1.0, 1.2, 0.4)[0], bell_states(2.0)[0]],
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
        estimates.append(rho_out)
    assert max_abs(estimates[0] - estimates[1]) < 1e-3


def test_mixed_state_reconstruction():
    rho = qubit_states(0.4, 2.0, 3.0)[0]
    rho_out = _estimate(_records(rho, poisson=False), 1000.0)[0]
    assert uhlmann_fidelity(rho_out, rho) > 0.9999


def test_reconstruction_is_deterministic_given_rng_seed():
    rho = qubit_states(0.9, 0.8, 1.5)[0]
    records = _records(rho, sigma=0.05, n=100.0, seed=3)
    a_rho, a_objective, _, _ = _estimate(records, 100.0)
    b_rho, b_objective, _, _ = _estimate(records, 100.0)
    assert np.array_equal(a_rho, b_rho)
    assert a_objective == b_objective


def test_estimate_state_validates_arguments():
    records = _records(qubit_states(0.0, 0.0, 0.0)[0])
    with pytest.raises(ValueError):
        _estimate(records, 0.0)
    stack, row = records
    measured = np.tile(row, (3, 1))
    for photons in (-5.0, math.nan, [100.0, math.inf, 100.0], [100.0, 0.0, 100.0]):
        with pytest.raises(ValueError, match="mean_photons must be positive and finite"):
            estimate_states(stack, measured, photons, EstimatorConfig())
    with pytest.raises(ValueError):
        estimate_states(stack, measured, [100.0, 100.0], EstimatorConfig())


def test_estimator_is_blind_to_jitter_by_design():
    # fitting blurred counts with sharp models drags the estimate inward;
    # the pull toward the maximally mixed state is the effect under study
    rho = qubit_states(1.0, 0.5 * math.pi, 0.0)[0]
    sharp = _estimate(_records(rho, sigma=0.0, poisson=False), 1000.0)[0]
    blurred = _estimate(_records(rho, sigma=0.25, poisson=False), 1000.0)[0]
    assert _purity(sharp) > 0.999
    assert _purity(blurred) < _purity(sharp) - 0.1


def test_convergence_is_certified_within_the_iteration_budget():
    # a noisy, jitter-blurred Bell fit: certified at the default budget,
    # not after two trial steps
    records = _records(bell_states(0.9)[0], sigma=0.07, n=10.0, seed=4)
    _, full_objective, full_converged, full_iterations = _estimate(records, 10.0)
    assert full_converged
    assert full_iterations <= EstimatorConfig().max_iterations
    cut = EstimatorConfig(max_iterations=2)
    _, cut_objective, cut_converged, cut_iterations = _estimate(records, 10.0, cut)
    assert not cut_converged
    assert cut_iterations == 2
    assert full_objective <= cut_objective


_BLOCH = st.builds(
    lambda r, theta, phi: qubit_states(r, theta, phi)[0],
    st.floats(0.0, 1.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
_BELL = st.builds(lambda alpha: bell_states(alpha)[0], st.floats(0.0, 2.0 * math.pi, exclude_max=True))


# a pure Bell truth at a tiny jitter width: six settings hold counts of 3e-8 to 5e-8
_STALLED_BELL_FIT = dict(rho_in=bell_states(0.0)[0], sigma=1.8945424357509416e-06, n=1000.0, seed=3544833275)


@settings(max_examples=40, deadline=None)
@given(
    rho_in=st.one_of(_BLOCH, _BELL),
    sigma=st.floats(0.0, 0.3),
    n=st.sampled_from([10.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(**_STALLED_BELL_FIT)
def test_estimate_is_physical_and_no_worse_than_the_input_state(rho_in, sigma, n, seed):
    # the minimum lies at or below the objective of every state, the true
    # input included, and the estimate is within the certified gap of it
    records = _records(rho_in, sigma=sigma, n=n, seed=seed)
    cfg = EstimatorConfig()
    rho_out, value, converged, _ = _estimate(records, n, cfg)
    assert converged
    objective = _objective(records, n)
    assert objective(rho_out)[0] == pytest.approx(value, rel=1e-12)
    assert value <= objective(rho_in)[0] + cfg.convergence_tol


@pytest.mark.parametrize("dim, count", [(2, 300), (4, 64)], ids=["qubit", "pair"])
def test_batch_split_does_not_change_estimates(dim, count, monkeypatch):
    # a sweep fits a cell whole, or in one contiguous chunk per worker, and
    # the estimator fits a batch in blocks of rows; every state must come out
    # bit for bit the same whichever way it is split.  The batches are large
    # enough that a contraction dispatched by batch size would show.
    import timetomo.estimator as estimator

    rng = np.random.default_rng(5)
    states = np.array([_random_state(rng, dim) for _ in range(count)])
    _, sharp, smeared = setting_operators(PARAMS, [0.07], IC_POVM_INSTANTS, dim)
    measured = count_rows(states, smeared, [50.0], 11)[0, 0]
    cfg = EstimatorConfig()
    whole = estimate_states(sharp, measured, 50.0, cfg)
    cuts = np.sort(rng.choice(np.arange(3, count), size=7, replace=False))
    for bounds in ((0, count // 2 - 1, count), (0, 1, 2, *cuts, count)):
        chunks = [estimate_states(sharp, measured[a:b], 50.0, cfg) for a, b in zip(bounds, bounds[1:])]
        for field, joined in zip(whole, zip(*chunks)):
            assert np.array_equal(field, np.concatenate(joined))
    assert whole.converged.all()
    assert len(set(whole.iterations.tolist())) > 1  # the states finish at different passes
    for rows in (3, 17):
        monkeypatch.setattr(estimator, "_BLOCK_ROWS", rows)
        for field, blocked in zip(whole, estimate_states(sharp, measured, 50.0, cfg)):
            assert np.array_equal(field, blocked)


def test_failing_batch_entries_are_named(monkeypatch):
    import timetomo.estimator as estimator

    stack, row = _records(qubit_states(0.5, 1.0, 1.0)[0])
    measured = np.tile(row, (3, 1))
    corrupt = measured.copy()
    corrupt[1, 2] = np.inf
    with pytest.raises(StateError) as info:
        estimate_states(stack, corrupt, 1000.0, EstimatorConfig())
    assert info.value.index == 1
    assert isinstance(info.value.__cause__, FloatingPointError)

    real = estimator._accelerated_descent

    negative = _coordinates(np.diag([1.2, -0.2])[None])[0]

    def unphysical(*args):
        fits = real(*args)
        fits.rho[2] = negative
        return fits

    monkeypatch.setattr(estimator, "_accelerated_descent", unphysical)
    with pytest.raises(StateError) as info:
        estimate_states(stack, measured, 1000.0, EstimatorConfig())
    assert info.value.index == 2
    assert "estimate has negative eigenvalue" in str(info.value.__cause__)

    # in blocks of two rows, entry 2 of a 5-row batch is the first of the
    # second block; errors still name rows of the whole batch
    monkeypatch.setattr(estimator, "_BLOCK_ROWS", 2)
    calls = []

    def unphysical_second_block(*args):
        fits = real(*args)
        calls.append(len(fits.rho))
        if len(calls) == 2:
            fits.rho[0] = negative
        return fits

    monkeypatch.setattr(estimator, "_accelerated_descent", unphysical_second_block)
    measured = np.tile(row, (5, 1))
    with pytest.raises(StateError) as info:
        estimate_states(stack, measured, 1000.0, EstimatorConfig())
    assert (info.value.index, calls) == (2, [2, 2])
    corrupt = measured.copy()
    corrupt[3, 0] = np.nan
    with pytest.raises(StateError) as info:
        estimate_states(stack, corrupt, 1000.0, EstimatorConfig())
    assert info.value.index == 3


@pytest.mark.parametrize(
    "states, sigma, n, seed",
    [
        (sample_mixed_qubits(8, 8, 8)[0], 0.0, 10.0, 34),
        (sample_bell_states(50)[0], 0.07, 10.0, 13),
        (sample_bell_states(50)[0], 0.0, 1000.0, 3),
    ],
    ids=["qubit", "pair", "pure-pair"],
)
@pytest.mark.parametrize("max_iterations", [20000, 7])
def test_batched_descent_follows_each_state_alone(states, sigma, n, seed, max_iterations):
    # every state of a batch takes the trial steps, restarts, Newton
    # candidates and budget cut that the one-state loop takes from the same
    # warm start; at these seeds every sample holds states whose momentum
    # overshoots (1, 3 and 2 of them), which the Newton candidates make rare
    _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, states.shape[1])
    measured = count_rows(states, smeared, [n], seed)[0, 0]
    cfg = EstimatorConfig(max_iterations=max_iterations)
    fits = estimate_states(sharp, measured, n, cfg)
    starts = _matrices(_warm_start(_coordinates(sharp), measured, np.full(len(measured), n)))
    restarts = 0
    for b in range(len(states)):
        rho, converged, steps, overshoots = serial_descent(sharp, measured[b], starts[b], cfg, n)
        assert (steps, converged) == (fits.iterations[b], fits.converged[b])
        assert max_abs(rho - fits.rho[b]) < 1e-12
        restarts += overshoots
    assert fits.converged.all() == (max_iterations > 7)
    assert restarts > 0 or max_iterations == 7


@pytest.mark.parametrize("dim", [2, 4], ids=["qubit", "pair"])
def test_per_row_photon_numbers_match_scalar_calls(dim):
    # a sweep fits the rows of all its cells in one call, each row at its own
    # photon number; every row must come out as a call at that number alone
    rng = np.random.default_rng(12)
    states = np.array([_random_state(rng, dim) for _ in range(5)])
    _, sharp, smeared = setting_operators(PARAMS, [0.07], IC_POVM_INSTANTS, dim)
    groups = (10.0, 100.0, 1000.0)
    rows = list(count_rows(states, smeared, groups, 4)[0])
    photons = np.repeat(groups, len(states))
    joint = estimate_states(sharp, np.concatenate(rows), photons, EstimatorConfig())
    alone = [estimate_states(sharp, measured, n, EstimatorConfig()) for n, measured in zip(groups, rows)]
    for field, parts in zip(joint, zip(*alone)):
        assert np.array_equal(field, np.concatenate(parts))
    assert len(set(joint.iterations.tolist())) > 1


def _check_against_gathered_loop(sharp, measured, photons, cfg):
    """Run the working-set loop and the gathered reference from the same warm starts.

    Every ``StateEstimates`` field must match byte for byte.  Returns the
    fits and the number of momentum restarts that the reference took.
    """
    design = _coordinates(sharp)
    start = _warm_start(design, measured, photons)
    fits = _accelerated_descent(design, measured, photons, start, cfg)
    reference, restarts = gathered_descent(design, measured, start, cfg, photons)
    for field, expected in zip(fits, reference):
        assert (field.dtype, field.shape) == (expected.dtype, expected.shape)
        assert field.tobytes() == expected.tobytes()
    return fits, restarts


@st.composite
def _count_batches(draw):
    """The sharp stack and count rows of 1-10 qubits or pairs, each row at its own photon number.

    Pair states are Bell states mixed with white noise, qubits any point of
    the Bloch ball; the pure ones lie on the boundary, where fits take the
    most steps.
    """
    if draw(st.booleans()):
        dim, state = 2, _BLOCH
    else:
        dim = 4
        mixes = st.sampled_from([0.0, 0.3])
        state = st.builds(lambda bell, mix: (1.0 - mix) * bell + mix * np.eye(4) / 4.0, _BELL, mixes)
    states = np.array(draw(st.lists(state, min_size=1, max_size=10)))
    numbers = st.sampled_from([10.0, 100.0, 1000.0])
    photons = np.array(draw(st.lists(numbers, min_size=len(states), max_size=len(states))))
    sigma, seed = draw(st.sampled_from([0.0, 0.07, 0.2])), draw(st.integers(0, 2**32 - 1))
    _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, dim)
    measured = np.array(
        [count_rows(states[b : b + 1], smeared, [n], seed, b)[0, 0, 0] for b, n in enumerate(photons)]
    )
    return sharp, measured, photons


@settings(max_examples=100, deadline=None)
@given(batch=_count_batches(), max_iterations=st.sampled_from([1, 2, 7, 20000]))
def test_working_set_loop_matches_the_gathered_loop(batch, max_iterations):
    # compacting the unfinished rows, selecting with np.where and scoring
    # trial and extrapolated points in one stacked call change no byte
    _check_against_gathered_loop(*batch, EstimatorConfig(max_iterations=max_iterations))


@pytest.mark.parametrize(
    "states, sigma, seed",
    [(sample_mixed_qubits(8, 8, 8)[0], 0.0, 7), (sample_bell_states(50)[0], 0.07, 3)],
    ids=["qubit", "pair"],
)
@pytest.mark.parametrize("max_iterations", [1, 2, 7, 20000])
def test_working_set_loop_matches_the_gathered_loop_on_sweep_rows(states, sigma, seed, max_iterations):
    # sweep-sized batches at three photon numbers, where rows finish in many
    # different passes and the momentum restarts
    dim = states.shape[1]
    _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, dim)
    groups = (10.0, 100.0, 1000.0)
    measured = np.concatenate(count_rows(states, smeared, groups, seed)[0])
    photons = np.repeat(groups, len(states))
    cfg = EstimatorConfig(max_iterations=max_iterations)
    fits, restarts = _check_against_gathered_loop(sharp, measured, photons, cfg)
    if max_iterations > 7:
        assert len(set(fits.iterations.tolist())) > 10
        assert restarts > 0


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 4]),
    sigma=st.floats(0.0, 0.3),
    n=st.sampled_from([10.0, 100.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_curvature_weights_are_the_derivative_of_the_gradient(dim, sigma, n, seed):
    # the Hessian sum_k c_k a_k a_k^T built from evaluate's curvature weights
    # maps a direction v to the central difference of the gradient along v.
    # The candidate is mixed with I / d, so no model count nears the floor.
    rng = np.random.default_rng(seed)
    truth = _random_state(rng, dim)
    _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, dim)
    measured = count_rows(truth[None], smeared, [n], seed)[0, 0]
    design = _coordinates(sharp)
    evaluate = _objective_from_design(design, measured, np.array([n]))
    rho = _coordinates((0.8 * _random_state(rng, dim) + 0.2 * np.eye(dim) / dim)[None])
    direction = rng.uniform(-1.0, 1.0, size=rho.shape)
    curvature = evaluate(rho)[2][0]
    hessian = np.einsum("k,ki,kj->ij", curvature, design, design)
    step = 1e-6
    numeric = (evaluate(rho + step * direction)[1] - evaluate(rho - step * direction)[1]) / (2.0 * step)
    assert max_abs(numeric[0] - hessian @ direction[0]) <= 1e-6 * max_abs(hessian)


def test_extrapolation_below_the_floor_restarts_the_momentum():
    # at the stalled Bell fit the first Newton candidate wins, and two passes
    # later the momentum carries the extrapolated point to model counts below
    # the floor on settings with counts.  The floored objective's gradient
    # there drove the curvature estimate L to 4e17, and the fit froze at a
    # gap of 2.6e-3 for 20,000 steps; restarting from the incumbent instead,
    # it converges within a few passes, as both references do
    fit = _STALLED_BELL_FIT
    sharp, row = _records(fit["rho_in"], sigma=fit["sigma"], n=fit["n"], seed=fit["seed"])
    n, cfg = fit["n"], EstimatorConfig()
    fits, _ = _check_against_gathered_loop(sharp, row[None], np.array([n]), cfg)
    assert fits.converged[0] and fits.iterations[0] <= 20
    start = _matrices(_warm_start(_coordinates(sharp), row[None], np.array([n])))[0]
    rho, converged, steps, _ = serial_descent(sharp, row, start, cfg, n)
    assert (steps, converged) == (fits.iterations[0], True)
    assert max_abs(rho - _matrices(fits.rho)[0]) < 1e-12


def test_singular_newton_systems_fit_without_error():
    # a count row with too few nonzero settings has a singular Hessian on the
    # trace plane, on which a batched np.linalg.solve raises.  Such rows
    # propose no Newton point; batched with ordinary rows they fit, and every
    # other row comes out as it does alone
    for dim, singular in (
        (2, [[5, 0, 0, 0, 0, 0], [5, 5, 0, 0, 0, 0], [0, 0, 0, 3, 0, 0]]),
        (4, [[5] + [0] * 35, [0] * 7 + [2, 2] + [0] * 27]),
    ):
        states = np.array([_random_state(np.random.default_rng(dim), dim) for _ in range(3)])
        _, sharp, smeared = setting_operators(PARAMS, [0.07], IC_POVM_INSTANTS, dim)
        ordinary = count_rows(states, smeared, [10.0], 5)[0, 0]
        singular = np.array(singular, dtype=float)
        measured = np.concatenate((ordinary[:1], singular, ordinary[1:]))
        design, photons = _coordinates(sharp), np.full(len(measured), 10.0)
        start = _warm_start(design, measured, photons)
        _, gradient, curvature = _objective_from_design(design, measured, photons)(start)
        points = _newton_points(start, gradient, curvature, _traceless_outer(design))
        assert not np.isfinite(points[1 : 1 + len(singular)]).all(axis=1).any()
        assert np.isfinite(points[[0, -2, -1]]).all()
        fits = estimate_states(sharp, measured, 10.0, EstimatorConfig())
        assert fits.converged.all()
        alone = estimate_states(sharp, ordinary, 10.0, EstimatorConfig())
        rows = [0, len(measured) - 2, len(measured) - 1]
        for field, expected in zip(fits, alone):
            assert field[rows].tobytes() == expected.tobytes()
        _check_against_gathered_loop(sharp, measured, photons, EstimatorConfig())


def test_fits_stop_proposing_after_newton_patience(monkeypatch):
    # at sigma 0 the pure Bell truths put many minima on the boundary of the
    # states, where the projected Newton candidate keeps losing: those fits
    # stop proposing after _NEWTON_PATIENCE losses in a row and finish by
    # gradient steps.  The batch proposes exactly as often as the one-state
    # loops together, and in well under half of its steps
    import oracles

    import timetomo.estimator as estimator

    states = sample_bell_states(50)[0]
    _, sharp, smeared = setting_operators(PARAMS, [0.0], IC_POVM_INSTANTS, 4)
    measured = count_rows(states, smeared, [10.0], 3)[0, 0]
    proposals = []
    batched_points, serial_point = estimator._newton_points, oracles.newton_point

    def counted_points(rho, *args):
        proposals.append(len(rho))
        return batched_points(rho, *args)

    def counted_point(*args):
        proposals.append(1)
        return serial_point(*args)

    monkeypatch.setattr(estimator, "_newton_points", counted_points)
    fits = estimate_states(sharp, measured, 10.0, EstimatorConfig())
    batched = sum(proposals)
    proposals.clear()
    monkeypatch.setattr(oracles, "newton_point", counted_point)
    starts = _matrices(_warm_start(_coordinates(sharp), measured, np.full(len(measured), 10.0)))
    for b in range(len(states)):
        assert serial_descent(sharp, measured[b], starts[b], EstimatorConfig(), 10.0)[2] == fits.iterations[b]
    assert sum(proposals) == batched
    assert batched < fits.iterations.sum() / 2

# The seeds that perfbench/workloads.py draws for the four inputs of a run at seed 7
_WORKLOAD_SEEDS = (3031963040, 686412054, 2847190223, 1795801374)


@pytest.mark.parametrize("seed", _WORKLOAD_SEEDS)
def test_entangled_cell_rows_converge_within_eight_steps(seed):
    # the entangled-cell benchmark's four Bell phases at sigma 0.065, N 1000
    # are interior minima: the Newton candidate finishes each in about 5
    # passes, where projected gradient alone took 29-34
    states = sample_bell_states(4)[0]
    _, sharp, smeared = setting_operators(PARAMS, [0.065], IC_POVM_INSTANTS, 4)
    fits = estimate_states(sharp, count_rows(states, smeared, [1000.0], seed)[0, 0], 1000.0, EstimatorConfig())
    assert fits.converged.all()
    assert fits.iterations.max() <= 8


@pytest.mark.parametrize("seed", _WORKLOAD_SEEDS)
def test_qubit_grid_rows_need_at_most_ten_passes(seed):
    # the qubit-grid benchmark's 192 rows: the (8, 3, 4) grid at sigma 0 and
    # 0.2, N 1000; projected gradient alone needed 19-21 passes
    states = sample_mixed_qubits(8, 3, 4)[0]
    measured = []
    for sigma in (0.0, 0.2):
        _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, 2)
        measured.append(count_rows(states, smeared, [1000.0], seed)[0, 0])
    fits = estimate_states(sharp, np.concatenate(measured), 1000.0, EstimatorConfig())
    assert fits.converged.all()
    assert fits.iterations.max() <= 10
