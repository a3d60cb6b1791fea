"""Maximum-likelihood state reconstruction from count records.

The objective is the Gaussian-approximated likelihood of James, Kwiat,
Munro & White, PRA 64, 052312 (2001),

    f(rho) = sum_k (n_meas_k - n_model_k)^2 / n_model_k,
    n_model_k = N tr(M_k rho),

with each model count floored at ``epsilon_floor``.  It is homogeneous of
degree one in (n_meas, n_model), so for noiseless counts the minimiser does
not depend on the photon number.  The model counts come from the sharp
ideal operators: the fitter is deliberately blind to detector jitter, which
is the effect under study.

f is convex in rho, with gradient R = N sum_k (1 - n_meas_k^2 / n_model_k^2) M_k,
so the search runs on the density matrix itself: a warm start from linear
inversion projected onto the density matrices (Smolin, Gambetta & Smith,
PRL 108, 070502 (2012)), then accelerated projected gradient (Shang, Zhang
& Ng, PRA 95, 062336 (2017)).  Convexity also bounds the distance to the
minimum: f(rho) - min f <= tr(R rho) - lambda_min(R), the Frank-Wolfe gap,
which is what ``converged`` certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix
from .counts import CountRecord
from .dynamics import DynamicsParams
from .measurement import evolved_matrices, kron_pairs, polarization_projector

# Weight of the maximally mixed state in the warm start.  The projected
# linear inversion is often rank-deficient, and where a model count nears
# zero under a nonzero measured count the curvature n^2 / n_model^3 forces
# tiny first steps.  The sharp operators are rank-one projectors, so the mix
# lifts every model count to at least N * _WARM_START_MIX / d.
_WARM_START_MIX = 5e-2


@dataclass(frozen=True)
class EstimatorConfig:
    """Stopping rules and count floor for the likelihood search.

    ``convergence_tol`` is the largest accepted Frank-Wolfe gap, an upper
    bound on how far the objective (in chi-squared units) lies above its
    minimum.  ``max_iterations`` bounds the projected-gradient steps,
    rejected backtracking steps included.
    """

    max_iterations: int = 20000
    convergence_tol: float = 1e-3
    epsilon_floor: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.convergence_tol > 0 and self.epsilon_floor > 0):
            raise ValueError("convergence_tol and epsilon_floor must be positive")


@dataclass(frozen=True)
class EstimateResult:
    rho_out: DensityMatrix
    objective: float
    converged: bool
    iterations: int


def model_operator_stack(records: list[CountRecord], dynamics: DynamicsParams | None = None) -> np.ndarray:
    """Sharp ideal operators matching the record settings, stacked (K, d, d)."""
    if not records:
        raise ValueError("empty record set")
    dynamics = dynamics if dynamics is not None else DynamicsParams()
    arities = {len(r.times) for r in records}
    if arities == {1}:
        times = [r.times[0] for r in records]
        return evolved_matrices(polarization_projector("H"), dynamics, times)
    if arities == {2}:
        unique = sorted({t for r in records for t in r.times})
        singles = evolved_matrices(polarization_projector("H"), dynamics, unique)
        index = {t: k for k, t in enumerate(unique)}
        first = singles[[index[r.times[0]] for r in records]]
        second = singles[[index[r.times[1]] for r in records]]
        return kron_pairs(first, second)
    raise ValueError("records mix single-qubit and pair settings")


def _objective_from_stack(model_stack, measured, mean_photons, epsilon_floor):
    """Objective and gradient over Hermitian candidate matrices for one record set.

    The returned callable maps rho to (f(rho), R(rho)).  Model counts use
    tr(M rho) = vec(M^T) . vec(rho), one matrix-vector product per call.
    """
    count, dim = model_stack.shape[0], model_stack.shape[1]
    flat = model_stack.reshape(count, dim * dim)
    flat_transposed = np.ascontiguousarray(np.swapaxes(model_stack, 1, 2).reshape(count, dim * dim))
    measured = np.asarray(measured, dtype=float)
    measured_sq = measured * measured

    def evaluate(rho):
        model = mean_photons * (flat_transposed @ rho.reshape(-1)).real
        np.maximum(model, epsilon_floor, out=model)
        resid = measured - model
        value = float(np.sum(resid * resid / model))
        weights = mean_photons * (1.0 - measured_sq / (model * model))
        return value, (weights @ flat).reshape(dim, dim)

    return evaluate


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrix to Hermitian ``h`` in Frobenius norm.

    Projects the spectrum onto the probability simplex and keeps the
    eigenvectors (Smolin, Gambetta & Smith 2012).
    """
    values, vectors = np.linalg.eigh(h)
    ordered = values[::-1]
    shifts = (np.cumsum(ordered) - 1.0) / np.arange(1, values.size + 1)
    active = np.nonzero(ordered > shifts)[0][-1]
    values = np.maximum(values - shifts[active], 0.0)
    rho = (vectors * values) @ vectors.conj().T
    return 0.5 * (rho + rho.conj().T)


def _gap(rho, grad) -> float:
    """Frank-Wolfe gap tr(R rho) - lambda_min(R), an upper bound on f(rho) - min f."""
    return float(np.vdot(grad, rho).real) - float(np.linalg.eigvalsh(grad)[0])


def _warm_start(model_stack, measured, mean_photons):
    """Least-squares linear inversion, projected onto the states and mixed."""
    count, dim = model_stack.shape[0], model_stack.shape[1]
    design = np.swapaxes(model_stack, 1, 2).reshape(count, dim * dim)
    solution = np.linalg.lstsq(design, np.asarray(measured) / mean_photons, rcond=None)[0]
    inverted = solution.reshape(dim, dim)
    rho = _project_to_states(0.5 * (inverted + inverted.conj().T))
    return (1.0 - _WARM_START_MIX) * rho + (_WARM_START_MIX / dim) * np.eye(dim)


def _accelerated_descent(evaluate, rho, cfg: EstimatorConfig, mean_photons: float):
    """FISTA on the density matrices with backtracking and adaptive restart.

    The step is 1 / L for a curvature estimate L that starts at the photon
    number (f scales with it), shrinks by 10% before each step and doubles
    whenever a trial step fails the sufficient-decrease test.  Every trial
    step, accepted or rejected, counts against ``cfg.max_iterations``.
    Returns (rho, objective, converged, iterations).
    """
    value, grad = evaluate(rho)
    ahead, ahead_value, ahead_grad = rho, value, grad
    momentum = 1.0
    lipschitz = mean_photons
    steps = 0
    while True:
        if _gap(rho, grad) <= cfg.convergence_tol:
            return rho, value, True, steps
        lipschitz *= 0.9
        while steps < cfg.max_iterations:
            steps += 1
            trial = _project_to_states(ahead - ahead_grad / lipschitz)
            trial_value, trial_grad = evaluate(trial)
            move = trial - ahead
            bound = ahead_value + float(np.vdot(ahead_grad, move).real)
            if trial_value <= bound + 0.5 * lipschitz * float(np.vdot(move, move).real):
                break
            lipschitz *= 2.0
        else:
            return rho, value, False, steps
        if trial_value > value:
            # momentum overshot: restart from the incumbent without it
            ahead, ahead_value, ahead_grad = rho, value, grad
            momentum = 1.0
            continue
        next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        ahead = trial + ((momentum - 1.0) / next_momentum) * (trial - rho)
        rho, value, grad = trial, trial_value, trial_grad
        momentum = next_momentum
        ahead_value, ahead_grad = evaluate(ahead)
        if ahead_value > value:
            # the extrapolated point is already worse: drop the momentum
            ahead, ahead_value, ahead_grad = rho, value, grad
            momentum = 1.0


def estimate_state(
    records: list[CountRecord],
    dim: int,
    cfg: EstimatorConfig,
    *,
    mean_photons: float,
    dynamics: DynamicsParams | None = None,
) -> EstimateResult:
    """Reconstruct the state that best explains the measured counts.

    Deterministic: linear inversion of the sharp operators gives the warm
    start, accelerated projected gradient refines it, and the estimate is
    ``converged`` when its Frank-Wolfe gap is at most ``cfg.convergence_tol``.
    """
    if dim not in (2, 4):
        raise ValueError(f"dim must be 2 or 4, got {dim}")
    if mean_photons <= 0:
        raise ValueError("mean_photons must be positive")
    stack = model_operator_stack(records, dynamics)
    if stack.shape[1] != dim:
        raise ValueError(f"records are {stack.shape[1]}-dimensional, expected {dim}")
    measured = np.array([r.measured for r in records], dtype=float)
    evaluate = _objective_from_stack(stack, measured, mean_photons, cfg.epsilon_floor)
    rho, value, converged, iterations = _accelerated_descent(
        evaluate, _warm_start(stack, measured, mean_photons), cfg, mean_photons
    )
    return EstimateResult(
        rho_out=DensityMatrix(rho),
        objective=value,
        converged=converged,
        iterations=iterations,
    )
