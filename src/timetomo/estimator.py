"""Maximum-likelihood state reconstruction from count rows.

The objective is the Gaussian-approximated likelihood of James, Kwiat,
Munro & White, PRA 64, 052312 (2001),

    f(rho) = sum_k (n_meas_k - n_model_k)^2 / n_model_k,
    n_model_k = N tr(M_k rho),

with each model count floored at ``_EPSILON_FLOOR``.  It is homogeneous of
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
which is what ``converged`` certifies.  ``estimate_states`` fits a whole
batch of states at once, each step acting on (B, d, d) stacks (Bolduc, Knee,
Gauger & Leach, npj Quantum Inf. 3, 44 (2017)).

A qubit matrix a I + b . sigma has eigenvalues a -/+ |b|, so qubit fits use
closed forms and no eigensolver: the projection shrinks the Bloch vector
onto the Bloch ball, and lambda_min(R) is a - |b|.  Photon pairs use
``eigh`` and ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import StateError, ascending_eigenvalues, first_unphysical, require_integer, require_real

# Weight of the maximally mixed state in the warm start.  The projected
# linear inversion is often rank-deficient, and where a model count nears
# zero under a nonzero measured count the curvature n^2 / n_model^3 forces
# tiny first steps.  The sharp operators are rank-one projectors, so the mix
# lifts every model count to at least N * _WARM_START_MIX / d.
_WARM_START_MIX = 5e-2

# Floor of the model counts in the objective, which divides by them.
_EPSILON_FLOOR = 1e-9

# Rows fitted and validated together.  The solver holds about fifteen
# (rows, d, d) temporaries, so blocks bound its memory on sweeps of any size;
# each row's arithmetic does not depend on the block it shares.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class EstimatorConfig:
    """Stopping rules for the likelihood search.

    ``convergence_tol`` is the largest accepted Frank-Wolfe gap, an upper
    bound on how far the objective (in chi-squared units) lies above its
    minimum.  ``max_iterations`` bounds the projected-gradient steps,
    rejected backtracking steps included.
    """

    max_iterations: int = 20000
    convergence_tol: float = 1e-3

    def __post_init__(self):
        max_iterations = require_integer(self.max_iterations, "max_iterations")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        object.__setattr__(self, "max_iterations", max_iterations)
        tol = require_real(self.convergence_tol, "convergence_tol")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"convergence_tol must be positive and finite, got {tol!r}")
        object.__setattr__(self, "convergence_tol", tol)


class StateEstimates(NamedTuple):
    """Estimates of a batch of states; entry b is fitted to count row b."""

    rho: np.ndarray  # (B, d, d)
    objective: np.ndarray  # (B,)
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) trial steps


def _objective_from_stack(model_stack, measured, mean_photons):
    """Objective and gradient of candidates (b, d, d), each scored against the count row ``rows`` picks.

    ``mean_photons`` holds the photon number of each count row, (B,).  Model
    counts use tr(M rho) = vec(M^T) . vec(rho).  The contractions are
    einsums, whose sums do not depend on how many candidates share a call.
    """
    count, dim = model_stack.shape[0], model_stack.shape[1]
    flat = model_stack.reshape(count, dim * dim)
    flat_transposed = np.ascontiguousarray(np.swapaxes(model_stack, 1, 2).reshape(count, dim * dim))
    measured_sq = measured * measured

    def evaluate(rho, rows):
        photons = mean_photons[rows, None]
        model = photons * np.einsum("kx,bx->bk", flat_transposed, rho.reshape(len(rho), dim * dim)).real
        np.maximum(model, _EPSILON_FLOOR, out=model)
        resid = measured[rows] - model
        value = np.sum(resid * resid / model, axis=1)
        weights = photons * (1.0 - measured_sq[rows] / (model * model))
        return value, np.einsum("bk,kx->bx", weights, flat).reshape(len(rho), dim, dim)

    return evaluate


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrices to Hermitian ``h`` (..., d, d) in Frobenius norm.

    Projects each spectrum onto the probability simplex and keeps the
    eigenvectors (Smolin, Gambetta & Smith 2012).  For qubits the Hermitian
    part of h is a I + b . sigma with spectrum a -/+ |b|, whose projection is
    (1/2 -/+ |b| min(1, 1 / (2|b|))): the Bloch vector b is shrunk onto the
    ball |b| <= 1/2, and no eigenvectors are needed.
    """
    if h.shape[-1] == 2:
        half_split = 0.5 * (h[..., 0, 0].real - h[..., 1, 1].real)
        lower = 0.5 * (h[..., 1, 0] + np.conj(h[..., 0, 1]))
        shrink = 1.0 / np.maximum(1.0, 2.0 * np.hypot(half_split, np.abs(lower)))
        rho = np.empty(h.shape, dtype=complex)
        rho[..., 0, 0] = 0.5 + shrink * half_split
        rho[..., 1, 1] = 0.5 - shrink * half_split
        rho[..., 1, 0] = shrink * lower
        rho[..., 0, 1] = np.conj(rho[..., 1, 0])
        return rho
    values, vectors = np.linalg.eigh(h)
    dim = values.shape[-1]
    ordered = values[..., ::-1]
    shifts = (np.cumsum(ordered, axis=-1) - 1.0) / np.arange(1, dim + 1)
    # the last index where the sorted spectrum still exceeds its shift
    active = dim - 1 - np.argmax((ordered > shifts)[..., ::-1], axis=-1)
    values = np.maximum(values - np.take_along_axis(shifts, active[..., None], axis=-1), 0.0)
    rho = np.einsum("...ij,...j,...kj->...ik", vectors, values, vectors.conj())
    return 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))


def _inner(a, b) -> np.ndarray:
    """Real part of the Frobenius inner products tr(a_b^dag b_b) over a batch."""
    return np.einsum("bij,bij->b", a.conj(), b).real


def _warm_start(model_stack, measured, mean_photons):
    """Least-squares linear inversion of every count row, projected onto the states and mixed.

    ``mean_photons`` holds the photon number of each count row, (B,).
    """
    count, dim = model_stack.shape[0], model_stack.shape[1]
    design = np.swapaxes(model_stack, 1, 2).reshape(count, dim * dim)
    rates = measured / mean_photons[:, None]
    inverted = np.einsum("xk,bk->bx", np.linalg.pinv(design), rates).reshape(-1, dim, dim)
    rho = _project_to_states(0.5 * (inverted + np.conj(np.swapaxes(inverted, 1, 2))))
    return (1.0 - _WARM_START_MIX) * rho + (_WARM_START_MIX / dim) * np.eye(dim)


def _accelerated_descent(evaluate, rho, cfg: EstimatorConfig, mean_photons: np.ndarray) -> StateEstimates:
    """FISTA on the density matrices with backtracking and adaptive restart, for a batch.

    The step is 1 / L for a curvature estimate L that starts at the state's
    photon number in ``mean_photons`` (B,) (f scales with it), shrinks by 10%
    before each step and doubles whenever a trial step fails the
    sufficient-decrease test.  Every trial step, accepted or rejected, counts
    against ``cfg.max_iterations``.  Each state keeps its own L, momentum
    and step count, and every pass takes one trial step for each unfinished
    state, so each follows the path it would follow alone.  ``stepping``
    marks the states that have passed their gap check and are inside their
    backtracking loop.
    """
    batch = len(rho)
    value, grad = evaluate(rho, np.arange(batch))
    ahead, ahead_value, ahead_grad = rho.copy(), value.copy(), grad.copy()
    momentum, lipschitz = np.ones(batch), mean_photons.copy()
    steps = np.zeros(batch, dtype=int)
    converged, stepping, finished = (np.zeros(batch, dtype=bool) for _ in range(3))

    def drop_momentum(rows):
        ahead[rows], ahead_value[rows], ahead_grad[rows] = rho[rows], value[rows], grad[rows]
        momentum[rows] = 1.0

    while True:
        head = np.flatnonzero(~stepping & ~finished)
        # Frank-Wolfe gap tr(R rho) - lambda_min(R), an upper bound on f(rho) - min f
        done = _inner(grad[head], rho[head]) - ascending_eigenvalues(grad[head])[:, 0] <= cfg.convergence_tol
        converged[head[done]] = finished[head[done]] = True
        lipschitz[head[~done]] *= 0.9
        stepping[head[~done]] = True
        spent = stepping & (steps >= cfg.max_iterations)
        finished |= spent
        stepping &= ~spent
        live = np.flatnonzero(stepping)
        if not live.size:
            return StateEstimates(rho, value, converged, steps)
        steps[live] += 1
        trial = _project_to_states(ahead[live] - ahead_grad[live] / lipschitz[live, None, None])
        trial_value, trial_grad = evaluate(trial, live)
        move = trial - ahead[live]
        bound = ahead_value[live] + _inner(ahead_grad[live], move)
        accepted = trial_value <= bound + 0.5 * lipschitz[live] * _inner(move, move)
        lipschitz[live[~accepted]] *= 2.0
        stepping[live[accepted]] = False
        # momentum overshot: restart from the incumbent without it
        drop_momentum(live[accepted & (trial_value > value[live])])
        moved = accepted & (trial_value <= value[live])
        live, trial, trial_value, trial_grad = (a[moved] for a in (live, trial, trial_value, trial_grad))
        next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum[live] * momentum[live]))
        ahead[live] = trial + ((momentum[live] - 1.0) / next_momentum)[:, None, None] * (trial - rho[live])
        rho[live], value[live], grad[live], momentum[live] = trial, trial_value, trial_grad, next_momentum
        ahead_value[live], ahead_grad[live] = evaluate(ahead[live], live)
        # the extrapolated point is already worse: drop the momentum
        drop_momentum(live[ahead_value[live] > value[live]])


def estimate_states(stack, measured, mean_photons, cfg: EstimatorConfig) -> StateEstimates:
    """Reconstruct a batch of states from their count rows, ``measured`` (B, K).

    ``stack`` holds the sharp operators of the K settings, (K, d, d), and
    ``mean_photons`` the source photon number, one for the whole batch or one
    per row, (B,), so rows of several sweep cells can share one call.  Linear
    inversion gives the warm starts, accelerated projected gradient refines
    them, and an estimate is ``converged`` when its Frank-Wolfe gap is at
    most ``cfg.convergence_tol``.  Entry b depends on row b and its photon
    number alone, so a batch may be fitted whole or in any split; it is
    fitted and validated in blocks of ``_BLOCK_ROWS`` rows, which bounds the
    memory a large batch takes.  A non-finite count row or a non-physical
    estimate raises ``StateError`` naming its row in the whole batch,
    chained to the error that describes it.
    """
    measured = np.asarray(measured, dtype=float)
    mean_photons = np.broadcast_to(np.asarray(mean_photons, dtype=float), measured.shape[:1])
    if not (np.isfinite(mean_photons) & (mean_photons > 0)).all():
        raise ValueError("mean_photons must be positive and finite")
    bad = np.flatnonzero(~np.isfinite(measured).all(axis=1))
    if bad.size:
        raise StateError(int(bad[0])) from FloatingPointError("count row has non-finite entries")
    blocks = []
    # at least one block, so that an empty batch returns empty fields
    for start in range(0, max(len(measured), 1), _BLOCK_ROWS):
        rows, photons = measured[start : start + _BLOCK_ROWS], mean_photons[start : start + _BLOCK_ROWS]
        evaluate = _objective_from_stack(stack, rows, photons)
        block = _accelerated_descent(evaluate, _warm_start(stack, rows, photons), cfg, photons)
        problem = first_unphysical(block.rho, "estimate")
        if problem is not None:
            raise StateError(start + problem[0]) from ValueError(problem[1])
        blocks.append(block)
    return StateEstimates(*(np.concatenate(field) for field in zip(*blocks)))

