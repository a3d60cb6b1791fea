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

The search runs on real coordinates.  In the orthonormal Hermitian basis
E_j of ``_BASES`` (the identity first, then the Pauli matrices for d = 2 or
the Pauli products for d = 4, scaled so that tr(E_i E_j) = delta_ij), a
d x d Hermitian matrix is a real d^2 vector h_j = tr(H E_j), and the
Frobenius inner product is the dot product.  The sharp stack becomes one
real (K, d^2) design A_kj = tr(M_k E_j), so n_model = N A rho, and the
gradient R = N sum_k (1 - n_meas_k^2 / n_model_k^2) M_k has coordinates
N A^T (1 - n_meas^2 / n_model^2).  Its Hessian is sum_k c_k a_k a_k^T, with
a_k row k of the design and curvature weights c_k = 2 N^2 n_meas_k^2 /
n_model_k^3.

f is convex, so the search is a warm start from linear inversion projected
onto the density matrices (Smolin, Gambetta & Smith, PRL 108, 070502
(2012)), then passes that each try a projected Newton candidate first
(Bertsekas, SIAM J. Control Optim. 20, 221 (1982)) and otherwise take an
accelerated projected gradient step (Shang, Zhang & Ng, PRA 95, 062336
(2017)).  The candidate is the incumbent's Newton point on the trace plane,
projected onto the states.  A fit takes it only where it scores strictly
below the incumbent, so no pass raises the objective; it then restarts its
momentum, doubles its curvature estimate L as a rejected gradient trial
would, and takes no gradient step in that pass.  Where the minimum is
interior, as for most jitter-blurred counts, the candidate wins pass after
pass and a fit finishes in a few; where it lies on the boundary of the
states, the candidate keeps losing, and after ``_NEWTON_PATIENCE`` losses
in a row the fit goes on by gradient steps alone.  The momentum also
restarts where the extrapolated point takes a model count below the floor
on a setting counted above it, as tiny counts on nearly pure truths make it
do.  Convexity also bounds the distance to the minimum: f(rho) - min f <=
tr(R rho) - lambda_min(R), the Frank-Wolfe gap, which is what ``converged``
certifies.  Since lambda_min(R) <= R_ii, a pair row's gap is at least
tr(R rho) - min_i R_ii, and ``eigvalsh`` runs only on rows where that bound
leaves convergence possible.

``estimate_states`` fits a whole batch of states at once, each step acting
on (B, d^2) coordinate arrays (Bolduc, Knee, Gauger & Leach, npj Quantum
Inf. 3, 44 (2017)).  The loop keeps the unfinished rows as one contiguous
working set: a pass in which rows finish writes them out and compacts the
rest.  One projection and one objective call score the candidates of the
proposing rows; one projection and one objective call, on their trial and
extrapolated points stacked, step the other rows, gathered out of the set
where some rows took their candidate.  So a pass costs a fixed number of
numpy calls, a pass in which every candidate wins makes one projection and
one objective call, and each row's arithmetic is the same as if it were
fitted alone.

A qubit state has coordinates (1/sqrt 2, r / sqrt 2) for its Bloch vector
r, so qubit fits need no matrix at all: the projection fixes the trace
coordinate and shrinks the rest onto the ball of radius 1/sqrt 2, and a
gradient g has lambda_min = (g_0 - |g_1..3|) / sqrt 2, and the 3 x 3 Newton
system is solved by its adjugate.  Photon pairs build the 4 x 4 matrix from
its coordinates for ``eigh`` and ``eigvalsh`` only, and solve their 15 x 15
Newton systems with ``np.linalg.solve``.
The (B, d, d) estimates are built once, at the end of each block.  Every
contraction is an ``np.einsum`` without path optimisation on operands laid
out row by row, whose sums do not depend on how many rows share a call; a
BLAS matrix product may round a row differently in a batch of another size,
and so may ``np.einsum`` on a strided operand, which is why the qubit Newton
step writes its sums of three products out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import StateError, first_unphysical, require_integer, require_real

# Weight of the maximally mixed state in the warm start.  The projected
# linear inversion is often rank-deficient, and where a model count nears
# zero under a nonzero measured count the curvature n^2 / n_model^3 forces
# tiny first steps.  The sharp operators are rank-one projectors, so the mix
# lifts every model count to at least N * _WARM_START_MIX / d.
_WARM_START_MIX = 5e-2

# Floor of the model counts in the objective, which divides by them.
_EPSILON_FLOOR = 1e-9

# Rows fitted and validated together.  The solver holds about fifteen
# (rows, d^2) temporaries, so blocks bound its memory on sweeps of any size;
# each row's arithmetic does not depend on the block it shares.
_BLOCK_ROWS = 8192

# Passes in a row that a fit's Newton candidate may lose before the fit stops
# proposing one.  Interior fits take their candidate within a few passes; a
# fit whose minimum lies on the boundary of the states keeps losing, and
# would otherwise build and solve its Hessian on every pass of a long tail.
_NEWTON_PATIENCE = 10

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# Orthonormal Hermitian bases (d^2, d, d), the identity first: Pauli
# matrices / sqrt 2 for a qubit, Pauli products sigma_i (x) sigma_j / 2 for a pair.
_BASES = {
    2: _PAULI / math.sqrt(2.0),
    4: np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(16, 4, 4) / 2.0,
}

# Each basis as a real (d^2, 2 d^2) matrix W, row j holding the entries of
# E_j as (real, imaginary) pairs.  A complex (B, d, d) stack viewed as real
# (B, 2 d^2) meets W in real einsums both ways: coordinates h give the
# entries h W of sum_j h_j E_j, and entries m give the coordinates
# m W^T = Re tr(m E_j) = tr(H E_j) of the Hermitian part H of m, since each
# E_j is Hermitian.
_ENTRIES = {dim: basis.reshape(dim * dim, dim * dim).view(float) for dim, basis in _BASES.items()}

# Entry (i, j) of the adjugate of a symmetric 3 x 3 matrix H, flattened as
# 3 i + j, is H[i+1, j+1] H[i+2, j+2] - H[i+1, j+2] H[i+2, j+1] (indices mod 3):
# the four rows hold the flat indices of those four factors.
_COFACTORS = np.array(
    [[3 * ((i + a) % 3) + (j + b) % 3 for i in range(3) for j in range(3)] for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))]
)

# The diagonals (E_j)_ii of the pair basis, (16, 4): a pair gradient with coordinates g has
# the diagonal entries R_ii = sum_j g_j (E_j)_ii in the computational basis.
_PAIR_DIAGONALS = _BASES[4].diagonal(axis1=1, axis2=2).real.copy()

# The ranks 1..d that divide the cumulative sums of a sorted spectrum in the simplex projection.
_RANKS = {dim: np.arange(1, dim + 1) for dim in _BASES}


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


def _coordinates(matrices: np.ndarray) -> np.ndarray:
    """Coordinates tr(H E_j) of the Hermitian parts H of matrices (B, d, d), as (B, d^2)."""
    count, dim = matrices.shape[0], matrices.shape[-1]
    entries = np.ascontiguousarray(matrices, dtype=complex).reshape(count, dim * dim).view(float)
    return np.einsum("bz,jz->bj", entries, _ENTRIES[dim])


def _matrices(coords: np.ndarray) -> np.ndarray:
    """The Hermitian matrices sum_j h_j E_j (B, d, d) of coordinates (B, d^2)."""
    dim = math.isqrt(coords.shape[-1])
    return np.einsum("bj,jz->bz", coords, _ENTRIES[dim]).view(complex).reshape(-1, dim, dim)


def _inner(a, b) -> np.ndarray:
    """Frobenius inner products tr(a_b b_b) of Hermitian matrices over a batch, from coordinates."""
    return np.einsum("bj,bj->b", a, b)


def _bloch_length(coords: np.ndarray) -> np.ndarray:
    """|h_1..3| of qubit coordinates (B, 4)."""
    bloch = coords[:, 1:]
    return np.sqrt(np.einsum("bj,bj->b", bloch, bloch))


def _frank_wolfe_gaps(grad, rho, wanted, tol) -> np.ndarray:
    """Frank-Wolfe gaps tr(R rho) - lambda_min(R) of gradients R at states rho, both coordinates (B, d^2).

    A qubit's closed form costs less for every row than a selection does,
    so every qubit row holds its gap.  A pair's lambda_min(R) is at most
    each diagonal entry R_ii, so tr(R rho) - min_i R_ii bounds its gap from
    below: ``eigvalsh`` runs only on the rows that ``wanted`` (B,) marks and
    whose bound is at most ``tol``, and every other row holds its bound.
    """
    traced = _inner(grad, rho)
    if grad.shape[-1] == 4:  # a qubit
        return traced - (grad[:, 0] - _bloch_length(grad)) / math.sqrt(2.0)
    gaps = traced - np.einsum("bj,ji->bi", grad, _PAIR_DIAGONALS).min(axis=1)
    exact = np.flatnonzero(wanted & (gaps <= tol))
    if exact.size:
        gaps[exact] = traced[exact] - np.linalg.eigvalsh(_matrices(grad[exact]))[:, 0]
    return gaps


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Coordinates of the nearest unit-trace PSD matrices, in Frobenius norm, to coordinates ``h`` (B, d^2).

    Projects each spectrum onto the probability simplex and keeps the
    eigenvectors (Smolin, Gambetta & Smith 2012).  A qubit matrix a I + b . sigma
    has spectrum a -/+ |b|, which projects to 1/2 -/+ min(|b|, 1/2): in
    coordinates, h_0 becomes 1/sqrt 2 and h_1..3 is shrunk onto the ball of
    radius 1/sqrt 2, with no eigenvectors needed.
    """
    if h.shape[-1] == 4:  # a qubit
        rho = h / np.maximum(1.0, math.sqrt(2.0) * _bloch_length(h))[:, None]
        rho[:, 0] = 1.0 / math.sqrt(2.0)
        return rho
    values, vectors = np.linalg.eigh(_matrices(h))
    count, dim = values.shape
    ordered = values[:, ::-1]
    shifts = (np.cumsum(ordered, axis=-1) - 1.0) / _RANKS[dim]
    # the last index where the sorted spectrum still exceeds its shift
    active = dim - 1 - np.argmax((ordered > shifts)[:, ::-1], axis=-1)
    values = np.maximum(values - shifts[np.arange(count), active][:, None], 0.0)
    return _coordinates(np.einsum("bij,bj,bkj->bik", vectors, values, vectors.conj()))


def _objective_from_design(design, measured, mean_photons):
    """Objective, gradient and curvature weights of candidates (b, d^2), candidate i scored against count row i.

    ``measured`` holds the count rows (b, K) and ``mean_photons`` the photon
    number of each, (b,).  The curvature weights c_k = 2 N^2 n_k^2 / mu_k^3,
    (b, K), give the Hessian sum_k c_k a_k a_k^T of f, with a_k row k of
    the design and mu_k = N a_k . rho the model count.
    """
    measured_sq = measured * measured
    photons = mean_photons[:, None]
    twice_photons_sq = 2.0 * photons * photons

    # Each step reuses a temporary where it can: on batches of thousands of
    # rows, fresh (b, K) temporaries cost about a quarter of the call.
    def evaluate(rho):
        model = np.einsum("kj,bj->bk", design, rho)
        model *= photons
        np.maximum(model, _EPSILON_FLOOR, out=model)
        terms = measured - model
        terms *= terms
        terms /= model
        value = np.add.reduce(terms, axis=1)
        # n_meas^2 / n_model^2, then the gradient weights N (1 - n_meas^2 / n_model^2)
        weights = np.multiply(model, model, out=terms)
        np.divide(measured_sq, weights, out=weights)
        curvature = weights / model
        curvature *= twice_photons_sq
        np.subtract(1.0, weights, out=weights)
        weights *= photons
        return value, np.einsum("bk,kj->bj", weights, design), curvature

    return evaluate


def _traceless_outer(design) -> np.ndarray:
    """The outer products a'_k a'_k^T of the design's traceless columns, flattened to (K, (d^2 - 1)^2)."""
    traceless = design[:, 1:]
    return np.einsum("ki,kj->kij", traceless, traceless).reshape(len(design), -1)


def _newton_points(rho, grad, curvature, outer) -> np.ndarray:
    """Newton points rho - [0, H'^-1 g'] on the trace plane of coordinates ``rho`` (b, d^2), unprojected.

    H' = sum_k c_k a'_k a'_k^T and g' are the Hessian and the gradient
    ``grad`` restricted to the d^2 - 1 traceless coordinates, with the
    curvature weights c_k of ``curvature`` (b, K) and the products of
    ``outer`` (``_traceless_outer``).  A row whose H' is singular comes back
    non-finite.  A qubit's 3 x 3 system is solved by Cramer's rule, with the
    adjugate from ``_COFACTORS``; a pair's goes to ``np.linalg.solve``,
    matrix by matrix if the batch holds a singular one.
    """
    hessian = np.einsum("bk,kz->bz", curvature, outer)
    tangent = grad[:, 1:]
    size = tangent.shape[1]
    if size == 3:  # a qubit
        first, second, third, fourth = (hessian[:, factor] for factor in _COFACTORS)
        adjugate = (first * second - third * fourth).reshape(-1, 3, 3)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the determinant is row 0 of H' against row 0 of its (symmetric) adjugate.  These sums
            # of three products are added in order by hand: the rows of the adjugate are strided,
            # and np.einsum orders its sums by the operands' layout, which a batch of one row does
            # not share
            products = hessian[:, :3] * adjugate[:, 0]
            determinant = products[:, 0] + products[:, 1] + products[:, 2]
            products = adjugate * tangent[:, None, :]
            step = (products[..., 0] + products[..., 1] + products[..., 2]) / determinant[:, None]
    else:
        hessian = hessian.reshape(-1, size, size)
        try:
            step = np.linalg.solve(hessian, tangent[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.array([_solve_or_nan(h, g) for h, g in zip(hessian, tangent)])
    points = rho.copy()
    points[:, 1:] -= step
    return points


def _solve_or_nan(matrix, vector) -> np.ndarray:
    """matrix^-1 vector, or NaN where the matrix is singular."""
    try:
        return np.linalg.solve(matrix, vector[:, None])[:, 0]
    except np.linalg.LinAlgError:
        return np.full(len(vector), np.nan)


def _warm_start(design, measured, mean_photons):
    """Least-squares linear inversion of every count row, projected onto the states and mixed.

    ``mean_photons`` holds the photon number of each count row, (B,).
    Returns coordinates (B, d^2).
    """
    rates = measured / mean_photons[:, None]
    rho = (1.0 - _WARM_START_MIX) * _project_to_states(np.einsum("jk,bk->bj", np.linalg.pinv(design), rates))
    # the maximally mixed state I / d has coordinates (1 / sqrt d, 0, ...)
    rho[:, 0] += _WARM_START_MIX / math.sqrt(math.isqrt(design.shape[1]))
    return rho


def _gradient_step(
    evaluate, design, floor_line, rho, value, grad, curvature, ahead, ahead_value, ahead_grad, momentum, lipschitz
):
    """One FISTA trial step with backtracking and adaptive restart for rows of coordinates (b, d^2).

    ``evaluate`` scores (2b, d^2) points against the rows' count rows
    stacked twice.  ``floor_line`` (b, K) holds the floor of each watched
    setting and -inf elsewhere, or is None while no row watches one.
    Returns the rows' updated (rho, value, grad, curvature, ahead,
    ahead_value, ahead_grad, momentum, lipschitz), which rows' trials passed
    the sufficient-decrease test, and which moved their incumbent.
    """
    width = len(rho)
    trial = _project_to_states(ahead - ahead_grad / lipschitz[:, None])
    next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
    extrapolated = trial + ((momentum - 1.0) / next_momentum)[:, None] * (trial - rho)
    values, grads, curvatures = evaluate(np.concatenate((trial, extrapolated)))
    trial_value, trial_grad, trial_curvature = values[:width], grads[:width], curvatures[:width]
    extrapolated_value, extrapolated_grad = values[width:], grads[width:]
    move = trial - ahead
    bound = ahead_value + _inner(ahead_grad, move)
    accepted = trial_value <= bound + 0.5 * lipschitz * _inner(move, move)
    moved = accepted & (trial_value <= value)
    # restart from the incumbent without momentum where the momentum overshot (the
    # accepted trial is worse than the incumbent), or where the extrapolated point is
    # worse or leaves the objective's domain
    astray = extrapolated_value > trial_value
    if floor_line is not None:
        astray |= (np.einsum("kj,bj->bk", design, extrapolated) < floor_line).any(axis=1)
    restart = (accepted & (trial_value > value)) | (moved & astray)
    column, reset = moved[:, None], restart[:, None]
    rho, grad = np.where(column, trial, rho), np.where(column, trial_grad, grad)
    curvature = np.where(column, trial_curvature, curvature)
    value = np.where(moved, trial_value, value)
    momentum = np.where(restart, 1.0, np.where(moved, next_momentum, momentum))
    ahead = np.where(reset, rho, np.where(column, extrapolated, ahead))
    ahead_value = np.where(restart, value, np.where(moved, extrapolated_value, ahead_value))
    ahead_grad = np.where(reset, grad, np.where(column, extrapolated_grad, ahead_grad))
    lipschitz = np.where(accepted, lipschitz, 2.0 * lipschitz)
    return (rho, value, grad, curvature, ahead, ahead_value, ahead_grad, momentum, lipschitz), accepted, moved


def _accelerated_descent(design, measured, mean_photons, rho, cfg: EstimatorConfig) -> StateEstimates:
    """Projected Newton candidates, then FISTA with backtracking and adaptive restart, on state coordinates (B, d^2).

    Row b starts at ``rho[b]`` and is scored against count row
    ``measured[b]`` at photon number ``mean_photons[b]``.  Every pass counts
    one step against ``cfg.max_iterations`` for each unfinished row, and
    each row keeps its own curvature estimate L, momentum, step count and
    Newton patience, so each follows the path it would follow alone.

    A pass first proposes, for every row still within its patience, the
    projected Newton point of its incumbent on the trace plane (Bertsekas,
    SIAM J. Control Optim. 20, 221 (1982)).  A row whose candidate scores
    strictly below its incumbent takes it: the candidate becomes the
    incumbent and the extrapolated point, the momentum restarts and L
    doubles, and the row takes no gradient step this pass.  (L doubles as
    if the row had also tried a gradient step and seen it fail the
    sufficient-decrease test.  A loop that also ran the trial beside every
    candidate saw it fail that test in 93-100% of the wins on each of the
    paper-scale and desk sweeps; keeping L instead takes more steps on the
    qubit sweeps, though fewer on the entangled ones.)  A
    candidate that comes out non-finite, because the row's Hessian is
    singular, is dropped and counts as a loss, and a row whose candidate
    loses ``_NEWTON_PATIENCE`` passes in a row stops proposing.  A row is
    ``settled`` while its last candidate lost and its incumbent has not
    moved since: its next candidate would be the same point, sure to lose
    again, so the pass counts the loss without building it.

    Every other row takes one FISTA trial step (``_gradient_step``) of
    length 1 / L.  L starts at the photon number (f scales with it), shrinks
    by 10% at the start of every pass that does not follow a rejected trial,
    and doubles whenever a trial fails the sufficient-decrease test or the
    row takes its candidate.  The momentum restarts from the incumbent
    where an accepted trial is worse than it (an overshoot), or where the
    extrapolated point is worse than the trial or leaves the objective's
    domain: a model count below the floor on a setting counted above it.
    There the floored objective's gradient is no guide, and a step from the
    point could drive L up by many orders of magnitude.

    The passes work on a contiguous working set of the W unfinished rows.
    A pass in which some rows finish writes their results to the output and
    compacts the rest with one boolean gather per array.  ``backtracking``
    marks the rows whose last trial step was rejected: they are inside their
    backtracking loop, so the gap decides only the others.  A pass in which
    every row takes its candidate makes one projection and one objective
    call on the W rows; otherwise the rows that step are stepped in one
    projection and one objective call on their trial and extrapolated
    points stacked, gathered out of the set and written back where some
    rows took their candidate.  The objectives on the proposing rows' count
    rows, and on the stepping rows' count rows stacked twice, are built
    again only when those rows change.  The returned ``rho`` holds
    coordinates.
    """
    batch = len(rho)
    fits = StateEstimates(np.empty_like(rho), np.empty(batch), np.zeros(batch, dtype=bool), np.zeros(batch, dtype=int))
    value, grad, curvature = _objective_from_design(design, measured, mean_photons)(rho)
    # the rows' state is updated in place, so each array starts as a copy of its own
    rho, ahead, ahead_value, ahead_grad = rho.copy(), rho.copy(), value.copy(), grad.copy()
    momentum, lipschitz = np.ones(batch), mean_photons
    steps, index = np.zeros(batch, dtype=int), np.arange(batch)
    losses = np.zeros(batch, dtype=int)  # passes in a row that the Newton candidate lost
    settled = np.zeros(batch, dtype=bool)  # the last candidate lost and the incumbent has not moved since
    backtracking = np.zeros(batch, dtype=bool)
    # Below a_k . rho = floor / N the floor stands in for the model count of setting k, and a
    # point scores at least (n_k - floor)^2 / floor.  No incumbent scores above the start, so
    # where that is over twice the start's objective, an extrapolated point there is worse than
    # any trial and restarts anyway.  floor_line watches the other settings counted above the
    # floor and is -inf elsewhere; while no row has one, no point is checked.
    low = (measured - _EPSILON_FLOOR) ** 2 <= 2.0 * _EPSILON_FLOOR * value[:, None]
    watched = (measured > _EPSILON_FLOOR) & low
    floor_line = np.where(watched, _EPSILON_FLOOR / mean_photons[:, None], -np.inf)
    watching = watched.any()
    outer = _traceless_outer(design)
    score = scored = evaluate = held = None  # both objectives are rebuilt when rows finish
    while True:
        # Frank-Wolfe gap tr(R rho) - lambda_min(R), an upper bound on f(rho) - min f
        gap = _frank_wolfe_gaps(grad, rho, ~backtracking, cfg.convergence_tol)
        converged = ~backtracking & (gap <= cfg.convergence_tol)
        lipschitz = np.where(backtracking | converged, lipschitz, 0.9 * lipschitz)
        finished = converged | (steps >= cfg.max_iterations)
        if finished.any():
            done = index[finished]
            fits.rho[done], fits.objective[done] = rho[finished], value[finished]
            fits.converged[done], fits.iterations[done] = converged[finished], steps[finished]
            keep = ~finished
            rho, value, grad, curvature, ahead, ahead_value, ahead_grad, settled, backtracking = (
                a[keep] for a in (rho, value, grad, curvature, ahead, ahead_value, ahead_grad, settled, backtracking)
            )
            momentum, lipschitz, steps, losses, index, measured, mean_photons, floor_line = (
                a[keep] for a in (momentum, lipschitz, steps, losses, index, measured, mean_photons, floor_line)
            )
            watching = watching and np.isfinite(floor_line).any()
            score = evaluate = None
        if not index.size:
            return fits
        steps = steps + 1
        eligible = losses < _NEWTON_PATIENCE
        losses += eligible  # and back to 0 where the candidate wins
        # a settled row's candidate would be its last one again, sure to lose: the loss counts, nothing is built
        proposing = np.flatnonzero(eligible & ~settled)
        stepping = slice(None)  # the rows that take a gradient step
        taken = proposing[:0]
        if proposing.size:
            newton = _newton_points(rho[proposing], grad[proposing], curvature[proposing], outer)
            finite = np.isfinite(newton).all(axis=1)
            proposing = proposing[finite]
            candidate = _project_to_states(newton[finite])
            if score is None or not np.array_equal(proposing, scored):
                # the objective on the proposing rows' count rows, kept while they stay the same
                score, scored = _objective_from_design(design, measured[proposing], mean_photons[proposing]), proposing
            candidate_value, candidate_grad, candidate_curvature = score(candidate)
            # a candidate strictly below its incumbent replaces it and restarts the momentum
            wins = candidate_value < value[proposing]
            taken = proposing[wins]
            rho[taken] = ahead[taken] = candidate[wins]
            value[taken] = ahead_value[taken] = candidate_value[wins]
            grad[taken] = ahead_grad[taken] = candidate_grad[wins]
            curvature[taken] = candidate_curvature[wins]
            momentum[taken], lipschitz[taken] = 1.0, 2.0 * lipschitz[taken]
            losses[taken], settled[taken], backtracking[taken] = 0, False, False
            if taken.size == len(rho):
                continue
            if taken.size:
                stepping = np.ones(len(rho), dtype=bool)
                stepping[taken] = False
        if evaluate is None or not np.array_equal(taken, held):
            # the objective on the stepping rows' count rows stacked twice, kept while they stay the same
            counts, photons = measured[stepping], mean_photons[stepping]
            counts, photons = np.concatenate((counts, counts)), np.concatenate((photons, photons))
            evaluate, held = _objective_from_design(design, counts, photons), taken
        rows = (rho, value, grad, curvature, ahead, ahead_value, ahead_grad, momentum, lipschitz)
        floors = floor_line[stepping] if watching else None
        stepped, accepted, moved = _gradient_step(evaluate, design, floors, *(a[stepping] for a in rows))
        if taken.size:
            for a, new in zip(rows, stepped):
                a[stepping] = new
            backtracking[stepping] = ~accepted
            settled[stepping] = eligible[stepping] & ~moved
        else:
            rho, value, grad, curvature, ahead, ahead_value, ahead_grad, momentum, lipschitz = stepped
            backtracking, settled = ~accepted, eligible & ~moved


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
    design = _coordinates(stack)
    blocks = []
    # at least one block, so that an empty batch returns empty fields
    for start in range(0, max(len(measured), 1), _BLOCK_ROWS):
        rows, photons = measured[start : start + _BLOCK_ROWS], mean_photons[start : start + _BLOCK_ROWS]
        fits = _accelerated_descent(design, rows, photons, _warm_start(design, rows, photons), cfg)
        rho = _matrices(fits.rho)
        problem = first_unphysical(rho, "estimate")
        if problem is not None:
            raise StateError(start + problem[0]) from ValueError(problem[1])
        blocks.append(fits._replace(rho=rho))
    return StateEstimates(*(np.concatenate(field) for field in zip(*blocks)))
