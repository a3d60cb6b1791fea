"""Independent references, generated inputs and helpers, used only by tests.

``max_abs`` is the largest entry magnitude, the norm that the tests'
tolerances are stated in.

``evolution_unitaries`` evaluates the ZYZ product U(t) factor by factor, and
``horizontal_closed_form`` is the evolved H projector worked out by hand, so
neither depends on the spectral form that the package smears with.
``all_rows_bloch_vectors`` is that spectral form evaluated over all 27 rows
[1, cos(Omega_k t), sin(Omega_k t)], the bit-for-bit reference for
``measurement.smeared_bloch_vectors``, which evaluates only the rows a
projector excites.
``trajectory_csv`` is the trajectory table written with Python's own
``%.6g``, a block of rows per %-format, the bytes reference for the numpy
formatter of ``harness.emit_trajectory``.
``uhlmann_fidelity`` is the fidelity of two states from its definition, the
reference for ``metrics.fidelities``: its closed form on mixed qubit truths
and its overlap on pure truths of either size.
``qubit_stacks`` generates the 2x2 Hermitian stacks that the closed-form
qubit spectra are checked on, and ``hermitian_stacks`` stacks of either size.
``bloch_matrix`` and ``bell_matrix`` build one input state at a time, the
reference for the vectorised sample grids.
``wootters_concurrences`` is the concurrence from the eigenvalues of
rho (sy x sy) rho* (sy x sy), the reference for ``metrics.concurrences`` on
mixed states.
``cell_count_rows`` counts one (sigma, N) cell at a time, drawing its
uniforms anew, with the expected column that ``--dump-counts`` writes; it
is the reference for ``counts.count_rows``, which counts every cell of a
chunk from one draw.

``likelihood``, ``project_to_states``, ``newton_point`` and
``serial_descent`` are the estimator in matrix form, one state at a time:
the objective, its gradient R as a matrix and its curvature weights, the
projection onto the states (closed form for qubits, ``eigh`` and the
simplex for pairs), the Newton point on the unit-trace plane (a KKT system
in the elementary Hermitian matrices, with a Lagrange multiplier for the
trace), and the one-state FISTA loop with Newton candidates.  They are the
reference for the batched solver, which works on real coordinates.

``gathered_objective`` and ``gathered_descent`` are the batched solver
with per-row indices: every pass fancy-indexes the unfinished rows out of
the full (B, d^2) arrays and scatters the results back, and scores the
Newton, trial and extrapolated points in three objective calls.  Each row
takes the same arithmetic as in ``estimator._accelerated_descent``, which
works on a compacted working set, so they are its byte-for-byte reference.
"""

import math

import numpy as np
from hypothesis import strategies as st

from timetomo.counts import _poisson_table, _uniforms
from timetomo.dynamics import DynamicsParams, rotation_harmonics
from timetomo.estimator import (
    _EPSILON_FLOOR,
    _NEWTON_PATIENCE,
    StateEstimates,
    _inner,
    _newton_points,
    _project_to_states,
    _smallest_eigenvalue,
    _traceless_outer,
)
from timetomo.measurement import polarization_projector


def max_abs(m) -> float:
    """Largest entry magnitude of ``m``, 0 for an empty array."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def evolution_unitaries(params: DynamicsParams, times) -> np.ndarray:
    """Evolution unitaries at many instants at once.

    Returns an array of shape ``times.shape + (2, 2)``.  Negative times are
    legitimate inputs.
    """
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times contains non-finite entries")
    w1, w2, w3 = params.angular_frequencies
    z1 = np.exp(-0.5j * w1 * times)
    z3 = np.exp(-0.5j * w3 * times)
    c = np.cos(0.5 * w2 * times)
    s = np.sin(0.5 * w2 * times)
    u = np.empty(times.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = z1 * c * z3
    u[..., 0, 1] = -z1 * s * np.conj(z3)
    u[..., 1, 0] = np.conj(z1) * s * z3
    u[..., 1, 1] = np.conj(z1) * c * np.conj(z3)
    return u


def all_rows_bloch_vectors(label: str, params: DynamicsParams, sigma: float, times) -> np.ndarray:
    """Smeared Bloch vectors of the ``label`` projector, shape (len(times), 3),
    from every row of the harmonic basis, those with zero coefficients too."""
    m0 = polarization_projector(label)
    n = np.array([2.0 * m0[0, 1].real, -2.0 * m0[0, 1].imag, (m0[0, 0] - m0[1, 1]).real])
    times = np.asarray(times, dtype=float).ravel()
    omegas, terms = rotation_harmonics(params)
    coefficients = np.einsum("kij,j->ki", terms, n)
    coefficients[1:] *= np.tile(np.exp(-0.5 * (sigma * omegas) ** 2), 2)[:, None]
    basis = np.empty((len(terms), times.size))
    basis[0] = 1.0
    phases = np.multiply.outer(omegas, times)
    np.cos(phases, out=basis[1 : 1 + len(omegas)])
    np.sin(phases, out=basis[1 + len(omegas) :])
    return np.einsum("kj,kt->jt", coefficients, basis).T


def trajectory_csv(table) -> bytes:
    """``trajectory.csv`` for ``table``: its header, then each row with every value as ``'%.6g' % x``."""
    width = table.shape[1]
    row = ",".join(["%.6g"] * width) + "\n"
    values = table.ravel().tolist()
    step = width * 1024
    text = ["t_over_T,x,y,z,purity\n"]
    for start in range(0, len(values), step):
        block = values[start : start + step]
        text.append((row * (len(block) // width)) % tuple(block))
    return "".join(text).encode()


def horizontal_closed_form(t: float) -> np.ndarray:
    """Closed form of the evolved H projector under the default periods.

    Useful as an independent cross-check of the sharp operators; valid only
    for ``DynamicsParams()`` defaults.
    """
    t = float(t)
    off = -0.5 * np.exp(1j * math.pi * t) * math.sin(2.0 * math.pi * t)
    return np.array(
        [
            [math.cos(math.pi * t) ** 2, off],
            [np.conj(off), math.sin(math.pi * t) ** 2],
        ]
    )


def uhlmann_fidelity(a, b) -> float:
    """(tr sqrt(sqrt(a) b sqrt(a)))^2 of two density matrices, from ``numpy.linalg.eigh`` alone."""
    values, vectors = np.linalg.eigh(a)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    inner = np.linalg.eigh(root @ b @ root)[0]
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def bloch_matrix(r: float, theta: float, phi: float) -> np.ndarray:
    """Qubit state with Bloch vector r (sin theta cos phi, sin theta sin phi, cos theta)."""
    rz = r * math.cos(theta)
    cross = r * (math.sin(theta) * math.cos(phi) - 1j * math.sin(theta) * math.sin(phi))
    return 0.5 * np.array([[1.0 + rz, cross], [np.conj(cross), 1.0 - rz]])


def bell_matrix(alpha: float) -> np.ndarray:
    """Projector onto (|00> + e^{i alpha} |11>)/sqrt(2)."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0 / math.sqrt(2.0)
    ket[3] = np.exp(1j * alpha) / math.sqrt(2.0)
    return np.outer(ket, ket.conj())


def wootters_concurrences(rho):
    """max(0, l1 - l2 - l3 - l4) of a (B, 4, 4) stack, l_i the decreasing square roots of the eigenvalues
    of rho (sy x sy) rho* (sy x sy); square roots of rounding put a pure state's C up to about 1e-8 low."""
    flip = np.kron([[0.0, -1j], [1j, 0.0]], [[0.0, -1j], [1j, 0.0]])
    product = rho @ flip @ rho.conj() @ flip
    # the product is similar to a PSD matrix, so |.| only drops rounding
    roots = np.sqrt(np.sort(np.abs(np.linalg.eigvals(product)), axis=1))
    return np.maximum(0.0, roots[:, 3] - roots[:, 2] - roots[:, 1] - roots[:, 0])


def cell_count_rows(states, sharp, smeared, mean_photons, seed, first_index=0):
    """Expected and measured counts of one (sigma, N) cell, each (B, K).

    The expected column is ``mean_photons`` times the overlaps with
    ``sharp``; the measured one is the photon number of each (state,
    setting) times its overlap with ``smeared``, the photon number drawn
    from the Philox uniform of key (``seed``, 0) and counter (first_index +
    b, k, 0, 0) by inversion of the Poisson CDF.
    """
    batch, dim = states.shape[0], states.shape[1]
    count = sharp.shape[0]
    flat = states.reshape(batch, dim * dim)
    sharp_overlaps, smeared_overlaps = (
        np.maximum(np.einsum("kx,bx->bk", np.swapaxes(stack, 1, 2).reshape(count, dim * dim), flat).real, 0.0)
        for stack in (sharp, smeared)
    )
    index = np.arange(first_index, first_index + batch, dtype=np.uint64)[:, None]
    counter = np.stack(np.broadcast_arrays(index, np.arange(count, dtype=np.uint64), np.uint64(0), np.uint64(0)))
    lowest, cdf = _poisson_table(mean_photons)
    photons = lowest + np.searchsorted(cdf, _uniforms((seed, 0), counter), side="right").astype(float)
    return mean_photons * sharp_overlaps, photons * smeared_overlaps


def _qubit_matrix(centre, radius, theta, phi, skew):
    """centre I + b . sigma with |b| = radius along (theta, phi); the upper
    off-diagonal entry is off by a factor 1 + skew, so the matrix is
    Hermitian only up to rounding when skew is nonzero."""
    x = radius * math.sin(theta) * math.cos(phi)
    y = radius * math.sin(theta) * math.sin(phi)
    z = radius * math.cos(theta)
    h = np.array([[centre + z, x - 1j * y], [x + 1j * y, centre - z]])
    h[0, 1] *= 1.0 + skew
    return h


# (centre, |b|): pure states, multiples of I, |b| of exactly 1/2 (along z
# when theta is 0), Bloch vectors inside and far outside the ball
_SPECTRA = st.one_of(
    st.just((0.5, 0.5)),
    st.tuples(
        st.floats(-3.0, 3.0),
        st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 4.0), st.floats(1.0, 1e12)),
    ),
)

qubit_stacks = st.lists(
    st.builds(
        lambda spectrum, theta, phi, skew: _qubit_matrix(*spectrum, theta, phi, skew),
        _SPECTRA,
        st.one_of(st.just(0.0), st.floats(0.0, math.pi)),
        st.floats(0.0, 2.0 * math.pi),
        st.one_of(st.just(0.0), st.floats(-4e-16, 4e-16)),
    ),
    min_size=1,
    max_size=6,
).map(np.array)


def _hermitian_matrix(dim, entries):
    """The Hermitian part of the matrix whose real and imaginary parts read ``entries``."""
    parts = np.reshape(entries, (2, dim, dim))
    h = parts[0] + 1j * parts[1]
    return 0.5 * (h + h.conj().T)


def hermitian_stacks(dim):
    """Stacks (1-6, dim, dim) of Hermitian matrices with entries up to 3 in size."""
    size = 2 * dim * dim
    matrix = st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size).map(lambda e: _hermitian_matrix(dim, e))
    return st.lists(matrix, min_size=1, max_size=6).map(np.array)


def likelihood(stack, row, mean_photons):
    """The objective on one count row as a map rho -> (f, R, c): R a matrix, c the curvature weights 2 N^2 n_k^2 / mu_k^3."""
    row = np.asarray(row, dtype=float)

    def evaluate(rho):
        model = np.maximum(mean_photons * np.einsum("kxy,yx->k", stack, rho).real, _EPSILON_FLOOR)
        weights = mean_photons * (1.0 - row * row / (model * model))
        curvature = 2.0 * mean_photons**2 * row * row / model**3
        return float(np.sum((row - model) ** 2 / model)), np.einsum("k,kxy->xy", weights, stack), curvature

    return evaluate


def _hermitian_units(dim):
    """The d^2 elementary Hermitian matrices: unit diagonal entries, then for each i < j the pair
    E_ij + E_ji and -i E_ij + i E_ji."""
    units = []
    for i in range(dim):
        for j in range(i, dim):
            for entry in (1.0, -1j) if i < j else (1.0,):
                unit = np.zeros((dim, dim), dtype=complex)
                unit[i, j], unit[j, i] = entry, np.conj(entry)
                units.append(unit)
    return np.array(units)


def newton_point(stack, rho, grad, curvature):
    """rho + D for the Hermitian D that minimises tr(R D) + sum_k c_k tr(M_k D)^2 / 2 under tr D = 0.

    D is solved in the elementary Hermitian matrices F_m, with a Lagrange
    multiplier for the trace: [[B^T diag(c) B, t], [t^T, 0]] (y, lambda) =
    (-r, 0), with B_km = tr(M_k F_m), r_m = tr(R F_m) and t_m = tr F_m.
    Returns None where that system is singular or D is not finite.
    """
    units = _hermitian_units(len(rho))
    design = np.einsum("kxy,myx->km", stack, units).real
    size = len(units)
    system = np.zeros((size + 1, size + 1))
    system[:size, :size] = np.einsum("km,k,kn->mn", design, curvature, design)
    system[:size, size] = system[size, :size] = np.einsum("mxx->m", units).real
    target = np.append(-np.einsum("xy,myx->m", grad, units).real, 0.0)
    try:
        solution = np.linalg.solve(system, target)
    except np.linalg.LinAlgError:
        return None
    step = np.einsum("m,mxy->xy", solution[:size], units)
    return rho + step if np.isfinite(step).all() else None


def project_to_states(h: np.ndarray) -> np.ndarray:
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


def serial_descent(stack, row, rho, cfg, mean_photons):
    """FISTA with backtracking, adaptive restart and Newton candidates on one density matrix.

    Scores rho against count ``row`` through ``likelihood``.  Each pass
    takes one trial step, and, while the fit is within its patience, scores
    the projected ``newton_point`` of the incumbent as well; the candidate
    replaces the incumbent, with no momentum, where it scores strictly
    lower after the FISTA update.  A fit whose candidate lost and whose
    incumbent has not moved since counts the next pass as a loss without
    building the same candidate again.  FISTA restarts its momentum where an
    accepted trial is worse than the incumbent (an overshoot), or where the
    extrapolated point is worse than the trial or takes a model count below
    the floor on a setting counted above it.  Returns (rho, converged, trial
    steps, overshoot restarts).
    """
    evaluate = likelihood(stack, row, mean_photons)
    counted = np.asarray(row) > _EPSILON_FLOOR
    floor_line = _EPSILON_FLOOR / mean_photons
    value, grad, curvature = evaluate(rho)
    ahead, ahead_value, ahead_grad = rho, value, grad
    momentum, lipschitz, steps, restarts, losses = 1.0, mean_photons, 0, 0, 0
    backtracking, settled = False, False
    while True:
        if not backtracking:
            if np.vdot(grad, rho).real - np.linalg.eigvalsh(grad)[0] <= cfg.convergence_tol:
                return rho, True, steps, restarts
            lipschitz *= 0.9
        if steps >= cfg.max_iterations:
            return rho, False, steps, restarts
        steps += 1
        candidate, eligible, moved = None, losses < _NEWTON_PATIENCE, False
        if eligible:
            if not settled:
                candidate = newton_point(stack, rho, grad, curvature)
            losses += 1
        trial = project_to_states(ahead - ahead_grad / lipschitz)
        trial_value, trial_grad, trial_curvature = evaluate(trial)
        move = trial - ahead
        bound = ahead_value + np.vdot(ahead_grad, move).real
        backtracking = trial_value > bound + 0.5 * lipschitz * np.vdot(move, move).real
        if backtracking:
            lipschitz *= 2.0
        elif trial_value > value:
            ahead, ahead_value, ahead_grad, momentum = rho, value, grad, 1.0
            restarts += 1
        else:
            next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            ahead = trial + ((momentum - 1.0) / next_momentum) * (trial - rho)
            rho, value, grad, curvature, momentum = trial, trial_value, trial_grad, trial_curvature, next_momentum
            moved = True
            ahead_value, ahead_grad, _ = evaluate(ahead)
            floored = (np.einsum("kxy,yx->k", stack, ahead).real < floor_line) & counted
            if ahead_value > value or floored.any():
                ahead, ahead_value, ahead_grad, momentum = rho, value, grad, 1.0
        settled = eligible and not moved
        if candidate is not None:
            candidate = project_to_states(candidate)
            candidate_value, candidate_grad, candidate_curvature = evaluate(candidate)
            if candidate_value < value:
                rho = ahead = candidate
                value = ahead_value = candidate_value
                grad = ahead_grad = candidate_grad
                curvature, momentum, backtracking = candidate_curvature, 1.0, False
                losses, settled = 0, False


def gathered_objective(design, measured, mean_photons):
    """Objective, gradient and curvature weights of candidates (b, d^2), each scored against the count row ``rows`` picks.

    ``mean_photons`` holds the photon number of each count row, (B,).
    """
    measured_sq = measured * measured

    def evaluate(rho, rows):
        photons = mean_photons[rows, None]
        model = photons * np.einsum("kj,bj->bk", design, rho)
        np.maximum(model, _EPSILON_FLOOR, out=model)
        resid = measured[rows] - model
        value = np.add.reduce(resid * resid / model, axis=1)
        ratio = measured_sq[rows] / (model * model)
        curvature = ratio / model * (2.0 * photons * photons)
        return value, np.einsum("bk,kj->bj", photons * (1.0 - ratio), design), curvature

    return evaluate


def gathered_descent(design, measured, rho, cfg, mean_photons):
    """The batched loop with a gather and a scatter of the unfinished rows for every decision.

    Scores rows through a ``gathered_objective``, in three calls a pass (the
    trial, the extrapolated and the Newton points), and builds the Newton
    points with the solver's own ``_newton_points`` for every row within its
    patience, also where the solver skips a candidate sure to lose.  Returns
    the ``StateEstimates`` (``rho`` as coordinates) and the number of
    momentum restarts that FISTA took.
    """
    evaluate = gathered_objective(design, measured, mean_photons)
    outer = _traceless_outer(design)
    rho = rho.copy()
    batch = len(rho)
    value, grad, curvature = evaluate(rho, np.arange(batch))
    ahead, ahead_value, ahead_grad = rho.copy(), value.copy(), grad.copy()
    momentum, lipschitz = np.ones(batch), mean_photons.copy()
    steps, losses = np.zeros(batch, dtype=int), np.zeros(batch, dtype=int)
    converged, stepping, finished = (np.zeros(batch, dtype=bool) for _ in range(3))
    restarts = 0

    def drop_momentum(rows):
        nonlocal restarts
        restarts += rows.size
        if rows.size:
            ahead[rows], ahead_value[rows], ahead_grad[rows] = rho[rows], value[rows], grad[rows]
            momentum[rows] = 1.0

    while True:
        head = np.flatnonzero(~stepping & ~finished)
        least = _smallest_eigenvalue(grad[head], np.ones(head.size, dtype=bool))
        done = _inner(grad[head], rho[head]) - least <= cfg.convergence_tol
        converged[head[done]] = finished[head[done]] = True
        head = head[~done]
        lipschitz[head] *= 0.9
        stepping[head] = True
        spent = stepping & (steps >= cfg.max_iterations)
        finished |= spent
        stepping &= ~spent
        live = np.flatnonzero(stepping)
        if not live.size:
            return StateEstimates(rho, value, converged, steps), restarts
        steps[live] += 1
        proposing = live[losses[live] < _NEWTON_PATIENCE]
        losses[proposing] += 1
        points = _newton_points(rho[proposing], grad[proposing], curvature[proposing], outer)
        finite = np.isfinite(points).all(axis=1)
        proposing, candidate = proposing[finite], _project_to_states(points[finite])
        candidate_value, candidate_grad, candidate_curvature = evaluate(candidate, proposing)
        trial = _project_to_states(ahead[live] - ahead_grad[live] / lipschitz[live, None])
        trial_value, trial_grad, trial_curvature = evaluate(trial, live)
        move = trial - ahead[live]
        bound = ahead_value[live] + _inner(ahead_grad[live], move)
        accepted = trial_value <= bound + 0.5 * lipschitz[live] * _inner(move, move)
        lipschitz[live[~accepted]] *= 2.0
        stepping[live[accepted]] = False
        drop_momentum(live[accepted & (trial_value > value[live])])
        moved = accepted & (trial_value <= value[live])
        live, trial, trial_value, trial_grad, trial_curvature = (
            a[moved] for a in (live, trial, trial_value, trial_grad, trial_curvature)
        )
        next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum[live] * momentum[live]))
        ahead[live] = trial + ((momentum[live] - 1.0) / next_momentum)[:, None] * (trial - rho[live])
        rho[live], value[live], grad[live], momentum[live] = trial, trial_value, trial_grad, next_momentum
        curvature[live] = trial_curvature
        ahead_value[live], ahead_grad[live], _ = evaluate(ahead[live], live)
        overlaps = np.einsum("kj,bj->bk", design, ahead[live])
        counted = measured[live] > _EPSILON_FLOOR
        floored = ((overlaps < _EPSILON_FLOOR / mean_photons[live, None]) & counted).any(axis=1)
        drop_momentum(live[(ahead_value[live] > value[live]) | floored])
        wins = candidate_value < value[proposing]
        taken = proposing[wins]
        losses[taken] = 0
        rho[taken], ahead[taken] = candidate[wins], candidate[wins]
        value[taken], ahead_value[taken] = candidate_value[wins], candidate_value[wins]
        grad[taken], ahead_grad[taken] = candidate_grad[wins], candidate_grad[wins]
        curvature[taken], momentum[taken], stepping[taken] = candidate_curvature[wins], 1.0, False
