"""Independent references, generated inputs and helpers, used only by tests.

``max_abs`` is the largest entry magnitude, the norm that the tests'
tolerances are stated in.

``evolution_unitaries`` evaluates the ZYZ product U(t) factor by factor, and
``horizontal_closed_form`` is the evolved H projector worked out by hand, so
neither depends on the spectral form that the package smears with.
``uhlmann_fidelity`` is the fidelity of two states from its definition, the
reference for ``metrics.fidelities``: its closed form on mixed qubit truths
and its overlap on pure truths of either size.
``qubit_stacks`` generates the 2x2 Hermitian stacks that the closed-form
qubit spectra are checked on, and ``hermitian_stacks`` stacks of either size.
``bloch_matrix`` and ``bell_matrix`` build one input state at a time, the
reference for the vectorised sample grids.

``likelihood``, ``project_to_states`` and ``serial_descent`` are the
estimator in matrix form, one state at a time: the objective and its
gradient R as matrices, the projection onto the states (closed form for
qubits, ``eigh`` and the simplex for pairs), and the one-state FISTA loop.
They are the reference for the batched solver, which works on real
coordinates.

``gathered_objective`` and ``gathered_descent`` are the batched solver
with per-row indices: every pass fancy-indexes the unfinished rows out of
the full (B, d^2) arrays and scatters the results back, and scores trial
and extrapolated points in two objective calls.  Each row takes the same
arithmetic as in ``estimator._accelerated_descent``, which works on a
compacted working set, so they are its byte-for-byte reference.
"""

import math

import numpy as np
from hypothesis import strategies as st

from timetomo.dynamics import DynamicsParams
from timetomo.estimator import (
    _EPSILON_FLOOR,
    StateEstimates,
    _inner,
    _project_to_states,
    _smallest_eigenvalue,
)


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
    """The objective on one count row as a map rho -> (f, R), with R a matrix."""
    row = np.asarray(row, dtype=float)

    def evaluate(rho):
        model = np.maximum(mean_photons * np.einsum("kxy,yx->k", stack, rho).real, _EPSILON_FLOOR)
        weights = mean_photons * (1.0 - row * row / (model * model))
        return float(np.sum((row - model) ** 2 / model)), np.einsum("k,kxy->xy", weights, stack)

    return evaluate


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


def serial_descent(evaluate, rho, cfg, mean_photons):
    """FISTA with backtracking and adaptive restart on one density matrix.

    ``evaluate`` maps a matrix to (f, R), as ``likelihood`` does.  Returns
    (rho, converged, trial steps, overshoot restarts).
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
            trial = project_to_states(ahead - ahead_grad / lipschitz)
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


def gathered_objective(design, measured, mean_photons):
    """Objective and gradient of candidates (b, d^2), each scored against the count row ``rows`` picks.

    ``mean_photons`` holds the photon number of each count row, (B,).
    """
    measured_sq = measured * measured

    def evaluate(rho, rows):
        photons = mean_photons[rows, None]
        model = photons * np.einsum("kj,bj->bk", design, rho)
        np.maximum(model, _EPSILON_FLOOR, out=model)
        resid = measured[rows] - model
        value = np.add.reduce(resid * resid / model, axis=1)
        weights = photons * (1.0 - measured_sq[rows] / (model * model))
        return value, np.einsum("bk,kj->bj", weights, design)

    return evaluate


def gathered_descent(evaluate, rho, cfg, mean_photons):
    """The batched FISTA loop with a gather and a scatter of the unfinished rows for every decision.

    ``evaluate`` is a ``gathered_objective``.  Returns the ``StateEstimates``
    (``rho`` as coordinates) and the number of momentum restarts.
    """
    rho = rho.copy()
    batch = len(rho)
    value, grad = evaluate(rho, np.arange(batch))
    ahead, ahead_value, ahead_grad = rho.copy(), value.copy(), grad.copy()
    momentum, lipschitz = np.ones(batch), mean_photons.copy()
    steps = np.zeros(batch, dtype=int)
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
        trial = _project_to_states(ahead[live] - ahead_grad[live] / lipschitz[live, None])
        trial_value, trial_grad = evaluate(trial, live)
        move = trial - ahead[live]
        bound = ahead_value[live] + _inner(ahead_grad[live], move)
        accepted = trial_value <= bound + 0.5 * lipschitz[live] * _inner(move, move)
        lipschitz[live[~accepted]] *= 2.0
        stepping[live[accepted]] = False
        drop_momentum(live[accepted & (trial_value > value[live])])
        moved = accepted & (trial_value <= value[live])
        live, trial, trial_value, trial_grad = (a[moved] for a in (live, trial, trial_value, trial_grad))
        next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum[live] * momentum[live]))
        ahead[live] = trial + ((momentum[live] - 1.0) / next_momentum)[:, None] * (trial - rho[live])
        rho[live], value[live], grad[live], momentum[live] = trial, trial_value, trial_grad, next_momentum
        ahead_value[live], ahead_grad[live] = evaluate(ahead[live], live)
        drop_momentum(live[ahead_value[live] > value[live]])
