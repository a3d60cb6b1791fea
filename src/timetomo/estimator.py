"""Maximum-likelihood state reconstruction from count records.

The candidate state is parametrised through the Cholesky-style vector so
the search space contains exactly the physical density matrices.  The
objective is the Gaussian-approximated likelihood of James, Kwiat, Munro &
White, PRA 64, 052312 (2001),

    sum_k (n_meas_k - n_model_k)^2 / n_model_k

with each model count floored at ``epsilon_floor``.  It is homogeneous of
degree one in (n_meas, n_model), so for noiseless counts the minimiser does
not depend on the photon number.  The model counts come from the sharp
ideal operators: the fitter is deliberately blind to detector jitter, which
is the effect under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import DensityMatrix
from .counts import CountRecord
from .dynamics import DynamicsParams
from .measurement import evolved_matrices, polarization_projector
from .states import _W_LAYOUT, cholesky_to_density

OPTIMIZERS = ("simplex", "gradient")


@dataclass(frozen=True)
class EstimatorConfig:
    """Optimiser choice and stopping rules for the likelihood search."""

    optimizer: str = "simplex"
    max_iterations: int = 20000
    convergence_tol: float = 1e-9
    restarts: int = 5
    epsilon_floor: float = 1e-9

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not (self.convergence_tol > 0 and self.epsilon_floor > 0):
            raise ValueError("convergence_tol and epsilon_floor must be positive")


@dataclass(frozen=True)
class EstimateResult:
    rho_out: DensityMatrix
    w_opt: np.ndarray
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
        return np.stack(
            [np.kron(singles[index[r.times[0]]], singles[index[r.times[1]]]) for r in records]
        )
    raise ValueError("records mix single-qubit and pair settings")


def _qubit_objective(model_stack, measured, mean_photons, epsilon_floor):
    """Scalar-arithmetic likelihood for the 2x2 case.

    With W = [[w1, 0], [w3 + i w4, w2]] the Gram matrix has entries
    g00 = w1^2 + w3^2 + w4^2, g11 = w2^2, g01 = (w3 - i w4) w2, and
    tr(W^dag W) = sum of squared parameters, so each model count needs a
    handful of real multiplications.  Optimiser loops spend most of their
    time here, which makes avoiding numpy dispatch overhead worthwhile.
    """
    table = [
        (
            float(m[0, 0].real),
            float(m[1, 1].real),
            2.0 * float(m[0, 1].real),
            2.0 * float(m[0, 1].imag),
            float(n_m),
        )
        for m, n_m in zip(model_stack, measured)
    ]

    def objective(w) -> float:
        w1 = float(w[0])
        w2 = float(w[1])
        w3 = float(w[2])
        w4 = float(w[3])
        if not (math.isfinite(w1) and math.isfinite(w2) and math.isfinite(w3) and math.isfinite(w4)):
            return math.inf
        g11 = w2 * w2
        g00 = w1 * w1 + w3 * w3 + w4 * w4
        tau = g00 + g11
        if not tau > 0:
            return math.inf
        scale = mean_photons / tau
        cross_re = w2 * w3
        cross_im = w2 * w4
        total = 0.0
        for m00, m11, a2, b2, n_m in table:
            n_e = scale * (m00 * g00 + m11 * g11 + a2 * cross_re - b2 * cross_im)
            if n_e < epsilon_floor:
                n_e = epsilon_floor
            diff = n_m - n_e
            total += diff * diff / n_e
        return total

    return objective


def _pair_objective(model_stack, measured, mean_photons, epsilon_floor):
    """Vectorised likelihood for the 4x4 case.

    Uses tr(M G) = vec(M^T) . vec(G) so the per-call work is one small
    matrix product and one matrix-vector product.
    """
    dim = model_stack.shape[1]
    flat_transposed = np.ascontiguousarray(
        np.swapaxes(model_stack, 1, 2).reshape(model_stack.shape[0], dim * dim)
    )
    layout = _W_LAYOUT[dim * dim]
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    basis[layout["re"], layout["rows"], layout["cols"]] += 1.0
    basis[layout["im"], layout["rows"], layout["cols"]] += 1j * layout["mask"]

    def objective(w) -> float:
        if not np.all(np.isfinite(w)):
            return np.inf
        tau = float(w @ w)  # equals tr(W^dag W)
        if not tau > 0:
            return np.inf
        factor = np.tensordot(w, basis, axes=1)
        gram = factor.conj().T @ factor
        model = (mean_photons / tau) * (flat_transposed @ gram.reshape(-1)).real
        np.maximum(model, epsilon_floor, out=model)
        resid = measured - model
        return float(np.sum(resid * resid / model))

    return objective


def _objective_from_stack(model_stack, measured, mean_photons, epsilon_floor):
    """Objective callable over parameter vectors for one record set."""
    if model_stack.shape[1] == 2:
        return _qubit_objective(model_stack, measured, mean_photons, epsilon_floor)
    return _pair_objective(model_stack, measured, mean_photons, epsilon_floor)


_TRUNCATION_CUTS = (3e-2, 1e-2, 3e-3, 1e-3, 1e-4)


def _rank_truncated_candidates(x, dim):
    """Parameter vectors for rank-truncated copies of the incumbent state.

    Rank-deficient targets need some model counts to reach zero, which puts
    the optimum on the boundary of the parameter space, and the simplex
    walks toward it one contraction at a time.  Zeroing small eigenvalues
    and refactoring jumps straight to the boundary.  Candidates are offered,
    not imposed: the caller keeps one only if it lowers the objective, so
    full-rank optima are unaffected.
    """
    rho = cholesky_to_density(x).matrix
    vals, vecs = np.linalg.eigh(rho)
    layout = _W_LAYOUT[dim * dim]
    flip = np.eye(dim)[::-1]
    seen_ranks = set()
    for cut in _TRUNCATION_CUTS:
        keep = np.where(vals >= cut, vals, 0.0)
        rank = int(np.count_nonzero(keep))
        if rank == 0 or rank == dim or rank in seen_ranks:
            continue
        seen_ranks.add(rank)
        truncated = (vecs * keep) @ vecs.conj().T
        truncated /= np.trace(truncated).real
        # tiny identity mix keeps the triangular factorization well posed
        truncated = (1.0 - 1e-12) * truncated + (1e-12 / dim) * np.eye(dim)
        try:
            chol = np.linalg.cholesky(flip @ truncated @ flip)
        except np.linalg.LinAlgError:
            continue
        # flipping the Cholesky factor of the index-reversed matrix gives
        # the lower-triangular factor in the W^dag W convention
        factor = flip @ chol.conj().T @ flip
        w = np.zeros(dim * dim)
        entries = factor[layout["rows"], layout["cols"]]
        w[layout["re"]] = entries.real
        has_imag = layout["mask"] > 0
        w[layout["im"][has_imag]] = entries.imag[has_imag]
        yield w


def _simplex_explore(objective, x0, cfg: EstimatorConfig):
    """Cheap simplex run that only needs to land in the right basin.

    Iterations are capped well below the configured budget; the winning
    restart gets refined by the polish stage afterwards, so exploration
    precision only has to suffice for ranking the restarts.
    """
    options = dict(
        maxiter=min(cfg.max_iterations, 120 * x0.size),
        fatol=max(cfg.convergence_tol, 1e-3),
        xatol=1e-3,
        adaptive=x0.size >= 8,
    )
    res = minimize(objective, x0, method="Nelder-Mead", options=options)
    return res.x, float(res.fun), bool(res.success), int(res.nit)


def _simplex_polish(objective, x0, cfg: EstimatorConfig):
    """Full-precision simplex run from the incumbent point."""
    options = dict(
        maxiter=cfg.max_iterations,
        fatol=cfg.convergence_tol,
        xatol=1e-6,
        adaptive=x0.size >= 8,
    )
    res = minimize(objective, x0, method="Nelder-Mead", options=options)
    return res.x, float(res.fun), bool(res.success), int(res.nit)


def _minimize_gradient(objective, x0, cfg: EstimatorConfig):
    options = dict(maxiter=cfg.max_iterations, ftol=cfg.convergence_tol)
    res = minimize(objective, x0, method="L-BFGS-B", options=options)
    return res.x, float(res.fun), bool(res.success), int(res.nit)


def estimate_state(
    records: list[CountRecord],
    dim: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    *,
    mean_photons: float,
    dynamics: DynamicsParams | None = None,
) -> EstimateResult:
    """Reconstruct the state that best explains the measured counts.

    The first start is the maximally mixed state (identity diagonal);
    remaining restarts perturb it with Gaussian noise from ``rng``.
    Exploration restarts run with a loosened function tolerance; the
    incumbent is then offered rank-truncated variants of itself (which
    shortcut the slow descent toward boundary states) and polished down
    to ``cfg.convergence_tol``.  The lowest objective wins, ties going
    to the earlier restart.
    """
    if dim not in (2, 4):
        raise ValueError(f"dim must be 2 or 4, got {dim}")
    if mean_photons <= 0:
        raise ValueError("mean_photons must be positive")
    stack = model_operator_stack(records, dynamics)
    if stack.shape[1] != dim:
        raise ValueError(f"records are {stack.shape[1]}-dimensional, expected {dim}")
    measured = np.array([r.measured for r in records], dtype=float)
    objective = _objective_from_stack(stack, measured, float(mean_photons), cfg.epsilon_floor)

    n_params = dim * dim
    base = np.zeros(n_params)
    base[:dim] = 1.0

    best = None
    for k in range(cfg.restarts):
        x0 = base if k == 0 else base + rng.normal(0.0, 0.5, n_params)
        if cfg.optimizer == "gradient":
            candidate = _minimize_gradient(objective, x0, cfg)
        else:
            candidate = _simplex_explore(objective, x0, cfg)
        if best is None or candidate[1] < best[1]:
            best = candidate

    x, fun, success, iterations = best
    if cfg.optimizer == "simplex":
        for cand in _rank_truncated_candidates(x, dim):
            f_cand = objective(cand)
            if f_cand < fun:
                x, fun = cand, f_cand
        x, fun, success, polish_iters = _simplex_polish(objective, x, cfg)
        iterations += polish_iters

    return EstimateResult(
        rho_out=cholesky_to_density(x),
        w_opt=np.asarray(x, dtype=float),
        objective=fun,
        converged=success,
        iterations=iterations,
    )
