"""Time-continuous measurement operators and their jitter-blurred versions.

A fixed polarization projector M0, watched from the rotating frame of the
qubit evolution, becomes a time-dependent operator M(t) = U(t)^dag M0 U(t).
Sampling M(t) at six chosen instants yields an informationally complete set
equivalent to the usual six-state polarization scheme.  Finite detector
timing resolution smears M(t) with a Gaussian kernel in time; the smeared
operator is what the simulated counts are drawn from, while reconstruction
keeps using the sharp ideal operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HERMITIAN_ATOL,
    PSD_FLOOR,
    hermiticity_defect,
    require_square,
)
from .dynamics import DynamicsParams, evolution_unitaries

_SQRT2 = math.sqrt(2.0)

# Jones vectors of the six standard polarization states.
POLARIZATION_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0 / _SQRT2, 1.0 / _SQRT2], dtype=complex),
    "A": np.array([1.0 / _SQRT2, -1.0 / _SQRT2], dtype=complex),
    "R": np.array([1.0 / _SQRT2, 1j / _SQRT2], dtype=complex),
    "L": np.array([1.0 / _SQRT2, -1j / _SQRT2], dtype=complex),
}


def polarization_projector(label: str) -> np.ndarray:
    """Rank-1 projector onto one of the six polarization states H V D A R L."""
    try:
        ket = POLARIZATION_KETS[label]
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None
    return np.outer(ket, ket.conj())


def _require_psd_operator(m0, name: str = "operator") -> np.ndarray:
    m0 = require_square(m0, name)
    defect = hermiticity_defect(m0)
    if defect > HERMITIAN_ATOL:
        raise ValueError(f"{name} not Hermitian: defect {defect:.3e}")
    smallest = np.linalg.eigvalsh(0.5 * (m0 + m0.conj().T)).min()
    if smallest < PSD_FLOOR:
        raise ValueError(f"{name} not positive semidefinite: min eigenvalue {smallest:.3e}")
    return m0


@dataclass(frozen=True)
class MeasurementSchedule:
    """Strictly increasing measurement instants, in base-period units."""

    instants: tuple[float, ...]

    def __post_init__(self):
        if len(self.instants) == 0:
            raise ValueError("schedule must contain at least one instant")
        inst = tuple(float(t) for t in self.instants)
        if any(b <= a for a, b in zip(inst, inst[1:])):
            raise ValueError("schedule instants must be strictly increasing")
        object.__setattr__(self, "instants", inst)

    def __len__(self) -> int:
        return len(self.instants)


def ic_povm_schedule() -> MeasurementSchedule:
    """The six instants whose operators form an informationally complete set.

    One third of the sum of the six operators is the identity, and the six
    operators pair up into three mutually unbiased projective bases.
    """
    return MeasurementSchedule((0.0, 0.25, 0.5, 0.75, 1.25, 1.75))


@dataclass(frozen=True)
class JitterModel:
    """Gaussian timing-jitter kernel plus its quadrature discretisation.

    The kernel exp(-t^2 / 2 sigma^2) / sqrt(2 pi sigma^2) is truncated to
    ``t +- window_halfwidth`` and sampled with ``quadrature_step`` spacing
    for trapezoid integration.  Defaults (6 sigma window, sigma/20 step)
    keep the truncated mass within 1e-6 of unity and the quadrature error
    far below the tolerances used anywhere in the package.
    """

    sigma: float
    window_halfwidth: float | None = None
    quadrature_step: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if self.sigma == 0:
            return
        if self.window_halfwidth is None:
            object.__setattr__(self, "window_halfwidth", 6.0 * self.sigma)
        if self.quadrature_step is None:
            object.__setattr__(self, "quadrature_step", self.sigma / 20.0)
        if self.window_halfwidth <= 0 or self.quadrature_step <= 0:
            raise ValueError("window and step must be positive")
        mass = self.kernel_mass()
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(
                f"truncated kernel mass {mass:.8f} deviates from 1 by more than 1e-6; "
                "widen the window"
            )

    def kernel_mass(self) -> float:
        """Trapezoid integral of the truncated Gaussian kernel."""
        offsets, values = self._raw_kernel()
        return float(np.trapezoid(values, dx=(offsets[1] - offsets[0]) / self.sigma))

    def _raw_kernel(self):
        """Offsets and the kernel there, as a density in offset / sigma.

        Working in units of sigma keeps every intermediate finite for any
        normal float width; 1 / sigma overflows near the smallest ones.
        """
        n = max(1, int(round(self.window_halfwidth / self.quadrature_step)))
        offsets = np.arange(-n, n + 1) * self.quadrature_step
        return offsets, np.exp(-0.5 * (offsets / self.sigma) ** 2) / math.sqrt(2.0 * math.pi)

    def kernel_weights(self):
        """Quadrature offsets and trapezoid weights normalised to sum to 1.

        Normalising the discrete weights makes the smeared operator an exact
        convex combination of evolved operators, so trace and positivity are
        preserved to machine precision.
        """
        offsets, values = self._raw_kernel()
        weights = values.copy()
        weights[0] *= 0.5
        weights[-1] *= 0.5
        weights /= weights.sum()
        return offsets, weights


def evolved_matrices(m0, params: DynamicsParams, times) -> np.ndarray:
    """U(t)^dag M0 U(t) for an array of instants; shape (len(times), 2, 2)."""
    m0 = _require_psd_operator(m0, "seed operator")
    if m0.shape[0] != 2:
        raise ValueError("time evolution is defined for 2x2 seed operators")
    u = evolution_unitaries(params, np.asarray(times, dtype=float))
    return np.einsum("tji,jk,tkl->til", u.conj(), m0, u)


def horizontal_closed_form(t: float) -> np.ndarray:
    """Closed form of the evolved H projector under the default periods.

    Useful as an independent cross-check of ``evolved_matrices``; valid only
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


def jittered_matrices(m0, params: DynamicsParams, jitter: JitterModel, times) -> np.ndarray:
    """Gaussian-smeared operators at many instants; shape (len(times), 2, 2)."""
    times = np.asarray(times, dtype=float)
    if jitter.sigma == 0:
        return evolved_matrices(m0, params, times)
    offsets, weights = jitter.kernel_weights()
    taus = times[:, None] + offsets[None, :]
    stack = evolved_matrices(m0, params, taus.ravel())
    stack = stack.reshape(times.size, offsets.size, 2, 2)
    smeared = np.einsum("k,nkij->nij", weights, stack)
    # Convex combination of Hermitian PSD matrices; symmetrise away the
    # last few ulps so downstream validation never trips.
    return 0.5 * (smeared + np.conj(np.swapaxes(smeared, -1, -2)))


def arm_operator_stacks(params: DynamicsParams, jitter: JitterModel, times):
    """Sharp and smeared H-projector stacks of one detector arm at ``times``.

    Returns ``(ideal, smeared)``, each of shape (len(times), 2, 2).  Counts
    are drawn from the smeared stack and booked against the ideal one; a
    coincidence setting tensors two entries of the same arm stack.
    """
    proj = polarization_projector("H")
    times = np.asarray(times, dtype=float)
    return evolved_matrices(proj, params, times), jittered_matrices(proj, params, jitter, times)


def bloch_trajectory(m0, params: DynamicsParams, jitter: JitterModel, time_grid) -> np.ndarray:
    """Bloch-vector path traced by the (possibly smeared) operator.

    Returns an array with columns (t, x, y, z, purity) where the Bloch
    components are tr(M sigma_i) and purity is tr(M^2).  For a projector
    with no jitter the path stays on the unit sphere; jitter contracts it
    toward the centre.
    """
    times = np.asarray(time_grid, dtype=float)
    mats = jittered_matrices(m0, params, jitter, times)
    x = 2.0 * mats[:, 0, 1].real
    y = -2.0 * mats[:, 0, 1].imag
    z = (mats[:, 0, 0] - mats[:, 1, 1]).real
    purity = np.einsum("nij,nji->n", mats, mats).real
    return np.column_stack([times, x, y, z, purity])
