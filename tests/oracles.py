"""Independent references and generated inputs, used only by tests.

``evolution_unitaries`` evaluates the ZYZ product U(t) factor by factor, and
``horizontal_closed_form`` is the evolved H projector worked out by hand, so
neither depends on the spectral form that the package smears with.
``uhlmann_fidelity`` is the fidelity of two states from its definition, the
reference for the closed form that ``metrics.fidelities`` uses on qubits.
``qubit_stacks`` generates the 2x2 Hermitian stacks that the closed-form
qubit spectra are checked on.  ``bloch_matrix`` and ``bell_matrix`` build one
input state at a time, the reference for the vectorised sample grids.
"""

import math

import numpy as np
from hypothesis import strategies as st

from timetomo.core import require_finite
from timetomo.dynamics import DynamicsParams


def evolution_unitaries(params: DynamicsParams, times) -> np.ndarray:
    """Evolution unitaries at many instants at once.

    Returns an array of shape ``times.shape + (2, 2)``.  Negative times are
    legitimate inputs.
    """
    times = np.asarray(times, dtype=float)
    require_finite(times, "times")
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
