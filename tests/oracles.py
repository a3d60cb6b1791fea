"""Independent references for the evolved operators, used only by tests.

``evolution_unitaries`` evaluates the ZYZ product U(t) factor by factor, and
``horizontal_closed_form`` is the evolved H projector worked out by hand, so
neither depends on the spectral form that the package smears with.
"""

import math

import numpy as np

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
