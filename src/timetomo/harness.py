"""What every run needs: the run config fields, config loading, the Bloch
trajectory table and the run manifest.

``load_config`` reads a JSON config into a ``TrajectoryConfig`` or, for a
sweep mode, an ``ExperimentConfig`` from ``sweep``.  Only a sweep config
imports ``sweep`` and the count, estimator, metric and state-sample modules
behind it, so a trajectory call loads and compiles none of them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import platform
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import MAX_SEED, require_integer, require_real
from .dynamics import DynamicsParams
from .measurement import POLARIZATION_KETS, bloch_trajectory

TRAJECTORY_OPERATORS = tuple(POLARIZATION_KETS)

TRAJECTORY_HEADER = "t_over_T,x,y,z,purity"

# Rows of the trajectory table computed, formatted and written at once.  A
# block bounds the formatter's temporaries (24 bytes of text and a few float
# and integer arrays per value) to what stays in cache, and the memory held at
# once for a table of any length: a whole 6,000-point table in one pass raised
# the peak resident set of a trajectory call from 30.7 to 34.3 MB, and
# computing a 1e6-point D table in one pass raised it from 42 to 171 MB.
_TRAJECTORY_BLOCK_ROWS = 1024

# ``_g6_bytes`` lays each value out in 24 byte slots, held as three
# little-endian words so that every numpy operation runs along the values:
#   word 0: sign, "0", ".", three leading zeros, digit 1, point
#   word 1: digit 2, point, digit 3, point, digit 4, point, digit 5, point
#   word 2: digit 6, "e", exponent sign, three exponent digits, separator, unused
# A slot the value does not use holds 0, and the zero bytes are dropped.
_WORD = np.dtype("<u8")


def _reals(values, key: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats; a scalar, a string or a non-number entry raises, naming ``key``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(require_real(v, f"{key} entry") for v in values)


@dataclass(frozen=True, kw_only=True)
class _RunConfig:
    """What every run records: its seed, its output directory and the rotation periods."""

    seed: int = 0
    out_dir: str = "results"
    periods: tuple[float, float, float] = dataclasses.astuple(DynamicsParams())

    def __post_init__(self):
        # the counts' Philox key takes a seed in 0..MAX_SEED
        seed = require_integer(self.seed, "seed")
        if not (0 <= seed <= MAX_SEED):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        periods = _reals(self.periods, "periods")
        if len(periods) != 3:
            raise ValueError(f"periods must list three rotation periods, got {len(periods)}: {periods}")
        DynamicsParams(*periods)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "periods", periods)

    @property
    def dynamics(self) -> DynamicsParams:
        return DynamicsParams(*self.periods)


@dataclass(frozen=True)
class TrajectoryConfig(_RunConfig):
    """Bloch-trajectory emission: which projector, jitter width, time grid, and the run fields."""

    operator: str = "H"
    sigma_over_T: float = 0.0
    points: int = 500
    t_max_over_T: float = 2.0
    mode: str = "trajectory"

    def __post_init__(self):
        if self.mode != "trajectory":
            raise ValueError(f"mode must be 'trajectory', got {self.mode!r}")
        if self.operator not in TRAJECTORY_OPERATORS:
            raise ValueError(f"operator must be one of {TRAJECTORY_OPERATORS}")
        sigma = require_real(self.sigma_over_T, "sigma_over_T")
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError("sigma_over_T must be nonnegative")
        points = require_integer(self.points, "points")
        if points < 2:
            raise ValueError("points must be at least 2")
        t_max = require_real(self.t_max_over_T, "t_max_over_T")
        if not (math.isfinite(t_max) and t_max > 0):
            raise ValueError("t_max_over_T must be positive")
        object.__setattr__(self, "sigma_over_T", sigma)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "t_max_over_T", t_max)
        super().__post_init__()


def _checked(raw, cls, where: str, names=None) -> dict:
    """``raw`` if it is a dict that sets the fields of dataclass ``cls`` (only those in ``names``, if given)."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    fields = [f for f in dataclasses.fields(cls) if names is None or f.name in names]
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    for f in fields:
        if f.name not in raw and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{where} is missing the required {f.name!r} key")
    return raw


def load_config(source, *, seed=None, out_dir=None):
    """Parse a JSON config into a TrajectoryConfig or a ``sweep.ExperimentConfig``.

    ``source`` is a path or an already-parsed dict.  Its keys, and those of
    its ``estimator`` and ``sample`` objects, are the fields of the config
    dataclasses, a sample taking only its mode's ``sample_keys``; an unknown
    key or a missing required one raises.  ``seed`` / ``out_dir`` override
    the config.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ValueError("config document must be a JSON object")
    mode = raw.get("mode")
    if mode is None:
        raise ValueError("config is missing the required 'mode' key")
    if not isinstance(mode, str):
        raise ValueError(f"mode must be a string, got {mode!r}")
    if mode == "trajectory":
        build = TrajectoryConfig
        fields = _checked(raw, build, "config")
    else:
        # imported only for a sweep config, so that a trajectory call loads none of the sweep's modules
        from .estimator import EstimatorConfig
        from .sweep import MODES, ExperimentConfig, SampleSizes

        if mode not in MODES:
            raise ValueError(f"mode must be 'trajectory' or one of {tuple(MODES)}, got {mode!r}")
        build = ExperimentConfig
        fields = _checked(raw, build, "config")
        if "estimator" in fields:
            fields["estimator"] = EstimatorConfig(**_checked(fields["estimator"], EstimatorConfig, "estimator"))
        if "sample" in fields:
            sizes = _checked(fields["sample"], SampleSizes, f"sample ({mode})", MODES[mode].sample_keys)
            fields["sample"] = dataclasses.replace(MODES[mode].desk, **sizes)
    # overrides go in before the one construction, which checks them with the rest
    if seed is not None:
        fields["seed"] = seed
    if out_dir is not None:
        fields["out_dir"] = str(out_dir)
    return build(**fields)


def emit_trajectory(cfg: TrajectoryConfig) -> Path:
    """Write the Bloch-trajectory CSV into ``cfg.out_dir`` and return its path.

    A trajectory draws no random numbers: ``cfg.seed`` is only recorded in
    the run manifest.
    """
    directory = Path(cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, cfg.t_max_over_T, cfg.points)
    path = directory / "trajectory.csv"
    with path.open("wb") as fh:
        fh.write(TRAJECTORY_HEADER.encode() + b"\n")
        # A block's text is written only once the next block is formatted.
        # Held live across that block, it keeps the top of the heap in use,
        # so that freeing a block's temporaries leaves no free top chunk over
        # glibc's trim threshold: trimmed, those pages were faulted in again
        # by every block.
        pending = b""
        for start in range(0, len(grid), _TRAJECTORY_BLOCK_ROWS):
            block = grid[start : start + _TRAJECTORY_BLOCK_ROWS]
            text = _g6_bytes(bloch_trajectory(cfg.operator, cfg.dynamics, cfg.sigma_over_T, block))
            fh.write(pending)
            pending = text
        fh.write(pending)
    return path


@functools.cache
def _g6_tables():
    """Lookup tables of ``_g6_bytes``, built on its first call and read-only.

    ``powers[k + 300]`` is 10^k to within an ulp.  The digit masks hold
    the three ASCII digits of an index 0..999 in their slots and all ones
    in every other byte, so that and-ing them into a layout writes the
    digits into the slots the layout opened.  A layout, indexed by
    ``code = (kind * 6 + significant - 1) * 2 + negative``, holds the fixed
    characters and opens the slots of the digits written, where
    ``significant`` counts the six digits less their trailing zeros; kind 0
    is scientific notation with a negative exponent, kinds 1..10 are fixed
    notation with exponent -4..5, and kind 11 is scientific notation with an
    exponent of 6 or more.
    """
    exponents = np.arange(-300, 301)
    powers = 10.0**exponents
    index = np.arange(1000)
    digits = index[:, None] // [100, 10, 1] % 10 + ord("0")

    def digit_masks(slots):
        masks = np.full((1000, 24), 0xFF, dtype=np.uint8)
        masks[:, slots] = digits
        return np.ascontiguousarray(masks.view(_WORD).T)

    exponent_masks = digit_masks([19, 20, 21])[2]
    # exponents below 100 take two digits
    exponent_masks[:100] &= ~np.uint64(0xFF << 24)
    trailing_zeros = np.where(index % 10, 0, np.where(index % 100, 1, np.where(index, 2, 3)))
    code = np.arange(144)
    negative, significant, exponent = code % 2, code // 2 % 6 + 1, code // 12 - 5
    scientific = (exponent < -4) | (exponent > 5)
    below_one = (exponent < 0) & ~scientific
    # fixed notation from 1 up writes every digit before the point
    written = np.where(scientific | below_one, significant, np.maximum(significant, exponent + 1))
    point = np.where(scientific, 1, exponent + 1)
    record = np.zeros((144, 24), dtype=np.uint8)
    record[:, 0] = negative * ord("-")
    record[:, 1] = below_one * ord("0")
    record[:, 2] = below_one * ord(".")
    for j in range(3):
        record[:, 3 + j] = (below_one & (j < -1 - exponent)) * ord("0")
    for i in range(1, 7):
        record[:, 4 + 2 * i] = (i <= written) * 0xFF
    for i in range(1, 6):
        record[:, 5 + 2 * i] = ((i == point) & (i < significant)) * ord(".")
    record[:, 17] = scientific * ord("e")
    record[:, 18] = scientific * np.where(exponent < 0, ord("-"), ord("+"))
    record[:, 19:22] = scientific[:, None] * 0xFF
    tables = (
        powers,
        np.ascontiguousarray(record.view(_WORD).T),
        12 * (np.clip(exponents, -5, 6) + 5),  # code of each exponent's kind, at exponent + 300
        2 * (5 - trailing_zeros),  # code of the significant digits, by the last three when not 000
        2 * (2 - trailing_zeros),  # ... by the first three when the last three are 000
        digit_masks([6, 8, 10])[:2],
        digit_masks([12, 14, 16])[1:],
        exponent_masks,
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _g6_bytes(block: np.ndarray) -> bytes:
    """The rows of the 2-D float ``block`` as CSV lines, each value the bytes of ``f"{x:.6g}"``.

    The decimal exponent e comes from ``log10``, corrected once where the
    scaled value falls outside [1e5, 1e6); ``rint`` of x scaled by 10^(5 - e)
    gives the six significant digits.  The scaled value is within 1e-9 of
    the exact one, so ``rint`` rounds as Python's correctly rounded
    formatting does wherever the scaled value is more than 1e-6 from a
    half-integer.  Values that close to a rounding tie, zeros, non-finite
    values and |x| outside [1e-280, 1e280] are formatted by Python instead.
    """
    powers, layouts, kinds, significant_low, significant_high, high_masks, low_masks, exponent_masks = _g6_tables()
    rows, width = block.shape
    x = block.ravel()
    a = np.abs(x)
    plain = (a >= 1e-280) & (a <= 1e280)
    a[~plain] = 1.0
    # 10^(5 - e) is powers[305 - e]; next to a power of ten, log10 can round
    # across an integer
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * powers.take(305 - e)
    e += scaled >= 1e6
    e -= scaled < 1e5
    scaled = a * powers.take(305 - e)
    mantissa = np.rint(scaled)
    plain &= np.abs(scaled - mantissa) < 0.5 - 1e-6
    # 999999.5 and up round to 1e6: one digit more in the exponent
    carry = mantissa == 1e6
    e += carry
    mantissa[carry] = 1e5
    high, low = np.divmod(mantissa.astype(np.intp), 1000)
    significant = np.where(low, significant_low.take(low), significant_high.take(high))
    code = kinds.take(e + 300) + significant + (x < 0)
    words = layouts.take(code, axis=1)
    words[:2] &= high_masks.take(high, axis=1)
    words[1:] &= low_masks.take(low, axis=1)
    words[2] &= exponent_masks.take(np.abs(e))
    for j in np.flatnonzero(~plain):
        # Python's own formatting, in the first slots
        words[:, j] = np.frombuffer((b"%.6g" % float(x[j])).ljust(24, b"\0"), dtype=_WORD)
    separators = np.full(width, ord(",") << 48, dtype=_WORD)
    separators[-1] = ord("\n") << 48
    last = words[2].reshape(rows, width)
    last |= separators
    return words.T.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# the run manifest


def _config_document(cfg) -> dict:
    """``cfg`` as the JSON object that ``load_config`` reads back as ``cfg``, less the unused sample sizes."""
    return dataclasses.asdict(
        cfg, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items if v is not None}
    )


def run_manifest(command: str, cfg) -> dict:
    """Reproducibility record: the resolved config plus tool versions."""
    return {
        "command": command,
        "config": _config_document(cfg),
        "versions": {
            "timetomo": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
