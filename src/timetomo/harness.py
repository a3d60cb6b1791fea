"""Sweep orchestration: configs, the sweep batch, CSV and manifest output.

A sweep walks the (jitter width, photon number) grid over a fixed state
sample.  Every cell fits against the same sharp operators, so the whole
grid runs as one batch: the counts of every cell are drawn in one call,
all cells' count rows are fitted in one estimator call with a photon number
per row, and then each cell's metrics are aggregated into CSV rows.  All modes
share one sweep loop, ``run_sweep``; the ``MODES`` table holds what differs
between them.  The only randomness is the photon number of each count, a
Philox draw keyed by (run seed, state index, setting index), and every stage
treats each state on its own, so results are byte-identical for a given
config and seed no matter how the work is split between processes.  A sweep
is split only when it is large enough for a process pool to pay for itself.
Cells that differ only in jitter width see the same photon numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import platform
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .core import StateError, require_integer, require_real
from .counts import MAX_MEAN_PHOTONS, MAX_SEED, count_rows, overlaps
from .dynamics import DynamicsParams
from .estimator import EstimatorConfig, StateEstimates, estimate_states
from .measurement import IC_POVM_INSTANTS, POLARIZATION_KETS, bloch_trajectory, setting_operators, sharp_operators
from .metrics import MetricsSummary, aggregate, chsh_guarantee, concurrences, fidelities, trace_distances
from .states import orthogonal_pairs, sample_bell_states, sample_mixed_qubits, sample_pure_qubits

TRAJECTORY_OPERATORS = tuple(POLARIZATION_KETS)

CSV_HEADER = "sigma_over_T,n_photons,metric,mean,sd,stderr,n_states"
COUNTS_HEADER = "state_id,t_i_over_T,t_j_over_T,expected,measured"
TRAJECTORY_HEADER = "t_over_T,x,y,z,purity"

# Fraction of non-converged estimates above which a cell gets flagged.
CONVERGENCE_WARN_FRACTION = 0.1

# A sweep is split across processes only into chunks that each hold at least
# this much work, counted as fits x sharp-operator entries (24 for a qubit fit,
# 576 for a pair; the two kinds of fit differ in cost by about that ratio).
# On a 2-core host one process beat two up to 86k entries in all, and two
# won from 98k on, for qubit and pair sweeps alike (BENCH_split-floor.json).
_MIN_WORK_PER_WORKER = 45_000

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

# Singular values of the six sharp operators (entries at most 1) below this
# count as zero; a true rank loss leaves about 1e-15.
_COMPLETENESS_TOL = 1e-10


def _reals(values, key: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats; a scalar, a string or a non-number entry raises, naming ``key``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(require_real(v, f"{key} entry") for v in values)


@dataclass(frozen=True)
class SampleSizes:
    """Grid sizes; only the fields relevant to a mode are set."""

    n_r: int | None = None
    n_theta: int | None = None
    n_phi: int | None = None
    n_states: int | None = None


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
class ExperimentConfig(_RunConfig):
    """One sweep: mode, grid axes, sample sizes, estimator, and the run fields."""

    mode: str
    sigma_list: tuple[float, ...]
    photon_list: tuple[float, ...]
    sample: SampleSizes | None = None
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        sigmas = _reals(self.sigma_list, "sigma_list")
        if not sigmas or any(not (math.isfinite(s) and s >= 0) for s in sigmas):
            raise ValueError("sigma_list must be nonempty with nonnegative finite entries")
        photons = _reals(self.photon_list, "photon_list")
        if not photons or any(not (math.isfinite(n) and n > 0) for n in photons):
            raise ValueError("photon_list must be nonempty with positive entries")
        if max(photons) > MAX_MEAN_PHOTONS:
            raise ValueError(f"photon_list entries must be at most MAX_MEAN_PHOTONS = {MAX_MEAN_PHOTONS:g}")
        for key, values in (("sigma_list", sigmas), ("photon_list", photons)):
            # a cell's rows and artifact names carry its values as _fmt prints them
            printed = [_fmt(v) for v in values]
            repeated = next((text for i, text in enumerate(printed) if text in printed[:i]), None)
            if repeated is not None:
                raise ValueError(f"{key} entry {repeated} is repeated")
        sample = self.sample if self.sample is not None else MODES[self.mode].desk
        sizes = {}
        for key in MODES[self.mode].sample_keys:
            value = getattr(sample, key)
            sizes[key] = require_integer(value, f"sample.{key}") if value is not None else 0
            if sizes[key] < 1:
                raise ValueError(f"sample.{key} must be a positive integer for mode {self.mode}")
        if self.mode == "qubit-orthogonal-pairs":
            if sizes["n_phi"] % 2:
                raise ValueError(
                    "sample.n_phi must be even for mode qubit-orthogonal-pairs so antipodes stay on the grid"
                )
            # a one-point polar grid is the north pole alone, which would be paired with itself
            if sizes["n_theta"] < 2:
                raise ValueError(
                    "sample.n_theta must be at least 2 for mode qubit-orthogonal-pairs so both poles are on the grid"
                )
        object.__setattr__(self, "sigma_list", sigmas)
        object.__setattr__(self, "photon_list", photons)
        object.__setattr__(self, "sample", SampleSizes(**sizes))
        super().__post_init__()
        # the fits invert the six sharp operators, so they must span the 2x2 Hermitian matrices
        sharp = sharp_operators(self.dynamics, IC_POVM_INSTANTS)
        rank = np.linalg.matrix_rank(sharp.reshape(-1, 4), tol=_COMPLETENESS_TOL)
        if rank < 4:
            raise ValueError(
                f"periods {self.periods} leave the six measurement operators "
                f"informationally incomplete (rank {rank} of 4)"
            )


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
        object.__setattr__(self, "points", points)
        super().__post_init__()


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    n_photons: float
    metric: str
    mean: float
    sd: float
    stderr: float
    n: int


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
    """Parse a JSON config into an ExperimentConfig or TrajectoryConfig.

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
    if mode != "trajectory" and mode not in MODES:
        raise ValueError(f"mode must be 'trajectory' or one of {tuple(MODES)}, got {mode!r}")
    build = TrajectoryConfig if mode == "trajectory" else ExperimentConfig
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


# ---------------------------------------------------------------------------
# sweep modes and the cell loop


def _fit_chunk(cfg: ExperimentConfig, cells, sharp, smeared, states: np.ndarray, offset: int):
    """Estimates of states ``offset``, ``offset + 1``, ... in every cell of a sweep.

    ``cells`` lists the (sigma, N) pairs in row-major order and ``smeared``
    stacks the smeared operators of each sigma.  The counts of all cells
    are drawn in one ``count_rows`` call, and their rows are fitted in one
    ``estimate_states`` call with a photon number per row.  Module level so
    process pools can pickle it.  Returns the ``StateEstimates`` fields,
    each shaped (cells, chunk, ...).
    """
    measured = count_rows(states, smeared, cfg.photon_list, cfg.seed, offset)
    photons = np.repeat([n_photons for _, n_photons in cells], len(states))
    try:
        fits = estimate_states(sharp, measured.reshape(len(photons), -1), photons, cfg.estimator)
    except StateError as exc:
        cell, state = divmod(exc.index, len(states))
        sigma, n_photons = cells[cell]
        raise RuntimeError(
            f"mode {cfg.mode}, sigma {sigma:g}, N {n_photons:g}, state {offset + state}: {exc.__cause__}"
        ) from exc.__cause__
    return tuple(field.reshape(len(cells), len(states), *field.shape[1:]) for field in fits)


def _fidelity_metrics(fits: StateEstimates, fidelity):
    return [aggregate(fidelity, "fidelity")]


def _orthogonality_metrics(fits: StateEstimates, fidelity):
    # the sample lists each orthogonal pair as two consecutive states
    return [aggregate(trace_distances(fits.rho[::2], fits.rho[1::2]), "trace_distance")]


def _entanglement_metrics(fits: StateEstimates, fidelity):
    conc = aggregate(concurrences(fits.rho), "concurrence")
    # one guarantee flag per cell, written as a row with sd 0
    chsh = MetricsSummary(float(chsh_guarantee(conc)), 0.0, conc.n, "chsh_guarantee")
    return [conc, *_fidelity_metrics(fits, fidelity), chsh]


@dataclass(frozen=True)
class SweepMode:
    """What one sweep mode adds to the shared cell loop.

    ``sample`` builds the mode's input states as a (B, d, d) stack, with
    the (B,) flag of the states built pure that ``fidelities`` takes, and
    ``metrics`` summarises a cell's estimates and fidelities as its CSV
    rows, in order.  A mode uses the sample fields that its desk-scale
    default sets.
    """

    command: str
    desk: SampleSizes
    sample: Callable[[SampleSizes], tuple[np.ndarray, np.ndarray]]
    metrics: Callable[[StateEstimates, np.ndarray], list[MetricsSummary]]

    @property
    def sample_keys(self) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(self.desk) if getattr(self.desk, f.name) is not None)


# The lambdas look the sample functions up when called, so a wrapper put on
# a module-level name (perfbench/probes.py times each layer that way) sees
# every call; the metric functions do the same inside.
MODES = {
    "qubit-mixed": SweepMode(
        "qubit-sweep", SampleSizes(n_r=8, n_theta=8, n_phi=8),
        lambda s: sample_mixed_qubits(s.n_r, s.n_theta, s.n_phi), _fidelity_metrics,
    ),
    "qubit-pure": SweepMode(
        "qubit-sweep", SampleSizes(n_theta=8, n_phi=8),
        lambda s: sample_pure_qubits(s.n_theta, s.n_phi), _fidelity_metrics,
    ),
    "qubit-orthogonal-pairs": SweepMode(
        "ortho-sweep", SampleSizes(n_theta=8, n_phi=8),
        lambda s: orthogonal_pairs(s.n_theta, s.n_phi), _orthogonality_metrics,
    ),
    "entangled": SweepMode(
        "entangled-sweep", SampleSizes(n_states=50),
        lambda s: sample_bell_states(s.n_states), _entanglement_metrics,
    ),
}


def _warning_row(sigma, n_photons, converged_flags) -> SweepRow | None:
    flags = np.asarray(converged_flags, dtype=bool)
    frac = 1.0 - float(flags.mean())
    if frac > CONVERGENCE_WARN_FRACTION:
        return SweepRow(sigma, n_photons, "convergence_warning", frac, 0.0, 0.0, int(flags.size))
    return None


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it: its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _state_log(objective, iterations, converged, fidelity) -> str:
    """One JSON line per state, the bytes of ``json.dumps(..., sort_keys=True)`` written directly."""
    columns = zip(objective.tolist(), iterations.tolist(), converged.tolist(), fidelity.tolist())
    lines = [
        f'{{"converged": {"true" if flag else "false"}, "fidelity": {_json_float(fid)}, '
        f'"iterations": {steps}, "objective": {_json_float(value)}, "state_id": {index}}}'
        for index, (value, steps, flag, fid) in enumerate(columns)
    ]
    return "\n".join(lines) + "\n"


def run_sweep(
    cfg: ExperimentConfig, *, workers: int = 1, dump_counts: bool = False, state_log: bool = False
) -> list[SweepRow]:
    """Run every (jitter width, photon number) cell of ``cfg`` and return its rows.

    The whole sweep is one batch: the counts of every cell are drawn, and
    all of them are fitted in one ``estimate_states`` call, since every cell
    fits against the same sharp operators.  ``workers`` is an upper bound on
    the processes that fit: the state sample is split into at most that many
    contiguous chunks, each holding at least ``_MIN_WORK_PER_WORKER`` of work
    (fits x sharp-operator entries), so a small sweep runs in this process
    alone and never imports ``multiprocessing``.  When it splits, the calling
    process fits the first chunk and a process pool fits the rest, each over
    every cell.  Then, cell by cell, the mode's metric rows follow and, when
    too many estimates did not converge, a warning row.  ``dump_counts`` and
    ``state_log`` write each cell's counts (drawn again for the whole
    sample, with the same bytes) and its per-state estimate log into
    ``cfg.out_dir``.
    """
    directory = Path(cfg.out_dir)
    if dump_counts or state_log:
        # made before the fit, so that a directory that cannot be made fails first
        directory.mkdir(parents=True, exist_ok=True)
    mode = MODES[cfg.mode]
    states, pure = mode.sample(cfg.sample)
    dim = states.shape[1]
    settings, sharp, smeared = setting_operators(cfg.dynamics, cfg.sigma_list, IC_POVM_INSTANTS, dim)
    cells = [(sigma, n_photons) for sigma in cfg.sigma_list for n_photons in cfg.photon_list]
    work = len(states) * len(cells) * sharp.size
    n_chunks = min(workers, max(1, work // _MIN_WORK_PER_WORKER))
    offsets = sorted({len(states) * w // n_chunks for w in range(n_chunks)})
    chunks = [states[lo:hi] for lo, hi in zip(offsets, offsets[1:] + [len(states)])]
    fit = functools.partial(_fit_chunk, cfg, cells, sharp, smeared)
    if len(chunks) == 1:
        parts = [fit(states, 0)]
    else:
        # imported only here: multiprocessing adds about 20 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(len(chunks) - 1) as pool:
            pending = [pool.submit(fit, chunk, offset) for chunk, offset in zip(chunks[1:], offsets[1:])]
            parts = [fit(chunks[0], offsets[0])] + [future.result() for future in pending]
    fields = [np.concatenate(field, axis=1) for field in zip(*parts)]
    if dump_counts:
        measured = count_rows(states, smeared, cfg.photon_list, cfg.seed).reshape(len(cells), len(states), -1)
        sharp_overlaps = overlaps(states, sharp)
        times = [f"{_fmt(t[0])},{_fmt(t[1]) if len(t) == 2 else ''}" for t in settings]
    rows = []
    for cell, (sigma, n_photons) in enumerate(cells):
        fits = StateEstimates(*(field[cell] for field in fields))
        fidelity = fidelities(states, fits.rho, pure)
        rows += [
            SweepRow(sigma, n_photons, m.metric_name, m.mean, m.sd, m.stderr, m.n)
            for m in mode.metrics(fits, fidelity)
        ]
        warning = _warning_row(sigma, n_photons, fits.converged)
        if warning:
            rows.append(warning)
        tag = f"sigma{_fmt(sigma)}_N{_fmt(n_photons)}"
        if dump_counts:
            expected = n_photons * sharp_overlaps
            lines = [COUNTS_HEADER] + [
                f"{index},{t},{_fmt(e)},{_fmt(m)}"
                for index, row in enumerate(zip(expected.tolist(), measured[cell].tolist()))
                for t, e, m in zip(times, *row)
            ]
            (directory / f"counts_{tag}.csv").write_text("\n".join(lines) + "\n")
        if state_log:
            text = _state_log(fits.objective, fits.iterations, fits.converged, fidelity)
            (directory / f"estimates_{tag}.jsonl").write_text(text)
    return rows


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
        for start in range(0, len(grid), _TRAJECTORY_BLOCK_ROWS):
            block = grid[start : start + _TRAJECTORY_BLOCK_ROWS]
            fh.write(_g6_bytes(bloch_trajectory(cfg.operator, cfg.dynamics, cfg.sigma_over_T, block)))
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
# output documents


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{_fmt(row.sigma)},{_fmt(row.n_photons)},{row.metric},"
            f"{_fmt(row.mean)},{_fmt(row.sd)},{_fmt(row.stderr)},{row.n}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, rows: list[SweepRow]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(sweep_rows_to_csv(rows))
    return path


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
