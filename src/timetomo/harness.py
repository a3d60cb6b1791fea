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
from .measurement import IC_POVM_INSTANTS, POLARIZATION_KETS, bloch_trajectory, jittered_matrices, setting_operators
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

# Rows of the trajectory table formatted by one %-format each.  Python floats
# format several times faster than numpy scalars, and a block bounds the size
# of the string held at once.
_TRAJECTORY_BLOCK_ROWS = 1024

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
    periods: tuple[float, float, float] = (4.0, 1.0, 2.0)

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
        sharp = jittered_matrices("H", self.dynamics, 0.0, IC_POVM_INSTANTS)
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


def load_config(source, *, seed=None, out_dir=None, paper_scale=False):
    """Parse a JSON config into an ExperimentConfig or TrajectoryConfig.

    ``source`` is a path or an already-parsed dict.  Its keys, and those of
    its ``estimator`` and ``sample`` objects, are the fields of the config
    dataclasses, a sample taking only its mode's ``sample_keys``; an unknown
    key or a missing required one raises.  ``seed`` / ``out_dir`` override
    the config; ``paper_scale`` swaps in the full-size sample grids.
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
    if paper_scale and mode in MODES:
        fields["sample"] = MODES[mode].paper
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
    paper: SampleSizes
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
        "qubit-sweep", SampleSizes(n_r=8, n_theta=8, n_phi=8), SampleSizes(n_r=21, n_theta=21, n_phi=20),
        lambda s: sample_mixed_qubits(s.n_r, s.n_theta, s.n_phi), _fidelity_metrics,
    ),
    "qubit-pure": SweepMode(
        "qubit-sweep", SampleSizes(n_theta=8, n_phi=8), SampleSizes(n_theta=21, n_phi=20),
        lambda s: sample_pure_qubits(s.n_theta, s.n_phi), _fidelity_metrics,
    ),
    "qubit-orthogonal-pairs": SweepMode(
        "ortho-sweep", SampleSizes(n_theta=8, n_phi=8), SampleSizes(n_theta=21, n_phi=20),
        lambda s: orthogonal_pairs(s.n_theta, s.n_phi), _orthogonality_metrics,
    ),
    "entangled": SweepMode(
        "entangled-sweep", SampleSizes(n_states=50), SampleSizes(n_states=200),
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
        tag = f"sigma{sigma:g}_N{n_photons:g}"
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
    table = bloch_trajectory(cfg.operator, cfg.dynamics, cfg.sigma_over_T, grid)
    path = directory / "trajectory.csv"
    width = table.shape[1]
    row = ",".join(["%.6g"] * width) + "\n"
    values = table.ravel().tolist()
    step = width * _TRAJECTORY_BLOCK_ROWS
    with path.open("w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for start in range(0, len(values), step):
            block = values[start : start + step]
            # '%.6g' % x and f"{x:.6g}" agree, so this writes the bytes of per-value formatting
            fh.write((row * (len(block) // width)) % tuple(block))
    return path


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
